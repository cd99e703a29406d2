//! Node-side operations: the access-check fast path and fault entry points
//! used by the run-time thread API in `dsm-core`.

use dsm_mem::{Access, BlockId};
use dsm_sim::{NodeId, Sched, Time};

use crate::config::Protocol;
use crate::history::History;
use crate::msg::{FaultKind, Packet};
use crate::world::ProtoWorld;
use crate::{hlrc, sc, swlrc, tardis};

/// Result of an access attempt on the fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attempt {
    /// The access completed; charge this local time.
    Done(Time),
    /// A fault on the given block was resolved locally (HLRC twinning,
    /// SW-LRC write re-enable); charge this time and retry the access.
    LocalFault(Time, BlockId),
    /// The access faults remotely on this block; start a fault, block, and
    /// retry.
    Fault(BlockId),
}

/// Cost of an access touching `len` bytes that hits locally.
#[inline]
pub fn access_cost(w: &ProtoWorld, len: usize) -> Time {
    len.div_ceil(8) as Time * w.cfg.cost.local_access_ns
}

/// Attempt to read `buf.len()` bytes at `addr` into `buf`. `now` stamps the
/// access for an installed checker.
pub fn try_read(w: &mut ProtoWorld, me: NodeId, addr: usize, buf: &mut [u8], now: Time) -> Attempt {
    for b in w.cfg.layout.blocks_covering(addr, buf.len()) {
        if !w.access.get(me, b).readable() {
            return Attempt::Fault(b);
        }
        // Tardis read-only copies additionally expire lazily against the
        // program timestamp (owners hold ReadWrite and are exempt).
        if w.has_tardis
            && w.access.get(me, b) == Access::Read
            && w.protocol_of(b) == Protocol::Tardis
            && !tardis::lease_valid(w, me, b, now)
        {
            return Attempt::Fault(b);
        }
    }
    buf.copy_from_slice(&w.data.node(me)[addr..addr + buf.len()]);
    let (len, write) = (buf.len(), false);
    w.sink.emit(me, now, History::Access { addr, len, write });
    Attempt::Done(access_cost(w, buf.len()))
}

/// Attempt to write `data` at `addr`. `now` stamps locally-resolved fault
/// events.
pub fn try_write(w: &mut ProtoWorld, me: NodeId, addr: usize, data: &[u8], now: Time) -> Attempt {
    for b in w.cfg.layout.blocks_covering(addr, data.len()) {
        match w.access.get(me, b) {
            Access::ReadWrite => {}
            Access::Read => match w.protocol_of(b) {
                Protocol::Sc => return Attempt::Fault(b),
                Protocol::SwLrc => {
                    if w.sw.is_owner(me, b) {
                        return Attempt::LocalFault(swlrc::local_reenable(w, me, b), b);
                    }
                    return Attempt::Fault(b);
                }
                Protocol::Hlrc => {
                    // A store on an unclaimed block must claim the home
                    // through the directory (store touch), not twin locally.
                    if w.homes.home(b).is_none() {
                        return Attempt::Fault(b);
                    }
                    return Attempt::LocalFault(hlrc::local_write_fault(w, me, b, now), b);
                }
                // Tardis upgrades go through the home: exclusivity needs a
                // freshly minted write timestamp.
                Protocol::Tardis => return Attempt::Fault(b),
            },
            Access::Invalid => return Attempt::Fault(b),
        }
    }
    w.data.node_mut(me)[addr..addr + data.len()].copy_from_slice(data);
    let (len, write) = (data.len(), true);
    w.sink.emit(me, now, History::Access { addr, len, write });
    Attempt::Done(access_cost(w, data.len()))
}

/// Start a remote fault on `b`; the caller blocks until the protocol wakes
/// it with the access installed.
pub fn start_fault(
    w: &mut ProtoWorld,
    s: &mut Sched<Packet>,
    me: NodeId,
    b: BlockId,
    kind: FaultKind,
) {
    w.sink
        .emit(me, s.now(), History::FaultBegin { block: b, kind });
    match w.protocol_of(b) {
        Protocol::Sc => sc::start_fault(w, s, me, b, kind),
        Protocol::SwLrc => swlrc::start_fault(w, s, me, b, kind),
        Protocol::Hlrc => hlrc::start_fault(w, s, me, b, kind),
        Protocol::Tardis => tardis::start_fault(w, s, me, b, kind),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtoConfig;
    use dsm_mem::Layout;
    use dsm_net::Notify;

    fn world(p: Protocol) -> ProtoWorld {
        let mut cfg = ProtoConfig::new(Layout::new(1024, 64), p, Notify::Polling);
        cfg.nodes = 4;
        ProtoWorld::new(cfg)
    }

    #[test]
    fn read_of_invalid_block_faults() {
        let mut w = world(Protocol::Sc);
        let mut buf = [0u8; 8];
        assert_eq!(try_read(&mut w, 0, 0, &mut buf, 0), Attempt::Fault(0));
    }

    #[test]
    fn read_hits_after_access_granted() {
        let mut w = world(Protocol::Sc);
        w.access.set(0, 0, Access::Read);
        w.data.node_mut(0)[0..8].copy_from_slice(&7u64.to_le_bytes());
        let mut buf = [0u8; 8];
        match try_read(&mut w, 0, 0, &mut buf, 0) {
            Attempt::Done(t) => assert_eq!(t, w.cfg.cost.local_access_ns),
            other => panic!("expected Done, got {other:?}"),
        }
        assert_eq!(u64::from_le_bytes(buf), 7);
    }

    #[test]
    fn write_on_read_copy_faults_under_sc() {
        let mut w = world(Protocol::Sc);
        w.access.set(0, 3, Access::Read);
        assert_eq!(
            try_write(&mut w, 0, 3 * 64, &[1, 2, 3], 0),
            Attempt::Fault(3)
        );
    }

    #[test]
    fn hlrc_write_on_read_copy_twins_locally() {
        let mut w = world(Protocol::Hlrc);
        w.homes.assign(3, 1); // remote home
        w.access.set(0, 3, Access::Read);
        match try_write(&mut w, 0, 3 * 64, &[9], 0) {
            Attempt::LocalFault(t, b) => {
                assert!(t >= w.cfg.cost.fault_exception_ns);
                assert_eq!(b, 3);
            }
            other => panic!("expected LocalFault, got {other:?}"),
        }
        assert!(w.nodes[0].twins.has(3));
        assert_eq!(w.access.get(0, 3), Access::ReadWrite);
        // Retry succeeds and the write lands.
        match try_write(&mut w, 0, 3 * 64, &[9], 0) {
            Attempt::Done(_) => {}
            other => panic!("expected Done, got {other:?}"),
        }
        assert_eq!(w.data.node(0)[3 * 64], 9);
    }

    #[test]
    fn spanning_access_checks_every_block() {
        let mut w = world(Protocol::Sc);
        w.access.set(0, 0, Access::Read);
        // Block 1 still invalid: a read spanning both faults on block 1.
        let mut buf = [0u8; 16];
        assert_eq!(try_read(&mut w, 0, 56, &mut buf, 0), Attempt::Fault(1));
    }
}
