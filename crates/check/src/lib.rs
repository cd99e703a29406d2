//! dsm-check: happens-before race detection and online protocol invariant
//! checking for the simulated DSM cluster.
//!
//! [`RunChecker`] implements [`dsm_proto::Checker`]: it observes the run's
//! execution history ([`dsm_proto::History`]), the same record stream that
//! feeds the counters and the event recorder. It is installed on a
//! [`dsm_proto::ProtoWorld`]'s sink by the run harness when checking is
//! requested (`RunConfig::with_check` / `DSM_CHECK=1`) and is entirely
//! absent otherwise — it observes the protocol but never charges virtual
//! time or mutates protocol state, so a checked run produces bit-identical
//! results to an unchecked one.
//!
//! Two layers run side by side:
//!
//! - a FastTrack-style **race detector** ([`race`]) that rebuilds
//!   happens-before from the synchronization records alone and shadows every
//!   8-byte word of the shared space;
//! - **protocol invariant mirrors** ([`inv`]) that independently re-derive
//!   LRC write-notice completeness, HLRC diff coverage and flush
//!   reconciliation, SW-LRC version monotonicity, SC install legality,
//!   Tardis timestamp-lease legality (monotone write timestamps, writes
//!   ordered past outstanding leases, no read above its lease), and the
//!   reliable fabric's exactly-once in-order delivery.
//!
//! Violations accumulate (capped) and are returned by `finalize`.

pub mod inv;
pub mod race;

use dsm_mem::{BlockId, Layout};
use dsm_proto::{Checker, History, Protocol, Violation};
use dsm_sim::{NodeId, Time};

use inv::{FabricMirror, HlMirror, LrcMirror, SwMirror, TdMirror};
use race::RaceDetector;

/// Hard cap on stored violations: a genuinely broken run would otherwise
/// report every access; the count of suppressed reports is kept.
const MAX_VIOLATIONS: usize = 200;

/// The full per-run checker. See the crate docs for the layer breakdown.
pub struct RunChecker {
    app: String,
    layout: Layout,
    /// Protocol per layout region (same indexing as `layout.regions()`).
    region_protocols: Vec<Protocol>,
    /// Fabric delivery checks only apply under the reliable fabric; the
    /// ideal fire-and-forget network has no sequencing to validate.
    fabric_reliable: bool,
    det: RaceDetector,
    lrc: LrcMirror,
    hl: HlMirror,
    sw: SwMirror,
    td: TdMirror,
    fab: FabricMirror,
    /// Last synchronization operation per node, for race attribution.
    sync_ctx: Vec<String>,
    violations: Vec<Violation>,
    suppressed: usize,
}

impl RunChecker {
    /// Checker for an `nodes`-node run of `app` over `layout`, with one
    /// protocol per layout region (uniform runs pass the same protocol for
    /// every region).
    pub fn new(
        app: &str,
        nodes: usize,
        layout: Layout,
        region_protocols: Vec<Protocol>,
        fabric_reliable: bool,
    ) -> Self {
        assert_eq!(
            region_protocols.len(),
            layout.regions().len(),
            "one protocol per layout region"
        );
        RunChecker {
            app: app.to_string(),
            layout,
            region_protocols,
            fabric_reliable,
            det: RaceDetector::new(nodes),
            lrc: LrcMirror::new(nodes),
            hl: HlMirror::default(),
            sw: SwMirror::default(),
            td: TdMirror::default(),
            fab: FabricMirror::default(),
            sync_ctx: vec!["before any synchronization".to_string(); nodes],
            violations: Vec::new(),
            suppressed: 0,
        }
    }

    fn push(
        &mut self,
        rule: &'static str,
        node: NodeId,
        block: Option<BlockId>,
        time: Time,
        detail: String,
    ) {
        if self.violations.len() >= MAX_VIOLATIONS {
            self.suppressed += 1;
            return;
        }
        self.violations.push(Violation {
            rule,
            node,
            block,
            time,
            detail,
        });
    }

    fn push_fail(&mut self, f: inv::Fail, node: NodeId, block: Option<BlockId>, time: Time) {
        self.push(f.0, node, block, time, f.1);
    }

    fn protocol_of(&self, b: BlockId) -> Protocol {
        let start = self.layout.block_range(b).start;
        self.region_protocols[self.layout.region_of_addr(start)]
    }

    fn region_name(&self, addr: usize) -> &str {
        self.layout.regions()[self.layout.region_of_addr(addr)].name()
    }

    fn access(&mut self, me: NodeId, addr: usize, len: usize, write: bool, now: Time) {
        // Tardis lease legality is checked on every access, armed or not —
        // leases and program timestamps are live from the first fault.
        // Accesses arrive pre-split at block boundaries, so one block per
        // call.
        let block = self.layout.block_of(addr);
        if self.protocol_of(block) == Protocol::Tardis {
            if let Some(f) = self.td.on_access(me, block, write) {
                self.push_fail(f, me, Some(block), now);
            }
        }
        let races = self.det.access(me, addr, len, write);
        for r in races {
            let waddr = r.word * race::WORD;
            let block = self.layout.block_of(waddr);
            let off = waddr - self.layout.block_range(block).start;
            let detail = format!(
                "app={} region={} addr={waddr:#x} (block {block} offset {off}) {}: \
                 node {} @ clock {} vs node {me} @ clock {}; {me}'s sync context: {}",
                self.app,
                self.region_name(waddr),
                r.kind,
                r.prior.node(),
                r.prior.clock(),
                r.current_clock,
                self.sync_ctx[me],
            );
            self.push("hb-race", me, Some(block), now, detail);
        }
    }
}

impl Checker for RunChecker {
    fn observe(&mut self, me: NodeId, now: Time, ev: &History<'_>) {
        // Mirror-checked records yield what the mirror found, attributed
        // to a node and block; the others update state and return.
        let (fail, node, block) = match *ev {
            History::MeasureBegin => {
                self.det.arm(me);
                self.sync_ctx[me] = format!("measurement begin @ {now}");
                return;
            }
            History::Access { addr, len, write } => return self.access(me, addr, len, write, now),
            History::LockRelease { lock, vt } => {
                self.lrc.on_lock_release(lock, vt);
                self.det.release_lock(me, lock);
                self.sync_ctx[me] = format!("released lock {lock} @ {now}");
                return;
            }
            History::LockAcquire {
                lock,
                vt,
                notices,
                cur,
            } => {
                if let Some(vt) = vt {
                    let fail = self
                        .lrc
                        .check_grant(&format!("lock {lock}"), vt, notices, cur);
                    let dominated = self.lrc.check_lock_dominates(lock, vt);
                    for f in fail.into_iter().chain(dominated) {
                        self.push_fail(f, me, None, now);
                    }
                }
                self.det.acquire_lock(me, lock);
                self.sync_ctx[me] = format!("acquired lock {lock} @ {now}");
                return;
            }
            History::BarrierArrive { barrier } => return self.det.bar_arrive(me, barrier),
            History::BarrierPass {
                barrier,
                vt,
                notices,
                cur,
                skip_join,
            } => {
                if let Some(vt) = vt {
                    let what = format!("barrier {barrier}");
                    if let Some(f) = self.lrc.check_grant(&what, vt, notices, cur) {
                        self.push_fail(f, me, None, now);
                    }
                }
                self.det.bar_pass(me, barrier, skip_join);
                self.sync_ctx[me] = format!("passed barrier {barrier} @ {now}");
                return;
            }
            History::Release {
                interval, notices, ..
            } => {
                self.lrc.on_release(me, interval, notices);
                for n in notices {
                    if self.protocol_of(n.block) == Protocol::Hlrc {
                        self.hl.on_notice(n.block, n.writer, n.version);
                    }
                }
                return;
            }
            History::DiffCreate {
                block,
                twin,
                cur,
                diff,
                ..
            } => (self.hl.on_diff(block, twin, cur, diff), me, Some(block)),
            History::DiffApply {
                block,
                writer,
                interval,
                ..
            } => (
                self.hl.on_flush(block, writer, interval),
                writer,
                Some(block),
            ),
            History::HomeFlush { block, interval } => {
                (self.hl.on_flush(block, me, interval), me, Some(block))
            }
            History::SwVersion { block, version } => {
                (self.sw.on_version(block, version), 0, Some(block))
            }
            History::SwNotice {
                block,
                version,
                fresh,
            } => (self.sw.on_notice(block, version, fresh), me, Some(block)),
            History::ScInstall {
                block,
                exclusive,
                readers,
                writers,
            } => {
                let fail = inv::check_sc_install(block, exclusive, readers, writers);
                (fail, me, Some(block))
            }
            History::LeaseGrant {
                reader,
                block,
                wts,
                lease,
                ..
            } => return self.td.on_read(reader, block, wts, lease),
            History::WtsGrant {
                writer, block, wts, ..
            } => (self.td.on_write(writer, block, wts), writer, Some(block)),
            History::PtsMerge { pts } => return self.td.on_merge(me, pts),
            // Delivery checks only apply under the reliable fabric.
            History::FabricFrame {
                src, seq, posted, ..
            } if self.fabric_reliable => (self.fab.on_frame(src, me, seq, posted), me, None),
            _ => return,
        };
        if let Some(f) = fail {
            self.push_fail(f, node, block, now);
        }
    }

    fn mc_fingerprint(&self) -> u64 {
        use dsm_sim::rng::{fold64, StableHasher};
        let mut h = self.det.mc_hash();
        h = fold64(h, self.lrc.mc_hash());
        h = fold64(h, self.hl.mc_hash());
        h = fold64(h, self.sw.mc_hash());
        h = fold64(h, self.td.mc_hash());
        h = fold64(h, self.fab.mc_hash());
        h = fold64(h, StableHasher::fingerprint(&self.violations));
        h = fold64(h, StableHasher::fingerprint(&self.sync_ctx));
        fold64(h, self.suppressed as u64)
    }

    fn finalize(&mut self, now: Time) -> Vec<Violation> {
        let fails = self.hl.finalize();
        for f in fails {
            self.push_fail(f, 0, None, now);
        }
        if self.suppressed > 0 {
            // Bypasses the cap: the summary must always make it out.
            self.violations.push(Violation {
                rule: "suppressed",
                node: 0,
                block: None,
                time: now,
                detail: format!(
                    "{} further violation(s) suppressed after the first {MAX_VIOLATIONS}",
                    self.suppressed
                ),
            });
        }
        std::mem::take(&mut self.violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_proto::msg::Notice;
    use dsm_proto::vt::VClock;

    fn checker(nodes: usize) -> RunChecker {
        let layout = Layout::new(4096, 256);
        let protos = vec![Protocol::Hlrc; layout.regions().len()];
        RunChecker::new("unit", nodes, layout, protos, true)
    }

    fn write(c: &mut RunChecker, me: NodeId, addr: usize, now: Time) {
        let ev = History::Access {
            addr,
            len: 8,
            write: true,
        };
        c.observe(me, now, &ev);
    }

    #[test]
    fn race_reports_carry_app_region_and_block_attribution() {
        let mut c = checker(2);
        c.observe(0, 10, &History::MeasureBegin);
        c.observe(1, 10, &History::MeasureBegin);
        write(&mut c, 0, 304, 20);
        write(&mut c, 1, 304, 30);
        let v = c.finalize(40);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "hb-race");
        assert_eq!(v[0].node, 1);
        assert_eq!(v[0].block, Some(1));
        assert!(v[0].detail.contains("app=unit"));
        assert!(v[0].detail.contains("block 1"));
    }

    #[test]
    fn lock_ordered_accesses_are_clean() {
        let mut c = checker(2);
        c.observe(0, 0, &History::MeasureBegin);
        c.observe(1, 0, &History::MeasureBegin);
        let mut vt = VClock::new(2);
        write(&mut c, 0, 0, 1);
        vt.tick(0);
        let notices = [Notice {
            block: 0,
            writer: 0,
            version: 1,
        }];
        let released = History::Release {
            interval: 1,
            vt: &vt,
            notices: &notices,
        };
        c.observe(0, 2, &released);
        c.observe(0, 2, &History::LockRelease { lock: 3, vt: &vt });
        let granted = History::LockAcquire {
            lock: 3,
            vt: Some(&vt),
            notices: &notices,
            cur: &VClock::new(2),
        };
        c.observe(1, 3, &granted);
        write(&mut c, 1, 0, 4);
        assert!(c.finalize(5).is_empty());
    }

    #[test]
    fn violations_are_capped_with_a_summary_record() {
        let mut c = checker(2);
        c.observe(0, 0, &History::MeasureBegin);
        c.observe(1, 0, &History::MeasureBegin);
        for w in 0..(MAX_VIOLATIONS + 10) {
            write(&mut c, 0, w * 8, 1);
            write(&mut c, 1, w * 8, 2);
        }
        let v = c.finalize(3);
        assert_eq!(v.len(), MAX_VIOLATIONS + 1);
        assert_eq!(v.last().unwrap().rule, "suppressed");
    }

    #[test]
    fn sc_install_violation_names_the_stale_holder() {
        let mut c = checker(4);
        let install = History::ScInstall {
            block: 5,
            exclusive: true,
            readers: &[1],
            writers: &[],
        };
        c.observe(2, 100, &install);
        let v = c.finalize(101);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "sc-exclusive-with-readers");
        assert_eq!(v[0].block, Some(5));
    }
}
