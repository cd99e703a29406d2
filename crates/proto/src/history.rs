//! The execution history: one typed [`History`] record per semantic
//! protocol action, emitted once to the [`Sink`]. [`Sink::emit`] alone
//! decides what each action feeds: per-node and per-region counters, the
//! obs recorder's events, span waits and segments, the sharing profile and
//! the installed [`Checker`] — so what is counted is what is traced is what
//! is checked, by construction.
//!
//! Records borrow their payloads from protocol state, which the sink holds
//! none of. The checker never charges virtual time or mutates protocol
//! state, so a checked run is bit-identical to an unchecked one. Its
//! implementation lives in `dsm-check`; the trait lives here to avoid a
//! dependency cycle.

use dsm_mem::{BlockId, Layout};
use dsm_net::MSG_HEADER_BYTES;
use dsm_obs::{EventKind, ObsConfig, Recorder, SharingProfile, WaitKind};
use dsm_sim::{NodeId, Time};
use dsm_stats::{Counters, RegionCounters};

use crate::diff::Diff;
use crate::msg::{FaultKind, Notice, ProtoMsg};
use crate::vt::VClock;

/// One invariant violation found by a checker.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Violation {
    /// Stable rule identifier (e.g. `"hb-race"`, `"lrc-notice-set"`).
    pub rule: &'static str,
    /// Node at which the violation was observed.
    pub node: NodeId,
    /// Coherence block involved, when the rule concerns one.
    pub block: Option<BlockId>,
    /// Virtual time of the observation, in nanoseconds.
    pub time: Time,
    /// Human-readable description with rule-specific fields.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] node {}", self.rule, self.node)?;
        if let Some(b) = self.block {
            write!(f, " block {b}")?;
        }
        write!(f, " t={}ns: {}", self.time, self.detail)
    }
}

/// One semantic action of a run. The acting node and the virtual time are
/// passed alongside (see [`Sink::emit`]); fields name the other parties.
#[allow(missing_docs)] // fields are described on their variant
#[derive(Debug)]
pub enum History<'a> {
    /// The node entered the measured phase: its counters and event rings
    /// restart, and accesses from here on are race-checked.
    MeasureBegin,
    /// A shared-memory access of `len` bytes at `addr` completed (after
    /// access rights were obtained; never for faulting retries).
    Access {
        addr: usize,
        len: usize,
        write: bool,
    },
    /// A remote fault on `block` starts.
    FaultBegin { block: BlockId, kind: FaultKind },
    /// SC: a read grant poisoned by an in-flight invalidation was discarded
    /// and the read miss re-sent. Counts a read fault; the stall that began
    /// with the original `FaultBegin` continues.
    FaultRetry { block: BlockId },
    /// A remote fault on `block` ended after a stall of `dur` ns.
    FaultEnd {
        block: BlockId,
        kind: FaultKind,
        dur: Time,
    },
    /// A write fault on `block` was resolved locally (HLRC twin, SW-LRC
    /// re-enable) in `dur` ns of local protocol work.
    LocalFault { block: BlockId, dur: Time },
    /// HLRC: a twin of `block` was made; the node now holds `held` twin
    /// bytes.
    TwinCreate { block: BlockId, held: u64 },
    /// HLRC: the node encoded its interval-`interval` writes to `block` as
    /// `diff`, from clean copy `twin` and current contents `cur`.
    DiffCreate {
        block: BlockId,
        twin: &'a [u8],
        cur: &'a [u8],
        diff: &'a Diff,
        interval: u32,
    },
    /// HLRC: the home applied `writer`'s interval-`interval` diff of
    /// `bytes` wire bytes to `block`.
    DiffApply {
        block: BlockId,
        writer: NodeId,
        interval: u32,
        bytes: u64,
    },
    /// HLRC: the node, as home of `block`, flushed its own interval
    /// `interval` (its master copy already holds the writes).
    HomeFlush { block: BlockId, interval: u32 },
    /// LRC: the node closed interval `interval` at a release, logging
    /// `notices`; `vt` is the post-tick vector time.
    Release {
        interval: u32,
        vt: &'a VClock,
        notices: &'a [Notice],
    },
    /// LRC: `count` write notices left with a lock grant or barrier
    /// release, or were processed at an acquire (`acquire`).
    Notices { count: u64, acquire: bool },
    /// The node's copy of `block` was invalidated.
    Invalidate { block: BlockId },
    /// SW-LRC: the authoritative version of `block` is now `version`
    /// (ownership migration or first claim).
    SwVersion { block: BlockId, version: u32 },
    /// SW-LRC: the node published a notice for `block` at `version`;
    /// `fresh` distinguishes a version minted at this release from one
    /// re-published after an ownership migration.
    SwNotice {
        block: BlockId,
        version: u32,
        fresh: bool,
    },
    /// SC: the node installed a copy of `block` (`exclusive` = write
    /// access) while `readers`/`writers` held Read/ReadWrite copies.
    ScInstall {
        block: BlockId,
        exclusive: bool,
        readers: &'a [NodeId],
        writers: &'a [NodeId],
    },
    /// Tardis: the home granted `reader` a read of `block` at write
    /// timestamp `wts` with a lease ending at `lease`; `renewal` marks a
    /// header-only renewal of a still-current copy.
    LeaseGrant {
        reader: NodeId,
        block: BlockId,
        wts: u64,
        lease: u64,
        renewal: bool,
    },
    /// Tardis: a read found its lease on `block` expired.
    LeaseExpire { block: BlockId },
    /// Tardis: the home granted `writer` ownership of `block` at `wts`,
    /// minted from `old_wts` past the largest outstanding lease end `rts`.
    WtsGrant {
        writer: NodeId,
        block: BlockId,
        old_wts: u64,
        wts: u64,
        rts: u64,
    },
    /// Tardis: the node merged a program timestamp `pts` carried by a lock
    /// grant or barrier release.
    PtsMerge { pts: u64 },
    /// The node released `lock`; `vt` is its post-release vector time.
    LockRelease { lock: usize, vt: &'a VClock },
    /// The node received the grant for `lock` carrying `vt`/`notices`
    /// (`vt` is `None` under SC); `cur` is its own vector time before the
    /// grant applies.
    LockAcquire {
        lock: usize,
        vt: Option<&'a VClock>,
        notices: &'a [Notice],
        cur: &'a VClock,
    },
    /// A lock acquire completed after waiting `dur` ns.
    LockWait { lock: usize, dur: Time },
    /// The node arrived at `barrier` (a release).
    BarrierArrive { barrier: usize },
    /// The node passed `barrier`; fields as for `LockAcquire`. `skip_join`
    /// is only ever set by the `hb-skip-barrier` self-test mutation.
    BarrierPass {
        barrier: usize,
        vt: Option<&'a VClock>,
        notices: &'a [Notice],
        cur: &'a VClock,
        skip_join: bool,
    },
    /// A barrier episode completed after waiting `dur` ns.
    BarrierWait { barrier: usize, dur: Time },
    /// The node's clock advanced over `[now - dur, now]`.
    Advance { dur: Time },
    /// `msg` left for `to` with `ctrl` control (header excluded) and `data`
    /// payload bytes. Self-sends bypass the network and are not emitted.
    MsgSend {
        to: NodeId,
        msg: &'a ProtoMsg,
        ctrl: u64,
        data: u64,
    },
    /// `msg` was dispatched to its handler (all deferrals applied).
    MsgRecv { msg: &'a ProtoMsg },
    /// An asynchronous request was serviced via interrupt.
    Interrupt,
    /// A frame waited `dur` ns behind a busy NI engine (0 = no wait).
    NetQueue { dur: Time },
    /// The fabric retransmitted frame `seq` to `to` (`attempt` 1 = first
    /// retry).
    Retransmit { to: NodeId, seq: u64, attempt: u32 },
    /// Fabric data frame `(src → node, seq)` arrived. `duplicate` is the
    /// fabric's own suppression verdict; `posted` is how many reassembled
    /// envelopes it released to the protocol layer.
    FabricFrame {
        src: NodeId,
        seq: u64,
        duplicate: bool,
        posted: usize,
    },
}

/// Observer of the execution history, installed on the sink of a run.
pub trait Checker: Send {
    /// Observe `node`'s action `ev` at virtual time `now`. Calls follow
    /// engine execution order, which is fully serialized and
    /// deterministic; in particular every release-side action comes before
    /// the acquire-side action it happens-before.
    fn observe(&mut self, node: NodeId, now: Time, ev: &History<'_>);

    /// End of run: perform whole-run reconciliation (e.g. notice ↔ diff
    /// matching) and return every violation found, in discovery order.
    fn finalize(&mut self, now: Time) -> Vec<Violation>;

    /// Stable digest of the checker's internal state, folded into the
    /// model checker's state fingerprint so a pruned prefix can never
    /// hide a violation the checker would have reported later.
    fn mc_fingerprint(&self) -> u64;
}

/// Every consumer of the history: counters, recorder, profile, checker.
pub struct Sink {
    /// Per-node statistics.
    pub stats: Vec<Counters>,
    /// Per-region counters (faults, invalidations, traffic), summed over
    /// nodes.
    pub region_stats: Vec<RegionCounters>,
    /// Structured event recorder (one branch per event when disabled).
    pub obs: Recorder,
    /// Exact fine-grain sharing profile (profiling runs only).
    pub profile: Option<SharingProfile>,
    /// Installed run-time checker, if any.
    pub check: Option<Box<dyn Checker>>,
    layout: Layout,
}

impl Sink {
    /// Consumers for a `nodes`-node run over `layout`.
    pub fn new(nodes: usize, layout: Layout, obs: &ObsConfig, profile: bool) -> Sink {
        Sink {
            stats: vec![Counters::default(); nodes],
            region_stats: vec![RegionCounters::default(); layout.num_regions()],
            obs: Recorder::new(nodes, obs),
            profile: profile.then(|| SharingProfile::new(layout.size())),
            check: None,
            layout,
        }
    }

    /// Feed `node`'s action `ev` at virtual time `now` to every consumer.
    #[inline]
    pub fn emit(&mut self, node: NodeId, now: Time, ev: History<'_>) {
        let Sink {
            stats,
            region_stats,
            obs,
            profile,
            check,
            layout,
        } = self;
        let st = &mut stats[node];
        let mut note_profile = |block: BlockId, write: bool| {
            if let Some(p) = profile.as_mut() {
                let r = layout.block_range(block);
                p.note(node, r.start, r.end, write);
            }
        };
        match ev {
            History::MeasureBegin => {
                *st = Counters::default();
                obs.note_begin(node, now);
            }
            History::FaultBegin { block, kind } => {
                let write = kind == FaultKind::Write;
                fault(st, &mut region_stats[layout.region_of_block(block)], write);
                note_profile(block, write);
                obs.record(node, now, EventKind::FaultBegin { block, write });
            }
            History::FaultRetry { block } => {
                fault(st, &mut region_stats[layout.region_of_block(block)], false);
                note_profile(block, false);
            }
            History::FaultEnd { block, kind, dur } => {
                let write = kind == FaultKind::Write;
                if write {
                    st.write_stall_ns += dur;
                } else {
                    st.read_stall_ns += dur;
                }
                obs.record(node, now, EventKind::FaultEnd { block, write, dur });
                obs.span_wait(node, now, dur, WaitKind::Fetch);
            }
            History::LocalFault { block, dur } => {
                st.local_write_faults += 1;
                st.proto_local_ns += dur;
                region_stats[layout.region_of_block(block)].local_faults += 1;
                note_profile(block, true);
                obs.record(node, now, EventKind::LocalFault { block, dur });
            }
            History::TwinCreate { block, held } => {
                st.twins_created += 1;
                st.twin_bytes_peak = st.twin_bytes_peak.max(held);
                obs.record(node, now, EventKind::TwinCreate { block });
            }
            History::DiffCreate { block, diff, .. } => {
                let bytes = diff.wire_bytes();
                st.diffs_created += 1;
                st.diff_bytes += bytes;
                obs.record(node, now, EventKind::DiffCreate { block, bytes });
            }
            History::DiffApply { block, bytes, .. } => {
                st.diffs_applied += 1;
                obs.record(node, now, EventKind::DiffApply { block, bytes });
            }
            History::Release { notices, .. } => st.write_notices_sent += notices.len() as u64,
            History::Notices { count, acquire } => {
                if acquire {
                    st.write_notices_recv += count;
                } else {
                    st.write_notices_sent += count;
                }
                if count > 0 {
                    obs.record(node, now, EventKind::WriteNotices { count, acquire });
                }
            }
            History::Invalidate { block } => {
                st.invalidations += 1;
                region_stats[layout.region_of_block(block)].invalidations += 1;
                obs.record(node, now, EventKind::Invalidate { block });
            }
            History::LeaseGrant {
                block,
                renewal: true,
                ..
            } => {
                st.lease_renewals += 1;
                obs.record(node, now, EventKind::LeaseRenew { block });
            }
            History::LeaseExpire { block } => {
                st.lease_expiries += 1;
                obs.record(node, now, EventKind::LeaseExpire { block });
            }
            History::WtsGrant { old_wts, rts, .. } => st.wts_bumps += (rts > old_wts) as u64,
            History::LockWait { lock, dur } => {
                st.lock_acquires += 1;
                st.lock_wait_ns += dur;
                obs.record(node, now, EventKind::LockWait { lock, dur });
                obs.span_wait(node, now, dur, WaitKind::Lock);
            }
            History::BarrierArrive { .. } => st.barriers += 1,
            History::BarrierWait { barrier, dur } => {
                st.barrier_wait_ns += dur;
                obs.record(node, now, EventKind::BarrierWait { barrier, dur });
                obs.span_wait(node, now, dur, WaitKind::Barrier);
            }
            History::Advance { dur } => {
                obs.record(node, now, EventKind::Advance { dur });
                obs.span_seg(node, now, dur);
            }
            History::MsgSend {
                to,
                msg,
                ctrl,
                data,
            } => {
                let ctrl = ctrl + MSG_HEADER_BYTES;
                st.msgs_sent += 1;
                st.ctrl_bytes += ctrl;
                st.data_bytes += data;
                let block = msg.concerns_block();
                if let Some(b) = block {
                    let rs = &mut region_stats[layout.region_of_block(b)];
                    rs.msgs += 1;
                    rs.ctrl_bytes += ctrl;
                    rs.data_bytes += data;
                }
                let tag = msg.tag();
                let sent = EventKind::MsgSend {
                    to,
                    tag,
                    block,
                    ctrl,
                    data,
                };
                obs.record(node, now, sent);
            }
            History::MsgRecv { msg } if obs.is_active() => {
                let (tag, block) = (msg.tag(), msg.concerns_block());
                obs.record(node, now, EventKind::MsgRecv { tag, block });
            }
            History::Interrupt => {
                st.interrupts_taken += 1;
                obs.record(node, now, EventKind::Interrupt);
            }
            History::NetQueue { dur } => {
                st.fabric_queue_ns += dur;
                if dur > 0 {
                    obs.record(node, now, EventKind::NetQueue { dur });
                }
            }
            History::Retransmit { to, seq, attempt } => {
                st.fabric_retries += 1;
                obs.record(node, now, EventKind::Retransmit { to, seq, attempt });
            }
            History::FabricFrame { duplicate, .. } => st.fabric_dup_drops += duplicate as u64,
            // Checker-only records, and the cases above with nothing to count.
            _ => {}
        }
        if let Some(c) = check.as_deref_mut() {
            c.observe(node, now, &ev);
        }
    }

    /// End of run: the installed checker's findings (none without one).
    pub fn take_violations(&mut self, now: Time) -> Vec<Violation> {
        self.check
            .take()
            .map_or_else(Vec::new, |mut c| c.finalize(now))
    }

    /// The installed checker's state digest, for model-checker state
    /// deduplication.
    pub fn check_fingerprint(&self) -> Option<u64> {
        self.check.as_ref().map(|c| c.mc_fingerprint())
    }
}

/// Count a remote read or write fault at a node and in its region.
fn fault(st: &mut Counters, rs: &mut RegionCounters, write: bool) {
    if write {
        st.write_faults += 1;
        rs.write_faults += 1;
    } else {
        st.read_faults += 1;
        rs.read_faults += 1;
    }
}
