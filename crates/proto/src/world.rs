//! The protocol world: all shared protocol state plus message dispatch.

use std::collections::HashMap;

use dsm_fabric::{Fabric, RxOutcome, TxAction, TxOutcome};
use dsm_mem::{Access, AccessTable, BlockId, DataStore, HomeDirectory};
use dsm_net::{Notify, MSG_HEADER_BYTES};
use dsm_sim::{NodeId, Sched, Time, World};

use crate::config::{ProtoConfig, Protocol};
use crate::history::{History, Sink};
use crate::hlrc::HlState;
use crate::lrc::NoticeLog;
use crate::msg::{Envelope, FaultKind, Packet, ProtoMsg};
use crate::mutate::MutRt;
use crate::pool::{BufPool, TwinTable};
use crate::sc::ScState;
use crate::swlrc::SwState;
use crate::sync::{BarrierState, LockState};
use crate::tardis::TdState;
use crate::vt::VClock;
use crate::{hlrc, sc, swlrc, sync, tardis};

/// Per-node protocol runtime state.
#[derive(Debug, Hash)]
pub struct NodeRt {
    /// Vector timestamp (LRC protocols).
    pub vt: VClock,
    /// Interrupts-deferred deadline after the node obtained a block
    /// (delayed-consistency effect of interrupts, §5.4).
    pub intr_disabled_until: Time,
    /// Blocks dirtied in the current interval (LRC), deduplicated.
    pub dirty: Vec<BlockId>,
    /// HLRC: twins of blocks dirtied this interval (remote blocks only).
    pub twins: TwinTable,
    /// HLRC: blocks whose diff was flushed early (mid-interval, on an
    /// incoming notice) and must still be announced at the next release.
    pub flushed_early: Vec<BlockId>,
    /// SC: the node's outstanding fault, used to detect an invalidation
    /// racing a read grant (the grant is then discarded and retried).
    pub pending_fault: Option<(BlockId, FaultKind)>,
    /// SC: set when an invalidation hit the outstanding fault's block.
    pub fault_poisoned: bool,
    /// SC: consecutive retries of the outstanding fault (livelock guard).
    pub fault_retries: u32,
}

impl NodeRt {
    fn new(n: usize) -> Self {
        NodeRt {
            vt: VClock::new(n),
            intr_disabled_until: 0,
            dirty: Vec::new(),
            twins: TwinTable::default(),
            flushed_early: Vec::new(),
            pending_fault: None,
            fault_poisoned: false,
            fault_retries: 0,
        }
    }

    /// Record a block as dirty in the current interval (idempotent; the
    /// caller only invokes this on access-state transitions so duplicates
    /// are already rare; dedup keeps release-time work linear).
    pub fn mark_dirty(&mut self, b: BlockId) {
        if !self.dirty.contains(&b) {
            self.dirty.push(b);
        }
    }
}

/// The complete protocol world, plugged into the simulation engine.
pub struct ProtoWorld {
    /// Run configuration.
    pub cfg: ProtoConfig,
    /// Every node's local copy of the shared space.
    pub data: DataStore,
    /// Per-node per-block access-control state.
    pub access: AccessTable,
    /// First-touch home directory.
    pub homes: HomeDirectory,
    /// Every consumer of the execution history: counters, event recorder,
    /// sharing profile and checker. Kept apart from protocol state so an
    /// emitted record can borrow from the rest of the world.
    pub sink: Sink,
    /// Per-node protocol runtime.
    pub nodes: Vec<NodeRt>,
    /// SC directory state.
    pub sc: ScState,
    /// SW-LRC ownership state.
    pub sw: SwState,
    /// HLRC home state.
    pub hl: HlState,
    /// Tardis timestamp-lease state (empty shell for non-Tardis runs).
    pub td: TdState,
    /// Lock manager state, grown on demand (lock ids are dense).
    pub locks: Vec<LockState>,
    /// Barrier manager state, keyed by barrier id (ids may be sparse, e.g.
    /// the reserved warm-up barrier).
    pub barriers: HashMap<usize, BarrierState>,
    /// Global write-notice log indexed by (node, interval).
    pub log: NoticeLog,
    /// Virtual time at which measurement began (see the warm-up phase).
    pub measure_start: Time,
    /// Protocol per layout region (resolved from the config at build time).
    pub region_proto: Vec<Protocol>,
    /// Whether any region runs an LRC protocol (drives the sync substrate's
    /// consistency-information transport).
    pub has_lrc: bool,
    /// Whether any region runs Tardis (drives the program-timestamp
    /// piggyback on sync messages and the lazy lease-expiry check).
    pub has_tardis: bool,
    /// Recycled byte buffers for twins and diff payloads.
    pub pool: BufPool,
    /// The network fabric (NI queues, fault injector, retransmission).
    pub fabric: Fabric<Envelope>,
    /// Armed protocol mutation (checker self-tests). The mutation *sites*
    /// only exist under the `mutate` feature.
    pub mutate: Option<MutRt>,
    /// Virtual time of the last application-level activity (an envelope
    /// delivered or a node clock advance). With the reliable fabric,
    /// pending retransmission timers drain past the application's real
    /// end; the runner uses this instead of the engine's final clock.
    pub quiesce: Time,
}

impl ProtoWorld {
    /// Build a world from a configuration. All access state starts Invalid;
    /// all node copies start zeroed (use [`ProtoWorld::load_golden`] after
    /// application setup).
    pub fn new(cfg: ProtoConfig) -> Self {
        let n = cfg.nodes;
        let nb = cfg.layout.num_blocks();
        let mut homes = HomeDirectory::new(n, nb);
        if !cfg.first_touch {
            // Ablation baseline: static round-robin homes, no migration.
            for b in 0..nb {
                homes.assign(b, b % n);
            }
        }
        let region_proto: Vec<Protocol> = (0..cfg.layout.num_regions())
            .map(|r| cfg.region_protocol(r))
            .collect();
        let has_lrc = region_proto.iter().any(|p| p.is_lrc());
        let has_tardis = region_proto.contains(&Protocol::Tardis);
        ProtoWorld {
            data: DataStore::new(n, cfg.layout.clone()),
            access: AccessTable::new(n, nb),
            homes,
            sink: Sink::new(n, cfg.layout.clone(), &cfg.obs, cfg.profile),
            nodes: (0..n).map(|_| NodeRt::new(n)).collect(),
            sc: ScState::new(nb),
            sw: SwState::new(n, nb),
            hl: HlState::new(n, nb),
            td: TdState::new(n, nb, has_tardis),
            locks: Vec::new(),
            barriers: HashMap::new(),
            log: NoticeLog::new(n),
            measure_start: 0,
            region_proto,
            has_lrc,
            has_tardis,
            pool: BufPool::default(),
            fabric: Fabric::new(cfg.fabric.clone(), n),
            mutate: cfg.mutation.map(|(m, seed)| MutRt::new(m, seed)),
            quiesce: 0,
            cfg,
        }
    }

    /// Distribute the golden initial image to every node's copy.
    ///
    /// Access state stays Invalid everywhere: cold faults still happen and
    /// still move (identical) data, so fault and traffic counts are
    /// faithful while values are trivially correct.
    pub fn load_golden(&mut self, image: &[u8]) {
        self.data.broadcast_image(image);
    }

    /// Block size of block `b`'s region.
    #[inline]
    pub fn block_size_of(&self, b: BlockId) -> usize {
        self.cfg.layout.block_size_of(b)
    }

    /// The protocol governing block `b` (mixed-mode dispatch point).
    #[inline]
    pub fn protocol_of(&self, b: BlockId) -> Protocol {
        self.region_proto[self.cfg.layout.region_of_block(b)]
    }

    /// Stable fingerprint of everything that determines future protocol
    /// behavior, for model-checker state deduplication. Two worlds with
    /// equal fingerprints (at the same engine state) explore identical
    /// subtrees, so one can be pruned.
    ///
    /// Deliberately excluded: the sink's statistics, observability
    /// recorder and sharing profile, the buffer pool, and `measure_start`
    /// — none of them feed back into protocol decisions. The checker
    /// digest IS included so a pruned prefix cannot hide a later violation.
    pub fn mc_fingerprint(&self) -> u64 {
        use dsm_sim::rng::{fold64, StableHasher};
        let mut h = StableHasher::fingerprint(&(
            &self.data,
            &self.access,
            &self.homes,
            &self.nodes,
            &self.sc,
            &self.sw,
            &self.hl,
            &self.td,
            &self.locks,
            &self.log,
        ));
        // Barriers live in a HashMap; XOR-fold entries so iteration order
        // cannot leak into the fingerprint.
        let mut bars = 0u64;
        for (id, st) in &self.barriers {
            bars ^= StableHasher::fingerprint(&(id, st));
        }
        h = fold64(h, bars);
        h = fold64(h, self.fabric.mc_hash());
        h = fold64(h, self.quiesce);
        if let Some(m) = &self.mutate {
            h = fold64(h, StableHasher::fingerprint(m));
        }
        if let Some(c) = self.sink.check_fingerprint() {
            h = fold64(h, c);
        }
        h
    }

    /// Ensure lock `l` exists.
    pub fn lock_mut(&mut self, l: usize) -> &mut LockState {
        if self.locks.len() <= l {
            self.locks.resize_with(l + 1, LockState::default);
        }
        &mut self.locks[l]
    }

    /// Ensure barrier `b` exists.
    pub fn barrier_mut(&mut self, b: usize) -> &mut BarrierState {
        self.barriers.entry(b).or_default()
    }

    /// Send a protocol message. `ctrl`/`data` split the payload for traffic
    /// accounting (both exclude the implicit header, which is added here).
    /// Self-sends skip the network and its accounting entirely and are
    /// delivered at `depart` (the local handler turnaround).
    #[allow(clippy::too_many_arguments)] // (from, to, depart, sizes, msg) is the natural wire signature
    pub fn send(
        &mut self,
        s: &mut Sched<Packet>,
        from: NodeId,
        to: NodeId,
        depart: Time,
        ctrl: u64,
        data: u64,
        msg: ProtoMsg,
    ) {
        if from == to {
            let class = msg.span_class();
            let span = self.sink.obs.span_send(from, to, depart, 0, class);
            s.post(
                to,
                depart,
                Packet::App(Envelope::immediate(msg).with_span(span)),
            );
            return;
        }
        let sent = History::MsgSend {
            to,
            msg: &msg,
            ctrl,
            data,
        };
        self.sink.emit(from, depart, sent);
        let bytes = MSG_HEADER_BYTES + ctrl + data;
        let wire = self.cfg.latency.one_way(bytes);
        let class = msg.span_class();
        let span = self.sink.obs.span_send(from, to, depart, wire, class);
        if self.cfg.fabric.is_ideal() {
            // The analytic fast path: one event per message, posted exactly
            // as before the fabric existed (bit-for-bit invariant).
            s.post(
                to,
                depart + wire,
                Packet::App(Envelope::new(msg).with_span(span)),
            );
            return;
        }
        let out = self.fabric.on_send(
            depart,
            from,
            to,
            bytes,
            wire,
            Envelope::new(msg).with_span(span),
        );
        self.apply_tx(s, from, out);
    }

    /// Account a transmission's outcome and post its frames and timers.
    fn apply_tx(&mut self, s: &mut Sched<Packet>, from: NodeId, out: TxOutcome<Envelope>) {
        let st = &mut self.sink.stats[from];
        st.fabric_frames += 1;
        st.fabric_drops += out.dropped as u64;
        st.fabric_dups += out.duplicated as u64;
        st.fabric_exhausted += out.exhausted as u64;
        let queued = History::NetQueue { dur: out.queue_ns };
        self.sink.emit(from, s.now(), queued);
        for a in out.actions {
            match a {
                TxAction::Frame {
                    to,
                    at,
                    seq,
                    attempt,
                    bytes,
                    payload,
                } => {
                    if attempt > 0 {
                        self.sink.obs.span_retx(payload.span, at);
                    }
                    s.post(
                        to,
                        at,
                        Packet::Frame {
                            src: from,
                            seq,
                            attempt,
                            bytes,
                            env: payload,
                        },
                    )
                }
                TxAction::Timer {
                    at,
                    peer,
                    seq,
                    attempt,
                } => s.post(from, at, Packet::Timer { peer, seq, attempt }),
            }
        }
    }

    /// A fabric frame reached `to`'s receive NI: dedup/reassemble, ack,
    /// and release deliverable envelopes as `App` packets.
    fn frame_arrived(
        &mut self,
        s: &mut Sched<Packet>,
        to: NodeId,
        src: NodeId,
        seq: u64,
        bytes: u64,
        env: Envelope,
    ) {
        let now = s.now();
        let RxOutcome {
            deliver,
            ack_at,
            queue_ns,
            duplicate,
        } = self.fabric.on_frame(now, src, to, seq, bytes, env);
        self.sink.emit(to, now, History::NetQueue { dur: queue_ns });
        if let Some(at) = ack_at {
            self.sink.stats[to].fabric_acks += 1;
            let ack_wire = self.cfg.latency.one_way(self.cfg.fabric.retry.ack_bytes);
            s.post(src, at + ack_wire, Packet::Ack { from: to, seq });
        }
        #[allow(unused_mut)]
        let mut posted = deliver.len();
        #[cfg(feature = "mutate")]
        if let Some(m) = self.mutate.as_mut() {
            use crate::mutate::Mutation;
            // Model a misbehaving transport: a duplicate slipping past
            // suppression, or a held out-of-order frame released early.
            // Only the delivery report is corrupted; see `crate::mutate`.
            if m.fire_if(Mutation::FabricDupDeliver, duplicate)
                || m.fire_if(Mutation::FabricReorder, !duplicate && deliver.is_empty())
            {
                posted += 1;
            }
        }
        let frame = History::FabricFrame {
            src,
            seq,
            duplicate,
            posted,
        };
        self.sink.emit(to, now, frame);
        for (at, env) in deliver {
            s.post(to, at, Packet::App(env));
        }
    }

    /// Charge `cost` ns of request-service occupancy to a node that is
    /// currently computing (no-op for blocked/done nodes, whose spin loop
    /// absorbs the work).
    pub fn occupy(&mut self, s: &mut Sched<Packet>, node: NodeId, cost: Time) {
        self.sink.stats[node].service_ns += cost;
        if let Some(r) = s.resume_at(node) {
            let now = s.now();
            // The node is mid-compute-segment: the delay extends that
            // segment by exactly `cost` (`r >= now` always holds, because a
            // Ready node with an earlier resume time would already have been
            // resumed before this delivery). Blocked/done nodes absorb the
            // service inside their measured stall windows instead.
            self.sink.stats[node].occupancy_stolen_ns += cost;
            s.delay(node, r.max(now) + cost);
        }
    }

    /// Mark that `node` just obtained a block (fault completed): under the
    /// interrupt mechanism further asynchronous requests to it are deferred
    /// for the grace window.
    pub fn block_obtained(&mut self, s: &Sched<Packet>, node: NodeId) {
        if self.cfg.notify == Notify::Interrupt {
            self.nodes[node].intr_disabled_until = s.now() + self.cfg.cost.intr_grace_ns;
        }
    }

    /// The home a requester should target for a block: the claimed home if
    /// known, otherwise the static directory node (interim home).
    pub fn route_home(&self, b: BlockId) -> NodeId {
        self.homes
            .home(b)
            .unwrap_or_else(|| self.homes.directory_node(b))
    }
}

impl World for ProtoWorld {
    type Msg = Packet;

    fn deliver(&mut self, s: &mut Sched<Packet>, to: NodeId, pkt: Packet) {
        let env = match pkt {
            Packet::App(env) => env,
            Packet::Frame {
                src,
                seq,
                attempt: _,
                bytes,
                env,
            } => return self.frame_arrived(s, to, src, seq, bytes, env),
            Packet::Ack { from, seq } => return self.fabric.on_ack(to, from, seq),
            Packet::Timer { peer, seq, attempt } => {
                let now = s.now();
                if let Some(out) = self.fabric.on_timer(now, to, peer, seq, attempt) {
                    let retx = History::Retransmit {
                        to: peer,
                        seq,
                        attempt: attempt + 1,
                    };
                    self.sink.emit(to, now, retx);
                    self.apply_tx(s, to, out);
                }
                return;
            }
        };
        self.quiesce = self.quiesce.max(s.now());
        // One-shot service-time deferral for asynchronous requests arriving
        // at a node that is busy computing.
        if !env.deferred
            && env.msg.needs_service()
            && !s.is_blocked(to)
            && s.resume_at(to).is_some()
        {
            let svc = self.cfg.cost.async_service_time(
                s.now(),
                self.cfg.notify,
                self.nodes[to].intr_disabled_until,
            );
            if svc > s.now() {
                if self.cfg.notify == Notify::Interrupt {
                    let now = s.now();
                    self.sink.emit(to, now, History::Interrupt);
                }
                s.post(
                    to,
                    svc,
                    Packet::App(Envelope {
                        msg: env.msg,
                        deferred: true,
                        span: env.span,
                    }),
                );
                return;
            }
        }
        // Delayed-consistency extension: coherence-destroying requests
        // (invalidations, fetch-backs) are additionally deferred by a fixed
        // window, batching the holder's accesses (Dubois et al.; the
        // paper's §7 future work). One-shot like the service deferral.
        if !env.deferred
            && self.cfg.cost.delayed_inval_ns > 0
            && matches!(
                env.msg,
                ProtoMsg::ScInval { .. } | ProtoMsg::ScFetchBack { .. }
            )
        {
            let at = s.now() + self.cfg.cost.delayed_inval_ns;
            s.post(
                to,
                at,
                Packet::App(Envelope {
                    msg: env.msg,
                    deferred: true,
                    span: env.span,
                }),
            );
            return;
        }
        // Final dispatch: record the span arrival (deferrals already
        // applied) and make this message the causal parent of everything
        // its handler sends or wakes.
        let now = s.now();
        self.sink.emit(to, now, History::MsgRecv { msg: &env.msg });
        if self.sink.obs.spans_on() {
            self.sink.obs.span_recv(to, now, env.span);
        }
        let handler = self.cfg.cost.handler_ns;
        match env.msg {
            // SC
            ProtoMsg::ScReadReq { from, block } => {
                self.occupy(s, to, handler);
                sc::handle_request(self, s, to, from, block, FaultKind::Read);
            }
            ProtoMsg::ScWriteReq { from, block } => {
                self.occupy(s, to, handler);
                sc::handle_request(self, s, to, from, block, FaultKind::Write);
            }
            ProtoMsg::ScFetchBack { block } => {
                self.occupy(s, to, handler);
                sc::handle_fetch_back(self, s, to, block);
            }
            ProtoMsg::ScInval { block } => {
                self.occupy(s, to, handler);
                sc::handle_inval(self, s, to, block);
            }
            ProtoMsg::ScWriteBack {
                from,
                block,
                invalidated,
            } => {
                sc::handle_write_back(self, s, to, from, block, invalidated);
            }
            ProtoMsg::ScInvalAck { from, block } => {
                sc::handle_inval_ack(self, s, to, from, block);
            }
            ProtoMsg::ScGrant {
                block,
                exclusive,
                with_data,
                home,
            } => {
                sc::handle_grant(self, s, to, block, exclusive, with_data, home);
            }
            ProtoMsg::ScNowHome { block, kind } => {
                sc::handle_now_home(self, s, to, block, kind);
            }
            ProtoMsg::ScGrantAck { from, block } => {
                sc::handle_grant_ack(self, s, to, from, block);
            }
            // SW-LRC
            ProtoMsg::SwReq {
                from,
                block,
                kind,
                hops,
            } => {
                self.occupy(s, to, handler);
                swlrc::handle_request(self, s, to, from, block, kind, hops);
            }
            ProtoMsg::SwReply {
                block,
                version,
                ownership,
                owner,
            } => {
                swlrc::handle_reply(self, s, to, block, version, ownership, owner);
            }
            ProtoMsg::SwNowOwner { block } => {
                swlrc::handle_now_owner(self, s, to, block);
            }
            // HLRC
            ProtoMsg::HlFetchReq {
                from,
                block,
                kind,
                needs,
            } => {
                self.occupy(s, to, handler);
                hlrc::handle_fetch(self, s, to, from, block, kind, needs);
            }
            ProtoMsg::HlData { block, home } => {
                hlrc::handle_data(self, s, to, block, home);
            }
            ProtoMsg::HlDiff {
                from,
                block,
                diff,
                interval,
            } => {
                hlrc::handle_diff(self, s, to, from, block, diff, interval);
            }
            ProtoMsg::HlNowHome { block } => {
                hlrc::handle_now_home(self, s, to, block);
            }
            // Tardis
            ProtoMsg::TdFetch {
                from,
                block,
                kind,
                pts,
                have_wts,
            } => {
                self.occupy(s, to, handler);
                tardis::handle_fetch(
                    self,
                    s,
                    to,
                    block,
                    tardis::TdWaiter {
                        from,
                        kind,
                        pts,
                        have_wts,
                    },
                );
            }
            ProtoMsg::TdData {
                block,
                wts,
                lease,
                home,
            } => {
                tardis::handle_data(self, s, to, block, wts, lease, home);
            }
            ProtoMsg::TdLease { block, lease } => {
                tardis::handle_lease(self, s, to, block, lease);
            }
            ProtoMsg::TdWGrant {
                block,
                wts,
                with_data,
                home,
            } => {
                tardis::handle_wgrant(self, s, to, block, wts, with_data, home);
            }
            ProtoMsg::TdRecall { block } => {
                self.occupy(s, to, handler);
                tardis::handle_recall(self, s, to, block);
            }
            ProtoMsg::TdWriteback { from, block } => {
                tardis::handle_writeback(self, s, to, from, block);
            }
            ProtoMsg::TdAck { from, block } => {
                tardis::handle_ack(self, s, to, from, block);
            }
            // Synchronization
            ProtoMsg::LockReq { from, lock, vt } => {
                self.occupy(s, to, self.cfg.cost.sync_handler_ns);
                sync::handle_lock_req(self, s, to, from, lock, vt);
            }
            ProtoMsg::LockGrant {
                lock,
                vt,
                notices,
                pts,
            } => {
                sync::handle_lock_grant(self, s, to, lock, vt, notices, pts);
            }
            ProtoMsg::LockRel {
                from,
                lock,
                vt,
                pts,
            } => {
                self.occupy(s, to, self.cfg.cost.sync_handler_ns);
                sync::handle_lock_rel(self, s, to, from, lock, vt, pts);
            }
            ProtoMsg::BarArrive {
                from,
                barrier,
                vt,
                pts,
            } => {
                self.occupy(s, to, self.cfg.cost.sync_handler_ns);
                sync::handle_bar_arrive(self, s, to, from, barrier, vt, pts);
            }
            ProtoMsg::BarRelease {
                barrier,
                vt,
                notices,
                pts,
            } => {
                sync::handle_bar_release(self, s, to, barrier, vt, notices, pts);
            }
        }
        self.sink.obs.span_dispatch_done();
    }

    fn on_advance(&mut self, node: NodeId, from: Time, to_t: Time) {
        self.quiesce = self.quiesce.max(to_t);
        self.sink
            .emit(node, to_t, History::Advance { dur: to_t - from });
    }
}

/// Final authoritative memory image after a run (for result verification).
///
/// Applications end with a barrier, so under the LRC protocols all diffs are
/// flushed and home copies are current; under SC the latest copy is the
/// exclusive owner's (else the home's).
pub fn final_image(w: &ProtoWorld) -> Vec<u8> {
    let layout = &w.cfg.layout;
    let mut img = vec![0u8; layout.size()];
    let authoritative = |b: BlockId| match w.protocol_of(b) {
        Protocol::Sc => {
            w.sc.dir(b)
                .and_then(|d| d.owner)
                .unwrap_or_else(|| w.route_home(b))
        }
        Protocol::SwLrc => {
            w.sw.authoritative(b)
                .unwrap_or_else(|| w.homes.directory_node(b))
        }
        Protocol::Hlrc => w.route_home(b),
        // Tardis: the exclusive owner's copy is the only one ahead of the
        // home's master copy (writebacks land at every recall).
        Protocol::Tardis => w.td.owner_of(b).unwrap_or_else(|| w.route_home(b)),
    };
    // Consecutive blocks are usually homed at the same node (first-touch on
    // contiguous per-node partitions); coalesce runs of same-source blocks
    // into one contiguous copy each instead of a per-block memcpy.
    let nb = layout.num_blocks();
    let mut b = 0;
    while b < nb {
        let src = authoritative(b);
        let start = layout.block_range(b).start;
        let mut end = layout.block_range(b).end;
        b += 1;
        while b < nb && authoritative(b) == src && layout.block_range(b).start == end {
            end = layout.block_range(b).end;
            b += 1;
        }
        img[start..end].copy_from_slice(&w.data.node(src)[start..end]);
    }
    img
}

/// Convenience for constructing the access-table `Access` from a fault kind.
pub fn grant_access(kind: FaultKind) -> Access {
    match kind {
        FaultKind::Read => Access::Read,
        FaultKind::Write => Access::ReadWrite,
    }
}
