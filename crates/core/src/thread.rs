//! The parallel run-time: a [`Dsm`] implementation backed by the simulated
//! cluster and the coherence protocols.

use dsm_proto::msg::FaultKind;
use dsm_proto::ops::{self, Attempt};
use dsm_proto::{History, ProtoWorld};
use dsm_sim::engine::NodeCtx;
use dsm_sim::Time;

use crate::api::Dsm;

/// Unflushed local time is batched up to this much before being pushed into
/// the event loop, trading a little timing precision (bounded by the
/// quantum) for a large reduction in event-queue traffic.
const FLUSH_QUANTUM_NS: Time = 2_000;

/// A node's handle onto the DSM: checks access on every read/write, runs
/// the protocol on faults, and charges virtual time for computation,
/// accesses, polling overhead and stalls.
pub struct DsmThread<'a> {
    ctx: &'a mut NodeCtx<ProtoWorld>,
    me: usize,
    n: usize,
    lrc: bool,
    layout: dsm_mem::Layout,
    /// Batched local time not yet pushed into the simulator.
    pending_ns: Time,
    /// Accumulated raw compute time (pre-inflation), flushed to stats.
    compute_acc: Time,
    /// Accumulated polling overhead, flushed to stats.
    poll_acc: Time,
    /// Polling inflation in percent (0 under interrupts).
    inflation_pct: u32,
}

impl<'a> DsmThread<'a> {
    /// Wrap a node context. `inflation_pct` is the polling instrumentation
    /// overhead for this application (0 when using interrupts).
    pub fn new(ctx: &'a mut NodeCtx<ProtoWorld>, inflation_pct: u32) -> Self {
        let me = ctx.node();
        let n = ctx.num_nodes();
        let (lrc, layout) = ctx.world(|w, _| (w.has_lrc || w.has_tardis, w.cfg.layout.clone()));
        DsmThread {
            ctx,
            me,
            n,
            lrc,
            layout,
            pending_ns: 0,
            compute_acc: 0,
            poll_acc: 0,
            inflation_pct,
        }
    }

    /// Push batched time into the simulator and flush stat accumulators.
    pub fn flush(&mut self) {
        if self.compute_acc > 0 || self.poll_acc > 0 {
            let (c, p, me) = (self.compute_acc, self.poll_acc, self.me);
            self.ctx.world(move |w, _| {
                let st = &mut w.sink.stats[me];
                st.compute_ns += c;
                st.poll_overhead_ns += p;
            });
            self.compute_acc = 0;
            self.poll_acc = 0;
        }
        if self.pending_ns > 0 {
            let t = self.pending_ns;
            self.pending_ns = 0;
            self.ctx.advance(t);
        }
    }

    fn maybe_flush(&mut self) {
        if self.pending_ns >= FLUSH_QUANTUM_NS {
            self.flush();
        }
    }

    fn fault(&mut self, block: usize, kind: FaultKind) {
        self.flush();
        let t0 = self.ctx.now();
        let me = self.me;
        self.ctx
            .world(move |w, s| ops::start_fault(w, s, me, block, kind));
        self.ctx.block();
        let dur = self.ctx.now() - t0;
        let ended = History::FaultEnd { block, kind, dur };
        self.ctx.world(move |w, s| w.sink.emit(me, s.now(), ended));
    }

    fn charge_local(&mut self, t: Time) {
        // Polling instrumentation inflates all locally executed work.
        let overhead = t * self.inflation_pct as Time / 100;
        self.pending_ns += t + overhead;
        self.compute_acc += t;
        self.poll_acc += overhead;
        self.maybe_flush();
    }

    /// A fault resolved locally (HLRC twin, SW-LRC re-enable): advance past
    /// the local protocol action and charge it to `proto_local_ns`.
    fn local_fault(&mut self, block: usize, dur: Time) {
        self.flush();
        self.ctx.advance(dur);
        let (me, fault) = (self.me, History::LocalFault { block, dur });
        self.ctx.world(move |w, s| w.sink.emit(me, s.now(), fault));
    }

    /// Split `[addr, addr+len)` at coherence-block boundaries and run `f`
    /// on each piece. Bulk accesses are sequences of loads/stores on real
    /// hardware: each block's piece completes individually, so a spanning
    /// access never needs two contended blocks to be held simultaneously
    /// (which can livelock under false-sharing ping-pong).
    fn for_each_block_chunk(
        &mut self,
        addr: usize,
        len: usize,
        mut f: impl FnMut(&mut Self, usize, std::ops::Range<usize>),
    ) {
        let mut off = 0;
        while off < len {
            let a = addr + off;
            // Blocks are region-relative: the piece ends at the enclosing
            // block's boundary in the region's own granularity.
            let in_block = self.layout.block_end(a) - a;
            let take = in_block.min(len - off);
            f(self, a, off..off + take);
            off += take;
        }
    }
}

impl Dsm for DsmThread<'_> {
    fn node(&self) -> usize {
        self.me
    }

    fn num_nodes(&self) -> usize {
        self.n
    }

    fn is_release_consistent(&self) -> bool {
        self.lrc
    }

    fn begin_measurement(&mut self) {
        self.flush();
        let me = self.me;
        self.ctx.world(move |w, s| {
            w.sink.emit(me, s.now(), History::MeasureBegin);
            w.measure_start = w.measure_start.max(s.now());
        });
    }

    fn compute(&mut self, ns: u64) {
        self.charge_local(ns);
    }

    fn read(&mut self, addr: usize, buf: &mut [u8]) {
        let len = buf.len();
        self.for_each_block_chunk(addr, len, |this, a, range| {
            let me = this.me;
            let chunk = &mut buf[range];
            let mut spins = 0u32;
            loop {
                let attempt = {
                    let chunk_ref: &mut [u8] = chunk;
                    this.ctx
                        .world(|w, s| ops::try_read(w, me, a, chunk_ref, s.now()))
                };
                match attempt {
                    Attempt::Done(t) => {
                        this.charge_local(t);
                        return;
                    }
                    Attempt::LocalFault(t, b) => this.local_fault(b, t),
                    Attempt::Fault(b) => this.fault(b, FaultKind::Read),
                }
                spins += 1;
                assert!(spins < 100_000, "read at {a:#x} livelocked");
            }
        });
    }

    fn write(&mut self, addr: usize, data: &[u8]) {
        self.for_each_block_chunk(addr, data.len(), |this, a, range| {
            let me = this.me;
            let chunk = &data[range];
            let mut spins = 0u32;
            loop {
                let attempt = this
                    .ctx
                    .world(|w, s| ops::try_write(w, me, a, chunk, s.now()));
                match attempt {
                    Attempt::Done(t) => {
                        this.charge_local(t);
                        return;
                    }
                    Attempt::LocalFault(t, b) => this.local_fault(b, t),
                    Attempt::Fault(b) => this.fault(b, FaultKind::Write),
                }
                spins += 1;
                assert!(spins < 100_000, "write at {a:#x} livelocked");
            }
        });
    }

    fn lock(&mut self, l: usize) {
        self.flush();
        let t0 = self.ctx.now();
        let me = self.me;
        self.ctx
            .world(move |w, s| dsm_proto::sync::lock_acquire_start(w, s, me, l));
        self.ctx.block();
        let dur = self.ctx.now() - t0;
        let waited = History::LockWait { lock: l, dur };
        self.ctx.world(move |w, s| w.sink.emit(me, s.now(), waited));
    }

    fn unlock(&mut self, l: usize) {
        self.flush();
        let me = self.me;
        let t = self
            .ctx
            .world(move |w, s| dsm_proto::sync::lock_release_start(w, s, me, l));
        if t > 0 {
            // Release-time protocol work (diffing under HLRC) runs on the
            // application thread; charge it as local protocol time.
            self.ctx.advance(t);
            self.ctx
                .world(move |w, _| w.sink.stats[me].proto_local_ns += t);
        }
    }

    fn barrier(&mut self, b: usize) {
        self.flush();
        let me = self.me;
        let t = self
            .ctx
            .world(move |w, s| dsm_proto::sync::barrier_arrive_start(w, s, me, b));
        if t > 0 {
            // As in `unlock`: release actions are protocol work, not part of
            // the wait for the other participants.
            self.ctx.advance(t);
            self.ctx
                .world(move |w, _| w.sink.stats[me].proto_local_ns += t);
        }
        let t0 = self.ctx.now();
        self.ctx.block();
        let dur = self.ctx.now() - t0;
        let waited = History::BarrierWait { barrier: b, dur };
        self.ctx.world(move |w, s| w.sink.emit(me, s.now(), waited));
    }
}
