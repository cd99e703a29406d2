//! FastTrack-style happens-before race detection over the simulated
//! cluster's shared space.
//!
//! The detector keeps its *own* vector clocks, built purely from the
//! synchronization records (lock release/acquire, barrier arrive/pass), so it
//! defines the same happens-before relation under every protocol — under SC
//! the protocol carries no vector times at all, and under the LRC protocols
//! the detector must not inherit a bug in the protocol's own clocks.
//!
//! Shadow state is kept per 8-byte word, FastTrack-style: the last write is
//! a single epoch `(node, clock)`, and reads are an epoch that inflates to
//! a full per-node clock vector only when genuinely concurrent readers
//! appear. Sub-word accesses are attributed to their containing word, which
//! can merge distinct scalars that share a word — an accepted source of
//! (rare) false positives at word granularity.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::collections::VecDeque;

use dsm_proto::vt::VClock;
use dsm_sim::rng::{fold64, StableHasher};
use dsm_sim::NodeId;

/// Shadow granularity in bytes.
pub const WORD: usize = 8;

/// A packed `(node, clock)` epoch; raw 0 means "no access recorded".
/// Node ids fit in 16 bits (clusters are ≤ 64 nodes) and clocks are ≥ 1
/// (each node's own component starts ticked), so a real epoch is non-zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Epoch(u64);

impl Epoch {
    fn new(node: NodeId, clock: u32) -> Self {
        debug_assert!(node < (1 << 16) && clock > 0);
        Epoch((clock as u64) << 16 | node as u64)
    }
    pub fn node(self) -> NodeId {
        (self.0 & 0xffff) as NodeId
    }
    pub fn clock(self) -> u32 {
        (self.0 >> 16) as u32
    }
}

/// The read side of a word's shadow state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Readers {
    None,
    /// All reads so far are totally ordered; only the latest matters.
    One(Epoch),
    /// Concurrent readers: last read clock per node (0 = never read).
    Many(Box<[u32]>),
}

#[derive(Debug, Hash)]
struct WordState {
    /// Last write epoch, raw-packed (0 = never written).
    w: u64,
    r: Readers,
}

/// One detected race, reported back to the caller for attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    /// `"write-write"`, `"read-write"` (prior read vs this write) or
    /// `"write-read"` (prior write vs this read).
    pub kind: &'static str,
    /// Word index (byte address / 8) the race was found at.
    pub word: usize,
    /// The prior access's epoch.
    pub prior: Epoch,
    /// The current accessor's own component at the time of the access.
    pub current_clock: u32,
}

/// In-flight state of one barrier episode queue entry: the merged clock of
/// all arrivers and how many passes have yet to consume it.
#[derive(Debug, Hash)]
struct BarEpisode {
    snapshot: VClock,
    reads_left: usize,
}

#[derive(Debug, Default, Hash)]
struct BarState {
    gather: Option<VClock>,
    arrived: usize,
    queue: VecDeque<BarEpisode>,
}

/// The detector: per-node clocks, lock/barrier clock bookkeeping, and the
/// per-word shadow map.
#[derive(Debug)]
pub struct RaceDetector {
    n: usize,
    clocks: Vec<VClock>,
    armed: Vec<bool>,
    locks: HashMap<usize, VClock>,
    bars: HashMap<usize, BarState>,
    words: HashMap<usize, WordState>,
    /// Words already reported: one race per word keeps the output readable.
    raced: std::collections::HashSet<usize>,
}

impl RaceDetector {
    /// Detector for an `n`-node cluster. Accesses are ignored until the
    /// node is armed (measurement begin); synchronization is tracked from
    /// the start so warm-up ordering carries over correctly.
    pub fn new(n: usize) -> Self {
        let clocks = (0..n)
            .map(|i| {
                let mut c = VClock::new(n);
                c.tick(i); // own component starts at 1: epochs are non-zero
                c
            })
            .collect();
        RaceDetector {
            n,
            clocks,
            armed: vec![false; n],
            locks: HashMap::new(),
            bars: HashMap::new(),
            words: HashMap::new(),
            raced: std::collections::HashSet::new(),
        }
    }

    /// Stable digest of the detector state (model-checker fingerprinting).
    /// Hash-map/set containers are XOR-folded per entry so iteration order
    /// cannot leak into the digest.
    pub fn mc_hash(&self) -> u64 {
        let mut h = StableHasher::fingerprint(&(self.n, &self.clocks, &self.armed));
        let mut acc = 0u64;
        for e in &self.locks {
            acc ^= StableHasher::fingerprint(&e);
        }
        h = fold64(h, acc);
        acc = 0;
        for e in &self.bars {
            acc ^= StableHasher::fingerprint(&e);
        }
        h = fold64(h, acc);
        acc = 0;
        for e in &self.words {
            acc ^= StableHasher::fingerprint(&e);
        }
        h = fold64(h, acc);
        acc = 0;
        for w in &self.raced {
            acc ^= StableHasher::fingerprint(w);
        }
        fold64(h, acc)
    }

    /// Start checking `me`'s accesses.
    pub fn arm(&mut self, me: NodeId) {
        self.armed[me] = true;
    }

    /// Lock release: publish the releaser's clock on the lock and open a
    /// new interval.
    pub fn release_lock(&mut self, me: NodeId, l: usize) {
        let snap = self.clocks[me].clone();
        self.locks.insert(l, snap);
        self.clocks[me].tick(me);
    }

    /// Lock acquire: join the last releaser's published clock.
    pub fn acquire_lock(&mut self, me: NodeId, l: usize) {
        if let Some(lv) = self.locks.get(&l) {
            self.clocks[me].merge(lv);
        }
    }

    /// Barrier arrival: contribute the arriver's clock to the episode and
    /// open a new interval. When the last of `n` arrives, the episode's
    /// merged snapshot is queued for the matching passes.
    pub fn bar_arrive(&mut self, me: NodeId, bar: usize) {
        let n = self.n;
        let st = self.bars.entry(bar).or_default();
        match &mut st.gather {
            Some(g) => g.merge(&self.clocks[me]),
            None => st.gather = Some(self.clocks[me].clone()),
        }
        self.clocks[me].tick(me);
        st.arrived += 1;
        if st.arrived == n {
            let snapshot = st.gather.take().expect("episode clock");
            st.arrived = 0;
            st.queue.push_back(BarEpisode {
                snapshot,
                reads_left: n,
            });
        }
    }

    /// Barrier pass: join the episode snapshot (unless the `hb-skip-barrier`
    /// mutation suppresses the join — the episode bookkeeping still
    /// advances so later episodes stay aligned).
    pub fn bar_pass(&mut self, me: NodeId, bar: usize, skip_join: bool) {
        let st = self.bars.entry(bar).or_default();
        let Some(ep) = st.queue.front_mut() else {
            debug_assert!(false, "barrier pass without a completed episode");
            return;
        };
        if !skip_join {
            self.clocks[me].merge(&ep.snapshot);
        }
        ep.reads_left -= 1;
        if ep.reads_left == 0 {
            st.queue.pop_front();
        }
    }

    /// Check one access against the shadow words it covers. Returns at most
    /// one race per word, and never re-reports a word.
    pub fn access(&mut self, me: NodeId, addr: usize, len: usize, write: bool) -> Vec<Race> {
        if !self.armed[me] || len == 0 {
            return Vec::new();
        }
        let mut races = Vec::new();
        let c = &self.clocks[me];
        let own = c.get(me);
        for word in (addr / WORD)..=((addr + len - 1) / WORD) {
            let st = match self.words.entry(word) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(WordState {
                    w: 0,
                    r: Readers::None,
                }),
            };
            let mut race: Option<(&'static str, Epoch)> = None;
            // Write epoch vs this access (both reads and writes race with a
            // concurrent prior write).
            if st.w != 0 {
                let e = Epoch(st.w);
                if e.node() != me && c.get(e.node()) < e.clock() {
                    race = Some((if write { "write-write" } else { "write-read" }, e));
                }
            }
            if write {
                // Prior reads vs this write.
                match &st.r {
                    Readers::None => {}
                    Readers::One(e) => {
                        if race.is_none() && e.node() != me && c.get(e.node()) < e.clock() {
                            race = Some(("read-write", *e));
                        }
                    }
                    Readers::Many(v) => {
                        for (j, &rc) in v.iter().enumerate() {
                            if race.is_none() && rc > 0 && j != me && c.get(j) < rc {
                                race = Some(("read-write", Epoch::new(j, rc)));
                            }
                        }
                    }
                }
                st.w = Epoch::new(me, own).0;
                st.r = Readers::None;
            } else {
                // Record the read: stay in the cheap same-epoch form while
                // reads are ordered, inflate on true concurrency.
                let mine = Epoch::new(me, own);
                st.r = match std::mem::replace(&mut st.r, Readers::None) {
                    Readers::None => Readers::One(mine),
                    Readers::One(e) if e.node() == me || c.get(e.node()) >= e.clock() => {
                        Readers::One(mine)
                    }
                    Readers::One(e) => {
                        let mut v = vec![0u32; self.n].into_boxed_slice();
                        v[e.node()] = e.clock();
                        v[me] = own;
                        Readers::Many(v)
                    }
                    Readers::Many(mut v) => {
                        v[me] = own;
                        Readers::Many(v)
                    }
                };
            }
            if let Some((kind, prior)) = race {
                if self.raced.insert(word) {
                    races.push(Race {
                        kind,
                        word,
                        prior,
                        current_clock: own,
                    });
                }
            }
        }
        races
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed(n: usize) -> RaceDetector {
        let mut d = RaceDetector::new(n);
        for i in 0..n {
            d.arm(i);
        }
        d
    }

    #[test]
    fn unsynchronized_write_write_is_a_race() {
        let mut d = armed(2);
        assert!(d.access(0, 0, 8, true).is_empty());
        let r = d.access(1, 0, 8, true);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].kind, "write-write");
        assert_eq!(r[0].prior.node(), 0);
        // The same word is never reported twice.
        assert!(d.access(0, 0, 8, true).is_empty());
    }

    #[test]
    fn lock_ordering_suppresses_the_race() {
        let mut d = armed(2);
        d.acquire_lock(0, 7);
        assert!(d.access(0, 16, 8, true).is_empty());
        d.release_lock(0, 7);
        d.acquire_lock(1, 7);
        assert!(d.access(1, 16, 8, true).is_empty(), "ordered by the lock");
        // A write ordered only by a *different* lock still races.
        d.release_lock(1, 9);
        let r = d.access(0, 16, 8, true);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn barrier_orders_all_participants() {
        let mut d = armed(3);
        d.access(0, 0, 8, true);
        for i in 0..3 {
            d.bar_arrive(i, 1);
        }
        for i in 0..3 {
            d.bar_pass(i, 1, false);
        }
        assert!(d.access(2, 0, 8, true).is_empty(), "barrier creates order");
    }

    #[test]
    fn skipped_barrier_join_leaves_accesses_concurrent() {
        let mut d = armed(2);
        d.access(1, 32, 8, true);
        d.bar_arrive(0, 4);
        d.bar_arrive(1, 4);
        d.bar_pass(0, 4, true); // node 0's join suppressed
        d.bar_pass(1, 4, false);
        let r = d.access(0, 32, 8, false);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].kind, "write-read");
    }

    #[test]
    fn concurrent_readers_inflate_and_catch_a_later_writer() {
        let mut d = armed(3);
        assert!(d.access(0, 8, 4, false).is_empty());
        assert!(d.access(1, 12, 4, false).is_empty(), "reads never race");
        let r = d.access(2, 8, 8, true);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].kind, "read-write");
    }

    #[test]
    fn unarmed_nodes_are_ignored() {
        let mut d = RaceDetector::new(2);
        d.arm(0);
        d.access(1, 0, 8, true); // unarmed: not recorded
        assert!(d.access(0, 0, 8, true).is_empty());
    }
}
