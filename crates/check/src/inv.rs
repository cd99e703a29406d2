//! Online protocol invariant mirrors.
//!
//! Each mirror independently re-derives a piece of protocol metadata from
//! the execution history and compares it against what the protocol actually
//! produced. The mirrors never read protocol state directly — a protocol
//! bug that corrupts its own bookkeeping is exactly what they must survive.

use std::collections::{BTreeSet, HashMap, HashSet};

use dsm_mem::BlockId;
use dsm_proto::msg::Notice;
use dsm_proto::vt::VClock;
use dsm_sim::rng::{fold64, StableHasher};
use dsm_sim::NodeId;

/// XOR-fold a hash map's entries into an order-independent digest, so a
/// mirror's fingerprint never depends on `HashMap` iteration order.
fn fold_map<'a, K: std::hash::Hash + 'a, V: std::hash::Hash + 'a>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
) -> u64 {
    let mut acc = 0u64;
    for (k, v) in entries {
        acc ^= StableHasher::fingerprint(&(k, v));
    }
    acc
}

/// A rule failure detected by a mirror: `(rule, detail)`. The caller wraps
/// it into a full [`dsm_proto::Violation`] with node/block/time context.
pub type Fail = (&'static str, String);

fn notice_key(n: &Notice) -> (BlockId, NodeId, u32) {
    (n.block, n.writer, n.version)
}

/// Mirror of the LRC interval log plus per-lock release snapshots: checks
/// that every grant carries *exactly* the write notices its interval vector
/// promises, and that a lock grant's vector time dominates the last
/// release observed on that lock.
#[derive(Debug, Default)]
pub struct LrcMirror {
    /// `log[node][k-1]` = notices of node's interval `k`, as announced at
    /// release time.
    log: Vec<Vec<Vec<Notice>>>,
    /// The releaser's vector time at the last release of each lock.
    lock_vt: HashMap<usize, VClock>,
}

impl LrcMirror {
    pub fn new(n: usize) -> Self {
        LrcMirror {
            log: vec![Vec::new(); n],
            lock_vt: HashMap::new(),
        }
    }

    /// A release closed interval `interval` at `me` with these notices.
    pub fn on_release(&mut self, me: NodeId, interval: u32, notices: &[Notice]) {
        let v = &mut self.log[me];
        debug_assert_eq!(v.len() + 1, interval as usize, "mirror log out of sequence");
        v.push(notices.to_vec());
    }

    /// Record the releaser's clock at a lock release.
    pub fn on_lock_release(&mut self, l: usize, vt: &VClock) {
        self.lock_vt.insert(l, vt.clone());
    }

    /// Validate a grant's notices against the interval gap `cur → vt`.
    /// `what` names the grant in the detail ("lock 3" / "barrier 1").
    pub fn check_grant(
        &self,
        what: &str,
        vt: &VClock,
        notices: &[Notice],
        cur: &VClock,
    ) -> Option<Fail> {
        let mut expected: Vec<(BlockId, NodeId, u32)> = Vec::new();
        for (j, k) in VClock::missing_intervals(cur, vt) {
            match self.log[j].get((k - 1) as usize) {
                Some(ns) => expected.extend(ns.iter().map(notice_key)),
                None => {
                    return Some((
                        "lrc-notice-completeness",
                        format!("{what}: grant references unlogged interval ({j}, {k})"),
                    ))
                }
            }
        }
        let mut got: Vec<_> = notices.iter().map(notice_key).collect();
        expected.sort_unstable();
        got.sort_unstable();
        if expected != got {
            let missing = expected.iter().filter(|k| !got.contains(k)).count();
            let extra = got.iter().filter(|k| !expected.contains(k)).count();
            return Some((
                "lrc-notice-completeness",
                format!(
                    "{what}: grant carries {} notices, interval vector promises {} \
                     ({missing} missing, {extra} unexpected)",
                    got.len(),
                    expected.len()
                ),
            ));
        }
        None
    }

    /// Stable digest of the mirror state (model-checker fingerprinting).
    pub fn mc_hash(&self) -> u64 {
        fold64(
            StableHasher::fingerprint(&self.log),
            fold_map(self.lock_vt.iter()),
        )
    }

    /// A lock grant's time must dominate the last release on that lock —
    /// a grant built from a stale clock passes the completeness check (its
    /// notices are self-consistent with the stale time) but fails here.
    pub fn check_lock_dominates(&self, l: usize, vt: &VClock) -> Option<Fail> {
        let last = self.lock_vt.get(&l)?;
        if !vt.dominates(last) {
            return Some((
                "lrc-lock-stale-vt",
                format!("lock {l}: grant time does not dominate the last release's time"),
            ));
        }
        None
    }
}

/// HLRC mirror: every diff must exactly cover the twin→current delta at
/// creation, flushes must be unique per `(block, writer, interval)`, and at
/// the end of the run no interval may have been flushed *around* (a later
/// interval present at the home while an earlier one never arrived).
#[derive(Debug, Default)]
pub struct HlMirror {
    flushed: HashSet<(BlockId, NodeId, u32)>,
    /// Highest flushed interval per (block, writer).
    max_flushed: HashMap<(BlockId, NodeId), u32>,
    /// HLRC write notices observed in release order.
    notices: Vec<(BlockId, NodeId, u32)>,
}

impl HlMirror {
    /// A diff was created against `twin` for the current contents `cur`.
    pub fn on_diff(
        &mut self,
        block: BlockId,
        twin: &[u8],
        cur: &[u8],
        diff: &dsm_proto::diff::Diff,
    ) -> Option<Fail> {
        let mut image = twin.to_vec();
        diff.apply(&mut image);
        if image != cur {
            let off = image.iter().zip(cur).position(|(a, b)| a != b).unwrap_or(0);
            return Some((
                "hlrc-diff-coverage",
                format!(
                    "block {block}: applying the diff to the twin does not reproduce \
                     the current contents (first mismatch at offset {off})"
                ),
            ));
        }
        None
    }

    /// A writer's interval reached the home (diff applied or home-local).
    pub fn on_flush(&mut self, block: BlockId, writer: NodeId, interval: u32) -> Option<Fail> {
        if !self.flushed.insert((block, writer, interval)) {
            return Some((
                "hlrc-duplicate-flush",
                format!("block {block}: writer {writer} interval {interval} flushed twice"),
            ));
        }
        let m = self.max_flushed.entry((block, writer)).or_insert(0);
        *m = (*m).max(interval);
        None
    }

    /// An HLRC write notice was published.
    pub fn on_notice(&mut self, block: BlockId, writer: NodeId, interval: u32) {
        self.notices.push((block, writer, interval));
    }

    /// Stable digest of the mirror state (model-checker fingerprinting).
    pub fn mc_hash(&self) -> u64 {
        let mut h = 0u64;
        for e in &self.flushed {
            h ^= StableHasher::fingerprint(e);
        }
        h = fold64(h, fold_map(self.max_flushed.iter()));
        fold64(h, StableHasher::fingerprint(&self.notices))
    }

    /// End-of-run reconciliation: a notice whose interval never reached the
    /// home is only a violation when a *later* interval of the same
    /// (block, writer) did — diffs still in flight when the run quiesces
    /// are benign, out-of-order arrival at the home is not.
    pub fn finalize(&self) -> Vec<Fail> {
        let mut out = Vec::new();
        for &(b, w, i) in &self.notices {
            if self.flushed.contains(&(b, w, i)) {
                continue;
            }
            if self.max_flushed.get(&(b, w)).is_some_and(|&m| m > i) {
                out.push((
                    "hlrc-missing-flush",
                    format!(
                        "block {b}: writer {w} interval {i} never reached the home, \
                         but a later interval did"
                    ),
                ));
            }
        }
        out
    }
}

/// SW-LRC version mirror: block versions advance strictly on every
/// migration and every fresh release notice; stale versions let readers
/// skip invalidations they need.
#[derive(Debug, Default)]
pub struct SwMirror {
    version: HashMap<BlockId, u32>,
}

impl SwMirror {
    /// The protocol assigned `v` to `block` (migration / first claim).
    pub fn on_version(&mut self, block: BlockId, v: u32) -> Option<Fail> {
        let cur = self.version.entry(block).or_insert(0);
        if v <= *cur {
            return Some((
                "sw-version-monotonic",
                format!("block {block}: version moved {} -> {v}", *cur),
            ));
        }
        *cur = v;
        None
    }

    /// Stable digest of the mirror state (model-checker fingerprinting).
    pub fn mc_hash(&self) -> u64 {
        fold_map(self.version.iter())
    }

    /// A release published a notice at version `v`. Fresh notices (newly
    /// versioned this release) must strictly advance the block; deferred
    /// migration notices re-announce an already-assigned version.
    pub fn on_notice(&mut self, block: BlockId, v: u32, fresh: bool) -> Option<Fail> {
        let cur = self.version.entry(block).or_insert(0);
        if fresh {
            if v <= *cur {
                return Some((
                    "sw-stale-version",
                    format!(
                        "block {block}: release notice reuses version {v} (current {})",
                        *cur
                    ),
                ));
            }
            *cur = v;
        } else if v > *cur {
            return Some((
                "sw-version-monotonic",
                format!(
                    "block {block}: deferred notice announces unassigned version {v} \
                     (current {})",
                    *cur
                ),
            ));
        }
        None
    }
}

/// Tardis timestamp-lease mirror: write timestamps must strictly advance
/// per block and jump past every outstanding read lease, and no read may
/// execute above its copy's lease against the reader's program timestamp.
///
/// The mirror re-derives the home's `wts`/`rts` tables and every node's
/// program timestamp from the grant and merge records alone. Initial values
/// bake in the protocol's definition — the golden image is the write at
/// logical time 1 and every node starts at program timestamp 1 — not its
/// runtime state.
#[derive(Debug, Default)]
pub struct TdMirror {
    /// Per block: timestamp of the last write grant (default 1).
    wts: HashMap<BlockId, u64>,
    /// Per block: furthest lease end ever granted (default 1).
    rts: HashMap<BlockId, u64>,
    /// Per block: current exclusive owner. Set at a write grant, cleared
    /// by the next read grant — which the home can only issue after the
    /// owner's writeback, so the map is exact at every access.
    owner: HashMap<BlockId, NodeId>,
    /// Per node: program timestamp re-derived from grants and sync merges
    /// (default 1).
    pts: HashMap<NodeId, u64>,
    /// Per (node, block): lease end of the node's read copy.
    lease: HashMap<(NodeId, BlockId), u64>,
}

impl TdMirror {
    /// The home granted `reader` a read at `wts` with a lease to `lease`.
    pub fn on_read(&mut self, reader: NodeId, block: BlockId, wts: u64, lease: u64) {
        self.owner.remove(&block);
        let r = self.rts.entry(block).or_insert(1);
        *r = (*r).max(lease);
        self.lease.insert((reader, block), lease);
        let p = self.pts.entry(reader).or_insert(1);
        *p = (*p).max(wts);
    }

    /// The home granted `writer` exclusive ownership at `new_wts`.
    pub fn on_write(&mut self, writer: NodeId, block: BlockId, new_wts: u64) -> Option<Fail> {
        let rts = *self.rts.get(&block).unwrap_or(&1);
        let wts = self.wts.entry(block).or_insert(1);
        let fail = if new_wts <= *wts {
            Some((
                "td-wts-monotone",
                format!(
                    "block {block}: write grant reuses timestamp {new_wts} (current wts {})",
                    *wts
                ),
            ))
        } else if new_wts <= rts {
            Some((
                "td-write-under-lease",
                format!(
                    "block {block}: write timestamp {new_wts} lands inside a promised \
                     read window (rts {rts})"
                ),
            ))
        } else {
            None
        };
        *wts = (*wts).max(new_wts);
        self.owner.insert(block, writer);
        let p = self.pts.entry(writer).or_insert(1);
        *p = (*p).max(new_wts);
        fail
    }

    /// Stable digest of the mirror state (model-checker fingerprinting).
    pub fn mc_hash(&self) -> u64 {
        let mut h = fold_map(self.wts.iter());
        h = fold64(h, fold_map(self.rts.iter()));
        h = fold64(h, fold_map(self.owner.iter()));
        h = fold64(h, fold_map(self.pts.iter()));
        fold64(h, fold_map(self.lease.iter()))
    }

    /// Node `me` merged a program timestamp carried by a sync grant.
    pub fn on_merge(&mut self, me: NodeId, pts: u64) {
        let p = self.pts.entry(me).or_insert(1);
        *p = (*p).max(pts);
    }

    /// A completed read access on a Tardis block: the reader's program
    /// timestamp must sit inside its copy's lease. The exclusive owner is
    /// exempt — it holds the authoritative copy, no lease involved.
    pub fn on_access(&mut self, me: NodeId, block: BlockId, write: bool) -> Option<Fail> {
        if write || self.owner.get(&block) == Some(&me) {
            return None;
        }
        let pts = *self.pts.get(&me).unwrap_or(&1);
        let lease = *self.lease.get(&(me, block)).unwrap_or(&0);
        if pts > lease {
            return Some((
                "td-lease-overrun",
                format!("block {block}: node {me} read at pts {pts} above its lease end {lease}"),
            ));
        }
        None
    }
}

/// SC install legality: at the instant a grant installs, an exclusive copy
/// must be the only copy, and no read copy may coexist with a writer.
pub fn check_sc_install(
    block: BlockId,
    exclusive: bool,
    readers: &[NodeId],
    writers: &[NodeId],
) -> Option<Fail> {
    if !writers.is_empty() {
        return Some((
            "sc-single-writer",
            format!(
                "block {block}: grant installed while node(s) {writers:?} still hold \
                 a writable copy"
            ),
        ));
    }
    if exclusive && !readers.is_empty() {
        return Some((
            "sc-exclusive-with-readers",
            format!(
                "block {block}: exclusive grant installed while node(s) {readers:?} \
                 still hold read copies"
            ),
        ));
    }
    None
}

/// Per-channel exactly-once in-order mirror for the reliable fabric: the
/// checker re-derives what each frame event should have delivered to the
/// application and compares it with what the fabric reported.
#[derive(Debug, Default)]
pub struct FabricMirror {
    chan: HashMap<(NodeId, NodeId), Chan>,
}

#[derive(Debug, Default, Hash)]
struct Chan {
    next: u64,
    held: BTreeSet<u64>,
}

impl FabricMirror {
    /// Stable digest of the mirror state (model-checker fingerprinting).
    pub fn mc_hash(&self) -> u64 {
        fold_map(self.chan.iter())
    }

    /// Frame `seq` arrived on `src → to` and the fabric reports delivering
    /// `posted` payloads to the application.
    pub fn on_frame(&mut self, src: NodeId, to: NodeId, seq: u64, posted: usize) -> Option<Fail> {
        let c = self.chan.entry((src, to)).or_default();
        let duplicate = seq < c.next || c.held.contains(&seq);
        if duplicate {
            if posted != 0 {
                return Some((
                    "fabric-exactly-once",
                    format!("channel {src}->{to}: duplicate frame seq {seq} delivered {posted} payload(s)"),
                ));
            }
            return None;
        }
        c.held.insert(seq);
        let mut run = 0usize;
        while c.held.remove(&c.next) {
            c.next += 1;
            run += 1;
        }
        if posted != run {
            return Some((
                "fabric-in-order",
                format!(
                    "channel {src}->{to}: frame seq {seq} should deliver {run} consecutive \
                     payload(s), fabric delivered {posted}"
                ),
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_proto::diff::{Diff, DiffRun};

    fn notice(b: usize, w: usize, v: u32) -> Notice {
        Notice {
            block: b,
            writer: w,
            version: v,
        }
    }

    fn vc(parts: &[u32]) -> VClock {
        let mut v = VClock::new(parts.len());
        for (i, &k) in parts.iter().enumerate() {
            for _ in 0..k {
                v.tick(i);
            }
        }
        v
    }

    #[test]
    fn grant_missing_a_notice_fails_completeness() {
        let mut m = LrcMirror::new(2);
        m.on_release(0, 1, &[notice(3, 0, 1), notice(4, 0, 1)]);
        let vt = vc(&[1, 0]);
        let cur = vc(&[0, 0]);
        assert!(m
            .check_grant("lock 0", &vt, &[notice(3, 0, 1), notice(4, 0, 1)], &cur)
            .is_none());
        let f = m.check_grant("lock 0", &vt, &[notice(3, 0, 1)], &cur);
        assert_eq!(f.unwrap().0, "lrc-notice-completeness");
    }

    #[test]
    fn stale_lock_grant_fails_domination() {
        let mut m = LrcMirror::new(2);
        m.on_lock_release(5, &vc(&[2, 1]));
        assert!(m.check_lock_dominates(5, &vc(&[2, 1])).is_none());
        assert!(m.check_lock_dominates(5, &vc(&[3, 4])).is_none());
        let f = m.check_lock_dominates(5, &vc(&[1, 1]));
        assert_eq!(f.unwrap().0, "lrc-lock-stale-vt");
    }

    #[test]
    fn truncated_diff_fails_coverage() {
        let mut m = HlMirror::default();
        let twin = vec![0u8; 16];
        let mut cur = twin.clone();
        cur[3] = 9;
        cur[10] = 7;
        let good = Diff::create(&twin, &cur);
        assert!(m.on_diff(0, &twin, &cur, &good).is_none());
        let bad = Diff {
            runs: vec![DiffRun {
                offset: 3,
                bytes: vec![9],
            }],
        };
        assert_eq!(
            m.on_diff(0, &twin, &cur, &bad).unwrap().0,
            "hlrc-diff-coverage"
        );
    }

    #[test]
    fn out_of_order_flush_is_reconciled_at_finalize() {
        let mut m = HlMirror::default();
        m.on_notice(2, 1, 1);
        m.on_notice(2, 1, 2);
        assert!(m.on_flush(2, 1, 2).is_none());
        // Interval 1 never arrived but 2 did: violation.
        let fails = m.finalize();
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].0, "hlrc-missing-flush");
        // A merely in-flight *latest* interval is benign.
        let mut m2 = HlMirror::default();
        m2.on_notice(2, 1, 1);
        assert!(m2.finalize().is_empty());
        // Double flush of the same interval is caught immediately.
        assert!(m.on_flush(2, 1, 2).is_some());
    }

    #[test]
    fn sw_versions_must_strictly_advance() {
        let mut m = SwMirror::default();
        assert!(m.on_version(0, 1).is_none());
        assert!(m.on_notice(0, 2, true).is_none());
        assert_eq!(m.on_notice(0, 2, true).unwrap().0, "sw-stale-version");
        assert!(
            m.on_notice(0, 2, false).is_none(),
            "deferred re-announce ok"
        );
        assert_eq!(m.on_version(0, 2).unwrap().0, "sw-version-monotonic");
    }

    #[test]
    fn sc_install_legality() {
        assert!(check_sc_install(0, true, &[], &[]).is_none());
        assert!(check_sc_install(0, false, &[1, 2], &[]).is_none());
        assert_eq!(
            check_sc_install(0, true, &[1], &[]).unwrap().0,
            "sc-exclusive-with-readers"
        );
        assert_eq!(
            check_sc_install(0, false, &[], &[2]).unwrap().0,
            "sc-single-writer"
        );
    }

    #[test]
    fn td_write_timestamps_must_strictly_advance() {
        let mut m = TdMirror::default();
        // The golden image counts as the write at logical time 1: a first
        // grant reusing it is already a violation.
        assert_eq!(m.on_write(2, 0, 1).unwrap().0, "td-wts-monotone");
        assert!(m.on_write(2, 0, 5).is_none());
        assert_eq!(m.on_write(3, 0, 5).unwrap().0, "td-wts-monotone");
        assert!(m.on_write(3, 0, 6).is_none());
    }

    #[test]
    fn td_write_inside_a_read_window_is_flagged() {
        let mut m = TdMirror::default();
        // A lease to 9 promises reads of the old version until then.
        m.on_read(1, 0, 1, 9);
        assert_eq!(m.on_write(2, 0, 4).unwrap().0, "td-write-under-lease");
        let mut m2 = TdMirror::default();
        m2.on_read(1, 0, 1, 9);
        assert!(m2.on_write(2, 0, 10).is_none(), "jumping past rts is legal");
    }

    #[test]
    fn td_read_above_the_lease_is_flagged() {
        let mut m = TdMirror::default();
        m.on_read(1, 0, 1, 9);
        assert!(m.on_access(1, 0, false).is_none());
        // pts == lease end is still covered.
        m.on_merge(1, 9);
        assert!(m.on_access(1, 0, false).is_none());
        m.on_merge(1, 10);
        assert_eq!(m.on_access(1, 0, false).unwrap().0, "td-lease-overrun");
    }

    #[test]
    fn td_owner_accesses_need_no_lease() {
        let mut m = TdMirror::default();
        assert!(m.on_write(2, 0, 12).is_none());
        m.on_merge(2, 40);
        assert!(m.on_access(2, 0, false).is_none(), "owner is exempt");
        assert!(m.on_access(2, 0, true).is_none());
        // The next read grant clears ownership: a later ownerless read by
        // the ex-owner is checked again.
        m.on_read(1, 0, 12, 20);
        assert_eq!(m.on_access(2, 0, false).unwrap().0, "td-lease-overrun");
    }

    #[test]
    fn fabric_mirror_catches_duplicates_and_phantom_deliveries() {
        let mut m = FabricMirror::default();
        assert!(m.on_frame(0, 1, 0, 1).is_none());
        // Out-of-order frame 2 is held: nothing delivered.
        assert!(m.on_frame(0, 1, 2, 0).is_none());
        // Frame 1 releases both.
        assert!(m.on_frame(0, 1, 1, 2).is_none());
        // Retransmit of an already-delivered frame must deliver nothing.
        assert_eq!(m.on_frame(0, 1, 2, 1).unwrap().0, "fabric-exactly-once");
        // A held frame reported as delivered is an in-order break.
        assert_eq!(m.on_frame(0, 1, 4, 1).unwrap().0, "fabric-in-order");
    }
}
