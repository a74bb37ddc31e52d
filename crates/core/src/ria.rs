//! RIA — the *Redundant Indexed Array* (paper §3.1).
//!
//! An ordered set of `u32` keys stored in cache-line-sized blocks with a
//! compact *index array* that redundantly copies each block's first element.
//! A lookup binary-searches the index array (dense, cache-friendly) and then
//! one block, instead of binary-searching one large gapped array as a PMA
//! does.
//!
//! Inserting into a full block moves data *horizontally* across at most
//! `log2(num_blocks)` neighboring blocks (the paper's locality-aware bound on
//! movement distance); beyond that bound the whole array is rebuilt with
//! space-amplification factor `α`, leaving every block with fresh gaps.
//!
//! Unlike a PMA, RIA keeps **no upper density bound** (updates to one vertex
//! are single-threaded in LSGraph, §5) and **no empty blocks** (elements are
//! distributed evenly at build time), so it is memory-efficient.

use lsgraph_api::fail_point;
use lsgraph_api::trace::{span, SpanKind};
use lsgraph_api::{Footprint, MemoryFootprint, StructStats};

use crate::config::BKS;

/// Outcome of [`Ria::insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The key was added without rebuilding.
    Inserted,
    /// The key was added, and the array was rebuilt/expanded to make room.
    InsertedWithRebuild,
    /// The key was already present; nothing changed.
    Duplicate,
}

impl InsertOutcome {
    /// Whether the key was actually added.
    #[inline]
    pub fn inserted(self) -> bool {
        !matches!(self, InsertOutcome::Duplicate)
    }
}

/// Redundant Indexed Array: an ordered `u32` set in gapped cache-line blocks.
#[derive(Clone, Debug)]
pub struct Ria {
    /// First element of each block, redundantly copied (the "index array").
    index: Vec<u32>,
    /// Block storage: `num_blocks * BKS` slots; each block keeps its elements
    /// sorted in a contiguous prefix.
    data: Vec<u32>,
    /// Occupancy of each block's prefix.
    counts: Vec<u16>,
    /// Total number of elements.
    len: usize,
    /// Space amplification factor `α` used on rebuilds.
    alpha: f64,
}

impl Ria {
    /// Creates an empty RIA.
    ///
    /// # Panics
    ///
    /// Panics if `alpha <= 1.0`; [`Config::validate`](crate::Config::validate)
    /// rejects such configurations before they reach this layer.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 1.0, "space amplification factor must exceed 1.0");
        Ria {
            index: vec![0],
            data: vec![0; BKS],
            counts: vec![0],
            len: 0,
            alpha,
        }
    }

    /// Builds a RIA from a sorted, duplicate-free slice.
    ///
    /// Elements are spread evenly across `ceil(len * α / BKS)` blocks so no
    /// block starts full and none is empty.
    pub fn from_sorted(sorted: &[u32], alpha: f64) -> Self {
        let mut ria = Ria::new(alpha);
        if !sorted.is_empty() {
            debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
            ria.rebuild_from(sorted);
        }
        ria
    }

    /// Number of elements stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of blocks currently allocated.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.counts.len()
    }

    #[inline]
    fn block(&self, b: usize) -> &[u32] {
        &self.data[b * BKS..b * BKS + self.counts[b] as usize]
    }

    /// Walks the occupied blocks in order via the redundant index array,
    /// calling `f(index_entry, block_elements)` per block — the
    /// serialization visitor checkpoints use. For every non-empty block the
    /// index entry equals the block's first element (the RIA's core
    /// redundancy invariant).
    pub fn for_each_block(&self, mut f: impl FnMut(u32, &[u32])) {
        for b in 0..self.counts.len() {
            f(self.index[b], self.block(b));
        }
    }

    /// Locates the block that would hold `key`: the rightmost block whose
    /// index entry is `<= key`, or block 0 when `key` precedes them all.
    ///
    /// Sound because blocks are never empty while `len > 0` (deletes refill
    /// or rebuild, see [`Ria::refill_empty_block`]), so the index array is
    /// strictly increasing and identifies blocks unambiguously.
    #[inline]
    fn find_block(&self, key: u32) -> usize {
        self.index.partition_point(|&x| x <= key).saturating_sub(1)
    }

    /// Returns whether `key` is present.
    pub fn contains(&self, key: u32) -> bool {
        self.len > 0 && self.block(self.find_block(key)).binary_search(&key).is_ok()
    }

    /// Inserts `key`, returning what happened. Structural movement is
    /// recorded into `stats`.
    pub fn insert(&mut self, key: u32, stats: &StructStats) -> InsertOutcome {
        if self.len == 0 {
            self.data[0] = key;
            self.counts[0] = 1;
            self.index[0] = key;
            self.len = 1;
            return InsertOutcome::Inserted;
        }
        let b = self.find_block(key);
        let Err(i) = self.block(b).binary_search(&key) else {
            return InsertOutcome::Duplicate;
        };
        if (self.counts[b] as usize) < BKS {
            self.insert_into_block(b, i, key, stats);
            self.len += 1;
            return InsertOutcome::Inserted;
        }
        // Position conflict with a full block: bounded horizontal movement.
        if let Some(donor) = self.find_donor(b) {
            let bound = self.counts.len().ilog2() as u64 + 1;
            let span = donor.abs_diff(b) as u64;
            self.ripple_insert(b, i, key, donor, stats);
            // One element crosses each block boundary between b and donor.
            stats.record_ria_ripple(span, span, bound);
            self.len += 1;
            return InsertOutcome::Inserted;
        }
        // Movement would exceed the locality bound: expand with factor α.
        let _span = span(SpanKind::RiaRebuild);
        fail_point!("ria_rebuild");
        let mut all = Vec::with_capacity(self.len + 1);
        self.for_each(|x| all.push(x));
        let pos = all.partition_point(|&x| x < key);
        all.insert(pos, key);
        self.rebuild_from(&all);
        stats.record_ria_rebuild();
        InsertOutcome::InsertedWithRebuild
    }

    /// Deletes `key`; returns whether it was present. Structural movement is
    /// recorded into `stats`.
    pub fn delete(&mut self, key: u32, stats: &StructStats) -> bool {
        if self.len == 0 {
            return false;
        }
        let b = self.find_block(key);
        let cnt = self.counts[b] as usize;
        let Ok(i) = self.block(b).binary_search(&key) else {
            return false;
        };
        self.data
            .copy_within(b * BKS + i + 1..b * BKS + cnt, b * BKS + i);
        stats.record_ria_within_shift((cnt - i - 1) as u64);
        self.counts[b] -= 1;
        self.len -= 1;
        if self.counts[b] == 0 {
            self.refill_empty_block(b, stats);
        } else if i == 0 {
            self.index[b] = self.data[b * BKS];
        }
        self.maybe_shrink(stats);
        true
    }

    /// Applies `f` to every element in ascending order.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(u32)) {
        for b in 0..self.counts.len() {
            for &x in self.block(b) {
                f(x);
            }
        }
    }

    /// Applies `f` to every element in ascending order until it returns
    /// `false`; returns whether the scan completed.
    pub fn for_each_while(&self, mut f: impl FnMut(u32) -> bool) -> bool {
        for b in 0..self.counts.len() {
            for &x in self.block(b) {
                if !f(x) {
                    return false;
                }
            }
        }
        true
    }

    /// Collects every element into a sorted vector.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.len);
        self.for_each(|x| v.push(x));
        v
    }

    /// Iterates elements in ascending order.
    pub fn iter(&self) -> RiaIter<'_> {
        RiaIter {
            ria: self,
            block: 0,
            pos: 0,
        }
    }

    /// Inserts `key` at in-block position `i` of block `b`, which has space.
    fn insert_into_block(&mut self, b: usize, i: usize, key: u32, stats: &StructStats) {
        let cnt = self.counts[b] as usize;
        debug_assert!(cnt < BKS && i <= cnt);
        let base = b * BKS;
        self.data.copy_within(base + i..base + cnt, base + i + 1);
        stats.record_ria_within_shift((cnt - i) as u64);
        self.data[base + i] = key;
        self.counts[b] += 1;
        if i == 0 {
            self.index[b] = key;
        }
    }

    /// Finds the nearest block with a free slot within the locality bound of
    /// `log2(num_blocks) + 1` blocks on each side (paper §4.2), or `None`.
    fn find_donor(&self, b: usize) -> Option<usize> {
        let nb = self.counts.len();
        let bound = nb.ilog2() as usize + 1;
        for d in 1..=bound {
            if b + d < nb && (self.counts[b + d] as usize) < BKS {
                return Some(b + d);
            }
            if d <= b && (self.counts[b - d] as usize) < BKS {
                return Some(b - d);
            }
        }
        None
    }

    /// Horizontal movement: inserts `key` at position `i` of full block `b`
    /// by carrying the displaced boundary element block-by-block to `donor`,
    /// which has a free slot. Each intermediate block moves exactly one
    /// element, so the movement distance is bounded by `|donor - b|` blocks.
    fn ripple_insert(&mut self, b: usize, i: usize, key: u32, donor: usize, stats: &StructStats) {
        debug_assert_eq!(self.counts[b] as usize, BKS);
        debug_assert!((self.counts[donor] as usize) < BKS);
        if donor > b {
            // Carry the block maximum rightward.
            let mut carry = if i == BKS {
                key
            } else {
                let max = self.pop_back(b);
                self.insert_into_block(b, i, key, stats);
                max
            };
            for k in b + 1..donor {
                let next = self.pop_back(k);
                self.push_front(k, carry);
                carry = next;
            }
            self.push_front(donor, carry);
        } else {
            // Carry the block minimum leftward.
            let mut carry = if i == 0 {
                key
            } else {
                let min = self.pop_front(b);
                self.insert_into_block(b, i - 1, key, stats);
                min
            };
            for k in (donor + 1..b).rev() {
                let next = self.pop_front(k);
                self.push_back(k, carry);
                carry = next;
            }
            self.push_back(donor, carry);
        }
    }

    fn pop_back(&mut self, b: usize) -> u32 {
        let cnt = self.counts[b] as usize;
        debug_assert!(cnt > 0);
        self.counts[b] -= 1;
        self.data[b * BKS + cnt - 1]
    }

    fn pop_front(&mut self, b: usize) -> u32 {
        let cnt = self.counts[b] as usize;
        debug_assert!(cnt > 0);
        let base = b * BKS;
        let v = self.data[base];
        self.data.copy_within(base + 1..base + cnt, base);
        self.counts[b] -= 1;
        if self.counts[b] > 0 {
            self.index[b] = self.data[base];
        }
        v
    }

    fn push_front(&mut self, b: usize, v: u32) {
        let cnt = self.counts[b] as usize;
        debug_assert!(cnt < BKS);
        let base = b * BKS;
        self.data.copy_within(base..base + cnt, base + 1);
        self.data[base] = v;
        self.counts[b] += 1;
        self.index[b] = v;
    }

    fn push_back(&mut self, b: usize, v: u32) {
        let cnt = self.counts[b] as usize;
        debug_assert!(cnt < BKS);
        self.data[b * BKS + cnt] = v;
        self.counts[b] += 1;
        if cnt == 0 {
            self.index[b] = v;
        }
    }

    /// Restores the no-empty-block invariant after a delete emptied block
    /// `b`: steal one element from an adjacent block that can spare one (a
    /// horizontal move, paper §4.2 "Delete"), or rebuild when both neighbors
    /// are down to a single element — a state only reachable at very low
    /// occupancy, where the shrink path would rebuild shortly anyway.
    fn refill_empty_block(&mut self, b: usize, stats: &StructStats) {
        debug_assert_eq!(self.counts[b], 0);
        if self.len == 0 {
            self.rebuild_from(&[]);
            return;
        }
        if b + 1 < self.counts.len() && self.counts[b + 1] >= 2 {
            let v = self.pop_front(b + 1);
            self.push_back(b, v);
            stats.record_ria_within_shift(1);
        } else if b > 0 && self.counts[b - 1] >= 2 {
            let v = self.pop_back(b - 1);
            self.push_front(b, v);
            stats.record_ria_within_shift(1);
        } else {
            let _span = span(SpanKind::RiaRebuild);
            fail_point!("ria_rebuild");
            let all = self.to_vec();
            self.rebuild_from(&all);
            stats.record_ria_rebuild();
        }
    }

    /// Rebuilds from a sorted slice, redistributing evenly with factor `α`.
    fn rebuild_from(&mut self, sorted: &[u32]) {
        let n = sorted.len();
        if n == 0 {
            self.index = vec![0];
            self.data = vec![0; BKS];
            self.counts = vec![0];
            self.len = 0;
            return;
        }
        let capacity = ((n as f64 * self.alpha).ceil() as usize).max(n);
        let nb = capacity.div_ceil(BKS).max(1);
        debug_assert!(n.div_ceil(nb) <= BKS);
        self.index = vec![0; nb];
        self.data = vec![0; nb * BKS];
        self.counts = vec![0; nb];
        let base = n / nb;
        let extra = n % nb;
        let mut src = 0;
        for b in 0..nb {
            let take = base + usize::from(b < extra);
            self.data[b * BKS..b * BKS + take].copy_from_slice(&sorted[src..src + take]);
            self.counts[b] = take as u16;
            self.index[b] = sorted[src];
            src += take;
        }
        debug_assert_eq!(src, n);
        self.len = n;
    }

    /// Shrinks after heavy deletion (occupancy below 25%) to bound memory.
    fn maybe_shrink(&mut self, stats: &StructStats) {
        let capacity = self.counts.len() * BKS;
        if self.counts.len() > 1 && self.len * 4 < capacity {
            let _span = span(SpanKind::RiaRebuild);
            fail_point!("ria_rebuild");
            let all = self.to_vec();
            self.rebuild_from(&all);
            stats.record_ria_rebuild();
        }
    }

    /// Checks every structural invariant; used by tests and debug assertions.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn check_invariants(&self) {
        assert_eq!(self.index.len(), self.counts.len());
        assert_eq!(self.data.len(), self.counts.len() * BKS);
        let total: usize = self.counts.iter().map(|&c| c as usize).sum();
        assert_eq!(total, self.len, "count sum mismatch");
        let mut prev: Option<u32> = None;
        for b in 0..self.counts.len() {
            let blk = self.block(b);
            if self.len > 0 {
                assert!(!blk.is_empty(), "empty block {b} while len = {}", self.len);
                assert_eq!(self.index[b], blk[0], "index mismatch at block {b}");
            }
            for &x in blk {
                if let Some(p) = prev {
                    assert!(p < x, "order violation: {p} !< {x}");
                }
                prev = Some(x);
            }
        }
    }
}

/// Ascending iterator over a [`Ria`].
#[derive(Clone, Debug)]
pub struct RiaIter<'a> {
    ria: &'a Ria,
    block: usize,
    pos: usize,
}

impl Iterator for RiaIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.block < self.ria.counts.len() {
            if self.pos < self.ria.counts[self.block] as usize {
                let v = self.ria.data[self.block * BKS + self.pos];
                self.pos += 1;
                return Some(v);
            }
            self.block += 1;
            self.pos = 0;
        }
        None
    }
}

impl<'a> IntoIterator for &'a Ria {
    type Item = u32;
    type IntoIter = RiaIter<'a>;

    fn into_iter(self) -> RiaIter<'a> {
        self.iter()
    }
}

impl MemoryFootprint for Ria {
    fn footprint(&self) -> Footprint {
        Footprint::new(
            self.data.len() * core::mem::size_of::<u32>(),
            self.index.len() * core::mem::size_of::<u32>()
                + self.counts.len() * core::mem::size_of::<u16>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sink for the structural events these tests do not look at.
    static STATS: StructStats = StructStats::new();

    #[test]
    fn insert_and_contains() {
        let mut r = Ria::new(1.2);
        for k in [5u32, 1, 9, 3, 7] {
            assert!(r.insert(k, &STATS).inserted());
        }
        r.check_invariants();
        for k in [1u32, 3, 5, 7, 9] {
            assert!(r.contains(k));
        }
        for k in [0u32, 2, 4, 6, 8, 10] {
            assert!(!r.contains(k));
        }
        assert_eq!(r.to_vec(), vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn block_location_at_the_index_boundaries() {
        use std::collections::BTreeSet;
        // Keys below block 0's first id, on every index entry and either side
        // of it (between blocks), and at the top of `u32`, held to a
        // `BTreeSet` by `contains`, `insert` and `delete`.
        for nb in [1usize, 2, 16, 17] {
            let ids: Vec<u32> = (1..=(nb * BKS * 5 / 6) as u32).map(|i| i * 10).collect();
            let r = Ria::from_sorted(&ids, 1.2);
            assert_eq!(r.num_blocks(), nb);
            let set: BTreeSet<u32> = ids.iter().copied().collect();
            let mut keys = vec![0, 1, 9, u32::MAX - 1, u32::MAX];
            keys.extend(r.index.iter().flat_map(|&x| [x - 1, x, x + 1]));
            for k in keys {
                let ctx = format!("{nb} blocks, key {k}");
                assert_eq!(r.contains(k), set.contains(&k), "{ctx}");
                let (mut ins, mut want) = (r.clone(), set.clone());
                assert_eq!(ins.insert(k, &STATS).inserted(), want.insert(k), "{ctx}");
                ins.check_invariants();
                assert!(ins.contains(k), "{ctx}");
                assert_eq!(ins.to_vec(), want.into_iter().collect::<Vec<_>>(), "{ctx}");
                let (mut del, mut want) = (r.clone(), set.clone());
                assert_eq!(del.delete(k, &STATS), want.remove(&k), "{ctx}");
                del.check_invariants();
                assert!(!del.contains(k), "{ctx}");
                assert_eq!(del.to_vec(), want.into_iter().collect::<Vec<_>>(), "{ctx}");
            }
        }
    }

    #[test]
    fn duplicates_rejected() {
        let mut r = Ria::new(1.2);
        assert_eq!(r.insert(4, &STATS), InsertOutcome::Inserted);
        assert_eq!(r.insert(4, &STATS), InsertOutcome::Duplicate);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn ascending_bulk_insert_stays_sorted() {
        let mut r = Ria::new(1.2);
        for k in 0..10_000u32 {
            r.insert(k, &STATS);
        }
        r.check_invariants();
        assert_eq!(r.len(), 10_000);
        assert_eq!(r.to_vec(), (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn descending_bulk_insert_stays_sorted() {
        let mut r = Ria::new(1.2);
        for k in (0..5_000u32).rev() {
            r.insert(k, &STATS);
        }
        r.check_invariants();
        assert_eq!(r.to_vec(), (0..5_000).collect::<Vec<_>>());
    }

    #[test]
    fn from_sorted_round_trips() {
        let v: Vec<u32> = (0..1000).map(|i| i * 3).collect();
        let r = Ria::from_sorted(&v, 1.5);
        r.check_invariants();
        assert_eq!(r.to_vec(), v);
        assert_eq!(r.len(), v.len());
    }

    #[test]
    fn from_sorted_no_empty_blocks() {
        let v: Vec<u32> = (0..333).collect();
        let r = Ria::from_sorted(&v, 1.2);
        assert!(r.counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn delete_roundtrip() {
        let mut r = Ria::from_sorted(&(0..1000).collect::<Vec<_>>(), 1.2);
        for k in (0..1000).step_by(2) {
            assert!(r.delete(k, &STATS));
        }
        r.check_invariants();
        assert_eq!(r.len(), 500);
        for k in 0..1000 {
            assert_eq!(r.contains(k), k % 2 == 1, "key {k}");
        }
        assert!(!r.delete(0, &STATS));
        assert!(!r.delete(2000, &STATS));
    }

    #[test]
    fn delete_everything_then_reinsert() {
        let mut r = Ria::from_sorted(&(0..100).collect::<Vec<_>>(), 1.2);
        for k in 0..100 {
            assert!(r.delete(k, &STATS));
        }
        assert!(r.is_empty());
        r.check_invariants();
        assert!(r.insert(42, &STATS).inserted());
        assert_eq!(r.to_vec(), vec![42]);
    }

    #[test]
    fn shrinks_after_heavy_deletion() {
        let mut r = Ria::from_sorted(&(0..10_000).collect::<Vec<_>>(), 1.2);
        let blocks_before = r.num_blocks();
        for k in 0..9_900 {
            r.delete(k, &STATS);
        }
        r.check_invariants();
        assert!(r.num_blocks() < blocks_before / 4);
        assert_eq!(r.to_vec(), (9_900..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_while_stops_early() {
        let r = Ria::from_sorted(&(0..100).collect::<Vec<_>>(), 1.2);
        let mut n = 0;
        let complete = r.for_each_while(|x| {
            n += 1;
            x < 10
        });
        assert!(!complete);
        // Elements 0..=10 are visited; the call with x = 10 returns false.
        assert_eq!(n, 11);
    }

    #[test]
    fn footprint_index_is_small() {
        let r = Ria::from_sorted(&(0..100_000).collect::<Vec<_>>(), 1.2);
        let fp = r.footprint();
        assert!(fp.payload_bytes >= 100_000 * 4);
        // Index overhead should be well under the paper's ~5% range at α=1.2.
        assert!(fp.index_ratio() < 0.12, "ratio {}", fp.index_ratio());
    }

    #[test]
    #[should_panic(expected = "space amplification")]
    fn rejects_alpha_one() {
        let _ = Ria::new(1.0);
    }

    #[test]
    fn interleaved_insert_delete_random() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        let mut r = Ria::new(1.2);
        let mut oracle = std::collections::BTreeSet::new();
        for _ in 0..20_000 {
            let k = rng.gen_range(0..2_000u32);
            if rng.gen_bool(0.6) {
                assert_eq!(r.insert(k, &STATS).inserted(), oracle.insert(k));
            } else {
                assert_eq!(r.delete(k, &STATS), oracle.remove(&k));
            }
        }
        r.check_invariants();
        assert_eq!(r.to_vec(), oracle.into_iter().collect::<Vec<_>>());
    }
}
