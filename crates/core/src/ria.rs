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
use lsgraph_api::{merged_ids, span, Footprint, MemoryFootprint, SpanKind, StructStats};

use std::ops::Range;

use crate::config::BKS;
use crate::run::{count_fresh, merge_into, remove_from};

/// Words of one RIA buffer of `nb` blocks: `nb` index entries, `nb` `u16`
/// counts two to a word, then `nb` blocks of `BKS` slots.
const fn words(nb: usize) -> usize {
    nb + nb.div_ceil(2) + nb * BKS
}

/// Redundant Indexed Array: an ordered `u32` set in gapped cache-line blocks.
///
/// Index, counts and blocks share one allocation, so a lookup, a walk and
/// the copy a snapshot forces ([`Clone`]) each touch one heap object. With
/// `nb` blocks, `buf` holds in order:
///
/// - `[0, nb)`: the index array — word `b` is block `b`'s first element;
/// - `nb.div_ceil(2)` words of counts — block `b`'s occupancy is the low
///   (even `b`) or high (odd `b`) half of word `nb + b / 2`;
/// - `nb * BKS` slots of blocks — each keeps its elements sorted in a
///   contiguous prefix.
#[derive(Clone, Debug)]
pub struct Ria {
    /// The one buffer, exactly [`words`]`(nb)` long: its length is the only
    /// record of `nb`.
    buf: Vec<u32>,
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
        Ria::from_sorted(&[], alpha)
    }

    /// Builds a RIA from a sorted, duplicate-free slice.
    ///
    /// Elements are spread evenly across `ceil(len * α / BKS)` blocks so no
    /// block starts full and none is empty.
    ///
    /// # Panics
    ///
    /// Panics if `alpha <= 1.0`, as [`Ria::new`] does.
    pub fn from_sorted(sorted: &[u32], alpha: f64) -> Self {
        assert!(alpha > 1.0, "space amplification factor must exceed 1.0");
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        let mut ria = Ria {
            buf: Vec::new(),
            len: 0,
            alpha,
        };
        ria.rebuild_from(sorted);
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

    /// Number of blocks currently allocated: `2 · words(nb)` is
    /// `nb · (2·BKS + 3) + nb % 2`, and the odd remainder is below the
    /// divisor.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        2 * self.buf.len() / (2 * BKS + 3)
    }

    /// The index array: each block's first element.
    #[inline]
    fn index(&self) -> &[u32] {
        &self.buf[..self.num_blocks()]
    }

    /// Occupancy of block `b`.
    #[inline]
    fn count(&self, b: usize) -> usize {
        ((self.buf[self.num_blocks() + b / 2] >> (16 * (b & 1))) & 0xFFFF) as usize
    }

    #[inline]
    fn set_count(&mut self, b: usize, count: usize) {
        debug_assert!(count <= BKS);
        let w = self.num_blocks() + b / 2;
        let shift = 16 * (b & 1);
        self.buf[w] = self.buf[w] & !(0xFFFF << shift) | (count as u32) << shift;
    }

    /// Position in `buf` of block `b`'s first slot.
    #[inline]
    fn slot(&self, b: usize) -> usize {
        let nb = self.num_blocks();
        nb + nb.div_ceil(2) + b * BKS
    }

    #[inline]
    fn block(&self, b: usize) -> &[u32] {
        let s = self.slot(b);
        &self.buf[s..s + self.count(b)]
    }

    /// Hands every occupied block to `f` in order until `f` returns
    /// `false`; returns whether the walk completed. Each block's index entry
    /// is its first element (the RIA's core redundancy), asserted in debug
    /// builds so a corrupt index cannot be walked (or checkpointed) silently.
    pub fn for_each_slice_while(&self, f: &mut dyn FnMut(&[u32]) -> bool) -> bool {
        (0..self.num_blocks()).all(|b| {
            let block = self.block(b);
            debug_assert_eq!(
                block.first().copied(),
                (!block.is_empty()).then_some(self.buf[b]),
                "RIA index entry disagrees with its block"
            );
            block.is_empty() || f(block)
        })
    }

    /// Locates the block that would hold `key`: the rightmost block whose
    /// index entry is `<= key`, or block 0 when `key` precedes them all.
    ///
    /// Sound because blocks are never empty while `len > 0` (deletes refill
    /// or rebuild, see [`Ria::refill_empty_blocks`]), so the index array is
    /// strictly increasing and identifies blocks unambiguously.
    #[inline]
    fn find_block(&self, key: u32) -> usize {
        self.find_block_from(0, key)
    }

    /// [`Ria::find_block`] for a key no smaller than block `from`'s first:
    /// a run's next id, searched for forward of the block its last id was
    /// placed in.
    #[inline]
    fn find_block_from(&self, from: usize, key: u32) -> usize {
        from + self.index()[from..]
            .partition_point(|&x| x <= key)
            .saturating_sub(1)
    }

    /// How many ids at the front of `run` — the first of which block `b`
    /// would hold — go to block `b`: those below the next block's first.
    #[inline]
    fn share(&self, b: usize, run: &[u32]) -> usize {
        match self.index().get(b + 1) {
            Some(&next) => run.partition_point(|&x| x < next),
            None => run.len(),
        }
    }

    /// Returns whether `key` is present.
    pub fn contains(&self, key: u32) -> bool {
        self.len > 0 && self.block(self.find_block(key)).binary_search(&key).is_ok()
    }

    /// Inserts `key`; returns whether it was added. One id is a run of one
    /// ([`Ria::insert_run`]).
    pub fn insert(&mut self, key: u32, stats: &StructStats) -> bool {
        self.insert_run(&[key], stats) == 1
    }

    /// Deletes `key`; returns whether it was present. One id is a run of
    /// one ([`Ria::delete_run`]).
    pub fn delete(&mut self, key: u32, stats: &StructStats) -> bool {
        self.delete_run(&[key], stats) == 1
    }

    /// Inserts the ids of a strictly ascending run; returns how many were
    /// added. Structural movement is recorded into `stats`.
    ///
    /// The run is placed a block's share at a time, walking the index
    /// forward once. A share that fits its block merges into it in place;
    /// one that does not goes in id by id, a full block carrying an id to a
    /// donor within the locality bound. The first id with no donor rebuilds
    /// the array once, at `α`, around every id of the run still to place.
    pub fn insert_run(&mut self, run: &[u32], stats: &StructStats) -> usize {
        let before = self.len;
        let (mut b, mut rest, mut shifts) = (0, run, 0);
        while let Some(&first) = rest.first() {
            b = self.find_block_from(b, first);
            let (ids, tail) = rest.split_at(self.share(b, rest));
            let placed = if let [key] = *ids {
                // One id is one search and one move, as on its own.
                self.place(b, key, &mut shifts, stats)
            } else {
                let (cnt, s) = (self.count(b), self.slot(b));
                let fresh = count_fresh(&self.buf[s..s + cnt], ids);
                if cnt + fresh <= BKS {
                    if fresh > 0 {
                        shifts += merge_into(&mut self.buf[s..s + BKS], cnt, ids, fresh);
                        self.set_count(b, cnt + fresh);
                        self.buf[b] = self.buf[s];
                        self.len += fresh;
                    }
                    true
                } else {
                    // The share overflows its block: id by id, each where
                    // the ripples before it have left its block.
                    let stuck = ids.iter().position(|&key| {
                        !self.place(self.find_block(key), key, &mut shifts, stats)
                    });
                    rest = &rest[stuck.unwrap_or(0)..];
                    stuck.is_none()
                }
            };
            if !placed {
                self.rebuild_around(rest, true, stats);
                break;
            }
            rest = tail;
        }
        stats.ria_within_block_shifts.record(shifts as u64);
        self.len - before
    }

    /// Deletes the ids of a strictly ascending run; returns how many were
    /// present. Structural movement is recorded into `stats`.
    ///
    /// The run is taken out a block's share at a time, walking the index
    /// forward once. The blocks it empties are refilled afterwards
    /// ([`Ria::refill_empty_blocks`]), and an array left below a quarter
    /// full is rebuilt once ([`Ria::maybe_shrink`]).
    pub fn delete_run(&mut self, run: &[u32], stats: &StructStats) -> usize {
        let before = self.len;
        let (mut b, mut rest, mut shifts) = (0, run, 0);
        let mut emptied = 0..0;
        while let (Some(&first), true) = (rest.first(), self.len > 0) {
            b = self.find_block_from(b, first);
            let (ids, tail) = rest.split_at(self.share(b, rest));
            let (cnt, s) = (self.count(b), self.slot(b));
            let (kept, moved) = remove_from(&mut self.buf[s..s + cnt], ids);
            shifts += moved;
            self.len -= cnt - kept;
            self.set_count(b, kept);
            if kept > 0 {
                self.buf[b] = self.buf[s];
            } else if kept < cnt {
                // Blocks are visited in order: the first emptied stays first.
                emptied = if emptied.is_empty() { b } else { emptied.start }..b + 1;
            }
            rest = tail;
        }
        stats.ria_within_block_shifts.record(shifts as u64);
        if !emptied.is_empty() {
            self.refill_empty_blocks(emptied, stats);
        }
        self.maybe_shrink(stats);
        before - self.len
    }

    /// Collects every element into a sorted vector.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.len);
        self.for_each_slice_while(&mut |s| {
            v.extend_from_slice(s);
            true
        });
        v
    }

    /// Places `key` in block `b`, the block that would hold it: into the
    /// block if it has room, else by carrying an id to a donor within the
    /// locality bound. Returns `false`, having changed nothing, when there is
    /// no such donor; in-block shifts are added to `shifts`.
    fn place(&mut self, b: usize, key: u32, shifts: &mut usize, stats: &StructStats) -> bool {
        let Err(i) = self.block(b).binary_search(&key) else {
            return true;
        };
        if self.count(b) < BKS {
            *shifts += self.insert_into_block(b, i, key);
        } else {
            // Position conflict with a full block: bounded horizontal movement.
            let Some(donor) = self.find_donor(b) else {
                return false;
            };
            let bound = self.num_blocks().ilog2() as u64 + 1;
            let span = donor.abs_diff(b) as u64;
            *shifts += self.ripple_insert(b, i, key, donor);
            // One element crosses each block boundary between b and donor.
            stats.record_ria_ripple(span, span, bound);
        }
        self.len += 1;
        true
    }

    /// Inserts `key` at in-block position `i` of block `b`, which has space;
    /// returns how many ids it shifted.
    fn insert_into_block(&mut self, b: usize, i: usize, key: u32) -> usize {
        let cnt = self.count(b);
        debug_assert!(cnt < BKS && i <= cnt);
        let s = self.slot(b);
        self.buf.copy_within(s + i..s + cnt, s + i + 1);
        self.buf[s + i] = key;
        self.set_count(b, cnt + 1);
        if i == 0 {
            self.buf[b] = key;
        }
        cnt - i
    }

    /// Finds the nearest block with a free slot within the locality bound of
    /// `log2(num_blocks) + 1` blocks on each side (paper §4.2), or `None`.
    fn find_donor(&self, b: usize) -> Option<usize> {
        let nb = self.num_blocks();
        let bound = nb.ilog2() as usize + 1;
        for d in 1..=bound {
            if b + d < nb && self.count(b + d) < BKS {
                return Some(b + d);
            }
            if d <= b && self.count(b - d) < BKS {
                return Some(b - d);
            }
        }
        None
    }

    /// Horizontal movement: inserts `key` at position `i` of full block `b`
    /// by carrying the displaced boundary element block-by-block to `donor`,
    /// which has a free slot. Each intermediate block moves exactly one
    /// element, so the movement distance is bounded by `|donor - b|` blocks.
    /// Returns how many ids shifted inside block `b`.
    fn ripple_insert(&mut self, b: usize, i: usize, key: u32, donor: usize) -> usize {
        debug_assert_eq!(self.count(b), BKS);
        debug_assert!(self.count(donor) < BKS);
        if donor > b {
            // Carry the block maximum rightward.
            let mut shifted = 0;
            let mut carry = if i == BKS {
                key
            } else {
                let max = self.pop_back(b);
                shifted = self.insert_into_block(b, i, key);
                max
            };
            for k in b + 1..donor {
                let next = self.pop_back(k);
                self.push_front(k, carry);
                carry = next;
            }
            self.push_front(donor, carry);
            shifted
        } else {
            // Carry the block minimum leftward.
            let mut shifted = 0;
            let mut carry = if i == 0 {
                key
            } else {
                let min = self.pop_front(b);
                shifted = self.insert_into_block(b, i - 1, key);
                min
            };
            for k in (donor + 1..b).rev() {
                let next = self.pop_front(k);
                self.push_back(k, carry);
                carry = next;
            }
            self.push_back(donor, carry);
            shifted
        }
    }

    fn pop_back(&mut self, b: usize) -> u32 {
        let cnt = self.count(b);
        debug_assert!(cnt > 0);
        self.set_count(b, cnt - 1);
        self.buf[self.slot(b) + cnt - 1]
    }

    fn pop_front(&mut self, b: usize) -> u32 {
        let cnt = self.count(b);
        debug_assert!(cnt > 0);
        let s = self.slot(b);
        let v = self.buf[s];
        self.buf.copy_within(s + 1..s + cnt, s);
        self.set_count(b, cnt - 1);
        if cnt > 1 {
            self.buf[b] = self.buf[s];
        }
        v
    }

    fn push_front(&mut self, b: usize, v: u32) {
        let cnt = self.count(b);
        debug_assert!(cnt < BKS);
        let s = self.slot(b);
        self.buf.copy_within(s..s + cnt, s + 1);
        self.buf[s] = v;
        self.set_count(b, cnt + 1);
        self.buf[b] = v;
    }

    fn push_back(&mut self, b: usize, v: u32) {
        let cnt = self.count(b);
        debug_assert!(cnt < BKS);
        let s = self.slot(b);
        self.buf[s + cnt] = v;
        self.set_count(b, cnt + 1);
        if cnt == 0 {
            self.buf[b] = v;
        }
    }

    /// Restores the no-empty-block invariant after a delete run emptied
    /// blocks in `range`: each steals one element from an adjacent block
    /// that can spare one (a horizontal move, paper §4.2 "Delete"). Should
    /// a block have no such neighbour — a state only reachable at very low
    /// occupancy, or when a run empties blocks side by side — the array is
    /// rebuilt once instead.
    fn refill_empty_blocks(&mut self, range: Range<usize>, stats: &StructStats) {
        if self.len == 0 {
            self.rebuild_from(&[]);
            return;
        }
        for b in range {
            if self.count(b) > 0 {
                continue;
            }
            if b + 1 < self.num_blocks() && self.count(b + 1) >= 2 {
                let v = self.pop_front(b + 1);
                self.push_back(b, v);
            } else if b > 0 && self.count(b - 1) >= 2 {
                let v = self.pop_back(b - 1);
                self.push_front(b, v);
            } else {
                self.rebuild_around(&[], false, stats);
                return;
            }
            stats.ria_within_block_shifts.record(1);
        }
    }

    /// Rebuilds at `α` around `run`, merged in (`insert`) or taken out:
    /// one allocation for the ids, one for the new buffer.
    ///
    /// An insert's rebuild leaves the room an insert of the run's next id
    /// alone would have left (`α` times one more than the current length),
    /// or just the room the merged ids need if that is more: a run leaves no
    /// more blocks than its ids placed one at a time would have.
    fn rebuild_around(&mut self, run: &[u32], insert: bool, stats: &StructStats) {
        let _span = span(SpanKind::RiaRebuild);
        fail_point!("ria_rebuild");
        let all = merged_ids(self.len, run, insert, |f| self.for_each_slice_while(f));
        let room = if insert { self.len + 1 } else { all.len() };
        self.rebuild_with_room(&all, room);
        stats.ria_rebuilds.record(1);
    }

    /// Rebuilds from a sorted slice into a fresh buffer, redistributing
    /// evenly with factor `α` (one empty block when the slice is empty).
    fn rebuild_from(&mut self, sorted: &[u32]) {
        self.rebuild_with_room(sorted, sorted.len());
    }

    /// [`Ria::rebuild_from`] with `α` applied to `room` ids instead of the
    /// slice's length, never leaving fewer slots than the slice needs.
    fn rebuild_with_room(&mut self, sorted: &[u32], room: usize) {
        let n = sorted.len();
        let nb = if n == 0 {
            1
        } else {
            let capacity = ((room as f64 * self.alpha).ceil() as usize).max(n);
            capacity.div_ceil(BKS).max(1)
        };
        debug_assert!(n.div_ceil(nb) <= BKS);
        self.buf = vec![0; words(nb)];
        self.len = n;
        if n == 0 {
            return;
        }
        let base = n / nb;
        let extra = n % nb;
        let mut src = 0;
        for b in 0..nb {
            let take = base + usize::from(b < extra);
            let s = self.slot(b);
            self.buf[s..s + take].copy_from_slice(&sorted[src..src + take]);
            self.set_count(b, take);
            self.buf[b] = sorted[src];
            src += take;
        }
        debug_assert_eq!(src, n);
    }

    /// Shrinks after heavy deletion (occupancy below 25%) to bound memory.
    fn maybe_shrink(&mut self, stats: &StructStats) {
        let nb = self.num_blocks();
        if nb > 1 && self.len * 4 < nb * BKS {
            self.rebuild_around(&[], false, stats);
        }
    }

    /// Checks every structural invariant; used by tests and debug assertions.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn check_invariants(&self) {
        let nb = self.num_blocks();
        assert_eq!(self.buf.len(), words(nb), "buffer is not whole blocks");
        if nb % 2 == 1 {
            assert_eq!(self.buf[nb + nb / 2] >> 16, 0, "count pad in use");
        }
        let mut total = 0;
        let mut prev: Option<u32> = None;
        for b in 0..nb {
            assert!(self.count(b) <= BKS, "block {b} overfull");
            total += self.count(b);
            let blk = self.block(b);
            if self.len > 0 {
                assert!(!blk.is_empty(), "empty block {b} while len = {}", self.len);
                assert_eq!(self.buf[b], blk[0], "index mismatch at block {b}");
            }
            for &x in blk {
                if let Some(p) = prev {
                    assert!(p < x, "order violation: {p} !< {x}");
                }
                prev = Some(x);
            }
        }
        assert_eq!(total, self.len, "count sum mismatch");
    }
}

impl MemoryFootprint for Ria {
    /// `nb × (4·BKS + 4 + 2)` bytes: the blocks as payload, one `u32` index
    /// entry and one `u16` count per block as index. An odd `nb`'s last
    /// counts word carries a 2-byte pad, which is slack and not counted.
    fn footprint(&self) -> Footprint {
        let nb = self.num_blocks();
        Footprint::new(
            nb * BKS * core::mem::size_of::<u32>(),
            nb * (core::mem::size_of::<u32>() + core::mem::size_of::<u16>()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Ria {
        /// Moves the last block's index word off its block's first id. The
        /// blocks still hold the same ascending ids; only the redundant
        /// index lies. For the engine's corruption test.
        pub(crate) fn corrupt_index(&mut self) {
            let b = self.num_blocks() - 1;
            self.buf[b] += 1;
        }
    }

    /// Sink for the structural events these tests do not look at.
    static STATS: StructStats = StructStats::new();

    #[test]
    fn insert_and_contains() {
        let mut r = Ria::new(1.2);
        for k in [5u32, 1, 9, 3, 7] {
            assert!(r.insert(k, &STATS));
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
            keys.extend(r.index().iter().flat_map(|&x| [x - 1, x, x + 1]));
            for k in keys {
                let ctx = format!("{nb} blocks, key {k}");
                assert_eq!(r.contains(k), set.contains(&k), "{ctx}");
                let (mut ins, mut want) = (r.clone(), set.clone());
                assert_eq!(ins.insert(k, &STATS), want.insert(k), "{ctx}");
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
        assert!(r.insert(4, &STATS));
        assert!(!r.insert(4, &STATS));
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
        assert!((0..r.num_blocks()).all(|b| r.count(b) > 0));
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
        assert!(r.insert(42, &STATS));
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
    fn slice_walk_hands_over_blocks_and_stops_early() {
        let r = Ria::from_sorted(&(0..100).collect::<Vec<_>>(), 1.2);
        let mut blocks = 0;
        assert!(r.for_each_slice_while(&mut |s| {
            blocks += 1;
            s.len() <= BKS
        }));
        assert_eq!(blocks, r.num_blocks());
        let mut n = 0;
        assert!(!r.for_each_slice_while(&mut |_| {
            n += 1;
            n < 3
        }));
        assert_eq!(n, 3);
        assert!(Ria::new(1.2).for_each_slice_while(&mut |_| unreachable!()));
    }

    /// Fills every block of an odd and an even block count to all `BKS`
    /// ids and empties one slot of each again: every count round-trips
    /// through its half of a packed word without touching its neighbour's,
    /// and an odd count's pad half stays zero.
    #[test]
    fn packed_counts_round_trip_for_odd_and_even_block_counts() {
        for nb in [1usize, 2, 3, 4, 5] {
            let ids: Vec<u32> = (0..(nb * BKS * 5 / 6) as u32).map(|i| i * 100).collect();
            let mut r = Ria::from_sorted(&ids, 1.2);
            assert_eq!(r.num_blocks(), nb);
            let mut want: std::collections::BTreeSet<u32> = ids.into_iter().collect();
            for b in 0..nb {
                let first = r.index()[b];
                let before: Vec<usize> = (0..nb).map(|c| r.count(c)).collect();
                let mut k = 1;
                while r.count(b) < BKS {
                    assert!(r.insert(first + k, &STATS));
                    want.insert(first + k);
                    k += 1;
                }
                for c in (0..nb).filter(|&c| c != b) {
                    assert_eq!(r.count(c), before[c], "{nb} blocks: block {c} moved");
                }
            }
            assert!((0..nb).all(|b| r.count(b) == BKS), "{nb} blocks");
            assert_eq!(r.len(), nb * BKS);
            if nb % 2 == 1 {
                assert_eq!(r.buf[nb + nb / 2] >> 16, 0, "{nb} blocks: pad");
            }
            r.check_invariants();
            assert_eq!(r.to_vec(), want.iter().copied().collect::<Vec<_>>());
            for b in 0..nb {
                let last = *r.block(b).last().unwrap();
                assert!(r.delete(last, &STATS));
                assert_eq!(r.count(b), BKS - 1, "{nb} blocks: block {b}");
            }
            r.check_invariants();
        }
    }

    /// The footprint is the three-array formula, and a clone — the copy a
    /// snapshot forces — is one buffer of its source's length.
    #[test]
    fn footprint_is_six_bytes_of_index_per_block_and_clones_keep_it() {
        for n in [0usize, 1, 14, 27, 40, 53, 1_000] {
            let r = Ria::from_sorted(&(0..n as u32).collect::<Vec<_>>(), 1.2);
            let nb = r.num_blocks();
            let fp = r.footprint();
            assert_eq!(fp.payload_bytes, nb * 4 * BKS, "{n} ids");
            assert_eq!(fp.index_bytes, nb * (4 + 2), "{n} ids");
            assert_eq!(r.buf.len(), words(nb), "{n} ids");
            let c = r.clone();
            assert_eq!(c.buf.len(), r.buf.len(), "{n} ids");
            assert_eq!(c.footprint(), fp, "{n} ids");
            assert_eq!(c.to_vec(), r.to_vec(), "{n} ids");
            c.check_invariants();
        }
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
                assert_eq!(r.insert(k, &STATS), oracle.insert(k));
            } else {
                assert_eq!(r.delete(k, &STATS), oracle.remove(&k));
            }
        }
        r.check_invariants();
        assert_eq!(r.to_vec(), oracle.into_iter().collect::<Vec<_>>());
    }
}
