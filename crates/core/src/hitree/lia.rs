//! LIA — the *Learned Indexed Array* (paper §3.2), HITree's internal node:
//! the `Lia` arm of [`Spill`], whose children are `Spill`s again.
//!
//! A LIA addresses a gapped slot array with a linear-regression model. The
//! monotone model guarantees that predicted slots never invert key order, so
//! elements placed at their predicted slots are globally sorted and a lookup
//! is O(1) model evaluation plus at most one cache-line block scan.
//!
//! Position conflicts are resolved *locality-first*: conflicting elements are
//! packed inside their predicted cache-line block (horizontal movement, `B`
//! slots); only when a block overflows is a child node created (vertical
//! movement, `C` slots). Children created for adjacent overflowing blocks at
//! bulk-load time are merged to cut random pointer chases.
//!
//! ## Placement invariant
//!
//! Every element lives in the block its model prediction maps to, or in that
//! block's child. `E` slots additionally sit at their *exact* predicted slot.
//! Because the model is monotone this implies a strict range partition across
//! blocks, which both the learned and the binary (ablation) search paths rely
//! on.

use lsgraph_api::fail_point;
use lsgraph_api::{merged_ids, Footprint, MemoryFootprint, StructStats};

use super::typevec::{SlotType, TypeVec};
use super::SlotOccupancy;
use crate::adjacency::Spill;
use crate::config::{Config, LiaSearch, BKS};
use crate::model::LinearModel;
use crate::run::{count_fresh, merge_into, remove_from};

/// Sentinel for "block has no child".
const NO_CHILD: u32 = u32::MAX;

/// Learned Indexed Array: HITree internal node.
#[derive(Clone, Debug)]
pub struct Lia {
    model: LinearModel,
    slots: Vec<u32>,
    types: TypeVec,
    /// Per-block child index into `children`, or [`NO_CHILD`].
    child_of_block: Vec<u32>,
    children: Vec<Option<Box<Spill>>>,
    /// Total elements in this subtree.
    len: usize,
    /// Subtree size when the model was (re)trained; once `len` doubles past
    /// this the node retrains and repacks (amortized-O(1) rebuild rule).
    built_len: usize,
}

/// What a block's first slot says about how the block is organized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BlockKind {
    /// Mixed `E` slots at exact predicted positions and `U` gaps.
    ExactOrUnused,
    /// Sorted prefix of `B` slots.
    Packed,
    /// Delegated to a child node.
    Delegated,
}

impl Lia {
    /// Bulk-loads a LIA from a sorted duplicate-free slice (Algorithm 1).
    ///
    /// # Panics
    ///
    /// Panics if `ns` is empty; callers build an array or a RIA instead.
    pub(crate) fn build(ns: &[u32], cfg: &Config, depth: usize) -> Self {
        assert!(!ns.is_empty(), "LIA bulk-load requires elements");
        debug_assert!(ns.windows(2).all(|w| w[0] < w[1]));
        let nb = ((ns.len() as f64 * cfg.alpha).ceil() as usize)
            .div_ceil(BKS)
            .max(1);
        let num_slots = nb * BKS;
        let model = LinearModel::fit(ns, num_slots);
        let mut lia = Lia {
            model,
            slots: vec![0; num_slots],
            types: TypeVec::new(num_slots),
            child_of_block: vec![NO_CHILD; nb],
            children: Vec::new(),
            len: ns.len(),
            built_len: ns.len(),
        };
        // Group elements by predicted block; predictions are monotone so the
        // groups are contiguous runs of `ns`.
        let mut poss = Vec::with_capacity(ns.len());
        for &k in ns {
            poss.push(lia.model.predict(k));
        }
        // Ranges of ns delegated to children, keyed by starting block; runs
        // of adjacent delegated blocks are merged afterwards.
        let mut delegated: Vec<(usize, usize, usize, usize)> = Vec::new(); // (b, b_end, s, e)
        let mut i = 0;
        while i < ns.len() {
            let b = poss[i] / BKS;
            let mut j = i + 1;
            while j < ns.len() && poss[j] / BKS == b {
                j += 1;
            }
            let group = &ns[i..j];
            let group_poss = &poss[i..j];
            let unique = group_poss.windows(2).all(|w| w[0] < w[1]);
            if unique {
                for (&k, &p) in group.iter().zip(group_poss) {
                    lia.slots[p] = k;
                    lia.types.set(p, SlotType::Edge);
                }
            } else if group.len() <= BKS {
                lia.write_packed_block(b, group);
            } else {
                delegated.push((b, b, i, j));
            }
            i = j;
        }
        // MergeAdjacentChildren (Algorithm 1 line 21): fuse runs of adjacent
        // delegated blocks into one shared child.
        let mut merged: Vec<(usize, usize, usize, usize)> = Vec::new();
        for d in delegated {
            match merged.last_mut() {
                Some(last) if last.1 + 1 == d.0 => {
                    last.1 = d.1;
                    last.3 = d.3;
                }
                _ => merged.push(d),
            }
        }
        for (b0, b1, s, e) in merged {
            let sub = &ns[s..e];
            let idx = lia.children.len() as u32;
            lia.children.push(Some(Box::new(Spill::from_sorted_child(
                sub,
                cfg,
                depth + 1,
                ns.len(),
            ))));
            for b in b0..=b1 {
                lia.child_of_block[b] = idx;
                lia.types.set_range(b * BKS..(b + 1) * BKS, SlotType::Child);
            }
        }
        lia
    }

    /// Total elements in this subtree.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the subtree is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Subtree size at the last (re)train.
    #[inline]
    pub fn built_len(&self) -> usize {
        self.built_len
    }

    #[inline]
    fn num_blocks(&self) -> usize {
        self.child_of_block.len()
    }

    #[inline]
    fn kind(&self, b: usize) -> BlockKind {
        match self.types.get(b * BKS) {
            SlotType::Child => BlockKind::Delegated,
            SlotType::Block => BlockKind::Packed,
            SlotType::Unused | SlotType::Edge => BlockKind::ExactOrUnused,
        }
    }

    /// Length of a packed block's sorted `B` prefix.
    fn packed_len(&self, b: usize) -> usize {
        let base = b * BKS;
        let mut k = 0;
        while k < BKS && self.types.get(base + k) == SlotType::Block {
            k += 1;
        }
        k
    }

    /// Writes `group` as the sorted packed prefix of block `b`.
    fn write_packed_block(&mut self, b: usize, group: &[u32]) {
        debug_assert!(group.len() <= BKS);
        let base = b * BKS;
        self.slots[base..base + group.len()].copy_from_slice(group);
        self.types
            .set_range(base..base + group.len(), SlotType::Block);
        self.types
            .set_range(base + group.len()..base + BKS, SlotType::Unused);
    }

    /// Returns whether `key` is present (learned search path).
    pub fn contains(&self, key: u32, cfg: &Config) -> bool {
        if cfg.lia_search == LiaSearch::Binary {
            return self.contains_binary(key, cfg);
        }
        let pos = self.model.predict(key);
        let b = pos / BKS;
        match self.kind(b) {
            BlockKind::ExactOrUnused => {
                self.types.get(pos) == SlotType::Edge && self.slots[pos] == key
            }
            BlockKind::Packed => {
                let base = b * BKS;
                let blk = &self.slots[base..base + self.packed_len(b)];
                blk.binary_search(&key).is_ok()
            }
            BlockKind::Delegated => self.child(b).contains(key, cfg),
        }
    }

    #[inline]
    fn child(&self, b: usize) -> &Spill {
        let idx = self.child_of_block[b];
        debug_assert_ne!(idx, NO_CHILD);
        self.children[idx as usize]
            .as_deref()
            .expect("delegated block must have a live child")
    }

    #[inline]
    fn child_mut(&mut self, b: usize) -> &mut Spill {
        let idx = self.child_of_block[b];
        debug_assert_ne!(idx, NO_CHILD);
        self.children[idx as usize]
            .as_deref_mut()
            .expect("delegated block must have a live child")
    }

    /// Inserts the ids of a strictly ascending run (Algorithm 2, LIA
    /// branch, a block's share at a time); returns how many were added.
    /// Horizontal packs, within-block shifts, and vertical child creations
    /// are recorded into `stats`.
    pub(crate) fn insert_run(
        &mut self,
        run: &[u32],
        cfg: &Config,
        depth: usize,
        stats: &StructStats,
    ) -> usize {
        if cfg.lia_search == LiaSearch::Binary {
            // Ablation §6.2: locate by binary search instead of the model.
            // Placement below still follows the model (the structure is
            // unchanged); the ablation measures pure search cost.
            let fresh: Vec<u32> = run
                .iter()
                .copied()
                .filter(|&u| !self.contains_binary(u, cfg))
                .collect();
            return self.place_run(&fresh, cfg, depth, stats);
        }
        self.place_run(run, cfg, depth, stats)
    }

    fn place_run(&mut self, run: &[u32], cfg: &Config, depth: usize, stats: &StructStats) -> usize {
        let mut added = 0;
        let mut rest = run;
        while let Some(&first) = rest.first() {
            let b = self.model.predict(first) / BKS;
            let (ids, tail) = rest.split_at(self.share(b, rest));
            added += match self.kind(b) {
                BlockKind::Delegated => self.child_mut(b).insert_run_at(ids, cfg, depth + 1, stats),
                BlockKind::Packed => self.merge_packed(b, ids, cfg, depth, stats),
                BlockKind::ExactOrUnused => self.place_exact(b, ids, cfg, depth, stats),
            };
            rest = tail;
        }
        self.len += added;
        added
    }

    /// How many ids at the front of `run` — the first of which the model
    /// sends to block `b` — go where it goes: to block `b`, or to the child
    /// `b` shares with its neighbours. Predictions are monotone, so they are
    /// a prefix.
    fn share(&self, b: usize, run: &[u32]) -> usize {
        let child = self.child_of_block[b];
        1 + run[1..]
            .iter()
            .take_while(|&&u| {
                let c = self.model.predict(u) / BKS;
                c == b || (child != NO_CHILD && self.child_of_block[c] == child)
            })
            .count()
    }

    /// Merges `ids` into packed block `b`: within the block while its `B`
    /// prefix has room (horizontal movement), else into a child (vertical,
    /// Fig. 10 case 3).
    fn merge_packed(
        &mut self,
        b: usize,
        ids: &[u32],
        cfg: &Config,
        depth: usize,
        stats: &StructStats,
    ) -> usize {
        let base = b * BKS;
        let plen = self.packed_len(b);
        let fresh = count_fresh(&self.slots[base..base + plen], ids);
        if fresh > 0 && plen + fresh <= BKS {
            let moved = merge_into(&mut self.slots[base..base + BKS], plen, ids, fresh);
            self.types
                .set_range(base + plen..base + plen + fresh, SlotType::Block);
            stats.lia_within_block_shifts.record(moved as u64);
        } else if fresh > 0 {
            let merged = merged_ids(plen, ids, true, |f| f(&self.slots[base..base + plen]));
            self.settle_block(b, merged, cfg, depth, stats);
        }
        fresh
    }

    /// Places `ids` in exact/unused block `b`: each at its predicted slot
    /// when every new one has a free slot of its own; otherwise the block's
    /// exact-placed elements and the new ids are repacked horizontally (or
    /// go vertical).
    fn place_exact(
        &mut self,
        b: usize,
        ids: &[u32],
        cfg: &Config,
        depth: usize,
        stats: &StructStats,
    ) -> usize {
        let (mut fresh, mut last) = (0, usize::MAX);
        for &u in ids {
            let pos = self.model.predict(u);
            match self.types.get(pos) {
                SlotType::Edge if self.slots[pos] == u => {}
                SlotType::Unused if pos != last => {
                    fresh += 1;
                    last = pos;
                }
                _ => {
                    // Conflict: gather the block's exact-placed elements
                    // plus the new ids and repack.
                    let base = b * BKS;
                    let held: Vec<u32> = (base..base + BKS)
                        .filter(|&i| self.types.get(i) == SlotType::Edge)
                        .map(|i| self.slots[i])
                        .collect();
                    let merged = merged_ids(held.len(), ids, true, |f| f(&held));
                    let fresh = merged.len() - held.len();
                    self.settle_block(b, merged, cfg, depth, stats);
                    return fresh;
                }
            }
        }
        for &u in ids {
            let pos = self.model.predict(u);
            self.slots[pos] = u;
            self.types.set(pos, SlotType::Edge);
        }
        fresh
    }

    /// Stores `merged` (sorted, len may exceed BKS) into block `b`, packing
    /// horizontally when it fits and creating a child otherwise.
    fn settle_block(
        &mut self,
        b: usize,
        merged: Vec<u32>,
        cfg: &Config,
        depth: usize,
        stats: &StructStats,
    ) {
        if merged.len() <= BKS {
            self.write_packed_block(b, &merged);
            stats.lia_horizontal_packs.record(1);
        } else {
            // Vertical movement is only reached when the merged contents
            // overflow the block's BKS slots; `record_lia_vertical(false)`
            // would flag a policy violation.
            stats.record_lia_vertical(merged.len() > BKS);
            fail_point!("hitree_vertical");
            let idx = self.children.len() as u32;
            self.children.push(Some(Box::new(Spill::from_sorted_child(
                &merged,
                cfg,
                depth + 1,
                usize::MAX,
            ))));
            self.child_of_block[b] = idx;
            self.types
                .set_range(b * BKS..(b + 1) * BKS, SlotType::Child);
        }
    }

    /// Deletes the ids of a strictly ascending run, a block's share at a
    /// time; returns how many were present.
    pub(crate) fn delete_run(
        &mut self,
        run: &[u32],
        cfg: &Config,
        depth: usize,
        stats: &StructStats,
    ) -> usize {
        let mut removed = 0;
        let mut rest = run;
        while let Some(&first) = rest.first() {
            let b = self.model.predict(first) / BKS;
            let (ids, tail) = rest.split_at(self.share(b, rest));
            let base = b * BKS;
            removed += match self.kind(b) {
                BlockKind::Delegated => {
                    let idx = self.child_of_block[b];
                    let child = self.child_mut(b);
                    let removed = child.delete_run_at(ids, cfg, depth + 1, stats);
                    if child.is_empty() {
                        self.remove_child(idx);
                    }
                    removed
                }
                BlockKind::ExactOrUnused => ids
                    .iter()
                    .filter(|&&u| {
                        let pos = self.model.predict(u);
                        let hit = self.types.get(pos) == SlotType::Edge && self.slots[pos] == u;
                        if hit {
                            self.types.set(pos, SlotType::Unused);
                        }
                        hit
                    })
                    .count(),
                BlockKind::Packed => {
                    let plen = self.packed_len(b);
                    let (kept, moved) = remove_from(&mut self.slots[base..base + plen], ids);
                    self.types
                        .set_range(base + kept..base + plen, SlotType::Unused);
                    stats.lia_within_block_shifts.record(moved as u64);
                    plen - kept
                }
            };
            rest = tail;
        }
        self.len -= removed;
        removed
    }

    /// Drops child `idx` and reverts its blocks to plain unused space.
    fn remove_child(&mut self, idx: u32) {
        self.children[idx as usize] = None;
        for b in 0..self.num_blocks() {
            if self.child_of_block[b] == idx {
                self.child_of_block[b] = NO_CHILD;
                self.types
                    .set_range(b * BKS..(b + 1) * BKS, SlotType::Unused);
            }
        }
    }

    /// Hands the elements to `f` in ascending order, one slice per stretch
    /// of contiguous slots, until `f` returns `false`; returns whether the
    /// walk completed. A packed block is one slice, an exact/unused block
    /// one slice per run of consecutive `E` slots, and a child (shared by a
    /// run of delegated blocks) is walked once, recursively.
    pub fn for_each_slice_while(&self, f: &mut dyn FnMut(&[u32]) -> bool) -> bool {
        let mut last_child = NO_CHILD;
        (0..self.num_blocks()).all(|b| {
            let base = b * BKS;
            match self.kind(b) {
                BlockKind::Delegated => {
                    let prev = std::mem::replace(&mut last_child, self.child_of_block[b]);
                    prev == last_child || self.child(b).for_each_slice_while(f)
                }
                BlockKind::Packed => {
                    last_child = NO_CHILD;
                    f(&self.slots[base..base + self.packed_len(b)])
                }
                BlockKind::ExactOrUnused => {
                    last_child = NO_CHILD;
                    // A run ends at the first slot that is not `E`.
                    let mut run = base;
                    (base..=base + BKS).all(|i| {
                        if i < base + BKS && self.types.get(i) == SlotType::Edge {
                            return true;
                        }
                        let slice = &self.slots[run..i];
                        run = i + 1;
                        slice.is_empty() || f(slice)
                    })
                }
            }
        })
    }

    /// First element of block `b` (descending into children), or `None` when
    /// the block holds nothing.
    fn block_first(&self, b: usize) -> Option<u32> {
        let base = b * BKS;
        match self.kind(b) {
            BlockKind::Delegated => self.child(b).min_key(),
            BlockKind::Packed => Some(self.slots[base]),
            BlockKind::ExactOrUnused => (base..base + BKS)
                .find(|&i| self.types.get(i) == SlotType::Edge)
                .map(|i| self.slots[i]),
        }
    }

    /// Ablation search: rightmost non-empty block whose first element is
    /// `<= key`, located by binary search with on-demand block probing —
    /// exactly the serial-dependent, cache-unfriendly pattern the paper's
    /// motivation (§2.3) attributes to PMA search.
    fn find_block_binary(&self, key: u32) -> Option<usize> {
        let nb = self.num_blocks();
        let mut ans = None;
        let mut lo = 0isize;
        let mut hi = nb as isize - 1;
        while lo <= hi {
            let mid = lo + (hi - lo) / 2;
            // Probe the nearest non-empty block at or left of mid.
            let mut p = mid;
            let mut probe = None;
            while p >= lo {
                if let Some(v) = self.block_first(p as usize) {
                    probe = Some((p, v));
                    break;
                }
                p -= 1;
            }
            match probe {
                None => lo = mid + 1,
                Some((p, v)) => {
                    if v <= key {
                        ans = Some(p as usize);
                        lo = mid + 1;
                    } else {
                        hi = p - 1;
                    }
                }
            }
        }
        ans
    }

    /// Binary-search-based membership (ablation mode).
    fn contains_binary(&self, key: u32, cfg: &Config) -> bool {
        let Some(b) = self.find_block_binary(key) else {
            return false;
        };
        let base = b * BKS;
        match self.kind(b) {
            BlockKind::Delegated => self.child(b).contains(key, cfg),
            BlockKind::Packed => {
                let blk = &self.slots[base..base + self.packed_len(b)];
                blk.binary_search(&key).is_ok()
            }
            BlockKind::ExactOrUnused => (base..base + BKS)
                .any(|i| self.types.get(i) == SlotType::Edge && self.slots[i] == key),
        }
    }

    /// Collects all elements into a sorted vector.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.len);
        self.for_each_slice_while(&mut |s| {
            v.extend_from_slice(s);
            true
        });
        v
    }

    /// Adds this node's (and recursively its children's) slot-type counts
    /// into `occ`.
    pub(crate) fn add_slot_occupancy(&self, occ: &mut SlotOccupancy) {
        for i in 0..self.types.len() {
            match self.types.get(i) {
                SlotType::Unused => occ.unused += 1,
                SlotType::Edge => occ.edge += 1,
                SlotType::Block => occ.block += 1,
                SlotType::Child => occ.child += 1,
            }
        }
        for c in self.children.iter().flatten() {
            c.add_slot_occupancy(occ);
        }
    }

    /// Verifies the placement invariant and internal accounting.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn check_invariants(&self, cfg: &Config) {
        let v = self.to_vec();
        assert_eq!(v.len(), self.len, "len mismatch");
        assert!(v.windows(2).all(|w| w[0] < w[1]), "not sorted/dedup");
        for b in 0..self.num_blocks() {
            let base = b * BKS;
            match self.kind(b) {
                BlockKind::ExactOrUnused => {
                    for i in base..base + BKS {
                        let t = self.types.get(i);
                        assert!(
                            t == SlotType::Unused || t == SlotType::Edge,
                            "stray type {t:?} in EU block {b}"
                        );
                        if t == SlotType::Edge {
                            assert_eq!(
                                self.model.predict(self.slots[i]),
                                i,
                                "E slot not at predicted position"
                            );
                        }
                    }
                }
                BlockKind::Packed => {
                    let plen = self.packed_len(b);
                    assert!(plen > 0);
                    let blk = &self.slots[base..base + plen];
                    assert!(
                        blk.windows(2).all(|w| w[0] < w[1]),
                        "packed prefix unsorted"
                    );
                    for &x in blk {
                        assert_eq!(
                            self.model.predict(x) / BKS,
                            b,
                            "packed element in wrong block"
                        );
                    }
                    for i in base + plen..base + BKS {
                        assert_eq!(self.types.get(i), SlotType::Unused, "non-U after prefix");
                    }
                }
                BlockKind::Delegated => {
                    let idx = self.child_of_block[b];
                    assert_ne!(idx, NO_CHILD, "C block without child");
                    let child = self.children[idx as usize]
                        .as_deref()
                        .expect("C block with dropped child");
                    assert!(!child.is_empty(), "empty child retained");
                    child.check_invariants(cfg);
                    for i in base..base + BKS {
                        assert_eq!(self.types.get(i), SlotType::Child);
                    }
                }
            }
        }
        // Every element routed to a delegated block must be inside that
        // block's child.
        let mut per_child: Vec<usize> = vec![0; self.children.len()];
        let mut direct = 0usize;
        for &x in &v {
            let b = self.model.predict(x) / BKS;
            match self.kind(b) {
                BlockKind::Delegated => per_child[self.child_of_block[b] as usize] += 1,
                _ => direct += 1,
            }
        }
        let child_total: usize = self
            .children
            .iter()
            .map(|c| c.as_ref().map_or(0, |n| n.len()))
            .sum();
        assert_eq!(direct + child_total, self.len, "direct/child accounting");
        for (i, c) in self.children.iter().enumerate() {
            if let Some(n) = c {
                assert_eq!(per_child[i], n.len(), "child {i} routing mismatch");
            }
        }
    }
}

impl MemoryFootprint for Lia {
    fn footprint(&self) -> Footprint {
        let mut fp = Footprint::new(
            self.slots.len() * core::mem::size_of::<u32>(),
            // Model parameters plus slot-type and child routing metadata.
            self.model.param_bytes()
                + self.types.bytes()
                + self.child_of_block.len() * core::mem::size_of::<u32>(),
        );
        for c in self.children.iter().flatten() {
            fp += c.footprint();
        }
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Lia {
        /// Moves the first `E` slot that has a `U` slot after it in its
        /// block one slot right: the ids still ascend, but one no longer
        /// sits where the model predicts it. For the engine's corruption
        /// test.
        pub(crate) fn misplace_edge(&mut self) {
            let i = (0..self.slots.len() - 1)
                .find(|&i| {
                    (i + 1) % BKS != 0
                        && self.types.get(i) == SlotType::Edge
                        && self.types.get(i + 1) == SlotType::Unused
                })
                .expect("no E slot before a gap");
            self.slots[i + 1] = self.slots[i];
            self.types.set(i, SlotType::Unused);
            self.types.set(i + 1, SlotType::Edge);
        }
    }

    /// Sink for the structural events these tests do not look at.
    static STATS: StructStats = StructStats::new();

    fn cfg() -> Config {
        Config::default()
    }

    #[test]
    fn build_places_uniform_keys_as_exact_slots() {
        // Uniform keys predict almost perfectly: expect mostly E slots, no
        // children.
        let ns: Vec<u32> = (0..1_000).map(|i| i * 100).collect();
        let lia = Lia::build(&ns, &cfg(), 0);
        lia.check_invariants(&cfg());
        assert_eq!(lia.len(), 1_000);
        assert!(
            lia.children.is_empty(),
            "uniform keys should not need children"
        );
        assert_eq!(lia.to_vec(), ns);
    }

    #[test]
    fn build_clustered_keys_creates_children() {
        // A heavy cluster inside a wide range funnels one region's
        // predictions into few blocks, forcing B packs and C children.
        let mut ns: Vec<u32> = (0..64u32).map(|i| i * 1_000_000).collect();
        ns.extend(5_000_000..5_002_000u32);
        ns.sort_unstable();
        ns.dedup();
        let lia = Lia::build(&ns, &cfg(), 0);
        lia.check_invariants(&cfg());
        assert!(
            !lia.children.is_empty(),
            "cluster should delegate to children"
        );
        assert_eq!(lia.to_vec(), ns);
    }

    #[test]
    fn insert_progression_u_e_b_c() {
        // Start with a sparse set; hammer one region to walk a block through
        // U -> E -> B (packed) -> C (child).
        let ns: Vec<u32> = (0..200).map(|i| i * 1_000).collect();
        let mut lia = Lia::build(&ns, &cfg(), 0);
        for k in 100_001..100_100u32 {
            assert_eq!(lia.insert_run(&[k], &cfg(), 0, &STATS), 1, "insert {k}");
        }
        lia.check_invariants(&cfg());
        assert!(lia.contains(100_050, &cfg()));
        assert!(!lia.contains(99_999, &cfg()));
    }

    #[test]
    fn duplicate_inserts_rejected_in_every_slot_kind() {
        let ns: Vec<u32> = (0..500).map(|i| i * 7).collect();
        let mut lia = Lia::build(&ns, &cfg(), 0);
        for &k in &ns {
            assert_eq!(lia.insert_run(&[k], &cfg(), 0, &STATS), 0, "duplicate {k}");
        }
        assert_eq!(lia.len(), 500);
    }

    #[test]
    fn delete_from_every_slot_kind() {
        let mut ns: Vec<u32> = (0..64u32).map(|i| i * 1_000_000).collect();
        ns.extend(5_000_000..5_001_000u32);
        ns.sort_unstable();
        ns.dedup();
        let mut lia = Lia::build(&ns, &cfg(), 0);
        for &k in &ns {
            assert_eq!(lia.delete_run(&[k], &cfg(), 0, &STATS), 1, "delete {k}");
            assert_eq!(lia.delete_run(&[k], &cfg(), 0, &STATS), 0, "again {k}");
        }
        assert!(lia.is_empty());
        lia.check_invariants(&cfg());
    }

    #[test]
    fn min_key_and_block_first() {
        let ns: Vec<u32> = (10..300).map(|i| i * 3).collect();
        let lia = Lia::build(&ns, &cfg(), 0);
        assert_eq!(lia.to_vec().first(), Some(&30));
        let empty_blocks = (0..lia.num_blocks())
            .filter(|&b| lia.block_first(b).is_none())
            .count();
        assert!(empty_blocks < lia.num_blocks(), "some block must hold data");
    }

    #[test]
    fn binary_find_block_agrees_with_model_for_present_keys() {
        let ns: Vec<u32> = (0..2_000).map(|i| i * 5 + 1).collect();
        let lia = Lia::build(&ns, &cfg(), 0);
        let bcfg = Config {
            lia_search: LiaSearch::Binary,
            ..Config::default()
        };
        for &k in ns.iter().step_by(37) {
            assert!(lia.contains(k, &bcfg), "binary lookup {k}");
            assert!(lia.contains(k, &cfg()), "learned lookup {k}");
        }
        for k in [0u32, 2, 4, 10_001] {
            assert_eq!(
                lia.contains(k, &bcfg),
                lia.contains(k, &cfg()),
                "absent {k}"
            );
        }
    }

    #[test]
    fn footprint_counts_model_and_types_as_index() {
        let ns: Vec<u32> = (0..4_096).collect();
        let lia = Lia::build(&ns, &cfg(), 0);
        let fp = lia.footprint();
        assert!(fp.index_bytes > 0);
        assert!(fp.payload_bytes >= 4_096 * 4);
        // Types are 2 bits/slot, routing 4 bytes/block, model constant:
        // index share must stay well below payload.
        assert!(fp.index_bytes < fp.payload_bytes);
    }
}
