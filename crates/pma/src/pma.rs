//! Generic density-bounded Packed Memory Array.

use lsgraph_api::{Footprint, MemoryFootprint, OpCounters};

/// Keys storable in a [`Pma`]: every value of the type, its maximum
/// included. A segment's keys are the prefix its count names; the slots past
/// it are never read.
pub trait PmaKey: Copy + Ord + core::fmt::Debug + Send + Sync {
    /// Smallest key, and what fresh slots hold.
    const MIN: Self;
}

impl PmaKey for u64 {
    const MIN: Self = 0;
}

impl PmaKey for u32 {
    const MIN: Self = 0;
}

/// Density bounds, interpolated linearly from root to leaf over the implicit
/// rebalance tree (Bender & Hu's scheme).
///
/// The defaults mirror Terrace's configuration as reported in the paper's
/// Table 3 analysis: root occupancy is kept in `[0.125, 0.25]`, i.e. a 4–8×
/// space amplification.
#[derive(Clone, Copy, Debug)]
pub struct PmaParams {
    /// Minimum density at the root window.
    pub root_lower: f64,
    /// Maximum density at the root window.
    pub root_upper: f64,
    /// Minimum density at a leaf segment.
    pub leaf_lower: f64,
    /// Maximum density at a leaf segment.
    pub leaf_upper: f64,
}

impl Default for PmaParams {
    fn default() -> Self {
        PmaParams {
            root_lower: 0.125,
            root_upper: 0.25,
            leaf_lower: 0.05,
            leaf_upper: 0.75,
        }
    }
}

impl PmaParams {
    /// A denser configuration (root occupancy up to 50%) for memory-conscious
    /// uses such as the per-vertex PMA ablation.
    pub fn dense() -> Self {
        PmaParams {
            root_lower: 0.2,
            root_upper: 0.5,
            leaf_lower: 0.1,
            leaf_upper: 0.9,
        }
    }

    fn validate(&self) {
        assert!(self.root_lower > 0.0 && self.root_lower < self.root_upper);
        assert!(self.root_upper < self.leaf_upper && self.leaf_upper <= 1.0);
        assert!(self.leaf_lower < self.root_lower);
    }
}

/// An ordered gapped array with density-bounded segments and an implicit
/// binary rebalance tree (paper §2.2, Fig. 2).
///
/// Elements within a segment are stored as a packed sorted prefix; segments
/// collectively range-partition the key space. A violated density bound
/// triggers redistribution over the smallest enclosing window that satisfies
/// its (depth-interpolated) bound, doubling or halving the whole array when
/// even the root window fails — the "massive data movement" behaviour the
/// paper measures.
#[derive(Debug)]
pub struct Pma<K: PmaKey> {
    data: Vec<K>,
    counts: Vec<u32>,
    seg_size: usize,
    len: usize,
    params: PmaParams,
    /// Movement/search statistics for the Fig. 4 reproduction.
    pub counters: OpCounters,
}

impl<K: PmaKey> Pma<K> {
    /// Creates an empty PMA with default (Terrace-like) density bounds.
    pub fn new() -> Self {
        Pma::with_params(PmaParams::default())
    }

    /// Creates an empty PMA with explicit density bounds.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not ordered
    /// `leaf_lower < root_lower < root_upper < leaf_upper <= 1`.
    pub fn with_params(params: PmaParams) -> Self {
        params.validate();
        let seg_size = 8;
        Pma {
            data: vec![K::MIN; seg_size * 2],
            counts: vec![0; 2],
            seg_size,
            len: 0,
            params,
            counters: OpCounters::new(),
        }
    }

    /// Bulk-loads from a sorted duplicate-free slice.
    pub fn from_sorted(sorted: &[K], params: PmaParams) -> Self {
        let mut pma = Pma::with_params(params);
        if !sorted.is_empty() {
            pma.resize_for(sorted.len());
            pma.redistribute_all(sorted);
            pma.len = sorted.len();
        }
        pma
    }

    /// Number of stored keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slot capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    #[inline]
    fn num_segs(&self) -> usize {
        self.counts.len()
    }

    #[inline]
    fn seg(&self, s: usize) -> &[K] {
        &self.data[s * self.seg_size..s * self.seg_size + self.counts[s] as usize]
    }

    /// The element at or left of gapped position `pos` within `[lo, pos]`,
    /// as `(position, value)`; `None` when that whole range is gaps.
    #[inline]
    fn probe_left(&self, pos: isize, lo: isize) -> Option<(isize, K)> {
        let mut s = pos as usize / self.seg_size;
        let off = pos as usize % self.seg_size;
        let cnt = self.counts[s] as usize;
        if cnt > 0 {
            let o = off.min(cnt - 1);
            let p = (s * self.seg_size + o) as isize;
            if p >= lo {
                return Some((p, self.data[p as usize]));
            }
            // p < lo means lo lies inside this segment past its prefix, so
            // the whole probed range is gaps.
            return None;
        }
        // Walk left across segments until one has an element in range.
        while s > 0 {
            s -= 1;
            let cnt = self.counts[s] as usize;
            if cnt > 0 {
                let p = (s * self.seg_size + cnt - 1) as isize;
                return (p >= lo).then(|| (p, self.data[p as usize]));
            }
            if ((s + 1) * self.seg_size) as isize <= lo {
                break;
            }
        }
        None
    }

    /// Locates the segment whose range covers `key` with the classic PMA
    /// lookup: a binary search over the *gapped position space*, each probe
    /// resolving gaps by walking left — the serially-dependent,
    /// cache-unfriendly pattern the paper's motivation (§2.3, Fig. 2)
    /// analyzes. Returns the segment of the rightmost element `<= key`, else
    /// the first non-empty segment, else 0.
    fn find_seg(&self, key: K) -> usize {
        let mut steps = 0u64;
        let mut ans: Option<isize> = None;
        let mut lo = 0isize;
        let mut hi = self.data.len() as isize - 1;
        while lo <= hi {
            let mid = lo + (hi - lo) / 2;
            steps += 1;
            match self.probe_left(mid, lo) {
                None => lo = mid + 1,
                Some((p, v)) => {
                    if v <= key {
                        ans = Some(p);
                        lo = p + 1;
                    } else {
                        hi = p - 1;
                    }
                }
            }
        }
        self.counters.search_steps.record(steps);
        match ans {
            Some(p) => p as usize / self.seg_size,
            None => (0..self.num_segs())
                .find(|&s| self.counts[s] > 0)
                .unwrap_or(0),
        }
    }

    /// Returns whether `key` is present.
    pub fn contains(&self, key: K) -> bool {
        if self.len == 0 {
            return false;
        }
        let s = self.find_seg(key);
        self.seg(s).binary_search(&key).is_ok()
    }

    /// Inserts `key`; returns `false` if it was already present.
    pub fn insert(&mut self, key: K) -> bool {
        if self.len == 0 {
            self.data[0] = key;
            self.counts[0] = 1;
            self.len = 1;
            return true;
        }
        let s = self.find_seg(key);
        let pos = match self.seg(s).binary_search(&key) {
            Ok(_) => return false,
            Err(i) => i,
        };
        let cnt = self.counts[s] as usize;
        if self.density_ok_after_insert(s) {
            let base = s * self.seg_size;
            self.data
                .copy_within(base + pos..base + cnt, base + pos + 1);
            self.data[base + pos] = key;
            self.counts[s] += 1;
            self.counters.elements_moved.record((cnt - pos) as u64);
            self.len += 1;
            return true;
        }
        // Leaf bound violated: rebalance the smallest satisfying window,
        // growing the array if even the root window is too dense.
        self.rebalance_insert(s, key);
        self.len += 1;
        true
    }

    /// Deletes `key`; returns whether it was present.
    pub fn delete(&mut self, key: K) -> bool {
        if self.len == 0 {
            return false;
        }
        let s = self.find_seg(key);
        let cnt = self.counts[s] as usize;
        let pos = match self.seg(s).binary_search(&key) {
            Ok(i) => i,
            Err(_) => return false,
        };
        let base = s * self.seg_size;
        self.data
            .copy_within(base + pos + 1..base + cnt, base + pos);
        self.counts[s] -= 1;
        self.counters.elements_moved.record((cnt - 1 - pos) as u64);
        self.len -= 1;
        // Rebalance upward if the leaf fell below its lower bound.
        let lower = self.bound_at_depth(self.depth(), false);
        if (self.counts[s] as f64) < lower * self.seg_size as f64 {
            self.rebalance_delete(s);
        }
        true
    }

    /// Hands each non-empty segment's sorted prefix to `f` in order until
    /// `f` returns `false`; returns whether the walk completed.
    pub fn for_each_segment_while(&self, mut f: impl FnMut(&[K]) -> bool) -> bool {
        (0..self.num_segs()).all(|s| self.counts[s] == 0 || f(self.seg(s)))
    }

    /// Applies `f` to keys in `[from, to)` until it returns `false`;
    /// returns whether the scan completed.
    pub fn for_each_range_while(&self, from: K, to: K, mut f: impl FnMut(K) -> bool) -> bool {
        if self.len == 0 || to <= from {
            return true;
        }
        let start = self.find_seg(from);
        for s in start..self.num_segs() {
            for &k in self.seg(s) {
                if k >= to {
                    return true;
                }
                if k >= from && !f(k) {
                    return false;
                }
            }
        }
        true
    }

    /// Counts keys in `[from, to)`.
    pub fn count_range(&self, from: K, to: K) -> usize {
        let mut n = 0;
        self.for_each_range_while(from, to, |_| {
            n += 1;
            true
        });
        n
    }

    /// Number of segments (for consumers maintaining offset hints, as
    /// PCSR-style graphs do).
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.num_segs()
    }

    /// First key of segment `s`, or `None` when the segment is empty.
    #[inline]
    pub fn segment_first(&self, s: usize) -> Option<K> {
        (self.counts[s] > 0).then(|| self.data[s * self.seg_size])
    }

    /// Like [`Pma::for_each_range_while`] but starting the scan at segment
    /// `hint` instead of binary-searching, exactly as a PCSR offset array
    /// does. `hint` must be at or before the segment containing `from`
    /// (e.g. produced from [`Pma::segment_first`] snapshots).
    pub fn for_each_range_hinted_while(
        &self,
        hint: usize,
        from: K,
        to: K,
        mut f: impl FnMut(K) -> bool,
    ) -> bool {
        if self.len == 0 || to <= from {
            return true;
        }
        for s in hint.min(self.num_segs() - 1)..self.num_segs() {
            for &k in self.seg(s) {
                if k >= to {
                    return true;
                }
                if k >= from && !f(k) {
                    return false;
                }
            }
        }
        true
    }

    /// Collects all keys into a sorted vector.
    pub fn to_vec(&self) -> Vec<K> {
        let mut v = Vec::with_capacity(self.len);
        self.for_each_segment_while(|seg| {
            v.extend_from_slice(seg);
            true
        });
        v
    }

    /// Height of the implicit rebalance tree (root depth 0, leaves deepest).
    fn depth(&self) -> u32 {
        self.num_segs().ilog2()
    }

    /// Density bound at `depth`; `upper` selects max vs min.
    fn bound_at_depth(&self, depth: u32, upper: bool) -> f64 {
        let h = self.depth().max(1) as f64;
        let t = depth as f64 / h; // 0 at root, 1 at leaves
        if upper {
            self.params.root_upper + (self.params.leaf_upper - self.params.root_upper) * t
        } else {
            self.params.root_lower + (self.params.leaf_lower - self.params.root_lower) * t
        }
    }

    fn density_ok_after_insert(&self, s: usize) -> bool {
        let upper = self.bound_at_depth(self.depth(), true);
        ((self.counts[s] + 1) as f64) <= upper * self.seg_size as f64
    }

    /// Walks up the implicit tree from leaf `s` to find the smallest window
    /// satisfying its upper bound with one extra element, then redistributes
    /// that window and re-inserts `key`; grows the array if no window works.
    fn rebalance_insert(&mut self, s: usize, key: K) {
        let mut w = 1usize; // window size in segments
        let mut depth = self.depth();
        loop {
            w *= 2;
            depth = depth.saturating_sub(1);
            if w > self.num_segs() {
                break;
            }
            let start = (s / w) * w;
            let total: usize = (start..start + w).map(|i| self.counts[i] as usize).sum();
            let upper = self.bound_at_depth(depth, true);
            if ((total + 1) as f64) <= upper * (w * self.seg_size) as f64 {
                let mut buf = Vec::with_capacity(total + 1);
                for i in start..start + w {
                    buf.extend_from_slice(self.seg(i));
                }
                let at = buf.partition_point(|&x| x < key);
                buf.insert(at, key);
                self.write_window(start, w, &buf);
                self.counters.elements_moved.record(buf.len() as u64);
                return;
            }
        }
        // Root window failed: grow and redistribute everything.
        let mut all = self.to_vec();
        let at = all.partition_point(|&x| x < key);
        all.insert(at, key);
        self.resize_for(all.len());
        self.redistribute_all(&all);
        self.counters.rebuilds.record(1);
    }

    /// Walks up from leaf `s` to find the smallest window satisfying its
    /// lower bound, redistributing it; shrinks the array if the root window
    /// is too sparse.
    fn rebalance_delete(&mut self, s: usize) {
        let mut w = 1usize;
        let mut depth = self.depth();
        loop {
            w *= 2;
            depth = depth.saturating_sub(1);
            if w > self.num_segs() {
                break;
            }
            let start = (s / w) * w;
            let total: usize = (start..start + w).map(|i| self.counts[i] as usize).sum();
            let lower = self.bound_at_depth(depth, false);
            if total as f64 >= lower * (w * self.seg_size) as f64 {
                let mut buf = Vec::with_capacity(total);
                for i in start..start + w {
                    buf.extend_from_slice(self.seg(i));
                }
                self.write_window(start, w, &buf);
                self.counters.elements_moved.record(buf.len() as u64);
                return;
            }
        }
        let all = self.to_vec();
        self.resize_for(all.len().max(1));
        self.redistribute_all(&all);
        self.counters.rebuilds.record(1);
    }

    /// Evenly redistributes `buf` across the `w` segments starting at
    /// `start`.
    fn write_window(&mut self, start: usize, w: usize, buf: &[K]) {
        let base = buf.len() / w;
        let extra = buf.len() % w;
        let mut src = 0;
        for i in 0..w {
            let take = base + usize::from(i < extra);
            debug_assert!(take <= self.seg_size);
            let off = (start + i) * self.seg_size;
            self.data[off..off + take].copy_from_slice(&buf[src..src + take]);
            self.counts[start + i] = take as u32;
            src += take;
        }
        debug_assert_eq!(src, buf.len());
    }

    /// Resizes storage so `n` elements sit near the middle of the root
    /// density range, recomputing segment size as `Θ(log capacity)`.
    fn resize_for(&mut self, n: usize) {
        let target = self.params.root_lower.midpoint(self.params.root_upper);
        let mut cap = ((n as f64 / target).ceil() as usize)
            .max(16)
            .next_power_of_two();
        let mut seg = (cap.ilog2() as usize).next_power_of_two().max(8);
        // Capacity must be a power-of-two multiple of the segment size.
        while !cap.is_multiple_of(seg) || cap / seg < 2 {
            cap *= 2;
            seg = (cap.ilog2() as usize).next_power_of_two().max(8);
        }
        self.seg_size = seg;
        self.data = vec![K::MIN; cap];
        self.counts = vec![0; cap / seg];
    }

    fn redistribute_all(&mut self, sorted: &[K]) {
        let w = self.num_segs();
        self.write_window(0, w, sorted);
        self.counters.elements_moved.record(sorted.len() as u64);
    }

    /// Verifies structural invariants.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn check_invariants(&self) {
        assert!(self.num_segs().is_power_of_two());
        assert_eq!(self.data.len(), self.num_segs() * self.seg_size);
        let total: usize = self.counts.iter().map(|&c| c as usize).sum();
        assert_eq!(total, self.len);
        let mut prev: Option<K> = None;
        for s in 0..self.num_segs() {
            let cnt = self.counts[s] as usize;
            assert!(cnt <= self.seg_size);
            for &k in self.seg(s) {
                if let Some(p) = prev {
                    assert!(p < k, "order violation");
                }
                prev = Some(k);
            }
        }
    }
}

impl<K: PmaKey> Default for Pma<K> {
    fn default() -> Self {
        Pma::new()
    }
}

impl<K: PmaKey> Clone for Pma<K> {
    fn clone(&self) -> Self {
        Pma {
            data: self.data.clone(),
            counts: self.counts.clone(),
            seg_size: self.seg_size,
            len: self.len,
            params: self.params,
            counters: OpCounters::new(),
        }
    }
}

impl<K: PmaKey> MemoryFootprint for Pma<K> {
    fn footprint(&self) -> Footprint {
        Footprint::new(
            self.data.len() * core::mem::size_of::<K>(),
            self.counts.len() * core::mem::size_of::<u32>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn insert_contains_roundtrip() {
        let mut p = Pma::<u64>::new();
        for k in [50u64, 10, 30, 20, 40] {
            assert!(p.insert(k));
        }
        p.check_invariants();
        assert!(!p.insert(30));
        assert_eq!(p.to_vec(), vec![10, 20, 30, 40, 50]);
        assert!(p.contains(10) && p.contains(50));
        assert!(!p.contains(11));
    }

    #[test]
    fn sequential_inserts_trigger_growth() {
        let mut p = Pma::<u64>::new();
        for k in 0..20_000u64 {
            p.insert(k);
        }
        p.check_invariants();
        assert_eq!(p.len(), 20_000);
        assert_eq!(p.to_vec(), (0..20_000).collect::<Vec<_>>());
        // Root density bound keeps occupancy at or below root_upper after
        // any growth; allow slack for inserts since the last resize.
        let occ = p.len() as f64 / p.capacity() as f64;
        assert!(occ <= 0.8, "occupancy {occ}");
        assert!(p.counters.snapshot().rebuilds > 0);
    }

    #[test]
    fn movement_counters_grow() {
        let mut p = Pma::<u64>::new();
        for k in 0..5_000u64 {
            p.insert(k * 2);
        }
        let before = p.counters.snapshot();
        // Middle inserts force shifting/rebalancing.
        for k in 0..2_000u64 {
            p.insert(k * 2 + 1);
        }
        let after = p.counters.snapshot().since(before);
        assert!(after.elements_moved > 500, "moved {}", after.elements_moved);
        assert!(after.search_steps > 0);
    }

    #[test]
    fn delete_and_shrink() {
        let mut p = Pma::<u64>::from_sorted(&(0..10_000).collect::<Vec<_>>(), PmaParams::default());
        let cap_before = p.capacity();
        for k in 0..9_000u64 {
            assert!(p.delete(k), "delete {k}");
        }
        p.check_invariants();
        assert_eq!(p.len(), 1_000);
        assert!(p.capacity() < cap_before, "should shrink");
        assert!(!p.delete(0));
        assert_eq!(p.to_vec(), (9_000..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn range_scan() {
        let p = Pma::<u64>::from_sorted(
            &(0..1000).map(|i| i * 3).collect::<Vec<_>>(),
            PmaParams::default(),
        );
        let mut got = Vec::new();
        assert!(p.for_each_range_while(30, 60, |k| {
            got.push(k);
            true
        }));
        assert_eq!(got, vec![30, 33, 36, 39, 42, 45, 48, 51, 54, 57]);
        assert_eq!(p.count_range(0, 3000), 1000);
        assert_eq!(p.count_range(2997, 10_000), 1);
        assert_eq!(p.count_range(10, 10), 0);
    }

    #[test]
    fn random_differential_u32() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut p = Pma::<u32>::with_params(PmaParams::dense());
        let mut oracle = std::collections::BTreeSet::new();
        for _ in 0..20_000 {
            let k = rng.gen_range(0..4_000u32);
            if rng.gen_bool(0.6) {
                assert_eq!(p.insert(k), oracle.insert(k));
            } else {
                assert_eq!(p.delete(k), oracle.remove(&k));
            }
        }
        p.check_invariants();
        assert_eq!(p.to_vec(), oracle.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn from_sorted_respects_density() {
        let v: Vec<u64> = (0..50_000).collect();
        let p = Pma::from_sorted(&v, PmaParams::default());
        p.check_invariants();
        assert_eq!(p.len(), 50_000);
        let occ = p.len() as f64 / p.capacity() as f64;
        assert!(occ <= 0.25 + 1e-9, "occupancy {occ} above root bound");
        assert!(occ >= 0.0625, "occupancy {occ} absurdly low");
    }

    #[test]
    fn empty_behaviour() {
        let mut p = Pma::<u64>::new();
        assert!(p.is_empty());
        assert!(!p.contains(0));
        assert!(!p.delete(3));
        assert_eq!(p.count_range(0, u64::MAX - 1), 0);
        assert!(p.for_each_segment_while(|_| panic!("no elements expected")));
    }

    #[test]
    fn descending_inserts() {
        let mut p = Pma::<u64>::new();
        for k in (0..10_000u64).rev() {
            p.insert(k);
        }
        p.check_invariants();
        assert_eq!(p.to_vec(), (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn bad_params_rejected() {
        let _ = Pma::<u64>::with_params(PmaParams {
            root_lower: 0.5,
            root_upper: 0.25,
            leaf_lower: 0.05,
            leaf_upper: 0.75,
        });
    }
}
