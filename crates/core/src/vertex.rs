//! Cache-line vertex blocks (paper §4.1 ①, following Terrace).
//!
//! Each vertex owns exactly one 64-byte block: its degree, its
//! [`INLINE_CAP`] smallest neighbors inline, and a pointer to the spill
//! container holding the rest. Low-degree vertices — the overwhelming
//! majority under power-law distributions — are therefore served by a single
//! cache-line read.

use std::sync::Arc;

use lsgraph_api::{Footprint, MemoryFootprint, StructStats};

use crate::adjacency::Spill;
use crate::config::{Config, INLINE_CAP};

/// One vertex's cache-line block.
///
/// Invariant: `inline[..degree.min(INLINE_CAP)]` holds the vertex's smallest
/// neighbors in ascending order, and every spilled neighbor is greater than
/// the last inline one.
///
/// The spill is held through an [`Arc`] (same 64-byte layout — the pointer
/// is niche-optimized) so that cloning a block — a directory page at a time,
/// for snapshot copy-on-write — is a shallow reference bump; the spill
/// payload itself is only copied ([`Arc::make_mut`]) when a write lands on a
/// spill still shared with an outstanding snapshot.
#[repr(C, align(64))]
#[derive(Clone, Debug, Default)]
pub struct VertexBlock {
    degree: u32,
    inline: [u32; INLINE_CAP],
    spill: Option<Arc<Spill>>,
}

impl VertexBlock {
    /// Creates an isolated vertex.
    pub fn new() -> Self {
        VertexBlock::default()
    }

    /// Builds a block from a sorted duplicate-free neighbor slice.
    pub fn from_sorted_neighbors(ns: &[u32], cfg: &Config) -> Self {
        debug_assert!(ns.windows(2).all(|w| w[0] < w[1]));
        let mut vb = VertexBlock::new();
        let inline_n = ns.len().min(INLINE_CAP);
        vb.inline[..inline_n].copy_from_slice(&ns[..inline_n]);
        vb.degree = ns.len() as u32;
        if ns.len() > INLINE_CAP {
            vb.spill = Some(Arc::new(Spill::from_sorted(&ns[INLINE_CAP..], cfg)));
        }
        vb
    }

    /// Vertex degree.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree as usize
    }

    #[inline]
    fn inline_len(&self) -> usize {
        (self.degree as usize).min(INLINE_CAP)
    }

    /// The inline (smallest) neighbors.
    #[inline]
    pub fn inline_neighbors(&self) -> &[u32] {
        &self.inline[..self.inline_len()]
    }

    /// The spill container, if any (introspection for tier statistics).
    #[inline]
    pub(crate) fn spill(&self) -> Option<&Spill> {
        self.spill.as_deref()
    }

    /// Returns whether `u` is a neighbor.
    pub fn contains(&self, u: u32, cfg: &Config) -> bool {
        let inl = self.inline_neighbors();
        if let Some(&last) = inl.last() {
            if u <= last {
                return inl.binary_search(&u).is_ok();
            }
        }
        self.spill.as_ref().is_some_and(|s| s.contains(u, cfg))
    }

    /// Inserts neighbor `u`; returns whether it was added. Structural
    /// movement is recorded into `stats`.
    pub fn insert(&mut self, u: u32, cfg: &Config, stats: &StructStats) -> bool {
        let n = self.inline_len();
        if n < INLINE_CAP {
            // Everything fits inline.
            debug_assert!(self.spill.is_none());
            match self.inline[..n].binary_search(&u) {
                Ok(_) => false,
                Err(i) => {
                    self.inline.copy_within(i..n, i + 1);
                    self.inline[i] = u;
                    self.degree += 1;
                    stats.record_vb_inline_insert((n - i) as u64);
                    true
                }
            }
        } else {
            match self.inline.binary_search(&u) {
                Ok(_) => false,
                Err(i) if i < INLINE_CAP => {
                    // `u` belongs inline: evict the current inline maximum.
                    let evicted = self.inline[INLINE_CAP - 1];
                    self.inline.copy_within(i..INLINE_CAP - 1, i + 1);
                    self.inline[i] = u;
                    stats.record_vb_inline_insert((INLINE_CAP - 1 - i) as u64);
                    stats.vb_spill_evictions.record(1);
                    let spill = self
                        .spill
                        .get_or_insert_with(|| Arc::new(Spill::Array(Vec::new())));
                    let added = Arc::make_mut(spill).insert(evicted, cfg, stats);
                    debug_assert!(added, "evicted inline neighbor was already spilled");
                    self.degree += 1;
                    true
                }
                Err(_) => {
                    let spill = self
                        .spill
                        .get_or_insert_with(|| Arc::new(Spill::Array(Vec::new())));
                    if Arc::make_mut(spill).insert(u, cfg, stats) {
                        stats.vb_spill_inserts.record(1);
                        self.degree += 1;
                        true
                    } else {
                        false
                    }
                }
            }
        }
    }

    /// Deletes neighbor `u`; returns whether it was present. Structural
    /// movement is recorded into `stats`.
    pub fn delete(&mut self, u: u32, cfg: &Config, stats: &StructStats) -> bool {
        let n = self.inline_len();
        match self.inline[..n].binary_search(&u) {
            Ok(i) => {
                self.inline.copy_within(i + 1..n, i);
                stats.vb_inline_shifts.record((n - i - 1) as u64);
                // Refill the inline line from the spill so it keeps holding
                // the smallest neighbors.
                let mut emptied = false;
                if let Some(spill) = self.spill.as_mut() {
                    let spill = Arc::make_mut(spill);
                    if let Some(min) = spill.pop_min(cfg, stats) {
                        self.inline[n - 1] = min;
                        stats.vb_spill_refills.record(1);
                    }
                    emptied = spill.is_empty();
                }
                if emptied {
                    self.spill = None;
                }
                self.degree -= 1;
                true
            }
            Err(_) => {
                let Some(spill) = self.spill.as_mut() else {
                    return false;
                };
                let spill = Arc::make_mut(spill);
                if spill.delete(u, cfg, stats) {
                    if spill.is_empty() {
                        self.spill = None;
                    }
                    self.degree -= 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Hands the neighbors to `f` in ascending order — the inline line as
    /// one slice, then the spill's ([`Spill::for_each_slice_while`]) —
    /// until `f` returns `false`; returns whether the walk completed.
    #[inline]
    pub fn for_each_slice_while(&self, f: &mut dyn FnMut(&[u32]) -> bool) -> bool {
        let inline = self.inline_neighbors();
        (inline.is_empty() || f(inline))
            && self
                .spill
                .as_ref()
                .is_none_or(|s| s.for_each_slice_while(f))
    }

    /// Collects all neighbors into a sorted vector.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut v = Vec::new();
        self.checkpoint_neighbors(&mut v);
        v
    }

    /// Appends all neighbors to `out` in ascending order, a slice at a time
    /// — the checkpoint serialization visitor.
    pub fn checkpoint_neighbors(&self, out: &mut Vec<u32>) {
        out.reserve(self.degree());
        self.for_each_slice_while(&mut |s| {
            out.extend_from_slice(s);
            true
        });
    }

    /// Bytes spent beyond the block itself, split payload/index.
    pub fn spill_footprint(&self) -> Footprint {
        self.spill
            .as_ref()
            .map_or(Footprint::default(), |s| s.footprint())
    }

    /// [`VertexBlock::validate`] must hold, then the spill container's own
    /// deep structural checks.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn check_invariants(&self, cfg: &Config) {
        if let Err(e) = self.validate() {
            panic!("vertex block invariant violated: {e}");
        }
        self.check_containers(cfg);
    }

    /// The deep per-container half of [`VertexBlock::check_invariants`]
    /// (RIA index redundancy, LIA placement), for a caller
    /// that has already validated the block.
    pub(crate) fn check_containers(&self, cfg: &Config) {
        if let Some(spill) = &self.spill {
            spill.check_invariants(cfg);
        }
    }

    /// Checks the inline/spill split and the full sorted order of the
    /// adjacency (which any container-level corruption surfaces through
    /// `to_vec`), reporting the first violation as a value so a corrupt
    /// block never unwinds a validator.
    pub fn validate(&self) -> Result<(), String> {
        let inl = self.inline_neighbors();
        if !inl.windows(2).all(|w| w[0] < w[1]) {
            return Err("inline neighbors unsorted".into());
        }
        let spill_len = self.spill.as_ref().map_or(0, |s| s.len());
        if self.degree as usize != inl.len() + spill_len {
            return Err(format!(
                "degree {} != inline {} + spill {}",
                self.degree,
                inl.len(),
                spill_len
            ));
        }
        if let Some(spill) = &self.spill {
            if spill.is_empty() {
                return Err("empty spill retained".into());
            }
            if inl.len() != INLINE_CAP {
                return Err(format!(
                    "spill present but inline line holds {} of {INLINE_CAP}",
                    inl.len()
                ));
            }
        }
        let all = self.to_vec();
        if all.len() != self.degree as usize {
            return Err(format!(
                "iteration yields {} neighbors but degree is {}",
                all.len(),
                self.degree
            ));
        }
        if !all.windows(2).all(|w| w[0] < w[1]) {
            return Err("adjacency not strictly ascending".into());
        }
        Ok(())
    }
}

impl MemoryFootprint for VertexBlock {
    fn footprint(&self) -> Footprint {
        Footprint::new(core::mem::size_of::<VertexBlock>(), 0) + self.spill_footprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl VertexBlock {
        /// How many blocks — this one and its copy-on-write copies — own
        /// the spill. For the directory's sharing tests.
        pub(crate) fn spill_owners(&self) -> usize {
            self.spill.as_ref().map_or(0, Arc::strong_count)
        }
    }

    /// Sink for the structural events these tests do not look at.
    static STATS: StructStats = StructStats::new();

    #[test]
    fn block_is_one_cache_line() {
        assert_eq!(core::mem::size_of::<VertexBlock>(), 64);
        assert_eq!(core::mem::align_of::<VertexBlock>(), 64);
    }

    /// The container behind the pointer is no wider than its widest paper
    /// arm: the ablation's PMA is boxed, not carried by every spill. A RIA
    /// is one buffer plus two words, so the `Arc` inner (two counts and the
    /// spill) fits one 64-byte line.
    #[test]
    fn spill_is_no_larger_than_a_ria() {
        use core::mem::size_of;
        assert!(size_of::<Spill>() <= size_of::<crate::ria::Ria>());
        assert!(size_of::<Spill>() <= 48);
    }

    #[test]
    fn inline_only_lifecycle() {
        let cfg = Config::default();
        let mut vb = VertexBlock::new();
        for u in [9u32, 1, 5] {
            assert!(vb.insert(u, &cfg, &STATS));
        }
        assert!(!vb.insert(5, &cfg, &STATS));
        assert_eq!(vb.degree(), 3);
        assert_eq!(vb.to_vec(), vec![1, 5, 9]);
        assert!(vb.contains(5, &cfg) && !vb.contains(2, &cfg));
        assert!(vb.delete(5, &cfg, &STATS));
        assert!(!vb.delete(5, &cfg, &STATS));
        assert_eq!(vb.to_vec(), vec![1, 9]);
        vb.check_invariants(&cfg);
    }

    #[test]
    fn spill_on_overflow_keeps_smallest_inline() {
        let cfg = Config::default();
        let mut vb = VertexBlock::new();
        for u in (0..40u32).rev() {
            assert!(vb.insert(u, &cfg, &STATS));
        }
        vb.check_invariants(&cfg);
        assert_eq!(vb.degree(), 40);
        assert_eq!(
            vb.inline_neighbors(),
            &(0..INLINE_CAP as u32).collect::<Vec<_>>()[..]
        );
        assert_eq!(vb.to_vec(), (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn insert_small_key_evicts_inline_max() {
        let cfg = Config::default();
        // Fill inline with large keys, then insert a smaller one.
        let mut vb = VertexBlock::from_sorted_neighbors(
            &(100..100 + INLINE_CAP as u32).collect::<Vec<_>>(),
            &cfg,
        );
        assert!(vb.insert(1, &cfg, &STATS));
        vb.check_invariants(&cfg);
        assert_eq!(vb.inline_neighbors()[0], 1);
        assert_eq!(vb.degree(), INLINE_CAP + 1);
        assert!(
            vb.contains(100 + INLINE_CAP as u32 - 1, &cfg),
            "evicted key lost"
        );
    }

    #[test]
    fn delete_inline_pulls_from_spill() {
        let cfg = Config::default();
        let mut vb = VertexBlock::from_sorted_neighbors(&(0..30).collect::<Vec<_>>(), &cfg);
        assert!(vb.delete(0, &cfg, &STATS));
        vb.check_invariants(&cfg);
        assert_eq!(vb.to_vec(), (1..30).collect::<Vec<_>>());
        // Inline must still be full (smallest 13 of the remaining 29).
        assert_eq!(vb.inline_neighbors().len(), INLINE_CAP);
    }

    #[test]
    fn delete_down_to_inline_drops_spill() {
        let cfg = Config::default();
        let mut vb = VertexBlock::from_sorted_neighbors(&(0..20).collect::<Vec<_>>(), &cfg);
        for u in 13..20u32 {
            assert!(vb.delete(u, &cfg, &STATS));
        }
        assert!(vb.spill.is_none(), "spill should be dropped when empty");
        assert_eq!(vb.to_vec(), (0..13).collect::<Vec<_>>());
        vb.check_invariants(&cfg);
    }

    #[test]
    fn from_sorted_matches_incremental() {
        let cfg = Config::default();
        let ns: Vec<u32> = (0..500).map(|i| i * 2).collect();
        let bulk = VertexBlock::from_sorted_neighbors(&ns, &cfg);
        let mut inc = VertexBlock::new();
        for &u in ns.iter().rev() {
            inc.insert(u, &cfg, &STATS);
        }
        assert_eq!(bulk.to_vec(), inc.to_vec());
        bulk.check_invariants(&cfg);
        inc.check_invariants(&cfg);
    }

    #[test]
    fn high_degree_reaches_tree_tier() {
        let cfg = Config {
            m: 256,
            ..Config::default()
        };
        let vb = VertexBlock::from_sorted_neighbors(&(0..5_000).collect::<Vec<_>>(), &cfg);
        assert!(matches!(vb.spill.as_deref(), Some(Spill::Lia(_))));
        assert_eq!(vb.degree(), 5_000);
        vb.check_invariants(&cfg);
    }

    #[test]
    fn random_differential() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let cfg = Config {
            m: 128,
            ..Config::default()
        };
        let mut rng = SmallRng::seed_from_u64(11);
        let mut vb = VertexBlock::new();
        let mut oracle = std::collections::BTreeSet::new();
        for _ in 0..20_000 {
            let u = rng.gen_range(0..1_500u32);
            if rng.gen_bool(0.6) {
                assert_eq!(vb.insert(u, &cfg, &STATS), oracle.insert(u));
            } else {
                assert_eq!(vb.delete(u, &cfg, &STATS), oracle.remove(&u));
            }
        }
        vb.check_invariants(&cfg);
        assert_eq!(vb.to_vec(), oracle.into_iter().collect::<Vec<_>>());
    }
}
