//! HITree — the *Hybrid Indexed Tree* (paper §3.2, Fig. 8).
//!
//! A high-degree vertex's spill is a HITree: a [`Lia`](lia::Lia) (learned placement,
//! horizontal-then-vertical conflict resolution) whose overflowing blocks
//! point at further [`Spill`](crate::adjacency::Spill)s — RIAs, arrays, or
//! LIAs again. The hybrid combines the PMA-like cache locality of gapped
//! arrays with the bounded data movement of trees. The tree has no type of
//! its own: it is the `Lia` arm of the one container, and this module holds
//! the LIA node.

pub(crate) mod lia;
pub mod typevec;

/// LIA slot occupancy by slot type, aggregated over a subtree (the paper's
/// §3.2 U/E/B/C entries).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotOccupancy {
    /// Unused (free) slots.
    pub unused: usize,
    /// Exact-placed edge slots.
    pub edge: usize,
    /// Slots inside packed sorted prefixes.
    pub block: usize,
    /// Slots of blocks delegated to children.
    pub child: usize,
}

impl SlotOccupancy {
    /// Total slots counted.
    pub fn total(&self) -> usize {
        self.unused + self.edge + self.block + self.child
    }
}

#[cfg(test)]
mod tests {
    use crate::adjacency::Spill;
    use lsgraph_api::{MemoryFootprint, StructStats};

    /// Sink for the structural events these tests do not look at.
    static STATS: StructStats = StructStats::new();
    use crate::config::{Config, LiaSearch};
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn small_cfg() -> Config {
        // Small M so tests exercise LIA nodes without huge inputs.
        Config {
            m: 128,
            ..Config::default()
        }
    }

    #[test]
    fn bulkload_roundtrip_across_kinds() {
        let cfg = small_cfg();
        for n in [0usize, 1, 30, 33, 100, 129, 1000, 5000] {
            let v: Vec<u32> = (0..n as u32).map(|i| i * 7 + 3).collect();
            let t = Spill::from_sorted(&v, &cfg);
            t.check_invariants(&cfg);
            assert_eq!(t.to_vec(), v, "n = {n}");
            assert_eq!(t.len(), n);
        }
    }

    #[test]
    fn bulkload_uses_lia_above_m() {
        let cfg = small_cfg();
        let v: Vec<u32> = (0..1000u32).collect();
        let t = Spill::from_sorted(&v, &cfg);
        assert!(matches!(t, Spill::Lia(_)));
    }

    #[test]
    fn insert_into_lia_all_paths() {
        let cfg = small_cfg();
        // Bulk-load a skewed set, then hammer one region to force the
        // U → E → B → C progression.
        let v: Vec<u32> = (0..500u32).map(|i| i * 20).collect();
        let mut t = Spill::from_sorted(&v, &cfg);
        let mut oracle: std::collections::BTreeSet<u32> = v.iter().copied().collect();
        for k in 3000..3600u32 {
            assert_eq!(t.insert(k, &cfg, &STATS), oracle.insert(k), "key {k}");
        }
        t.check_invariants(&cfg);
        assert_eq!(t.to_vec(), oracle.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn random_differential_vs_btreeset() {
        let cfg = small_cfg();
        let mut rng = SmallRng::seed_from_u64(42);
        let mut t = Spill::from_sorted(&[], &cfg);
        let mut oracle = std::collections::BTreeSet::new();
        for step in 0..30_000 {
            let k = rng.gen_range(0..5_000u32);
            if rng.gen_bool(0.65) {
                assert_eq!(
                    t.insert(k, &cfg, &STATS),
                    oracle.insert(k),
                    "insert {k} at {step}"
                );
            } else {
                assert_eq!(
                    t.delete(k, &cfg, &STATS),
                    oracle.remove(&k),
                    "delete {k} at {step}"
                );
            }
            assert_eq!(t.len(), oracle.len());
        }
        t.check_invariants(&cfg);
        assert_eq!(t.to_vec(), oracle.iter().copied().collect::<Vec<_>>());
        for k in (0..5_000).step_by(7) {
            assert_eq!(t.contains(k, &cfg), oracle.contains(&k), "contains {k}");
        }
    }

    #[test]
    fn binary_search_mode_behaves_identically() {
        let mut cfg = small_cfg();
        cfg.lia_search = LiaSearch::Binary;
        let mut rng = SmallRng::seed_from_u64(9);
        let mut t = Spill::from_sorted(&[], &cfg);
        let mut oracle = std::collections::BTreeSet::new();
        for _ in 0..15_000 {
            let k = rng.gen_range(0..3_000u32);
            if rng.gen_bool(0.7) {
                assert_eq!(t.insert(k, &cfg, &STATS), oracle.insert(k));
            } else {
                assert_eq!(t.delete(k, &cfg, &STATS), oracle.remove(&k));
            }
        }
        t.check_invariants(&cfg);
        assert_eq!(t.to_vec(), oracle.iter().copied().collect::<Vec<_>>());
        for k in 0..3_000 {
            assert_eq!(t.contains(k, &cfg), oracle.contains(&k), "contains {k}");
        }
    }

    #[test]
    fn clustered_inserts_create_children_vertical_movement() {
        let cfg = small_cfg();
        // Spread bulk-load, then insert a dense cluster into one model region
        // so a block must overflow into a child (vertical movement).
        let v: Vec<u32> = (0..300u32).map(|i| i * 1000).collect();
        let mut t = Spill::from_sorted(&v, &cfg);
        for k in 150_000..150_200u32 {
            t.insert(k, &cfg, &STATS);
        }
        t.check_invariants(&cfg);
        // 300 bulk-loaded + 200 inserted, minus the duplicate 150_000.
        assert_eq!(t.len(), 499);
        let all = t.to_vec();
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        for k in 150_000..150_200 {
            assert!(t.contains(k, &cfg), "clustered key {k}");
        }
    }

    #[test]
    fn growth_from_empty_crosses_every_tier() {
        let cfg = small_cfg();
        let mut t = Spill::from_sorted(&[], &cfg);
        for k in 0..2_000u32 {
            assert!(t.insert(k, &cfg, &STATS));
        }
        t.check_invariants(&cfg);
        assert_eq!(t.len(), 2_000);
        assert!(matches!(t, Spill::Lia(_)), "should have upgraded to LIA");
    }

    #[test]
    fn delete_down_to_empty() {
        let cfg = small_cfg();
        let v: Vec<u32> = (0..400).collect();
        let mut t = Spill::from_sorted(&v, &cfg);
        for k in 0..400 {
            assert!(t.delete(k, &cfg, &STATS), "delete {k}");
        }
        assert!(t.is_empty());
        t.check_invariants(&cfg);
        assert!(!t.delete(0, &cfg, &STATS));
        assert!(t.insert(7, &cfg, &STATS));
        assert_eq!(t.to_vec(), vec![7]);
    }

    #[test]
    fn slice_walk_early_exit() {
        let cfg = small_cfg();
        let v: Vec<u32> = (0..1000).collect();
        let t = Spill::from_sorted(&v, &cfg);
        let mut n = 0;
        assert!(!t.for_each_slice_while(&mut |_| {
            n += 1;
            n < 10
        }));
        assert_eq!(n, 10);
    }

    #[test]
    fn footprint_grows_with_content() {
        let cfg = small_cfg();
        let small = Spill::from_sorted(&(0..100).collect::<Vec<_>>(), &cfg);
        let large = Spill::from_sorted(&(0..10_000).collect::<Vec<_>>(), &cfg);
        assert!(large.footprint().total() > small.footprint().total());
        // Index overhead stays a small fraction (paper Table 3: 2.9%–5.4%).
        assert!(large.footprint().index_ratio() < 0.25);
    }

    #[test]
    fn adversarial_same_block_hammering() {
        // Insert keys that all predict into the same few blocks to stress
        // B-packing and child creation, then verify and delete everything.
        let cfg = small_cfg();
        let mut base: Vec<u32> = (0..200u32).map(|i| i * 500).collect();
        let mut t = Spill::from_sorted(&base, &cfg);
        for k in 50_000..50_400u32 {
            t.insert(k, &cfg, &STATS);
            base.push(k);
        }
        t.check_invariants(&cfg);
        base.sort_unstable();
        base.dedup();
        assert_eq!(t.to_vec(), base);
        for &k in &base {
            assert!(t.delete(k, &cfg, &STATS));
        }
        assert!(t.is_empty());
    }

    #[test]
    fn walk_after_heavy_mutation() {
        let cfg = small_cfg();
        let mut rng = SmallRng::seed_from_u64(55);
        let mut t = Spill::from_sorted(&[], &cfg);
        let mut oracle = std::collections::BTreeSet::new();
        for _ in 0..20_000 {
            let k = rng.gen_range(0..4_000u32);
            if rng.gen_bool(0.65) {
                t.insert(k, &cfg, &STATS);
                oracle.insert(k);
            } else {
                t.delete(k, &cfg, &STATS);
                oracle.remove(&k);
            }
        }
        assert_eq!(t.to_vec(), oracle.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn clustered_tree_with_children_walks_in_order() {
        let cfg = small_cfg();
        let mut base: Vec<u32> = (0..300u32).map(|i| i * 1_000).collect();
        let mut t = Spill::from_sorted(&base, &cfg);
        for k in 150_001..150_400u32 {
            t.insert(k, &cfg, &STATS);
            base.push(k);
        }
        base.sort_unstable();
        assert_eq!(t.to_vec(), base);
    }
}
