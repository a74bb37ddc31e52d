//! Neighbour walks on the live engine: the slice walk must hand over
//! non-empty, ascending slices whose concatenation equals the callback
//! traversal on every tier, under the PMA ablation and after random
//! mutation.

use lsgraph::{Config, DynamicGraph, Edge, Graph, LsGraph, MediumStore, Tier};

/// `v`'s neighbours by the slice walk, each slice checked non-empty.
fn walk_slices(g: &dyn Graph, v: u32) -> Vec<u32> {
    let mut ids = Vec::new();
    assert!(g.for_each_neighbor_slice_while(v, &mut |s| {
        assert!(!s.is_empty(), "vertex {v}: empty slice");
        ids.extend_from_slice(s);
        true
    }));
    ids
}

/// `v`'s neighbours by the per-id callback traversal.
fn walk_ids(g: &dyn Graph, v: u32) -> Vec<u32> {
    let mut ids = Vec::new();
    g.for_each_neighbor(v, &mut |u| ids.push(u));
    ids
}

#[test]
fn neighbor_iter_matches_for_each_on_every_tier() {
    let cfg = Config {
        m: 256,
        ..Config::default()
    };
    let mut g = LsGraph::with_config(5, cfg);
    // Vertex 0: inline; 1: array; 2: RIA; 3: HITree; 4: empty.
    for (v, d) in [(0u32, 5u32), (1, 40), (2, 200), (3, 2_000)] {
        let batch: Vec<Edge> = (0..d).map(|i| Edge::new(v, i * 2 + 1)).collect();
        g.insert_batch(&batch);
    }
    let tiers: Vec<Tier> = (0..4u32).map(|v| g.tier(v)).collect();
    assert_eq!(tiers, [Tier::Inline, Tier::Array, Tier::Ria, Tier::HiTree]);
    for v in 0..5u32 {
        let via_slices = walk_slices(&g, v);
        assert_eq!(via_slices, walk_ids(&g, v), "vertex {v}");
        assert_eq!(via_slices, g.neighbors(v), "vertex {v}");
    }
}

#[test]
fn neighbor_iter_under_pma_ablation() {
    let cfg = Config {
        m: 512,
        medium: MediumStore::Pma,
        ..Config::default()
    };
    let mut g = LsGraph::with_config(2, cfg);
    let batch: Vec<Edge> = (0..300u32).map(|i| Edge::new(0, i * 3)).collect();
    g.insert_batch(&batch);
    assert_eq!(g.tier(0), Tier::Pma);
    let via_slices = walk_slices(&g, 0);
    assert_eq!(via_slices, walk_ids(&g, 0));
    assert_eq!(via_slices, g.neighbors(0));
}

#[test]
fn iterator_is_sorted_on_random_mutations() {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(3);
    let cfg = Config {
        a: 8,
        m: 64,
        ..Config::default()
    };
    let mut g = LsGraph::with_config(4, cfg);
    for _ in 0..60 {
        let batch: Vec<Edge> = (0..200)
            .map(|_| Edge::new(rng.gen_range(0..4), rng.gen_range(0..3_000)))
            .collect();
        if rng.gen_bool(0.7) {
            g.insert_batch(&batch);
        } else {
            g.delete_batch(&batch);
        }
        for v in 0..4u32 {
            let ids = walk_slices(&g, v);
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "vertex {v} unsorted");
            assert_eq!(ids.len(), g.degree(v));
        }
    }
}
