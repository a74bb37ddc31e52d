//! Structural-movement bound tests (paper §3.1 / §3.2).
//!
//! These tests pin the paper's two locality claims as *counter invariants*:
//! a RIA insertion never moves data across more than `log2(num_blocks) + 1`
//! blocks without falling back to a rebuild (`ria_bound_exceeded == 0`), and
//! the HITree only creates vertical children when a block overflow forces it
//! (`lia_vertical_premature == 0`) — horizontal packing always comes first.

use lsgraph_api::{DynamicGraph, Edge, Graph, StructStats};
use lsgraph_core::{Config, LsGraph, Ria, Tier};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Mixed insert/delete stream over a RIA: every cross-block ripple stays
/// within the locality bound, and once local slack is exhausted the
/// structure rebuilds instead of rippling further.
#[test]
fn ria_mixed_stream_respects_locality_bound() {
    let stats = StructStats::new();
    // Spread 10k elements, then hammer one narrow key range so the local
    // blocks fill up, forcing ripples and eventually bound-driven rebuilds.
    let base: Vec<u32> = (0..10_000u32).map(|i| i * 10).collect();
    let mut r = Ria::from_sorted(&base, 1.2);
    let mut oracle: std::collections::BTreeSet<u32> = base.iter().copied().collect();
    for k in 50_000..52_000u32 {
        assert_eq!(r.insert(k, &stats), oracle.insert(k));
    }
    // Interleave random inserts and deletes across the whole range.
    let mut rng = SmallRng::seed_from_u64(99);
    for _ in 0..30_000 {
        let k = rng.gen_range(0..100_000u32);
        if rng.gen_bool(0.6) {
            assert_eq!(r.insert(k, &stats), oracle.insert(k));
        } else {
            assert_eq!(r.delete(k, &stats), oracle.remove(&k));
        }
    }
    r.check_invariants();
    assert_eq!(r.to_vec(), oracle.into_iter().collect::<Vec<_>>());

    let s = stats.snapshot();
    assert!(s.ria_ripples > 0, "workload never rippled: {s:?}");
    assert!(s.ria_rebuilds > 0, "workload never rebuilt: {s:?}");
    assert!(s.ria_within_block_shifts > 0);
    assert!(s.ria_cross_block_moves > 0);
    assert!(s.ria_bound > 0, "bound gauge never recorded");
    assert_eq!(
        s.ria_bound_exceeded, 0,
        "an insertion moved data past log2(num_blocks)+1 blocks without rebuilding"
    );
}

/// A hub vertex pushed through Array -> RIA -> HITree: vertical children
/// appear only after horizontal packing of overflowing blocks, never
/// preemptively.
#[test]
fn hitree_verticals_only_after_block_overflow() {
    // Small medium-tier ceiling so the hub reaches the HITree quickly.
    let cfg = Config::default().with_m(128);
    let n = 5_000usize;
    let mut g = LsGraph::with_config(n, cfg);
    // Insert the hub's neighbors in seeded shuffled batches (clustered keys
    // exercise packing; spread keys exercise child creation). A batch is one
    // run, and a run climbs the ladder at most once, so the batches are
    // small enough for the hub to stop on every rung.
    let mut dsts: Vec<u32> = (1..n as u32).collect();
    let mut rng = SmallRng::seed_from_u64(7);
    for i in (1..dsts.len()).rev() {
        dsts.swap(i, rng.gen_range(0..i + 1));
    }
    for chunk in dsts.chunks(32) {
        let batch: Vec<Edge> = chunk.iter().map(|&d| Edge::new(0, d)).collect();
        g.insert_batch(&batch);
    }
    g.check_invariants();
    assert_eq!(g.degree(0), n - 1);

    let s = g.struct_snapshot();
    assert!(s.tier_upgrades >= 2, "hub never climbed the tiers: {s:?}");
    assert!(s.lia_horizontal_packs > 0, "no horizontal packing: {s:?}");
    assert!(
        s.lia_vertical_child_creates > 0,
        "no vertical children: {s:?}"
    );
    assert!(s.hitree_node_upgrades > 0, "no HITree node upgrades: {s:?}");
    assert_eq!(
        s.lia_vertical_premature, 0,
        "a vertical child was created without a block overflow"
    );
}

/// `snapshot().since(earlier)` isolates exactly the second phase's counts:
/// replaying only that phase on a clone from the cut point, with a fresh
/// sink, reproduces the diff field-for-field.
#[test]
fn snapshot_since_diff_is_exact() {
    let stats = StructStats::new();
    let mut r = Ria::new(1.2);
    let mut rng = SmallRng::seed_from_u64(5);
    let phase1: Vec<u32> = (0..5_000).map(|_| rng.gen_range(0..50_000)).collect();
    for &k in &phase1 {
        r.insert(k, &stats);
    }
    let cut = stats.snapshot();
    let checkpoint = r.clone();

    let phase2: Vec<(u32, bool)> = (0..5_000)
        .map(|_| (rng.gen_range(0..50_000), rng.gen_bool(0.5)))
        .collect();
    for &(k, ins) in &phase2 {
        if ins {
            r.insert(k, &stats);
        } else {
            r.delete(k, &stats);
        }
    }
    let diff = stats.snapshot().since(cut);

    let replay_stats = StructStats::new();
    let mut replay = checkpoint;
    for &(k, ins) in &phase2 {
        if ins {
            replay.insert(k, &replay_stats);
        } else {
            replay.delete(k, &replay_stats);
        }
    }
    // Gauges (`ria_max_ripple_span`, `ria_bound`) are carried through
    // `since` rather than diffed, so they reflect both phases; every true
    // counter must match the replay exactly.
    let counters_only = |s: &lsgraph_api::StructSnapshot| {
        s.deterministic_fields()
            .into_iter()
            .filter(|(name, _)| !matches!(*name, "ria_max_ripple_span" | "ria_bound"))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        counters_only(&diff),
        counters_only(&replay_stats.snapshot())
    );
    assert!(diff.ria_within_block_shifts > 0, "phase 2 was a no-op");
}

/// Structural events are counted by the graph they happen in: growing hubs
/// of one graph through Array → RIA → LIA, probing them and deleting from
/// them leaves every deterministic counter of a second graph built alongside
/// at zero (there is no process-wide sink for them to meet in).
#[test]
fn ladder_counters_stay_with_their_graph() {
    let cfg = Config::default().with_m(128);
    let mut busy = LsGraph::with_config(1_024, cfg);
    let idle = LsGraph::with_config(1_024, cfg);
    for hub in 0..4u32 {
        for chunk in (8..608).collect::<Vec<u32>>().chunks(50) {
            let batch: Vec<Edge> = chunk.iter().map(|&d| Edge::new(hub, d)).collect();
            busy.insert_batch(&batch);
        }
        assert_eq!(busy.tier(hub), Tier::HiTree);
    }
    assert!(busy.has_edge(0, 500) && !busy.has_edge(0, 900));
    let batch: Vec<Edge> = (8..580).map(|d| Edge::new(1, d)).collect();
    assert_eq!(busy.delete_batch(&batch), batch.len());

    // The one delete run takes hub 1 down the ladder once, to the array.
    let s = busy.struct_snapshot();
    assert!(s.tier_upgrades >= 8 && s.tier_downgrades >= 1, "{s:?}");
    assert_eq!(busy.tier(1), Tier::Array);
    let s = idle.struct_snapshot().deterministic_fields();
    let moved: Vec<_> = s.into_iter().filter(|&(_, v)| v != 0).collect();
    assert!(moved.is_empty(), "{moved:?}");
}
