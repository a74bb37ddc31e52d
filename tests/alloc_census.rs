//! Allocation census of the RIA tier, read from the counting allocator
//! (`cargo test --features count-alloc --test alloc_census`).
//!
//! A RIA is one buffer: building one, cloning one, rebuilding one on an
//! insert, and the copy-on-write a held snapshot forces on a RIA-tier vertex
//! each cost a fixed number of heap allocations, pinned here. The counter is process-wide, so this file
//! holds exactly one test: no sibling allocates while it counts.

#![cfg(feature = "count-alloc")]

use lsgraph::metrics::heap_allocations;
use lsgraph::{Config, DynamicGraph, Edge, Graph, LsGraph, Ria, Spill, StructStats, Tier};

/// Allocations `f` makes.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = heap_allocations().expect("count-alloc on");
    let out = f();
    (out, heap_allocations().unwrap() - before)
}

#[test]
fn a_ria_is_one_allocation() {
    let cfg = Config::default();
    // 13 inline ids, then a spill between `a` and `M`: a RIA. Even ids,
    // so an odd one lands in a block with a gap.
    let ns: Vec<u32> = (1..=200).map(|i| 2 * i).collect();
    let spill_ids = &ns[13..];
    assert!(spill_ids.len() > cfg.a && spill_ids.len() <= cfg.m);

    let (spill, built) = allocations(|| Spill::from_sorted(spill_ids, &cfg));
    assert_eq!(spill.tier(), Tier::Ria);
    assert_eq!(built, 1, "building a RIA allocates its one buffer");
    let (copy, copied) = allocations(|| spill.clone());
    assert_eq!(copied, 1, "cloning a RIA copies its one buffer");
    drop((spill, copy));

    // Fill the gaps with odd ids until one insert finds no donor within the
    // locality bound and rebuilds the RIA at α.
    let stats = StructStats::new();
    let mut ria = Ria::from_sorted(spill_ids, cfg.alpha);
    let mut rebuild = None;
    for u in (spill_ids[0] + 1..).step_by(2).take(spill_ids.len()) {
        let (_, n) = allocations(|| ria.insert(u, &stats));
        if stats.ria_rebuilds.get() > 0 {
            rebuild = Some(n);
            break;
        }
        assert_eq!(n, 0, "an insert that moves ids in place allocates nothing");
    }
    assert_eq!(
        rebuild,
        Some(2),
        "a rebuilding insert allocates the merged ids and the new buffer"
    );

    let edges: Vec<Edge> = ns.iter().map(|&u| Edge::new(0, u)).collect();
    let n = 2 * ns.len() + 2;
    let mut free = LsGraph::from_edges(n, &edges, cfg);
    let mut held = LsGraph::from_edges(n, &edges, cfg);
    // Warm the pool and every lazily built path up with one batch each.
    free.insert_batch(&[Edge::new(0, 3)]);
    held.insert_batch(&[Edge::new(0, 3)]);
    assert_eq!(free.tier(0), Tier::Ria);

    let (_, without) = allocations(|| free.insert_batch(&[Edge::new(0, 201)]));
    let snap = held.snapshot();
    let (_, with) = allocations(|| held.insert_batch(&[Edge::new(0, 201)]));
    assert_eq!(
        with - without,
        3,
        "a held snapshot costs the page, the spill's Arc and the RIA buffer"
    );
    assert!(!snap.view().has_edge(0, 201) && held.has_edge(0, 201));
}
