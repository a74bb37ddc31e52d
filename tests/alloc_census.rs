//! The counting allocator's readings
//! (`cargo test --features count-alloc --test alloc_census`): the live and
//! peak heap gauges a metrics sample reports, and an allocation census of
//! the RIA tier.
//!
//! A RIA is one buffer: building one, cloning one, rebuilding one on an
//! insert or on a run that takes an array past `a`, and the copy-on-write a
//! held snapshot forces on a RIA-tier vertex — once per run, however long —
//! each cost a fixed number of heap allocations, pinned here; and once a
//! dropped snapshot has handed its pages back, that copy costs none. The counters
//! are process-wide, so this file holds exactly one test: no sibling
//! allocates or frees while it reads them.

#![cfg(feature = "count-alloc")]

use lsgraph::metrics::{heap_allocations, MetricsRegistry};
use lsgraph::{Config, DynamicGraph, Edge, Graph, LsGraph, Ria, Spill, StructStats, Tier};

/// `(live, peak)` heap bytes as a metrics sample reports them.
fn heap_gauges() -> (u64, u64) {
    let gauges = MetricsRegistry::new().sample().gauges;
    let gauge = |name| gauges.iter().find(|(n, _)| n == name).expect(name).1;
    (
        gauge("process_heap_bytes_live"),
        gauge("process_heap_bytes_peak"),
    )
}

/// Allocations `f` makes.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = heap_allocations().expect("count-alloc on");
    let out = f();
    (out, heap_allocations().unwrap() - before)
}

#[test]
fn allocation_census() {
    allocator_gauges_track_live_and_peak_monotonically();
    a_ria_is_one_allocation();
}

fn allocator_gauges_track_live_and_peak_monotonically() {
    let (live0, peak0) = heap_gauges();
    let allocs0 = heap_allocations().expect("count-alloc on");
    assert!(peak0 >= live0);
    let buf = vec![0u8; 1 << 20];
    let (live1, peak1) = heap_gauges();
    assert!(heap_allocations().unwrap() > allocs0, "the Vec is counted");
    assert!(live1 >= live0 + (1 << 20), "live must grow with the Vec");
    assert!(peak1 >= live1, "peak bounds live");
    assert!(peak1 >= peak0, "peak is monotone");
    drop(buf);
    let (live2, peak2) = heap_gauges();
    assert!(live2 < live1, "live must shrink after drop");
    assert!(peak2 >= peak1, "peak never shrinks");
}

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

    // One insert run that takes an array past `a` rebuilds it once, as the
    // RIA the ladder names for the run's final length.
    let mut spill = Spill::from_sorted(&spill_ids[..cfg.a], &cfg);
    let run: Vec<u32> = spill_ids[..cfg.a].iter().map(|&u| u + 1).collect();
    let (added, n) = allocations(|| spill.insert_run(&run, &cfg, &stats));
    assert_eq!((added, spill.tier()), (cfg.a, Tier::Ria));
    assert_eq!(
        n, 2,
        "a run past `a` allocates the merged ids and one RIA buffer"
    );
    drop(spill);

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

    // A run of many ids under a held snapshot copies them once too.
    let run: Vec<Edge> = (0..8).map(|i| Edge::new(0, 48 * i + 81)).collect();
    let (_, without) = allocations(|| free.insert_batch(&run));
    let again = held.snapshot();
    let (_, with) = allocations(|| held.insert_batch(&run));
    assert_eq!(
        with - without,
        3,
        "one run copies the page, the Arc and the buffer once"
    );
    assert_eq!(free.tier(0), Tier::Ria);
    assert!(run
        .iter()
        .all(|e| held.has_edge(0, e.dst) && !again.view().has_edge(0, e.dst)));

    // Dropped, the two snapshots hand their versions of the page back; the
    // next held batch on the vertex copies the page into one and the RIA
    // into that version's buffer of the same length.
    drop((snap, again));
    let one = [Edge::new(0, 203)];
    let (_, without) = allocations(|| free.insert_batch(&one));
    let third = held.snapshot();
    let (_, with) = allocations(|| held.insert_batch(&one));
    assert_eq!(
        with - without,
        0,
        "a recycled copy allocates no page, no Arc and no buffer"
    );
    let recycled = held.stats().snapshot();
    assert_eq!(
        (recycled.cow_pages_recycled, recycled.cow_spills_recycled),
        (1, 1)
    );
    assert!(!third.view().has_edge(0, 203) && held.has_edge(0, 203));
}
