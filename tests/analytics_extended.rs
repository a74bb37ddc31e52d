//! Extended analytics over live engines: incremental BFS, the full kernel
//! family on an LSGraph mutated past its load, the tier statistics of a
//! skewed graph, and kernels on held snapshots. (The kernels' values are
//! checked on every engine against `Csr` by the simulator's engine axis,
//! `tests/cross_engine.rs`.)

use lsgraph::analytics::{self, IncrementalBfs};
use lsgraph::gen::{rmat, RmatParams};
use lsgraph::{Config, DynamicGraph, Edge, Graph, LsGraph};

const SCALE: u32 = 11;
const N: usize = 1 << SCALE;

fn sym(edges: &[Edge]) -> Vec<Edge> {
    edges.iter().flat_map(|e| [*e, e.reversed()]).collect()
}

#[test]
fn incremental_bfs_tracks_live_lsgraph() {
    let base = sym(&rmat(SCALE, 15_000, RmatParams::paper(), 22));
    let mut g = LsGraph::from_edges(N, &base, Config::default());
    let src = (0..N as u32)
        .max_by_key(|&v| g.degree(v))
        .expect("vertices");
    let mut inc = IncrementalBfs::new(&g, src);
    for round in 0..6u64 {
        let batch = sym(&rmat(SCALE, 4_000, RmatParams::paper(), 30 + round));
        g.insert_batch(&batch);
        inc.on_insert(&g, &batch);
        let fresh = IncrementalBfs::new(&g, src);
        assert_eq!(inc.distances(), fresh.distances(), "round {round}");
    }
    // A deletion round repairs only what it cut.
    let del = sym(&rmat(SCALE, 4_000, RmatParams::paper(), 30));
    g.delete_batch(&del);
    inc.on_delete(&g, &del);
    let fresh = IncrementalBfs::new(&g, src);
    assert_eq!(inc.distances(), fresh.distances());
}

#[test]
fn full_kernel_family_runs_on_updated_engine() {
    // Smoke the whole kernel family on a graph that has been mutated past
    // its bulk-loaded shape (tier transitions included).
    let mut g = LsGraph::from_edges(N, &sym(&rmat(SCALE, 10_000, RmatParams::paper(), 23)), {
        Config {
            m: 256,
            ..Config::default()
        }
    });
    for round in 0..4u64 {
        g.insert_batch(&sym(&rmat(SCALE, 8_000, RmatParams::paper(), 40 + round)));
    }
    g.check_invariants();
    let src = (0..N as u32)
        .max_by_key(|&v| g.degree(v))
        .expect("vertices");
    let parents = analytics::bfs(&g, src);
    assert_eq!(parents[src as usize], src);
    let pr = analytics::pagerank(&g, 10, 0.85);
    let mass: f64 = pr.iter().sum();
    assert!((mass - 1.0).abs() < 1e-6, "PR mass {mass}");
    let cc = analytics::connected_components(&g);
    assert_eq!(cc.len(), g.num_vertices());
    let tc = analytics::triangle_count(&g);
    assert!(tc.triangles > 0);
    let bc = analytics::betweenness(&g, src);
    assert!(bc.iter().all(|&d| d >= 0.0));
}

#[test]
fn tier_stats_expose_hierarchy_on_skewed_graph() {
    let edges = rmat(SCALE, 120_000, RmatParams::paper(), 24);
    // Small M: at this scale the duplicate-collapsed hub degree is a few
    // hundred, so the HITree tier needs a low threshold to be reachable.
    let cfg = Config {
        m: 128,
        ..Config::default()
    };
    let g = LsGraph::from_edges(N, &edges, cfg);
    let s = g.tier_stats();
    assert_eq!(s.total_vertices(), g.num_vertices());
    assert_eq!(s.inline_edges + s.spill_edges, g.num_edges());
    assert!(
        s.hitree_vertices > 0,
        "rmat head should reach HITree: {s:?}"
    );
    assert!(
        s.inline_vertices > s.hitree_vertices,
        "tail should dominate: {s:?}"
    );
    // The heaviest vertex must be in the top tier.
    let hub = (0..g.num_vertices() as u32)
        .max_by_key(|&v| g.degree(v))
        .expect("vertices");
    assert_eq!(g.tier(hub), lsgraph::Tier::HiTree);
}

fn ring(n: u32) -> LsGraph {
    let mut g = LsGraph::new(n as usize);
    let edges: Vec<Edge> = (0..n).map(|v| Edge::new(v, (v + 1) % n)).collect();
    g.insert_batch_undirected(&edges);
    g
}

#[test]
fn held_snapshot_is_immune_to_later_writes() {
    let mut g = ring(16);
    let snap = g.snapshot();
    let before = analytics::bfs(&snap, 0);
    // Cut the ring after the flip: live BFS changes, the held one doesn't.
    g.delete_batch_undirected(&[Edge::new(7, 8)]);
    assert_ne!(analytics::bfs(&g, 0), before);
    assert_eq!(analytics::bfs(&snap, 0), before);
    assert_eq!(snap.num_edges(), 32);
}

#[test]
fn kernels_run_on_a_moved_snapshot_while_writer_continues() {
    let mut g = ring(24);
    let snap = g.snapshot();
    let handle = std::thread::spawn(move || {
        (
            analytics::connected_components(&snap).iter().max().copied(),
            analytics::triangle_count(&snap).triangles,
        )
    });
    // Writer keeps streaming while the reader thread works.
    for v in 0..24u32 {
        g.insert_batch(&[Edge::new(v, (v + 5) % 24)]);
    }
    let (cc_max, tc) = handle.join().unwrap();
    assert_eq!(cc_max, Some(0), "ring is one component labeled by min id");
    assert_eq!(tc, 0, "a plain ring has no triangles");
}
