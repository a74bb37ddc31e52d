//! Randomized differential tests: every engine behaves as an adjacency-set
//! oracle under interleaved batch streams, and the core ordered-set
//! structures behave as `BTreeSet` under random operation sequences.
//!
//! These were originally proptest properties; they are now driven by seeded
//! `SmallRng` loops (the build is offline, so the proptest crate is
//! unavailable). Each case uses a distinct fixed seed, so failures reproduce
//! exactly.

use rand::prelude::*;

use lsgraph::baselines::{AspenGraph, PacGraph, TerraceGraph};
use lsgraph::substrates::{BTreeSet32, Pma, PmaParams};
use lsgraph::{Config, DynamicGraph, Edge, Graph, LsGraph, Ria, SlotOccupancy, Spill, StructStats};

const CASES: u64 = 64;

/// Sink for the structural events of the bare-container properties.
static STATS: StructStats = StructStats::new();

/// A batched update stream over a small id space (dense collisions on
/// purpose): 1..12 batches of 1..80 (src, dst) pairs in 0..60.
fn gen_batches(rng: &mut SmallRng) -> Vec<(bool, Vec<(u32, u32)>)> {
    let num_batches = rng.gen_range(1usize..12);
    (0..num_batches)
        .map(|_| {
            let is_insert = rng.gen_bool(0.5);
            let len = rng.gen_range(1usize..80);
            let pairs = (0..len)
                .map(|_| (rng.gen_range(0u32..60), rng.gen_range(0u32..60)))
                .collect();
            (is_insert, pairs)
        })
        .collect()
}

/// Random (insert?, key) operation sequence.
fn gen_ops(rng: &mut SmallRng, key_space: u32, min_len: usize, max_len: usize) -> Vec<(bool, u32)> {
    let len = rng.gen_range(min_len..max_len);
    (0..len)
        .map(|_| (rng.gen_bool(0.5), rng.gen_range(0u32..key_space)))
        .collect()
}

/// Applies a stream to an engine and an oracle, asserting counts, every
/// membership probe after each batch, and final adjacency equality.
fn check_engine<G: DynamicGraph>(mut g: G, stream: &[(bool, Vec<(u32, u32)>)]) {
    let mut oracle: Vec<std::collections::BTreeSet<u32>> = vec![Default::default(); 60];
    for (is_insert, pairs) in stream {
        let batch: Vec<Edge> = pairs.iter().map(|&(a, b)| Edge::new(a, b)).collect();
        // Dedup the way engines must: by (src, dst).
        let mut uniq = batch.clone();
        uniq.sort_unstable();
        uniq.dedup();
        if *is_insert {
            let expect: usize = uniq
                .iter()
                .filter(|e| oracle[e.src as usize].insert(e.dst))
                .count();
            assert_eq!(g.insert_batch(&batch), expect);
        } else {
            let expect: usize = uniq
                .iter()
                .filter(|e| oracle[e.src as usize].remove(&e.dst))
                .count();
            assert_eq!(g.delete_batch(&batch), expect);
        }
        for (u, ns) in oracle.iter().enumerate() {
            for v in 0..60u32 {
                assert_eq!(g.has_edge(u as u32, v), ns.contains(&v), "edge ({u}, {v})");
            }
        }
    }
    let total: usize = oracle.iter().map(|s| s.len()).sum();
    assert_eq!(g.num_edges(), total);
    for v in 0..60u32 {
        assert_eq!(
            g.neighbors(v),
            oracle[v as usize].iter().copied().collect::<Vec<_>>(),
            "vertex {v}"
        );
    }
}

#[test]
fn lsgraph_matches_oracle() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1000 + case);
        let stream = gen_batches(&mut rng);
        check_engine(LsGraph::with_config(60, Config::default()), &stream);
    }
}

#[test]
fn lsgraph_small_tiers_match_oracle() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x2000 + case);
        let stream = gen_batches(&mut rng);
        // Tiny thresholds force RIA/HITree tiers even on small degrees.
        let cfg = Config {
            a: 4,
            m: 16,
            ..Config::default()
        };
        check_engine(LsGraph::with_config(60, cfg), &stream);
    }
}

#[test]
fn terrace_matches_oracle() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x3000 + case);
        let stream = gen_batches(&mut rng);
        check_engine(TerraceGraph::new(60), &stream);
    }
}

#[test]
fn aspen_matches_oracle() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x4000 + case);
        let stream = gen_batches(&mut rng);
        check_engine(AspenGraph::new(60), &stream);
    }
}

#[test]
fn pactree_matches_oracle() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5000 + case);
        let stream = gen_batches(&mut rng);
        check_engine(PacGraph::new(60), &stream);
    }
}

#[test]
fn ria_behaves_as_sorted_set() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x6000 + case);
        let ops = gen_ops(&mut rng, 500, 1, 400);
        let mut r = Ria::new(1.2);
        let mut oracle = std::collections::BTreeSet::new();
        for (ins, k) in ops {
            if ins {
                assert_eq!(r.insert(k, &STATS).inserted(), oracle.insert(k));
            } else {
                assert_eq!(r.delete(k, &STATS), oracle.remove(&k));
            }
        }
        r.check_invariants();
        for k in probe_keys(0..500) {
            assert_eq!(r.contains(k), oracle.contains(&k), "key {k}");
        }
        assert_eq!(r.to_vec(), oracle.into_iter().collect::<Vec<_>>());
    }
}

/// Every key of `space` plus the `u32` boundary keys: what a membership
/// probe is checked on after a set property's operations.
fn probe_keys(space: std::ops::Range<u32>) -> impl Iterator<Item = u32> {
    space.chain([0, 1, u32::MAX - 1, u32::MAX])
}

/// The container a set property runs against, with the ids already in it:
/// empty — a vertex's spill growing from nothing, the ladder's depth 0 — or
/// a LIA over evenly spread ids with a dense run at each of `clusters`, so
/// every block a run touches is delegated and ids near one land in a child,
/// the ladder's depth 1.
fn spill_under_test(
    cfg: &Config,
    clusters: Option<&[u32]>,
) -> (Spill, std::collections::BTreeSet<u32>) {
    let Some(clusters) = clusters else {
        return (Spill::from_sorted(&[], cfg), Default::default());
    };
    let spread = 2 * cfg.m as u32;
    let step = u32::MAX / spread;
    let mut held: std::collections::BTreeSet<u32> =
        (0..spread).map(|i| i * step + step / 2).collect();
    for &start in clusters {
        held.extend(start..start + 48);
    }
    let t = Spill::from_sorted(&held.iter().copied().collect::<Vec<_>>(), cfg);
    let mut occ = SlotOccupancy::default();
    t.add_slot_occupancy(&mut occ);
    assert!(occ.child > 0, "no block was delegated to a child");
    (t, held)
}

#[test]
fn hitree_behaves_as_sorted_set() {
    const CLUSTER: u32 = 1 << 31;
    for (case, as_child) in (0..CASES).flat_map(|c| [(c, false), (c, true)]) {
        let mut rng = SmallRng::seed_from_u64(0x7000 + case);
        let ops = gen_ops(&mut rng, 500, 1, 400);
        let cfg = Config {
            a: 8,
            m: 64,
            ..Config::default()
        };
        let (mut t, mut oracle) = spill_under_test(&cfg, as_child.then_some(&[CLUSTER]));
        for (ins, k) in ops {
            let k = if as_child { CLUSTER + k } else { k };
            if ins {
                assert_eq!(t.insert(k, &cfg, &STATS), oracle.insert(k));
            } else {
                assert_eq!(t.delete(k, &cfg, &STATS), oracle.remove(&k));
            }
        }
        t.check_invariants(&cfg);
        let base = if as_child { CLUSTER } else { 0 };
        for k in probe_keys(base..base + 500) {
            assert_eq!(t.contains(k, &cfg), oracle.contains(&k), "key {k}");
        }
        assert_eq!(t.to_vec(), oracle.into_iter().collect::<Vec<_>>());
    }
}

#[test]
fn pma_behaves_as_sorted_set() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x8000 + case);
        let ops = gen_ops(&mut rng, 500, 1, 400);
        let mut p = Pma::<u64>::with_params(PmaParams::dense());
        let mut oracle = std::collections::BTreeSet::new();
        for (ins, k) in ops {
            let k = k as u64;
            if ins {
                assert_eq!(p.insert(k), oracle.insert(k));
            } else {
                assert_eq!(p.delete(k), oracle.remove(&k));
            }
        }
        p.check_invariants();
        assert_eq!(p.to_vec(), oracle.into_iter().collect::<Vec<_>>());
    }
}

#[test]
fn btree_behaves_as_sorted_set() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x9000 + case);
        let ops = gen_ops(&mut rng, 500, 1, 400);
        let mut t = BTreeSet32::new();
        let mut oracle = std::collections::BTreeSet::new();
        for (ins, k) in ops {
            if ins {
                assert_eq!(t.insert(k), oracle.insert(k));
            } else {
                assert_eq!(t.delete(k), oracle.remove(&k));
            }
        }
        t.check_invariants();
        assert_eq!(t.to_vec(), oracle.into_iter().collect::<Vec<_>>());
    }
}

#[test]
fn delta_chunk_roundtrips() {
    use lsgraph::substrates::DeltaChunk;
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xA000 + case);
        let len = rng.gen_range(0usize..300);
        let mut keys: Vec<u32> = (0..len).map(|_| rng.gen()).collect();
        // Mix in boundary values like proptest's any::<u32>() would.
        if case % 4 == 0 && !keys.is_empty() {
            keys[0] = 0;
            let last = keys.len() - 1;
            keys[last] = u32::MAX;
        }
        keys.sort_unstable();
        keys.dedup();
        let c = DeltaChunk::encode(&keys);
        assert_eq!(c.decode(), keys.clone());
        assert_eq!(c.len(), keys.len());
        for probe in keys.iter().take(20) {
            assert!(c.contains(*probe));
        }
    }
}

#[test]
fn skiplist_behaves_as_sorted_set() {
    use lsgraph::substrates::UnrolledSkipList;
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB000 + case);
        let ops = gen_ops(&mut rng, 400, 1, 500);
        let mut l = UnrolledSkipList::new();
        let mut oracle = std::collections::BTreeSet::new();
        for (ins, k) in ops {
            if ins {
                assert_eq!(l.insert(k), oracle.insert(k));
            } else {
                assert_eq!(l.delete(k), oracle.remove(&k));
            }
        }
        l.check_invariants();
        assert_eq!(l.to_vec(), oracle.into_iter().collect::<Vec<_>>());
    }
}

#[test]
fn ctree_and_pacset_behave_as_sorted_sets() {
    use lsgraph::baselines::{CTreeSet, PacSet};
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC000 + case);
        let ops = gen_ops(&mut rng, 400, 1, 300);
        let mut ct = CTreeSet::new();
        let mut pt = PacSet::new();
        let mut oracle = std::collections::BTreeSet::new();
        for (ins, k) in ops {
            if ins {
                let want = oracle.insert(k);
                let cn = ct.inserted(k);
                let pn = pt.inserted(k);
                assert_eq!(cn.is_some(), want);
                assert_eq!(pn.is_some(), want);
                if let Some(n) = cn {
                    ct = n;
                }
                if let Some(n) = pn {
                    pt = n;
                }
            } else {
                let want = oracle.remove(&k);
                let cn = ct.deleted(k);
                let pn = pt.deleted(k);
                assert_eq!(cn.is_some(), want);
                assert_eq!(pn.is_some(), want);
                if let Some(n) = cn {
                    ct = n;
                }
                if let Some(n) = pn {
                    pt = n;
                }
            }
        }
        ct.check_invariants();
        pt.check_invariants();
        let want: Vec<u32> = oracle.into_iter().collect();
        assert_eq!(ct.to_vec(), want.clone());
        assert_eq!(pt.to_vec(), want);
    }
}

#[test]
fn neighbor_iter_equals_callback_traversal() {
    use lsgraph::IterableGraph;
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD000 + case);
        let stream = gen_batches(&mut rng);
        let cfg = Config {
            a: 4,
            m: 16,
            ..Config::default()
        };
        let mut g = LsGraph::with_config(60, cfg);
        for (is_insert, pairs) in &stream {
            let batch: Vec<Edge> = pairs.iter().map(|&(a, b)| Edge::new(a, b)).collect();
            if *is_insert {
                g.insert_batch(&batch);
            } else {
                g.delete_batch(&batch);
            }
        }
        for v in 0..60u32 {
            let it: Vec<u32> = g.neighbor_iter(v).collect();
            assert_eq!(it, g.neighbors(v));
        }
    }
}

#[test]
fn extreme_keys_survive() {
    // u32 boundary values must round-trip through every tier, behind a
    // vertex block and inside the children at either end of a LIA.
    for (case, as_child) in (0..CASES).flat_map(|c| [(c, false), (c, true)]) {
        let mut rng = SmallRng::seed_from_u64(0xE000 + case);
        let len = rng.gen_range(1usize..200);
        let mut keys: Vec<u32> = (0..len).map(|_| rng.gen()).collect();
        // Force boundary coverage in every case.
        for (i, b) in [0u32, 1, u32::MAX, u32::MAX - 1].into_iter().enumerate() {
            if i < keys.len() {
                keys[i] = b;
            }
        }
        let cfg = Config {
            a: 8,
            m: 32,
            ..Config::default()
        };
        let (mut t, mut oracle) = spill_under_test(&cfg, as_child.then_some(&[2, u32::MAX - 50]));
        for k in keys {
            assert_eq!(t.insert(k, &cfg, &STATS), oracle.insert(k));
        }
        t.check_invariants(&cfg);
        // The key space is all of `u32`: probe every held id and both of its
        // neighbours, which covers each gap's edges, plus the boundaries.
        let near = oracle
            .iter()
            .flat_map(|&k| [k.saturating_sub(1), k, k.saturating_add(1)]);
        for k in probe_keys(0..0).chain(near) {
            assert_eq!(t.contains(k, &cfg), oracle.contains(&k), "key {k}");
        }
        assert_eq!(t.to_vec(), oracle.into_iter().collect::<Vec<_>>());
    }
}

#[test]
fn lsgraph_snapshots_stay_frozen_under_random_interleavings() {
    use lsgraph::GraphSnapshot;
    use std::collections::BTreeSet;
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xF000 + case);
        let cfg = Config {
            a: 4,
            m: 16,
            ..Config::default()
        };
        let mut g = LsGraph::with_config(60, cfg);
        let mut oracle: Vec<BTreeSet<u32>> = vec![Default::default(); 60];
        // Each held snapshot pairs with its frozen adjacency + edge total.
        let mut snaps: Vec<(GraphSnapshot, Vec<Vec<u32>>, usize)> = Vec::new();
        let steps = rng.gen_range(8usize..24);
        for step in 0..steps {
            match rng.gen_range(0u32..5) {
                // Batches dominate; snapshot takes and drops interleave.
                0..=2 => {
                    let is_insert = rng.gen_bool(0.6);
                    let len = rng.gen_range(1usize..60);
                    let batch: Vec<Edge> = (0..len)
                        .map(|_| Edge::new(rng.gen_range(0u32..60), rng.gen_range(0u32..60)))
                        .collect();
                    if is_insert {
                        g.insert_batch(&batch);
                    } else {
                        g.delete_batch(&batch);
                    }
                    for e in &batch {
                        if is_insert {
                            oracle[e.src as usize].insert(e.dst);
                        } else {
                            oracle[e.src as usize].remove(&e.dst);
                        }
                    }
                }
                3 => {
                    let adj: Vec<Vec<u32>> =
                        oracle.iter().map(|s| s.iter().copied().collect()).collect();
                    let m = adj.iter().map(Vec::len).sum();
                    snaps.push((g.snapshot(), adj, m));
                }
                _ => {
                    if !snaps.is_empty() {
                        let i = rng.gen_range(0..snaps.len());
                        snaps.swap_remove(i);
                    }
                }
            }
            // Every snapshot still alive reads exactly its frozen past.
            for (i, (snap, adj, m)) in snaps.iter().enumerate() {
                assert_eq!(snap.num_edges(), *m, "case {case} step {step} snap {i}");
                for v in 0..60u32 {
                    assert_eq!(
                        snap.neighbors(v),
                        adj[v as usize],
                        "case {case} step {step} snap {i} vertex {v}"
                    );
                }
            }
        }
        // The live view converged on the full stream.
        let total: usize = oracle.iter().map(|s| s.len()).sum();
        assert_eq!(g.num_edges(), total, "case {case}");
        for v in 0..60u32 {
            assert_eq!(
                g.neighbors(v),
                oracle[v as usize].iter().copied().collect::<Vec<_>>(),
                "case {case} vertex {v}"
            );
        }
        snaps.clear();
        let s = g.stats().snapshot();
        assert_eq!(s.snapshots_retired, s.snapshots_taken, "case {case}");
        g.check_invariants();
    }
}

/// The vertex directory shares fixed-size pages between the writer and its
/// snapshots, so the cases that matter are at page edges: a table whose size
/// is no multiple of any page, that inserts grow across several page
/// boundaries while snapshots of the smaller table are held. One stream;
/// the live graph and every held snapshot are compared with the oracle —
/// frozen at the flip, for a snapshot — after every batch.
#[test]
fn lsgraph_snapshots_and_live_graph_match_oracle_while_the_table_grows() {
    use lsgraph::GraphSnapshot;
    use std::collections::BTreeSet;
    fn assert_reads<G: Graph>(g: &G, adj: &[Vec<u32>], ctx: &str) {
        assert_eq!(g.num_vertices(), adj.len(), "{ctx}: num_vertices");
        let m: usize = adj.iter().map(Vec::len).sum();
        assert_eq!(g.num_edges(), m, "{ctx}: num_edges");
        for (v, ns) in adj.iter().enumerate() {
            assert_eq!(&g.neighbors(v as u32), ns, "{ctx}: vertex {v}");
        }
    }
    const START: u32 = 50;
    for case in 0..16 {
        let mut rng = SmallRng::seed_from_u64(0x23000 + case);
        let cfg = Config {
            a: 4,
            m: 16,
            ..Config::default()
        };
        let mut g = LsGraph::with_config(START as usize, cfg);
        let mut oracle: Vec<BTreeSet<u32>> = vec![Default::default(); START as usize];
        let freeze = |oracle: &[BTreeSet<u32>]| -> Vec<Vec<u32>> {
            oracle.iter().map(|s| s.iter().copied().collect()).collect()
        };
        let mut held: Vec<(GraphSnapshot, Vec<Vec<u32>>)> = Vec::new();
        for step in 0..32u32 {
            if rng.gen_bool(0.5) {
                held.push((g.snapshot(), freeze(&oracle)));
            }
            // The id range widens every step, so insert batches keep growing
            // the table: 50 to past 250 vertices over the stream.
            let ids = START + 7 * step;
            let is_insert = rng.gen_bool(0.65);
            let batch: Vec<Edge> = (0..rng.gen_range(1usize..80))
                .map(|_| Edge::new(rng.gen_range(0..ids), rng.gen_range(0..ids)))
                .collect();
            if is_insert {
                g.insert_batch(&batch);
                let top = batch.iter().map(|e| e.src.max(e.dst)).max().unwrap() as usize;
                if top >= oracle.len() {
                    oracle.resize(top + 1, Default::default());
                }
                for e in &batch {
                    oracle[e.src as usize].insert(e.dst);
                }
            } else {
                g.delete_batch(&batch);
                for e in &batch {
                    if let Some(ns) = oracle.get_mut(e.src as usize) {
                        ns.remove(&e.dst);
                    }
                }
            }
            let ctx = format!("case {case} step {step}");
            assert_reads(&g, &freeze(&oracle), &ctx);
            assert_eq!(g.validate_invariants(), Ok(()), "{ctx}");
            for (i, (snap, adj)) in held.iter().enumerate() {
                assert_reads(snap, adj, &format!("{ctx} snap {i}"));
                assert_eq!(snap.validate_invariants(), Ok(()), "{ctx} snap {i}");
            }
            held.retain(|_| rng.gen_bool(0.8));
        }
        assert!(g.num_vertices() > 200, "case {case}: the table grew");
        g.check_invariants();
    }
}

/// Applies `stream` to two graphs — one bare, one with a fresh snapshot held
/// across every batch, so each of its writes copies the block first — and
/// holds the two to the same bytes and tiers after every batch: how a block
/// is laid out must not record who was reading when it was written. Returns
/// the bare graph.
fn assert_layout_ignores_readers(n: usize, cfg: Config, stream: &[(bool, Vec<Edge>)]) -> LsGraph {
    use lsgraph::MemoryFootprint;
    let mut bare = LsGraph::with_config(n, cfg);
    let mut read = LsGraph::with_config(n, cfg);
    for (step, (is_insert, batch)) in stream.iter().enumerate() {
        let held = read.snapshot();
        if *is_insert {
            bare.insert_batch(batch);
            read.insert_batch(batch);
        } else {
            bare.delete_batch(batch);
            read.delete_batch(batch);
        }
        drop(held);
        assert_eq!(read.footprint(), bare.footprint(), "step {step}");
        assert_eq!(read.tier_stats(), bare.tier_stats(), "step {step}");
    }
    assert!(read.stats().snapshot().cow_block_copies > 0);
    assert_eq!(bare.stats().snapshot().cow_block_copies, 0);
    bare
}

#[test]
fn lsgraph_layout_is_the_same_with_and_without_readers() {
    fn stream(
        rng: &mut SmallRng,
        steps: usize,
        mut edge: impl FnMut(&mut SmallRng) -> Edge,
    ) -> Vec<(bool, Vec<Edge>)> {
        (0..steps)
            .map(|_| {
                let len = rng.gen_range(1usize..60);
                (rng.gen_bool(0.65), (0..len).map(|_| edge(rng)).collect())
            })
            .collect()
    }
    for case in 0..8 {
        let mut rng = SmallRng::seed_from_u64(0x11000 + case);
        // Every tier, at thresholds a 60-vertex stream can cross.
        let small = Config {
            a: 4,
            m: 16,
            ..Config::default()
        };
        let s = stream(&mut rng, 24, |r| {
            Edge::new(r.gen_range(0..60), r.gen_range(0..60))
        });
        assert_layout_ignores_readers(60, small, &s);

        // The spill array alone (`Spill::Array`): the paper's thresholds and
        // no vertex past inline + `A` = 45 neighbors.
        let s = stream(&mut rng, 40, |r| {
            Edge::new(r.gen_range(0..30), r.gen_range(0..45))
        });
        let g = assert_layout_ignores_readers(45, Config::default(), &s);
        let tiers = g.tier_stats();
        assert!(tiers.array_vertices > 0, "case {case}");
        assert_eq!(tiers.inline_vertices + tiers.array_vertices, 45);

        // Array leaves inside a HITree (`Spill::Array` at depth 1): one hub whose keys
        // cluster, so LIA blocks overflow into child arrays that later
        // batches write to.
        let hub = Config {
            m: 128,
            ..Config::default()
        };
        let s = stream(&mut rng, 40, |r| {
            let cluster = r.gen_range(0u32..8) * 2_000;
            Edge::new(0, cluster + r.gen_range(0..500))
        });
        let g = assert_layout_ignores_readers(1, hub, &s);
        assert_eq!(g.tier_stats().hitree_vertices, 1, "case {case}");
        assert!(g.lia_slot_occupancy().child > 0, "case {case}");
    }
}

/// Counter totals are schedule-independent: the same batch stream applied at
/// widths 1, 2 and 8, with a snapshot held across every other batch so pages
/// are copied on write, yields identical deterministic counters and one
/// `group_apply` sample per run at every width.
#[test]
fn parallel_counter_totals_match_single_threaded() {
    let run = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let mut g = LsGraph::with_config(4_096, Config::default().with_m(128));
            let mut rng = SmallRng::seed_from_u64(42);
            for round in 0..8u32 {
                // Skewed sources: 64 hubs accumulate degree past `m`, so the
                // batches drive the RIA and HITree tiers; the rest spread the
                // batch over every page.
                let batch: Vec<Edge> = (0..4_000)
                    .map(|_| {
                        let hub = rng.gen_bool(0.75);
                        let src = rng.gen_range(0..if hub { 64 } else { 4_096 });
                        Edge::new(src, rng.gen_range(0..4_096))
                    })
                    .collect();
                let held = round.is_multiple_of(2).then(|| g.snapshot());
                g.insert_batch(&batch);
                if round % 2 == 1 {
                    g.delete_batch(&batch[..1_000]);
                }
                drop(held);
            }
            let runs = g.latency_stats().unwrap().group_apply.count();
            (g.struct_snapshot(), runs)
        })
    };
    let (single, single_runs) = run(1);
    // Sanity: the workload moved structure and copied pages.
    assert!(single.ria_within_block_shifts > 0);
    assert!(single.vb_inline_hits > 0 && single.hitree_node_upgrades > 0);
    assert!(single.cow_block_copies > 0);
    for threads in [2, 8] {
        let (many, many_runs) = run(threads);
        assert_eq!(
            single.deterministic_fields(),
            many.deterministic_fields(),
            "{threads} threads"
        );
        assert_eq!(single_runs, many_runs, "{threads} threads");
    }
}

#[test]
fn lsgraph_snapshot_quarantine_repair_interleavings() {
    use lsgraph::GraphSnapshot;
    use std::collections::BTreeSet;
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x10000 + case);
        let cfg = Config {
            a: 4,
            m: 16,
            ..Config::default()
        };
        let mut g = LsGraph::with_config(60, cfg);
        let mut oracle: Vec<BTreeSet<u32>> = vec![Default::default(); 60];
        // Each snapshot freezes adjacency plus the quarantine set at flip.
        let mut snaps: Vec<(GraphSnapshot, Vec<Vec<u32>>, Vec<u32>)> = Vec::new();
        let freeze = |oracle: &[BTreeSet<u32>]| -> Vec<Vec<u32>> {
            oracle.iter().map(|s| s.iter().copied().collect()).collect()
        };
        let steps = rng.gen_range(6usize..16);
        for step in 0..steps {
            if rng.gen_bool(0.6) {
                let is_insert = rng.gen_bool(0.6);
                let len = rng.gen_range(1usize..60);
                let batch: Vec<Edge> = (0..len)
                    .map(|_| Edge::new(rng.gen_range(0u32..60), rng.gen_range(0u32..60)))
                    .collect();
                if is_insert {
                    g.insert_batch(&batch);
                } else {
                    g.delete_batch(&batch);
                }
                for e in &batch {
                    if is_insert {
                        oracle[e.src as usize].insert(e.dst);
                    } else {
                        oracle[e.src as usize].remove(&e.dst);
                    }
                }
                if rng.gen_bool(0.4) {
                    snaps.push((g.snapshot(), freeze(&oracle), Vec::new()));
                }
            } else {
                // Post-fault lifecycle on a random vertex: clear, requarantine,
                // sometimes snapshot the quarantined state, then repair with a
                // random neighbor list. A snapshot pinned mid-lifecycle must
                // keep showing the vertex quarantined and empty forever.
                let v = rng.gen_range(0u32..60);
                g.clear_vertex(v);
                g.restore_quarantine_set(&[v]).unwrap();
                oracle[v as usize].clear();
                if rng.gen_bool(0.7) {
                    snaps.push((g.snapshot(), freeze(&oracle), vec![v]));
                }
                let mut fixed: Vec<u32> = (0..rng.gen_range(0usize..12))
                    .map(|_| rng.gen_range(0u32..60))
                    .collect();
                fixed.sort_unstable();
                fixed.dedup();
                assert_eq!(g.repair_vertex(v, &fixed).unwrap(), fixed.len());
                oracle[v as usize] = fixed.into_iter().collect();
            }
            for (i, (snap, adj, quar)) in snaps.iter().enumerate() {
                for v in 0..60u32 {
                    assert_eq!(
                        snap.neighbors(v),
                        adj[v as usize],
                        "case {case} step {step} snap {i} vertex {v}"
                    );
                    assert_eq!(
                        snap.is_quarantined(v),
                        quar.contains(&v),
                        "case {case} step {step} snap {i} vertex {v} quarantine"
                    );
                }
                assert_eq!(
                    &snap.quarantined_vertices(),
                    quar,
                    "case {case} step {step} snap {i}"
                );
                snap.validate_invariants()
                    .unwrap_or_else(|e| panic!("case {case} step {step} snap {i}: {e}"));
            }
        }
        // The live graph left every lifecycle repaired, matching the oracle.
        assert_eq!(g.quarantined_vertices(), Vec::<u32>::new(), "case {case}");
        for v in 0..60u32 {
            assert_eq!(
                g.neighbors(v),
                oracle[v as usize].iter().copied().collect::<Vec<_>>(),
                "case {case} vertex {v}"
            );
        }
        g.check_invariants();
    }
}

/// Deletion-path property test for the incremental maintainers: under
/// seeded symmetric streams that interleave deletes (including targeted
/// disconnections of the BFS source) with snapshot take/drop churn,
/// [`IncrementalBfs`] and [`IncrementalCc`] stay equal to their
/// from-scratch kernels after every batch — and the snapshots pinned
/// mid-stream keep serving the maintainers' reads.
#[test]
fn incremental_maintainers_survive_deletion_streams() {
    use lsgraph::analytics::{connected_components, IncrementalBfs, IncrementalCc};

    const N: usize = 64;
    for seed in [3u64, 29, 71, 113] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = LsGraph::with_config(N, Config::default());
        let mut bfs = IncrementalBfs::new(&g, 0);
        let mut cc = IncrementalCc::new(&g);
        let mut snaps = Vec::new();
        for round in 0..24 {
            // Heavier deletes than the generic streams: this is the
            // non-monotone path (recompute/rebuild) under test.
            let is_insert = rng.gen_bool(0.55);
            let batch: Vec<Edge> = if !is_insert && round % 5 == 4 {
                // Targeted: sever the source's current neighborhood, which
                // can push every distance to INF at once.
                g.neighbors(0)
                    .into_iter()
                    .flat_map(|u| [Edge::new(0, u), Edge::new(u, 0)])
                    .collect()
            } else {
                (0..rng.gen_range(1usize..24))
                    .flat_map(|_| {
                        let a = rng.gen_range(0..N as u32);
                        let b = rng.gen_range(0..N as u32);
                        [Edge::new(a, b), Edge::new(b, a)]
                    })
                    .collect()
            };
            if batch.is_empty() {
                continue;
            }
            if is_insert {
                g.insert_batch(&batch);
                bfs.on_insert(&g, &batch);
                cc.on_insert(&batch);
            } else {
                g.delete_batch(&batch);
                bfs.on_delete(&g);
                cc.on_delete(&g);
            }
            // Snapshot churn: pin the post-batch state, drop an older pin,
            // and run the maintainers' differential check against a pinned
            // snapshot too (same content as the live graph).
            snaps.push(g.snapshot());
            if snaps.len() > 3 {
                snaps.remove(0);
            }
            let snap = snaps.last().unwrap();
            let fresh = IncrementalBfs::new(snap, 0);
            assert_eq!(
                bfs.distances(),
                fresh.distances(),
                "seed {seed} round {round}: bfs"
            );
            assert_eq!(
                cc.labels(),
                connected_components(snap),
                "seed {seed} round {round}: cc"
            );
        }
        g.check_invariants();
    }
}
