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

// The simulator's harness and model (`tests/sim`), for the snapshot sets.
#[path = "sim/harness.rs"]
mod harness;
#[path = "sim/model.rs"]
mod model;

use harness::Op::{Clear, DropSnap, Repair, Snap};
use harness::{batch, check_set, page_blocks, Op};

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

/// The slice walk hands over, in non-empty slices, exactly what the
/// per-id callback traversal visits, on every tier under random mutation.
#[test]
fn neighbor_slices_equal_callback_traversal() {
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
            let mut slices = Vec::new();
            g.for_each_neighbor_slice_while(v, &mut |s| {
                slices.push(s.to_vec());
                true
            });
            assert!(slices.iter().all(|s| !s.is_empty()));
            let mut visited = Vec::new();
            g.for_each_neighbor(v, &mut |u| visited.push(u));
            assert_eq!(slices.concat(), visited);
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

/// Inserts with probability `p`, `len` uniform pairs below `ids`.
fn random_batch(rng: &mut SmallRng, p: f64, len: std::ops::Range<usize>, ids: u32) -> Op {
    let insert = rng.gen_bool(p);
    let len = rng.gen_range(len);
    batch(insert, harness::pairs(rng, len, ids, ids))
}

/// The simulator's snapshot sets: every held snapshot reads the model frozen
/// at its flip after every step. A snapshot before every batch makes each
/// batch copy every page it touches exactly once, whole; random take/drop
/// interleavings retire every snapshot taken.
#[test]
fn lsgraph_snapshots_stay_frozen_under_random_interleavings() {
    let page = page_blocks();
    assert!(page > 1 && page < 120, "the stream spans pages");
    check_set("snapshots/boundary", "snapshots", 1..=4, |seed| {
        let mut rng = SmallRng::seed_from_u64(0x51AB_0000 + seed);
        (0..16)
            .flat_map(|_| [Snap, random_batch(&mut rng, 0.65, 1..200, 120)])
            .collect()
    });
    check_set("snapshots/interleave", "small", 0..CASES, |seed| {
        let mut rng = SmallRng::seed_from_u64(0xF000 + seed);
        (0..rng.gen_range(8..24))
            .map(|_| match rng.gen_range(0..5) {
                0..=2 => random_batch(&mut rng, 0.6, 1..60, 60),
                3 => Snap,
                _ => DropSnap(rng.gen_range(0..64)),
            })
            .collect()
    });
}

/// The vertex directory shares fixed-size pages between the writer and its
/// snapshots, so the cases that matter are at page edges: a table whose size
/// is no multiple of any page, that inserts grow across several page
/// boundaries while snapshots of the smaller table are held.
#[test]
fn lsgraph_snapshots_and_live_graph_match_oracle_while_the_table_grows() {
    let grown = check_set("snapshots/growth", "growing", 0..16, |seed| {
        let mut rng = SmallRng::seed_from_u64(0x23000 + seed);
        let mut ops = Vec::new();
        for step in 0..32 {
            ops.extend(rng.gen_bool(0.5).then_some(Snap));
            ops.push(random_batch(&mut rng, 0.65, 1..80, 50 + 7 * step));
            ops.extend(rng.gen_bool(0.3).then(|| DropSnap(rng.gen_range(0..64))));
        }
        ops
    });
    assert!(grown.iter().all(|sim| sim.model.adj.len() > 200), "grew");
}

/// The post-fault lifecycle under held snapshots: a snapshot pinned between
/// clear+quarantine and repair keeps the vertex quarantined and empty.
#[test]
fn lsgraph_snapshot_quarantine_repair_interleavings() {
    check_set("snapshots/quarantine", "small", 0..CASES, |seed| {
        let mut rng = SmallRng::seed_from_u64(0x10000 + seed);
        let mut ops = Vec::new();
        for _ in 0..rng.gen_range(6..16) {
            if rng.gen_bool(0.6) {
                ops.push(random_batch(&mut rng, 0.6, 1..60, 60));
                ops.extend(rng.gen_bool(0.4).then_some(Snap));
            } else {
                ops.push(Clear(rng.gen_range(0..60)));
                ops.extend(rng.gen_bool(0.7).then_some(Snap));
                ops.push(Repair);
            }
        }
        ops
    });
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
