//! Fault-injection differential suite (requires `--features failpoints`).
//!
//! For every failpoint site, under several seeds, a fault is injected in the
//! middle of batched updates and the suite asserts the blast radius is
//! exactly one vertex: invariants hold, `num_edges` stays exact, every
//! non-quarantined vertex is oracle-equal, and `repair_vertex` restores the
//! quarantined ones.

#![cfg(feature = "failpoints")]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard, Once};

use lsgraph_api::failpoints::{self, FailMode};
use lsgraph_api::{DynamicGraph, Edge, Graph, StructStats, VertexId};
use lsgraph_core::vertex::VertexBlock;
use lsgraph_core::{Config, GraphError, LsGraph};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Failpoint configuration is process-global; every test serializes here.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    // A previous test may have panicked while holding the lock (e.g. a
    // failed assertion); the registry is still fine, so ignore poisoning.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Suppresses the default panic-hook stderr spew for intentional failpoint
/// panics (they are caught by the engine); everything else still prints.
fn quiet_failpoint_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg_is_failpoint = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("failpoint"))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains("failpoint"));
            if !msg_is_failpoint {
                prev(info);
            }
        }));
    });
}

const N: usize = 200;
const ROUNDS: usize = 12;

/// Small `m` so vertices cross every tier (array → RIA → HITree) within the
/// workload, reaching all structural-movement failpoint sites.
fn cfg() -> Config {
    Config {
        m: 64,
        ..Config::default()
    }
}

/// Firing probability per evaluation: `apply_run` is evaluated once per
/// per-source run (thousands of hits), the structural sites far less often.
fn p_for(site: &str) -> f64 {
    match site {
        "apply_run" => 0.02,
        _ => 0.25,
    }
}

/// One round's batch: two super-hot sources taking clustered ranges (LIA
/// block overflows → vertical moves and retrains), a band of medium sources
/// hovering around the tier thresholds, and a cold tail.
fn gen_batch(rng: &mut SmallRng) -> Vec<Edge> {
    let mut b = Vec::new();
    for src in 0..2u32 {
        let center = rng.gen_range(0..3_000u32);
        for j in 0..80 {
            b.push(Edge::new(src, center + j));
        }
        for _ in 0..20 {
            b.push(Edge::new(src, rng.gen_range(0..4_000)));
        }
    }
    for src in 2..40u32 {
        for _ in 0..10 {
            b.push(Edge::new(src, rng.gen_range(0..200)));
        }
    }
    for _ in 0..60 {
        b.push(Edge::new(
            rng.gen_range(40..N as u32),
            rng.gen_range(0..N as u32),
        ));
    }
    b
}

fn shadow_neighbors(shadow: &[BTreeSet<u32>], v: VertexId) -> Vec<u32> {
    shadow[v as usize].iter().copied().collect()
}

/// Runs the differential workload with `site` armed during every batch,
/// asserting containment + exactness each round and repairing quarantined
/// vertices from the oracle. Returns the per-round quarantine lists.
///
/// Caller must hold [`LOCK`].
fn run_workload(site: &str, seed: u64) -> Vec<Vec<VertexId>> {
    quiet_failpoint_panics();
    failpoints::reset();
    let mut g = LsGraph::with_config(N, cfg());
    let mut shadow: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); N];
    // The workload stream is seeded independently of the failpoint seed so
    // every (site, seed) combination sees the same update sequence.
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let mut history = Vec::new();
    let mut total_quarantines = 0u64;
    let mut total_fired = 0u64;

    for round in 0..ROUNDS {
        let batch = gen_batch(&mut rng);
        let deleting = round % 3 == 2;
        failpoints::configure(
            site,
            FailMode::Probability {
                p: p_for(site),
                seed: seed.wrapping_add(round as u64),
            },
        );
        let outcome = if deleting {
            g.try_delete_batch(&batch).unwrap()
        } else {
            g.try_insert_batch(&batch).unwrap()
        };
        total_fired += failpoints::fired(site);
        // Disarm while we inspect and repair: `repair_vertex` rebuilds
        // containers and must not itself be faulted.
        failpoints::configure(site, FailMode::Off);

        // Every vertex was healthy at batch start (repaired last round).
        assert_eq!(outcome.skipped_quarantined, 0, "round {round}");

        // The oracle applies the full batch fault-free.
        for e in &batch {
            if deleting {
                shadow[e.src as usize].remove(&e.dst);
            } else {
                shadow[e.src as usize].insert(e.dst);
            }
        }

        g.validate_invariants()
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(g.quarantined_vertices(), outcome.quarantined);
        let q: BTreeSet<VertexId> = outcome.quarantined.iter().copied().collect();
        let mut expect_edges = 0;
        for v in 0..N as VertexId {
            if q.contains(&v) {
                assert!(g.is_quarantined(v));
                assert_eq!(g.degree(v), 0, "quarantined vertex {v} round {round}");
            } else {
                assert_eq!(
                    g.neighbors(v),
                    shadow_neighbors(&shadow, v),
                    "vertex {v} diverged from oracle in round {round}"
                );
                expect_edges += shadow[v as usize].len();
            }
        }
        assert_eq!(g.num_edges(), expect_edges, "num_edges round {round}");

        total_quarantines += outcome.quarantined.len() as u64;
        for &v in &outcome.quarantined {
            let ns = shadow_neighbors(&shadow, v);
            let installed = g.repair_vertex(v, &ns).unwrap();
            assert_eq!(installed, ns.len());
            assert!(!g.is_quarantined(v));
            assert_eq!(g.neighbors(v), ns);
        }
        g.validate_invariants().unwrap();
        assert_eq!(
            g.num_edges(),
            shadow.iter().map(BTreeSet::len).sum::<usize>(),
            "post-repair accounting round {round}"
        );
        history.push(outcome.quarantined);
    }

    assert!(
        total_fired >= 1,
        "site {site} seed {seed}: no fault ever fired — workload misses the site"
    );
    assert_eq!(
        total_quarantines, total_fired,
        "each fire quarantines one vertex"
    );
    let snap = g.struct_snapshot();
    assert_eq!(snap.apply_run_panics, total_quarantines);
    assert_eq!(snap.vertices_quarantined, total_quarantines);
    assert_eq!(snap.vertices_repaired, total_quarantines);
    failpoints::reset();
    history
}

fn run_site_under_seeds(site: &str) {
    let _l = lock();
    for seed in 1..=4 {
        run_workload(site, seed);
    }
}

#[test]
fn faults_at_ria_rebuild_are_contained() {
    run_site_under_seeds("ria_rebuild");
}

#[test]
fn faults_at_lia_retrain_are_contained() {
    run_site_under_seeds("lia_retrain");
}

#[test]
fn faults_at_hitree_vertical_are_contained() {
    run_site_under_seeds("hitree_vertical");
}

#[test]
fn faults_at_tier_upgrade_are_contained() {
    run_site_under_seeds("tier_upgrade");
}

#[test]
fn faults_at_apply_run_are_contained() {
    run_site_under_seeds("apply_run");
}

/// The `spill_downgrade` site fires on the delete path, when a spill
/// container shrinks below half its tier threshold and rebuilds into a
/// smaller tier. The random workload rarely shrinks a vertex that far, so
/// this drives it deterministically: grow one vertex into the HITree tier,
/// then delete it down through the downgrade point.
#[test]
fn faults_at_spill_downgrade_are_contained() {
    let _l = lock();
    quiet_failpoint_panics();
    failpoints::reset();
    let mut g = LsGraph::with_config(16, cfg());
    let grow: Vec<Edge> = (1..=100u32).map(|j| Edge::new(0, j % 400 + 1)).collect();
    let grow: Vec<Edge> = {
        let mut v = grow;
        v.sort_by_key(|e| e.dst);
        v.dedup_by_key(|e| e.dst);
        v
    };
    g.insert_batch(&grow);
    g.insert_batch(&[Edge::new(1, 2), Edge::new(1, 3)]);
    let degree0 = g.degree(0);
    assert!(
        degree0 > 64,
        "vertex 0 must sit in the HITree tier (m = 64)"
    );

    // Deleting well past the half-threshold point guarantees the armed
    // downgrade is reached mid-batch.
    let shrink: Vec<Edge> = grow[..80].to_vec();
    failpoints::configure("spill_downgrade", FailMode::Nth(1));
    let outcome = g.try_delete_batch(&shrink).unwrap();
    assert_eq!(failpoints::fired("spill_downgrade"), 1, "Nth fires once");
    failpoints::configure("spill_downgrade", FailMode::Off);
    assert_eq!(outcome.quarantined, vec![0]);
    assert_eq!(outcome.edges_lost, degree0, "whole adjacency dropped");
    assert_eq!(g.degree(0), 0);
    assert!(g.is_quarantined(0));
    // Blast radius is exactly vertex 0.
    assert_eq!(g.neighbors(1), vec![2, 3]);
    assert_eq!(g.num_edges(), 2);
    g.validate_invariants().unwrap();
    let snap = g.struct_snapshot();
    assert_eq!(snap.apply_run_panics, 1);
    assert_eq!(snap.vertices_quarantined, 1);

    // Repair from the oracle (the full batch applied: survivors only).
    let survivors: Vec<u32> = grow[80..].iter().map(|e| e.dst).collect();
    assert_eq!(g.repair_vertex(0, &survivors), Ok(survivors.len()));
    assert_eq!(g.neighbors(0), survivors);

    // Disarmed, the same shrink pattern downgrades for real.
    let before = g.struct_snapshot().tier_downgrades;
    g.insert_batch(&grow);
    g.delete_batch(&grow[..80]);
    assert!(
        g.struct_snapshot().tier_downgrades > before,
        "the disarmed path must actually downgrade"
    );
    assert_eq!(g.neighbors(0), survivors);
    g.check_invariants();
    failpoints::reset();
}

#[test]
fn same_seed_reproduces_the_same_quarantine_sequence() {
    let _l = lock();
    // Pin to one worker so per-site hit order is interleaving-free on any
    // machine (the differential assertions above don't need this; exact
    // sequence equality does).
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let a = pool.install(|| run_workload("ria_rebuild", 5));
    let b = pool.install(|| run_workload("ria_rebuild", 5));
    assert_eq!(a, b, "same seed must reproduce the same fault pattern");
    assert!(a.iter().any(|round| !round.is_empty()));
}

#[test]
fn nth_mode_quarantines_exactly_one_deterministic_run() {
    let _l = lock();
    quiet_failpoint_panics();
    let one_shot = || {
        failpoints::reset();
        let mut g = LsGraph::with_config(4, cfg());
        failpoints::configure("apply_run", FailMode::Nth(1));
        // A single-source batch has exactly one run, so the first hit is
        // deterministic regardless of scheduling.
        let outcome = g
            .try_insert_batch(&[Edge::new(2, 0), Edge::new(2, 1), Edge::new(2, 3)])
            .unwrap();
        failpoints::reset();
        (outcome, g.num_edges())
    };
    let (o1, m1) = one_shot();
    let (o2, m2) = one_shot();
    assert_eq!(o1, o2);
    assert_eq!(o1.quarantined, vec![2]);
    assert_eq!(o1.applied, 0);
    assert_eq!(o1.edges_lost, 0, "vertex was empty before the batch");
    assert_eq!((m1, m2), (0, 0));
}

#[test]
fn quarantined_sources_are_skipped_until_repaired() {
    let _l = lock();
    quiet_failpoint_panics();
    failpoints::reset();
    let mut g = LsGraph::with_config(4, cfg());
    g.insert_batch(&[Edge::new(0, 1), Edge::new(0, 2)]);
    failpoints::configure("apply_run", FailMode::Nth(1));
    let outcome = g.try_insert_batch(&[Edge::new(0, 3)]).unwrap();
    failpoints::reset();
    assert_eq!(outcome.quarantined, vec![0]);
    assert_eq!(outcome.edges_lost, 2, "pre-batch adjacency was dropped");
    assert_eq!(g.num_edges(), 0);
    assert_eq!(g.degree(0), 0);

    // With the site disarmed, batches touching the quarantined source skip
    // it (and report that) while other sources proceed normally.
    let outcome = g
        .try_insert_batch(&[Edge::new(0, 3), Edge::new(1, 3)])
        .unwrap();
    assert_eq!(outcome.skipped_quarantined, 1);
    assert_eq!(outcome.applied, 1);
    assert_eq!(g.degree(0), 0);
    assert!(g.has_edge(1, 3));
    assert!(g.is_quarantined(0));
    // Deletes skip it too.
    let outcome = g.try_delete_batch(&[Edge::new(0, 1)]).unwrap();
    assert_eq!(outcome.skipped_quarantined, 1);

    // Repair restores the vertex and it resumes accepting updates.
    assert_eq!(g.repair_vertex(0, &[2, 1, 2]), Ok(2));
    assert!(!g.is_quarantined(0));
    assert_eq!(g.neighbors(0), vec![1, 2]);
    assert_eq!(g.num_edges(), 3);
    assert_eq!(g.insert_batch(&[Edge::new(0, 3)]), 1);
    g.check_invariants();

    // Repair misuse is rejected as values.
    assert_eq!(g.repair_vertex(1, &[]), Err(GraphError::NotQuarantined(1)));
    assert_eq!(
        g.repair_vertex(99, &[]),
        Err(GraphError::VertexOutOfRange {
            vertex: 99,
            num_vertices: 4
        })
    );
}

/// A killed run and a surviving one on the same directory page, under a held
/// snapshot: the batch copies the page once for both, the victim's block is
/// reset in the copy, its page-mate's run commits there, and the snapshot
/// keeps reading the displaced page — both vertices as they were.
#[test]
fn killed_run_spares_its_page_mate_and_the_held_snapshot() {
    let _l = lock();
    quiet_failpoint_panics();
    // Vertices 0 and 1 share a page at any page size, and a page's runs are
    // one task taken in source order, so `Nth` picks the victim.
    for (nth, victim, mate) in [(1, 0u32, 1u32), (2, 1, 0)] {
        failpoints::reset();
        let mut g = LsGraph::with_config(4, cfg());
        g.insert_batch(&[Edge::new(0, 2), Edge::new(0, 3), Edge::new(1, 2)]);
        let pre = [vec![2, 3], vec![2]];
        let post = [vec![1, 2, 3], vec![2, 3]];
        let before = g.snapshot();
        failpoints::configure("apply_run", FailMode::Nth(nth));
        let outcome = g
            .try_insert_batch(&[Edge::new(0, 1), Edge::new(1, 3)])
            .unwrap();
        failpoints::reset();
        assert_eq!(outcome.quarantined, vec![victim]);
        assert_eq!(outcome.applied, 1, "victim {victim}");
        assert_eq!(outcome.edges_lost, pre[victim as usize].len());
        assert!(g.is_quarantined(victim) && !g.is_quarantined(mate));
        assert_eq!(g.degree(victim), 0);
        assert_eq!(g.neighbors(mate), post[mate as usize], "victim {victim}");
        assert_eq!(g.num_edges(), post[mate as usize].len());
        g.check_invariants();
        for v in [0, 1] {
            assert_eq!(before.neighbors(v), pre[v as usize], "victim {victim}");
        }
        assert_eq!(before.num_edges(), 3);
        assert!(before.quarantined_vertices().is_empty());
        before.check_invariants();
    }
}

/// Applies `batch`'s runs in source order to standalone blocks, recording
/// into `stats`, the way the batch pipeline applies each run to its vertex's
/// block; returns the sources whose run panicked.
fn replay_runs(
    blocks: &mut BTreeMap<u32, VertexBlock>,
    batch: &[Edge],
    cfg: &Config,
    stats: &StructStats,
) -> Vec<u32> {
    let mut keys: Vec<(u32, u32)> = batch.iter().map(|e| (e.src, e.dst)).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut killed = Vec::new();
    for run in keys.chunk_by(|a, b| a.0 == b.0) {
        let vb = blocks.entry(run[0].0).or_default();
        let apply = || {
            for &(_, u) in run {
                vb.insert(u, cfg, stats);
            }
        };
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(apply)).is_err() {
            killed.push(run[0].0);
        }
    }
    killed
}

/// A run killed mid-run has recorded part of its movement into its task's
/// counters; that part reaches the graph's counters exactly once, next to
/// every other run's, whatever the width. The expectation replays every run
/// on its own block, the killed one under the same injection.
#[test]
fn killed_run_movement_is_absorbed_exactly_once() {
    let _l = lock();
    quiet_failpoint_panics();
    let cfg = Config::default();
    // Hub 0 is a RIA; sources 1..150 stay in the array tier, spread over
    // several pages, and never reach `ria_rebuild`.
    let light = |base: u32| {
        (1..150u32).flat_map(move |s| (0..10).map(move |k| Edge::new(s, s * 3 + base + k)))
    };
    let setup: Vec<Edge> = (0..400u32)
        .map(|j| Edge::new(0, j * 10))
        .chain(light(0))
        .collect();
    // A narrow band in the middle of the hub forces repeated rebuilds; the
    // second one is killed.
    let killed: Vec<Edge> = (1_000..1_400u32)
        .filter(|d| !d.is_multiple_of(10))
        .map(|d| Edge::new(0, d))
        .chain(light(100))
        .collect();

    failpoints::reset();
    let expect = StructStats::new();
    let mut blocks = BTreeMap::new();
    assert!(replay_runs(&mut blocks, &setup, &cfg, &expect).is_empty());
    failpoints::configure("ria_rebuild", FailMode::Nth(2));
    assert_eq!(replay_runs(&mut blocks, &killed, &cfg, &expect), vec![0]);
    assert_eq!(failpoints::fired("ria_rebuild"), 1);
    expect.record_apply_run_panic();
    expect.record_vertex_quarantined();
    let expect = expect.snapshot().deterministic_fields();

    let at_width = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            failpoints::reset();
            let mut g = LsGraph::with_config(200, cfg);
            g.insert_batch(&setup);
            failpoints::configure("ria_rebuild", FailMode::Nth(2));
            let outcome = g.try_insert_batch(&killed).unwrap();
            assert_eq!(failpoints::fired("ria_rebuild"), 1, "{threads} threads");
            failpoints::reset();
            assert_eq!(outcome.quarantined, vec![0], "{threads} threads");
            let got = g.struct_snapshot().deterministic_fields();
            assert_eq!(got, expect, "{threads} threads");
            got
        })
    };
    assert_eq!(at_width(1), at_width(8));
}

/// The dirty set across a quarantine: the run that panicked is dirty (its
/// block was reset), later runs skipped for quarantine mark nothing, and the
/// repair marks the vertex again.
#[test]
fn dirty_set_tracks_a_quarantined_run_exactly() {
    let _l = lock();
    quiet_failpoint_panics();
    failpoints::reset();
    let mut g = LsGraph::with_config(8, cfg());
    g.insert_batch(&[Edge::new(0, 1), Edge::new(5, 2)]);
    assert_eq!(g.take_dirty_vertices(), vec![0, 5]);
    failpoints::configure("apply_run", FailMode::Nth(1));
    let outcome = g.try_insert_batch(&[Edge::new(5, 3)]).unwrap();
    failpoints::reset();
    assert_eq!(outcome.quarantined, vec![5]);
    assert_eq!(g.take_dirty_vertices(), vec![5]);
    let outcome = g
        .try_insert_batch(&[Edge::new(5, 4), Edge::new(6, 4)])
        .unwrap();
    assert_eq!(outcome.skipped_quarantined, 1);
    assert_eq!((g.dirty_count(), g.dirty_vertices()), (1, vec![6]));
    g.try_delete_batch(&[Edge::new(5, 2)]).unwrap();
    assert_eq!(g.dirty_vertices(), vec![6]);
    g.repair_vertex(5, &[2]).unwrap();
    assert_eq!(g.take_dirty_vertices(), vec![5, 6]);
    assert_eq!(g.dirty_count(), 0);
}

#[test]
fn faults_at_snapshot_flip_leave_live_graph_and_snapshots_intact() {
    let _l = lock();
    quiet_failpoint_panics();
    for seed in 1..=4u64 {
        failpoints::reset();
        let mut rng = SmallRng::seed_from_u64(0xF11B + seed);
        let mut g = LsGraph::with_config(N, cfg());
        let mut shadow: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); N];
        let batch = gen_batch(&mut rng);
        g.insert_batch(&batch);
        for e in &batch {
            shadow[e.src as usize].insert(e.dst);
        }
        let survivor = g.snapshot();
        let frozen: Vec<Vec<u32>> = (0..N as u32).map(|v| g.neighbors(v)).collect();
        let frozen_m = g.num_edges();

        // The flip itself faults: the attempt must vanish without a trace.
        failpoints::configure("snapshot_flip", FailMode::Nth(1));
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.snapshot()));
        assert!(attempt.is_err(), "seed {seed}: armed flip must panic");
        assert_eq!(failpoints::fired("snapshot_flip"), 1, "fires exactly once");
        failpoints::configure("snapshot_flip", FailMode::Off);

        // Live graph intact and oracle-equal.
        g.validate_invariants().unwrap();
        for v in 0..N as VertexId {
            assert_eq!(g.neighbors(v), shadow_neighbors(&shadow, v), "seed {seed}");
        }
        // The pre-fault snapshot survived untouched.
        survivor.validate_invariants().unwrap();
        assert_eq!(survivor.num_edges(), frozen_m);
        for v in 0..N as VertexId {
            assert_eq!(survivor.neighbors(v), frozen[v as usize], "seed {seed}");
        }
        // The failed attempt never registered: only the survivor was taken,
        // and snapshotting still works afterwards.
        assert_eq!(g.struct_snapshot().snapshots_taken, 1, "seed {seed}");
        let after = g.snapshot();
        g.insert_batch(&gen_batch(&mut rng));
        assert_eq!(after.num_edges(), frozen_m, "seed {seed}");
        after.validate_invariants().unwrap();

        drop((survivor, after));
        assert_eq!(g.struct_snapshot().snapshots_retired, 2, "seed {seed}");
    }
    failpoints::reset();
}

#[test]
fn try_from_edges_contains_bulk_load_faults() {
    let _l = lock();
    quiet_failpoint_panics();
    failpoints::reset();
    let mut edges = Vec::new();
    for src in 0..50u32 {
        for j in 0..30u32 {
            edges.push(Edge::new(src, (src * 7 + j * 3) % 400));
        }
    }
    let mut expected: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); 400];
    for e in &edges {
        expected[e.src as usize].insert(e.dst);
    }
    failpoints::configure("apply_run", FailMode::Probability { p: 0.2, seed: 9 });
    let (mut g, outcome) = LsGraph::try_from_edges(400, &edges, cfg()).unwrap();
    failpoints::reset();
    assert!(
        !outcome.quarantined.is_empty(),
        "p=0.2 over 50 build runs should fault at least once"
    );
    g.validate_invariants().unwrap();
    let q: BTreeSet<VertexId> = outcome.quarantined.iter().copied().collect();
    let mut live_edges = 0;
    for v in 0..400u32 {
        if q.contains(&v) {
            assert_eq!(g.degree(v), 0);
            assert!(g.is_quarantined(v));
        } else {
            assert_eq!(
                g.neighbors(v),
                expected[v as usize].iter().copied().collect::<Vec<_>>()
            );
            live_edges += expected[v as usize].len();
        }
    }
    assert_eq!(g.num_edges(), live_edges);
    assert_eq!(outcome.applied, live_edges);
    let lost: usize = outcome
        .quarantined
        .iter()
        .map(|&v| expected[v as usize].len())
        .sum();
    assert_eq!(outcome.edges_lost, lost);

    // Repair every casualty; the load converges to the fault-free graph.
    for &v in &outcome.quarantined {
        let ns: Vec<u32> = expected[v as usize].iter().copied().collect();
        assert_eq!(g.repair_vertex(v, &ns), Ok(ns.len()));
    }
    g.check_invariants();
    assert_eq!(
        g.num_edges(),
        expected.iter().map(BTreeSet::len).sum::<usize>()
    );
}

#[test]
fn killed_sampler_never_corrupts_metrics_stream_or_engine_counters() {
    let _l = lock();
    quiet_failpoint_panics();
    failpoints::reset();

    let path = std::env::temp_dir().join(format!(
        "lsgraph_fault_metrics_{}.jsonl",
        std::process::id()
    ));
    lsgraph_api::metrics::stream_to_file(&path).unwrap();
    assert!(lsgraph_api::metrics::write_header("fault", 2).unwrap());

    let mut g = LsGraph::with_config(N, cfg());
    let mut rng = SmallRng::seed_from_u64(0xFA17);
    g.try_insert_batch(&gen_batch(&mut rng)).unwrap();

    let mut registry = lsgraph_api::MetricsRegistry::new();
    registry.register_struct_stats("lsgraph", g.stats_handle());
    registry.register_latency_stats("lsgraph", g.latency_handle());
    let mut sampler = lsgraph_api::Sampler::new(std::sync::Arc::new(registry), "fault/m=64");

    // Tick 0 succeeds while the site is disarmed.
    assert!(sampler.tick(&[("writer_eps", 1.0)]).unwrap());
    assert_eq!(sampler.ticks(), 1);

    // Arm the site and kill the next tick. The failpoint is evaluated
    // before the registry is read or any byte written, so the panic must
    // leave both the engine counters and the JSONL prefix untouched.
    let before = g.stats_handle().snapshot();
    failpoints::configure("metrics_sample", FailMode::Nth(1));
    let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = sampler.tick(&[("writer_eps", 1.0)]);
    }));
    assert!(killed.is_err(), "armed metrics_sample tick must panic");
    assert_eq!(failpoints::fired("metrics_sample"), 1);
    assert_eq!(sampler.ticks(), 1, "killed tick must not count");
    assert_eq!(
        g.stats_handle().snapshot(),
        before,
        "a killed sampler tick must not perturb engine counters"
    );
    failpoints::reset();

    // Sampling resumes cleanly, and the engine keeps working underneath.
    g.try_insert_batch(&gen_batch(&mut rng)).unwrap();
    assert!(sampler.tick(&[("writer_eps", 0.0)]).unwrap());
    assert_eq!(sampler.ticks(), 2);
    let samples = lsgraph_api::metrics::finish_stream().unwrap();
    assert_eq!(samples, Some(2));
    g.validate_invariants().unwrap();

    // The stream on disk is whole lines only: a header plus exactly the
    // two surviving samples, no torn partial line from the killed tick.
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "header + 2 samples, got: {text}");
    assert!(lines[0].contains("\"schema\":\"lsgraph-metrics-v1\""));
    assert!(lines[0].contains("\"samples_expected\":2"));
    for (i, line) in lines[1..].iter().enumerate() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "torn line: {line}"
        );
        assert!(line.contains(&format!("\"tick\":{i}")));
        assert!(line.contains("\"cell\":\"fault/m=64\""));
        assert!(line.contains("lsgraph_vb_inline_hits"));
    }
}
