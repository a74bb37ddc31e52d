//! The seed sets and fixed traces that arm failpoints, and the exact-counter
//! fault tests that drive the engine directly through the shared lock and
//! model (built only with `--features failpoints`).

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use lsgraph::{Config, DynamicGraph, Edge, Graph, LsGraph, NeighborSet};
use lsgraph_api::{configure_failpoint, failpoint_fired, reset_failpoints, FailMode, FailMode::*};
use lsgraph_core::{BlockCtx, VertexBlock};
use lsgraph_persist::{delta_file, Store};
use rand::{rngs::SmallRng, Rng, SeedableRng};

use crate::harness::{batch, check_set, lock, named, Op, Op::*, Setup, TempDir, CORE_SITES};
use crate::model::{assert_reads, edges, Model};
use crate::{chance, stream};

/// One round's batch: two super-hot sources taking clustered ranges (LIA
/// block overflows, vertical moves, retrains), a band of medium sources
/// around the tier thresholds, and a cold tail.
fn core_batch(rng: &mut SmallRng) -> Vec<(u32, u32)> {
    let mut b = Vec::new();
    for src in 0..2u32 {
        let center = rng.gen_range(0..3_000u32);
        b.extend((0..80).map(|j| (src, center + j)));
        b.extend((0..20).map(|_| (src, rng.gen_range(0..4_000))));
    }
    for src in 2..40u32 {
        b.extend((0..10).map(|_| (src, rng.gen_range(0..200))));
    }
    b.extend((0..60).map(|_| (rng.gen_range(40..200), rng.gen_range(0..200))));
    b
}

/// Twelve rounds, `site` armed for each batch (every third a delete) and
/// every casualty repaired from the model. The stream is seeded apart from
/// the failpoint seed, so every (site, seed) sees the same batches.
fn core_trace(site: &'static str, seed: u64) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    // `apply_run` is evaluated once per run, the structural sites far less:
    // a run rebuilds a container at most once, so a hub's whole round
    // reaches `lia_retrain` once at most.
    let p = if site == "apply_run" { 0.02 } else { 0.75 };
    (0..12u64)
        .flat_map(|round| {
            let b = batch(round % 3 != 2, core_batch(&mut rng));
            [Arm(site, chance(p, seed + round)), b, Disarm(site), Repair]
        })
        .collect()
}

#[test]
fn seed_set_core_faults() {
    for site in CORE_SITES {
        let sims = check_set(&format!("core_faults/{site}"), "core", 1..=4, |seed| {
            core_trace(site, seed)
        });
        assert!(sims.iter().all(|s| s.fires.contains_key(site)), "{site}");
    }
    // A killed flip vanishes: live graph and held snapshots intact, the
    // attempt never counted, and snapshotting works afterwards.
    let flips = check_set("core_faults/snapshot_flip", "core", 1..=4, |seed| {
        let mut rng = SmallRng::seed_from_u64(0xF11B + seed);
        let mut ops = vec![Insert(core_batch(&mut rng)), Snap];
        ops.extend([Arm("snapshot_flip", Nth(1)), Snap, Disarm("snapshot_flip")]);
        ops.extend([Snap, Insert(core_batch(&mut rng))]);
        ops
    });
    assert!(flips.iter().all(|s| s.fires["snapshot_flip"] == 1));
}

/// Apply faults quarantine vertices after their batch was logged; every
/// checkpoint, taken with the quarantine live and again after the repair,
/// must load back as the live graph, and the last one covers everything.
#[test]
fn seed_set_crash_quarantine() {
    let sims = check_set("crash_quarantine", "crash_full", 1..=4, |seed| {
        let round = |(i, b)| {
            let kill = Arm("apply_run", chance(0.02, seed * 1000 + i as u64));
            [kill, b, Disarm("apply_run"), Checkpoint, Repair, Checkpoint]
        };
        let ops = stream().into_iter().enumerate().flat_map(round);
        ops.chain([Crash]).collect()
    });
    for sim in sims {
        assert!(sim.fires.contains_key("apply_run"), "vacuous");
        assert_eq!(sim.last_report.frames_replayed, 0);
    }
}

/// An apply fault during WAL replay is contained like any other.
#[test]
fn trace_apply_faults_during_replay_are_contained() {
    let mut ops = stream();
    ops.extend([Fsync, Arm("apply_run", Nth(40)), Crash, Disarm("apply_run")]);
    let sim = named("replay_faults", "crash_full", ops);
    assert_eq!(sim.last_report.frames_replayed, 30);
    assert!(!sim.model.quarantined.is_empty(), "40th run");
}

/// `spill_downgrade` fires on the delete path when a spill shrinks below
/// half its tier; grow one vertex into the HITree tier, then delete it down
/// through the downgrade, armed and then disarmed.
#[test]
fn trace_spill_downgrade_is_contained() {
    let grow: Vec<(u32, u32)> = (2..102).map(|d| (0, d)).collect();
    let (shrink, kill) = (Delete(grow[..80].to_vec()), Arm("spill_downgrade", Nth(1)));
    let mut ops = vec![Insert(grow.clone()), Insert(vec![(1, 2), (1, 3)])];
    ops.extend([kill, shrink.clone(), Disarm("spill_downgrade"), Repair]);
    ops.extend([Insert(grow), shrink]);
    let sim = named("spill_downgrade", "core", ops);
    assert_eq!(sim.fires.get("spill_downgrade"), Some(&1));
    assert_eq!(sim.quarantine_log[2], vec![0]);
    assert!(sim.stats.tier_downgrades > 0, "no downgrade");
}

/// Batches and deletes touching a quarantined source skip it (and say so)
/// until the repair; other sources proceed. A single-source batch has one
/// run, so `Nth(1)` kills it on any machine, the same way every time.
#[test]
fn trace_quarantined_sources_are_skipped_until_repaired() {
    let ops = || {
        let mut ops = vec![Insert(vec![(0, 1), (0, 2)]), Arm("apply_run", Nth(1))];
        ops.extend([Insert(vec![(0, 3)]), Disarm("apply_run")]);
        ops.extend([Insert(vec![(0, 3), (1, 3)]), Delete(vec![(0, 1)])]);
        ops.extend([Repair, Insert(vec![(0, 3)])]);
        ops
    };
    let log = named("skip_quarantined", "core", ops()).quarantine_log;
    assert_eq!(log, [vec![], vec![0], vec![], vec![], vec![]]);
    assert_eq!(named("skip_quarantined", "core", ops()).quarantine_log, log);
}

/// A killed run and a surviving one on the same page under a held snapshot:
/// the victim resets in the page's copy, its page-mate commits there, and
/// the snapshot keeps reading the displaced page. A page's runs are one
/// task in source order, so `Nth` picks the victim.
#[test]
fn trace_killed_run_spares_its_page_mate_and_the_held_snapshot() {
    for (nth, victim) in [(1, 0), (2, 1)] {
        let mut ops = vec![Insert(vec![(0, 2), (0, 3), (1, 2)]), Snap];
        ops.extend([Arm("apply_run", Nth(nth)), Insert(vec![(0, 1), (1, 3)])]);
        ops.push(Disarm("apply_run"));
        let sim = named(&format!("page_mate_{nth}"), "core", ops);
        assert_eq!(sim.quarantine_log[1], vec![victim]);
    }
}

/// Pinned to one worker, the same seed reproduces the same quarantines.
#[test]
fn same_seed_reproduces_the_same_quarantine_sequence() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let trace = || core_trace("ria_rebuild", 5);
    let run = || pool.install(|| named("same_seed", "core", trace()).quarantine_log);
    let a = run();
    assert_eq!(a, run(), "same seed, same fault pattern");
    assert!(a.iter().any(|round| !round.is_empty()));
}

type Blocks = BTreeMap<u32, VertexBlock>;

/// Applies `batch`'s runs in source order to standalone blocks, recording
/// into `ctx`, the way the batch pipeline applies each run to its vertex's
/// block; returns the sources whose run panicked.
fn replay_runs(blocks: &mut Blocks, batch: &[Edge], ctx: &BlockCtx) -> Vec<u32> {
    let keys = BTreeSet::from_iter(batch.iter().map(|e| (e.src, e.dst)));
    let keys: Vec<(u32, u32)> = keys.into_iter().collect();
    let killed = keys.chunk_by(|a, b| a.0 == b.0).filter(|run| {
        let vb = blocks.entry(run[0].0).or_default();
        let dsts: Vec<u32> = run.iter().map(|&(_, u)| u).collect();
        let apply = || vb.insert_run(&dsts, ctx);
        catch_unwind(AssertUnwindSafe(apply)).is_err()
    });
    killed.map(|run| run[0].0).collect()
}

/// A run killed mid-run has recorded part of its movement into its task's
/// counters; that part reaches the graph's counters exactly once, next to
/// every other run's, whatever the width. The expectation replays every run
/// on its own block, the killed one under the same injection.
#[test]
fn killed_run_movement_is_absorbed_exactly_once() {
    let _l = lock();
    // Hub 0 is a RIA; sources 1..150 stay in the array tier, spread over
    // several pages, and never reach `ria_rebuild`.
    let light = |base: u32| {
        (1..150u32).flat_map(move |s| (0..10).map(move |k| Edge::new(s, s * 3 + base + k)))
    };
    let setup: Vec<Edge> = (0..400u32)
        .map(|j| Edge::new(0, j * 10))
        .chain(light(0))
        .collect();
    // A narrow band in the middle of the hub overflows its blocks: the run
    // fills their gaps and ripples into their neighbours until no donor is
    // left, then rebuilds once, and that rebuild is killed.
    let killed: Vec<Edge> = (1_000..1_400u32)
        .filter(|d| !d.is_multiple_of(10))
        .map(|d| Edge::new(0, d))
        .chain(light(100))
        .collect();

    reset_failpoints();
    let expect = BlockCtx::default();
    let mut blocks = BTreeMap::new();
    assert!(replay_runs(&mut blocks, &setup, &expect).is_empty());
    configure_failpoint("ria_rebuild", FailMode::Nth(1));
    let ripples = expect.stats.ria_ripples.get();
    assert_eq!(replay_runs(&mut blocks, &killed, &expect), vec![0]);
    assert_eq!(failpoint_fired("ria_rebuild"), 1);
    assert!(
        expect.stats.ria_ripples.get() > ripples,
        "the run moved ids first"
    );
    expect.stats.apply_run_panics.record(1);
    expect.stats.vertices_quarantined.record(1);
    let expect = expect.stats.snapshot().deterministic_fields();

    let at_width = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            reset_failpoints();
            let mut g = LsGraph::with_config(200, Config::default());
            g.insert_batch(&setup);
            configure_failpoint("ria_rebuild", FailMode::Nth(1));
            let outcome = g.try_insert_batch(&killed).unwrap();
            assert_eq!(failpoint_fired("ria_rebuild"), 1, "{threads} threads");
            reset_failpoints();
            assert_eq!(outcome.quarantined, vec![0], "{threads} threads");
            let got = g.struct_snapshot().deterministic_fields();
            assert_eq!(got, expect, "{threads} threads");
            got
        })
    };
    assert_eq!(at_width(1), at_width(8));
}

/// The records of delta image `path`, as (vertex, degree): the body's nine
/// header words (config, parent, totals, WAL position), the quarantine list,
/// then `u32 id | u8 tag | u32 degree | ids…` per record.
fn delta_records(path: &Path) -> Vec<(u32, u32)> {
    let raw = std::fs::read(path).unwrap();
    let body = lsgraph_gen::parse_frame(&raw[8..]).unwrap().0;
    let word = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().unwrap()) as usize;
    let id = |at: usize| u32::from_le_bytes(body[at..at + 4].try_into().unwrap());
    let mut at = 9 * 8;
    at += 8 + 4 * word(at);
    let records = word(at);
    at += 8;
    (0..records)
        .map(|_| {
            let (v, degree) = (id(at), id(at + 5));
            at += 9 + 4 * degree as usize;
            (v, degree)
        })
        .collect()
}

/// What a store's deltas hold across a quarantine: the vertex whose run
/// panicked is in the next delta, empty and quarantined; a run skipped for
/// quarantine adds nothing; the repair lands in the delta after. A store
/// reopened over a WAL tail writes exactly the replayed vertices into its
/// next delta, and the chain reloads. Every recovery reads the model,
/// `num_vertices` included.
#[test]
fn deltas_track_a_quarantined_run_exactly() {
    let _l = lock();
    reset_failpoints();
    let setup = Setup::named("chain");
    let dir = TempDir::new("delta-quarantine", 0);
    let open = || Store::open_with(&dir.0, setup.n, setup.cfg, setup.opts).unwrap();
    let mut model = Model::new(setup.n);
    let (mut store, _) = open();
    // Checkpoints, then recovers from the image just written.
    let checkpoint = |mut store: Store, model: &Model| {
        let meta = store.checkpoint().unwrap();
        drop(store);
        let (store, report) = open();
        assert_eq!(
            (report.checkpoint_loaded, report.frames_replayed),
            (Some(meta.id), 0)
        );
        assert_reads(store.graph().view(), &model.frozen(), "recovered");
        (store, delta_file(&dir.0, meta.id))
    };
    let insert = |store: &mut Store, model: &mut Model, pairs: &[(u32, u32)]| {
        let batch = edges(pairs);
        let outcome = store.insert_batch(&batch).unwrap();
        model.apply(lsgraph::BatchKind::Insert, &batch);
        outcome
    };
    insert(&mut store, &mut model, &[(0, 1), (5, 2)]);
    let (mut store, full) = checkpoint(store, &model);
    assert!(!full.exists(), "a chain starts full");

    configure_failpoint("apply_run", FailMode::Nth(1));
    let outcome = insert(&mut store, &mut model, &[(5, 3)]);
    reset_failpoints();
    assert_eq!(outcome.quarantined, vec![5]);
    model.quarantined.insert(5);
    let (mut store, delta) = checkpoint(store, &model);
    assert_eq!(delta_records(&delta), [(5, 0)]);
    assert!(store.graph().is_quarantined(5));

    let outcome = insert(&mut store, &mut model, &[(5, 4), (6, 4)]);
    assert_eq!(outcome.skipped_quarantined, 1);
    let batch = edges(&[(5, 2)]);
    store.delete_batch(&batch).unwrap();
    model.apply(lsgraph::BatchKind::Delete, &batch);
    let (mut store, delta) = checkpoint(store, &model);
    assert_eq!(delta_records(&delta), [(6, 1)]);

    model.quarantined.remove(&5);
    let ns = model.masked(5);
    store.graph_mut().repair_vertex(5, &ns).unwrap();
    let (mut store, delta) = checkpoint(store, &model);
    assert_eq!(delta_records(&delta), [(5, 2)]);

    // A WAL tail, replayed on reopen, is the next delta: vertex 9 grows the
    // table.
    insert(&mut store, &mut model, &[(1, 7), (9, 3)]);
    insert(&mut store, &mut model, &[(0, 6)]);
    store.sync().unwrap();
    drop(store);
    let (store, report) = open();
    assert_eq!(report.frames_replayed, 2);
    assert_reads(store.graph().view(), &model.frozen(), "replayed");
    let (store, delta) = checkpoint(store, &model);
    assert_eq!(delta_records(&delta), [(0, 2), (1, 1), (9, 1)]);
    assert_eq!(store.graph().num_vertices(), 10);
    drop(store);
    let (_, report) = open();
    assert_eq!(report.chain_len, 4, "the chain reloads");
}

#[test]
fn try_from_edges_contains_bulk_load_faults() {
    let _l = lock();
    let edges: Vec<Edge> = (0..50u32)
        .flat_map(|src| (0..30u32).map(move |j| Edge::new(src, (src * 7 + j * 3) % 400)))
        .collect();
    let mut model = Model::new(400);
    model.apply(lsgraph::BatchKind::Insert, &edges);
    reset_failpoints();
    configure_failpoint("apply_run", chance(0.2, 9));
    let (mut g, outcome) = LsGraph::try_from_edges(400, &edges, Setup::named("core").cfg).unwrap();
    reset_failpoints();
    assert!(!outcome.quarantined.is_empty(), "p=0.2, 50 runs");
    model.quarantined = outcome.quarantined.iter().copied().collect();
    assert_reads(g.view(), &model.frozen(), "bulk load");
    assert_eq!(outcome.applied, g.num_edges());
    let lost: usize = outcome
        .quarantined
        .iter()
        .map(|&v| model.adj[v as usize].len())
        .sum();
    assert_eq!(outcome.edges_lost, lost);
    // Repair every casualty; the load converges to the fault-free graph.
    for v in std::mem::take(&mut model.quarantined) {
        let ns = model.masked(v);
        assert_eq!(g.repair_vertex(v, &ns), Ok(ns.len()));
    }
    assert_reads(g.view(), &model.frozen(), "repaired");
}

#[test]
fn killed_sampler_never_corrupts_metrics_stream_or_engine_counters() {
    let _l = lock();
    reset_failpoints();
    let dir = TempDir::new("sampler", 0);
    std::fs::create_dir_all(&dir.0).unwrap();
    let path = dir.0.join("metrics.jsonl");
    lsgraph_api::stream_metrics_to_file(&path).unwrap();
    assert!(lsgraph_api::write_metrics_header("fault", 2).unwrap());

    let mut g = LsGraph::with_config(200, Setup::named("core").cfg);
    let mut rng = SmallRng::seed_from_u64(0xFA17);
    g.try_insert_batch(&edges(&core_batch(&mut rng))).unwrap();
    let mut registry = lsgraph_api::MetricsRegistry::new();
    registry.register_struct_stats("lsgraph", g.stats_handle());
    registry.register_latency_stats("lsgraph", g.latency_handle());
    let mut sampler = lsgraph_api::Sampler::new(std::sync::Arc::new(registry), "fault/m=64");

    // Tick 0 succeeds while the site is disarmed.
    assert!(sampler.tick(&[("writer_eps", 1.0)]).unwrap());
    assert_eq!(sampler.ticks(), 1);

    // The failpoint is evaluated before the registry is read or any byte
    // written, so the killed tick leaves the counters and the JSONL prefix
    // untouched.
    let before = g.stats_handle().snapshot();
    configure_failpoint("metrics_sample", FailMode::Nth(1));
    let killed = catch_unwind(AssertUnwindSafe(|| {
        let _ = sampler.tick(&[("writer_eps", 1.0)]);
    }));
    assert!(killed.is_err(), "armed metrics_sample tick must panic");
    assert_eq!(failpoint_fired("metrics_sample"), 1);
    assert_eq!(sampler.ticks(), 1, "killed tick must not count");
    assert_eq!(g.stats_handle().snapshot(), before, "counters moved");
    reset_failpoints();

    // Sampling resumes cleanly, and the engine keeps working underneath.
    g.try_insert_batch(&edges(&core_batch(&mut rng))).unwrap();
    assert!(sampler.tick(&[("writer_eps", 0.0)]).unwrap());
    assert_eq!(sampler.ticks(), 2);
    assert_eq!(lsgraph_api::finish_metrics_stream().unwrap(), Some(2));
    g.check_invariants();

    // Whole lines only: a header plus exactly the two surviving samples.
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "header + 2 samples, got: {text}");
    assert!(lines[0].contains("\"schema\":\"lsgraph-metrics-v1\""));
    assert!(lines[0].contains("\"samples_expected\":2"));
    for (i, line) in lines[1..].iter().enumerate() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains(&format!("\"tick\":{i}")));
        assert!(line.contains("\"cell\":\"fault/m=64\""));
        assert!(line.contains("lsgraph_vb_inline_hits"));
    }
}
