//! One simulator, one model: every reachable state of the engine, its
//! durable store and its standing queries is driven from seeded op traces
//! (`harness::Op`) and checked after every step against one `BTreeSet` model
//! (`model::Model`) — the live graph, every held snapshot frozen at its flip,
//! every recovery at its reported prefix, every subscription against its
//! from-scratch oracle.
//!
//! The named seed sets below replace per-suite drivers; the snapshot sets
//! run from `tests/properties.rs`, the standing set from
//! `tests/standing_oracle.rs` and the engine axis from
//! `tests/cross_engine.rs`, which include this harness. A failing seed is
//! shrunk to a minimal trace and printed as Rust to paste back in as a named
//! trace. The sets that arm failpoints, and the kill paths of the others,
//! need `--features failpoints`:
//!
//! ```text
//! cargo test --test sim --test properties --test standing_oracle --test cross_engine \
//!     --features failpoints
//! ```

mod harness;
mod model;

#[cfg(feature = "failpoints")]
mod faults;

use std::collections::BTreeSet;
use std::sync::mpsc;

use lsgraph::{BatchKind, DynamicGraph, Graph, GraphSnapshot, LsGraph};
use lsgraph_api::{FailMode, FailMode::*, FAILPOINT_SITES};
use lsgraph_core::GraphError;
use rand::{rngs::SmallRng, Rng, SeedableRng};

use harness::{batch, check_set, lock, named, pairs, Op, Op::*, Setup, CORE_SITES};
use model::{assert_reads, edges, Frozen, Model};

/// Sites each failpoint seed set (or, for `metrics_sample`, the sampler
/// test) asserts fired at least once.
pub const FULL_SITES: [&str; 4] = [
    "wal_append",
    "wal_sync",
    "checkpoint_write",
    "recovery_replay",
];
pub const ROTATING_SITES: [&str; 3] = ["wal_rotate", "delta_checkpoint", "segment_gc"];
const COVERAGE: [&[&str]; 6] = [
    &CORE_SITES,
    &["snapshot_flip", "spill_downgrade"],
    &FULL_SITES,
    &ROTATING_SITES,
    &["subscription_deliver"],
    &["metrics_sample"],
];

/// A site added to the catalogue without a seed set that kills there fails
/// here; each set in turn asserts that its sites fired.
#[test]
fn failpoint_catalogue_is_covered() {
    let covered: BTreeSet<&str> = COVERAGE.iter().flat_map(|s| s.iter().copied()).collect();
    assert_eq!(
        covered,
        FAILPOINT_SITES.into_iter().collect::<BTreeSet<_>>()
    );
}

pub fn chance(p: f64, seed: u64) -> FailMode {
    Probability { p, seed }
}

/// The deterministic durable stream: two hot sources push through array →
/// RIA → HITree; every third batch is a delete.
pub fn stream() -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    (0..30)
        .map(|i| {
            if i % 3 == 2 {
                return Delete(pairs(&mut rng, 25, 40, 500));
            }
            let mut ins = Vec::new();
            for src in 0..2u32 {
                let center = rng.gen_range(0..400u32);
                ins.extend((0..40).map(|j| (src, center + j)));
            }
            ins.extend(pairs(&mut rng, 80, 40, 500));
            Insert(ins)
        })
        .collect()
}

/// Nth-evaluation kill points: deterministic on any machine, spread across
/// the stream and its checkpoint/segment/GC boundaries by seed.
fn nth_for(site: &str, seed: u64) -> u64 {
    match site {
        "wal_append" => seed * 5,
        "wal_sync" | "wal_rotate" => seed * 3,
        "segment_gc" => seed * 2,
        _ => seed,
    }
}

/// The stream with syncs and checkpoints (plus retention when rotating),
/// killed at `site`'s nth evaluation; recovery with the site still armed
/// (where a `recovery_replay` kill lands), then clean; then torn and
/// flipped WAL tails on the recovered store.
fn crash_trace(site: Option<&'static str>, seed: u64, rotating: bool) -> Vec<Op> {
    let mut ops = Vec::from_iter(site.map(|s| Arm(s, Nth(nth_for(s, seed)))));
    for (i, op) in stream().into_iter().enumerate() {
        ops.push(op);
        match i {
            _ if rotating && i % 4 == 3 => ops.extend([Checkpoint, Retention]),
            _ if !rotating && i % 6 == 5 && i < 24 => ops.push(Checkpoint),
            _ if i % 2 == 1 => ops.push(Fsync),
            _ => {}
        }
    }
    ops.push(Crash);
    ops.extend(site.map(Disarm).into_iter().chain([Crash]));
    let mut tail = stream();
    tail.truncate(6);
    tail.insert(3, Tear(1 + seed * 5));
    ops.extend(tail.into_iter().chain([Flip(seed * 97), Compact, Crash]));
    ops
}

fn crash_set(set: &str, sites: &[&'static str], rotating: bool) {
    check_set(set, set, 1..=4, |seed| crash_trace(None, seed, rotating));
    for &site in sites.iter().filter(|_| cfg!(feature = "failpoints")) {
        let sims = check_set(&format!("{set}/{site}"), set, 1..=4, |seed| {
            crash_trace(Some(site), seed, rotating)
        });
        for sim in sims {
            assert_eq!(sim.fires.get(site), Some(&1), "{site}: Nth fires once");
        }
    }
}

#[test]
fn seed_set_crash_full() {
    crash_set("crash_full", &FULL_SITES, false);
}

#[test]
fn seed_set_crash_rotating() {
    crash_set("crash_rotating", &ROTATING_SITES, true);
}

/// Checkpoint + retention every fourth round, every other pass killed
/// between unlinks, and a recovery after the next synced batch, which often
/// lands in the segment the pass must have kept (batches of varied size
/// share segments).
#[test]
fn seed_set_retention() {
    let kills = cfg!(feature = "failpoints");
    let sims = check_set("retention", "retention", 1..=4, |seed| {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut ops = Vec::new();
        for round in 1..=28 {
            let len = if round % 3 == 0 { 20 } else { 40 };
            let size = rng.gen_range(1..len + 1);
            ops.extend([batch(len == 40, pairs(&mut rng, size, 32, 300)), Fsync]);
            if round % 4 == 1 && round > 1 {
                ops.push(Crash);
            }
            if round % 4 == 0 && kills && round % 8 == 4 {
                let nth = 1 + (rng.gen_range(0..3) + seed) % 4;
                ops.extend([Checkpoint, Arm("segment_gc", Nth(nth)), Retention]);
                ops.push(Disarm("segment_gc"));
            } else if round % 4 == 0 {
                ops.extend([Checkpoint, Retention]);
            }
        }
        ops.push(Crash);
        ops
    });
    for sim in sims.iter().filter(|_| kills) {
        assert!(sim.fires.contains_key("segment_gc"), "no GC kill");
    }
}

/// A delta checkpoint naming a vertex past its parent image's count, and a
/// trailing destination-only vertex it drops, folded into a full image.
#[test]
fn trace_delta_with_grown_vertex_recovers() {
    let mut ops = vec![Insert(vec![(1, 2), (2, 3)]), Checkpoint];
    ops.extend([Insert(vec![(50, 1), (3, 60)]), Checkpoint, Crash]);
    let r = named("grown_vertex_delta", "chain", ops.clone()).last_report;
    assert_eq!((r.checkpoint_loaded, r.chain_len), (Some(2), 1));
    ops.extend([Insert(vec![(4, 70)]), Checkpoint, Compact, Crash]);
    let r = named("grown_vertex_delta", "chain", ops).last_report;
    assert_eq!((r.checkpoint_loaded, r.chain_len), (Some(3), 0));
}

/// A corrupt delta mid-chain degrades recovery to the chain below it, and
/// the WAL, never truncated past that tip, replays the rest; the first
/// recovery prunes the unusable images, so the second is clean.
#[test]
fn trace_corrupt_mid_chain_delta_degrades_and_wal_replay_restores() {
    let mut ops = Vec::new();
    for (i, op) in stream().into_iter().enumerate() {
        ops.push(op);
        if i % 4 == 3 {
            ops.push(Checkpoint);
        }
    }
    ops.push(CorruptImage(4));
    let sim = named("corrupt_delta", "chain", ops.clone());
    let r = sim.last_report;
    assert!(r.images_discarded >= 1 && r.chain_len < 6, "{r:?}");
    assert!(r.frames_replayed > 0, "the WAL tail fills the gap");
    assert!(sim.stats.recovery_images_discarded >= 1);
    ops.push(Crash);
    let clean = named("corrupt_delta", "chain", ops).last_report;
    assert_eq!(clean.images_discarded, 0, "pruned at the first recovery");
}

/// Clear + quarantine + repair: a snapshot before keeps the adjacency, one
/// between sees the vertex quarantined and empty.
#[test]
fn trace_snapshot_freezes_quarantine_and_repair_state() {
    let mut ops = vec![Insert(vec![(3, 1), (3, 2), (4, 5)]), Snap];
    ops.extend([Clear(3), Snap, Repair]);
    named("freeze_quarantine", "snapshots", ops);
}

#[test]
fn snapshot_clones_share_one_epoch_and_retire_once() {
    let _l = lock();
    let mut g = LsGraph::new(8);
    g.insert_batch(&edges(&[(0, 1), (1, 2)]));
    let snap = g.snapshot();
    let twin = snap.clone();
    g.insert_batch(&edges(&[(0, 3)]));
    assert_eq!((snap.neighbors(0), twin.neighbors(0)), (vec![1], vec![1]));
    drop(twin);
    let s = g.stats().snapshot();
    assert_eq!((s.snapshots_taken, s.snapshots_retired), (1, 0));
    drop(snap);
    assert_eq!(g.stats().snapshot().snapshots_retired, 1);
}

/// A writer flips a snapshot to four reader threads at every batch
/// boundary; each reader checks every snapshot against the model frozen at
/// its flip, so scheduling cannot change what any assertion sees.
#[test]
fn concurrent_readers_see_frozen_state_under_write_load() {
    let _l = lock();
    let setup = Setup::named("snapshots");
    let mut g = LsGraph::with_config(setup.n, setup.cfg);
    let mut model = Model::new(setup.n);
    let mut rng = SmallRng::seed_from_u64(0xC0FF_EE01);
    let (txs, readers): (Vec<_>, Vec<_>) = (0..4)
        .map(|reader| {
            let (tx, rx) = mpsc::channel::<(GraphSnapshot, Frozen)>();
            let ctx = format!("reader {reader}");
            let read = move |(s, want): (GraphSnapshot, _)| assert_reads(s.view(), &want, &ctx);
            let reader = std::thread::spawn(move || rx.into_iter().map(read).count());
            (tx, reader)
        })
        .unzip();
    for _ in 0..16 {
        let snap = g.snapshot();
        txs.iter()
            .for_each(|tx| tx.send((snap.clone(), model.frozen())).unwrap());
        drop(snap);
        let (insert, len) = (rng.gen_bool(0.65), rng.gen_range(1..200));
        let batch = edges(&pairs(&mut rng, len, 120, 120));
        let kind = [BatchKind::Delete, BatchKind::Insert][usize::from(insert)];
        let _ = if insert {
            g.insert_batch(&batch)
        } else {
            g.delete_batch(&batch)
        };
        model.apply(kind, &batch);
    }
    drop(txs);
    for h in readers {
        assert_eq!(h.join().expect("reader panicked"), 16);
    }
    let s = g.stats().snapshot();
    assert_eq!((s.snapshots_taken, s.snapshots_retired), (16, 16));
    assert_reads(g.view(), &model.frozen(), "writer");
}

#[test]
fn repair_misuse_is_rejected_as_values() {
    let _l = lock();
    let mut g = LsGraph::new(4);
    g.insert_batch(&edges(&[(0, 1)]));
    assert_eq!(g.repair_vertex(1, &[]), Err(GraphError::NotQuarantined(1)));
    let out_of_range = GraphError::VertexOutOfRange {
        vertex: 99,
        num_vertices: 4,
    };
    assert_eq!(g.repair_vertex(99, &[]), Err(out_of_range));
    g.clear_vertex(0);
    g.restore_quarantine_set(&[0]).unwrap();
    assert_eq!(g.repair_vertex(0, &[2, 1, 2]), Ok(2), "deduplicated");
    assert_eq!((g.neighbors(0), g.num_edges()), (vec![1, 2], 2));
}
