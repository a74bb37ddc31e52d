//! Crash-recovery differential suite (requires `--features failpoints`).
//!
//! For every durability failpoint site (`wal_append`, `wal_sync`,
//! `checkpoint_write`, `recovery_replay`, and — under rotation + delta
//! checkpoints + retention — `wal_rotate`, `delta_checkpoint`,
//! `segment_gc`), under four seeds each, the process is "killed"
//! mid-stream — the injected panic unwinds out of the store and the store
//! is dropped — and then recovered from disk. The recovered graph must be
//! **oracle-equal** to an uninterrupted replay of exactly the batch prefix
//! the recovery report claims (`RecoveryReport::next_seq`): same adjacency
//! per vertex against a `BTreeSet` shadow, same exact `num_edges` as a
//! fresh fault-free `LsGraph`, and `validate_structure` must hold. A
//! `wal_rotate` kill lands precisely in the seal-old/create-new window, so
//! those runs cover a crash straddling a segment boundary; a `segment_gc`
//! kill lands between individual GC unlinks (mid-GC).
//!
//! A separate torn-write test chops the WAL mid-frame and asserts the tail
//! is discarded with a nonzero `recovery_frames_discarded`; a corrupt
//! middle-of-chain delta test asserts recovery degrades to the surviving
//! chain prefix and the WAL tail replays the difference back; and the
//! quarantine fuzz interleaves apply-fault quarantines with WAL appends,
//! checkpoints, and repairs, asserting quarantined vertices never leak an
//! adjacency record into a checkpoint image.

#![cfg(feature = "failpoints")]

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, Once};

use lsgraph_api::failpoints::{self, FailMode};
use lsgraph_api::{DynamicGraph, Edge, Graph};
use lsgraph_core::{Config, LsGraph};
use lsgraph_persist::{checkpoint, segment, RecoveryReport, Store, StoreOptions, WalOp};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Failpoint configuration is process-global; every test serializes here.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Suppresses panic-hook stderr spew for intentional failpoint panics.
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

const N: usize = 500;
const BATCHES: usize = 30;

/// Small `m` so the stream crosses every tier before a checkpoint lands.
fn cfg() -> Config {
    Config {
        m: 128,
        ..Config::default()
    }
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("lsgraph-crash-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Full-image-only checkpoints: keeps the `checkpoint_write` evaluation
/// count of the legacy harness stable and the quarantine audit's
/// `load_checkpoint` applicable to every image.
fn full_opts() -> StoreOptions {
    StoreOptions {
        delta_ratio: 0.0,
        ..StoreOptions::default()
    }
}

/// Aggressive rotation + delta chaining + retention, so the three new
/// sites (`wal_rotate`, `delta_checkpoint`, `segment_gc`) are evaluated
/// many times per run.
fn rotating_opts() -> StoreOptions {
    StoreOptions {
        segment_bytes: 600,
        delta_ratio: 1.0,
        max_delta_chain: 8,
    }
}

/// The deterministic update stream: every (site, seed) run sees the same
/// batches, so the oracle is a pure function of how far the run got.
/// Two hot sources push through array → RIA → HITree; every third batch
/// is a delete.
fn stream() -> Vec<(WalOp, Vec<Edge>)> {
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let mut out = Vec::new();
    for i in 0..BATCHES {
        if i % 3 == 2 {
            let mut del = Vec::new();
            for _ in 0..25 {
                del.push(Edge::new(rng.gen_range(0..40), rng.gen_range(0..N as u32)));
            }
            out.push((WalOp::Delete, del));
            continue;
        }
        let mut ins = Vec::new();
        for src in 0..2u32 {
            let center = rng.gen_range(0..400u32);
            for j in 0..40 {
                ins.push(Edge::new(src, center + j));
            }
        }
        for _ in 0..80 {
            ins.push(Edge::new(rng.gen_range(0..40), rng.gen_range(0..N as u32)));
        }
        out.push((WalOp::Insert, ins));
    }
    out
}

/// Applies `batches` to a shadow oracle and returns per-vertex sorted
/// adjacency.
fn shadow_of(batches: &[(WalOp, Vec<Edge>)]) -> Vec<BTreeSet<u32>> {
    let mut shadow = vec![BTreeSet::new(); N];
    for (op, b) in batches {
        for e in b {
            match op {
                WalOp::Insert => {
                    shadow[e.src as usize].insert(e.dst);
                }
                WalOp::Delete => {
                    shadow[e.src as usize].remove(&e.dst);
                }
            }
        }
    }
    shadow
}

/// The recovered graph must equal both the shadow oracle and a fresh
/// fault-free engine replaying the same prefix.
fn assert_oracle_equal(g: &LsGraph, prefix: &[(WalOp, Vec<Edge>)], ctx: &str) {
    let shadow = shadow_of(prefix);
    let mut fresh = LsGraph::with_config(N, cfg());
    for (op, b) in prefix {
        match op {
            WalOp::Insert => fresh.insert_batch(b),
            WalOp::Delete => fresh.delete_batch(b),
        };
    }
    assert_eq!(
        g.num_edges(),
        shadow.iter().map(BTreeSet::len).sum::<usize>(),
        "{ctx}: num_edges"
    );
    assert_eq!(g.num_edges(), fresh.num_edges(), "{ctx}: vs fresh engine");
    for v in 0..N as u32 {
        let want: Vec<u32> = shadow[v as usize].iter().copied().collect();
        assert_eq!(g.neighbors(v), want, "{ctx}: vertex {v}");
        assert_eq!(fresh.neighbors(v), want, "{ctx}: fresh vertex {v}");
    }
    g.validate_structure()
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
}

/// Sync after every odd batch, checkpoint after batches 5, 11, 17, 23 —
/// so `wal_sync` sees ~19 evaluations, `checkpoint_write` exactly 4, and
/// the post-checkpoint tail leaves ≥ 6 frames for `recovery_replay`.
fn maintenance(store: &mut Store, i: usize) {
    if i % 6 == 5 && i < 24 {
        store.checkpoint().unwrap();
    } else if i % 2 == 1 {
        store.sync().unwrap();
    }
}

/// Checkpoint + retention every fourth batch: under [`rotating_opts`] the
/// first image is full and every later one a delta, each retention pass
/// deletes several sealed segments, and the 600-byte budget rotates on
/// nearly every append — plenty of evaluations for every new site.
fn rotating_maintenance(store: &mut Store, i: usize) {
    if i % 4 == 3 {
        store.checkpoint().unwrap();
        store.run_retention().unwrap();
    } else if i % 2 == 1 {
        store.sync().unwrap();
    }
}

/// Nth-evaluation crash points per site: deterministic on any machine, and
/// spread across the stream (and across checkpoint/segment/GC boundaries)
/// by seed.
fn nth_for(site: &str, seed: u64) -> u64 {
    match site {
        "wal_append" => seed * 5,
        "wal_sync" | "wal_rotate" => seed * 3,
        "segment_gc" => seed * 2,
        _ => seed,
    }
}

/// Runs the stream with `site` armed, crashing wherever `Nth` fires; drops
/// the store (the "kill"); optionally crashes again during the first
/// recovery; then recovers cleanly and checks the oracle.
fn crash_harness(site: &str, seed: u64, opts: StoreOptions, maint: fn(&mut Store, usize)) {
    quiet_failpoint_panics();
    failpoints::reset();
    let dir = tmpdir(&format!("{site}-{seed}"));
    let batches = stream();

    let (mut store, _) = Store::open_with(&dir, N, cfg(), opts).unwrap();
    failpoints::configure(site, FailMode::Nth(nth_for(site, seed)));
    let mut crashed_at = None;
    for (i, (op, b)) in batches.iter().enumerate() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            match op {
                WalOp::Insert => store.insert_batch(b).unwrap(),
                WalOp::Delete => store.delete_batch(b).unwrap(),
            };
            maint(&mut store, i);
        }));
        if r.is_err() {
            crashed_at = Some(i);
            break;
        }
    }
    drop(store);

    // First recovery still has the site armed: for `recovery_replay` this
    // is where the crash lands; for the other sites the fault already
    // fired (Nth is one-shot) and recovery runs clean.
    let first = catch_unwind(AssertUnwindSafe(|| Store::open_with(&dir, N, cfg(), opts)));
    if site == "recovery_replay" {
        assert!(
            crashed_at.is_none() && first.is_err(),
            "{site}/{seed}: the crash must land inside recovery"
        );
    } else {
        assert!(
            crashed_at.is_some_and(|i| i < batches.len()),
            "{site}/{seed}: the crash must land mid-stream"
        );
    }
    assert_eq!(failpoints::fired(site), 1, "{site}/{seed}: Nth fires once");
    failpoints::configure(site, FailMode::Off);

    // Clean recovery: whatever prefix survived must replay exactly.
    let (store, report) = Store::open_with(&dir, N, cfg(), opts).unwrap();
    let k = report.next_seq as usize;
    assert!(k <= batches.len(), "{site}/{seed}: seq beyond the stream");
    if let Some(i) = crashed_at {
        assert!(k <= i + 1, "{site}/{seed}: recovered past the crash point");
    }
    assert_eq!(
        report.frames_discarded, 0,
        "{site}/{seed}: a failpoint kill never tears a synced frame"
    );
    assert_eq!(store.graph().num_edges() as u64, report.edges_restored);
    assert_oracle_equal(store.graph(), &batches[..k], &format!("{site}/{seed}"));
    failpoints::reset();
    std::fs::remove_dir_all(&dir).ok();
}

fn run_site_under_seeds(site: &str) {
    let _l = lock();
    for seed in 1..=4 {
        crash_harness(site, seed, full_opts(), maintenance);
    }
}

fn run_rotating_site_under_seeds(site: &str) {
    let _l = lock();
    for seed in 1..=4 {
        crash_harness(site, seed, rotating_opts(), rotating_maintenance);
    }
}

#[test]
fn crashes_at_wal_append_recover_to_a_durable_prefix() {
    run_site_under_seeds("wal_append");
}

#[test]
fn crashes_at_wal_sync_recover_to_a_durable_prefix() {
    run_site_under_seeds("wal_sync");
}

#[test]
fn crashes_at_checkpoint_write_recover_to_a_durable_prefix() {
    run_site_under_seeds("checkpoint_write");
}

#[test]
fn crashes_during_recovery_replay_recover_on_retry() {
    run_site_under_seeds("recovery_replay");
}

/// A `wal_rotate` kill lands in the seal-old/create-new window: the crash
/// straddles a segment boundary and recovery must stitch the stream back
/// together across it.
#[test]
fn crashes_at_wal_rotate_straddle_the_segment_boundary() {
    run_rotating_site_under_seeds("wal_rotate");
}

#[test]
fn crashes_at_delta_checkpoint_recover_to_a_durable_prefix() {
    run_rotating_site_under_seeds("delta_checkpoint");
}

/// A `segment_gc` kill lands between individual unlinks of a retention
/// pass; the half-collected directory must still recover.
#[test]
fn crashes_at_segment_gc_mid_pass_recover_to_a_durable_prefix() {
    run_rotating_site_under_seeds("segment_gc");
}

/// A corrupt delta in the middle of the chain degrades recovery to the
/// surviving prefix — and because the WAL was never truncated past the
/// degraded tip, replay restores the *entire* stream anyway.
#[test]
fn corrupt_mid_chain_delta_degrades_and_wal_replay_restores() {
    let _l = lock();
    quiet_failpoint_panics();
    failpoints::reset();
    let dir = tmpdir("corrupt-delta");
    let batches = stream();
    let opts = StoreOptions {
        delta_ratio: 1.0,
        ..StoreOptions::default()
    };
    {
        // Checkpoint every fourth batch but never run retention: the WAL
        // keeps the full history, so a degraded chain can always catch up.
        let (mut store, _) = Store::open_with(&dir, N, cfg(), opts).unwrap();
        for (i, (op, b)) in batches.iter().enumerate() {
            match op {
                WalOp::Insert => store.insert_batch(b).unwrap(),
                WalOp::Delete => store.delete_batch(b).unwrap(),
            };
            if i % 4 == 3 {
                store.checkpoint().unwrap();
            }
        }
        store.sync().unwrap();
    }
    // Image 1 is the full base; 2..=7 are deltas. Corrupt a middle one.
    let victim = checkpoint::delta_file(&dir, 4);
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&victim, &bytes).unwrap();

    let (store, report) = Store::open_with(&dir, N, cfg(), opts).unwrap();
    assert!(
        report.images_discarded >= 1,
        "the corrupt delta (and its orphans) must be counted"
    );
    assert!(
        report.chain_len < 6,
        "the chain must have been cut short of the corruption"
    );
    assert!(report.frames_replayed > 0, "the WAL tail fills the gap");
    assert_eq!(report.frames_discarded, 0);
    assert!(store.graph().stats().snapshot().recovery_images_discarded >= 1);
    assert_oracle_equal(store.graph(), &batches, "corrupt-delta");
    drop(store);
    // Open pruned the unusable images, so a second recovery is clean.
    let (store, report) = Store::open_with(&dir, N, cfg(), opts).unwrap();
    assert_eq!(report.images_discarded, 0, "pruned at the first reopen");
    assert_oracle_equal(store.graph(), &batches, "corrupt-delta-reopen");
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_trailing_frames_are_discarded_and_counted() {
    let _l = lock();
    quiet_failpoint_panics();
    failpoints::reset();
    let dir = tmpdir("torn");
    let batches = stream();
    {
        let (mut store, _) = Store::open_with(&dir, N, cfg(), full_opts()).unwrap();
        for (i, (op, b)) in batches.iter().enumerate() {
            match op {
                WalOp::Insert => store.insert_batch(b).unwrap(),
                WalOp::Delete => store.delete_batch(b).unwrap(),
            };
            maintenance(&mut store, i);
        }
        store.sync().unwrap();
    }
    // Tear the log mid-frame, as a real torn write would.
    let wal_path = segment::segment_file(&dir, 0);
    let bytes = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &bytes[..bytes.len() - 7]).unwrap();

    let (store, report) = Store::open_with(&dir, N, cfg(), full_opts()).unwrap();
    assert_eq!(report.frames_discarded, 1, "one truncation event");
    assert!(report.bytes_discarded > 0);
    assert!(
        store.graph().stats().snapshot().recovery_frames_discarded > 0,
        "the counter must expose the tear"
    );
    let k = report.next_seq as usize;
    assert_eq!(k, batches.len() - 1, "exactly the last frame was torn");
    assert_oracle_equal(store.graph(), &batches[..k], "torn");
    // The tail is physically gone: a second recovery is clean and equal.
    drop(store);
    let (store, report) = Store::open_with(&dir, N, cfg(), full_opts()).unwrap();
    assert_eq!(report.frames_discarded, 0);
    assert_oracle_equal(store.graph(), &batches[..k], "torn-reopen");
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: fuzz the quarantine ↔ durability interleaving. Apply faults
/// (`apply_run`) quarantine vertices *after* their batch was WAL-logged; a
/// checkpoint taken while the quarantine is live must carry the vertex in
/// its quarantine list and **no adjacency record for it**, and a repair
/// followed by a checkpoint must make the repaired state durable.
#[test]
fn quarantined_vertices_never_leak_into_checkpoints() {
    let _l = lock();
    quiet_failpoint_panics();
    for seed in 1..=4u64 {
        failpoints::reset();
        let dir = tmpdir(&format!("quarantine-{seed}"));
        let batches = stream();
        let (mut store, _) = Store::open_with(&dir, N, cfg(), full_opts()).unwrap();
        let mut shadow = vec![BTreeSet::new(); N];
        let mut total_quarantined = 0u64;
        for (i, (op, b)) in batches.iter().enumerate() {
            failpoints::configure(
                "apply_run",
                FailMode::Probability {
                    p: 0.02,
                    seed: seed.wrapping_mul(1000).wrapping_add(i as u64),
                },
            );
            let outcome = match op {
                WalOp::Insert => store.insert_batch(b).unwrap(),
                WalOp::Delete => store.delete_batch(b).unwrap(),
            };
            failpoints::configure("apply_run", FailMode::Off);
            for e in b {
                match op {
                    WalOp::Insert => {
                        shadow[e.src as usize].insert(e.dst);
                    }
                    WalOp::Delete => {
                        shadow[e.src as usize].remove(&e.dst);
                    }
                }
            }
            if outcome.quarantined.is_empty() {
                continue;
            }
            total_quarantined += outcome.quarantined.len() as u64;
            // Checkpoint with the quarantine live, then audit the image.
            let meta = store.checkpoint().unwrap();
            let img = checkpoint::checkpoint_file(store.dir(), meta.id);
            let (reloaded, _) = checkpoint::load_checkpoint(&img, cfg()).unwrap();
            for &q in &outcome.quarantined {
                assert!(
                    reloaded.is_quarantined(q),
                    "seed {seed} batch {i}: vertex {q} lost its quarantine mark"
                );
                assert_eq!(
                    reloaded.degree(q),
                    0,
                    "seed {seed} batch {i}: quarantined vertex {q} leaked a record"
                );
            }
            assert_eq!(reloaded.num_edges(), store.graph().num_edges());
            // Repair from the oracle; the next checkpoint freezes it.
            for &q in &outcome.quarantined {
                let ns: Vec<u32> = shadow[q as usize].iter().copied().collect();
                store.graph_mut().repair_vertex(q, &ns).unwrap();
            }
            store.checkpoint().unwrap();
        }
        assert!(
            total_quarantined > 0,
            "seed {seed}: workload never quarantined — fuzz is vacuous"
        );
        // Final freeze, then recover: the repaired state is fully durable
        // and equals the fault-free oracle.
        store.checkpoint().unwrap();
        drop(store);
        let (store, report) = Store::open_with(&dir, N, cfg(), full_opts()).unwrap();
        assert_eq!(report.frames_replayed, 0, "checkpoint covers everything");
        assert!(store.graph().quarantined_vertices().is_empty());
        assert_oracle_equal(store.graph(), &batches, &format!("quarantine/{seed}"));
        failpoints::reset();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A recovery that replays frames whose application quarantines a vertex
/// (apply fault during replay) still satisfies containment: the surviving
/// vertices are oracle-equal and the store keeps functioning.
#[test]
fn apply_faults_during_replay_are_contained() {
    let _l = lock();
    quiet_failpoint_panics();
    failpoints::reset();
    let dir = tmpdir("replay-apply-fault");
    let batches = stream();
    {
        let (mut store, _) = Store::open(&dir, N, cfg()).unwrap();
        for (op, b) in &batches {
            match op {
                WalOp::Insert => store.insert_batch(b).unwrap(),
                WalOp::Delete => store.delete_batch(b).unwrap(),
            };
        }
        store.sync().unwrap();
    }
    failpoints::configure("apply_run", FailMode::Nth(40));
    let (store, report) = Store::open(&dir, N, cfg()).unwrap();
    failpoints::configure("apply_run", FailMode::Off);
    assert_eq!(report.frames_replayed, batches.len() as u64);
    let q: BTreeSet<u32> = store.graph().quarantined_vertices().into_iter().collect();
    assert!(!q.is_empty(), "the 40th run fault must have fired");
    let shadow = shadow_of(&batches);
    for v in 0..N as u32 {
        if q.contains(&v) {
            assert_eq!(store.graph().degree(v), 0);
        } else {
            let want: Vec<u32> = shadow[v as usize].iter().copied().collect();
            assert_eq!(store.graph().neighbors(v), want, "vertex {v}");
        }
    }
    store.graph().validate_structure().unwrap();
    failpoints::reset();
    std::fs::remove_dir_all(&dir).ok();
}

/// Recovery on a pristine directory is a no-op report.
#[test]
fn cold_start_reports_nothing() {
    let _l = lock();
    let dir = tmpdir("cold");
    let (store, report) = Store::open(&dir, N, cfg()).unwrap();
    assert_eq!(report, RecoveryReport::default());
    assert_eq!(store.graph().num_edges(), 0);
    std::fs::remove_dir_all(&dir).ok();
}
