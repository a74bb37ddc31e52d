//! Retention-GC safety property suite (requires `--features failpoints`).
//!
//! **The property**: retention GC never deletes a WAL segment or image
//! file that the newest recoverable chain still needs. It is checked
//! differentially — after *every* retention pass (completed or killed
//! mid-GC between unlinks) the store is dropped and reopened from disk,
//! and the recovered graph must equal a `BTreeSet` shadow oracle of all
//! acknowledged batches, exactly. If GC ever reclaimed a needed byte, the
//! reopen would come up short and the oracle comparison would fail.
//!
//! The workload is fuzzed across four seeds with a tiny segment budget so
//! GC cutoffs land on rotation boundaries constantly, and every other
//! retention pass runs with `segment_gc` armed at a seed-dependent Nth
//! evaluation so kills land between individual unlinks (half-collected
//! directories).

#![cfg(feature = "failpoints")]

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, Once};

use lsgraph_api::failpoints::{self, FailMode};
use lsgraph_api::{DynamicGraph, Edge, Graph};
use lsgraph_core::Config;
use lsgraph_persist::{Store, StoreOptions};
use rand::{rngs::SmallRng, Rng, SeedableRng};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

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

const N: usize = 300;
const ROUNDS: usize = 28;

fn cfg() -> Config {
    Config {
        m: 128,
        ..Config::default()
    }
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("lsgraph-retsafe-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Tiny segments + eager deltas: rotation on nearly every batch, so GC
/// cutoffs exercise segment boundaries continuously.
fn opts() -> StoreOptions {
    StoreOptions {
        segment_bytes: 512,
        delta_ratio: 1.0,
        max_delta_chain: 4,
    }
}

/// Asserts the on-disk state recovers to exactly the shadow oracle.
fn assert_recovers_to(dir: &std::path::Path, shadow: &[BTreeSet<u32>], ctx: &str) -> Store {
    let (store, report) = Store::open_with(dir, N, cfg(), opts()).unwrap();
    assert_eq!(
        report.frames_discarded, 0,
        "{ctx}: GC must never manufacture a torn tail"
    );
    assert_eq!(
        store.graph().num_edges(),
        shadow.iter().map(BTreeSet::len).sum::<usize>(),
        "{ctx}: num_edges"
    );
    for v in 0..N as u32 {
        let want: Vec<u32> = shadow[v as usize].iter().copied().collect();
        assert_eq!(store.graph().neighbors(v), want, "{ctx}: vertex {v}");
    }
    store.graph().validate_structure().unwrap();
    store
}

/// One fuzzed run: random insert/delete batches, checkpoint + retention
/// every few rounds, every other retention pass killed mid-GC, and a
/// drop + reopen + oracle check after each pass.
fn fuzz_retention(seed: u64) {
    quiet_failpoint_panics();
    failpoints::reset();
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E3779B97F4A7C15));
    let dir = tmpdir(&format!("seed-{seed}"));
    let mut shadow = vec![BTreeSet::new(); N];
    let mut store = Store::open_with(&dir, N, cfg(), opts()).unwrap().0;
    let mut kills = 0u64;
    let mut clean_passes = 0u64;

    for round in 0..ROUNDS {
        if round % 3 == 2 {
            let mut del = Vec::new();
            for _ in 0..20 {
                del.push(Edge::new(rng.gen_range(0..32), rng.gen_range(0..N as u32)));
            }
            store.delete_batch(&del).unwrap();
            for e in &del {
                shadow[e.src as usize].remove(&e.dst);
            }
        } else {
            let mut ins = Vec::new();
            for _ in 0..40 {
                ins.push(Edge::new(rng.gen_range(0..32), rng.gen_range(0..N as u32)));
            }
            store.insert_batch(&ins).unwrap();
            for e in &ins {
                shadow[e.src as usize].insert(e.dst);
            }
        }
        store.sync().unwrap();

        if round % 4 != 3 {
            continue;
        }
        store.checkpoint().unwrap();

        if round % 8 == 3 {
            // Kill this pass between unlinks, at a seed-dependent depth.
            let nth = 1 + (rng.gen_range(0..3) + seed) % 4;
            failpoints::configure("segment_gc", FailMode::Nth(nth));
            let killed = catch_unwind(AssertUnwindSafe(|| store.run_retention())).is_err();
            let fired = failpoints::fired("segment_gc") > 0;
            failpoints::configure("segment_gc", FailMode::Off);
            failpoints::reset();
            if killed {
                kills += 1;
                assert!(fired, "seed {seed} round {round}: kill without a fire");
            }
            // The "process" died mid-GC: drop everything and recover.
            drop(store);
            store = assert_recovers_to(&dir, &shadow, &format!("seed {seed} kill @ {round}"));
        } else {
            let report = store.run_retention().unwrap();
            clean_passes += 1;
            // Whatever the pass deleted, the survivors must still recover.
            drop(store);
            store = assert_recovers_to(&dir, &shadow, &format!("seed {seed} pass @ {round}"));
            if report.segments_deleted > 0 {
                // The cutoff honored the chain tip: nothing at or past the
                // tip's replay segment was reclaimed.
                assert!(
                    report.segment_cutoff <= store.wal_position().segment,
                    "seed {seed} round {round}: cutoff past the active segment"
                );
            }
        }
    }
    assert!(
        kills > 0,
        "seed {seed}: no mid-GC kill landed — fuzz is vacuous"
    );
    assert!(clean_passes > 0, "seed {seed}: no clean retention pass ran");

    // Final end-to-end: the surviving state still equals the full oracle.
    drop(store);
    let store = assert_recovers_to(&dir, &shadow, &format!("seed {seed} final"));
    drop(store);
    failpoints::reset();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retention_never_deletes_what_the_newest_chain_needs() {
    let _l = lock();
    for seed in 1..=4 {
        fuzz_retention(seed);
    }
}
