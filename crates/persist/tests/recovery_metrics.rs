//! Recovery observability: the `RecoveryReport` counters
//! (`recovery_frames_replayed`, `recovery_frames_discarded`,
//! `recovery_images_discarded`) are recorded into the engine's
//! `StructStats` at `Store::open`, and must therefore be visible through
//! the metrics registry — in its samples and in the JSONL time-series
//! stream — without any persist-specific plumbing.

use std::sync::{Arc, Mutex, MutexGuard};

use lsgraph_api::{
    finish_metrics_stream, stream_metrics_to_file, write_metrics_header, Edge, MetricsRegistry,
    Sampler,
};
use lsgraph_core::Config;
use lsgraph_persist::{delta_file, segment_file, Store, StoreOptions};

/// The JSONL sink is process-global; serialize tests that stream.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn cfg() -> Config {
    Config {
        m: 128,
        ..Config::default()
    }
}

#[test]
fn recovery_counters_surface_in_registry_samples_and_jsonl() {
    let _l = lock();
    let dir = std::env::temp_dir().join(format!("lsgraph-recmetrics-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let opts = StoreOptions {
        delta_ratio: 1.0,
        ..StoreOptions::default()
    };
    {
        let (mut store, _) = Store::open_with(&dir, 200, cfg(), opts).unwrap();
        for i in 0..8u32 {
            let batch: Vec<Edge> = (0..30).map(|j| Edge::new(i % 5, i * 40 + j)).collect();
            store.insert_batch(&batch).unwrap();
            store.sync().unwrap();
            if i == 3 || i == 5 {
                store.checkpoint().unwrap();
            }
        }
    }
    // Image 1 is the full base, image 2 the delta on it. Corrupt the delta
    // (→ recovery_images_discarded) and tear the WAL tail mid-frame
    // (→ recovery_frames_discarded); the surviving frames replay
    // (→ recovery_frames_replayed).
    let delta = delta_file(&dir, 2);
    let mut bytes = std::fs::read(&delta).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&delta, &bytes).unwrap();
    let seg0 = segment_file(&dir, 0);
    let bytes = std::fs::read(&seg0).unwrap();
    std::fs::write(&seg0, &bytes[..bytes.len() - 5]).unwrap();

    let (store, report) = Store::open_with(&dir, 200, cfg(), opts).unwrap();
    assert!(report.frames_replayed > 0);
    assert_eq!(report.frames_discarded, 1);
    assert_eq!(report.images_discarded, 1);

    let mut registry = MetricsRegistry::new();
    registry.register_struct_stats("lsgraph", store.graph().stats_handle());
    let registry = Arc::new(registry);

    // A registry sample carries all three, with the observed values.
    let sample = registry.sample();
    let counter = |name: &str| {
        let row = sample.counters.iter().find(|(n, _)| n == name);
        row.map(|&(_, v)| v)
    };
    assert_eq!(
        counter("lsgraph_recovery_frames_replayed"),
        Some(report.frames_replayed)
    );
    assert_eq!(counter("lsgraph_recovery_frames_discarded"), Some(1));
    assert_eq!(counter("lsgraph_recovery_images_discarded"), Some(1));
    // And the WAL/checkpoint durability rows ride along.
    assert!(counter("lsgraph_wal_segments_rotated").is_some());
    assert!(counter("lsgraph_delta_checkpoints_written").is_some());
    assert!(sample
        .gauges
        .iter()
        .any(|(n, _)| n == "lsgraph_wal_live_bytes"));

    // One JSONL tick: the same names appear in the counters object.
    let path =
        std::env::temp_dir().join(format!("lsgraph_recmetrics_{}.jsonl", std::process::id()));
    stream_metrics_to_file(&path).unwrap();
    assert!(write_metrics_header("recovery", 1).unwrap());
    let mut sampler = Sampler::new(registry, "recovery/m=128");
    assert!(sampler.tick(&[]).unwrap());
    assert_eq!(finish_metrics_stream().unwrap(), Some(1));
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let line = text.lines().nth(1).expect("header + one sample");
    assert!(line.contains(&format!(
        "\"lsgraph_recovery_frames_replayed\":{}",
        report.frames_replayed
    )));
    assert!(line.contains("\"lsgraph_recovery_frames_discarded\":1"));
    assert!(line.contains("\"lsgraph_recovery_images_discarded\":1"));
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
