//! Integration coverage for the metrics registry over a real engine: two
//! same-seed runs must produce identical sample streams (after projecting
//! out wall-clock timing), and different seeds must not.

use std::sync::Arc;

use lsgraph::gen::{rmat, RmatParams};
use lsgraph::metrics::{MetricsRegistry, RegistrySample};
use lsgraph::{Config, DynamicGraph, LsGraph};

/// The deterministic projection of one sample: every counter whose value is
/// a structural count (not a `*_nanos` wall-clock accumulator), every
/// engine gauge, and each histogram's population count. Histogram bucket
/// contents are latencies and vary run to run; how many operations were
/// recorded does not.
fn deterministic_projection(s: &RegistrySample) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = s
        .counters
        .iter()
        .filter(|(name, _)| !name.ends_with("_nanos"))
        .cloned()
        .collect();
    out.extend(
        s.gauges
            .iter()
            .filter(|(name, _)| !name.starts_with("process_heap"))
            .cloned(),
    );
    out.extend(
        s.histograms
            .iter()
            .map(|(name, h)| (format!("{name}_count"), h.count())),
    );
    out
}

/// One single-threaded run: build an engine, stream `rounds` same-seed
/// R-MAT batches through it, and sample the registry after every batch.
fn run_sampled(seed: u64, rounds: usize) -> Vec<RegistrySample> {
    let scale = 10;
    let n = 1usize << scale;
    let mut g = LsGraph::with_config(
        n,
        Config {
            m: 64,
            ..Config::default()
        },
    );
    let mut registry = MetricsRegistry::new();
    registry.register_struct_stats("lsgraph", g.stats_handle());
    registry.register_latency_stats("lsgraph", g.latency_handle());
    let registry = Arc::new(registry);
    let mut samples = Vec::new();
    for round in 0..rounds {
        let batch = rmat(scale, 4_000, RmatParams::paper(), seed + round as u64);
        if round % 3 == 2 {
            g.delete_batch(&batch);
        } else {
            g.insert_batch(&batch);
        }
        samples.push(registry.sample());
    }
    samples
}

#[test]
fn same_seed_runs_produce_identical_sample_streams() {
    let a = run_sampled(7, 6);
    let b = run_sampled(7, 6);
    assert_eq!(a.len(), b.len());
    for (tick, (sa, sb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(
            deterministic_projection(sa),
            deterministic_projection(sb),
            "sample streams diverged at tick {tick}"
        );
    }
    // And the workload actually exercised the engine: structural counters
    // are live by the final sample.
    let proj = deterministic_projection(a.last().unwrap());
    let total: u64 = proj.iter().map(|(_, v)| v).sum();
    assert!(total > 0, "no structural counter moved: {proj:?}");
    let batches: u64 = proj
        .iter()
        .find(|(name, _)| name == "lsgraph_batch_apply_count")
        .map(|(_, c)| *c)
        .unwrap();
    assert_eq!(batches, 6, "one batch_apply record per round");
}

#[test]
fn different_seeds_diverge() {
    // Sanity check that the projection is not vacuously constant.
    let a = run_sampled(7, 4);
    let b = run_sampled(8, 4);
    assert_ne!(
        deterministic_projection(a.last().unwrap()),
        deterministic_projection(b.last().unwrap())
    );
}
