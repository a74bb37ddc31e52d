//! The benchmark's contract with its driver and with its own README: names
//! and units are well-formed, `BENCHMARK.json` is the rendered spec, every
//! workload reports every metric, counts repeat for a seed, and each workload
//! reaches the tiers it exists to reach.
//!
//! The runs are real (full-size graphs, one measured round), so this takes
//! about a minute; the test profile is optimised for that reason.

use std::collections::BTreeSet;
use std::path::PathBuf;

use lsgraph_benchmark::calib::{Calib, CALIB_REF_S, SPAWN_REF_S};
use lsgraph_benchmark::run::{run, Opts, Report};
use lsgraph_benchmark::spec::{self, Better, END_TO_END, PER_LAYER, WORKLOADS};

fn made_of(s: &str, extra: &str, max: usize) -> bool {
    !s.is_empty()
        && s.len() <= max
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

fn is_name(s: &str) -> bool {
    made_of(s, "_.-", 64) && s.starts_with(|c: char| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    made_of(s, "_/%.-", 16)
}

fn one_round(workload: &str, seed: u64, trace: bool) -> Report {
    let opts = Opts {
        workload: workload.to_string(),
        seed,
        seconds: 1.0,
        trace,
        rounds: Some(if trace { 2 } else { 1 }),
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("{workload}-{seed}-{trace}")),
    };
    run(&opts).expect("run completes")
}

#[test]
fn names_units_and_bounds_are_well_formed() {
    let mut seen = BTreeSet::new();
    for w in &WORKLOADS {
        assert!(is_name(w.name), "workload name {}", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "why of {}",
            w.name
        );
        assert!(seen.insert(w.name), "duplicate name {}", w.name);
    }
    for m in &END_TO_END {
        assert!(is_name(m.name), "metric name {}", m.name);
        assert!(is_unit(m.unit), "unit of {}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        assert!(seen.insert(m.name), "duplicate name {}", m.name);
    }
    for &(name, unit, _) in PER_LAYER {
        assert!(is_name(name), "metric name {name}");
        assert!(is_unit(unit), "unit of {name}");
        assert!(seen.insert(name), "duplicate name {name}");
    }
    assert!(PER_LAYER.len() <= 128);
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is declared");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}

#[test]
fn a_segment_is_normalised_as_compute_plus_spawns() {
    let mut c = Calib::new();
    let (a, b) = (c.sample(), c.sample());
    let plain = c.normalise("x", 1.0, 0, a, b);
    let compute = 0.5 * (a.total() + b.total()) / CALIB_REF_S;
    assert!((plain.scale - compute).abs() < 1e-9, "{plain:?}");
    // A thousand spawns at today's price become a thousand at the reference's.
    let spawny = c.normalise("x", 1.0, 1000, a, b);
    let expect = (1.0 - 1000.0 * spawny.per_spawn_s) / compute + 1000.0 * SPAWN_REF_S;
    assert!((spawny.norm_s - expect).abs() < 1e-9, "{spawny:?}");
}

#[test]
fn benchmark_json_is_the_rendered_spec() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        spec::benchmark_json(),
        "regenerate with `benchmark spec > BENCHMARK.json`"
    );
    assert!(committed.len() <= 64 * 1024);
}

#[test]
fn every_workload_reports_every_metric_and_repeats_its_counts() {
    for w in &WORKLOADS {
        let a = one_round(w.name, 7, false);
        let b = one_round(w.name, 7, false);
        for r in [&a, &b] {
            assert!(
                r.correct && r.failed == 0 && r.attempted >= 1,
                "{}: {r:?}",
                w.name
            );
            let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
            let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, want, "{}", w.name);
            for (m, e) in r.metrics.iter().zip(&END_TO_END) {
                assert_eq!(m.unit, e.unit);
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{} {} = {}",
                    w.name,
                    m.name,
                    m.value
                );
            }
        }
        let mem = |r: &Report| r.metric("mem_bytes_per_edge").unwrap().value;
        assert_eq!(mem(&a), mem(&b), "{}: same seed, same footprint", w.name);
        assert_eq!(
            a.attempted, b.attempted,
            "{}: same seed, same operations",
            w.name
        );
        assert_eq!(
            a.tiers, b.tiers,
            "{}: same seed, same tier populations",
            w.name
        );
        match w.name {
            "ingest-skew" | "snapshot-mixed" => {
                assert!(a.tiers.hitree_vertices > 0, "{:?}", a.tiers)
            }
            "trickle-flat" => assert_eq!((a.tiers.ria_vertices, a.tiers.hitree_vertices), (0, 0)),
            _ => {}
        }
    }
}

#[test]
fn a_traced_run_reports_every_layer_and_covers_its_rounds() {
    let r = one_round("durable-pipeline", 7, true);
    assert!(r.correct, "{r:?}");
    let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
    let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names, want);
    assert!(r.metric("trace.coverage_pct").unwrap().value >= 90.0);
    assert_eq!(
        r.metric("persist.frames_replayed").unwrap().value,
        spec::TAIL_BATCHES as f64
    );
    assert!(r.metric("queries.deltas_delivered").unwrap().value > 0.0);
    assert_eq!(
        r.metric("core.tier_vertices.inline").unwrap().value,
        r.tiers.inline_vertices as f64
    );
}
