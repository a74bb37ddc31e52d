//! End-to-end exercises of the observability tier: the structural-counter
//! regression gate against real reports, histogram determinism across
//! same-seed runs, and the trace export round-tripping through the
//! harness's own JSON parser.

use lsgraph_api::trace;
use lsgraph_bench::{check, experiments, BenchReport, Scale};

/// A clean same-seed re-run must pass the gate, and perturbing a gated
/// counter in the baseline must fail it — the ISSUE's injected-regression
/// scenario, driven through real experiment output.
#[test]
fn gate_passes_clean_run_and_fails_perturbed_baseline() {
    let scale = Scale::tiny();
    let baseline = experiments::small_batches_report(&scale);
    let current = experiments::small_batches_report(&scale);
    let opts = check::CheckOptions::default();
    let clean = check::compare(&baseline, &current, opts);
    assert!(clean.is_empty(), "clean run flagged: {clean:?}");

    // Inject a regression: pretend the baseline had (almost) no structural
    // movement, so the current run's real counters exceed tolerance.
    let mut perturbed = baseline.clone();
    let cell = perturbed
        .engines
        .iter_mut()
        .find(|e| e.struct_stats.is_some())
        .expect("LSGraph cell present");
    let ss = cell.struct_stats.as_mut().unwrap();
    let real = ss.tier_upgrades;
    assert!(
        real > opts.abs_slack,
        "tiny-scale run produced too few tier upgrades ({real}) to exercise the gate"
    );
    ss.tier_upgrades = 0;
    let v = check::compare(&perturbed, &current, opts);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].kind, check::ViolationKind::Regression);
    assert_eq!(v[0].counter, "tier_upgrades");
    assert_eq!(v[0].current, real);

    // The gate also survives a serialization round trip of both documents.
    let baseline2 = BenchReport::from_json(&baseline.to_json()).unwrap();
    let current2 = BenchReport::from_json(&current.to_json()).unwrap();
    assert!(check::compare(&baseline2, &current2, opts).is_empty());
}

/// Latency histogram *counts* are deterministic across same-seed runs (one
/// batch_apply sample per batch, one group_apply sample per run); only the
/// recorded durations vary.
#[test]
fn histogram_counts_are_deterministic_across_runs() {
    let scale = Scale::tiny();
    let a = experiments::small_batches_report(&scale);
    let b = experiments::small_batches_report(&scale);
    let la = a
        .engines
        .iter()
        .find_map(|e| e.latency)
        .expect("LSGraph records latency");
    let lb = b
        .engines
        .iter()
        .find_map(|e| e.latency)
        .expect("LSGraph records latency");
    assert!(la.batch_apply.count() > 0);
    assert_eq!(la.batch_apply.count(), lb.batch_apply.count());
    assert_eq!(la.group_apply.count(), lb.group_apply.count());
}

/// A streamed chrome://tracing file must be valid JSON (by the harness's
/// own parser) with the expected envelope, and contain the spans recorded
/// while the stream was open.
#[test]
fn trace_export_round_trips_through_json_parser() {
    let path = std::env::temp_dir().join(format!("lsgraph_gate_trace_{}.json", std::process::id()));
    let _guard = trace::stream_to_file(&path).expect("open trace stream");
    {
        let _s = trace::span(trace::SpanKind::Sort);
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
    {
        let _k = trace::span_named(trace::SpanKind::Kernel, "bfs");
    }
    assert!(trace::finish_stream().unwrap() >= Some(2));
    let doc = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let v = lsgraph_bench::report::parse_json(&doc).expect("trace JSON parses");
    let s = format!("{v:?}");
    assert!(s.contains("traceEvents"));
    assert!(s.contains("kernel:bfs"));
    assert!(s.contains("sort"));
    // Complete-event envelope fields.
    assert!(doc.contains("\"ph\": \"X\""));
    assert!(doc.contains("\"pid\": 1"));
    assert!(doc.contains("\"displayTimeUnit\""));
    assert!(doc.contains("\"droppedEvents\": 0"));
}
