//! Structural-counter regression gate (`repro check --baseline ...`).
//!
//! LSGraph's structural counters are **deterministic** for a fixed seed and
//! scale: batches partition into disjoint per-source runs, so every ripple,
//! rebuild, retrain, and upgrade happens exactly once regardless of thread
//! interleaving. That makes a committed `BENCH_<exp>.json` usable as a
//! regression baseline: re-run the experiment at the baseline's scale and
//! compare counters cell by cell.
//!
//! Which rule a structural counter is held to is its `gate` column in the
//! metric table (`crates/api/src/counters.rs`; EXPERIMENTS.md renders it):
//!
//! - **Invariants** ([`Gate::Invariant`]): counters
//!   that stay at zero in a correct build — those the paper's design proves
//!   (a ripple exceeding the `log2(num_blocks)+1` bound, a vertical LIA move
//!   without a preceding block overflow) and the fault-handling ones (a
//!   benchmark run has failpoints disabled, writes and recovers its own
//!   files under controlled shutdowns, so a panic or a discarded frame or
//!   image is a real defect). Any nonzero value in the *current* run
//!   fails, regardless of the baseline (a baseline that already carries a
//!   nonzero invariant is itself reported).
//! - **Gated counters** ([`Gate::Drift`]): volumes that
//!   are legal but expensive, and deterministic per seed (rebuilds,
//!   retrains, ripples, upgrades, WAL and delivery traffic, probe and decode
//!   counts). The current value may not exceed
//!   `baseline + max(abs_slack, baseline * rel_tolerance)` — slack absorbs
//!   intended small drifts (a constant tweak) while catching order-of-
//!   magnitude regressions (a broken α-expansion that rebuilds per insert).
//! - **Latency counts** (every histogram of
//!   [`LatencySnapshot::fields`](lsgraph_api::LatencySnapshot::fields)):
//!   the histogram *counts* (how many batch applies, per-source group
//!   applies, and kernel invocations were recorded) are as deterministic as
//!   the structural counters — one record per event, events fixed by seed
//!   and scale — so they are gated by **exact equality**. The bucketed
//!   values themselves are wall-clock and never compared. A cell whose
//!   baseline carries histograms but whose current run records none fails
//!   (silent loss of latency coverage).
//!
//! Cells are matched by `(engine, dataset, batch_size)`; a baseline cell
//! missing from the current run is an error (losing coverage silently would
//! defeat the gate).

use crate::report::{parse_json, BenchReport, Json};
use lsgraph_api::{Gate, StructSnapshot};

/// Tolerances for the gated comparison.
#[derive(Clone, Copy, Debug)]
pub struct CheckOptions {
    /// Allowed relative growth over the baseline value (0.10 = +10%).
    pub rel_tolerance: f64,
    /// Absolute slack floor, so near-zero baselines aren't over-strict.
    pub abs_slack: u64,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            rel_tolerance: 0.10,
            abs_slack: 8,
        }
    }
}

/// One violated rule.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Engine display name of the offending cell.
    pub engine: String,
    /// Dataset of the offending cell.
    pub dataset: String,
    /// Batch size of the offending cell.
    pub batch_size: usize,
    /// Counter name (empty for [`ViolationKind::MissingCell`]).
    pub counter: String,
    /// What rule was broken.
    pub kind: ViolationKind,
    /// Baseline value (0 for missing-cell violations).
    pub baseline: u64,
    /// Current value (0 for missing-cell violations).
    pub current: u64,
    /// Largest current value the rule would have accepted.
    pub allowed: u64,
}

/// The rule a [`Violation`] broke.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// An invariant counter is nonzero in the current run.
    Invariant,
    /// A gated counter grew past the baseline plus tolerance.
    Regression,
    /// The current run has no cell matching a baseline cell.
    MissingCell,
    /// A latency histogram's count differs from the baseline's (counts are
    /// deterministic; equality is exact).
    LatencyCount,
}

impl ViolationKind {
    fn name(self) -> &'static str {
        match self {
            ViolationKind::Invariant => "invariant",
            ViolationKind::Regression => "regression",
            ViolationKind::MissingCell => "missing_cell",
            ViolationKind::LatencyCount => "latency_count",
        }
    }
}

impl Violation {
    /// One-line human rendering.
    pub fn human(&self) -> String {
        match self.kind {
            ViolationKind::MissingCell => format!(
                "[missing_cell] {}/{}/bs={}: baseline cell absent from current run",
                self.engine, self.dataset, self.batch_size
            ),
            ViolationKind::Invariant => format!(
                "[invariant] {}/{}/bs={}: {} = {} (must be 0)",
                self.engine, self.dataset, self.batch_size, self.counter, self.current
            ),
            ViolationKind::Regression => format!(
                "[regression] {}/{}/bs={}: {} = {} exceeds baseline {} + tolerance (allowed {})",
                self.engine,
                self.dataset,
                self.batch_size,
                self.counter,
                self.current,
                self.baseline,
                self.allowed
            ),
            ViolationKind::LatencyCount => format!(
                "[latency_count] {}/{}/bs={}: {} count = {} differs from baseline {} \
                 (counts are deterministic; must match exactly)",
                self.engine,
                self.dataset,
                self.batch_size,
                self.counter,
                self.current,
                self.baseline
            ),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"kind\": \"{}\", \"engine\": \"{}\", \"dataset\": \"{}\", \"batch_size\": {}, \
             \"counter\": \"{}\", \"baseline\": {}, \"current\": {}, \"allowed\": {}}}",
            self.kind.name(),
            self.engine,
            self.dataset,
            self.batch_size,
            self.counter,
            self.baseline,
            self.current,
            self.allowed
        )
    }
}

/// Renders the verdict as a small JSON document (machine half of the
/// `repro check` output).
pub fn violations_json(experiment: &str, violations: &[Violation]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"experiment\": \"{experiment}\",\n"));
    out.push_str(&format!(
        "  \"ok\": {},\n",
        if violations.is_empty() {
            "true"
        } else {
            "false"
        }
    ));
    out.push_str("  \"violations\": [");
    for (i, v) in violations.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        out.push_str(&v.json());
    }
    if !violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Compares a fresh run against a baseline report. Pure function of the two
/// documents (no I/O), so perturbation tests can drive it directly.
pub fn compare(
    baseline: &BenchReport,
    current: &BenchReport,
    opts: CheckOptions,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for b in &baseline.engines {
        let mut violation = |counter: String, kind, baseline, current, allowed| {
            out.push(Violation {
                engine: b.engine.clone(),
                dataset: b.dataset.clone(),
                batch_size: b.batch_size,
                counter,
                kind,
                baseline,
                current,
                allowed,
            })
        };
        let Some(c) = current.engines.iter().find(|c| {
            c.engine == b.engine && c.dataset == b.dataset && c.batch_size == b.batch_size
        }) else {
            violation(String::new(), ViolationKind::MissingCell, 0, 0, 0);
            continue;
        };
        // Latency-histogram counts: exact equality wherever the baseline
        // recorded histograms (a current run without them counts as 0 and
        // fails — silently losing latency coverage defeats the gate).
        if let Some(blat) = &b.latency {
            let clat = c.latency.unwrap_or_default();
            for ((name, bh), (_, ch)) in blat.fields().into_iter().zip(clat.fields()) {
                let (base, cur) = (bh.count(), ch.count());
                if cur != base {
                    let counter = format!("latency.{name}");
                    violation(counter, ViolationKind::LatencyCount, base, cur, base);
                }
            }
        }
        // Only cells with structural counters participate (baselines from
        // PMA-family engines carry OpCounters, which are workload-shaped
        // rather than invariant-bearing). Invariants are reported first.
        let (Some(bs), Some(cs)) = (b.struct_stats, c.struct_stats) else {
            continue;
        };
        let values = bs.fields().into_iter().zip(cs.fields());
        let rows = StructSnapshot::METRICS.iter().zip(values);
        for (m, ((_, base), (_, cur))) in rows.clone().filter(|(m, _)| m.gate == Gate::Invariant) {
            if cur != 0 {
                violation(m.name.to_string(), ViolationKind::Invariant, base, cur, 0);
            }
        }
        for (m, ((_, base), (_, cur))) in rows.filter(|(m, _)| m.gate == Gate::Drift) {
            let slack = ((base as f64 * opts.rel_tolerance).ceil() as u64).max(opts.abs_slack);
            let allowed = base.saturating_add(slack);
            if cur > allowed {
                violation(
                    m.name.to_string(),
                    ViolationKind::Regression,
                    base,
                    cur,
                    allowed,
                );
            }
        }
    }
    out
}

fn jget<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn juint(j: &Json) -> Option<u64> {
    match j {
        Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
        _ => None,
    }
}

/// Per-cell running state while walking a metrics JSONL stream.
struct CellState {
    cell: String,
    next_tick: u64,
    last_counters: Vec<(String, u64)>,
}

/// Validates a metrics JSONL time-series (`repro <exp> --metrics out.jsonl`)
/// against the properties the sampler guarantees:
///
/// - the header line carries the `lsgraph-metrics-v1` schema tag and a
///   `samples_expected` count that the file must hit **exactly** (the
///   sampler ticks once per writer round plus once at quiescence — a
///   deterministic function of the workload);
/// - per cell, ticks are contiguous from 0 (no dropped or duplicated
///   samples);
/// - every counter is monotone non-decreasing sample over sample (counters
///   only ever accumulate; a decrease means torn sampling or a reset
///   mid-run).
///
/// Returns human-readable violations; empty means the stream is clean.
pub fn check_metrics(text: &str) -> Vec<String> {
    let mut errs = Vec::new();
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let Some((_, header_line)) = lines.next() else {
        return vec!["metrics stream is empty (no header line)".to_string()];
    };
    let header = match parse_json(header_line) {
        Ok(Json::Obj(m)) => m,
        Ok(other) => return vec![format!("metrics header is not an object: {other:?}")],
        Err(e) => return vec![format!("metrics header is not valid JSON: {e}")],
    };
    match jget(&header, "schema") {
        Some(Json::Str(s)) if s == lsgraph_api::METRICS_SCHEMA => {}
        other => errs.push(format!(
            "metrics header schema must be \"{}\", got {other:?}",
            lsgraph_api::METRICS_SCHEMA
        )),
    }
    if !matches!(jget(&header, "experiment"), Some(Json::Str(_))) {
        errs.push("metrics header is missing the experiment name".to_string());
    }
    let expected = jget(&header, "samples_expected").and_then(juint);
    if expected.is_none() {
        errs.push("metrics header is missing samples_expected".to_string());
    }

    let mut cells: Vec<CellState> = Vec::new();
    let mut samples = 0u64;
    for (i, line) in lines {
        let lineno = i + 1;
        let obj = match parse_json(line) {
            Ok(Json::Obj(m)) => m,
            Ok(other) => {
                errs.push(format!("line {lineno}: sample is not an object: {other:?}"));
                continue;
            }
            Err(e) => {
                errs.push(format!("line {lineno}: invalid JSON: {e}"));
                continue;
            }
        };
        samples += 1;
        let Some(Json::Str(cell)) = jget(&obj, "cell") else {
            errs.push(format!("line {lineno}: sample has no cell label"));
            continue;
        };
        let Some(tick) = jget(&obj, "tick").and_then(juint) else {
            errs.push(format!("line {lineno}: sample has no integer tick"));
            continue;
        };
        let counters = match jget(&obj, "counters") {
            Some(Json::Obj(m)) => m
                .iter()
                .filter_map(|(k, v)| juint(v).map(|n| (k.clone(), n)))
                .collect::<Vec<_>>(),
            _ => {
                errs.push(format!("line {lineno}: sample has no counters object"));
                continue;
            }
        };
        if !matches!(jget(&obj, "gauges"), Some(Json::Obj(_))) {
            errs.push(format!("line {lineno}: sample has no gauges object"));
            continue;
        }
        let state = match cells.iter_mut().find(|c| &c.cell == cell) {
            Some(s) => s,
            None => {
                cells.push(CellState {
                    cell: cell.clone(),
                    next_tick: 0,
                    last_counters: Vec::new(),
                });
                cells.last_mut().expect("just pushed")
            }
        };
        if tick != state.next_tick {
            errs.push(format!(
                "line {lineno}: cell {cell} tick {tick} is not contiguous (expected {})",
                state.next_tick
            ));
        }
        state.next_tick = tick + 1;
        for (name, prev) in &state.last_counters {
            match counters.iter().find(|(n, _)| n == name) {
                Some((_, cur)) if cur >= prev => {}
                Some((_, cur)) => errs.push(format!(
                    "line {lineno}: cell {cell} counter {name} decreased {prev} -> {cur} \
                     (counters must be monotone non-decreasing)"
                )),
                None => errs.push(format!(
                    "line {lineno}: cell {cell} counter {name} disappeared mid-stream"
                )),
            }
        }
        state.last_counters = counters;
    }

    if cells.is_empty() {
        errs.push("metrics stream has a header but no samples".to_string());
    }
    if let Some(expected) = expected {
        if samples != expected {
            errs.push(format!(
                "metrics stream has {samples} samples but the header promised exactly {expected}"
            ));
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{EngineReport, SCHEMA_VERSION};
    use lsgraph_api::StructSnapshot;

    fn cell(engine: &str, ss: Option<StructSnapshot>) -> EngineReport {
        EngineReport {
            engine: engine.to_string(),
            dataset: "OR".to_string(),
            batch_size: 10,
            insert_eps: 1.0,
            delete_eps: 1.0,
            insert_nanos: 1,
            delete_nanos: 1,
            struct_stats: ss,
            ..EngineReport::default()
        }
    }

    /// A latency snapshot with `n` batch applies (one 100ns sample each)
    /// and nothing else.
    fn lat(n: u64) -> lsgraph_api::LatencySnapshot {
        let h = lsgraph_api::LatencyHistogram::new();
        for _ in 0..n {
            h.record(100);
        }
        lsgraph_api::LatencySnapshot {
            batch_apply: h.snapshot(),
            group_apply: lsgraph_api::HistogramSnapshot::default(),
            kernel: lsgraph_api::HistogramSnapshot::default(),
            reader: lsgraph_api::HistogramSnapshot::default(),
        }
    }

    fn report(engines: Vec<EngineReport>) -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            experiment: "small".to_string(),
            base: 10,
            shift: 0,
            trials: 1,
            engines,
        }
    }

    fn stats(rebuilds: u64) -> StructSnapshot {
        StructSnapshot {
            ria_rebuilds: rebuilds,
            ria_ripples: 100,
            ..StructSnapshot::default()
        }
    }

    #[test]
    fn identical_runs_pass() {
        let b = report(vec![cell("LSGraph", Some(stats(10)))]);
        assert!(compare(&b, &b.clone(), CheckOptions::default()).is_empty());
    }

    #[test]
    fn small_drift_within_tolerance_passes() {
        let b = report(vec![cell("LSGraph", Some(stats(100)))]);
        // +10 rebuilds on a baseline of 100 = exactly the 10% tolerance.
        let c = report(vec![cell("LSGraph", Some(stats(110)))]);
        assert!(compare(&b, &c, CheckOptions::default()).is_empty());
    }

    #[test]
    fn perturbed_gated_counter_fails() {
        let b = report(vec![cell("LSGraph", Some(stats(10)))]);
        let c = report(vec![cell("LSGraph", Some(stats(100)))]);
        let v = compare(&b, &c, CheckOptions::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Regression);
        assert_eq!(v[0].counter, "ria_rebuilds");
        assert_eq!(v[0].baseline, 10);
        assert_eq!(v[0].current, 100);
        assert_eq!(v[0].allowed, 18); // 10 + max(ceil(1), 8)
    }

    #[test]
    fn nonzero_invariant_fails_even_if_baseline_had_it() {
        let bad = StructSnapshot {
            ria_bound_exceeded: 1,
            ..StructSnapshot::default()
        };
        let b = report(vec![cell("LSGraph", Some(bad))]);
        let c = report(vec![cell("LSGraph", Some(bad))]);
        let v = compare(&b, &c, CheckOptions::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Invariant);
        assert_eq!(v[0].counter, "ria_bound_exceeded");
    }

    #[test]
    fn nonzero_fault_counter_fails() {
        let b = report(vec![cell("LSGraph", Some(StructSnapshot::default()))]);
        let faulted = StructSnapshot {
            apply_run_panics: 2,
            vertices_quarantined: 2,
            ..StructSnapshot::default()
        };
        let c = report(vec![cell("LSGraph", Some(faulted))]);
        let v = compare(&b, &c, CheckOptions::default());
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.kind == ViolationKind::Invariant));
        assert!(v.iter().any(|x| x.counter == "apply_run_panics"));
        assert!(v.iter().any(|x| x.counter == "vertices_quarantined"));
    }

    #[test]
    fn missing_cell_fails() {
        let b = report(vec![cell("LSGraph", Some(stats(1))), cell("Terrace", None)]);
        let c = report(vec![cell("LSGraph", Some(stats(1)))]);
        let v = compare(&b, &c, CheckOptions::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::MissingCell);
        assert_eq!(v[0].engine, "Terrace");
    }

    #[test]
    fn equal_latency_counts_pass() {
        let mut a = cell("LSGraph", Some(stats(10)));
        a.latency = Some(lat(7));
        let b = report(vec![a.clone()]);
        let c = report(vec![a]);
        assert!(compare(&b, &c, CheckOptions::default()).is_empty());
    }

    #[test]
    fn drifted_latency_count_fails_exactly() {
        let mut base = cell("LSGraph", Some(stats(10)));
        base.latency = Some(lat(7));
        let mut cur = cell("LSGraph", Some(stats(10)));
        // One extra batch apply: within any throughput tolerance, but the
        // count gate is exact.
        cur.latency = Some(lat(8));
        let v = compare(
            &report(vec![base]),
            &report(vec![cur]),
            CheckOptions::default(),
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::LatencyCount);
        assert_eq!(v[0].counter, "latency.batch_apply");
        assert_eq!((v[0].baseline, v[0].current), (7, 8));
        assert!(v[0].human().contains("latency_count"));
    }

    #[test]
    fn losing_latency_coverage_fails() {
        let mut base = cell("LSGraph", Some(stats(10)));
        base.latency = Some(lat(3));
        let cur = cell("LSGraph", Some(stats(10)));
        let v = compare(
            &report(vec![base]),
            &report(vec![cur]),
            CheckOptions::default(),
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::LatencyCount);
        assert_eq!(v[0].current, 0);
    }

    #[test]
    fn torn_wal_counter_is_an_invariant() {
        let b = report(vec![cell("LSGraph", Some(StructSnapshot::default()))]);
        let torn = StructSnapshot {
            recovery_frames_discarded: 1,
            ..StructSnapshot::default()
        };
        let c = report(vec![cell("LSGraph", Some(torn))]);
        let v = compare(&b, &c, CheckOptions::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Invariant);
        assert_eq!(v[0].counter, "recovery_frames_discarded");
    }

    #[test]
    fn discarded_image_counter_is_an_invariant() {
        let b = report(vec![cell("LSGraph", Some(StructSnapshot::default()))]);
        let broken = StructSnapshot {
            recovery_images_discarded: 1,
            ..StructSnapshot::default()
        };
        let c = report(vec![cell("LSGraph", Some(broken))]);
        let v = compare(&b, &c, CheckOptions::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Invariant);
        assert_eq!(v[0].counter, "recovery_images_discarded");
    }

    #[test]
    fn rotation_and_delta_volumes_are_gated() {
        let base = StructSnapshot {
            wal_segments_rotated: 40,
            wal_segments_deleted: 30,
            delta_checkpoints_written: 10,
            ..StructSnapshot::default()
        };
        let blown = StructSnapshot {
            wal_segments_rotated: 400,
            wal_segments_deleted: 300,
            delta_checkpoints_written: 100,
            ..StructSnapshot::default()
        };
        let b = report(vec![cell("LSGraph+WAL/rotating", Some(base))]);
        let c = report(vec![cell("LSGraph+WAL/rotating", Some(blown))]);
        let v = compare(&b, &c, CheckOptions::default());
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|x| x.kind == ViolationKind::Regression));
        for name in [
            "wal_segments_rotated",
            "wal_segments_deleted",
            "delta_checkpoints_written",
        ] {
            assert!(v.iter().any(|x| x.counter == name), "missing {name}");
        }
    }

    #[test]
    fn wal_frame_volume_is_gated() {
        let base = StructSnapshot {
            wal_frames_appended: 100,
            ..StructSnapshot::default()
        };
        let blown = StructSnapshot {
            wal_frames_appended: 200,
            ..StructSnapshot::default()
        };
        let b = report(vec![cell("LSGraph", Some(base))]);
        let c = report(vec![cell("LSGraph", Some(blown))]);
        let v = compare(&b, &c, CheckOptions::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Regression);
        assert_eq!(v[0].counter, "wal_frames_appended");
    }

    #[test]
    fn snapshot_volume_is_gated() {
        let base = StructSnapshot {
            snapshots_taken: 32,
            snapshots_retired: 32,
            cow_block_copies: 1_000,
            ..StructSnapshot::default()
        };
        let blown = StructSnapshot {
            cow_block_copies: 10_000,
            ..base
        };
        let b = report(vec![cell("LSGraph", Some(base))]);
        let c = report(vec![cell("LSGraph", Some(blown))]);
        let v = compare(&b, &c, CheckOptions::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Regression);
        assert_eq!(v[0].counter, "cow_block_copies");
    }

    #[test]
    fn subscription_panic_is_an_invariant() {
        let b = report(vec![cell("LSGraph", Some(StructSnapshot::default()))]);
        let panicked = StructSnapshot {
            subscription_panics: 1,
            ..StructSnapshot::default()
        };
        let c = report(vec![cell("LSGraph", Some(panicked))]);
        let v = compare(&b, &c, CheckOptions::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Invariant);
        assert_eq!(v[0].counter, "subscription_panics");
    }

    #[test]
    fn delta_volumes_are_gated() {
        let base = StructSnapshot {
            deltas_delivered: 100,
            delta_entries_emitted: 2_000,
            ..StructSnapshot::default()
        };
        let blown = StructSnapshot {
            deltas_delivered: 1_000,
            delta_entries_emitted: 20_000,
            ..StructSnapshot::default()
        };
        let b = report(vec![cell("LSGraph", Some(base))]);
        let c = report(vec![cell("LSGraph", Some(blown))]);
        let v = compare(&b, &c, CheckOptions::default());
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.kind == ViolationKind::Regression));
        assert!(v.iter().any(|x| x.counter == "deltas_delivered"));
        assert!(v.iter().any(|x| x.counter == "delta_entries_emitted"));
    }

    #[test]
    fn cells_without_struct_stats_are_skipped() {
        let b = report(vec![cell("Aspen", None)]);
        let c = report(vec![cell("Aspen", None)]);
        assert!(compare(&b, &c, CheckOptions::default()).is_empty());
    }

    /// Builds one metrics sample line by hand (the sampler's wire format).
    fn sample_line(cell: &str, tick: u64, ripples: u64) -> String {
        format!(
            "{{\"cell\":\"{cell}\",\"tick\":{tick},\"elapsed_ns\":12345,\"writer_eps\":1.5,\
             \"counters\":{{\"lsgraph_ria_ripples\":{ripples}}},\
             \"gauges\":{{\"lsgraph_ria_max_ripple_span\":3}},\"histograms\":{{}}}}"
        )
    }

    fn metrics_doc(samples: &[String]) -> String {
        let mut doc = format!(
            "{{\"schema\":\"lsgraph-metrics-v1\",\"experiment\":\"mixed\",\
             \"samples_expected\":{}}}\n",
            samples.len()
        );
        for s in samples {
            doc.push_str(s);
            doc.push('\n');
        }
        doc
    }

    #[test]
    fn clean_metrics_stream_passes() {
        let doc = metrics_doc(&[
            sample_line("OR/bs=16", 0, 5),
            sample_line("OR/bs=16", 1, 9),
            sample_line("OR/bs=32", 0, 3),
            sample_line("OR/bs=16", 2, 9),
            sample_line("OR/bs=32", 1, 3),
        ]);
        assert_eq!(check_metrics(&doc), Vec::<String>::new());
    }

    #[test]
    fn decreasing_counter_fails_monotonicity() {
        let doc = metrics_doc(&[sample_line("OR/bs=16", 0, 9), sample_line("OR/bs=16", 1, 5)]);
        let errs = check_metrics(&doc);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("decreased 9 -> 5"), "{errs:?}");
    }

    #[test]
    fn sample_count_must_match_header_exactly() {
        let mut doc = metrics_doc(&[sample_line("OR/bs=16", 0, 1)]);
        // Promise two samples, deliver one.
        doc = doc.replace("\"samples_expected\":1", "\"samples_expected\":2");
        let errs = check_metrics(&doc);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("promised exactly 2"), "{errs:?}");
    }

    #[test]
    fn non_contiguous_ticks_fail() {
        let doc = metrics_doc(&[sample_line("OR/bs=16", 0, 1), sample_line("OR/bs=16", 2, 2)]);
        let errs = check_metrics(&doc);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("not contiguous"), "{errs:?}");
    }

    #[test]
    fn wrong_schema_and_empty_stream_fail() {
        assert!(!check_metrics("").is_empty());
        let bad = "{\"schema\":\"something-else\",\"experiment\":\"mixed\",\
                   \"samples_expected\":0}\n";
        let errs = check_metrics(bad);
        assert!(errs.iter().any(|e| e.contains("schema")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("no samples")), "{errs:?}");
    }

    #[test]
    fn json_output_is_parseable_and_flags_ok() {
        let b = report(vec![cell("LSGraph", Some(stats(10)))]);
        let c = report(vec![cell("LSGraph", Some(stats(100)))]);
        let v = compare(&b, &c, CheckOptions::default());
        let doc = violations_json("small", &v);
        let parsed = crate::report::parse_json(&doc).expect("valid JSON");
        let s = format!("{parsed:?}");
        assert!(s.contains("ria_rebuilds"));
        assert!(doc.contains("\"ok\": false"));
        let clean = violations_json("small", &[]);
        assert!(clean.contains("\"ok\": true"));
        crate::report::parse_json(&clean).expect("valid JSON");
    }
}
