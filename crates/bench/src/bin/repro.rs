//! Reproduction harness: one subcommand per paper table/figure.
//!
//! ```text
//! cargo run -p lsgraph-bench --release --bin repro -- <experiment> [--json] [--trace out.json] [--metrics out.jsonl]
//! cargo run -p lsgraph-bench --release --bin repro -- check --baseline BENCH_small.json
//! cargo run -p lsgraph-bench --release --bin repro -- check --metrics metrics.jsonl
//! ```
//!
//! Experiments: `fig3 fig4 fig12 small ablation fig13 table2 table3 fig14
//! fig15 fig16 fig17 table4 g500 durability mixed standing all`. Sizes scale with
//! `REPRO_SCALE` (extra powers of two), `REPRO_BASE` (log2 base vertex
//! count, default 15), and `REPRO_TRIALS` (default 3).
//!
//! With `--json`, experiments that support it (`fig12`, `small`, `fig13`,
//! `durability`, `mixed`, `standing`) write a schema-stable `BENCH_<experiment>.json`
//! with per-engine throughput, phase timings, instrumentation counters,
//! latency histograms, and footprints instead of printing a table (see
//! EXPERIMENTS.md for the schema).
//!
//! With `--trace <path>`, structural trace spans (sort/group/apply/kernel/
//! ria_rebuild/lia_retrain/tier_upgrade) are **streamed** to `<path>` as
//! they complete — long runs drop zero events to ring overflow — and the
//! chrome://tracing JSON is finalized on exit; open the file in
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! With `--metrics <path>`, instrumented experiments (currently `mixed`)
//! stream a sampled metrics time-series to `<path>` as JSONL — one
//! self-describing header line plus one line per sampler tick (engine
//! counters, gauges, latency histogram summaries, per-round writer eps and
//! reader p99). The tick count is deterministic (once per writer round plus
//! a quiescence tick), so the stream itself is checkable.
//!
//! `check --baseline BENCH_<exp>.json` re-runs that experiment at the
//! baseline's recorded scale and exits nonzero if any invariant counter is
//! nonzero or a structural counter regressed past tolerance; see
//! `lsgraph_bench::check`. `check --metrics <path>` validates a recorded
//! metrics stream instead (exact sample count, contiguous ticks, monotone
//! counters); the two flags compose.

use lsgraph_api::{metrics, trace};
use lsgraph_bench::{check, experiments};
use lsgraph_bench::{BenchReport, Scale};

fn emit(report: &BenchReport) {
    match report.write() {
        Ok(path) => eprintln!("[repro] wrote {path}"),
        Err(e) => {
            eprintln!("[repro] failed to write {}: {e}", report.file_name());
            std::process::exit(1);
        }
    }
}

/// Extracts `--flag value` from `args`, removing both tokens.
fn take_value_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("[repro] {flag} requires a value");
        std::process::exit(2);
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

/// Validates a recorded metrics JSONL stream. Returns the number of
/// violations found (0 = clean).
fn check_metrics_file(path: &str) -> usize {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[repro] cannot read metrics stream {path}: {e}");
            std::process::exit(2);
        }
    };
    let errs = check::check_metrics(&text);
    for e in &errs {
        eprintln!("[repro] [metrics] {e}");
    }
    if errs.is_empty() {
        eprintln!("[repro] metrics check PASSED: {path} is a clean time-series");
    } else {
        eprintln!(
            "[repro] metrics check FAILED: {} violation(s) in {path}",
            errs.len()
        );
    }
    errs.len()
}

/// Runs the experiment a baseline report records, at the baseline's scale,
/// and compares structural counters. Exits 0 when clean, 1 on violations.
fn run_check(baseline_path: &str, metrics_violations: usize) -> ! {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[repro] cannot read baseline {baseline_path}: {e}");
            std::process::exit(2);
        }
    };
    let baseline = match BenchReport::from_json(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("[repro] cannot parse baseline {baseline_path}: {e}");
            std::process::exit(2);
        }
    };
    let scale = Scale {
        base: baseline.base,
        shift: baseline.shift,
        trials: baseline.trials,
    };
    eprintln!(
        "[repro] check: re-running '{}' at base=2^{} shift={} trials={}",
        baseline.experiment, scale.base, scale.shift, scale.trials
    );
    let current = match baseline.experiment.as_str() {
        "fig12" => experiments::fig12_report(&scale),
        "small" => experiments::small_batches_report(&scale),
        "fig13" => experiments::fig13_report(&scale),
        "durability" => experiments::durability_report(&scale),
        "mixed" => experiments::mixed_report(&scale),
        "standing" => experiments::standing_report(&scale),
        other => {
            eprintln!("[repro] no check support for experiment '{other}'");
            std::process::exit(2);
        }
    };
    let violations = check::compare(&baseline, &current, check::CheckOptions::default());
    for v in &violations {
        eprintln!("[repro] {}", v.human());
    }
    print!(
        "{}",
        check::violations_json(&baseline.experiment, &violations)
    );
    if violations.is_empty() && metrics_violations == 0 {
        eprintln!(
            "[repro] check PASSED: {} cells match {baseline_path}",
            baseline.engines.len()
        );
        std::process::exit(0);
    }
    eprintln!(
        "[repro] check FAILED: {} violation(s) vs {baseline_path}",
        violations.len() + metrics_violations
    );
    std::process::exit(1);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    let trace_path = take_value_flag(&mut args, "--trace");
    let metrics_path = take_value_flag(&mut args, "--metrics");
    let baseline = take_value_flag(&mut args, "--baseline");
    if args.first().map(String::as_str) == Some("check") {
        let metrics_violations = metrics_path.as_deref().map(check_metrics_file);
        match (baseline, metrics_violations) {
            (Some(b), mv) => run_check(&b, mv.unwrap_or(0)),
            (None, Some(0)) => std::process::exit(0),
            (None, Some(_)) => std::process::exit(1),
            (None, None) => {
                eprintln!(
                    "usage: repro check --baseline BENCH_<experiment>.json [--metrics out.jsonl]\n       repro check --metrics out.jsonl"
                );
                std::process::exit(2);
            }
        }
    }
    let scale = Scale::from_env();
    if args.is_empty() {
        eprintln!(
            "usage: repro <fig3|fig4|fig12|small|ablation|fig13|table2|table3|fig14|fig15|fig16|fig17|table4|g500|durability|mixed|standing|all> [--json] [--trace out.json] [--metrics out.jsonl]\n       repro check --baseline BENCH_<experiment>.json [--metrics out.jsonl]"
        );
        std::process::exit(2);
    }
    eprintln!(
        "[repro] base=2^{} shift={} trials={}",
        scale.base, scale.shift, scale.trials
    );
    // Spans stream to disk as they complete while the trace file is open;
    // its guard finishes the file on drop, so a panicking experiment still
    // leaves a parseable trace behind.
    let _trace_guard = trace_path.as_ref().map(|path| {
        trace::stream_to_file(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("[repro] cannot open trace file {path}: {e}");
            std::process::exit(1);
        })
    });
    if let Some(path) = &metrics_path {
        // Install the metrics sink before the experiments run; instrumented
        // experiments (currently `mixed`) write the header and tick samples.
        if let Err(e) = metrics::stream_to_file(std::path::Path::new(path)) {
            eprintln!("[repro] cannot open metrics stream {path}: {e}");
            std::process::exit(1);
        }
    }
    for arg in &args {
        if json {
            match arg.as_str() {
                "fig12" | "del" => {
                    emit(&experiments::fig12_report(&scale));
                    continue;
                }
                "small" => {
                    emit(&experiments::small_batches_report(&scale));
                    continue;
                }
                "fig13" => {
                    emit(&experiments::fig13_report(&scale));
                    continue;
                }
                "durability" => {
                    emit(&experiments::durability_report(&scale));
                    continue;
                }
                "mixed" => {
                    emit(&experiments::mixed_report(&scale));
                    continue;
                }
                "standing" => {
                    emit(&experiments::standing_report(&scale));
                    continue;
                }
                other => {
                    eprintln!("[repro] no JSON mode for '{other}'; printing the table");
                }
            }
        }
        match arg.as_str() {
            "fig3" => experiments::fig3(&scale),
            "fig4" => experiments::fig4(&scale),
            "fig12" | "del" => experiments::fig12(&scale),
            "small" => experiments::small_batches(&scale),
            "ablation" => experiments::ablation(&scale),
            "fig13" => experiments::fig13(&scale),
            "table2" => experiments::table2(&scale),
            "table3" => experiments::table3(&scale),
            "fig14" => experiments::fig14(&scale),
            "fig15" => experiments::fig15(&scale),
            "fig16" => experiments::fig16(&scale),
            "fig17" => experiments::fig17(&scale),
            "table4" => experiments::table4(&scale),
            "durability" => experiments::durability(&scale),
            "mixed" => experiments::mixed(&scale),
            "standing" => experiments::standing(&scale),
            "sortledton" => experiments::sortledton(&scale),
            "verify" => experiments::verify(&scale),
            "g500" => experiments::g500(&scale),
            "all" => experiments::all(&scale),
            other => {
                eprintln!("unknown experiment: {other}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = trace_path {
        match trace::finish_stream() {
            Ok(Some(events)) => {
                eprintln!("[repro] wrote trace {path} ({events} events, 0 dropped)")
            }
            Ok(None) => eprintln!("[repro] trace stream to {path} was not active"),
            Err(e) => {
                eprintln!("[repro] failed to finalize trace {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = metrics_path {
        match metrics::finish_stream() {
            Ok(Some(samples)) => {
                eprintln!("[repro] wrote metrics {path} ({samples} samples)")
            }
            Ok(None) => eprintln!("[repro] metrics stream to {path} was not active"),
            Err(e) => {
                eprintln!("[repro] failed to finalize metrics {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
