//! One benchmark run: set-up, warm-up, measured rounds, report.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use lsgraph_api::Graph;
use lsgraph_core::TierStats;

use crate::calib::median;
use crate::ctx::Ctx;
use crate::engine::{self, StoreDir};
use crate::inputs::Inputs;
use crate::spec::{self, Mode, Workload, BFS_REPS, PROBES, PR_ITERS};
use crate::{durable, layers};

/// Times the benchmark sets up in one run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest measured rounds a run accepts before its deadline may end it.
const MIN_ROUNDS: usize = 5;
/// Recoveries of the dropped store timed by a traced `durable-pipeline` run.
const TRACED_REOPENS: usize = 5;

#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// How long the measured rounds run.
    pub seconds: f64,
    pub trace: bool,
    /// Measure exactly this many rounds, whatever `seconds` says (tests and
    /// `selfcheck` use it so that counts repeat).
    pub rounds: Option<usize>,
    /// Where the trace and the store directory go.
    pub out_dir: PathBuf,
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a count or a single reading).
    pub n: usize,
}

#[derive(Clone, Debug)]
pub struct Report {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub rounds: usize,
    pub metrics: Vec<Metric>,
    /// Tier populations of the base graph.
    pub tiers: TierStats,
}

impl Report {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The last line of standard output the driver reads.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// One `metric <name> <value> <unit> n=<n>` line per metric.
    pub fn table(&self) -> String {
        self.metrics
            .iter()
            .map(|m| format!("metric {} {} {} n={}\n", m.name, m.value, m.unit, m.n))
            .collect()
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Everything the measured rounds leave behind that a metric is made of.
pub struct Measured {
    pub rounds: usize,
    pub setup_s: Vec<f64>,
    pub mem_bytes_per_edge: f64,
    pub tiers: TierStats,
    /// Normalised wall time of each round, traced rounds and control rounds apart.
    pub round_s: [Vec<f64>; 2],
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let w: &'static Workload = spec::workload(&opts.workload)
        .ok_or_else(|| format!("unknown workload '{}'", opts.workload))?;
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {:?}: {e}", opts.out_dir))?;
    let store_dir = StoreDir(
        opts.out_dir
            .join(format!("store-{}-{}", w.name, std::process::id())),
    );
    let mut ctx = Ctx::new();

    // Set up several times; the last engine is the one measured.
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let s = engine::setup(w, opts.seed, &store_dir.0, &mut ctx)?;
        setup_s.push(s.setup_s);
        last = Some(s);
    }
    let engine::Setup {
        mut engine,
        base_edges,
        ..
    } = last.expect("SETUPS > 0");
    let inp = Inputs::new(w, opts.seed, &base_edges);
    drop(base_edges);
    let tiers = engine.graph().tier_stats();
    ctx.checks(|t| {
        t.check(
            "base edge count",
            engine.graph().num_edges() == inp.base.num_edges(),
        )
    });

    // Warm-up round: checked, not measured.
    let setup_samples = std::mem::take(&mut ctx.samples);
    engine::round(&mut engine, w, &inp, &mut ctx);
    ctx.samples = setup_samples;

    let stats_before = engine.graph().struct_snapshot();
    let mut m = Measured {
        rounds: 0,
        setup_s,
        mem_bytes_per_edge: f64::NAN,
        tiers,
        round_s: [Vec::new(), Vec::new()],
    };
    let started = Instant::now();
    loop {
        let done = match opts.rounds {
            Some(r) => m.rounds >= r,
            None => m.rounds >= MIN_ROUNDS && started.elapsed().as_secs_f64() >= opts.seconds,
        };
        if done {
            break;
        }
        // In a traced run every other round records spans; the rest are the
        // control the tracing overhead is measured against.
        let traced = opts.trace && m.rounds.is_multiple_of(2);
        ctx.rec.spans.enabled = traced;
        ctx.rec.spans.round = m.rounds as u32;
        let before: f64 = round_total(&ctx);
        // The footprint is taken from the first measured round, a fixed
        // point of the run, so it does not depend on how many rounds fit.
        let bytes_per_edge = engine::round(&mut engine, w, &inp, &mut ctx);
        if m.rounds == 0 {
            m.mem_bytes_per_edge = bytes_per_edge;
        }
        m.round_s[usize::from(traced)].push(round_total(&ctx) - before);
        m.rounds += 1;
    }
    ctx.rec.spans.enabled = false;
    let stats = engine.graph().struct_snapshot().since(stats_before);

    let mut layer = BTreeMap::new();
    if opts.trace {
        layers::probe(&mut engine, w, &inp, &mut ctx, &mut layer);
    }
    if w.mode == Mode::Durable {
        let reopens = if opts.trace { TRACED_REOPENS } else { 1 };
        durable::finish(engine, w, &inp, &store_dir.0, &mut ctx, reopens, &mut layer)?;
    }

    let metrics = if opts.trace {
        layers::metrics(w, &inp, &ctx, &m, &stats, layer)
    } else {
        end_to_end(w, &inp, &ctx, &m)
    };
    if opts.trace {
        let path = opts.out_dir.join(format!("{}.trace.json", w.name));
        std::fs::write(&path, ctx.rec.spans.to_json(w.name, opts.seed, &ctx.segs))
            .map_err(|e| format!("write {path:?}: {e}"))?;
    }
    let bad = metrics.iter().find(|m| !m.value.is_finite());
    if let Some(b) = bad {
        return Err(format!("metric {} is not a number", b.name));
    }
    Ok(Report {
        workload: w.name,
        correct: ctx.tally.failed == 0,
        attempted: ctx.tally.attempted,
        failed: ctx.tally.failed,
        rounds: m.rounds,
        metrics,
        tiers,
    })
}

/// Sum of every round segment's normalised time so far.
fn round_total(ctx: &Ctx) -> f64 {
    ["U+", "S", "P", "B", "R", "U-"]
        .iter()
        .map(|s| ctx.sample(s).iter().sum::<f64>())
        .sum()
}

pub fn end_to_end(w: &Workload, inp: &Inputs, ctx: &Ctx, m: &Measured) -> Vec<Metric> {
    let up = ctx.sample("U+");
    let um = ctx.sample("U-");
    let meps: Vec<f64> = up
        .iter()
        .zip(um)
        .map(|(a, b)| 2.0 * inp.pool.len() as f64 / (a + b) / 1e6)
        .collect();
    let calls = ctx.sample(w.update_call());
    let seg = |name: &str| (median(ctx.sample(name)), ctx.sample(name).len());
    let (s, sn) = seg("S");
    let (p, pn) = seg("P");
    let (b, bn) = seg("B");
    let (r, rn) = seg("R");
    let values: [(f64, usize); 9] = [
        (median(&m.setup_s), m.setup_s.len()),
        (median(&meps), meps.len()),
        (median(calls) * 1e6, calls.len()),
        (s / w.snapshot_reps as f64 * 1e6, sn),
        (PROBES as f64 / p / 1e6, pn),
        (b / BFS_REPS as f64 * 1e3, bn),
        (r / PR_ITERS as f64 * 1e3, rn),
        (m.mem_bytes_per_edge, 1),
        (peak_rss_mib(), 1),
    ];
    spec::END_TO_END
        .iter()
        .zip(values)
        .map(|(e, (value, n))| Metric {
            name: e.name.to_string(),
            value,
            unit: e.unit,
            n,
        })
        .collect()
}
