//! Unified metrics registry, time-series sampling, and Prometheus export.
//!
//! The observability pieces grown so far — [`StructStats`] counters and
//! gauges (the persist and queries layers record into the owning engine's
//! instance too) and the four [`LatencyStats`] histograms — are all read
//! **once, at report time**.
//! A 60-second `repro mixed` run therefore collapses writer stalls, CoW
//! bursts, and reclamation backlog spikes into single end-of-run numbers.
//!
//! This module adds the *over time* view:
//!
//! - [`MetricsRegistry`] adapts every existing source behind one
//!   named-metric interface: counters (monotone), gauges (point-in-time:
//!   the rows of the metric table whose
//!   [`MetricKind::is_gauge`](crate::MetricKind::is_gauge)), and
//!   histograms. A [`MetricsRegistry::sample`] is a deterministic,
//!   pinned-order snapshot.
//! - A JSONL **time-series stream** ([`stream_to_file`]) on the same
//!   process-global line sink as [`crate::trace::stream_to_file`], with an
//!   idempotent [`finish_stream`]. Each sample is one fully-formed line
//!   written with a single `write_all` and flushed immediately, so a
//!   sampler killed mid-run can never leave a torn line — the file is
//!   always a valid JSONL prefix.
//! - [`Sampler`] snapshots a registry on demand (deterministic tick counts
//!   under `repro`, where the harness ticks once per writer round). It
//!   evaluates the `metrics_sample` failpoint at the top of every tick,
//!   before any byte is written.
//! - [`RegistrySample::render_prometheus`] renders Prometheus text
//!   exposition (counters as `*_total`, log2 histogram buckets as
//!   cumulative `le` buckets), and [`parse_prometheus`] round-trips it —
//!   the future server crate gets `/metrics` for free.
//! - Under the `count-alloc` feature a counting [`std::alloc::System`]
//!   wrapper is installed as `#[global_allocator]`, contributing
//!   process-wide `process_heap_bytes_live` / `_peak` gauges (see
//!   [`heap_gauges`]); without the feature those gauges are absent and
//!   [`crate::footprint::heap_summary`] reports `N/A`.

use std::path::Path;
#[cfg(feature = "count-alloc")]
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::counters::{StructSnapshot, StructStats};
use crate::fail_point;
use crate::histogram::{bucket_index, bucket_upper_bound, HistogramSnapshot, LatencyStats};
use crate::sink::LineSink;

/// Schema tag written as the first JSONL line by [`write_header`].
pub const METRICS_SCHEMA: &str = "lsgraph-metrics-v1";

// ---------------------------------------------------------------------------
// Counting global allocator (feature `count-alloc`)
// ---------------------------------------------------------------------------

#[cfg(feature = "count-alloc")]
mod count_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static LIVE: AtomicU64 = AtomicU64::new(0);
    pub static PEAK: AtomicU64 = AtomicU64::new(0);

    #[inline]
    fn add(n: u64) {
        let live = LIVE.fetch_add(n, Ordering::Relaxed).wrapping_add(n);
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    /// [`System`] wrapper counting live and peak heap bytes. Counts layout
    /// sizes, not allocator-internal overhead — a deterministic lower bound
    /// that matches what `Footprint` self-reporting measures against.
    pub struct CountingAlloc;

    // SAFETY: defers every allocation to `System`; the atomics only observe.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                add(layout.size() as u64);
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc_zeroed(layout) };
            if !p.is_null() {
                add(layout.size() as u64);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) };
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
                add(new_size as u64);
            }
            p
        }
    }

    #[global_allocator]
    static COUNTING_ALLOC: CountingAlloc = CountingAlloc;
}

/// `(live, peak)` heap bytes from the counting allocator, or `None` when the
/// `count-alloc` feature is off. Peak is monotone over the process lifetime.
/// Self-reported footprints measure what structures *claim* to hold; these
/// measure what the process actually allocated, so the gap between them is
/// unaccounted overhead (allocator slack, harness buffers).
pub fn heap_gauges() -> Option<(u64, u64)> {
    #[cfg(feature = "count-alloc")]
    {
        let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        Some((load(&count_alloc::LIVE), load(&count_alloc::PEAK)))
    }
    #[cfg(not(feature = "count-alloc"))]
    {
        None
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A unified, named view over every metrics source in the process.
///
/// Sources are registered with a `prefix`; every metric they expose is
/// named `{prefix}_{field}`. Registration order is sampling order, so a
/// registry's [`sample`](MetricsRegistry::sample) has pinned field order —
/// the property the Prometheus golden test and the JSONL schema rely on.
#[derive(Default)]
pub struct MetricsRegistry {
    structs: Vec<(String, Arc<StructStats>)>,
    latencies: Vec<(String, Arc<LatencyStats>)>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers a [`StructStats`] source; its fields become
    /// `{prefix}_{field}` gauges (the table rows of a gauge kind) and
    /// counters (every other row: those only ever grow, which is what the
    /// `repro check --metrics` monotonicity gate asserts sample over
    /// sample). The persist and queries rows ride along because those
    /// layers record into the engine's own `StructStats`.
    pub fn register_struct_stats(&mut self, prefix: impl Into<String>, stats: Arc<StructStats>) {
        self.structs.push((prefix.into(), stats));
    }

    /// Registers a [`LatencyStats`] source; its four histograms become
    /// `{prefix}_batch_apply` .. `{prefix}_reader`.
    pub fn register_latency_stats(
        &mut self,
        prefix: impl Into<String>,
        latency: Arc<LatencyStats>,
    ) {
        self.latencies.push((prefix.into(), latency));
    }

    /// Snapshots every registered source into a pinned-order sample.
    /// Cheap (relaxed atomic loads + shard merges) and read-only: sampling
    /// never perturbs any counter.
    pub fn sample(&self) -> RegistrySample {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        for (prefix, stats) in &self.structs {
            let fields = stats.snapshot().fields();
            for (m, (name, v)) in StructSnapshot::METRICS.iter().zip(fields) {
                let full = format!("{prefix}_{name}");
                if m.kind.is_gauge() {
                    gauges.push((full, v));
                } else {
                    counters.push((full, v));
                }
            }
        }
        if let Some((live, peak)) = heap_gauges() {
            gauges.push(("process_heap_bytes_live".to_string(), live));
            gauges.push(("process_heap_bytes_peak".to_string(), peak));
        }
        let mut histograms = Vec::new();
        for (prefix, latency) in &self.latencies {
            let snap = latency.snapshot();
            for (name, h) in snap.fields() {
                histograms.push((format!("{prefix}_{name}"), *h));
            }
        }
        RegistrySample {
            counters,
            gauges,
            histograms,
        }
    }

    /// Renders the current state as Prometheus text exposition (see
    /// [`RegistrySample::render_prometheus`]).
    pub fn render_prometheus(&self) -> String {
        self.sample().render_prometheus()
    }
}

/// One pinned-order snapshot of a [`MetricsRegistry`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegistrySample {
    /// Monotone counters as `(name, value)`, registration/schema order.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time gauges as `(name, value)`, registration/schema order.
    pub gauges: Vec<(String, u64)>,
    /// Latency histograms as `(name, merged snapshot)`.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl RegistrySample {
    /// Renders the sample in Prometheus text exposition format:
    ///
    /// - counters as `# TYPE {name}_total counter` + `{name}_total v`
    /// - gauges as `# TYPE {name} gauge` + `{name} v`
    /// - histograms as `# TYPE {name}_ns histogram` with **cumulative**
    ///   `le`-labelled buckets (one line per non-empty log2 bucket, upper
    ///   bound `2^b - 1`, plus the mandatory `+Inf`), `_sum`, `_count`, and
    ///   a non-standard `{name}_ns_max` gauge so the exact tracked maximum
    ///   survives the round trip ([`parse_prometheus`] reattaches it).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE {name}_total counter\n{name}_total {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("# TYPE {name}_ns histogram\n"));
            let mut cum = 0u64;
            for (b, c) in h.nonzero_buckets() {
                cum += c;
                out.push_str(&format!(
                    "{name}_ns_bucket{{le=\"{}\"}} {cum}\n",
                    bucket_upper_bound(b)
                ));
            }
            out.push_str(&format!("{name}_ns_bucket{{le=\"+Inf\"}} {cum}\n"));
            out.push_str(&format!("{name}_ns_sum {}\n", h.sum));
            out.push_str(&format!("{name}_ns_count {}\n", h.count()));
            out.push_str(&format!(
                "# TYPE {name}_ns_max gauge\n{name}_ns_max {}\n",
                h.max
            ));
        }
        out
    }
}

/// Parses text produced by [`RegistrySample::render_prometheus`] back into
/// a [`RegistrySample`] — the round-trip half of the exposition golden
/// test, and a free correctness check for any future `/metrics` endpoint.
pub fn parse_prometheus(text: &str) -> Result<RegistrySample, String> {
    // (name, type) in declaration order; plain samples; histogram buckets.
    let mut types: Vec<(String, String)> = Vec::new();
    let mut values: Vec<(String, u64)> = Vec::new();
    let mut buckets: Vec<(String, String, u64)> = Vec::new(); // (hist, le, cum)
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or("TYPE line missing name")?;
            let ty = it.next().ok_or("TYPE line missing type")?;
            types.push((name.to_string(), ty.to_string()));
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (lhs, rhs) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("malformed sample line: {line}"))?;
        let value: u64 = rhs
            .parse()
            .map_err(|_| format!("non-integer value in: {line}"))?;
        if let Some((name, labels)) = lhs.split_once('{') {
            let le = labels
                .strip_prefix("le=\"")
                .and_then(|s| s.strip_suffix("\"}"))
                .ok_or_else(|| format!("unsupported labels in: {line}"))?;
            let hist = name
                .strip_suffix("_bucket")
                .ok_or_else(|| format!("labelled non-bucket sample: {line}"))?;
            buckets.push((hist.to_string(), le.to_string(), value));
        } else {
            values.push((lhs.to_string(), value));
        }
    }
    let value_of = |name: &str| -> Result<u64, String> {
        values
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("missing sample: {name}"))
    };
    let hist_names: Vec<&str> = types
        .iter()
        .filter(|(_, t)| t == "histogram")
        .map(|(n, _)| n.as_str())
        .collect();
    let mut out = RegistrySample::default();
    for (name, ty) in &types {
        match ty.as_str() {
            "counter" => {
                let base = name
                    .strip_suffix("_total")
                    .ok_or_else(|| format!("counter without _total suffix: {name}"))?;
                out.counters.push((base.to_string(), value_of(name)?));
            }
            "gauge" => {
                // `{hist}_max` gauges belong to their histogram, not the
                // flat gauge list.
                if hist_names.iter().any(|h| name == &format!("{h}_max")) {
                    continue;
                }
                out.gauges.push((name.clone(), value_of(name)?));
            }
            "histogram" => {
                let mut pairs = Vec::new();
                let mut prev_cum = 0u64;
                let mut inf_cum = 0u64;
                for (_, le, cum) in buckets.iter().filter(|(h, _, _)| h == name) {
                    if le == "+Inf" {
                        inf_cum = *cum;
                        continue;
                    }
                    let bound: u64 = le
                        .parse()
                        .map_err(|_| format!("bad le bound {le} for {name}"))?;
                    let b = if bound == 0 { 0 } else { bucket_index(bound) };
                    pairs.push((b, cum - prev_cum));
                    prev_cum = *cum;
                }
                let sum = value_of(&format!("{name}_sum"))?;
                let count = value_of(&format!("{name}_count"))?;
                let max = value_of(&format!("{name}_max"))?;
                let snap = HistogramSnapshot::from_parts(pairs, sum, max)?;
                if snap.count() != count || inf_cum != count {
                    return Err(format!(
                        "histogram {name}: bucket total {} / +Inf {inf_cum} != count {count}",
                        snap.count()
                    ));
                }
                let base = name
                    .strip_suffix("_ns")
                    .ok_or_else(|| format!("histogram without _ns suffix: {name}"))?;
                out.histograms.push((base.to_string(), snap));
            }
            other => return Err(format!("unknown metric type: {other}")),
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// JSONL time-series stream
// ---------------------------------------------------------------------------

/// The open metrics JSONL file, if any.
static STREAM: LineSink = LineSink::new();

/// Opens `path` as the process-global metrics JSONL stream. Subsequent
/// [`Sampler::tick`] calls append one line each. A stream that is already
/// open is finished first.
pub fn stream_to_file(path: &Path) -> std::io::Result<()> {
    STREAM.open(path, "", "", "")
}

/// Whether a metrics JSONL stream is open.
pub fn is_streaming() -> bool {
    STREAM.is_open()
}

/// Writes the self-describing header line
/// `{"schema":"lsgraph-metrics-v1","experiment":...,"samples_expected":N}`
/// so `repro check --metrics` can validate the file standalone. No-op
/// (returns `Ok(false)`) when no stream is open.
pub fn write_header(experiment: &str, samples_expected: u64) -> std::io::Result<bool> {
    let line = format!(
        "{{\"schema\":\"{METRICS_SCHEMA}\",\"experiment\":\"{experiment}\",\
         \"samples_expected\":{samples_expected}}}\n"
    );
    STREAM.write(&line, false)
}

/// Closes the open stream and returns the number of sample lines written.
/// `Ok(None)` when no stream was open — idempotent. JSONL needs no footer:
/// every line was flushed whole as it was written.
pub fn finish_stream() -> std::io::Result<Option<u64>> {
    STREAM.finish()
}

/// Formats one JSONL sample line (newline-terminated).
fn sample_json(
    cell: &str,
    tick: u64,
    elapsed_ns: u64,
    extras: &[(&str, f64)],
    s: &RegistrySample,
) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str(&format!(
        "{{\"cell\":\"{cell}\",\"tick\":{tick},\"elapsed_ns\":{elapsed_ns}"
    ));
    for (k, v) in extras {
        // f64 Display never emits inf/nan-unsafe text for finite values;
        // callers clamp denominators so values stay finite.
        out.push_str(&format!(",\"{k}\":{v}"));
    }
    out.push_str(",\"counters\":{");
    for (i, (name, v)) in s.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{v}"));
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in s.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{v}"));
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in s.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{name}\":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            h.count(),
            h.sum,
            h.max,
            h.p50(),
            h.p90(),
            h.p99()
        ));
    }
    out.push_str("}}\n");
    out
}

// ---------------------------------------------------------------------------
// Samplers
// ---------------------------------------------------------------------------

/// Manually-ticked sampler: the harness calls [`Sampler::tick`] at
/// deterministic points (e.g. once per writer round in `repro mixed`), so
/// the sample count is an exact function of the workload, not of wall
/// clock. Each tick snapshots the registry and appends one JSONL line to
/// the global sink.
pub struct Sampler {
    registry: Arc<MetricsRegistry>,
    cell: String,
    tick: u64,
    start: Instant,
}

impl Sampler {
    /// Creates a sampler labelling its lines with `cell`.
    pub fn new(registry: Arc<MetricsRegistry>, cell: impl Into<String>) -> Self {
        Sampler {
            registry,
            cell: cell.into(),
            tick: 0,
            start: Instant::now(),
        }
    }

    /// Ticks performed so far.
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Takes one sample and appends it to the sink, with caller-supplied
    /// extra fields (e.g. per-round writer eps). Returns `Ok(false)`
    /// without sampling when no sink is streaming. The `metrics_sample`
    /// failpoint is evaluated before the registry is read or any byte
    /// written, so an injected kill perturbs neither engine counters nor
    /// the JSONL stream.
    pub fn tick(&mut self, extras: &[(&str, f64)]) -> std::io::Result<bool> {
        if !is_streaming() {
            return Ok(false);
        }
        fail_point!("metrics_sample");
        let sample = self.registry.sample();
        let line = sample_json(
            &self.cell,
            self.tick,
            self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            extras,
            &sample,
        );
        let written = STREAM.write(&line, true)?;
        if written {
            self.tick += 1;
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream is process-global; serialize the tests that touch it.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "lsgraph_metrics_{name}_{}.jsonl",
            std::process::id()
        ))
    }

    fn small_registry() -> (Arc<MetricsRegistry>, Arc<StructStats>, Arc<LatencyStats>) {
        let stats = Arc::new(StructStats::new());
        let latency = Arc::new(LatencyStats::new());
        let mut r = MetricsRegistry::new();
        r.register_struct_stats("lsgraph", Arc::clone(&stats));
        r.register_latency_stats("lsgraph", Arc::clone(&latency));
        (Arc::new(r), stats, latency)
    }

    #[test]
    fn sample_classifies_counters_vs_gauges_in_schema_order() {
        let (r, stats, _) = small_registry();
        stats.record_vb_inline_insert(3);
        stats.record_ria_ripple(2, 5, 6);
        stats.subscriptions_active.record(4);
        let s = r.sample();
        // 44 struct fields minus 6 gauges; heap gauges only under count-alloc.
        assert_eq!(s.counters.len(), 38);
        let base_gauges = 6 + if heap_gauges().is_some() { 2 } else { 0 };
        assert_eq!(s.gauges.len(), base_gauges);
        assert_eq!(s.histograms.len(), 4);
        // Pinned order: counters follow StructSnapshot::fields order.
        assert_eq!(s.counters[0].0, "lsgraph_vb_inline_hits");
        assert_eq!(s.counters[0].1, 1);
        let expected_counters: Vec<String> = StructSnapshot::METRICS
            .iter()
            .filter(|m| !m.kind.is_gauge())
            .map(|m| format!("lsgraph_{}", m.name))
            .collect();
        let got: Vec<&str> = s.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            got,
            expected_counters
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>()
        );
        assert_eq!(s.gauges[0], ("lsgraph_ria_max_ripple_span".to_string(), 2));
        assert_eq!(s.gauges[1], ("lsgraph_ria_bound".to_string(), 6));
        assert_eq!(s.gauges[5], ("lsgraph_subscriptions_active".to_string(), 4));
        assert_eq!(s.histograms[0].0, "lsgraph_batch_apply");
        assert_eq!(s.histograms[3].0, "lsgraph_reader");
    }

    #[test]
    fn prometheus_round_trips_the_registry() {
        let (r, stats, latency) = small_registry();
        stats.record_vb_inline_insert(7);
        stats.record_ria_ripple(3, 9, 6);
        stats.checkpoint_bytes.record(12345);
        latency.batch_apply.record(100);
        latency.batch_apply.record(10_000);
        latency.reader.record(0);
        let sample = r.sample();
        let text = sample.render_prometheus();
        let back = parse_prometheus(&text).expect("parse rendered exposition");
        assert_eq!(back, sample, "render → parse must round-trip exactly");
    }

    /// Golden test: exact exposition text for a tiny hand-built sample,
    /// pinning name mangling, TYPE lines, bucket bounds, and field order.
    #[test]
    fn prometheus_exposition_golden() {
        let h = crate::histogram::LatencyHistogram::new();
        h.record(100); // bucket 7, le = 127
        h.record(10_000); // bucket 14, le = 16383
        let sample = RegistrySample {
            counters: vec![("lsgraph_vb_inline_hits".to_string(), 2)],
            gauges: vec![("lsgraph_wal_live_bytes".to_string(), 0)],
            histograms: vec![("lsgraph_batch_apply".to_string(), h.snapshot())],
        };
        let expected = "\
# TYPE lsgraph_vb_inline_hits_total counter
lsgraph_vb_inline_hits_total 2
# TYPE lsgraph_wal_live_bytes gauge
lsgraph_wal_live_bytes 0
# TYPE lsgraph_batch_apply_ns histogram
lsgraph_batch_apply_ns_bucket{le=\"127\"} 1
lsgraph_batch_apply_ns_bucket{le=\"16383\"} 2
lsgraph_batch_apply_ns_bucket{le=\"+Inf\"} 2
lsgraph_batch_apply_ns_sum 10100
lsgraph_batch_apply_ns_count 2
# TYPE lsgraph_batch_apply_ns_max gauge
lsgraph_batch_apply_ns_max 10000
";
        assert_eq!(sample.render_prometheus(), expected);
        assert_eq!(parse_prometheus(expected).unwrap(), sample);
    }

    #[test]
    fn histogram_shard_merges_are_visible_from_the_sampler_thread() {
        // 8 recording threads, each recording a known count; the sampler
        // (a 9th thread) must see the full merged multiset.
        let (r, _, latency) = small_registry();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let latency = &latency;
                s.spawn(move || {
                    for i in 0..50 {
                        latency.reader.record(t * 1_000 + i);
                    }
                });
            }
        });
        let r2 = Arc::clone(&r);
        let sample = std::thread::spawn(move || r2.sample()).join().unwrap();
        let reader = &sample
            .histograms
            .iter()
            .find(|(n, _)| n == "lsgraph_reader")
            .expect("reader histogram")
            .1;
        assert_eq!(reader.count(), 400);
    }

    #[test]
    fn jsonl_sink_writes_header_and_whole_lines() {
        let _g = locked();
        let path = tmp("sink");
        stream_to_file(&path).unwrap();
        assert!(is_streaming());
        assert!(write_header("mixed", 3).unwrap());
        let (r, stats, _) = small_registry();
        let mut sampler = Sampler::new(r, "OR/bs=16");
        for i in 0..3u64 {
            stats.vb_spill_inserts.record(1);
            assert!(sampler.tick(&[("writer_eps", 1.5 + i as f64)]).unwrap());
        }
        assert_eq!(finish_stream().unwrap(), Some(3));
        assert!(!is_streaming());
        assert_eq!(finish_stream().unwrap(), None, "finish is idempotent");

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"schema\":\"lsgraph-metrics-v1\""));
        assert!(lines[0].contains("\"samples_expected\":3"));
        for (i, line) in lines[1..].iter().enumerate() {
            assert!(line.starts_with("{\"cell\":\"OR/bs=16\""), "line: {line}");
            assert!(line.contains(&format!("\"tick\":{i}")));
            assert!(line.contains("\"writer_eps\":"));
            assert!(line.contains(&format!("\"lsgraph_vb_spill_inserts\":{}", i + 1)));
            assert!(line.ends_with("}}"), "line must be complete: {line}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tick_without_sink_is_a_cheap_no_op() {
        let _g = locked();
        assert_eq!(finish_stream().unwrap(), None);
        let (r, _, _) = small_registry();
        let mut sampler = Sampler::new(r, "none");
        assert!(!sampler.tick(&[]).unwrap());
        assert_eq!(sampler.ticks(), 0);
    }

    #[cfg(feature = "count-alloc")]
    #[test]
    fn allocator_gauges_track_live_and_peak_monotonically() {
        let (live0, peak0) = heap_gauges().expect("count-alloc on");
        assert!(peak0 >= live0);
        let buf = vec![0u8; 1 << 20];
        let (live1, peak1) = heap_gauges().unwrap();
        assert!(live1 >= live0 + (1 << 20), "live must grow with the Vec");
        assert!(peak1 >= live1, "peak bounds live");
        assert!(peak1 >= peak0, "peak is monotone");
        drop(buf);
        let (live2, peak2) = heap_gauges().unwrap();
        assert!(live2 < live1, "live must shrink after drop");
        assert!(peak2 >= peak1, "peak never shrinks");
        // And the registry surfaces them as process gauges.
        let (r, _, _) = small_registry();
        let s = r.sample();
        assert!(s.gauges.iter().any(|(n, _)| n == "process_heap_bytes_live"));
        assert!(s.gauges.iter().any(|(n, _)| n == "process_heap_bytes_peak"));
    }

    #[cfg(not(feature = "count-alloc"))]
    #[test]
    fn allocator_gauges_absent_without_the_feature() {
        assert_eq!(heap_gauges(), None);
        let (r, _, _) = small_registry();
        assert!(r
            .sample()
            .gauges
            .iter()
            .all(|(n, _)| !n.starts_with("process_heap")));
    }
}
