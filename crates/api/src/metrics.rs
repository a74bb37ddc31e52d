//! Unified metrics registry and time-series sampling.
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
//! - A JSONL **time-series stream** ([`stream_metrics_to_file`]) on the
//!   same process-global line sink as [`crate::stream_trace_to_file`], with
//!   an idempotent [`finish_metrics_stream`]. Each sample is one
//!   fully-formed line written with a single `write_all` and flushed
//!   immediately, so a sampler killed mid-run can never leave a torn line —
//!   the file is always a valid JSONL prefix.
//! - [`Sampler`] snapshots a registry on demand (deterministic tick counts
//!   under `repro`, where the harness ticks once per writer round). It
//!   evaluates the `metrics_sample` failpoint at the top of every tick,
//!   before any byte is written.
//! - Under the `count-alloc` feature a counting [`std::alloc::System`]
//!   wrapper is installed as `#[global_allocator]`, contributing
//!   process-wide `process_heap_bytes_live` / `_peak` gauges (see
//!   [`heap_gauges`]); without the feature those gauges are absent and
//!   [`crate::heap_summary`] reports `N/A`.

use std::path::Path;
#[cfg(feature = "count-alloc")]
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::counters::{StructSnapshot, StructStats};
use crate::fail_point;
use crate::histogram::{HistogramSnapshot, LatencyStats};
use crate::sink::LineSink;

/// Schema tag written as the first JSONL line by [`write_metrics_header`].
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
    /// Calls that handed out a block: `alloc`, `alloc_zeroed`, `realloc`.
    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

    #[inline]
    fn add(n: u64) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE.fetch_add(n, Ordering::Relaxed).wrapping_add(n);
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    /// [`System`] wrapper counting live and peak heap bytes and allocation
    /// calls. Counts layout sizes, not allocator-internal overhead — a
    /// deterministic lower bound that matches what `Footprint`
    /// self-reporting measures against.
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

/// Allocation calls (`alloc`, `alloc_zeroed` and `realloc`) the counting
/// allocator has served since the process started, or `None` when the
/// `count-alloc` feature is off. Process-wide: a census of one operation
/// reads it before and after, with no other thread allocating in between.
pub fn heap_allocations() -> Option<u64> {
    #[cfg(feature = "count-alloc")]
    {
        Some(count_alloc::ALLOCS.load(Ordering::Relaxed))
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
/// registry's [`sample`](MetricsRegistry::sample) has pinned field order,
/// which the JSONL schema relies on.
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

// ---------------------------------------------------------------------------
// JSONL time-series stream
// ---------------------------------------------------------------------------

/// The open metrics JSONL file, if any.
static STREAM: LineSink = LineSink::new();

/// Opens `path` as the process-global metrics JSONL stream. Subsequent
/// [`Sampler::tick`] calls append one line each. A stream that is already
/// open is finished first.
pub fn stream_metrics_to_file(path: &Path) -> std::io::Result<()> {
    STREAM.open(path, "", "", "")
}

/// Whether a metrics JSONL stream is open.
pub fn is_metrics_streaming() -> bool {
    STREAM.is_open()
}

/// Writes the self-describing header line
/// `{"schema":"lsgraph-metrics-v1","experiment":...,"samples_expected":N}`
/// so `repro check --metrics` can validate the file standalone. No-op
/// (returns `Ok(false)`) when no stream is open.
pub fn write_metrics_header(experiment: &str, samples_expected: u64) -> std::io::Result<bool> {
    let line = format!(
        "{{\"schema\":\"{METRICS_SCHEMA}\",\"experiment\":\"{experiment}\",\
         \"samples_expected\":{samples_expected}}}\n"
    );
    STREAM.write(&line, false)
}

/// Closes the open stream and returns the number of sample lines written.
/// `Ok(None)` when no stream was open — idempotent. JSONL needs no footer:
/// every line was flushed whole as it was written.
pub fn finish_metrics_stream() -> std::io::Result<Option<u64>> {
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
        if !is_metrics_streaming() {
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
        stats.record_vb_inline_insert(1, 3);
        stats.record_ria_ripple(2, 5, 6);
        stats.subscriptions_active.record(4);
        let s = r.sample();
        // 48 struct fields minus 8 gauges; heap gauges only under count-alloc.
        assert_eq!(s.counters.len(), 40);
        let base_gauges = 8 + if heap_gauges().is_some() { 2 } else { 0 };
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
        assert_eq!(s.gauges[7], ("lsgraph_subscriptions_active".to_string(), 4));
        assert_eq!(s.histograms[0].0, "lsgraph_batch_apply");
        assert_eq!(s.histograms[3].0, "lsgraph_reader");
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
        stream_metrics_to_file(&path).unwrap();
        assert!(is_metrics_streaming());
        assert!(write_metrics_header("mixed", 3).unwrap());
        let (r, stats, _) = small_registry();
        let mut sampler = Sampler::new(r, "OR/bs=16");
        for i in 0..3u64 {
            stats.vb_spill_inserts.record(1);
            assert!(sampler.tick(&[("writer_eps", 1.5 + i as f64)]).unwrap());
        }
        assert_eq!(finish_metrics_stream().unwrap(), Some(3));
        assert!(!is_metrics_streaming());
        assert_eq!(
            finish_metrics_stream().unwrap(),
            None,
            "finish is idempotent"
        );

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
        assert_eq!(finish_metrics_stream().unwrap(), None);
        let (r, _, _) = small_registry();
        let mut sampler = Sampler::new(r, "none");
        assert!(!sampler.tick(&[]).unwrap());
        assert_eq!(sampler.ticks(), 0);
    }

    #[cfg(not(feature = "count-alloc"))]
    #[test]
    fn allocator_gauges_absent_without_the_feature() {
        assert_eq!(heap_gauges(), None);
        assert_eq!(heap_allocations(), None);
        let (r, _, _) = small_registry();
        assert!(r
            .sample()
            .gauges
            .iter()
            .all(|(n, _)| !n.starts_with("process_heap")));
    }
}
