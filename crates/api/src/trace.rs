//! Vendored, no-deps trace shim streaming chrome://tracing JSON.
//!
//! Spans ([`span`]/[`span_named`]) are on exactly while a stream is open:
//! [`stream_to_file`] opens one and [`finish_stream`] closes it. With no
//! stream (the default) opening a span costs one relaxed atomic load and
//! allocates nothing. With one, each span is appended to the file as one
//! line when it drops, so an arbitrarily long traced run loses no event,
//! and finishing closes the document with a `droppedEvents: 0` footer. The
//! file is the `trace_event` format of `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev): complete events (`"ph":"X"`) with
//! microsecond `ts`/`dur` since the first stream opened, each under the
//! `tid` of the thread that recorded it.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::sink::LineSink;

/// The open trace file, if any; open means spans record.
static STREAM: LineSink = LineSink::new();

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's `tid` in trace output, fixed at its first span.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Wall-clock origin for timestamps (set by the first [`stream_to_file`]).
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// The structural sites instrumented with spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Batch pipeline: sorting the edge batch.
    Sort,
    /// Batch pipeline: grouping sorted edges into per-source runs.
    Group,
    /// Batch pipeline: applying all runs to the structure.
    Apply,
    /// One analytics-kernel invocation.
    Kernel,
    /// RIA α-triggered (or shrink/refill) rebuild.
    RiaRebuild,
    /// HITree leaf model retrain (horizontal move on an LIA node).
    LiaRetrain,
    /// Container tier upgrade (array→RIA, PMA→tree, B-tree→LIA, ...).
    TierUpgrade,
}

impl SpanKind {
    /// Stable lowercase name used in trace output.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Sort => "sort",
            SpanKind::Group => "group",
            SpanKind::Apply => "apply",
            SpanKind::Kernel => "kernel",
            SpanKind::RiaRebuild => "ria_rebuild",
            SpanKind::LiaRetrain => "lia_retrain",
            SpanKind::TierUpgrade => "tier_upgrade",
        }
    }
}

/// Whether spans currently record, i.e. a trace stream is open.
#[inline]
pub fn is_enabled() -> bool {
    STREAM.is_open()
}

/// Scoped span guard: streams one complete event on drop (only if a stream
/// was open when the guard was created).
#[must_use = "the span records on drop; binding it to `_` drops immediately"]
pub struct Span {
    /// `None` when tracing was off at creation — drop is then free.
    info: Option<(SpanKind, &'static str, Instant)>,
}

/// Opens a span of `kind` (labelled with the kind's own name).
#[inline]
pub fn span(kind: SpanKind) -> Span {
    span_named(kind, "")
}

/// Opens a span of `kind` with an extra `name` label (e.g. a kernel name),
/// shown as `kind:name`.
#[inline]
pub fn span_named(kind: SpanKind, name: &'static str) -> Span {
    Span {
        info: is_enabled().then(|| (kind, name, Instant::now())),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((kind, name, start)) = self.info.take() {
            let line = event_json(TID.with(|t| *t), kind, name, start);
            // A failed write loses this event only; the span cannot report it.
            let _ = STREAM.write(&line, true);
        }
    }
}

/// Opens `path` as the trace stream and turns spans on. A stream that is
/// already open is finished first, footer and all.
///
/// Returns a [`StreamGuard`] that finishes the stream on drop, so a traced
/// run that panics still leaves a flushed, parseable trace file. Callers
/// that want the event count call [`finish_stream`] before the guard drops.
pub fn stream_to_file(path: &Path) -> std::io::Result<StreamGuard> {
    epoch();
    STREAM.open(
        path,
        "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n",
        ",\n",
        "\n  ],\n  \"droppedEvents\": 0\n}\n",
    )?;
    Ok(StreamGuard { _private: () })
}

/// Drop guard returned by [`stream_to_file`]: finishes the open trace
/// stream when dropped, including during a panic unwind.
#[must_use = "dropping the guard immediately would finish the stream now"]
pub struct StreamGuard {
    _private: (),
}

impl Drop for StreamGuard {
    fn drop(&mut self) {
        // Idempotent; errors are swallowed because drop may run while
        // unwinding, where the original panic matters more.
        let _ = finish_stream();
    }
}

/// Turns spans off and finishes the trace stream: writes the `traceEvents`
/// terminator and the `droppedEvents: 0` footer, flushes, and returns the
/// number of events written. `Ok(None)` when no stream was open.
pub fn finish_stream() -> std::io::Result<Option<u64>> {
    STREAM.finish()
}

fn fmt_us(ns: u64) -> String {
    // Microseconds with 3 decimals (i.e. nanosecond precision), as
    // chrome://tracing expects fractional-µs floats.
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// One complete event in chrome://tracing JSON form (no trailing comma).
fn event_json(tid: u64, kind: SpanKind, name: &str, start: Instant) -> String {
    let nanos = |d: std::time::Duration| d.as_nanos().min(u64::MAX as u128) as u64;
    let start_ns = start.checked_duration_since(epoch()).map_or(0, nanos);
    let label = if name.is_empty() {
        kind.name().to_string()
    } else {
        format!("{}:{}", kind.name(), name)
    };
    format!(
        "    {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}}}",
        label,
        kind.name(),
        tid,
        fmt_us(start_ns),
        fmt_us(nanos(start.elapsed()))
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The stream is process-global; serialize the tests that open it.
    /// Other tests in this binary may still stream `sort`/`apply`/kernel
    /// spans into an open file, so these tests use the other kinds and
    /// count events by label.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let file = format!("lsgraph_trace_{name}_{}.json", std::process::id());
        std::env::temp_dir().join(file)
    }

    /// Reads and deletes a trace file, checking it is a whole document.
    fn read_document(path: &Path) -> String {
        let json = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).ok();
        assert!(json.starts_with("{\n  \"displayTimeUnit\""), "{json}");
        assert!(
            json.ends_with("\n  ],\n  \"droppedEvents\": 0\n}\n"),
            "{json}"
        );
        json
    }

    fn count(json: &str, label: &str) -> usize {
        json.matches(&format!("\"name\": \"{label}\"")).count()
    }

    #[test]
    fn spans_stream_only_while_a_stream_is_open() {
        let _g = locked();
        let path = tmp("open");
        assert_eq!(finish_stream().unwrap(), None);
        assert!(!is_enabled());
        {
            let _s = span(SpanKind::TierUpgrade);
        }
        let _guard = stream_to_file(&path).unwrap();
        assert!(is_enabled());
        {
            let _s = span(SpanKind::RiaRebuild);
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        {
            let _k = span_named(SpanKind::Kernel, "bfs");
        }
        let here = TID.with(|t| *t);
        let there = std::thread::spawn(|| {
            let _s = span(SpanKind::LiaRetrain);
            TID.with(|t| *t)
        })
        .join()
        .unwrap();
        assert_ne!(here, there);
        assert!(finish_stream().unwrap() >= Some(3));
        assert!(!is_enabled());
        {
            let _s = span(SpanKind::TierUpgrade);
        }

        let json = read_document(&path);
        assert_eq!(
            count(&json, "tier_upgrade"),
            0,
            "span with no stream leaked"
        );
        let event = |label: &str, cat: &str, tid: u64| {
            format!("\"name\": \"{label}\", \"cat\": \"{cat}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {tid},")
        };
        assert!(json.contains(&event("ria_rebuild", "ria_rebuild", here)));
        assert!(json.contains(&event("kernel:bfs", "kernel", here)));
        // The exited thread's span is in the file, under its own tid.
        assert!(json.contains(&event("lia_retrain", "lia_retrain", there)));
    }

    #[test]
    fn opening_a_second_stream_finishes_the_first() {
        let _g = locked();
        let (first, second) = (tmp("first"), tmp("second"));
        let _guard = stream_to_file(&first).unwrap();
        for _ in 0..1000 {
            let _s = span(SpanKind::Group);
        }
        let _guard = stream_to_file(&second).unwrap();
        {
            let _s = span(SpanKind::TierUpgrade);
        }
        assert!(finish_stream().unwrap() >= Some(1));
        assert_eq!(finish_stream().unwrap(), None, "finish is idempotent");
        let json = read_document(&first);
        assert_eq!(
            (count(&json, "group"), count(&json, "tier_upgrade")),
            (1000, 0)
        );
        let json = read_document(&second);
        assert_eq!(
            (count(&json, "group"), count(&json, "tier_upgrade")),
            (0, 1)
        );
    }

    #[test]
    fn stream_guard_finalizes_on_panic() {
        let _g = locked();
        let path = tmp("panic");
        let path2 = path.clone();
        // A traced run that panics mid-stream: the guard unwinds with it
        // and must leave a complete, parseable trace document behind.
        let r = std::panic::catch_unwind(move || {
            let _guard = stream_to_file(&path2).unwrap();
            {
                let _s = span(SpanKind::LiaRetrain);
            }
            panic!("traced workload died");
        });
        assert!(r.is_err());
        assert!(!is_enabled(), "guard must tear down the stream");
        assert_eq!(count(&read_document(&path), "lia_retrain"), 1);
    }

    #[test]
    fn fmt_us_is_fractional_microseconds() {
        assert_eq!(fmt_us(0), "0.000");
        assert_eq!(fmt_us(1_500), "1.500");
        assert_eq!(fmt_us(999), "0.999");
        assert_eq!(fmt_us(2_000_001), "2000.001");
    }
}
