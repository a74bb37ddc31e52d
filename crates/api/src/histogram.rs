//! Lock-free, log2-bucketed latency histograms (observability tier 2).
//!
//! [`StructStats`](crate::StructStats) answers "how much structural movement
//! happened"; cumulative sums, however, hide exactly what LSGraph's bounded
//! movement design protects: **tail behaviour**. A single RIA rebuild or a
//! premature HITree vertical move shows up as a p99 latency spike, not in an
//! average. The histograms here record full latency *distributions* —
//! per-batch apply latency, per-source-group apply latency, and per-kernel
//! latency — cheaply enough to stay always-on.
//!
//! Design:
//!
//! - **log2 buckets**: a recorded value `v` (nanoseconds) lands in bucket
//!   `floor(log2(v)) + 1` (bucket 0 holds exactly `v == 0`) and bucket
//!   boundaries are exact powers of two. That rule names 65 buckets for the
//!   `u64` range; there are 64, so the last one takes two octaves — every
//!   value from `2^62` up (146 years in nanoseconds). Quantiles are
//!   reported as the **upper bound of the bucket**
//!   containing the requested rank — deterministic, and never exceeding the
//!   tracked true maximum.
//! - **per-thread shards**: each recording thread owns one of
//!   [`NUM_SHARDS`] shard slots (assigned round-robin on first use), so
//!   recording is a few relaxed atomic RMWs with no cross-thread contention
//!   in the common case. There are no locks anywhere on the record path.
//! - **deterministic merge**: [`LatencyHistogram::snapshot`] folds shards in
//!   fixed index order. Because bucket counts and sums are additive and the
//!   max is a lattice join, the merged snapshot is identical for any thread
//!   interleaving of the same recorded multiset — the same property
//!   [`StructStats`](crate::StructStats) counters have.

use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::trace::{self, SpanKind};

/// Number of log2 buckets; covers every representable `u64` nanosecond value.
pub const NUM_BUCKETS: usize = 64;

/// Number of per-thread shard slots per histogram. Threads are assigned
/// round-robin, so more than `NUM_SHARDS` concurrent threads merely share
/// slots (still correct: buckets are atomic), they do not lose updates.
pub const NUM_SHARDS: usize = 16;

/// Next shard slot to hand out; threads take one on first record.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard slot, fixed at first use.
    static SHARD_INDEX: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % NUM_SHARDS;
}

/// Bucket index for a nanosecond value: 0 for 0, else `floor(log2(v)) + 1`,
/// clamped into the last bucket (values from `2^63` up would otherwise index
/// one past it).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(NUM_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `b`: 0 for bucket 0, `2^b - 1` otherwise,
/// and `u64::MAX` for the last bucket, which holds everything from `2^62`.
#[inline]
pub fn bucket_upper_bound(b: usize) -> u64 {
    match b {
        0 => 0,
        1..=62 => (1u64 << b) - 1,
        _ => u64::MAX,
    }
}

/// One shard: a private set of buckets plus sum/max gauges.
struct Shard {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Shard {
    const fn new() -> Self {
        Shard {
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A lock-free latency histogram with per-thread shards.
///
/// `Debug` prints the merged snapshot, not the raw shards.
pub struct LatencyHistogram {
    shards: [Shard; NUM_SHARDS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl core::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_tuple("LatencyHistogram")
            .field(&self.snapshot())
            .finish()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        LatencyHistogram {
            shards: [const { Shard::new() }; NUM_SHARDS],
        }
    }

    /// Records one latency sample in nanoseconds.
    #[inline]
    pub fn record(&self, nanos: u64) {
        let s = SHARD_INDEX.with(|i| *i);
        let shard = &self.shards[s];
        shard.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(nanos, Ordering::Relaxed);
        shard.max.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Records one latency sample from a [`Duration`].
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Merges every shard (in fixed index order) into a point-in-time
    /// snapshot. Deterministic for a fixed recorded multiset.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for shard in &self.shards {
            for (b, bucket) in shard.buckets.iter().enumerate() {
                out.buckets[b] += bucket.load(Ordering::Relaxed);
            }
            // A shard's sum wraps (`fetch_add`); so does the fold.
            out.sum = out.sum.wrapping_add(shard.sum.load(Ordering::Relaxed));
            out.max = out.max.max(shard.max.load(Ordering::Relaxed));
        }
        out
    }

    /// Zeroes every shard.
    pub fn reset(&self) {
        for shard in &self.shards {
            for bucket in &shard.buckets {
                bucket.store(0, Ordering::Relaxed);
            }
            shard.sum.store(0, Ordering::Relaxed);
            shard.max.store(0, Ordering::Relaxed);
        }
    }
}

/// Point-in-time merged copy of a [`LatencyHistogram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Sample count per log2 bucket (see [`bucket_index`]).
    pub buckets: [u64; NUM_BUCKETS],
    /// Sum of all recorded nanosecond values.
    pub sum: u64,
    /// Largest recorded value (exact, not bucketed).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; NUM_BUCKETS],
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Mean recorded value in nanoseconds (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`) as the upper bound of the bucket
    /// holding rank `ceil(q * count)`, clamped to the exact tracked maximum.
    /// Returns 0 for an empty histogram. Deterministic: depends only on the
    /// merged bucket counts, never on thread interleaving.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper_bound(b).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Difference `self - earlier` bucket-wise, saturating at zero. The
    /// `max` gauge keeps `self`'s value (a max does not subtract).
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = *self;
        for (b, o) in out.buckets.iter_mut().enumerate() {
            *o = o.saturating_sub(earlier.buckets[b]);
        }
        out.sum = self.sum.saturating_sub(earlier.sum);
        out
    }

    /// `(bucket index, count)` pairs for every non-empty bucket, in
    /// ascending index order — the sparse serialization form.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| (b, c))
            .collect()
    }

    /// Rebuilds a snapshot from sparse `(bucket index, count)` pairs plus
    /// the `sum`/`max` gauges — the inverse of
    /// [`HistogramSnapshot::nonzero_buckets`]. Out-of-range indices are
    /// rejected.
    pub fn from_parts(
        pairs: impl IntoIterator<Item = (usize, u64)>,
        sum: u64,
        max: u64,
    ) -> Result<HistogramSnapshot, String> {
        let mut s = HistogramSnapshot {
            sum,
            max,
            ..HistogramSnapshot::default()
        };
        for (b, c) in pairs {
            if b >= NUM_BUCKETS {
                return Err(format!("histogram bucket index out of range: {b}"));
            }
            s.buckets[b] += c;
        }
        Ok(s)
    }
}

/// Expands the list of latency histograms into [`LatencyStats`], its copy
/// [`LatencySnapshot`] and their methods, all in list order.
macro_rules! latency_stats {
    ($( $(#[doc = $doc:literal])+ $name:ident; )+) => {
        /// The latency distributions the engine and harness record.
        #[derive(Debug, Default)]
        pub struct LatencyStats {
            $( $(#[doc = $doc])+ pub $name: LatencyHistogram, )+
        }

        impl LatencyStats {
            /// Creates zeroed stats.
            pub const fn new() -> Self {
                LatencyStats { $( $name: LatencyHistogram::new(), )+ }
            }

            /// Merged snapshot of all histograms.
            pub fn snapshot(&self) -> LatencySnapshot {
                LatencySnapshot { $( $name: self.$name.snapshot(), )+ }
            }

            /// Zeroes all histograms.
            pub fn reset(&self) {
                $( self.$name.reset(); )+
            }
        }

        /// Point-in-time copy of [`LatencyStats`].
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct LatencySnapshot {
            $( $(#[doc = $doc])+ pub $name: HistogramSnapshot, )+
        }

        impl LatencySnapshot {
            /// Component-wise [`HistogramSnapshot::since`].
            pub fn since(&self, earlier: &LatencySnapshot) -> LatencySnapshot {
                LatencySnapshot { $( $name: self.$name.since(&earlier.$name), )+ }
            }

            /// `(name, histogram)` pairs in the fixed serialization order.
            pub fn fields(&self) -> [(&'static str, &HistogramSnapshot); [$(stringify!($name)),+].len()] {
                [$( (stringify!($name), &self.$name) ),+]
            }

            /// Rebuilds a snapshot from `(name, histogram)` pairs, the
            /// inverse of `fields`. Unknown names are rejected; missing
            /// names stay empty.
            pub fn from_fields<'a>(
                pairs: impl IntoIterator<Item = (&'a str, HistogramSnapshot)>,
            ) -> Result<LatencySnapshot, String> {
                let mut s = LatencySnapshot::default();
                for (name, h) in pairs {
                    match name {
                        $( stringify!($name) => s.$name = h, )+
                        other => return Err(format!("unknown histogram: {other}")),
                    }
                }
                Ok(s)
            }
        }
    };
}

latency_stats! {
    /// Wall-clock latency of one whole batch-apply phase (one sample per
    /// `insert_batch`/`delete_batch` call).
    batch_apply;
    /// Wall-clock latency of applying one per-source run (one sample per
    /// committed run, recorded from the worker thread that applied it): the
    /// time since the same task's previous run ended or the task started, so
    /// the first run on a directory page also covers copying the page when a
    /// snapshot still shares it.
    group_apply;
    /// Wall-clock latency of one analytics kernel invocation (one sample
    /// per [`kernel_scope`] guard).
    kernel;
    /// Wall-clock latency of one snapshot read operation, recorded by
    /// readers running against a `GraphSnapshot` while the writer streams
    /// batches (the `repro mixed` experiment).
    reader;
}

/// Process-wide sink for the analytics kernels: they are generic over
/// `&dyn Graph`, so there is no engine instance to record into.
static GLOBAL_LATENCY: LatencyStats = LatencyStats::new();

impl LatencyStats {
    /// The process-wide default sink (analytics kernels record here).
    pub fn global() -> &'static LatencyStats {
        &GLOBAL_LATENCY
    }
}

/// Scoped guard for one analytics-kernel invocation: records the elapsed
/// latency into the global kernel histogram (whose `sum` is the total kernel
/// time) and emits a named `kernel` trace span — both on drop.
#[must_use = "the guard records on drop; binding it to `_` drops immediately"]
pub struct KernelScope {
    start: Instant,
    _span: trace::Span,
}

/// Opens a [`KernelScope`] for the kernel named `name` (shown in traces).
pub fn kernel_scope(name: &'static str) -> KernelScope {
    KernelScope {
        start: Instant::now(),
        _span: trace::span_named(SpanKind::Kernel, name),
    }
}

impl Drop for KernelScope {
    fn drop(&mut self) {
        LatencyStats::global()
            .kernel
            .record_duration(self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        // The last bucket takes everything from 2^62, so no value indexes
        // past the array.
        assert_eq!(bucket_index((1 << 62) - 1), 62);
        assert_eq!(bucket_index(1 << 62), 63);
        assert_eq!(bucket_index(1 << 63), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(62), (1 << 62) - 1);
        assert_eq!(bucket_upper_bound(NUM_BUCKETS - 1), u64::MAX);
        for v in [0, 1, 1 << 62, (1 << 63) + 5, u64::MAX] {
            assert!(v <= bucket_upper_bound(bucket_index(v)));
        }
    }

    #[test]
    fn the_largest_values_are_recorded_not_a_panic() {
        let h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record_duration(Duration::MAX);
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.p99(), u64::MAX);
        assert_eq!(s.nonzero_buckets(), vec![(NUM_BUCKETS - 1, 2)]);
    }

    #[test]
    fn bucket_bounds_are_inclusive_maxima() {
        // Every value maps to a bucket whose upper bound is >= the value and
        // whose predecessor bucket's bound is < the value.
        for v in [0u64, 1, 2, 3, 7, 8, 100, 1 << 20, u64::MAX] {
            let b = bucket_index(v);
            assert!(bucket_upper_bound(b) >= v, "v={v}");
            if b > 0 {
                assert!(bucket_upper_bound(b - 1) < v, "v={v}");
            }
        }
    }

    #[test]
    fn quantiles_from_bucket_bounds() {
        let h = LatencyHistogram::new();
        // 90 samples at ~100ns (bucket 7, bound 127), 10 at ~10_000ns
        // (bucket 14, bound 16383).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(10_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.max, 10_000);
        assert_eq!(s.p50(), 127);
        assert_eq!(s.p90(), 127);
        assert_eq!(
            s.p99(),
            10_000.min(bucket_upper_bound(bucket_index(10_000)))
        );
        // p99 rank lands in the 10_000 bucket; the bound is clamped to max.
        assert_eq!(s.p99(), 10_000);
        assert_eq!(s.quantile(1.0), 10_000);
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn shard_merge_is_deterministic_across_thread_counts() {
        // The same multiset of samples recorded by 1 thread and by 8 threads
        // must merge to identical snapshots.
        let values: Vec<u64> = (0..4_000u64).map(|i| (i * 37) % 50_000).collect();
        let h1 = LatencyHistogram::new();
        for &v in &values {
            h1.record(v);
        }
        let h8 = LatencyHistogram::new();
        std::thread::scope(|s| {
            for chunk in values.chunks(values.len() / 8) {
                let h8 = &h8;
                s.spawn(move || {
                    for &v in chunk {
                        h8.record(v);
                    }
                });
            }
        });
        assert_eq!(h1.snapshot(), h8.snapshot());
    }

    #[test]
    fn reset_zeroes_everything() {
        let h = LatencyHistogram::new();
        h.record(5);
        h.record(500);
        h.reset();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn since_diffs_buckets_keeps_max() {
        let h = LatencyHistogram::new();
        h.record(100);
        h.record(10_000);
        let a = h.snapshot();
        h.record(100);
        let d = h.snapshot().since(&a);
        assert_eq!(d.count(), 1);
        assert_eq!(d.buckets[bucket_index(100)], 1);
        assert_eq!(d.sum, 100);
        assert_eq!(d.max, 10_000, "max gauge keeps the later absolute value");
    }

    #[test]
    fn sparse_round_trip() {
        let h = LatencyHistogram::new();
        for v in [0u64, 1, 1, 300, 70_000] {
            h.record(v);
        }
        let s = h.snapshot();
        let back = HistogramSnapshot::from_parts(s.nonzero_buckets(), s.sum, s.max).unwrap();
        assert_eq!(back, s);
        assert!(HistogramSnapshot::from_parts([(64, 1)], 0, 0).is_err());
    }

    #[test]
    fn kernel_scope_records_globally() {
        let before = LatencyStats::global().kernel.snapshot();
        {
            let _k = kernel_scope("test-kernel");
            std::thread::sleep(Duration::from_millis(1));
        }
        let after = LatencyStats::global().kernel.snapshot();
        let d = after.since(&before);
        assert_eq!(d.count(), 1);
        assert!(d.sum >= 500_000, "recorded {} ns", d.sum);
    }
}
