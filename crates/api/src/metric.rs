//! The metric-table machinery: what one row of a table says
//! ([`MetricDesc`]), the type a row is stored in (one per [`MetricKind`],
//! each recording with the single relaxed atomic its kind names), and the
//! macro that expands a table into everything derived from it. The tables
//! themselves live in [`crate::counters`].

use core::sync::atomic::{AtomicU64, Ordering};

/// How a metric's value evolves. Decides the snapshot arithmetic (`since`),
/// the Prometheus type, and whether same-seed reruns reproduce the value
/// (`deterministic_fields`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone event or volume total.
    Counter,
    /// Largest value observed so far (`fetch_max`): schedule-independent.
    GaugeMax,
    /// Most recently stored value: among parallel writers the schedule
    /// picks the survivor.
    GaugeLast,
    /// Accumulated wall-clock nanoseconds.
    Timer,
    /// Monotone event total that the thread schedule can move (which of
    /// two threads gets somewhere first decides whether an event happens):
    /// summed like a counter, never compared across runs.
    ScheduleCounter,
}

impl MetricKind {
    /// Point-in-time value (either gauge kind) rather than a running total.
    pub const fn is_gauge(self) -> bool {
        matches!(self, MetricKind::GaugeMax | MetricKind::GaugeLast)
    }

    /// Identical across reruns and thread counts for a fixed input.
    pub(crate) const fn is_deterministic(self) -> bool {
        matches!(self, MetricKind::Counter | MetricKind::GaugeMax)
    }
}

/// Declares one row type per recording rule: `record(n)` applies the rule
/// with one relaxed atomic, and `absorb` records another row's value into
/// this one (skipped when it is zero, so a gauge the source never recorded
/// survives and an idle source costs one load).
macro_rules! row_types {
    ($( $(#[$meta:meta])* $Row:ident: $op:ident; )+) => {$(
        $(#[$meta])*
        #[derive(Debug, Default)]
        pub struct $Row(AtomicU64);

        impl $Row {
            /// A zeroed row.
            pub const fn new() -> Self {
                $Row(AtomicU64::new(0))
            }

            /// Records `n` by the row's rule.
            #[inline]
            pub fn record(&self, n: u64) {
                self.0.$op(n, Ordering::Relaxed);
            }

            /// The current value.
            #[inline]
            pub fn get(&self) -> u64 {
                self.0.load(Ordering::Relaxed)
            }

            /// Zeroes the row.
            pub fn reset(&self) {
                self.0.store(0, Ordering::Relaxed);
            }

            /// Records `other`'s value into this row unless it is zero.
            #[inline]
            pub fn absorb(&self, other: &$Row) {
                let v = other.get();
                if v != 0 {
                    self.record(v);
                }
            }
        }
    )+};
}

row_types! {
    /// A [`MetricKind::Counter`] row: `record` adds.
    Counter: fetch_add;
    /// A [`MetricKind::GaugeMax`] row: `record` keeps the larger value.
    GaugeMax: fetch_max;
    /// A [`MetricKind::GaugeLast`] row: `record` stores.
    GaugeLast: store;
}

/// A [`MetricKind::Timer`] row adds nanoseconds, as a counter adds events.
pub type Timer = Counter;

/// A [`MetricKind::ScheduleCounter`] row adds, as a counter does.
pub type ScheduleCounter = Counter;

/// The `repro check --baseline` rule a metric is held to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gate {
    /// Must be zero in every correct, fault-free run.
    Invariant,
    /// May not grow past the baseline value plus tolerance.
    Drift,
    /// Reported only.
    None,
}

/// One row of a metric table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDesc {
    /// Field name: the JSON key, and the Prometheus name after the prefix.
    pub name: &'static str,
    /// See [`MetricKind`].
    pub kind: MetricKind,
    /// See [`Gate`].
    pub gate: Gate,
    /// The layer whose code records the metric.
    pub layer: &'static str,
    /// What one unit of the value counts.
    pub unit: &'static str,
    /// The row's doc comment, lines joined.
    pub meaning: &'static str,
}

/// Expands one metric table — rows of
/// `/// meaning` + `name: Kind, Gate, "layer", "unit";` — into the struct
/// `$Stats` of rows, each of its kind's type (`new`, `reset`, `snapshot`,
/// `absorb`), and its plain-`u64` copy
/// `$Snap` (`METRICS`, `since`, `fields`, `from_fields`,
/// `deterministic_fields`), all in row order.
macro_rules! metric_family {
    (
        $(#[$stats_meta:meta])*
        $Stats:ident,
        $(#[$snap_meta:meta])*
        $Snap:ident;
        $(
            $(#[doc = $doc:literal])+
            $name:ident: $kind:ident, $gate:ident, $layer:literal, $unit:literal;
        )+
    ) => {
        $(#[$stats_meta])*
        #[derive(Debug, Default)]
        pub struct $Stats {
            $( $(#[doc = $doc])+ pub $name: $crate::metric::$kind, )+
        }

        impl $Stats {
            /// Creates zeroed metrics.
            pub const fn new() -> Self {
                $Stats { $( $name: $crate::metric::$kind::new(), )+ }
            }

            /// Resets every metric to zero.
            pub fn reset(&self) {
                $( self.$name.reset(); )+
            }

            /// Snapshot of the current values.
            pub fn snapshot(&self) -> $Snap {
                $Snap { $( $name: self.$name.get(), )+ }
            }

            /// Merges `other`'s values into these, row by row, each by its
            /// kind's rule (counters and timers add, a `GaugeMax` keeps the
            /// larger value, a `GaugeLast` takes `other`'s); a row that is
            /// zero in `other` is left alone. Recording into several
            /// families and absorbing them all gives the totals of
            /// recording into one.
            pub fn absorb(&self, other: &$Stats) {
                $( self.$name.absorb(&other.$name); )+
            }
        }

        $(#[$snap_meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $Snap {
            $( $(#[doc = $doc])+ pub $name: u64, )+
        }

        impl $Snap {
            /// Number of metrics in the family.
            pub const LEN: usize = [$( stringify!($name) ),+].len();

            /// One descriptor per metric, in field (= serialization) order.
            pub const METRICS: [$crate::metric::MetricDesc; Self::LEN] = [$(
                $crate::metric::MetricDesc {
                    name: stringify!($name),
                    kind: $crate::metric::MetricKind::$kind,
                    gate: $crate::metric::Gate::$gate,
                    layer: $layer,
                    unit: $unit,
                    meaning: concat!($( $doc ),+).trim_ascii_start(),
                },
            )+];

            /// Difference `self - earlier`, saturating at zero, for
            /// counters (of either kind) and timers; gauges keep `self`'s value (a maximum
            /// and a most-recent value do not subtract meaningfully).
            pub fn since(self, earlier: $Snap) -> $Snap {
                let mut out = self;
                $(
                    if !$crate::metric::MetricKind::$kind.is_gauge() {
                        out.$name = self.$name.saturating_sub(earlier.$name);
                    }
                )+
                out
            }

            /// `(field name, value)` pairs in table order — the
            /// serialization schema. Renaming a row is a deliberate schema
            /// change.
            pub fn fields(self) -> [(&'static str, u64); Self::LEN] {
                [$( (stringify!($name), self.$name) ),+]
            }

            /// Rebuilds a snapshot from `(field name, value)` pairs, the
            /// inverse of `fields`. Unknown names are rejected; missing
            /// names stay zero.
            pub fn from_fields<'a>(
                pairs: impl IntoIterator<Item = (&'a str, u64)>,
            ) -> Result<$Snap, String> {
                let mut s = $Snap::default();
                for (name, v) in pairs {
                    match name {
                        $( stringify!($name) => s.$name = v, )+
                        other => {
                            return Err(format!(
                                concat!("unknown ", stringify!($Snap), " field: {}"),
                                other
                            ))
                        }
                    }
                }
                Ok(s)
            }

            /// The fields that must be identical across reruns with the
            /// same input: every `MetricKind::is_deterministic` one, i.e.
            /// all but the timers, the last-writer-wins gauges and the
            /// schedule-moved counters.
            pub fn deterministic_fields(self) -> Vec<(&'static str, u64)> {
                Self::METRICS
                    .iter()
                    .zip(self.fields())
                    .filter(|(m, _)| m.kind.is_deterministic())
                    .map(|(_, f)| f)
                    .collect()
            }
        }
    };
}
pub(crate) use metric_family;
