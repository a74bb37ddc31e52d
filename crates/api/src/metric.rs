//! The metric-table machinery: what one row of a table says
//! ([`MetricDesc`]) and the macro that expands a table into everything
//! derived from it. The tables themselves live in [`crate::counters`].

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
}

impl MetricKind {
    /// Point-in-time value (either gauge kind) rather than a running total.
    pub const fn is_gauge(self) -> bool {
        matches!(self, MetricKind::GaugeMax | MetricKind::GaugeLast)
    }

    /// Identical across reruns and thread counts for a fixed input.
    pub const fn is_deterministic(self) -> bool {
        matches!(self, MetricKind::Counter | MetricKind::GaugeMax)
    }
}

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
/// `/// meaning` + `name: Kind, Gate, "layer", "unit";` — into the atomics
/// struct `$Stats` (`new`, `reset`, `snapshot`, `absorb`) and its plain-`u64` copy
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
            $( $(#[doc = $doc])+ pub $name: AtomicU64, )+
        }

        impl $Stats {
            /// Creates zeroed metrics.
            pub const fn new() -> Self {
                $Stats { $( $name: AtomicU64::new(0), )+ }
            }

            /// Resets every metric to zero.
            pub fn reset(&self) {
                $( self.$name.store(0, Ordering::Relaxed); )+
            }

            /// Snapshot of the current values.
            pub fn snapshot(&self) -> $Snap {
                $Snap { $( $name: self.$name.load(Ordering::Relaxed), )+ }
            }

            /// Merges `other`'s values into these, row by row: counters
            /// and timers add, a `GaugeMax` keeps the larger value and a
            /// `GaugeLast` takes `other`'s. A row that is zero in `other`
            /// is left alone, so a gauge `other` never recorded survives
            /// and a mostly-idle `other` costs one load per row. Recording
            /// into several families and absorbing them all gives the
            /// totals of recording into one.
            pub fn absorb(&self, other: &$Stats) {
                use $crate::metric::MetricKind;
                $(
                    let v = other.$name.load(Ordering::Relaxed);
                    if v != 0 {
                        match MetricKind::$kind {
                            MetricKind::Counter | MetricKind::Timer => {
                                self.$name.fetch_add(v, Ordering::Relaxed);
                            }
                            MetricKind::GaugeMax => {
                                self.$name.fetch_max(v, Ordering::Relaxed);
                            }
                            MetricKind::GaugeLast => self.$name.store(v, Ordering::Relaxed),
                        }
                    }
                )+
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
            /// counters and timers; gauges keep `self`'s value (a maximum
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
            /// all but the timers and the last-writer-wins gauges.
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
