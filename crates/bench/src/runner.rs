//! Engine construction, scaling knobs, and timing utilities.

use std::time::{Duration, Instant};

use lsgraph_api::{Edge, SetTable};
use lsgraph_aspen::AspenGraph;
use lsgraph_core::{BlockCtx, Config, LsGraph, VertexBlock};
use lsgraph_pactree::PacGraph;
use lsgraph_pma::PmaGraph;
use lsgraph_terrace::TerraceGraph;

use crate::Engine;

/// The four systems of the paper's headline comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// This paper's engine.
    LsGraph,
    /// Terrace (SIGMOD'21).
    Terrace,
    /// Aspen (PLDI'19).
    Aspen,
    /// PaC-tree (PLDI'22).
    PacTree,
    /// PCSR-style whole-graph PMA (the §2 motivation baseline, not part of
    /// the paper's headline four).
    Pcsr,
    /// LSGraph's vertex blocks in a bare `SetTable`, updated through its
    /// generic `DynamicGraph` path: the same containers on the same data
    /// without LSGraph's pipeline around them (panic isolation, quarantine,
    /// phase timers, latency, hooks), so the in-run control for LSGraph's
    /// per-batch cost.
    BlockTable,
}

impl EngineKind {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::LsGraph => "LSGraph",
            EngineKind::Terrace => "Terrace",
            EngineKind::Aspen => "Aspen",
            EngineKind::PacTree => "PaC-tree",
            EngineKind::Pcsr => "PCSR",
            EngineKind::BlockTable => "SetTable<VertexBlock>",
        }
    }
}

/// All engines in the paper's presentation order.
pub fn engines() -> [EngineKind; 4] {
    [
        EngineKind::Terrace,
        EngineKind::Aspen,
        EngineKind::PacTree,
        EngineKind::LsGraph,
    ]
}

/// Builds an engine of `kind` bulk-loaded with `edges` over `n` vertices.
pub fn build_engine(kind: EngineKind, n: usize, edges: &[Edge]) -> Box<dyn Engine> {
    match kind {
        EngineKind::LsGraph => Box::new(LsGraph::from_edges(n, edges, Config::default())),
        EngineKind::Terrace => Box::new(TerraceGraph::from_edges(n, edges)),
        EngineKind::Aspen => Box::new(AspenGraph::from_edges(n, edges)),
        EngineKind::PacTree => Box::new(PacGraph::from_edges(n, edges)),
        EngineKind::Pcsr => Box::new(PmaGraph::from_edges(n, edges)),
        EngineKind::BlockTable => Box::new(SetTable::<VertexBlock>::from_edges(n, edges)),
    }
}

/// LSGraph tier thresholds scaled down with a dataset's shift.
///
/// The harness shrinks each dataset's vertex count (and with it the head
/// degrees) by `2^shift` relative to the real graph, so the medium-tier
/// ceiling `M` shrinks by the same factor. The floor of 128 (= 8 blocks)
/// keeps the RIA tier multi-block; at `shift == 0` this is exactly the
/// paper's `M = 4096`, so full-scale runs are unaffected.
pub fn scaled_config(shift: u32) -> Config {
    let m = (Config::default().m >> shift.min(16)).clamp(128, 4096);
    Config::default().with_m(m)
}

/// Like [`build_engine`], but LSGraph's tier thresholds (its own and its
/// blocks' in [`EngineKind::BlockTable`]) track the dataset shift (see
/// [`scaled_config`]) so the HITree tier is exercised even on laptop-scale
/// stand-ins. Other engines have no such knob and build identically.
pub fn build_engine_scaled(
    kind: EngineKind,
    n: usize,
    edges: &[Edge],
    shift: u32,
) -> Box<dyn Engine> {
    match kind {
        EngineKind::LsGraph => Box::new(LsGraph::from_edges(n, edges, scaled_config(shift))),
        EngineKind::BlockTable => Box::new(SetTable::<VertexBlock>::from_edges_with_ctx(
            n,
            edges,
            BlockCtx::new(scaled_config(shift)),
        )),
        other => build_engine(other, n, edges),
    }
}

/// Experiment sizing, controlled by `REPRO_SCALE` / `REPRO_TRIALS` /
/// `REPRO_BASE`.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// log2 of the base-graph vertex count before `shift` is applied.
    pub base: u32,
    /// Extra powers of two applied to vertex counts and batch sizes.
    pub shift: u32,
    /// Trials averaged per measurement (paper: 5).
    pub trials: usize,
}

impl Scale {
    /// Reads `REPRO_SCALE`, `REPRO_TRIALS`, and `REPRO_BASE` from the
    /// environment.
    pub fn from_env() -> Self {
        let get = |k: &str, d: usize| {
            std::env::var(k)
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(d)
        };
        Scale {
            base: get("REPRO_BASE", 15) as u32,
            shift: get("REPRO_SCALE", 0) as u32,
            trials: get("REPRO_TRIALS", 3),
        }
    }

    /// A tiny configuration for smoke tests.
    pub fn tiny() -> Self {
        Scale {
            base: 10,
            shift: 0,
            trials: 1,
        }
    }

    /// log2 of the default base-graph vertex count at this scale.
    pub fn graph_scale(&self) -> u32 {
        self.base + self.shift
    }

    /// Batch sizes for the Fig. 12-style sweeps (the paper sweeps
    /// 10^4..10^8; we sweep the same number of magnitudes scaled down).
    pub fn batch_sizes(&self) -> Vec<usize> {
        let top = 1usize << (self.graph_scale() + 1);
        (0..5).map(|i| (top >> (2 * (4 - i))).max(16)).collect()
    }
}

/// Runs `f` and returns its result with the elapsed wall-clock time.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Mean duration of `trials` runs of `f` (result of last run returned).
pub fn time_avg(trials: usize, mut f: impl FnMut()) -> Duration {
    let mut total = Duration::ZERO;
    for _ in 0..trials.max(1) {
        let start = Instant::now();
        f();
        total += start.elapsed();
    }
    total / trials.max(1) as u32
}

/// Formats edges-per-second throughput.
pub fn fmt_tput(edges: usize, d: Duration) -> String {
    let eps = edges as f64 / d.as_secs_f64().max(1e-12);
    if eps >= 1e9 {
        format!("{:.2}G", eps / 1e9)
    } else if eps >= 1e6 {
        format!("{:.2}M", eps / 1e6)
    } else if eps >= 1e3 {
        format!("{:.2}K", eps / 1e3)
    } else {
        format!("{eps:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_all_engines() {
        let edges = [Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)];
        for kind in engines() {
            let mut g = build_engine(kind, 3, &edges);
            assert_eq!(g.num_edges(), 3, "{}", kind.name());
            assert_eq!(g.neighbors(0), vec![1], "{}", kind.name());
            g.insert_batch(&[Edge::new(0, 2)]);
            assert_eq!(g.neighbors(0), vec![1, 2], "{}", kind.name());
        }
    }

    #[test]
    fn scale_batches_are_increasing() {
        let s = Scale {
            base: 15,
            shift: 0,
            trials: 1,
        };
        let b = s.batch_sizes();
        assert_eq!(b.len(), 5);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*b.last().unwrap(), 1 << 16);
    }

    #[test]
    fn tput_formatting() {
        assert_eq!(fmt_tput(2_000_000, Duration::from_secs(1)), "2.00M");
        assert_eq!(fmt_tput(1_500, Duration::from_secs(1)), "1.50K");
    }
}
