//! Shared harness for reproducing the paper's tables and figures.
//!
//! Every experiment is a function here, invoked by the `repro` binary.
//! Default sizes are laptop-scale; set `REPRO_SCALE=<k>` to grow every graph
//! and batch by `2^k`, and `REPRO_TRIALS=<t>` to average more trials.
//! EXPERIMENTS.md records the mapping from each function to the paper
//! artifact and the expected qualitative result.

mod check;
mod experiments;
mod report;
mod runner;

pub use check::{check_metrics, compare, violations_json, CheckOptions, Violation, ViolationKind};
pub use experiments::{all, experiment, small_batches_report, Experiment, EXPERIMENTS};
pub use report::{parse_json, BenchReport, Json};
pub use runner::{build_engine, engines, EngineKind, Scale};

use lsgraph_api::{DynamicGraph, MemoryFootprint};

/// Object-safe bundle of the traits every benchmarked engine provides.
pub trait Engine: DynamicGraph + MemoryFootprint + Send {}

impl<T: DynamicGraph + MemoryFootprint + Send> Engine for T {}
