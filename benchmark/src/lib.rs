//! Host-calibrated, interleaved four-workload benchmark for the LSGraph
//! reproduction. See `README.md` beside this package.

pub mod calib;
pub mod ctx;
pub mod durable;
pub mod engine;
pub mod inputs;
pub mod layers;
pub mod model;
pub mod run;
pub mod selfcheck;
pub mod spans;
pub mod spec;
