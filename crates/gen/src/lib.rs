//! Graph and update-stream generators plus a dataset loader.
//!
//! The paper evaluates on SNAP datasets (LJ, OR, TW, FR), an R-MAT graph,
//! graph500 Kronecker graphs, and four temporal SNAP streams. Those files are
//! not redistributable here, so this crate provides (see DESIGN.md's
//! substitution table):
//!
//! * [`rmat`]: the R-MAT generator with the paper's exact parameters
//!   (a=0.5, b=c=0.1, d=0.3) — used both for the synthetic RM graph and for
//!   the update batches of every throughput experiment;
//! * [`graph500`]: the Graph500 Kronecker parameters (a=0.57, b=c=0.19);
//! * [`DatasetProfile`]: power-law graphs whose vertex count and average
//!   degree match each paper dataset at a configurable scale;
//! * [`temporal_stream`]: preferential-attachment arrival streams standing
//!   in for the Table 4 temporal graphs ([`TEMPORAL_PROFILES`]);
//! * [`load_snap_text`]: SNAP-style edge-list text, so real datasets can be
//!   dropped in when available;
//! * [`crc32`], [`write_frame`] and [`parse_frame`]: the hand-rolled CRC32
//!   and checksummed-frame helpers of the durability layer
//!   (`lsgraph-persist`);
//! * [`Csr`]: a static CSR snapshot used as the analytics ground truth.

mod binio;
mod csr;
mod loader;
mod profiles;
mod rmat;
mod temporal;

pub use binio::{crc32, parse_frame, write_frame};
pub use csr::Csr;
pub use loader::load_snap_text;
pub use profiles::DatasetProfile;
pub use rmat::{erdos_renyi, graph500, rmat, RmatParams};
pub use temporal::{temporal_stream, TemporalProfile, TEMPORAL_PROFILES};
