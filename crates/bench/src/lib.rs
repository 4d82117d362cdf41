#![warn(missing_docs)]
//! # sharebackup-bench
//!
//! Shared harness code for the per-figure/per-table binaries in `src/bin/`.
//! Each binary regenerates one table or figure of the paper; see DESIGN.md
//! for the experiment index and EXPERIMENTS.md for recorded results.

// Unlike every other library crate, this one does not warn on
// `clippy::expect_used`: in a benchmark harness, panicking on a malformed
// CLI flag or an impossible topology position is the intended failure mode,
// and its results never feed back into the simulation.

pub mod args;
pub mod fig1;
pub mod parallel;
pub mod racks;
pub mod trace;

pub use args::Args;
pub use parallel::parallel_map_indexed;
pub use racks::RackMap;
pub use trace::write_trace_files;
