#![warn(missing_docs)]
//! # sharebackup-bench
//!
//! Shared harness code for the per-figure/per-table binaries in `src/bin/`.
//! Each binary regenerates one table or figure of the paper; see DESIGN.md
//! for the experiment index and EXPERIMENTS.md for recorded results. Every
//! binary prints its rows through [`report`]: as `--json`, or as a table
//! followed by the paper's claims checked over them.

// Unlike every other library crate, this one does not warn on
// `clippy::expect_used`: in a benchmark harness, panicking on an impossible
// topology position is the intended failure mode, and its results never
// feed back into the simulation. (Malformed flags are not panics: `Cli`
// rejects them with exit status 2.)

pub mod args;
pub mod fig1;
pub mod harness;
pub mod parallel;
pub mod racks;
pub mod report;
pub mod results;
pub mod trace;

pub use args::Cli;
pub use parallel::parallel_map_indexed;
pub use racks::RackMap;
pub use trace::write_trace_files;
