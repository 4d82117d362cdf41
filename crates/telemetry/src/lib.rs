//! Virtual-time observability for the ShareBackup simulation stack.
//!
//! The paper's central claim is a recovery-*breakdown* — failure →
//! detection → diagnosis → circuit reconfiguration → traffic restored —
//! so this crate records structured telemetry stamped with the sim's
//! virtual [`Time`](sharebackup_sim::Time), never wall-clock readings:
//!
//! | module | provides |
//! |---|---|
//! | [`sink`] | [`Sink`] trait, cloneable [`Tracer`] handle |
//! | [`buffer`] | [`MemSink`] / [`TraceBuffer`]: plain-data per-trial recordings |
//! | [`hist`] | [`LogHistogram`]: O(1) log₂-bucketed `u64` histogram |
//! | [`chrome`] | [`chrome_trace`]: Trace Event Format JSON for `ui.perfetto.dev` |
//! | [`digest`] | [`text_digest`]: deterministic plain-text rendering, ending in per-phase duration tables |
//! | [`engine`] | [`TracedWorld`]: drop-in event-loop instrumentation |
//!
//! Design rules:
//!
//! * **~Zero cost when off.** Instrumented code holds a [`Tracer`]; the
//!   disabled handle ([`Tracer::off`]) carries no sink, so every call is
//!   one branch. Hot paths need no `#[cfg]` gating.
//! * **Deterministic output.** Buffers are plain ordered data; exporters
//!   iterate in insertion/`BTreeMap` order only. Parallel harnesses
//!   record per-trial buffers and merge them in trial order, so trace
//!   files are byte-identical for every `--jobs N` (DESIGN.md §7.1).
//! * **Virtual time only.** Timestamps come from the simulation clock;
//!   clippy's `disallowed_types` (`clippy.toml`) keeps `Instant` and
//!   `SystemTime` out of this crate like every other sim-path crate.

#![warn(missing_docs)]
#![warn(clippy::expect_used)]

pub mod buffer;
pub mod chrome;
pub mod digest;
pub mod engine;
pub mod hist;
pub mod sink;

pub use buffer::{MemSink, Span, TraceBuffer, TraceEvent};
pub use chrome::chrome_trace;
pub use digest::text_digest;
pub use engine::TracedWorld;
pub use hist::LogHistogram;
pub use sink::{Sink, Tracer};
