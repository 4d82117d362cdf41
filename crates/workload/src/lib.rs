#![warn(missing_docs)]
#![warn(clippy::expect_used)]
//! # sharebackup-workload
//!
//! Workload substrate for the ShareBackup reproduction.
//!
//! The paper's §2.2 runs "the coflow trace of real data center traffic" —
//! the Facebook Coflow-Benchmark trace (rack-level traffic from a 150-rack,
//! 10:1 oversubscribed cluster) — on k=16 fat-tree / F10 simulators. That
//! trace is external data, so per the substitution policy this crate
//! generates a *synthetic* trace with the published shape of the Facebook
//! workload:
//!
//! * Poisson coflow arrivals;
//! * MapReduce-shuffle structure (M mapper racks × R reducer racks, so a
//!   coflow is a set of M·R flows);
//! * heavy-tailed widths (most coflows narrow, a few very wide);
//! * heavy-tailed sizes (most coflows small, bytes dominated by a few
//!   giants).
//!
//! The findings the harness must reproduce — coflow amplification of
//! failure impact and orders-of-magnitude CCT slowdown — depend on this
//! *shape*, not on the identity of specific Facebook jobs.
//!
//! [`failures`] injects the paper's failure model: rare, transient,
//! independent failures (99.99% device availability, minutes-long
//! outages), one node or link at a time for the §2.2 study, Poisson
//! failure processes for long-running scenarios — plus the chaos
//! extensions (correlated pod-domain bursts, link flapping) bundled
//! behind [`failures::ChaosProfile`].

pub mod coflowgen;
pub mod failures;
pub mod stats;
pub mod trace_io;

pub use coflowgen::{CoflowTrace, TraceConfig};
pub use failures::{
    controller_crash_process, ChaosProfile, ControllerCrashEvent, FailureEvent, FailureInjector,
    FailureKind,
};
pub use stats::TraceShape;
pub use trace_io::{BenchmarkCoflow, BenchmarkTrace, ParseError};
