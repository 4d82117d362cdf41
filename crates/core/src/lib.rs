#![warn(missing_docs)]
#![warn(clippy::expect_used)]
//! # sharebackup-core
//!
//! The ShareBackup control plane — the paper's primary contribution (§4).
//!
//! * [`controller`] — the logically centralized recovery controller: reacts
//!   to node, link, host-link, and circuit-switch failures by allocating a
//!   backup switch from the failure group and reconfiguring the group's
//!   circuit switches; never switches back (role swap, §4.2); falls back
//!   gracefully (and counts it) when a group's backup pool is exhausted.
//! * [`diagnosis`] — offline failure diagnosis (§4.2): after a link failure
//!   replaces both suspect switches, the suspect interfaces are tested
//!   through up to three circuit configurations over the side-port rings;
//!   an interface with connectivity in any configuration is redressed and
//!   its switch returns to the backup pool.
//! * [`latency`] — the §5.3 recovery-latency model: probing interval +
//!   sub-ms control-plane communication + circuit reset (70 ns / 40 µs),
//!   compared against rerouting's SDN rule-install path.
//! * [`failover`] — the §5.1 replicated control plane: controller replicas
//!   elect a primary, the primary can crash mid-recovery, a deterministically
//!   elected successor re-drives the journaled recovery idempotently, and
//!   control messages traverse a lossy/delayed channel with timeout +
//!   backoff + retry budget.
//! * [`scenario`] — [`sharebackup_flowsim::Environment`] implementations for
//!   the three compared systems (fat-tree + global rerouting, F10 + local
//!   rerouting, ShareBackup + this controller), used by every Fig. 1-style
//!   experiment.

pub mod chaos;
pub mod controller;
pub mod detection;
pub mod diagnosis;
pub mod failover;
pub mod latency;
pub mod scenario;
pub mod timeline;

pub use chaos::ChaosConfig;
pub use controller::{Controller, ControllerConfig, ControllerStats, Recovery};
pub use detection::{detection_latency_samples, simulate_detection, DetectionConfig};
pub use diagnosis::{diagnose, DiagnosisReport, Verdict};
pub use failover::{
    simulate_election, CompletedRecovery, ElectionTimeline, FailoverConfig, FailoverPlane,
    FailureReport, PendingRecovery, RecoveryPhase, ReplicaOutOfRange,
};
pub use latency::{RecoveryLatencyModel, RecoveryScheme};
pub use scenario::{
    link_sb_event, map_chaos_schedule, F10World, FatTreeWorld, RecoveryMode, ShareBackupWorld,
};
pub use timeline::{simulate_recovery, Timeline, TimelineEvent};
