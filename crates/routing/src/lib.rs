#![warn(missing_docs)]
#![warn(clippy::expect_used)]
//! # sharebackup-routing
//!
//! Routing substrate for the ShareBackup reproduction.
//!
//! * [`flow`] — flow identity and the deterministic ECMP hash.
//! * [`twolevel`] — the Two-Level Routing tables of Al-Fares et al. that
//!   fat-tree switches (and therefore ShareBackup slots) forward with.
//! * [`ecmp`] — hash-based equal-cost multipath selection over the
//!   shortest paths, building only the chosen one (how the paper's §2.2
//!   simulations route).
//! * [`reroute`] — fat-tree *global optimal rerouting*: path re-selection
//!   over the surviving topology with load-aware assignment (baseline 1).
//! * [`f10`] — F10's *local rerouting*: same-length parent re-selection for
//!   upward failures and the 3-hop local detour for downward failures
//!   (baseline 2, the one the paper finds congests longer paths).
//! * [`impersonation`] — ShareBackup's live-impersonation tables (paper
//!   §4.3): per-failure-group merged tables, VLAN-differentiated at the edge
//!   layer, small enough for commodity TCAM (1056 entries at k=64).
//! * [`degraded`] — the graceful-degradation policy ([`DegradedMode`]) and
//!   per-flow accounting ([`DegradedTracker`]) used when replacement runs
//!   out of backups and the scenario layer falls back to rerouting.

pub mod degraded;
pub mod ecmp;
pub mod f10;
pub mod flow;
pub mod impersonation;
pub mod reroute;
pub mod twolevel;

pub use degraded::{DegradedMode, DegradedTracker};
pub use ecmp::ecmp_path;
pub use f10::F10Router;
pub use flow::FlowKey;
pub use impersonation::{EdgeGroupTable, GroupTables, SharedTable};
pub use reroute::GlobalReroute;
pub use twolevel::TwoLevelTables;
