#![warn(missing_docs)]
#![warn(clippy::expect_used)]
//! # ShareBackup
//!
//! A full-system reproduction of **"Stop Rerouting! Enabling ShareBackup
//! for Failure Recovery in Data Center Networks"** (Xia, Huang & Ng,
//! HotNets-XVI 2017).
//!
//! ShareBackup replaces the rerouting orthodoxy with *hardware
//! replacement*: the whole network shares a small pool of backup switches,
//! reachable through cheap circuit switches, so a failed switch is swapped
//! out in about a millisecond — **no bandwidth loss, no path dilation, no
//! upstream repair**, at ~7% of the fat-tree's cost (k=48, n=1, copper).
//!
//! This crate re-exports the workspace's sub-crates under stable module
//! names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `sharebackup-sim` | discrete-event engine, virtual time, RNG, stats |
//! | [`topo`] | `sharebackup-topo` | fat-tree, F10 AB tree, circuit switches, the ShareBackup physical architecture |
//! | [`routing`] | `sharebackup-routing` | two-level routing, ECMP, global/local rerouting, VLAN impersonation tables |
//! | [`flowsim`] | `sharebackup-flowsim` | max-min fair flow-level simulator, coflows, impact metrics |
//! | [`packet`] | `sharebackup-packet` | packet-level simulator (queues + Reno-like transport) |
//! | [`core`] | `sharebackup-core` | the recovery controller, diagnosis, latency model, scenario worlds |
//! | [`workload`] | `sharebackup-workload` | synthetic coflow traces, failure injection |
//! | [`cost`] | `sharebackup-cost` | Table 2 cost model, capacity and scalability analysis |
//! | [`telemetry`] | `sharebackup-telemetry` | virtual-time spans/counters/histograms, chrome-trace + digest exporters |
//!
//! ## Quickstart
//!
//! ```
//! use sharebackup::core::{Controller, ControllerConfig};
//! use sharebackup::sim::Time;
//! use sharebackup::topo::{GroupId, ShareBackup, ShareBackupConfig};
//!
//! // A k=8 ShareBackup network with 1 backup switch per failure group.
//! let network = ShareBackup::build(ShareBackupConfig::new(8, 1));
//! let mut controller = Controller::new(network, ControllerConfig::default());
//!
//! // An aggregation switch dies...
//! let slot = GroupId::agg(0).slot(2);
//! let victim = controller.sb.occupant(slot);
//! controller.sb.set_phys_healthy(victim, false);
//!
//! // ...and the controller swaps in a backup via circuit reconfiguration.
//! let recovery = controller.handle_node_failure(victim, Time::ZERO);
//! assert!(recovery.fully_recovered());
//! assert!(recovery.latency < sharebackup::sim::Duration::from_millis(2));
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench`
//! for the harness that regenerates every table and figure of the paper.

pub use sharebackup_core as core;
pub use sharebackup_cost as cost;
pub use sharebackup_flowsim as flowsim;
pub use sharebackup_packet as packet;
pub use sharebackup_routing as routing;
pub use sharebackup_sim as sim;
pub use sharebackup_telemetry as telemetry;
pub use sharebackup_topo as topo;
pub use sharebackup_workload as workload;
