#![warn(missing_docs)]
#![warn(clippy::expect_used)]
//! # sharebackup-packet
//!
//! A packet-level network simulator, used to cross-validate the flow-level
//! results on small instances and to observe the microscopic view of a
//! ShareBackup failover (packets in flight while the circuit resets).
//!
//! The paper evaluates on packet-level simulators; this one models:
//!
//! * store-and-forward output-queued switches with drop-tail FIFO queues
//!   ([`netsim`]),
//! * links with serialization (rate) and propagation delay,
//! * a Reno-like window-based transport per flow ([`transport`]): slow
//!   start, congestion avoidance, triple-duplicate-ACK fast retransmit with
//!   window halving, and RTO-driven go-back-N recovery,
//! * source-routed forwarding along the path the routing crate selected
//!   (consistent with the flow-level simulator), with mid-run topology
//!   events (fail/repair/re-path) for failover experiments.

pub mod netsim;
pub mod transport;

pub use netsim::{PacketNetConfig, PacketSim, PktEvent, PktFlowOutcome, PktFlowSpec};
pub use transport::RenoFlow;
