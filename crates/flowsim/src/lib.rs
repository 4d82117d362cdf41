#![warn(missing_docs)]
//! # sharebackup-flowsim
//!
//! Flow-level network simulator for the ShareBackup reproduction.
//!
//! The paper's §2.2 failure study measures the *final state* of the network
//! after failures, "without the transient dynamics" — which is precisely the
//! fluid (flow-level) limit: every flow drains at its max-min fair share of
//! the bottleneck capacity along its path. This crate implements:
//!
//! * [`maxmin`] — progressive-filling max-min fair allocation in level
//!   form: a min-heap yields links in saturation order and each one freezes
//!   only its own flows. The dense reusable [`WaterFiller`] is threaded
//!   through the simulator's event loop and restarts each solve warm: it
//!   keeps the previous solve's freeze log below the first level the
//!   mutations since can reach, and re-fills only the rest
//!   ([`maxmin_reference`], the tree-based round-by-round original, is kept
//!   as differential oracle);
//! * [`sim`] — the event-driven flow-progress simulation over an
//!   [`sim::Environment`] (topology + routing policy), with *epochs* at which
//!   the environment may mutate (failures, recoveries) and flows re-route;
//! * [`coflow`] — coflow bookkeeping and Coflow Completion Time (CCT);
//! * [`impact`] — the static affected-flow/affected-coflow metrics of
//!   Fig. 1(a)/(b);
//! * [`properties`] — the Table 3 property checks (bandwidth loss, path
//!   dilation, upstream repair).

pub mod coflow;
pub mod impact;
pub mod maxmin;
pub mod maxmin_reference;
pub mod properties;
pub mod sim;

pub use coflow::{Coflow, CoflowId, CoflowOutcome};
pub use impact::ImpactReport;
pub use maxmin::{max_min_rates, SolveStats, WaterFiller};
pub use maxmin_reference::max_min_rates_reference;
pub use sim::{Environment, FlowOutcome, FlowSim, FlowSpec, SimOutcome};
