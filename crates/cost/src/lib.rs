#![warn(missing_docs)]
#![warn(clippy::expect_used)]
//! # sharebackup-cost
//!
//! The paper's cost and scalability analysis (§5.1–§5.3): Table 2's cost
//! equations with the quoted market prices, the Fig. 5 relative-cost
//! comparison, the §5.1 capacity-to-handle-failures arithmetic, and the
//! §5.3 circuit-port scalability limits.

pub mod capacity;
pub mod model;
pub mod scalability;

pub use capacity::CapacityAnalysis;
pub use model::{Architecture, CostBreakdown, Medium, Prices};
pub use scalability::ScalabilityLimits;
