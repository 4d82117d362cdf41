#![warn(missing_docs)]
#![warn(clippy::expect_used)]
//! # sharebackup-topo
//!
//! Topology substrate for the ShareBackup reproduction.
//!
//! This crate builds every network the paper simulates or proposes:
//!
//! * [`fattree`] — the k-ary fat-tree of Al-Fares et al. (SIGCOMM'08), the
//!   base architecture ShareBackup augments and one of the two rerouting
//!   baselines of the paper's §2.2 failure study.
//! * [`f10`] — the F10 AB fat-tree of Liu et al. (NSDI'13), the second
//!   baseline: a [`FatTree`] whose odd pods take the transposed agg–core
//!   striping that enables local 3-hop rerouting. One builder and one path
//!   enumerator serve both trees.
//! * [`circuit`] — the configurable circuit-switch crossbar (electrical
//!   crosspoint or 2D-MEMS optical), the paper's §3 enabling technology.
//! * [`sharebackup`] — the ShareBackup physical architecture: a fat-tree
//!   whose switch positions are *slots* occupied by physical switches, with
//!   per-failure-group backup switches reachable through circuit switches.
//!
//! The split between *slots* (logical fat-tree positions that routing and the
//! data plane see) and *physical switches* (devices that can fail, be
//! replaced, and swap roles) mirrors the paper's key idea: after recovery the
//! slot topology is bit-identical to the pre-failure fat-tree, which is why
//! ShareBackup has no bandwidth loss and no path dilation.

pub mod cabling;
pub mod circuit;
pub mod f10;
pub mod fattree;
pub mod graph;
pub mod ids;
pub mod sharebackup;

pub use cabling::CablingReport;
pub use circuit::{Attachment, CircuitSwitch, CircuitTech, CsPort};
pub use f10::F10Topology;
pub use fattree::{FatTree, FatTreeConfig, HostAddr, PodType};
pub use graph::{Network, NodeKind};
pub use ids::{GroupId, GroupKind, LinkId, NodeId, PhysId, SlotId};
pub use sharebackup::{CsId, DiagConfig, ReplaceReport, ShareBackup, ShareBackupConfig};
