//! Gauges for the Table 3 property checks.
//!
//! The paper compares architectures on three binary properties after a
//! failure is "handled" (by rerouting or by replacement):
//!
//! * **Bandwidth loss** — is the network's usable capacity reduced?
//! * **Path dilation** — did any flow's path get longer?
//! * **Upstream repair** — did recovery require changing forwarding at
//!   switches *upstream* of (closer to the source than) the failure?
//!
//! These are measured, not asserted: the `table3_properties` harness runs
//! each architecture through the same failure and reports what actually
//! happened, regenerating Table 3. It gauges bandwidth with
//! [`total_usable_capacity`] and upstream repair with [`upstream_repair`];
//! path dilation is a plain hop-count comparison done in the harness.

use sharebackup_topo::{Network, NodeId};

/// Sum of usable link capacity (bits/s), the simplest bandwidth-loss gauge.
pub fn total_usable_capacity(net: &Network) -> f64 {
    net.link_ids()
        .filter(|&l| net.link_usable(l))
        .map(|l| net.link(l).capacity_bps)
        .sum()
}

/// Whether repairing a flow changed its forwarding *upstream* of the
/// failure: the old and new paths diverge strictly before the failed
/// element's position on the old path.
///
/// `failed_at` is the index in `before` of the first node adjacent to the
/// failure (e.g. for a failed link `(before[i], before[i+1])`, pass `i`).
pub fn upstream_repair(before: &[NodeId], after: &[NodeId], failed_at: usize) -> bool {
    let common = before
        .iter()
        .zip(after.iter())
        .take_while(|(a, b)| a == b)
        .count();
    common < failed_at.saturating_add(1).min(before.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharebackup_topo::{FatTree, FatTreeConfig};

    #[test]
    fn capacity_drops_with_failures_and_recovers() {
        let mut ft = FatTree::build(FatTreeConfig::new(4));
        let full = total_usable_capacity(&ft.net);
        assert!(full > 0.0);
        let core = ft.core(0);
        ft.net.set_node_up(core, false);
        let loss = (full - total_usable_capacity(&ft.net)) / full;
        // Core 0 carries 4 of the 48 links.
        assert!((loss - 4.0 / 48.0).abs() < 1e-9, "loss = {loss}");
        ft.net.set_node_up(core, true);
        assert_eq!(total_usable_capacity(&ft.net), full);
    }

    #[test]
    fn upstream_repair_detection() {
        let before = [NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
        // Failure at hop 2→3 (failed_at = 2).
        // Divergence at index 1 (< 2): repair reached upstream.
        let upstream = [NodeId(0), NodeId(9), NodeId(8), NodeId(7), NodeId(4)];
        assert!(upstream_repair(&before, &upstream, 2));
        // Divergence exactly at the failure-adjacent node: local repair.
        let local = [NodeId(0), NodeId(1), NodeId(2), NodeId(8), NodeId(4)];
        assert!(!upstream_repair(&before, &local, 2));
        // Identical path (ShareBackup): no repair at all.
        assert!(!upstream_repair(&before, &before, 2));
    }
}
