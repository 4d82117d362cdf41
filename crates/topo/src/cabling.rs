//! Deployment cabling audit (paper §3's packaging discussion).
//!
//! The paper argues ShareBackup packages cleanly: backup switches and the
//! 3 sets of k/2 circuit switches fold into the original fat-tree pods,
//! keeping the pod-host and pod-core wiring patterns. This module walks the
//! built fabric's *actual* attachments and produces the physical cabling
//! bill: per-pod cable counts, circuit-switch port usage, and — crucially
//! for tests — conservation checks (every packet-switch interface lands on
//! exactly one circuit-switch port; every host NIC on exactly one; side
//! ports pair up into rings).

use std::collections::BTreeMap;

use crate::circuit::Attachment;
use crate::ids::PhysId;
use crate::sharebackup::ShareBackup;

/// Physical cable/port bill of a built ShareBackup fabric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CablingReport {
    /// Circuit switches deployed.
    pub circuit_switches: usize,
    /// Total circuit-switch ports provisioned (both sides).
    pub circuit_ports_provisioned: usize,
    /// Circuit-switch ports actually cabled.
    pub circuit_ports_used: usize,
    /// Cables from packet-switch interfaces to circuit switches.
    pub switch_cables: usize,
    /// Cables from host NICs to circuit switches.
    pub host_cables: usize,
    /// Side-port cables forming the diagnosis rings.
    pub side_cables: usize,
}

impl CablingReport {
    /// Audit a built network.
    ///
    /// # Panics
    /// Panics if the fabric violates a conservation rule — that is a
    /// builder bug, not a runtime condition.
    pub fn of(sb: &ShareBackup) -> CablingReport {
        let mut switch_ends: BTreeMap<(PhysId, usize), usize> = BTreeMap::new();
        let mut host_ends: BTreeMap<crate::ids::NodeId, usize> = BTreeMap::new();
        let mut side_ends = 0usize;
        let mut provisioned = 0usize;
        let mut used = 0usize;
        let mut switches = 0usize;
        for id in sb.circuit_switch_ids() {
            switches += 1;
            let cs = sb.circuit_switch(id);
            provisioned += cs.port_count();
            for p in 0..cs.port_count() {
                match cs.attachment(crate::circuit::CsPort(p)) {
                    Attachment::Empty => {}
                    Attachment::Switch { switch, port } => {
                        used += 1;
                        *switch_ends.entry((switch, port)).or_insert(0) += 1;
                    }
                    Attachment::Host(h) => {
                        used += 1;
                        *host_ends.entry(h).or_insert(0) += 1;
                    }
                    Attachment::Side { .. } => {
                        used += 1;
                        side_ends += 1;
                    }
                }
            }
        }
        // Conservation: every cabled interface/NIC appears exactly once.
        for ((p, port), count) in &switch_ends {
            assert_eq!(
                *count, 1,
                "interface {port} of {p:?} cabled {count} times"
            );
        }
        for (h, count) in &host_ends {
            assert_eq!(*count, 1, "host {h:?} cabled {count} times");
        }
        assert_eq!(side_ends % 2, 0, "side cables must pair up");
        CablingReport {
            circuit_switches: switches,
            circuit_ports_provisioned: provisioned,
            circuit_ports_used: used,
            switch_cables: switch_ends.len(),
            host_cables: host_ends.len(),
            side_cables: side_ends / 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharebackup::ShareBackupConfig;

    #[test]
    fn bill_matches_closed_forms() {
        let k = 6;
        let n = 1;
        let sb = ShareBackup::build(ShareBackupConfig::new(k, n));
        let r = CablingReport::of(&sb);
        let half = k / 2;
        // 3 sets of k/2 circuit switches per pod.
        assert_eq!(r.circuit_switches, 3 * k * half);
        // Every packet switch cables all k interfaces: (k/2+n) switches per
        // group × 5k/2 groups × k interfaces... except core switches whose k
        // interfaces are one per pod — still k each. So:
        let switches = (5 * k / 2) * (half + n);
        assert_eq!(r.switch_cables, switches * k);
        // One cable per host.
        assert_eq!(r.host_cables, k * k * k / 4);
        // Side rings: k/2 circuit switches per ring, one cable per adjacent
        // pair (a ring of m nodes has m cables) — 3 rings per pod... the
        // ring is within (pod, layer): 3·k rings of k/2 cables.
        assert_eq!(r.side_cables, 3 * k * half);
    }

    #[test]
    fn port_usage_never_exceeds_provisioning() {
        for (k, n) in [(4, 1), (6, 2), (8, 1)] {
            let sb = ShareBackup::build(ShareBackupConfig::new(k, n));
            let r = CablingReport::of(&sb);
            assert!(r.circuit_ports_used <= r.circuit_ports_provisioned);
            // CS1 host sides are fully used; spares' ports are cabled too
            // (that is the point of sharable backup), so utilization is
            // high.
            let ratio = r.circuit_ports_used as f64 / r.circuit_ports_provisioned as f64;
            assert!(ratio > 0.9, "port utilization {ratio}");
        }
    }

    #[test]
    fn non_uniform_pools_audit_cleanly() {
        let cfg = ShareBackupConfig::new(6, 1).with_backups(2, 1, 0);
        let sb = ShareBackup::build(cfg);
        let r = CablingReport::of(&sb);
        // Switch cables: edges 6·5, aggs 6·4, cores 3·3 — each × k.
        assert_eq!(r.switch_cables, (6 * 5 + 6 * 4 + 3 * 3) * 6);
    }

    #[test]
    fn audit_survives_replacements() {
        // Replacement rewires circuits, never cables; the bill must not
        // change.
        let mut sb = ShareBackup::build(ShareBackupConfig::new(4, 1));
        let before = CablingReport::of(&sb);
        for g in sb.group_ids() {
            let spare = sb.spares(g)[0];
            sb.replace(g.slot(0), spare);
        }
        assert_eq!(CablingReport::of(&sb), before);
    }
}
