//! Static failure-impact metrics: the affected-flow and affected-coflow
//! fractions of Fig. 1(a) and 1(b).
//!
//! Paper §2.2: "A flow is considered affected if it traverses a failed node
//! or link, and a coflow is affected if at least one flow in its set gets
//! affected." This is a *static* property of the flows' pre-failure paths
//! against the failure set — no simulation involved — which is why the
//! coflow amplification (3.3×–90×) falls out of pure combinatorics.

use sharebackup_topo::{Network, NodeId};

use crate::coflow::Coflow;

/// Affected-flow / affected-coflow counts for one failure scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ImpactReport {
    /// Total flows examined.
    pub flows: usize,
    /// Flows whose path traverses a failed element.
    pub affected_flows: usize,
    /// Total coflows examined.
    pub coflows: usize,
    /// Coflows with at least one affected flow.
    pub affected_coflows: usize,
}

impl ImpactReport {
    /// Fraction of flows affected, in `[0, 1]`.
    pub fn flow_fraction(&self) -> f64 {
        if self.flows == 0 {
            0.0
        } else {
            self.affected_flows as f64 / self.flows as f64
        }
    }

    /// Fraction of coflows affected, in `[0, 1]`.
    pub fn coflow_fraction(&self) -> f64 {
        if self.coflows == 0 {
            0.0
        } else {
            self.affected_coflows as f64 / self.coflows as f64
        }
    }

    /// The paper's amplification factor: affected-coflow fraction divided by
    /// affected-flow fraction (3.3×–90× in Fig. 1).
    pub fn amplification(&self) -> Option<f64> {
        let f = self.flow_fraction();
        if f == 0.0 {
            None
        } else {
            Some(self.coflow_fraction() / f)
        }
    }
}

/// Whether a flow path traverses a failed node or link under the current
/// state of `net`.
pub fn flow_affected(net: &Network, path: &[NodeId]) -> bool {
    !net.path_usable(path)
}

/// Compute the impact report for a set of flows (given their pre-failure
/// paths) and their grouping into coflows, against the failure state in
/// `net`.
pub fn impact(net: &Network, paths: &[Vec<NodeId>], coflows: &[Coflow]) -> ImpactReport {
    let affected: Vec<bool> = paths.iter().map(|p| flow_affected(net, p)).collect();
    let affected_flows = affected.iter().filter(|&&a| a).count();
    let affected_coflows = coflows
        .iter()
        .filter(|cf| cf.flows.iter().any(|&i| affected[i]))
        .count();
    ImpactReport {
        flows: paths.len(),
        affected_flows,
        coflows: coflows.len(),
        affected_coflows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coflow::CoflowId;
    use sharebackup_topo::{FatTree, FatTreeConfig, HostAddr};

    #[test]
    fn amplification_emerges_from_grouping() {
        let mut ft = FatTree::build(FatTreeConfig::new(4));
        // 8 flows from distinct pod-0 hosts to pod-1 hosts, one coflow of 4
        // flows plus 4 singleton coflows.
        let paths: Vec<Vec<_>> = (0..8)
            .map(|i| {
                let src = ft.host(HostAddr { pod: 0, edge: (i / 2) % 2, host: i % 2 });
                let dst = ft.host(HostAddr { pod: 1, edge: i % 2, host: (i / 2) % 2 });
                ft.host_path(src, dst, i % 4)
            })
            .collect();
        let coflows = vec![
            Coflow { id: CoflowId(0), flows: vec![0, 1, 2, 3] },
            Coflow { id: CoflowId(1), flows: vec![4] },
            Coflow { id: CoflowId(2), flows: vec![5] },
            Coflow { id: CoflowId(3), flows: vec![6] },
            Coflow { id: CoflowId(4), flows: vec![7] },
        ];
        // No failure: nothing affected.
        let r = impact(&ft.net, &paths, &coflows);
        assert_eq!(r.affected_flows, 0);
        assert_eq!(r.affected_coflows, 0);
        assert_eq!(r.amplification(), None);
        // Fail the core used by flow 0 only.
        let core = paths[0][3];
        let others_use_it = paths[1..].iter().filter(|p| p.contains(&core)).count();
        ft.net.set_node_up(core, false);
        let r = impact(&ft.net, &paths, &coflows);
        assert_eq!(r.affected_flows, 1 + others_use_it);
        // The big coflow is affected via flow 0: coflow fraction ≥ 1/5 while
        // flow fraction could be as low as 1/8 → amplification ≥ 1.
        assert!(r.affected_coflows >= 1);
        assert!(r.amplification().expect("some affected") >= 1.0);
    }

    #[test]
    fn empty_inputs() {
        let ft = FatTree::build(FatTreeConfig::new(4));
        let r = impact(&ft.net, &[], &[]);
        assert_eq!(r.flow_fraction(), 0.0);
        assert_eq!(r.coflow_fraction(), 0.0);
    }

    #[test]
    fn link_failure_affects_exactly_traversing_flows() {
        let mut ft = FatTree::build(FatTreeConfig::new(4));
        let src = ft.host(HostAddr { pod: 0, edge: 0, host: 0 });
        let dst = ft.host(HostAddr { pod: 2, edge: 0, host: 0 });
        let paths = [ft.host_path(src, dst, 0), ft.host_path(src, dst, 3)];
        // Cut a link on path 0 that path 3 does not use.
        let l = ft.net.link_between(paths[0][2], paths[0][3]).expect("link");
        ft.net.set_link_up(l, false);
        assert!(flow_affected(&ft.net, &paths[0]));
        assert!(!flow_affected(&ft.net, &paths[1]));
    }
}
