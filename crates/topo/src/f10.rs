//! The F10 AB fat-tree of Liu et al. (NSDI'13).
//!
//! F10 keeps the fat-tree's node inventory but alternates the striping
//! between aggregation and core layers across pods: *type A* pods use the
//! standard consecutive striping (agg `a` → cores `a·k/2+m`), *type B* pods
//! use the transposed striping (agg `a` → cores `m·k/2+a`). Consequently a
//! core reaches different in-pod aggregation indices in A and B pods, which
//! is what makes F10's local (3-extra-hop) rerouting possible: from a core
//! that lost its link into a pod, a detour through any type-opposite pod
//! reaches an *alternate* core that enters the target pod through a
//! different aggregation switch.
//!
//! The paper's §2.2 uses F10 with its local rerouting as the second
//! rerouting baseline; the detour construction itself lives in
//! `sharebackup-routing`.

use crate::graph::{Network, NodeKind};
use crate::ids::NodeId;
use crate::fattree::{shortest_path_count, FatTreeConfig, HostAddr};

/// The two striping types of F10 pods.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PodType {
    /// Consecutive striping: agg `a` → cores `a·k/2 + m`.
    A,
    /// Transposed striping: agg `a` → cores `m·k/2 + a`.
    B,
}

/// A built F10 network.
#[derive(Clone, Debug)]
pub struct F10Topology {
    /// The configuration (shared with plain fat-trees).
    pub cfg: FatTreeConfig,
    /// The underlying graph.
    pub net: Network,
    hosts: Vec<NodeId>,
    edges: Vec<Vec<NodeId>>,
    aggs: Vec<Vec<NodeId>>,
    cores: Vec<NodeId>,
}

impl F10Topology {
    /// Build an F10 AB fat-tree; even pods are type A, odd pods type B.
    ///
    /// # Panics
    /// Panics if `k` is odd or less than 4.
    #[allow(clippy::needless_range_loop)] // indices double as addresses
    pub fn build(cfg: FatTreeConfig) -> F10Topology {
        assert!(cfg.k >= 4 && cfg.k.is_multiple_of(2), "k must be even and >= 4");
        let k = cfg.k;
        let half = k / 2;
        let mut net = Network::new();

        let cores: Vec<NodeId> = (0..cfg.core_count())
            .map(|j| net.add_node(NodeKind::Core, None, j))
            .collect();
        let mut edges = Vec::with_capacity(k);
        let mut aggs = Vec::with_capacity(k);
        let mut hosts = Vec::with_capacity(cfg.host_count());
        for pod in 0..k {
            edges.push(
                (0..half)
                    .map(|j| net.add_node(NodeKind::Edge, Some(pod), j))
                    .collect::<Vec<_>>(),
            );
            aggs.push(
                (0..half)
                    .map(|j| net.add_node(NodeKind::Agg, Some(pod), j))
                    .collect::<Vec<_>>(),
            );
            for e in 0..half {
                for h in 0..half {
                    let addr = HostAddr { pod, edge: e, host: h };
                    let id = net.add_node(NodeKind::Host, Some(pod), addr.to_index(k));
                    hosts.push(id);
                }
            }
        }

        let uplink = cfg.uplink_bps();
        for pod in 0..k {
            for e in 0..half {
                for h in 0..half {
                    let idx = HostAddr { pod, edge: e, host: h }.to_index(k);
                    net.add_link(hosts[idx], edges[pod][e], cfg.host_link_bps);
                }
            }
            for e in 0..half {
                for a in 0..half {
                    net.add_link(edges[pod][e], aggs[pod][a], uplink);
                }
            }
            for a in 0..half {
                for m in 0..half {
                    net.add_link(aggs[pod][a], cores[Self::core_of(k, pod, a, m)], uplink);
                }
            }
        }

        F10Topology {
            cfg,
            net,
            hosts,
            edges,
            aggs,
            cores,
        }
    }

    /// Global index of the core on the `m`-th uplink of agg `a` in `pod`.
    fn core_of(k: usize, pod: usize, a: usize, m: usize) -> usize {
        let half = k / 2;
        match Self::pod_type_of(pod) {
            PodType::A => a * half + m,
            PodType::B => m * half + a,
        }
    }

    fn pod_type_of(pod: usize) -> PodType {
        if pod.is_multiple_of(2) {
            PodType::A
        } else {
            PodType::B
        }
    }

    /// Striping type of `pod`.
    pub fn pod_type(&self, pod: usize) -> PodType {
        Self::pod_type_of(pod)
    }

    /// Fat-tree parameter `k`.
    pub fn k(&self) -> usize {
        self.cfg.k
    }

    /// Node id of the host at `addr`.
    pub fn host(&self, addr: HostAddr) -> NodeId {
        self.hosts[addr.to_index(self.cfg.k)]
    }

    /// All host node ids in global-index order.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Edge switch E_{pod,j}.
    pub fn edge(&self, pod: usize, j: usize) -> NodeId {
        self.edges[pod][j]
    }

    /// Aggregation switch A_{pod,j}.
    pub fn agg(&self, pod: usize, j: usize) -> NodeId {
        self.aggs[pod][j]
    }

    /// Core switch C_j.
    pub fn core(&self, j: usize) -> NodeId {
        self.cores[j]
    }

    /// All cores in index order.
    pub fn cores(&self) -> &[NodeId] {
        &self.cores
    }

    /// The address of a host node.
    ///
    /// # Panics
    /// Panics if `n` is not a host.
    pub fn addr_of(&self, n: NodeId) -> HostAddr {
        let node = self.net.node(n);
        assert_eq!(node.kind, NodeKind::Host, "{n:?} is not a host");
        HostAddr::from_index(node.index, self.cfg.k)
    }

    /// Global indices of the cores reachable from agg `a` of `pod`.
    pub fn cores_of_agg(&self, pod: usize, a: usize) -> Vec<usize> {
        (0..self.cfg.k / 2)
            .map(|m| Self::core_of(self.cfg.k, pod, a, m))
            .collect()
    }

    /// In-pod index of the aggregation switch that core `c` connects to in
    /// `pod`. Every core reaches exactly one agg per pod.
    pub fn agg_for_core(&self, pod: usize, c: usize) -> usize {
        let half = self.cfg.k / 2;
        match self.pod_type(pod) {
            PodType::A => c / half,
            PodType::B => c % half,
        }
    }

    /// Number of equal-cost shortest paths between two hosts (see
    /// [`crate::FatTree::host_path_count`]).
    ///
    /// # Panics
    /// Panics if `src == dst` or either is not a host.
    pub fn host_path_count(&self, src: NodeId, dst: NodeId) -> usize {
        assert!(src != dst, "src == dst");
        shortest_path_count(self.addr_of(src), self.addr_of(dst), self.cfg.k)
    }

    /// The `i`-th equal-cost shortest path between two hosts (see
    /// [`crate::FatTree::host_path`] for the path-shape conventions).
    ///
    /// Across pods, path `i` climbs through agg `a = i / (k/2)` and that
    /// agg's `m = i % (k/2)`-th core under the source pod's striping, then
    /// descends through whichever agg that core reaches in the destination
    /// pod.
    ///
    /// # Panics
    /// Panics if `i >= host_path_count(src, dst)`.
    pub fn host_path(&self, src: NodeId, dst: NodeId, i: usize) -> Vec<NodeId> {
        let mut path = Vec::with_capacity(7);
        self.host_path_into(src, dst, i, &mut path);
        path
    }

    /// [`F10Topology::host_path`] written into `out` (cleared first).
    pub fn host_path_into(&self, src: NodeId, dst: NodeId, i: usize, out: &mut Vec<NodeId>) {
        let half = self.cfg.k / 2;
        let s = self.addr_of(src);
        let d = self.addr_of(dst);
        assert!(src != dst, "src == dst");
        assert!(
            i < shortest_path_count(s, d, self.cfg.k),
            "path index {i} out of range"
        );
        out.clear();
        out.push(src);
        out.push(self.edges[s.pod][s.edge]);
        if s.pod != d.pod {
            let a = i / half;
            let c = Self::core_of(self.cfg.k, s.pod, a, i % half);
            out.push(self.aggs[s.pod][a]);
            out.push(self.cores[c]);
            out.push(self.aggs[d.pod][self.agg_for_core(d.pod, c)]);
        } else if s.edge != d.edge {
            out.push(self.aggs[s.pod][i]);
        }
        if (s.pod, s.edge) != (d.pod, d.edge) {
            out.push(self.edges[d.pod][d.edge]);
        }
        out.push(dst);
    }

    /// All equal-cost shortest paths between two hosts, in
    /// [`F10Topology::host_path`] order.
    pub fn host_paths(&self, src: NodeId, dst: NodeId) -> Vec<Vec<NodeId>> {
        (0..self.host_path_count(src, dst))
            .map(|i| self.host_path(src, dst, i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_fattree() {
        let f10 = F10Topology::build(FatTreeConfig::new(8));
        assert_eq!(f10.hosts().len(), 128);
        assert_eq!(f10.cores().len(), 16);
        assert_eq!(f10.net.link_count(), 128 + 2 * 8 * 16);
    }

    #[test]
    fn ab_striping_differs() {
        let f10 = F10Topology::build(FatTreeConfig::new(8));
        assert_eq!(f10.pod_type(0), PodType::A);
        assert_eq!(f10.pod_type(1), PodType::B);
        assert_eq!(f10.cores_of_agg(0, 1), vec![4, 5, 6, 7]); // consecutive
        assert_eq!(f10.cores_of_agg(1, 1), vec![1, 5, 9, 13]); // strided
    }

    #[test]
    fn every_core_reaches_one_agg_per_pod() {
        let f10 = F10Topology::build(FatTreeConfig::new(6));
        for pod in 0..6 {
            for c in 0..9 {
                let a = f10.agg_for_core(pod, c);
                assert!(
                    f10.net.link_between(f10.agg(pod, a), f10.core(c)).is_some(),
                    "core {c} should reach agg({pod},{a})"
                );
            }
        }
    }

    #[test]
    fn core_degree_is_k() {
        let f10 = F10Topology::build(FatTreeConfig::new(6));
        for j in 0..9 {
            assert_eq!(f10.net.incident(f10.core(j)).len(), 6);
        }
    }

    #[test]
    fn cross_pod_paths_valid_and_complete() {
        let f10 = F10Topology::build(FatTreeConfig::new(4));
        let a = f10.host(HostAddr { pod: 0, edge: 0, host: 0 });
        let b = f10.host(HostAddr { pod: 1, edge: 1, host: 0 });
        let paths = f10.host_paths(a, b);
        assert_eq!(paths.len(), 4);
        for p in &paths {
            assert_eq!(p.len(), 7);
            assert!(f10.net.path_usable(p), "unusable path {p:?}");
        }
        // Paths must use distinct cores.
        let mut cores: Vec<NodeId> = paths.iter().map(|p| p[3]).collect();
        cores.sort();
        cores.dedup();
        assert_eq!(cores.len(), 4);
    }

    #[test]
    fn f10_detour_property_holds() {
        // The property local rerouting relies on: for a core c and a type-A
        // target pod, some type-B pod contains an agg connected to both c and
        // an alternate core c' that enters the target pod at a different agg.
        let f10 = F10Topology::build(FatTreeConfig::new(6));
        let target_pod = 0; // type A
        for c in 0..9 {
            let blocked_agg = f10.agg_for_core(target_pod, c);
            let mut found = false;
            'search: for b_pod in (0..6).filter(|p| f10.pod_type(*p) == PodType::B) {
                let via = f10.agg_for_core(b_pod, c);
                for c2 in f10.cores_of_agg(b_pod, via) {
                    if c2 != c && f10.agg_for_core(target_pod, c2) != blocked_agg {
                        found = true;
                        break 'search;
                    }
                }
            }
            assert!(found, "no 3-hop detour for core {c} into pod {target_pod}");
        }
    }
}
