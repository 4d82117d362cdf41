//! The k-ary fat-tree of Al-Fares et al. (SIGCOMM'08).
//!
//! A fat-tree with parameter `k` has `k` pods; each pod holds `k/2` edge and
//! `k/2` aggregation switches; `(k/2)²` core switches join the pods; each edge
//! switch serves `k/2` hosts, for `k³/4` hosts total.
//!
//! The paper's §2.2 failure study maps a 150-rack 10:1-oversubscribed
//! production trace onto a k=16 fat-tree with the same oversubscription at
//! the edge, so the builder takes an oversubscription factor: uplinks carry
//! `host_link_bps / oversubscription` each, making the edge layer's
//! down:up capacity ratio equal to `oversubscription`.

use crate::graph::{Network, NodeKind};
use crate::ids::NodeId;

/// Parameters of a fat-tree instance.
#[derive(Clone, Copy, Debug)]
pub struct FatTreeConfig {
    /// Switch port count and pod count. Must be even and ≥ 4.
    pub k: usize,
    /// Capacity of host-to-edge links, bits per second.
    pub host_link_bps: f64,
    /// Edge oversubscription ratio (1.0 = full bisection).
    pub oversubscription: f64,
}

impl FatTreeConfig {
    /// A full-bisection 10 Gbps fat-tree of the given `k`.
    pub fn new(k: usize) -> FatTreeConfig {
        FatTreeConfig {
            k,
            host_link_bps: 10e9,
            oversubscription: 1.0,
        }
    }

    /// Set the edge oversubscription ratio (paper §2.2 uses 10:1).
    pub fn with_oversubscription(mut self, ratio: f64) -> FatTreeConfig {
        self.oversubscription = ratio;
        self
    }

    /// Capacity of switch-to-switch links under this configuration.
    pub fn uplink_bps(&self) -> f64 {
        self.host_link_bps / self.oversubscription
    }

    /// Number of hosts, `k³/4`.
    pub fn host_count(&self) -> usize {
        self.k * self.k * self.k / 4
    }

    /// Number of core switches, `(k/2)²`.
    pub fn core_count(&self) -> usize {
        (self.k / 2) * (self.k / 2)
    }
}

/// A host's position: pod, edge switch within the pod, port on that edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct HostAddr {
    /// Pod index in `[0, k)`.
    pub pod: usize,
    /// Edge switch index within the pod, `[0, k/2)`.
    pub edge: usize,
    /// Host index under that edge switch, `[0, k/2)`.
    pub host: usize,
}

impl HostAddr {
    /// Global host index: `pod·k²/4 + edge·k/2 + host`.
    pub fn to_index(self, k: usize) -> usize {
        self.pod * (k * k / 4) + self.edge * (k / 2) + self.host
    }

    /// Inverse of [`HostAddr::to_index`].
    pub fn from_index(index: usize, k: usize) -> HostAddr {
        let per_pod = k * k / 4;
        let per_edge = k / 2;
        HostAddr {
            pod: index / per_pod,
            edge: (index % per_pod) / per_edge,
            host: index % per_edge,
        }
    }
}

/// A built fat-tree: the graph plus layer indexes for O(1) lookup.
#[derive(Clone, Debug)]
pub struct FatTree {
    /// The configuration this tree was built from.
    pub cfg: FatTreeConfig,
    /// The underlying graph.
    pub net: Network,
    hosts: Vec<NodeId>,
    edges: Vec<Vec<NodeId>>,
    aggs: Vec<Vec<NodeId>>,
    cores: Vec<NodeId>,
}

impl FatTree {
    /// Build a fat-tree.
    ///
    /// # Panics
    /// Panics if `k` is odd or less than 4.
    #[allow(clippy::needless_range_loop)] // indices double as addresses
    pub fn build(cfg: FatTreeConfig) -> FatTree {
        assert!(
            cfg.k >= 4 && cfg.k.is_multiple_of(2),
            "k must be even and >= 4"
        );
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
                    let addr = HostAddr {
                        pod,
                        edge: e,
                        host: h,
                    };
                    let id = net.add_node(NodeKind::Host, Some(pod), addr.to_index(k));
                    hosts.push(id);
                }
            }
        }

        let uplink = cfg.uplink_bps();
        for pod in 0..k {
            // Host <-> edge.
            for e in 0..half {
                for h in 0..half {
                    let idx = HostAddr {
                        pod,
                        edge: e,
                        host: h,
                    }
                    .to_index(k);
                    net.add_link(hosts[idx], edges[pod][e], cfg.host_link_bps);
                }
            }
            // Edge <-> agg: full bipartite within the pod.
            for e in 0..half {
                for a in 0..half {
                    net.add_link(edges[pod][e], aggs[pod][a], uplink);
                }
            }
            // Agg j <-> cores j·k/2 .. j·k/2 + k/2 − 1.
            for a in 0..half {
                for m in 0..half {
                    net.add_link(aggs[pod][a], cores[a * half + m], uplink);
                }
            }
        }

        FatTree {
            cfg,
            net,
            hosts,
            edges,
            aggs,
            cores,
        }
    }

    /// Fat-tree parameter `k`.
    pub fn k(&self) -> usize {
        self.cfg.k
    }

    /// Node id of the host at `addr`.
    pub fn host(&self, addr: HostAddr) -> NodeId {
        self.hosts[addr.to_index(self.cfg.k)]
    }

    /// Node id of the host with the given global index.
    pub fn host_by_index(&self, index: usize) -> NodeId {
        self.hosts[index]
    }

    /// All host node ids, in global-index order.
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

    /// Core switch C_j (global index).
    pub fn core(&self, j: usize) -> NodeId {
        self.cores[j]
    }

    /// All core switch ids in index order.
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

    /// The core switch an aggregation switch with in-pod index `a` reaches on
    /// its `m`-th uplink: global core index `a·k/2 + m`.
    pub fn core_index(&self, a: usize, m: usize) -> usize {
        a * (self.cfg.k / 2) + m
    }

    /// Number of equal-cost shortest paths between two hosts.
    ///
    /// * Same edge switch: 1 path of 2 hops.
    /// * Same pod, different edge: k/2 paths of 4 hops.
    /// * Different pods: (k/2)² paths of 6 hops.
    ///
    /// # Panics
    /// Panics if `src == dst` or either is not a host.
    pub fn host_path_count(&self, src: NodeId, dst: NodeId) -> usize {
        assert!(src != dst, "src == dst");
        shortest_path_count(self.addr_of(src), self.addr_of(dst), self.cfg.k)
    }

    /// The `i`-th equal-cost shortest path between two hosts, as a node
    /// sequence including both endpoints (ignores failure state — callers
    /// filter with [`Network::path_usable`]).
    ///
    /// Across pods, path `i` climbs through agg `a = i / (k/2)` and that
    /// agg's `m = i % (k/2)`-th core; within a pod, path `i` turns at agg
    /// `i`. This order is the contract flow hashes index into.
    ///
    /// # Panics
    /// Panics if `i >= host_path_count(src, dst)`.
    pub fn host_path(&self, src: NodeId, dst: NodeId, i: usize) -> Vec<NodeId> {
        let mut path = Vec::with_capacity(7);
        self.host_path_into(src, dst, i, &mut path);
        path
    }

    /// [`FatTree::host_path`] written into `out` (cleared first), so a
    /// caller scanning many paths reuses one buffer.
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
            let (a, m) = (i / half, i % half);
            out.push(self.aggs[s.pod][a]);
            out.push(self.cores[self.core_index(a, m)]);
            out.push(self.aggs[d.pod][a]);
        } else if s.edge != d.edge {
            out.push(self.aggs[s.pod][i]);
        }
        if (s.pod, s.edge) != (d.pod, d.edge) {
            out.push(self.edges[d.pod][d.edge]);
        }
        out.push(dst);
    }

    /// All equal-cost shortest paths between two hosts, in
    /// [`FatTree::host_path`] order.
    pub fn host_paths(&self, src: NodeId, dst: NodeId) -> Vec<Vec<NodeId>> {
        (0..self.host_path_count(src, dst))
            .map(|i| self.host_path(src, dst, i))
            .collect()
    }
}

/// Equal-cost shortest paths between hosts at `s` and `d` in any k-ary
/// fat-tree wiring: 1 under one edge switch, k/2 within a pod, (k/2)²
/// across pods.
pub(crate) fn shortest_path_count(s: HostAddr, d: HostAddr, k: usize) -> usize {
    let half = k / 2;
    if s.pod != d.pod {
        half * half
    } else if s.edge != d.edge {
        half
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_formulas() {
        for k in [4, 6, 8, 16] {
            let ft = FatTree::build(FatTreeConfig::new(k));
            let half = k / 2;
            assert_eq!(ft.hosts().len(), k * k * k / 4, "hosts for k={k}");
            assert_eq!(ft.cores().len(), half * half, "cores for k={k}");
            // Links: hosts k³/4 + edge-agg k·(k/2)² + agg-core k·(k/2)².
            let expect = k * k * k / 4 + 2 * k * half * half;
            assert_eq!(ft.net.link_count(), expect, "links for k={k}");
            // Switch degrees: every switch has exactly k links.
            for pod in 0..k {
                for j in 0..half {
                    assert_eq!(ft.net.incident(ft.edge(pod, j)).len(), k);
                    assert_eq!(ft.net.incident(ft.agg(pod, j)).len(), k);
                }
            }
            for j in 0..half * half {
                assert_eq!(ft.net.incident(ft.core(j)).len(), k);
            }
        }
    }

    #[test]
    fn host_addr_round_trip() {
        let k = 8;
        for idx in 0..(k * k * k / 4) {
            let addr = HostAddr::from_index(idx, k);
            assert_eq!(addr.to_index(k), idx);
            assert!(addr.pod < k && addr.edge < k / 2 && addr.host < k / 2);
        }
    }

    #[test]
    fn paths_have_expected_multiplicity_and_length() {
        let ft = FatTree::build(FatTreeConfig::new(6));
        let same_edge = ft.host_paths(
            ft.host(HostAddr {
                pod: 0,
                edge: 0,
                host: 0,
            }),
            ft.host(HostAddr {
                pod: 0,
                edge: 0,
                host: 1,
            }),
        );
        assert_eq!(same_edge.len(), 1);
        assert_eq!(same_edge[0].len(), 3);

        let same_pod = ft.host_paths(
            ft.host(HostAddr {
                pod: 0,
                edge: 0,
                host: 0,
            }),
            ft.host(HostAddr {
                pod: 0,
                edge: 2,
                host: 1,
            }),
        );
        assert_eq!(same_pod.len(), 3);
        assert!(same_pod.iter().all(|p| p.len() == 5));

        let cross_pod = ft.host_paths(
            ft.host(HostAddr {
                pod: 0,
                edge: 0,
                host: 0,
            }),
            ft.host(HostAddr {
                pod: 3,
                edge: 2,
                host: 1,
            }),
        );
        assert_eq!(cross_pod.len(), 9);
        assert!(cross_pod.iter().all(|p| p.len() == 7));
    }

    #[test]
    fn all_enumerated_paths_are_usable() {
        let ft = FatTree::build(FatTreeConfig::new(4));
        let hosts = ft.hosts();
        for (i, &src) in hosts.iter().enumerate() {
            for &dst in &hosts[i + 1..] {
                for path in ft.host_paths(src, dst) {
                    assert!(ft.net.path_usable(&path), "unusable path {path:?}");
                }
            }
        }
    }

    #[test]
    fn bfs_distance_matches_enumerated_paths() {
        let ft = FatTree::build(FatTreeConfig::new(4));
        let a = ft.host(HostAddr {
            pod: 0,
            edge: 0,
            host: 0,
        });
        let b = ft.host(HostAddr {
            pod: 1,
            edge: 1,
            host: 1,
        });
        assert_eq!(ft.net.distance(a, b), Some(6));
        let c = ft.host(HostAddr {
            pod: 0,
            edge: 1,
            host: 0,
        });
        assert_eq!(ft.net.distance(a, c), Some(4));
    }

    #[test]
    fn oversubscription_scales_uplinks_only() {
        let cfg = FatTreeConfig::new(8).with_oversubscription(10.0);
        let ft = FatTree::build(cfg);
        let host = ft.host(HostAddr {
            pod: 0,
            edge: 0,
            host: 0,
        });
        let edge = ft.edge(0, 0);
        let agg = ft.agg(0, 0);
        let hl = ft.net.link_between(host, edge).expect("host link");
        let ul = ft.net.link_between(edge, agg).expect("uplink");
        assert_eq!(ft.net.link(hl).capacity_bps, 10e9);
        assert_eq!(ft.net.link(ul).capacity_bps, 1e9);
    }

    #[test]
    fn core_wiring_is_strided_by_agg_index() {
        let ft = FatTree::build(FatTreeConfig::new(6));
        // Agg a in every pod connects to the same cores a·k/2+m.
        for pod in 0..6 {
            for a in 0..3 {
                for m in 0..3 {
                    let core = ft.core(ft.core_index(a, m));
                    assert!(
                        ft.net.link_between(ft.agg(pod, a), core).is_some(),
                        "agg({pod},{a}) should reach core {}",
                        ft.core_index(a, m)
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be even")]
    fn odd_k_rejected() {
        FatTree::build(FatTreeConfig::new(5));
    }
}
