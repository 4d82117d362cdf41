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
//! The striping is the only difference, so [`F10Topology`] is a
//! [`FatTree`] built with the AB striping; every accessor and path function
//! is the fat-tree's, reached through `Deref`. The type itself is what tells
//! F10's router and world that the tree is AB-striped.
//!
//! The paper's §2.2 uses F10 with its local rerouting as the second
//! rerouting baseline; the detour construction itself lives in
//! `sharebackup-routing`.

use std::ops::{Deref, DerefMut};

use crate::fattree::{FatTree, FatTreeConfig};

/// A built F10 network: a [`FatTree`] whose odd pods are type B.
#[derive(Clone, Debug)]
pub struct F10Topology(FatTree);

impl F10Topology {
    /// Build an F10 AB fat-tree; even pods are type A, odd pods type B.
    ///
    /// # Panics
    /// Panics if `k` is odd or less than 4.
    pub fn build(cfg: FatTreeConfig) -> F10Topology {
        F10Topology(FatTree::build_ab(cfg))
    }
}

impl Deref for F10Topology {
    type Target = FatTree;

    fn deref(&self) -> &FatTree {
        &self.0
    }
}

impl DerefMut for F10Topology {
    fn deref_mut(&mut self) -> &mut FatTree {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fattree::{HostAddr, PodType};
    use crate::graph::NodeKind;
    use crate::ids::NodeId;

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
        let cores_of_agg =
            |pod, a| -> Vec<usize> { (0..4).map(|m| f10.core_index(pod, a, m)).collect() };
        assert_eq!(cores_of_agg(0, 1), vec![4, 5, 6, 7]); // consecutive
        assert_eq!(cores_of_agg(1, 1), vec![1, 5, 9, 13]); // strided
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
        let a = f10.host(HostAddr {
            pod: 0,
            edge: 0,
            host: 0,
        });
        let b = f10.host(HostAddr {
            pod: 1,
            edge: 1,
            host: 0,
        });
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
                for c2 in (0..3).map(|m| f10.core_index(b_pod, via, m)) {
                    if c2 != c && f10.agg_for_core(target_pod, c2) != blocked_agg {
                        found = true;
                        break 'search;
                    }
                }
            }
            assert!(found, "no 3-hop detour for core {c} into pod {target_pod}");
        }
    }

    #[test]
    fn ab_tree_differs_from_fattree_only_in_odd_pod_cores() {
        for k in [4, 6, 8] {
            let half = k / 2;
            let ft = FatTree::build(FatTreeConfig::new(k));
            let f10 = F10Topology::build(FatTreeConfig::new(k));
            let node = |net: &crate::Network, n: NodeId| {
                let n = net.node(n);
                (n.kind, n.pod, n.index)
            };
            assert_eq!(ft.net.node_count(), f10.net.node_count(), "k={k}");
            for n in ft.net.node_ids() {
                assert_eq!(node(&ft.net, n), node(&f10.net, n), "k={k} {n:?}");
            }
            assert_eq!(ft.net.link_count(), f10.net.link_count(), "k={k}");
            let mut transposed = 0;
            for l in ft.net.link_ids() {
                let (fl, al) = (ft.net.link(l), f10.net.link(l));
                assert_eq!(fl.capacity_bps, al.capacity_bps, "k={k} {l:?}");
                assert_eq!(fl.a, al.a, "k={k} {l:?}");
                let (kind, pod, a) = node(&ft.net, fl.a);
                let c = ft.net.node(fl.b).index;
                let odd_pod_uplink =
                    kind == NodeKind::Agg && pod.is_some_and(|p| !p.is_multiple_of(2));
                if odd_pod_uplink {
                    assert_eq!(c / half, a, "k={k}: fat-tree agg {a} reaches core {c}");
                    let m = c % half;
                    assert_eq!(al.b, f10.core(m * half + a), "k={k} {l:?}");
                    transposed += 1;
                } else {
                    assert_eq!(fl.b, al.b, "k={k} {l:?}");
                }
            }
            assert_eq!(transposed, (k / 2) * half * half, "k={k}");
        }
    }
}
