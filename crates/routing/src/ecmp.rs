//! Flow-hash ECMP over the equal-cost shortest paths.
//!
//! The paper's §2.2 simulations route with ECMP: each flow hashes onto one
//! of the equal-cost shortest paths. The choice is a pure function of the
//! flow key, so it never flaps, and only the chosen path is built: the hash
//! indexes the topology's path order ([`FatTree::host_path`]) directly.

use sharebackup_topo::{FatTree, NodeId};

use crate::flow::FlowKey;

/// The ECMP path of `flow` in a healthy fat-tree, under its striping (an
/// F10 AB tree derefs to its [`FatTree`]).
///
/// Failure state is intentionally ignored: this is the *static* route that
/// fat-tree forwards along until a rerouting mechanism intervenes, and the
/// route ShareBackup keeps using forever (its topology heals instead).
pub fn ecmp_path(ft: &FatTree, flow: &FlowKey) -> Vec<NodeId> {
    let pick = flow.pick(ft.host_path_count(flow.src, flow.dst));
    ft.host_path(flow.src, flow.dst, pick)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharebackup_topo::{F10Topology, FatTreeConfig, HostAddr};

    #[test]
    fn choice_is_stable() {
        let ft = FatTree::build(FatTreeConfig::new(8));
        let flow = FlowKey::new(
            ft.host(HostAddr {
                pod: 0,
                edge: 0,
                host: 0,
            }),
            ft.host(HostAddr {
                pod: 3,
                edge: 1,
                host: 2,
            }),
            42,
        );
        let a = ecmp_path(&ft, &flow);
        let b = ecmp_path(&ft, &flow);
        assert_eq!(a, b);
        assert_eq!(a.len(), 7);
    }

    #[test]
    fn different_flows_spread_over_cores() {
        let ft = FatTree::build(FatTreeConfig::new(8));
        let src = ft.host(HostAddr {
            pod: 0,
            edge: 0,
            host: 0,
        });
        let dst = ft.host(HostAddr {
            pod: 3,
            edge: 1,
            host: 2,
        });
        let mut cores = std::collections::BTreeSet::new();
        for id in 0..256 {
            let p = ecmp_path(&ft, &FlowKey::new(src, dst, id));
            cores.insert(p[3]);
        }
        assert!(cores.len() >= 12, "only {} cores used of 16", cores.len());
    }

    #[test]
    fn f10_ecmp_paths_are_valid() {
        let f10 = F10Topology::build(FatTreeConfig::new(6));
        let src = f10.host(HostAddr {
            pod: 0,
            edge: 0,
            host: 0,
        });
        let dst = f10.host(HostAddr {
            pod: 1,
            edge: 1,
            host: 1,
        });
        for id in 0..32 {
            let p = ecmp_path(&f10, &FlowKey::new(src, dst, id));
            assert!(f10.net.path_usable(&p));
        }
    }
}
