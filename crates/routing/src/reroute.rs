//! Fat-tree *global optimal rerouting* — the stronger of the paper's two
//! rerouting baselines (§2.2: "fat-tree uses global optimal rerouting").
//!
//! The controller is assumed to know the full failure state and re-selects
//! paths over the surviving equal-cost shortest paths. Two selection modes
//! are provided:
//!
//! * [`GlobalReroute::route`] — per-flow hash over surviving paths: what a
//!   converged ECMP control plane yields.
//! * [`GlobalReroute::route_all`] — *load-aware* global assignment: flows
//!   are greedily placed on the candidate path minimizing the current
//!   maximum link load. This is the "optimal" end of the spectrum and what
//!   the Fig. 1 harness uses for the fat-tree baseline, so the baseline is
//!   not handicapped.
//!
//! Either way, a flow whose endpoints are cut off (e.g. its edge switch
//! died) gets `None` — those are the unrecoverable casualties rerouting
//! cannot save, which the affected-flow metric counts.
//!
//! Both modes scan the flow's shortest paths by index through one reused
//! buffer ([`FatTree::host_path_into`]) and build a `Vec` only for the path
//! they return.

use sharebackup_topo::{FatTree, LinkId, NodeId};

use crate::flow::FlowKey;

/// Global rerouting over a fat-tree with failures.
#[derive(Clone, Copy, Debug, Default)]
pub struct GlobalReroute;

impl GlobalReroute {
    /// Hash-based rerouting: the flow's ECMP choice re-hashed over the
    /// surviving shortest paths. `None` if no shortest path survives.
    ///
    /// Note: if *no same-length path* survives, plain fat-tree rerouting has
    /// to fall back to non-shortest paths, which global optimal rerouting
    /// would find; we extend the search with a BFS fallback so the baseline
    /// keeps connectivity whenever the graph allows it.
    pub fn route(ft: &FatTree, flow: &FlowKey) -> Option<Vec<NodeId>> {
        let count = ft.host_path_count(flow.src, flow.dst);
        let mut path = Vec::with_capacity(7);
        let mut surviving = Vec::with_capacity(count);
        for i in 0..count {
            ft.host_path_into(flow.src, flow.dst, i, &mut path);
            if ft.net.path_usable(&path) {
                surviving.push(i);
            }
        }
        if surviving.is_empty() {
            return ft.net.bfs_path(flow.src, flow.dst);
        }
        let i = surviving[flow.pick(surviving.len())];
        Some(ft.host_path(flow.src, flow.dst, i))
    }

    /// Load-aware global assignment: route every flow, greedily minimizing
    /// the maximum number of flows per link, breaking ties by total load
    /// then path index. Returns one entry per input flow, `None` where the
    /// flow is disconnected.
    ///
    /// Deterministic: depends only on flow order and topology state.
    pub fn route_all(ft: &FatTree, flows: &[FlowKey]) -> Vec<Option<Vec<NodeId>>> {
        #[expect(
            clippy::expect_used,
            reason = "paths come from the topology, so every hop is adjacent"
        )]
        let link_of =
            |a: NodeId, b: NodeId| -> LinkId { ft.net.link_between(a, b).expect("path link") };
        let mut load = vec![0u64; ft.net.link_count()];
        let mut path = Vec::with_capacity(7);
        let mut out = Vec::with_capacity(flows.len());
        for flow in flows {
            let mut best: Option<(u64, u64, usize)> = None;
            for i in 0..ft.host_path_count(flow.src, flow.dst) {
                ft.host_path_into(flow.src, flow.dst, i, &mut path);
                if !ft.net.path_usable(&path) {
                    continue;
                }
                let (mut max, mut sum) = (0, 0);
                for hop in path.windows(2) {
                    let l = load[link_of(hop[0], hop[1]).index()];
                    max = max.max(l + 1);
                    sum += l;
                }
                let key = (max, sum, i);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            let chosen = match best {
                Some((_, _, i)) => ft.host_path(flow.src, flow.dst, i),
                None => match ft.net.bfs_path(flow.src, flow.dst) {
                    Some(p) => p,
                    None => {
                        out.push(None);
                        continue;
                    }
                },
            };
            for hop in chosen.windows(2) {
                load[link_of(hop[0], hop[1]).index()] += 1;
            }
            out.push(Some(chosen));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharebackup_topo::{FatTreeConfig, HostAddr};

    fn ft4() -> FatTree {
        FatTree::build(FatTreeConfig::new(4))
    }

    #[test]
    fn healthy_network_routes_on_shortest_paths() {
        let ft = ft4();
        let f = FlowKey::new(
            ft.host(HostAddr {
                pod: 0,
                edge: 0,
                host: 0,
            }),
            ft.host(HostAddr {
                pod: 2,
                edge: 1,
                host: 1,
            }),
            1,
        );
        let p = GlobalReroute::route(&ft, &f).expect("connected");
        assert_eq!(p.len(), 7);
    }

    #[test]
    fn core_failure_avoided() {
        let mut ft = ft4();
        let src = ft.host(HostAddr {
            pod: 0,
            edge: 0,
            host: 0,
        });
        let dst = ft.host(HostAddr {
            pod: 2,
            edge: 1,
            host: 1,
        });
        // Kill core 0; all flows must avoid it but stay 6 hops.
        let c0 = ft.core(0);
        ft.net.set_node_up(c0, false);
        for id in 0..64 {
            let f = FlowKey::new(src, dst, id);
            let p = GlobalReroute::route(&ft, &f).expect("connected");
            assert_eq!(p.len(), 7);
            assert!(!p.contains(&c0));
        }
    }

    #[test]
    fn edge_failure_is_unrecoverable() {
        let mut ft = ft4();
        let src = ft.host(HostAddr {
            pod: 0,
            edge: 0,
            host: 0,
        });
        let dst = ft.host(HostAddr {
            pod: 2,
            edge: 1,
            host: 1,
        });
        ft.net.set_node_up(ft.edge(2, 1), false);
        assert_eq!(GlobalReroute::route(&ft, &FlowKey::new(src, dst, 0)), None);
    }

    #[test]
    fn bfs_fallback_when_no_shortest_path_survives() {
        let mut ft = ft4();
        let src = ft.host(HostAddr {
            pod: 0,
            edge: 0,
            host: 0,
        });
        let dst = ft.host(HostAddr {
            pod: 0,
            edge: 1,
            host: 0,
        });
        // Cut both direct edge→agg paths from edge(0,0)'s side upward —
        // intra-pod shortest paths all die, but a 6-hop detour via cores of
        // another pod edge... actually cutting agg(0,0) and agg(0,1) down
        // links to edge(0,1) forces longer paths.
        let e1 = ft.edge(0, 1);
        for a in 0..2 {
            let agg = ft.agg(0, a);
            let l = ft.net.link_between(agg, e1).expect("link");
            ft.net.set_link_up(l, false);
        }
        // Now edge(0,1) is only reachable via its hosts — i.e. unreachable.
        assert_eq!(GlobalReroute::route(&ft, &FlowKey::new(src, dst, 0)), None);
    }

    #[test]
    fn route_all_balances_load() {
        let ft = ft4();
        let src = ft.host(HostAddr {
            pod: 0,
            edge: 0,
            host: 0,
        });
        let dst = ft.host(HostAddr {
            pod: 2,
            edge: 0,
            host: 0,
        });
        let flows: Vec<FlowKey> = (0..4).map(|id| FlowKey::new(src, dst, id)).collect();
        let routed = GlobalReroute::route_all(&ft, &flows);
        // Four flows between the same pair: load-aware assignment uses all
        // four distinct cores.
        let cores: std::collections::BTreeSet<NodeId> = routed
            .iter()
            .map(|p| p.as_ref().expect("connected")[3])
            .collect();
        assert_eq!(cores.len(), 4);
    }

    #[test]
    fn route_all_handles_disconnected_flows() {
        let mut ft = ft4();
        let src = ft.host(HostAddr {
            pod: 0,
            edge: 0,
            host: 0,
        });
        let dst = ft.host(HostAddr {
            pod: 1,
            edge: 0,
            host: 0,
        });
        ft.net.set_node_up(ft.edge(1, 0), false);
        let routed = GlobalReroute::route_all(&ft, &[FlowKey::new(src, dst, 0)]);
        assert_eq!(routed, vec![None]);
    }
}
