//! F10 local rerouting (Liu et al., NSDI'13) — the paper's second baseline.
//!
//! F10 recovers *locally*, at the switch adjacent to the failure:
//!
//! * **Upward failures** (a parent or the link to it dies) are repaired with
//!   no path dilation: the child simply picks another parent.
//! * **Downward failures** (a core's link into the destination pod, or an
//!   aggregation switch's link to the destination edge) need the AB tree's
//!   3-hop detour: bounce *down* to a sibling, *up* to an alternate parent
//!   of the unreachable switch, then down the intended level — replacing one
//!   hop with three.
//!
//! The detoured paths are 2 hops longer and concentrate load on the
//! detour links, which is exactly why the paper's Fig. 1(c) shows F10's CCT
//! degrading *more* than fat-tree's global rerouting under single failures.

use sharebackup_topo::{F10Topology, NodeId};

use crate::flow::FlowKey;

/// F10's local failure recovery over an AB fat-tree.
#[derive(Clone, Copy, Debug, Default)]
pub struct F10Router;

impl F10Router {
    /// Route `flow` under the current failure state using F10's local
    /// rerouting rules. Returns `None` when the flow is unrecoverable (an
    /// endpoint's edge switch or host link is gone).
    pub fn route(f10: &F10Topology, flow: &FlowKey) -> Option<Vec<NodeId>> {
        let s = f10.addr_of(flow.src);
        let d = f10.addr_of(flow.dst);
        let net = &f10.net;
        let se = f10.edge(s.pod, s.edge);
        let de = f10.edge(d.pod, d.edge);

        let usable = |a: NodeId, b: NodeId| -> bool {
            f10.link_between(a, b).is_some_and(|l| net.link_usable(l))
        };
        // Terminal hops have no alternative.
        if !usable(flow.src, se) || !usable(de, flow.dst) {
            return None;
        }
        if se == de {
            return Some(vec![flow.src, se, flow.dst]);
        }

        if s.pod == d.pod {
            // Intra-pod. Locality discipline (the whole point of F10): the
            // switch *adjacent* to the failure repairs it. The edge re-picks
            // its parent only for an upward failure (se→agg or agg dead);
            // a failed agg→de downlink is repaired *below the agg* with the
            // 3-hop detour, never by an upstream re-pick at the edge.
            let half = f10.k() / 2;
            let a_orig = flow.pick(half);
            let agg_orig = f10.agg(s.pod, a_orig);
            let a = if usable(se, agg_orig) {
                a_orig
            } else {
                // Upward failure: the edge (adjacent) picks another parent.
                let alts: Vec<usize> = (0..half)
                    .filter(|&a| usable(se, f10.agg(s.pod, a)))
                    .collect();
                if alts.is_empty() {
                    return None;
                }
                alts[flow.pick_salted(alts.len(), 3)]
            };
            let agg = f10.agg(s.pod, a);
            if usable(agg, de) {
                return Some(vec![flow.src, se, agg, de, flow.dst]);
            }
            // Downward failure at `agg`: 3-hop detour below it — bounce
            // through a sibling edge to an alternate agg that reaches de.
            for e_via in (0..half).filter(|&e| e != s.edge && e != d.edge) {
                let via = f10.edge(s.pod, e_via);
                if !usable(agg, via) {
                    continue;
                }
                for a2 in (0..half).filter(|&x| x != a) {
                    let agg2 = f10.agg(s.pod, a2);
                    if usable(via, agg2) && usable(agg2, de) {
                        return Some(vec![flow.src, se, agg, via, agg2, de, flow.dst]);
                    }
                }
            }
            // No local detour below this agg: fall back to any path.
            return net.bfs_path(flow.src, flow.dst);
        }

        // Cross-pod. Start from the flow's original ECMP intent and repair
        // *locally*: the edge re-picks its agg only if its own uplink (or
        // the agg) died; the agg re-picks its core only if its own uplink
        // (or the core) died. Upward repairs are dilation-free and never
        // touch switches upstream of the failure.
        let half = f10.k() / 2;
        let pick = flow.pick(half * half);
        let (a_orig, m_orig) = (pick / half, pick % half);
        let a = if usable(se, f10.agg(s.pod, a_orig)) {
            a_orig
        } else {
            let alts: Vec<usize> = (0..half)
                .filter(|&a| usable(se, f10.agg(s.pod, a)))
                .collect();
            if alts.is_empty() {
                return None;
            }
            alts[flow.pick_salted(alts.len(), 4)]
        };
        let a1 = f10.agg(s.pod, a);
        let c_orig = f10.core_index(s.pod, a, m_orig);
        let c = if usable(a1, f10.core(c_orig)) {
            c_orig
        } else {
            let alts: Vec<usize> = (0..half)
                .map(|m| f10.core_index(s.pod, a, m))
                .filter(|&c| usable(a1, f10.core(c)))
                .collect();
            if alts.is_empty() {
                // This agg lost all uplinks; the edge (adjacent to a now
                // fully-cut parent) falls back to another agg chain.
                return net.bfs_path(flow.src, flow.dst);
            }
            alts[flow.pick_salted(alts.len(), 5)]
        };
        let core = f10.core(c);

        // Downward from the core into the destination pod.
        let a2_idx = f10.agg_for_core(d.pod, c);
        let a2 = f10.agg(d.pod, a2_idx);
        if usable(core, a2) && usable(a2, de) {
            return Some(vec![flow.src, se, a1, core, a2, de, flow.dst]);
        }

        // Core-level detour: core → via-agg in a third pod → alternate core
        // entering the destination pod at a different agg → dest edge.
        if !usable(core, a2) || !net.node(a2).up {
            let mut candidates = Vec::new();
            for p_via in (0..f10.k()).filter(|&p| p != s.pod && p != d.pod) {
                let via_idx = f10.agg_for_core(p_via, c);
                let via = f10.agg(p_via, via_idx);
                if !usable(core, via) {
                    continue;
                }
                for c2 in (0..half).map(|m| f10.core_index(p_via, via_idx, m)) {
                    if c2 == c {
                        continue;
                    }
                    let core2 = f10.core(c2);
                    if !usable(via, core2) {
                        continue;
                    }
                    let a2b_idx = f10.agg_for_core(d.pod, c2);
                    let a2b = f10.agg(d.pod, a2b_idx);
                    if usable(core2, a2b) && usable(a2b, de) {
                        candidates
                            .push(vec![flow.src, se, a1, core, via, core2, a2b, de, flow.dst]);
                    }
                }
            }
            if !candidates.is_empty() {
                let pick = flow.pick_salted(candidates.len(), 1);
                return Some(candidates.swap_remove(pick));
            }
            return net.bfs_path(flow.src, flow.dst);
        }

        // Aggregation-level detour inside the destination pod: a2 bounces
        // through a sibling edge to an alternate agg that reaches de.
        let mut candidates = Vec::new();
        for e_via in (0..half).filter(|&e| e != d.edge) {
            let via = f10.edge(d.pod, e_via);
            if !usable(a2, via) {
                continue;
            }
            for a2b in (0..half).filter(|&x| x != a2_idx) {
                let agg2 = f10.agg(d.pod, a2b);
                if usable(via, agg2) && usable(agg2, de) {
                    candidates.push(vec![flow.src, se, a1, core, a2, via, agg2, de, flow.dst]);
                }
            }
        }
        if !candidates.is_empty() {
            let pick = flow.pick_salted(candidates.len(), 2);
            return Some(candidates.swap_remove(pick));
        }
        net.bfs_path(flow.src, flow.dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharebackup_topo::{FatTreeConfig, HostAddr};

    fn f10_6() -> F10Topology {
        F10Topology::build(FatTreeConfig::new(6))
    }

    #[test]
    fn healthy_routes_are_shortest() {
        let f10 = f10_6();
        let f = FlowKey::new(
            f10.host(HostAddr {
                pod: 0,
                edge: 0,
                host: 0,
            }),
            f10.host(HostAddr {
                pod: 3,
                edge: 1,
                host: 1,
            }),
            5,
        );
        let p = F10Router::route(&f10, &f).expect("connected");
        assert_eq!(p.len(), 7);
        assert!(f10.net.path_usable(&p));
    }

    #[test]
    fn upward_failure_recovers_without_dilation() {
        let mut f10 = f10_6();
        let src = f10.host(HostAddr {
            pod: 0,
            edge: 0,
            host: 0,
        });
        let dst = f10.host(HostAddr {
            pod: 3,
            edge: 1,
            host: 1,
        });
        // Kill one agg in the source pod: flows re-pick a parent, same length.
        let dead = f10.agg(0, 0);
        f10.net.set_node_up(dead, false);
        for id in 0..32 {
            let p = F10Router::route(&f10, &FlowKey::new(src, dst, id)).expect("connected");
            assert_eq!(p.len(), 7, "upward recovery must not dilate");
            assert!(!p.contains(&dead));
            assert!(f10.net.path_usable(&p));
        }
    }

    #[test]
    fn downward_core_link_failure_takes_three_hop_detour() {
        let mut f10 = f10_6();
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
        // Find the flow's core and cut its link into the destination pod.
        let healthy = F10Router::route(&f10, &FlowKey::new(src, dst, 9)).expect("connected");
        let core = healthy[3];
        let a2 = healthy[4];
        let l = f10.net.link_between(core, a2).expect("core downlink");
        f10.net.set_link_up(l, false);
        let p = F10Router::route(&f10, &FlowKey::new(src, dst, 9)).expect("recoverable");
        assert_eq!(p.len(), 9, "detour adds exactly 2 hops: {p:?}");
        assert!(f10.net.path_usable(&p));
        // The detour still passes through the original core (local repair).
        assert!(p.contains(&core));
    }

    #[test]
    fn downward_agg_edge_link_failure_detours_in_pod() {
        let mut f10 = f10_6();
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
        let healthy = F10Router::route(&f10, &FlowKey::new(src, dst, 3)).expect("connected");
        let a2 = healthy[4];
        let de = healthy[5];
        let l = f10.net.link_between(a2, de).expect("agg downlink");
        f10.net.set_link_up(l, false);
        let p = F10Router::route(&f10, &FlowKey::new(src, dst, 3)).expect("recoverable");
        assert_eq!(p.len(), 9, "in-pod detour adds 2 hops: {p:?}");
        assert!(f10.net.path_usable(&p));
        assert!(p.contains(&a2), "repair happens below the failed hop");
    }

    #[test]
    fn intra_pod_agg_failure_repairs_locally() {
        let mut f10 = f10_6();
        let src = f10.host(HostAddr {
            pod: 2,
            edge: 0,
            host: 0,
        });
        let dst = f10.host(HostAddr {
            pod: 2,
            edge: 2,
            host: 1,
        });
        for a in 0..2 {
            let agg = f10.agg(2, a);
            f10.net.set_node_up(agg, false);
        }
        // One agg left: all flows converge on it, same length.
        for id in 0..8 {
            let p = F10Router::route(&f10, &FlowKey::new(src, dst, id)).expect("connected");
            assert_eq!(p.len(), 5);
            assert_eq!(p[2], f10.agg(2, 2));
        }
    }

    #[test]
    fn upward_agg_core_failure_repairs_at_the_agg_only() {
        // The locality discipline Table 3 depends on: when an agg's uplink
        // dies, the agg picks another core — the path prefix up to and
        // including the agg is unchanged (no upstream repair).
        let mut f10 = f10_6();
        let src = f10.host(HostAddr {
            pod: 0,
            edge: 0,
            host: 0,
        });
        for id in 0..24 {
            let f10_fresh = f10_6();
            let flow = FlowKey::new(
                src,
                f10_fresh.host(HostAddr {
                    pod: 2,
                    edge: 1,
                    host: 1,
                }),
                id,
            );
            let before = F10Router::route(&f10_fresh, &flow).expect("healthy");
            let (a1, core) = (before[2], before[3]);
            let l = f10.net.link_between(a1, core);
            let Some(l) = l else { continue };
            f10.net.set_link_up(l, false);
            let after = F10Router::route(&f10, &flow).expect("recoverable");
            assert_eq!(
                &after[..3],
                &before[..3],
                "prefix through the agg unchanged"
            );
            assert_ne!(after[3], core, "the agg picked another core");
            f10.net.set_link_up(l, true);
        }
    }

    #[test]
    fn edge_failure_is_unrecoverable() {
        let mut f10 = f10_6();
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
        let edge = f10.edge(1, 1);
        f10.net.set_node_up(edge, false);
        assert_eq!(F10Router::route(&f10, &FlowKey::new(src, dst, 0)), None);
    }

    #[test]
    fn same_edge_traffic_untouched_by_fabric_failures() {
        let mut f10 = f10_6();
        let src = f10.host(HostAddr {
            pod: 0,
            edge: 0,
            host: 0,
        });
        let dst = f10.host(HostAddr {
            pod: 0,
            edge: 0,
            host: 2,
        });
        // Kill every agg in the pod: same-edge traffic must not care.
        for a in 0..3 {
            let agg = f10.agg(0, a);
            f10.net.set_node_up(agg, false);
        }
        let p = F10Router::route(&f10, &FlowKey::new(src, dst, 0)).expect("connected");
        assert_eq!(p.len(), 3);
    }
}
