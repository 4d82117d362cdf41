//! ECMP and global rerouting build only the path they return, indexing the
//! topology's path order directly. This file keeps the enumerate-then-pick
//! implementations they replaced, verbatim, as the oracle: under random node
//! and link failure sets every routing function must return exactly what the
//! old code returned.

use std::collections::BTreeMap;

use proptest::prelude::*;

use sharebackup_routing::{ecmp_path, FlowKey, GlobalReroute};
use sharebackup_topo::{F10Topology, FatTree, FatTreeConfig, LinkId, Network, NodeId};

// ---- The replaced implementations (oracle) --------------------------------

fn old_ecmp_path(ft: &FatTree, flow: &FlowKey) -> Vec<NodeId> {
    let paths = ft.host_paths(flow.src, flow.dst);
    let pick = flow.pick(paths.len());
    paths.into_iter().nth(pick).expect("pick is in range")
}

fn old_ecmp_path_f10(f10: &F10Topology, flow: &FlowKey) -> Vec<NodeId> {
    let paths = f10.host_paths(flow.src, flow.dst);
    let pick = flow.pick(paths.len());
    paths.into_iter().nth(pick).expect("pick is in range")
}

fn old_surviving_paths(ft: &FatTree, flow: &FlowKey) -> Vec<Vec<NodeId>> {
    ft.host_paths(flow.src, flow.dst)
        .into_iter()
        .filter(|p| ft.net.path_usable(p))
        .collect()
}

fn old_route(ft: &FatTree, flow: &FlowKey) -> Option<Vec<NodeId>> {
    let paths = old_surviving_paths(ft, flow);
    if paths.is_empty() {
        return ft.net.bfs_path(flow.src, flow.dst);
    }
    let pick = flow.pick(paths.len());
    paths.into_iter().nth(pick)
}

fn old_route_all(ft: &FatTree, flows: &[FlowKey]) -> Vec<Option<Vec<NodeId>>> {
    let mut load: BTreeMap<LinkId, u64> = BTreeMap::new();
    let mut out = Vec::with_capacity(flows.len());
    for flow in flows {
        let mut candidates = old_surviving_paths(ft, flow);
        if candidates.is_empty() {
            if let Some(p) = ft.net.bfs_path(flow.src, flow.dst) {
                candidates = vec![p];
            } else {
                out.push(None);
                continue;
            }
        }
        let links_of = |p: &[NodeId]| -> Vec<LinkId> {
            p.windows(2)
                .map(|w| ft.net.link_between(w[0], w[1]).expect("path link"))
                .collect()
        };
        let mut best: Option<(u64, u64, usize)> = None;
        for (i, p) in candidates.iter().enumerate() {
            let links = links_of(p);
            let max = links
                .iter()
                .map(|l| load.get(l).copied().unwrap_or(0) + 1)
                .max()
                .unwrap_or(0);
            let sum: u64 = links
                .iter()
                .map(|l| load.get(l).copied().unwrap_or(0))
                .sum();
            let key = (max, sum, i);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        let (_, _, idx) = best.expect("candidates nonempty");
        let chosen = candidates.swap_remove(idx);
        for l in links_of(&chosen) {
            *load.entry(l).or_insert(0) += 1;
        }
        out.push(Some(chosen));
    }
    out
}

// ---- Inputs ----------------------------------------------------------------

fn ks() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![4usize, 6, 8])
}

/// Flows between host indices drawn from `draws`, skipping `src == dst`.
fn flows_from(hosts: &[NodeId], draws: &[(usize, usize, u64)]) -> Vec<FlowKey> {
    draws
        .iter()
        .map(|&(a, b, id)| (hosts[a % hosts.len()], hosts[b % hosts.len()], id))
        .filter(|(s, d, _)| s != d)
        .map(|(s, d, id)| FlowKey::new(s, d, id))
        .collect()
}

/// Mark the drawn nodes and links down. Draws are taken modulo the node and
/// link counts, so any node (hosts and edge switches included) and any link
/// can fail.
fn fail(net: &mut Network, nodes: &[usize], links: &[usize]) {
    for &n in nodes {
        net.set_node_up(NodeId::from_index(n % net.node_count()), false);
    }
    for &l in links {
        net.set_link_up(LinkId::from_index(l % net.link_count()), false);
    }
}

fn flow_draws() -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    prop::collection::vec((0usize..1024, 0usize..1024, 0u64..100_000), 1..48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fat_tree_routing_matches_enumerate_then_pick(
        k in ks(),
        nodes in prop::collection::vec(0usize..100_000, 0..12),
        links in prop::collection::vec(0usize..100_000, 0..24),
        draws in flow_draws(),
    ) {
        let mut ft = FatTree::build(FatTreeConfig::new(k));
        fail(&mut ft.net, &nodes, &links);
        let flows = flows_from(ft.hosts(), &draws);
        for flow in &flows {
            prop_assert_eq!(ecmp_path(&ft, flow), old_ecmp_path(&ft, flow));
            prop_assert_eq!(GlobalReroute::route(&ft, flow), old_route(&ft, flow));
        }
        prop_assert_eq!(GlobalReroute::route_all(&ft, &flows), old_route_all(&ft, &flows));
    }

    #[test]
    fn f10_ecmp_matches_enumerate_then_pick(
        k in ks(),
        nodes in prop::collection::vec(0usize..100_000, 0..12),
        links in prop::collection::vec(0usize..100_000, 0..24),
        draws in flow_draws(),
    ) {
        let mut f10 = F10Topology::build(FatTreeConfig::new(k));
        fail(&mut f10.net, &nodes, &links);
        for flow in &flows_from(f10.hosts(), &draws) {
            prop_assert_eq!(ecmp_path(&f10, flow), old_ecmp_path_f10(&f10, flow));
        }
    }
}

/// Heavy load on one pair: `route_all` must break ties exactly as the old
/// candidate-position order did, including after the survivors thin out.
#[test]
fn route_all_tie_breaks_match_on_a_crowded_pair() {
    for k in [4, 6, 8] {
        let mut ft = FatTree::build(FatTreeConfig::new(k));
        let (src, dst) = (ft.hosts()[0], ft.hosts()[ft.hosts().len() - 1]);
        let flows: Vec<FlowKey> = (0..3 * k as u64)
            .map(|id| FlowKey::new(src, dst, id))
            .collect();
        assert_eq!(
            GlobalReroute::route_all(&ft, &flows),
            old_route_all(&ft, &flows)
        );
        ft.net.set_node_up(ft.core(1), false);
        ft.net.set_node_up(ft.agg(0, 0), false);
        assert_eq!(
            GlobalReroute::route_all(&ft, &flows),
            old_route_all(&ft, &flows)
        );
    }
}
