//! Oracles for the path queries routing is built on.
//!
//! * `host_path(i)` computes the `i`-th equal-cost path arithmetically. The
//!   nested-loop enumerations it replaced are kept here, verbatim up to
//!   public accessors, and every host pair at k = 4, 6, 8 must see the same
//!   paths in the same order: flow hashes index into that order.
//! * `bfs_path` answers `None` at once for an endpoint with no usable link.
//!   The full search it short-cuts is kept here and must agree on random
//!   failure sets.
//! * `FatTree::link_between` computes a link id from the build order, and
//!   `usable_paths_into` checks shared path prefixes once. The adjacency
//!   scan (`Network::link_between`) and the per-path check
//!   (`Network::path_usable` on every `host_path`) are their oracles, for
//!   every node pair and under every single node or link failure.

use std::collections::VecDeque;

use proptest::prelude::*;

use sharebackup_topo::{F10Topology, FatTree, FatTreeConfig, LinkId, Network, NodeId};

// ---- The replaced enumerations (oracle) ------------------------------------

fn old_fat_tree_paths(ft: &FatTree, src: NodeId, dst: NodeId) -> Vec<Vec<NodeId>> {
    let half = ft.k() / 2;
    let s = ft.addr_of(src);
    let d = ft.addr_of(dst);
    assert!(src != dst, "src == dst");
    let se = ft.edge(s.pod, s.edge);
    let de = ft.edge(d.pod, d.edge);
    if s.pod == d.pod && s.edge == d.edge {
        return vec![vec![src, se, dst]];
    }
    if s.pod == d.pod {
        return (0..half)
            .map(|a| vec![src, se, ft.agg(s.pod, a), de, dst])
            .collect();
    }
    let mut paths = Vec::with_capacity(half * half);
    for a in 0..half {
        for m in 0..half {
            let core = ft.core(ft.core_index(s.pod, a, m));
            paths.push(vec![
                src,
                se,
                ft.agg(s.pod, a),
                core,
                ft.agg(d.pod, a),
                de,
                dst,
            ]);
        }
    }
    paths
}

fn old_f10_paths(f10: &F10Topology, src: NodeId, dst: NodeId) -> Vec<Vec<NodeId>> {
    let half = f10.k() / 2;
    let s = f10.addr_of(src);
    let d = f10.addr_of(dst);
    assert!(src != dst, "src == dst");
    let se = f10.edge(s.pod, s.edge);
    let de = f10.edge(d.pod, d.edge);
    if s.pod == d.pod && s.edge == d.edge {
        return vec![vec![src, se, dst]];
    }
    if s.pod == d.pod {
        return (0..half)
            .map(|a| vec![src, se, f10.agg(s.pod, a), de, dst])
            .collect();
    }
    let mut paths = Vec::with_capacity(half * half);
    for a in 0..half {
        for c in (0..half).map(|m| f10.core_index(s.pod, a, m)) {
            let da = f10.agg_for_core(d.pod, c);
            paths.push(vec![
                src,
                se,
                f10.agg(s.pod, a),
                f10.core(c),
                f10.agg(d.pod, da),
                de,
                dst,
            ]);
        }
    }
    paths
}

fn old_bfs_path(net: &Network, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
    if src == dst {
        return Some(vec![src]);
    }
    if !net.node(src).up || !net.node(dst).up {
        return None;
    }
    let mut prev: Vec<Option<NodeId>> = vec![None; net.node_count()];
    let mut visited = vec![false; net.node_count()];
    visited[src.index()] = true;
    let mut frontier = VecDeque::new();
    frontier.push_back(src);
    while let Some(cur) = frontier.pop_front() {
        for (next, _link) in net.up_neighbors(cur) {
            if visited[next.index()] {
                continue;
            }
            visited[next.index()] = true;
            prev[next.index()] = Some(cur);
            if next == dst {
                let mut path = vec![dst];
                let mut at = dst;
                while let Some(p) = prev[at.index()] {
                    path.push(p);
                    at = p;
                }
                path.reverse();
                return Some(path);
            }
            frontier.push_back(next);
        }
    }
    None
}

// ---- host_path against the enumeration -------------------------------------

/// Check one topology's indexed paths against its old enumeration for every
/// ordered host pair; every path must also be usable on the healthy graph.
fn check_all_pairs(
    net: &Network,
    hosts: &[NodeId],
    count: impl Fn(NodeId, NodeId) -> usize,
    path: impl Fn(NodeId, NodeId, usize) -> Vec<NodeId>,
    path_into: impl Fn(NodeId, NodeId, usize, &mut Vec<NodeId>),
    paths: impl Fn(NodeId, NodeId) -> Vec<Vec<NodeId>>,
    oracle: impl Fn(NodeId, NodeId) -> Vec<Vec<NodeId>>,
) {
    // Seeded with junk so a missing `clear` shows.
    let mut buf = vec![NodeId(u32::MAX); 9];
    for &src in hosts {
        for &dst in hosts {
            if src == dst {
                continue;
            }
            let expect = oracle(src, dst);
            assert_eq!(count(src, dst), expect.len(), "{src:?} -> {dst:?}");
            assert_eq!(paths(src, dst), expect, "{src:?} -> {dst:?}");
            for (i, p) in expect.iter().enumerate() {
                assert_eq!(&path(src, dst, i), p, "{src:?} -> {dst:?} path {i}");
                path_into(src, dst, i, &mut buf);
                assert_eq!(&buf, p, "{src:?} -> {dst:?} path {i} (into)");
                assert!(net.path_usable(p), "unusable path {p:?}");
            }
        }
    }
}

#[test]
fn fat_tree_host_path_matches_enumeration_for_every_pair() {
    for k in [4, 6, 8] {
        let ft = FatTree::build(FatTreeConfig::new(k));
        check_all_pairs(
            &ft.net,
            ft.hosts(),
            |s, d| ft.host_path_count(s, d),
            |s, d, i| ft.host_path(s, d, i),
            |s, d, i, out| ft.host_path_into(s, d, i, out),
            |s, d| ft.host_paths(s, d),
            |s, d| old_fat_tree_paths(&ft, s, d),
        );
    }
}

#[test]
fn f10_host_path_matches_enumeration_for_every_pair() {
    for k in [4, 6, 8] {
        let f10 = F10Topology::build(FatTreeConfig::new(k));
        check_all_pairs(
            &f10.net,
            f10.hosts(),
            |s, d| f10.host_path_count(s, d),
            |s, d, i| f10.host_path(s, d, i),
            |s, d, i, out| f10.host_path_into(s, d, i, out),
            |s, d| f10.host_paths(s, d),
            |s, d| old_f10_paths(&f10, s, d),
        );
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn host_path_rejects_an_index_past_the_count() {
    let ft = FatTree::build(FatTreeConfig::new(4));
    let (a, b) = (ft.hosts()[0], ft.hosts()[2]);
    ft.host_path(a, b, ft.host_path_count(a, b));
}

// ---- link ids and usable paths against the adjacency scan ------------------

/// Both stripings of a k-ary tree: `FatTree::build` and the AB tree.
fn both_trees(k: usize) -> [FatTree; 2] {
    let cfg = FatTreeConfig::new(k);
    [FatTree::build(cfg), (*F10Topology::build(cfg)).clone()]
}

#[test]
fn link_between_matches_the_adjacency_scan_for_every_node_pair() {
    for k in [4, 6] {
        for ft in both_trees(k) {
            for u in ft.net.node_ids() {
                for v in ft.net.node_ids() {
                    let expect = ft.net.link_between(u, v);
                    assert_eq!(ft.link_between(u, v), expect, "k={k} {u:?}-{v:?}");
                }
            }
        }
    }
}

/// `usable_paths_into` against `path_usable` on every path, for each
/// ordered pair in `pairs`, under no failure, then each single node
/// failure, then each single link failure.
fn check_usable_paths(ft: &mut FatTree, pairs: &[(NodeId, NodeId)]) {
    let mut got = vec![usize::MAX; 3]; // junk, so a missing `clear` shows
    let mut check = |ft: &FatTree, failed: &str| {
        for &(src, dst) in pairs {
            let mut expect = Vec::new();
            for (i, p) in ft.host_paths(src, dst).iter().enumerate() {
                let usable = ft.net.path_usable(p);
                assert_eq!(ft.path_usable(p), usable, "{p:?}, {failed} down");
                if usable {
                    expect.push(i);
                }
            }
            ft.usable_paths_into(src, dst, &mut got);
            assert_eq!(got, expect, "{src:?} -> {dst:?}, {failed} down");
        }
    };
    check(ft, "nothing");
    for n in ft.net.node_ids().collect::<Vec<_>>() {
        ft.net.set_node_up(n, false);
        check(ft, &format!("{n:?}"));
        ft.net.set_node_up(n, true);
    }
    for l in ft.net.link_ids().collect::<Vec<_>>() {
        ft.net.set_link_up(l, false);
        check(ft, &format!("{l:?}"));
        ft.net.set_link_up(l, true);
    }
}

#[test]
fn usable_paths_match_path_usable_for_every_pair_at_k4() {
    for mut ft in both_trees(4) {
        let hosts = ft.hosts().to_vec();
        let pairs: Vec<_> = hosts
            .iter()
            .flat_map(|&s| hosts.iter().map(move |&d| (s, d)))
            .filter(|(s, d)| s != d)
            .collect();
        check_usable_paths(&mut ft, &pairs);
    }
}

#[test]
fn usable_paths_match_path_usable_for_sampled_pairs_at_k6() {
    // A stride through the ordered pairs reaches same-edge and same-pod
    // pairs, and cross-pod pairs of all four pod-type combinations.
    for mut ft in both_trees(6) {
        let hosts = ft.hosts().to_vec();
        let pairs: Vec<_> = (0..hosts.len() * hosts.len())
            .step_by(89)
            .map(|i| (hosts[i / hosts.len()], hosts[i % hosts.len()]))
            .filter(|(s, d)| s != d)
            .collect();
        check_usable_paths(&mut ft, &pairs);
    }
}

// ---- bfs_path against the full search ---------------------------------------

#[test]
fn bfs_path_is_none_for_an_isolated_endpoint() {
    let mut ft = FatTree::build(FatTreeConfig::new(4));
    let a = ft.hosts()[0];
    let b = ft.hosts()[15];
    // Host link down: the host itself is up but reaches nothing.
    let l = ft.net.incident(a)[0];
    ft.net.set_link_up(l, false);
    assert_eq!(ft.net.bfs_path(a, b), None);
    assert_eq!(ft.net.bfs_path(b, a), None);
    assert_eq!(ft.net.bfs_path(a, a), Some(vec![a]));
    ft.net.set_link_up(l, true);
    assert!(ft.net.bfs_path(a, b).is_some());
    // Edge switch down: both of its hosts are cut off.
    let edge = ft.edge(3, 1);
    ft.net.set_node_up(edge, false);
    assert_eq!(ft.net.bfs_path(a, b), None);
    assert_eq!(ft.net.bfs_path(b, a), None);
    // A switch that is up but has every link down is isolated too.
    let agg = ft.agg(1, 0);
    for &l in ft.net.incident(agg).to_vec().iter() {
        ft.net.set_link_up(l, false);
    }
    assert_eq!(ft.net.bfs_path(agg, a), None);
    assert_eq!(ft.net.bfs_path(ft.core(0), agg), None);
}

fn ks() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![4usize, 6, 8])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bfs_path_matches_the_full_search(
        k in ks(),
        f10 in any::<bool>(),
        nodes in prop::collection::vec(0usize..100_000, 0..12),
        links in prop::collection::vec(0usize..100_000, 0..24),
        pairs in prop::collection::vec((0usize..100_000, 0usize..100_000), 1..32),
    ) {
        let cfg = FatTreeConfig::new(k);
        let mut net = if f10 { F10Topology::build(cfg).net.clone() } else { FatTree::build(cfg).net };
        for &n in &nodes {
            net.set_node_up(NodeId::from_index(n % net.node_count()), false);
        }
        for &l in &links {
            net.set_link_up(LinkId::from_index(l % net.link_count()), false);
        }
        // Any node pair: hosts, switches, down nodes and src == dst included.
        for &(a, b) in &pairs {
            let src = NodeId::from_index(a % net.node_count());
            let dst = NodeId::from_index(b % net.node_count());
            prop_assert_eq!(net.bfs_path(src, dst), old_bfs_path(&net, src, dst));
        }
    }
}
