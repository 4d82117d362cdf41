//! Two-Level Routing of Al-Fares et al. (SIGCOMM'08 §4): the pre-defined
//! per-switch tables fat-tree forwards with, and which ShareBackup's live
//! impersonation (paper §4.3) preloads into every failure-group member.
//!
//! Each switch holds *prefix* entries (longest-prefix matches on
//! `(pod, edge)` steering traffic downward) and *suffix* entries (matches on
//! the host index spreading upward traffic across uplinks). This module
//! represents both and walks packets hop by hop; the resulting paths are the
//! same shapes [`sharebackup_topo::FatTree::host_paths`] enumerates.

use sharebackup_topo::{FatTree, HostAddr, NodeId, NodeKind};

/// A forwarding decision at one switch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NextHop {
    /// Deliver to the host on this port (edge switches only).
    HostPort(usize),
    /// Forward down to edge switch `j` of the destination pod.
    ToEdge(usize),
    /// Forward down into pod `pod` (core switches).
    ToPod(usize),
    /// Forward up on uplink `m`.
    Up(usize),
}

/// One prefix (downward) routing entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PrefixEntry {
    /// Destination pod matched by this entry.
    pub pod: usize,
    /// Destination edge matched, or `None` for a pod-wide match.
    pub edge: Option<usize>,
    /// Action.
    pub next: NextHop,
}

/// One suffix (upward, traffic-diffusing) routing entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SuffixEntry {
    /// Destination host index matched (the address suffix).
    pub host: usize,
    /// Uplink to take.
    pub up: usize,
}

/// The routing table of a single switch position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwitchTable {
    /// Downward entries, longest-prefix-first.
    pub prefixes: Vec<PrefixEntry>,
    /// Upward entries (checked when no prefix matches).
    pub suffixes: Vec<SuffixEntry>,
}

impl SwitchTable {
    /// Total installed entries.
    pub fn entry_count(&self) -> usize {
        self.prefixes.len() + self.suffixes.len()
    }

    /// Look up the next hop for `dst`. Returns `None` if the table has no
    /// matching entry (a build bug, not a runtime condition).
    pub fn lookup(&self, dst: HostAddr) -> Option<NextHop> {
        // Longest prefix first: (pod, edge) entries, then pod-wide entries.
        let specific = self
            .prefixes
            .iter()
            .find(|e| e.pod == dst.pod && e.edge == Some(dst.edge));
        if let Some(e) = specific {
            return Some(e.next);
        }
        let podwide = self
            .prefixes
            .iter()
            .find(|e| e.pod == dst.pod && e.edge.is_none());
        if let Some(e) = podwide {
            return Some(e.next);
        }
        self.suffixes
            .iter()
            .find(|e| e.host == dst.host)
            .map(|e| NextHop::Up(e.up))
    }
}

/// The complete Two-Level Routing state of a fat-tree: one table per switch
/// position (slot), computed once from `k` — the tables are what ShareBackup
/// preloads into backups, so they must not depend on which physical switch
/// occupies a slot.
#[derive(Clone, Debug)]
pub struct TwoLevelTables {
    k: usize,
    /// `edge_tables[pod][j]`.
    edge_tables: Vec<Vec<SwitchTable>>,
    /// `agg_tables[pod]` — identical for every agg in the pod (paper §4.3).
    agg_tables: Vec<SwitchTable>,
    /// One table shared by *all* cores (paper §4.3).
    core_table: SwitchTable,
}

impl TwoLevelTables {
    /// Build the tables for a fat-tree with parameter `k`.
    pub fn build(k: usize) -> TwoLevelTables {
        assert!(k >= 4 && k.is_multiple_of(2), "k must be even and >= 4");
        let half = k / 2;

        // Edge switch (pod i, index j): local hosts by (pod, edge) prefix →
        // host port; everything else up by host-suffix diffusion.
        let mut edge_tables = Vec::with_capacity(k);
        for pod in 0..k {
            let mut pod_tables = Vec::with_capacity(half);
            for j in 0..half {
                let prefixes = (0..1)
                    .map(|_| PrefixEntry {
                        pod,
                        edge: Some(j),
                        next: NextHop::HostPort(usize::MAX), // resolved per host
                    })
                    .collect::<Vec<_>>();
                // Suffix diffusion: dst host index h → uplink (h + j) % k/2;
                // the +j skew is Al-Fares' per-switch offset that spreads
                // same-suffix traffic across aggs.
                let suffixes = (0..half)
                    .map(|h| SuffixEntry {
                        host: h,
                        up: (h + j) % half,
                    })
                    .collect();
                pod_tables.push(SwitchTable { prefixes, suffixes });
            }
            edge_tables.push(pod_tables);
        }

        // Aggregation switch (pod i, any index): (pod, e) → edge e;
        // otherwise up by suffix diffusion (h → core uplink h).
        let agg_tables = (0..k)
            .map(|pod| {
                let prefixes = (0..half)
                    .map(|e| PrefixEntry {
                        pod,
                        edge: Some(e),
                        next: NextHop::ToEdge(e),
                    })
                    .collect();
                let suffixes = (0..half)
                    .map(|h| SuffixEntry { host: h, up: h })
                    .collect();
                SwitchTable { prefixes, suffixes }
            })
            .collect();

        // Core switch: pod-wide prefix per pod.
        let core_table = SwitchTable {
            prefixes: (0..k)
                .map(|pod| PrefixEntry {
                    pod,
                    edge: None,
                    next: NextHop::ToPod(pod),
                })
                .collect(),
            suffixes: Vec::new(),
        };

        TwoLevelTables {
            k,
            edge_tables,
            agg_tables,
            core_table,
        }
    }

    /// Fat-tree parameter.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The table shared by all aggregation positions of `pod`.
    pub fn agg_table(&self, pod: usize) -> &SwitchTable {
        &self.agg_tables[pod]
    }

    /// The table shared by all core positions.
    pub fn core_table(&self) -> &SwitchTable {
        &self.core_table
    }

    /// Forwarding decision at edge E_{pod,j} for a packet to `dst`.
    pub fn edge_next(&self, pod: usize, j: usize, dst: HostAddr) -> NextHop {
        if dst.pod == pod && dst.edge == j {
            return NextHop::HostPort(dst.host);
        }
        match self.edge_tables[pod][j].lookup(dst) {
            Some(NextHop::HostPort(_)) | None => {
                // Prefix matched but dst is not local (different pod/edge):
                // fall through to suffix diffusion.
                let half = self.k / 2;
                NextHop::Up((dst.host + j) % half)
            }
            Some(other) => other,
        }
    }

    /// Forwarding decision at any aggregation switch of `pod`.
    pub fn agg_next(&self, pod: usize, dst: HostAddr) -> NextHop {
        if dst.pod == pod {
            NextHop::ToEdge(dst.edge)
        } else {
            NextHop::Up(dst.host % (self.k / 2))
        }
    }

    /// Forwarding decision at any core switch.
    pub fn core_next(&self, dst: HostAddr) -> NextHop {
        NextHop::ToPod(dst.pod)
    }

    /// Walk a packet from `src` to `dst` through the tables, returning the
    /// full node path. This is the *table-driven* path; the simulators use
    /// flow-hash ECMP over the equal-cost set instead, but both must agree
    /// on shape (asserted in tests).
    pub fn forward_path(&self, ft: &FatTree, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let half = self.k / 2;
        let s = ft.addr_of(src);
        let d = ft.addr_of(dst);
        let mut path = vec![src];
        let mut at = ft.edge(s.pod, s.edge);
        path.push(at);
        loop {
            let node = ft.net.node(at);
            let next = match node.kind {
                NodeKind::Edge => {
                    #[expect(clippy::expect_used, reason = "edge nodes are built with a pod")]
                    let pod = node.pod.expect("edge has pod");
                    self.edge_next(pod, node.index, d)
                }
                NodeKind::Agg => {
                    #[expect(clippy::expect_used, reason = "agg nodes are built with a pod")]
                    let pod = node.pod.expect("agg has pod");
                    self.agg_next(pod, d)
                }
                NodeKind::Core => self.core_next(d),
                NodeKind::Host => unreachable!("hosts do not forward"),
            };
            at = match next {
                NextHop::HostPort(_) => {
                    path.push(dst);
                    return path;
                }
                #[expect(clippy::expect_used, reason = "only in-pod switches yield ToEdge/Up")]
                NextHop::ToEdge(e) => ft.edge(node.pod.expect("in pod"), e),
                NextHop::Up(m) => match node.kind {
                    #[expect(clippy::expect_used, reason = "only in-pod switches yield ToEdge/Up")]
                    NodeKind::Edge => ft.agg(node.pod.expect("in pod"), m),
                    NodeKind::Agg => ft.core(node.index * half + m),
                    _ => unreachable!("only edge/agg go up"),
                },
                NextHop::ToPod(p) => {
                    // Core index c = a·k/2 + m connects to agg a of pod p.
                    ft.agg(p, node.index / half)
                }
            };
            path.push(at);
            assert!(path.len() <= 8, "forwarding loop: {path:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharebackup_topo::FatTreeConfig;

    #[test]
    fn entry_counts_are_small() {
        let t = TwoLevelTables::build(16);
        assert_eq!(t.edge_tables[0][0].entry_count(), 1 + 8);
        assert_eq!(t.agg_table(0).entry_count(), 8 + 8);
        assert_eq!(t.core_table().entry_count(), 16);
    }

    #[test]
    fn table_paths_reach_every_destination() {
        let ft = FatTree::build(FatTreeConfig::new(4));
        let t = TwoLevelTables::build(4);
        let hosts = ft.hosts().to_vec();
        for &src in &hosts {
            for &dst in &hosts {
                if src == dst {
                    continue;
                }
                let path = t.forward_path(&ft, src, dst);
                assert_eq!(*path.first().expect("nonempty"), src);
                assert_eq!(*path.last().expect("nonempty"), dst);
                assert!(
                    ft.net.path_usable(&path),
                    "table path not a real path: {path:?}"
                );
            }
        }
    }

    #[test]
    fn table_paths_have_ecmp_shape() {
        let ft = FatTree::build(FatTreeConfig::new(6));
        let t = TwoLevelTables::build(6);
        let same_edge = t.forward_path(
            &ft,
            ft.host(HostAddr { pod: 0, edge: 0, host: 0 }),
            ft.host(HostAddr { pod: 0, edge: 0, host: 2 }),
        );
        assert_eq!(same_edge.len(), 3);
        let same_pod = t.forward_path(
            &ft,
            ft.host(HostAddr { pod: 0, edge: 0, host: 0 }),
            ft.host(HostAddr { pod: 0, edge: 1, host: 0 }),
        );
        assert_eq!(same_pod.len(), 5);
        let cross = t.forward_path(
            &ft,
            ft.host(HostAddr { pod: 0, edge: 0, host: 0 }),
            ft.host(HostAddr { pod: 5, edge: 2, host: 1 }),
        );
        assert_eq!(cross.len(), 7);
    }

    #[test]
    fn suffix_diffusion_spreads_traffic() {
        // Two destinations with different host suffixes leave an edge switch
        // on different uplinks.
        let t = TwoLevelTables::build(8);
        let ups: Vec<NextHop> = (0..4)
            .map(|h| t.edge_next(0, 0, HostAddr { pod: 5, edge: 0, host: h }))
            .collect();
        let distinct: std::collections::BTreeSet<_> =
            ups.iter().map(|n| format!("{n:?}")).collect();
        assert_eq!(distinct.len(), 4, "diffusion must use all uplinks: {ups:?}");
    }

    #[test]
    fn edge_offset_diffuses_same_suffix_across_switches() {
        // The +j skew: the same destination suffix leaves different edge
        // switches on different uplinks (Al-Fares' diffusion optimization).
        let t = TwoLevelTables::build(8);
        let dst = HostAddr { pod: 5, edge: 0, host: 2 };
        let per_switch: std::collections::BTreeSet<_> = (0..4)
            .map(|j| format!("{:?}", t.edge_next(0, j, dst)))
            .collect();
        assert_eq!(per_switch.len(), 4);
    }

    #[test]
    fn aggregation_tables_identical_within_pod() {
        // Paper §4.3 relies on this: all aggs of a pod share one table.
        let t = TwoLevelTables::build(8);
        let reference = t.agg_table(3);
        // agg_next is the pod-level function — verify it only depends on pod.
        for dst_pod in 0..8 {
            let dst = HostAddr { pod: dst_pod, edge: 1, host: 3 };
            let n = t.agg_next(3, dst);
            if dst_pod == 3 {
                assert_eq!(n, NextHop::ToEdge(1));
            } else {
                assert_eq!(n, NextHop::Up(3));
            }
        }
        assert_eq!(reference.prefixes.len(), 4);
    }

    #[test]
    fn core_table_is_universal() {
        let t = TwoLevelTables::build(8);
        for pod in 0..8 {
            let dst = HostAddr { pod, edge: 0, host: 0 };
            assert_eq!(t.core_next(dst), NextHop::ToPod(pod));
        }
    }

    #[test]
    fn local_delivery_beats_suffix_match() {
        let t = TwoLevelTables::build(4);
        let here = HostAddr { pod: 1, edge: 1, host: 0 };
        assert_eq!(t.edge_next(1, 1, here), NextHop::HostPort(0));
        // Same suffix, different edge: must go up, not deliver.
        let elsewhere = HostAddr { pod: 1, edge: 0, host: 0 };
        assert!(matches!(t.edge_next(1, 1, elsewhere), NextHop::Up(_)));
    }
}
