//! Live impersonation of failed switches (paper §4.3).
//!
//! When a backup switch replaces a failed switch on the physical layer it
//! must *impersonate* it on the control plane — forward exactly as the
//! failed switch would have. To avoid any rule-installation delay, every
//! member of a failure group preloads a **merged table** covering all the
//! group's positions:
//!
//! * **Core groups** and **aggregation groups**: all positions share one
//!   identical table already (all cores forward alike; all aggs of a pod
//!   forward alike), so the merged table *is* that single table.
//! * **Edge groups**: positions differ in which hosts are local. The merged
//!   table keeps one copy of the k/2 *in-bound* suffix entries (deliver to
//!   host port) and VLAN-differentiated *out-bound* entries: each edge
//!   position gets a VLAN id, hosts tag outgoing packets with their edge's
//!   VLAN, and the entry `(VLAN j, suffix h) → uplink` reproduces position
//!   j's upward diffusion. Total: k/2 + k²/4 entries — 1056 at k=64, well
//!   within commodity TCAM.

use sharebackup_topo::HostAddr;

use crate::twolevel::{NextHop, SwitchTable, TwoLevelTables};

/// The merged table of an aggregation or core failure group: a single
/// shared [`SwitchTable`] (all group positions forward identically).
#[derive(Clone, Debug)]
pub struct SharedTable {
    /// The one table every member preloads.
    pub table: SwitchTable,
}

/// One VLAN-differentiated out-bound entry of an edge group's merged table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OutboundEntry {
    /// VLAN id = the edge position whose behaviour this entry reproduces.
    pub vlan: usize,
    /// Destination host suffix matched.
    pub suffix: usize,
    /// Uplink to take.
    pub up: usize,
}

/// The merged, VLAN-differentiated table of one pod's edge failure group.
#[derive(Clone, Debug)]
pub struct EdgeGroupTable {
    /// The pod this group serves.
    pub pod: usize,
    /// In-bound: suffix `h` → host port `h` (shared by all positions).
    pub inbound: Vec<usize>,
    /// Out-bound: `(vlan, suffix) → uplink`.
    pub outbound: Vec<OutboundEntry>,
}

impl EdgeGroupTable {
    /// Build the merged table for `pod` from the canonical two-level tables.
    pub fn build(tables: &TwoLevelTables, pod: usize) -> EdgeGroupTable {
        let k = tables.k();
        let half = k / 2;
        let inbound = (0..half).collect();
        let mut outbound = Vec::with_capacity(half * half);
        for vlan in 0..half {
            for suffix in 0..half {
                // Position `vlan`'s upward diffusion for this suffix. Any
                // non-local destination uses the suffix entry; probe with a
                // foreign pod.
                let probe = HostAddr {
                    pod: (pod + 1) % k,
                    edge: 0,
                    host: suffix,
                };
                let up = match tables.edge_next(pod, vlan, probe) {
                    NextHop::Up(m) => m,
                    other => unreachable!("foreign dst must go up, got {other:?}"),
                };
                outbound.push(OutboundEntry { vlan, suffix, up });
            }
        }
        EdgeGroupTable {
            pod,
            inbound,
            outbound,
        }
    }

    /// Total TCAM entries: `k/2 + k²/4` (paper §4.3).
    pub fn entry_count(&self) -> usize {
        self.inbound.len() + self.outbound.len()
    }

    /// Forward a packet. `vlan` is `Some(j)` for packets tagged by a host
    /// attached to edge position `j`, `None` for packets arriving from the
    /// fabric above (in-bound traffic).
    ///
    /// Works identically on every member of the group — that is the whole
    /// point of impersonation.
    pub fn lookup(&self, vlan: Option<usize>, dst: HostAddr) -> NextHop {
        match vlan {
            None => {
                // In-bound: routing above already delivered to the right
                // edge; deliver by suffix.
                NextHop::HostPort(self.inbound[dst.host])
            }
            Some(v) => {
                if dst.pod == self.pod && dst.edge == v {
                    // Host-to-host under the same edge position.
                    return NextHop::HostPort(self.inbound[dst.host]);
                }
                #[expect(
                    clippy::expect_used,
                    reason = "build() populates every (vlan, suffix) pair"
                )]
                let e = self
                    .outbound
                    .iter()
                    .find(|e| e.vlan == v && e.suffix == dst.host)
                    .expect("outbound entry exists for every (vlan, suffix)");
                NextHop::Up(e.up)
            }
        }
    }
}

/// The full preload set of a ShareBackup fat-tree: what every physical
/// switch of each failure group stores.
#[derive(Clone, Debug)]
pub struct GroupTables {
    /// Canonical per-position tables.
    pub tables: TwoLevelTables,
    /// One merged edge table per pod.
    pub edge_groups: Vec<EdgeGroupTable>,
}

impl GroupTables {
    /// Build all merged tables for a fat-tree of parameter `k`.
    pub fn build(k: usize) -> GroupTables {
        let tables = TwoLevelTables::build(k);
        let edge_groups = (0..k)
            .map(|pod| EdgeGroupTable::build(&tables, pod))
            .collect();
        GroupTables {
            tables,
            edge_groups,
        }
    }

    /// Merged table of pod `pod`'s edge group.
    pub fn edge_group(&self, pod: usize) -> &EdgeGroupTable {
        &self.edge_groups[pod]
    }

    /// Merged (shared) table of pod `pod`'s aggregation group.
    pub fn agg_group(&self, pod: usize) -> SharedTable {
        SharedTable {
            table: self.tables.agg_table(pod).clone(),
        }
    }

    /// Merged (shared) table of every core group.
    pub fn core_group(&self) -> SharedTable {
        SharedTable {
            table: self.tables.core_table().clone(),
        }
    }

    /// The paper's TCAM headline number: merged edge-group entry count.
    pub fn edge_entry_count(k: usize) -> usize {
        k / 2 + k * k / 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_count_matches_paper_formula_and_headline() {
        // §4.3: "the table contains 1056 entries for a k=64 fat-tree".
        assert_eq!(GroupTables::edge_entry_count(64), 1056);
        let gt = GroupTables::build(8);
        assert_eq!(gt.edge_group(0).entry_count(), 4 + 16);
        assert_eq!(
            gt.edge_group(0).entry_count(),
            GroupTables::edge_entry_count(8)
        );
    }

    #[test]
    fn merged_table_reproduces_every_position() {
        let k = 8;
        let gt = GroupTables::build(k);
        let half = k / 2;
        for pod in 0..k {
            let merged = gt.edge_group(pod);
            for j in 0..half {
                // Out-bound behaviour: every possible destination.
                for dpod in 0..k {
                    for dedge in 0..half {
                        for dhost in 0..half {
                            let dst = HostAddr {
                                pod: dpod,
                                edge: dedge,
                                host: dhost,
                            };
                            let want = gt.tables.edge_next(pod, j, dst);
                            let got = merged.lookup(Some(j), dst);
                            assert_eq!(got, want, "pod {pod} vlan {j} dst {dst:?}");
                        }
                    }
                }
                // In-bound behaviour: local deliveries.
                for dhost in 0..half {
                    let dst = HostAddr {
                        pod,
                        edge: j,
                        host: dhost,
                    };
                    assert_eq!(merged.lookup(None, dst), NextHop::HostPort(dhost));
                }
            }
        }
    }

    #[test]
    fn agg_and_core_groups_share_single_tables() {
        let gt = GroupTables::build(8);
        let agg = gt.agg_group(2);
        assert_eq!(agg.table, *gt.tables.agg_table(2));
        let core = gt.core_group();
        assert_eq!(core.table, *gt.tables.core_table());
    }

    #[test]
    fn impersonation_is_position_independent() {
        // The merged table never mentions physical identity: two "devices"
        // given the same table answer identically, by construction. This
        // test pins the observable: lookups depend only on (vlan, dst).
        let gt = GroupTables::build(4);
        let t1 = gt.edge_group(1).clone();
        let t2 = gt.edge_group(1).clone();
        for v in 0..2 {
            for pod in 0..4 {
                for e in 0..2 {
                    for h in 0..2 {
                        let dst = HostAddr {
                            pod,
                            edge: e,
                            host: h,
                        };
                        assert_eq!(t1.lookup(Some(v), dst), t2.lookup(Some(v), dst));
                    }
                }
            }
        }
    }

    #[test]
    fn vlan_disambiguates_conflicting_positions() {
        // dst (pod 0, edge 0, host 1): local for VLAN 0, upward for VLAN 1.
        let gt = GroupTables::build(4);
        let merged = gt.edge_group(0);
        let dst = HostAddr {
            pod: 0,
            edge: 0,
            host: 1,
        };
        assert_eq!(merged.lookup(Some(0), dst), NextHop::HostPort(1));
        assert!(matches!(merged.lookup(Some(1), dst), NextHop::Up(_)));
    }
}
