//! Rack-to-host mapping: the paper maps the 150-rack trace onto a k=16
//! fat-tree "with the same oversubscription ratio at the edge switches".
//! A rack corresponds to an edge switch; a rack's traffic endpoints spread
//! over the hosts under that edge.

#![allow(clippy::cast_possible_truncation)] // bounded rack/salt arithmetic
use sharebackup_topo::{FatTree, HostAddr, NodeId};

/// Maps trace rack indices onto fat-tree hosts.
#[derive(Clone, Copy, Debug)]
pub struct RackMap {
    k: usize,
}

impl RackMap {
    /// A map for a fat-tree of parameter `k`.
    pub fn new(k: usize) -> RackMap {
        RackMap { k }
    }

    /// Number of racks = number of edge switches = k²/2.
    pub fn racks(&self) -> usize {
        self.k * self.k / 2
    }

    /// The host for `(rack, salt)`: rack → edge switch, salt spreads over
    /// the k/2 hosts under it.
    pub fn host(&self, ft: &FatTree, rack: usize, salt: u64) -> NodeId {
        let half = self.k / 2;
        let rack = rack % self.racks();
        let addr = HostAddr {
            pod: rack / half,
            edge: rack % half,
            host: (salt as usize) % half,
        };
        ft.host(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharebackup_topo::FatTreeConfig;

    #[test]
    fn k16_has_128_racks() {
        assert_eq!(RackMap::new(16).racks(), 128);
    }

    #[test]
    fn hosts_are_under_the_right_edge() {
        let ft = FatTree::build(FatTreeConfig::new(8));
        let map = RackMap::new(8);
        for rack in 0..map.racks() {
            for salt in 0..4 {
                let h = map.host(&ft, rack, salt);
                let addr = ft.addr_of(h);
                assert_eq!(addr.pod, rack / 4);
                assert_eq!(addr.edge, rack % 4);
            }
        }
    }

    #[test]
    fn salts_spread_over_hosts() {
        let ft = FatTree::build(FatTreeConfig::new(8));
        let map = RackMap::new(8);
        let distinct: std::collections::BTreeSet<NodeId> =
            (0..16).map(|s| map.host(&ft, 3, s)).collect();
        assert_eq!(distinct.len(), 4);
    }
}
