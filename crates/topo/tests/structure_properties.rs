//! Property-based structural tests of the topology crates, over random
//! parameters and random operation sequences.

use proptest::prelude::*;

use sharebackup_topo::{
    CircuitSwitch, CircuitTech, CsPort, F10Topology, FatTree, FatTreeConfig, GroupId, HostAddr,
    NodeKind, ShareBackup, ShareBackupConfig,
};

fn ks() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![4usize, 6, 8])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fattree_structure_holds(k in ks()) {
        let ft = FatTree::build(FatTreeConfig::new(k));
        let half = k / 2;
        prop_assert_eq!(ft.hosts().len(), k * k * k / 4);
        // Every switch has degree k; every host degree 1.
        for n in ft.net.node_ids() {
            let deg = ft.net.incident(n).len();
            match ft.net.node(n).kind {
                NodeKind::Host => prop_assert_eq!(deg, 1),
                _ => prop_assert_eq!(deg, k),
            }
        }
        // Cross-pod path count is (k/2)² and all are disjoint in the core.
        let a = ft.host(HostAddr { pod: 0, edge: 0, host: 0 });
        let b = ft.host(HostAddr { pod: 1, edge: 0, host: 0 });
        let paths = ft.host_paths(a, b);
        prop_assert_eq!(paths.len(), half * half);
        let mut cores: Vec<_> = paths.iter().map(|p| p[3]).collect();
        cores.sort();
        cores.dedup();
        prop_assert_eq!(cores.len(), half * half, "each path uses its own core");
    }

    #[test]
    fn f10_equals_fattree_in_counts(k in ks()) {
        let ft = FatTree::build(FatTreeConfig::new(k));
        let f10 = F10Topology::build(FatTreeConfig::new(k));
        prop_assert_eq!(ft.net.node_count(), f10.net.node_count());
        prop_assert_eq!(ft.net.link_count(), f10.net.link_count());
        // Both connect every host pair at the same distance.
        let a_ft = ft.host(HostAddr { pod: 0, edge: 0, host: 0 });
        let b_ft = ft.host(HostAddr { pod: k - 1, edge: 0, host: 0 });
        let a_f10 = f10.host(HostAddr { pod: 0, edge: 0, host: 0 });
        let b_f10 = f10.host(HostAddr { pod: k - 1, edge: 0, host: 0 });
        prop_assert_eq!(ft.net.distance(a_ft, b_ft), f10.net.distance(a_f10, b_f10));
    }

    #[test]
    fn random_circuit_operations_keep_matching_valid(
        ops in prop::collection::vec((0usize..12, 0usize..12, any::<bool>()), 1..60)
    ) {
        let mut cs = CircuitSwitch::new(CircuitTech::Crosspoint, 12);
        for (a, b, connect) in ops {
            if connect {
                if a != b {
                    cs.connect(CsPort(a), CsPort(b));
                }
            } else {
                cs.disconnect(CsPort(a));
            }
            // Invariant: the matching is symmetric and irreflexive.
            for p in 0..12 {
                if let Some(q) = cs.mate(CsPort(p)) {
                    prop_assert_ne!(q.0, p);
                    prop_assert_eq!(cs.mate(q), Some(CsPort(p)));
                }
            }
        }
    }

    #[test]
    fn sharebackup_build_realizes_fattree(k in ks(), n in 1usize..3) {
        let sb = ShareBackup::build(ShareBackupConfig::new(k, n));
        // Same node/link counts as the plain fat-tree.
        let ft = FatTree::build(FatTreeConfig::new(k));
        prop_assert_eq!(sb.slots.net.link_count(), ft.net.link_count());
        // Derived circuit connectivity equals the slot links.
        let derived = sb.derived_links();
        prop_assert_eq!(derived.len(), ft.net.link_count());
        // Every group's spares are exactly n.
        for g in sb.group_ids() {
            prop_assert_eq!(sb.spares(g).len(), n);
        }
    }

    #[test]
    fn replacement_chains_preserve_realization(
        k in prop::sample::select(vec![4usize, 6]),
        chain in prop::collection::vec((0usize..15, 0usize..3), 1..10)
    ) {
        let mut sb = ShareBackup::build(ShareBackupConfig::new(k, 1));
        for (gi, si) in chain {
            let groups = sb.group_ids();
            let g = groups[gi % groups.len()];
            let slot = g.slot(si % (k / 2));
            if let Some(&spare) = sb.spares(g).first() {
                sb.replace(slot, spare);
            }
        }
        let expected = sb.slots.net.link_count();
        prop_assert_eq!(sb.derived_links().len(), expected);
        // All slots still occupied by exactly one healthy switch.
        for g in sb.group_ids() {
            for s in 0..k / 2 {
                let occ = sb.occupant(g.slot(s));
                prop_assert!(sb.phys(occ).healthy);
            }
        }
    }

    #[test]
    fn host_addr_bijection(k in ks()) {
        let count = k * k * k / 4;
        let mut seen = vec![false; count];
        for pod in 0..k {
            for e in 0..k / 2 {
                for h in 0..k / 2 {
                    let idx = HostAddr { pod, edge: e, host: h }.to_index(k);
                    prop_assert!(!seen[idx], "collision at {idx}");
                    seen[idx] = true;
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }
}

#[test]
fn diagnosis_configs_never_involve_hosts_or_occupied_interfaces() {
    // Scan every interface of every switch: diagnosis partners must be
    // switches (never hosts), and at most 3 configurations are offered.
    let sb = ShareBackup::build(ShareBackupConfig::new(6, 1));
    for g in sb.group_ids() {
        for &p in sb.group_members(g) {
            for iface in 0..6 {
                let configs = sb.diagnosis_configs(p, iface);
                assert!(configs.len() <= 3);
                for c in configs {
                    // Partner is a physical switch id — by type. Check it
                    // belongs to a plausible group.
                    let partner_group = sb.phys(c.partner.0).group;
                    let _ = partner_group; // existence is the check
                    assert!(c.side_hops <= 1);
                }
            }
        }
    }
}

#[test]
fn core_group_stride_matches_paper() {
    // "core switches whose indices are in k/2 intervals form a failure
    // group": group u = { j·k/2 + u }.
    let sb = ShareBackup::build(ShareBackupConfig::new(8, 1));
    let half = 4;
    for u in 0..half {
        for j in 0..half {
            let slot = GroupId::core(u).slot(j);
            let node = sb.slot_node(slot);
            assert_eq!(sb.slots.net.node(node).index, j * half + u);
        }
    }
}
