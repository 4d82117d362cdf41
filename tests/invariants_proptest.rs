//! Property-based integration tests: random failure/recovery sequences
//! must preserve the ShareBackup architecture's structural invariants.

#![allow(clippy::cast_possible_truncation)] // bounded rack/salt arithmetic
use proptest::prelude::*;

use sharebackup::core::{Controller, ControllerConfig};
use sharebackup::routing::{ecmp_path, FlowKey};
use sharebackup::sim::Time;
use sharebackup::topo::{GroupId, GroupKind, NodeId, ShareBackup, ShareBackupConfig};

fn group_for(idx: usize, k: usize) -> GroupId {
    let half = k / 2;
    match idx % 3 {
        0 => GroupId::edge(idx % k),
        1 => GroupId::agg(idx % k),
        _ => GroupId::core(idx % half),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random node-failure sequences with interleaved repairs never break
    /// occupancy or circuit-realization invariants, and recovery always
    /// succeeds while the group pool lasts.
    #[test]
    fn random_failure_sequences_preserve_invariants(
        seq in prop::collection::vec((0usize..30, 0usize..2, any::<bool>()), 1..20)
    ) {
        let k = 4;
        let sb = ShareBackup::build(ShareBackupConfig::new(k, 1));
        let mut ctl = Controller::new(sb, ControllerConfig::default());
        let mut now = Time::ZERO;
        for (g_idx, slot_idx, repair_first) in seq {
            now += sharebackup::sim::Duration::from_secs(1);
            if repair_first {
                if let Some(due) = ctl.next_repair_due() {
                    ctl.poll_repairs(due.max(now));
                }
            }
            let g = group_for(g_idx, k);
            let slot = g.slot(slot_idx % (k / 2));
            let victim = ctl.sb.occupant(slot);
            if !ctl.sb.phys(victim).healthy {
                continue;
            }
            let pool_nonempty = !ctl.sb.spares(g).is_empty();
            ctl.sb.set_phys_healthy(victim, false);
            let r = ctl.handle_node_failure(victim, now);
            if pool_nonempty {
                prop_assert!(r.fully_recovered());
                prop_assert!(ctl.sb.slots.net.node(ctl.sb.slot_node(slot)).up);
            }
            ctl.sb.check_invariants();
        }
        // Drain all repairs: the network must return to full health.
        while let Some(due) = ctl.next_repair_due() {
            ctl.poll_repairs(due);
        }
        for g in ctl.sb.group_ids() {
            // Any slot that stayed down can now be fixed manually.
            for s in 0..k / 2 {
                let slot = g.slot(s);
                if !ctl.sb.phys(ctl.sb.occupant(slot)).healthy {
                    let spare = ctl.sb.spares(g)[0];
                    ctl.sb.replace(slot, spare);
                }
            }
        }
        ctl.sb.check_invariants();
        for node in ctl.sb.slots.net.node_ids() {
            prop_assert!(ctl.sb.slots.net.node(node).up);
        }
    }

    /// ECMP paths over the slot network are invariant under occupant swaps:
    /// routing sees slots, not physical switches.
    #[test]
    fn routing_is_occupancy_independent(
        swaps in prop::collection::vec((0usize..30, 0usize..2), 1..8),
        flow_id in 0u64..1000
    ) {
        let k = 4;
        let mut sb = ShareBackup::build(ShareBackupConfig::new(k, 2));
        let src = sb.slots.host(sharebackup::topo::HostAddr { pod: 0, edge: 0, host: 0 });
        let dst = sb.slots.host(sharebackup::topo::HostAddr { pod: 3, edge: 1, host: 1 });
        let flow = FlowKey::new(src, dst, flow_id);
        let before = ecmp_path(&sb.slots, &flow);
        for (g_idx, slot_idx) in swaps {
            let g = group_for(g_idx, k);
            let slot = g.slot(slot_idx % (k / 2));
            let spares = sb.spares(g);
            if let Some(&spare) = spares.first() {
                sb.replace(slot, spare);
            }
        }
        let after = ecmp_path(&sb.slots, &flow);
        prop_assert_eq!(before, after);
        sb.check_invariants();
    }

    /// The impact metric is monotone: adding failures never decreases the
    /// affected-flow or affected-coflow fraction.
    #[test]
    fn impact_is_monotone_in_failures(
        n_failures in 1usize..6,
        seed in 0u64..500
    ) {
        use sharebackup::flowsim::{impact, Coflow, CoflowId};
        use sharebackup::sim::SimRng;
        use sharebackup::topo::{FatTree, FatTreeConfig};

        let ft = FatTree::build(FatTreeConfig::new(4));
        let mut rng = SimRng::seed_from_u64(seed);
        let hosts = ft.hosts().to_vec();
        let paths: Vec<Vec<NodeId>> = (0..40u64)
            .map(|id| {
                let s = *rng.choose(&hosts);
                let mut d = *rng.choose(&hosts);
                while d == s {
                    d = *rng.choose(&hosts);
                }
                ecmp_path(&ft, &FlowKey::new(s, d, id))
            })
            .collect();
        let coflows: Vec<Coflow> = (0..8)
            .map(|i| Coflow {
                id: CoflowId(i as u32),
                flows: (0..40).filter(|f| f % 8 == i).collect(),
            })
            .collect();

        let mut net = ft.net.clone();
        let switches: Vec<NodeId> = net
            .node_ids()
            .filter(|&n| net.node(n).kind.is_switch())
            .collect();
        let mut last_flow = 0.0;
        let mut last_coflow = 0.0;
        for i in 0..n_failures {
            let victim = switches[(seed as usize + i * 7) % switches.len()];
            net.set_node_up(victim, false);
            let rep = impact::impact(&net, &paths, &coflows);
            prop_assert!(rep.flow_fraction() >= last_flow);
            prop_assert!(rep.coflow_fraction() >= last_coflow);
            prop_assert!(rep.coflow_fraction() >= rep.flow_fraction() * 0.999);
            last_flow = rep.flow_fraction();
            last_coflow = rep.coflow_fraction();
        }
    }
}

#[test]
fn group_kinds_cover_all_switches() {
    let sb = ShareBackup::build(ShareBackupConfig::new(6, 1));
    let mut edge = 0;
    let mut agg = 0;
    let mut core = 0;
    for g in sb.group_ids() {
        match g.kind {
            GroupKind::Edge => edge += sb.group_members(g).len(),
            GroupKind::Agg => agg += sb.group_members(g).len(),
            GroupKind::Core => core += sb.group_members(g).len(),
        }
    }
    assert_eq!(edge, 6 * 4);
    assert_eq!(agg, 6 * 4);
    assert_eq!(core, 3 * 4);
}
