//! Oracle for ShareBackup's per-slot state refresh.
//!
//! Every mutator re-derives only the slots its change touches. The full
//! rebuild it replaced (`refresh_state`: every slot node and every link of
//! the slot network, from ground truth) is kept here, verbatim up to public
//! accessors, and after every operation of a random sequence each node's and
//! link's `up` must equal what it derives.

use std::collections::BTreeSet;

use proptest::prelude::*;

use sharebackup_topo::{CsId, GroupId, HostAddr, NodeId, PhysId, ShareBackup, ShareBackupConfig};

/// The deleted `refresh_state`, writing into `(node up, link up)` vectors
/// instead of the network. Host NIC faults are not readable through the
/// public API, so the caller passes the set it broke.
fn oracle(sb: &ShareBackup, host_nic_broken: &BTreeSet<NodeId>) -> (Vec<bool>, Vec<bool>) {
    let k = sb.k();
    let half = k / 2;
    let mut nodes = vec![true; sb.slots.net.node_count()];
    let mut links = vec![false; sb.slots.net.link_count()];
    // Slot nodes: up iff occupant healthy.
    for g in sb.group_ids() {
        for j in 0..half {
            let slot = g.slot(j);
            nodes[sb.slot_node(slot).index()] = sb.phys(sb.occupant(slot)).healthy;
        }
    }
    // Links.
    let mut updates: Vec<(NodeId, NodeId, bool)> = Vec::new();
    for pod in 0..k {
        for j in 0..half {
            let edge_occ = sb.occupant(GroupId::edge(pod).slot(j));
            for m in 0..half {
                // Host link: host(pod, j, m) ↔ edge slot j via CS1[pod][m].
                let host = sb.slots.host(HostAddr {
                    pod,
                    edge: j,
                    host: m,
                });
                let up = sb.circuit_switch(CsId::HostEdge { pod, m }).is_up()
                    && !sb.iface_broken(edge_occ, m)
                    && !host_nic_broken.contains(&host);
                updates.push((host, sb.slots.edge(pod, j), up));
                // Edge j ↔ agg (j+m)%half via CS2[pod][m].
                let a = (j + m) % half;
                let agg_occ = sb.occupant(GroupId::agg(pod).slot(a));
                let up = sb.circuit_switch(CsId::EdgeAgg { pod, m }).is_up()
                    && !sb.iface_broken(edge_occ, half + m)
                    && !sb.iface_broken(agg_occ, m);
                updates.push((sb.slots.edge(pod, j), sb.slots.agg(pod, a), up));
            }
            // Agg j ↔ core j*half+u via CS3[pod][u].
            let agg_occ = sb.occupant(GroupId::agg(pod).slot(j));
            for u in 0..half {
                let core_occ = sb.occupant(GroupId::core(u).slot(j));
                let up = sb.circuit_switch(CsId::AggCore { pod, u }).is_up()
                    && !sb.iface_broken(agg_occ, half + u)
                    && !sb.iface_broken(core_occ, pod);
                updates.push((sb.slots.agg(pod, j), sb.slots.core(j * half + u), up));
            }
        }
    }
    for (a, b, up) in updates {
        let l = sb.slots.link_between(a, b).expect("slot link must exist");
        links[l.index()] = up;
    }
    (nodes, links)
}

/// One random state change; each field is reduced modulo what it indexes.
#[derive(Clone, Debug)]
enum Op {
    /// Install a non-occupying member (healthy or not) into a slot.
    Replace {
        group: usize,
        slot: usize,
        pick: usize,
    },
    Health {
        phys: usize,
        healthy: bool,
    },
    Iface {
        phys: usize,
        iface: usize,
        broken: bool,
    },
    HostNic {
        host: usize,
        broken: bool,
    },
    Circuit {
        cs: usize,
        up: bool,
    },
}

fn op() -> impl Strategy<Value = Op> {
    (0usize..5, 0usize..512, 0usize..8, any::<bool>()).prop_map(|(kind, a, b, flag)| match kind {
        0 => Op::Replace {
            group: a,
            slot: b,
            pick: usize::from(flag),
        },
        1 => Op::Health {
            phys: a,
            healthy: flag,
        },
        2 => Op::Iface {
            phys: a,
            iface: b,
            broken: flag,
        },
        3 => Op::HostNic {
            host: a,
            broken: flag,
        },
        _ => Op::Circuit { cs: a, up: flag },
    })
}

fn apply(sb: &mut ShareBackup, host_nic_broken: &mut BTreeSet<NodeId>, op: &Op) {
    let k = sb.k();
    match *op {
        Op::Replace { group, slot, pick } => {
            let groups = sb.group_ids();
            let g = groups[group % groups.len()];
            let idle: Vec<PhysId> = sb
                .group_members(g)
                .iter()
                .copied()
                .filter(|&p| sb.slot_of(p).is_none())
                .collect();
            if !idle.is_empty() {
                sb.replace(g.slot(slot % (k / 2)), idle[pick % idle.len()]);
            }
        }
        Op::Health { phys, healthy } => {
            sb.set_phys_healthy(PhysId::from_index(phys % sb.phys_count()), healthy);
        }
        Op::Iface {
            phys,
            iface,
            broken,
        } => {
            sb.set_iface_broken(
                PhysId::from_index(phys % sb.phys_count()),
                iface % k,
                broken,
            );
        }
        Op::HostNic { host, broken } => {
            let host = sb.slots.host_by_index(host % sb.slots.hosts().len());
            if broken {
                host_nic_broken.insert(host);
            } else {
                host_nic_broken.remove(&host);
            }
            sb.set_host_nic_broken(host, broken);
        }
        Op::Circuit { cs, up } => {
            let ids = sb.circuit_switch_ids();
            sb.set_circuit_switch_up(ids[cs % ids.len()], up);
        }
    }
}

fn assert_matches_oracle(sb: &ShareBackup, host_nic_broken: &BTreeSet<NodeId>, step: usize) {
    let (nodes, links) = oracle(sb, host_nic_broken);
    for n in sb.slots.net.node_ids() {
        assert_eq!(
            sb.slots.net.node(n).up,
            nodes[n.index()],
            "{n:?} after step {step}"
        );
    }
    for l in sb.slots.net.link_ids() {
        assert_eq!(
            sb.slots.net.link(l).up,
            links[l.index()],
            "{l:?} after step {step}"
        );
    }
}

/// Uniform pools of one and two backups, a non-uniform pool and a layer
/// with no backups at all.
fn config(k: usize, pools: usize) -> ShareBackupConfig {
    let cfg = ShareBackupConfig::new(k, 1);
    match pools {
        0 => cfg,
        1 => cfg.with_backups(2, 2, 2),
        2 => cfg.with_backups(2, 1, 1),
        _ => cfg.with_backups(1, 1, 0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn per_slot_refresh_matches_a_full_rebuild(
        k in prop::sample::select(vec![4usize, 6]),
        pools in 0usize..4,
        ops in prop::collection::vec(op(), 1..60),
    ) {
        let mut sb = ShareBackup::build(config(k, pools));
        let mut host_nic_broken = BTreeSet::new();
        assert_matches_oracle(&sb, &host_nic_broken, 0);
        for (step, op) in ops.iter().enumerate() {
            apply(&mut sb, &mut host_nic_broken, op);
            assert_matches_oracle(&sb, &host_nic_broken, step + 1);
        }
        sb.check_invariants();
    }
}
