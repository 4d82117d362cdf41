//! The ShareBackup physical architecture (paper §3).
//!
//! A ShareBackup network is a fat-tree whose switch positions are **slots**:
//! logical fat-tree identities (E_{i,j}, A_{i,j}, C_j) that the data plane and
//! routing tables see. Each slot is *occupied* by one **physical switch**.
//! Physical switches belong to **failure groups** — the k/2 edge (or agg)
//! switches of a pod, or the k/2 core switches with index ≡ u (mod k/2) —
//! and every group owns `n` extra physical switches as shared backups.
//!
//! Between adjacent layers sit **circuit switches** (3 sets of k/2 per pod):
//!
//! * `CS_{1,i,m}` — between pod *i*'s hosts and edge switches; host *m* of
//!   every edge connects here (straight-through wiring).
//! * `CS_{2,i,m}` — between pod *i*'s edge and aggregation switches, with the
//!   *rotational* wiring `edge j ↔ agg (j+m) mod k/2` so the pod's full
//!   bipartite edge↔agg connectivity emerges across the k/2 switches.
//! * `CS_{3,i,u}` — between pod *i*'s aggregation switches and core group
//!   *u* (cores `j·k/2+u`), straight-through `agg j ↔ core-slot j`.
//!
//! Every member of a failure group — backup switches included — is cabled to
//! the same set of circuit switches with the same wiring pattern, so *any*
//! member can take over *any* slot of the group by circuit reconfiguration
//! alone. That is the paper's sharable-backup building block (Fig. 3a).
//!
//! Circuit switches of the same layer within a pod are chained into a ring
//! through 2 side ports; the offline failure-diagnosis procedure (paper §4.2,
//! Fig. 4) uses the ring to connect a suspect interface to up to three test
//! interfaces without touching the live network.

use std::collections::BTreeMap;

use crate::circuit::{Attachment, CircuitSwitch, CircuitTech, CsPort};
use crate::fattree::{FatTree, FatTreeConfig, HostAddr};
use crate::graph::NodeKind;
use crate::ids::{GroupId, GroupKind, NodeId, PhysId, SlotId};

/// Parameters of a ShareBackup network.
///
/// Backup counts may be *non-uniform* across layers (paper §6: "we can
/// have more backup on critical devices and less backup on unimportant
/// ones") — e.g. extra edge backups, since an edge failure strands hosts
/// that no rerouting can save.
#[derive(Clone, Copy, Debug)]
pub struct ShareBackupConfig {
    /// The underlying fat-tree parameters.
    pub ft: FatTreeConfig,
    /// Backup switches per *edge* failure group.
    pub n_edge: usize,
    /// Backup switches per *aggregation* failure group.
    pub n_agg: usize,
    /// Backup switches per *core* failure group.
    pub n_core: usize,
    /// Circuit-switch implementation technology.
    pub tech: CircuitTech,
}

impl ShareBackupConfig {
    /// ShareBackup over a full-bisection 10 Gbps fat-tree with `n` backups
    /// per group (uniform — the paper's baseline design) and electrical
    /// crosspoint circuit switches.
    pub fn new(k: usize, n: usize) -> ShareBackupConfig {
        ShareBackupConfig {
            ft: FatTreeConfig::new(k),
            n_edge: n,
            n_agg: n,
            n_core: n,
            tech: CircuitTech::Crosspoint,
        }
    }

    /// ShareBackup over an existing fat-tree configuration with uniform
    /// `n` backups per group.
    pub fn for_fattree(ft: FatTreeConfig, n: usize) -> ShareBackupConfig {
        ShareBackupConfig {
            ft,
            n_edge: n,
            n_agg: n,
            n_core: n,
            tech: CircuitTech::Crosspoint,
        }
    }

    /// Use a different circuit technology.
    pub fn with_tech(mut self, tech: CircuitTech) -> ShareBackupConfig {
        self.tech = tech;
        self
    }

    /// Non-uniform backup pools per layer (paper §6 extension).
    pub fn with_backups(mut self, edge: usize, agg: usize, core: usize) -> ShareBackupConfig {
        self.n_edge = edge;
        self.n_agg = agg;
        self.n_core = core;
        self
    }

    /// Backups of the groups protecting `kind`.
    pub fn n_for(&self, kind: GroupKind) -> usize {
        match kind {
            GroupKind::Edge => self.n_edge,
            GroupKind::Agg => self.n_agg,
            GroupKind::Core => self.n_core,
        }
    }

    /// Members of a `kind` failure group: k/2 active + its backups.
    pub fn group_size_for(&self, kind: GroupKind) -> usize {
        self.ft.k / 2 + self.n_for(kind)
    }
}

/// A physical packet switch: the unit that fails, is diagnosed and repaired.
#[derive(Clone, Debug)]
pub struct PhysSwitch {
    /// The failure group this switch is wired into (fixed at build time).
    pub group: GroupId,
    /// Member index within the group's circuit-switch wiring, `[0, k/2+n)`.
    pub member: usize,
    /// Whether the switch itself is operational.
    pub healthy: bool,
    /// Per-interface ground-truth fault state (`true` = broken). Interface
    /// numbering: edge/agg switches use ports `0..k/2` downward (one per
    /// circuit switch of the lower set) and `k/2..k` upward; core switches
    /// use port `i` for pod `i`.
    pub iface_broken: Vec<bool>,
}

/// Which circuit switch, identified by layer and position.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CsId {
    /// `CS_{1,pod,m}`: hosts ↔ edge layer.
    HostEdge {
        /// Pod index.
        pod: usize,
        /// Set index m in `[0, k/2)`.
        m: usize,
    },
    /// `CS_{2,pod,m}`: edge ↔ aggregation layer.
    EdgeAgg {
        /// Pod index.
        pod: usize,
        /// Set index m in `[0, k/2)`.
        m: usize,
    },
    /// `CS_{3,pod,u}`: aggregation ↔ core group u.
    AggCore {
        /// Pod index.
        pod: usize,
        /// Core-group residue u in `[0, k/2)`.
        u: usize,
    },
}

/// Result of one slot-replacement operation (paper §4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplaceReport {
    /// Circuit switches that received a reconfiguration request.
    pub circuit_switches_touched: usize,
    /// Individual circuit set-up/tear-down operations performed.
    pub circuit_ops: u32,
}

/// One offline-diagnosis circuit configuration (paper §4.2, Fig. 4): connect
/// the suspect interface to `partner` through `side_hops` side-port hops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiagConfig {
    /// The interface the suspect interface is tested against.
    pub partner: (PhysId, usize),
    /// Side-port hops between circuit switches used by this configuration.
    pub side_hops: usize,
}

/// A built ShareBackup network: slots (a fat-tree), physical switches,
/// occupancy, and the circuit-switch fabric.
#[derive(Clone, Debug)]
pub struct ShareBackup {
    /// The configuration.
    pub cfg: ShareBackupConfig,
    /// The slot-level fat-tree: what routing and the data plane see. Node and
    /// link up/down state is kept in sync with physical ground truth by
    /// [`ShareBackup::refresh_state`].
    pub slots: FatTree,
    phys: Vec<PhysSwitch>,
    /// Group → member-index-ordered physical switches.
    groups: BTreeMap<GroupId, Vec<PhysId>>,
    occupancy: BTreeMap<SlotId, PhysId>,
    slot_of_phys: BTreeMap<PhysId, SlotId>,
    node_slot: BTreeMap<NodeId, SlotId>,
    cs1: Vec<CircuitSwitch>, // [pod * k/2 + m]
    cs2: Vec<CircuitSwitch>, // [pod * k/2 + m]
    cs3: Vec<CircuitSwitch>, // [pod * k/2 + u]
    /// Host NICs with ground-truth faults.
    host_nic_broken: BTreeMap<NodeId, bool>,
}

impl ShareBackup {
    /// Build a ShareBackup network with all slots occupied by members
    /// `0..k/2` of each group and members `k/2..k/2+n` as spares.
    pub fn build(cfg: ShareBackupConfig) -> ShareBackup {
        let k = cfg.ft.k;
        let half = k / 2;
        let slots = FatTree::build(cfg.ft);

        // --- Physical switch registry, group by group. ---
        let mut phys = Vec::new();
        let mut groups = BTreeMap::new();
        let mut occupancy = BTreeMap::new();
        let mut slot_of_phys = BTreeMap::new();
        let mut make_group = |group: GroupId, phys: &mut Vec<PhysSwitch>| {
            let ifaces = k; // every packet switch has k interfaces
            let members: Vec<PhysId> = (0..cfg.group_size_for(group.kind))
                .map(|member| {
                    let id = PhysId::from_index(phys.len());
                    phys.push(PhysSwitch {
                        group,
                        member,
                        healthy: true,
                        iface_broken: vec![false; ifaces],
                    });
                    id
                })
                .collect();
            for (j, &p) in members.iter().enumerate().take(half) {
                occupancy.insert(group.slot(j), p);
                slot_of_phys.insert(p, group.slot(j));
            }
            members
        };
        for pod in 0..k {
            let g = GroupId::edge(pod);
            let members = make_group(g, &mut phys);
            groups.insert(g, members);
            let g = GroupId::agg(pod);
            let members = make_group(g, &mut phys);
            groups.insert(g, members);
        }
        for u in 0..half {
            let g = GroupId::core(u);
            let members = make_group(g, &mut phys);
            groups.insert(g, members);
        }

        // --- Node → slot reverse map over the slot fat-tree. ---
        let mut node_slot = BTreeMap::new();
        for pod in 0..k {
            for j in 0..half {
                node_slot.insert(slots.edge(pod, j), GroupId::edge(pod).slot(j));
                node_slot.insert(slots.agg(pod, j), GroupId::agg(pod).slot(j));
            }
        }
        for j in 0..half {
            for u in 0..half {
                node_slot.insert(slots.core(j * half + u), GroupId::core(u).slot(j));
            }
        }

        // --- Circuit switches. Port layout (flat space):
        //   [0, G)         north: group members (G = k/2 + n_north)
        //   [G, G+2)       side ports (ring within the pod's layer)
        //   [G+2, ...)     south: hosts / agg members / core-group members
        // North sizes differ per layer under non-uniform backup pools.
        let edge_size = cfg.group_size_for(GroupKind::Edge);
        let agg_size = cfg.group_size_for(GroupKind::Agg);
        let core_size = cfg.group_size_for(GroupKind::Core);

        let mut sb = ShareBackup {
            cfg,
            slots,
            phys,
            groups,
            occupancy,
            slot_of_phys,
            node_slot,
            cs1: Vec::with_capacity(k * half),
            cs2: Vec::with_capacity(k * half),
            cs3: Vec::with_capacity(k * half),
            host_nic_broken: BTreeMap::new(),
        };

        for pod in 0..k {
            for m in 0..half {
                // CS_{1,pod,m}: north = edge group, south = host m of each edge.
                let (side0, side1, south0) = (edge_size, edge_size + 1, edge_size + 2);
                let mut cs = CircuitSwitch::new(sb.cfg.tech, south0 + half);
                let edge_members = sb.groups[&GroupId::edge(pod)].clone();
                for (w, &p) in edge_members.iter().enumerate() {
                    cs.attach(CsPort(w), Attachment::Switch { switch: p, port: m });
                }
                cs.attach(
                    CsPort(side0),
                    Attachment::Side {
                        cs: (m + half - 1) % half,
                        port: CsPort(side1),
                    },
                );
                cs.attach(
                    CsPort(side1),
                    Attachment::Side {
                        cs: (m + 1) % half,
                        port: CsPort(side0),
                    },
                );
                for j in 0..half {
                    let host = sb.slots.host(HostAddr {
                        pod,
                        edge: j,
                        host: m,
                    });
                    cs.attach(CsPort(south0 + j), Attachment::Host(host));
                }
                sb.cs1.push(cs);

                // CS_{2,pod,m}: north = edge group, south = agg group.
                let mut cs = CircuitSwitch::new(sb.cfg.tech, south0 + agg_size);
                for (w, &p) in edge_members.iter().enumerate() {
                    cs.attach(
                        CsPort(w),
                        Attachment::Switch {
                            switch: p,
                            port: half + m,
                        },
                    );
                }
                cs.attach(
                    CsPort(side0),
                    Attachment::Side {
                        cs: (m + half - 1) % half,
                        port: CsPort(side1),
                    },
                );
                cs.attach(
                    CsPort(side1),
                    Attachment::Side {
                        cs: (m + 1) % half,
                        port: CsPort(side0),
                    },
                );
                let agg_members = sb.groups[&GroupId::agg(pod)].clone();
                for (w, &p) in agg_members.iter().enumerate() {
                    cs.attach(
                        CsPort(south0 + w),
                        Attachment::Switch { switch: p, port: m },
                    );
                }
                sb.cs2.push(cs);

                // CS_{3,pod,u} with u = m: north = agg group, south = core group u.
                let u = m;
                let (side0, side1, south0) = (agg_size, agg_size + 1, agg_size + 2);
                let mut cs = CircuitSwitch::new(sb.cfg.tech, south0 + core_size);
                for (w, &p) in agg_members.iter().enumerate() {
                    cs.attach(
                        CsPort(w),
                        Attachment::Switch {
                            switch: p,
                            port: half + u,
                        },
                    );
                }
                cs.attach(
                    CsPort(side0),
                    Attachment::Side {
                        cs: (u + half - 1) % half,
                        port: CsPort(side1),
                    },
                );
                cs.attach(
                    CsPort(side1),
                    Attachment::Side {
                        cs: (u + 1) % half,
                        port: CsPort(side0),
                    },
                );
                let core_members = sb.groups[&GroupId::core(u)].clone();
                for (w, &p) in core_members.iter().enumerate() {
                    cs.attach(
                        CsPort(south0 + w),
                        Attachment::Switch {
                            switch: p,
                            port: pod,
                        },
                    );
                }
                sb.cs3.push(cs);
            }
        }

        // --- Default circuits: straight-through / rotational wiring. ---
        for pod in 0..k {
            for j in 0..half {
                sb.reconnect_slot(GroupId::edge(pod).slot(j));
                sb.reconnect_slot(GroupId::agg(pod).slot(j));
            }
        }
        for u in 0..half {
            for j in 0..half {
                sb.reconnect_slot(GroupId::core(u).slot(j));
            }
        }
        sb.refresh_state();
        sb
    }

    // ------------------------------------------------------------------
    // Lookup helpers.
    // ------------------------------------------------------------------

    /// Fat-tree parameter k.
    pub fn k(&self) -> usize {
        self.cfg.ft.k
    }

    fn half(&self) -> usize {
        self.cfg.ft.k / 2
    }

    /// Number of circuit switches in the network (`3·k·k/2 = 3k²/2`).
    pub fn circuit_switch_count(&self) -> usize {
        self.cs1.len() + self.cs2.len() + self.cs3.len()
    }

    /// Access a circuit switch.
    pub fn circuit_switch(&self, id: CsId) -> &CircuitSwitch {
        let half = self.half();
        match id {
            CsId::HostEdge { pod, m } => &self.cs1[pod * half + m],
            CsId::EdgeAgg { pod, m } => &self.cs2[pod * half + m],
            CsId::AggCore { pod, u } => &self.cs3[pod * half + u],
        }
    }

    fn circuit_switch_mut(&mut self, id: CsId) -> &mut CircuitSwitch {
        let half = self.half();
        match id {
            CsId::HostEdge { pod, m } => &mut self.cs1[pod * half + m],
            CsId::EdgeAgg { pod, m } => &mut self.cs2[pod * half + m],
            CsId::AggCore { pod, u } => &mut self.cs3[pod * half + u],
        }
    }

    /// All circuit-switch ids.
    pub fn circuit_switch_ids(&self) -> Vec<CsId> {
        let k = self.k();
        let half = self.half();
        let mut ids = Vec::with_capacity(3 * k * half);
        for pod in 0..k {
            for m in 0..half {
                ids.push(CsId::HostEdge { pod, m });
                ids.push(CsId::EdgeAgg { pod, m });
                ids.push(CsId::AggCore { pod, u: m });
            }
        }
        ids
    }

    /// The physical switch registry entry for `p`.
    pub fn phys(&self, p: PhysId) -> &PhysSwitch {
        &self.phys[p.0 as usize]
    }

    /// Number of physical packet switches (excluding hosts).
    pub fn phys_count(&self) -> usize {
        self.phys.len()
    }

    /// Member switches of a failure group, in member-index order.
    pub fn group_members(&self, g: GroupId) -> &[PhysId] {
        &self.groups[&g]
    }

    /// All failure groups, in a canonical deterministic order.
    pub fn group_ids(&self) -> Vec<GroupId> {
        let k = self.k();
        let half = self.half();
        let mut ids = Vec::with_capacity(2 * k + half);
        for pod in 0..k {
            ids.push(GroupId::edge(pod));
            ids.push(GroupId::agg(pod));
        }
        for u in 0..half {
            ids.push(GroupId::core(u));
        }
        ids
    }

    /// The physical switch currently occupying `slot`.
    pub fn occupant(&self, slot: SlotId) -> PhysId {
        self.occupancy[&slot]
    }

    /// The slot occupied by `p`, if any (`None` = spare).
    pub fn slot_of(&self, p: PhysId) -> Option<SlotId> {
        self.slot_of_phys.get(&p).copied()
    }

    /// Healthy, non-occupying members of a group — the available backups.
    pub fn spares(&self, g: GroupId) -> Vec<PhysId> {
        self.groups[&g]
            .iter()
            .copied()
            .filter(|p| self.slot_of(*p).is_none() && self.phys(*p).healthy)
            .collect()
    }

    /// The slot-network node for a slot.
    pub fn slot_node(&self, slot: SlotId) -> NodeId {
        let half = self.half();
        match slot.group.kind {
            GroupKind::Edge => self.slots.edge(slot.group.index, slot.slot),
            GroupKind::Agg => self.slots.agg(slot.group.index, slot.slot),
            GroupKind::Core => self.slots.core(slot.slot * half + slot.group.index),
        }
    }

    /// The slot a slot-network switch node corresponds to.
    pub fn node_slot(&self, n: NodeId) -> Option<SlotId> {
        self.node_slot.get(&n).copied()
    }

    // ------------------------------------------------------------------
    // Ground-truth fault state.
    // ------------------------------------------------------------------

    /// Mark a physical switch healthy/failed and propagate to the slot net.
    pub fn set_phys_healthy(&mut self, p: PhysId, healthy: bool) {
        self.phys[p.0 as usize].healthy = healthy;
        if healthy {
            // A repaired switch comes back with all interfaces working.
            for b in self.phys[p.0 as usize].iface_broken.iter_mut() {
                *b = false;
            }
        }
        self.refresh_state();
    }

    /// Break or repair one interface of a physical switch.
    pub fn set_iface_broken(&mut self, p: PhysId, iface: usize, broken: bool) {
        self.phys[p.0 as usize].iface_broken[iface] = broken;
        self.refresh_state();
    }

    /// Whether an interface is broken (ground truth; diagnosis discovers it).
    pub fn iface_broken(&self, p: PhysId, iface: usize) -> bool {
        self.phys[p.0 as usize].iface_broken[iface]
    }

    /// Break or repair a host NIC.
    pub fn set_host_nic_broken(&mut self, host: NodeId, broken: bool) {
        assert_eq!(self.slots.net.node(host).kind, NodeKind::Host);
        self.host_nic_broken.insert(host, broken);
        self.refresh_state();
    }

    /// Mark a circuit switch up/down and propagate to the slot network.
    pub fn set_circuit_switch_up(&mut self, id: CsId, up: bool) {
        self.circuit_switch_mut(id).set_up(up);
        self.refresh_state();
    }

    // ------------------------------------------------------------------
    // Replacement: the paper's recovery primitive.
    // ------------------------------------------------------------------

    /// Install `replacement` into `slot`, evicting the current occupant,
    /// which becomes a spare (and future backup once repaired — paper §4.2's
    /// role swap). Reconfigures every circuit switch that realizes the
    /// slot's links.
    ///
    /// # Panics
    /// Panics if `replacement` is not a member of the slot's failure group or
    /// already occupies a slot.
    pub fn replace(&mut self, slot: SlotId, replacement: PhysId) -> ReplaceReport {
        assert_eq!(
            self.phys(replacement).group,
            slot.group,
            "replacement from a different failure group"
        );
        assert!(
            self.slot_of(replacement).is_none(),
            "{replacement:?} already occupies a slot"
        );
        let old = self.occupancy[&slot];
        self.slot_of_phys.remove(&old);
        self.occupancy.insert(slot, replacement);
        self.slot_of_phys.insert(replacement, slot);
        let report = self.reconnect_slot(slot);
        self.refresh_state();
        report
    }

    /// (Re)establish the circuits that realize `slot`'s links, pointing them
    /// at the current occupant. Returns how many circuit switches were
    /// touched and how many circuit operations were needed.
    fn reconnect_slot(&mut self, slot: SlotId) -> ReplaceReport {
        let half = self.half();
        // South-port offsets depend on the north group's size (per-layer
        // under non-uniform backup pools): CS1/CS2 are north-edged, CS3 is
        // north-agged.
        let south0_12 = self.cfg.group_size_for(GroupKind::Edge) + 2;
        let south0_3 = self.cfg.group_size_for(GroupKind::Agg) + 2;
        let occ = self.occupancy[&slot];
        let w = self.phys(occ).member;
        let mut touched = 0;
        let mut ops = 0;
        match slot.group.kind {
            GroupKind::Edge => {
                let pod = slot.group.index;
                let j = slot.slot;
                for m in 0..half {
                    // CS1: occupant's north port ↔ host j.
                    ops += self.cs1[pod * half + m].connect(CsPort(w), CsPort(south0_12 + j));
                    touched += 1;
                    // CS2: occupant ↔ member occupying agg slot (j+m) % k/2.
                    let agg_slot = GroupId::agg(pod).slot((j + m) % half);
                    let aw = self.phys(self.occupancy[&agg_slot]).member;
                    ops += self.cs2[pod * half + m].connect(CsPort(w), CsPort(south0_12 + aw));
                    touched += 1;
                }
            }
            GroupKind::Agg => {
                let pod = slot.group.index;
                let a = slot.slot;
                for m in 0..half {
                    // CS2: edge slot (a-m) mod k/2 ↔ occupant (south side).
                    let edge_slot = GroupId::edge(pod).slot((a + half - m) % half);
                    let ew = self.phys(self.occupancy[&edge_slot]).member;
                    ops += self.cs2[pod * half + m].connect(CsPort(ew), CsPort(south0_12 + w));
                    touched += 1;
                    // CS3 (u = m): occupant (north) ↔ core-group-u slot a.
                    let core_slot = GroupId::core(m).slot(a);
                    let cw = self.phys(self.occupancy[&core_slot]).member;
                    ops += self.cs3[pod * half + m].connect(CsPort(w), CsPort(south0_3 + cw));
                    touched += 1;
                }
            }
            GroupKind::Core => {
                let u = slot.group.index;
                let j = slot.slot;
                for pod in 0..self.k() {
                    // CS3 in every pod: agg slot j (north) ↔ occupant (south).
                    let agg_slot = GroupId::agg(pod).slot(j);
                    let aw = self.phys(self.occupancy[&agg_slot]).member;
                    ops += self.cs3[pod * half + u].connect(CsPort(aw), CsPort(south0_3 + w));
                    touched += 1;
                }
            }
        }
        ReplaceReport {
            circuit_switches_touched: touched,
            circuit_ops: ops,
        }
    }

    // ------------------------------------------------------------------
    // Slot-network state derivation.
    // ------------------------------------------------------------------

    /// Recompute the slot network's node/link up state from physical ground
    /// truth: occupant health, broken interfaces, host NICs, and circuit
    /// switch health.
    pub fn refresh_state(&mut self) {
        let k = self.k();
        let half = self.half();
        // Slot nodes: up iff occupant healthy.
        let slot_states: Vec<(NodeId, bool)> = self
            .occupancy
            .iter()
            .map(|(&slot, &p)| (self.slot_node(slot), self.phys(p).healthy))
            .collect();
        for (node, up) in slot_states {
            self.slots.net.set_node_up(node, up);
        }
        // Links.
        let mut updates: Vec<(NodeId, NodeId, bool)> = Vec::new();
        for pod in 0..k {
            for j in 0..half {
                let edge_occ = self.occupancy[&GroupId::edge(pod).slot(j)];
                for m in 0..half {
                    // Host link: host(pod, j, m) ↔ edge slot j via CS1[pod][m].
                    let host = self.slots.host(HostAddr {
                        pod,
                        edge: j,
                        host: m,
                    });
                    let up = self.cs1[pod * half + m].is_up()
                        && !self.iface_broken(edge_occ, m)
                        && !self.host_nic_broken.get(&host).copied().unwrap_or(false);
                    updates.push((host, self.slots.edge(pod, j), up));
                    // Edge j ↔ agg (j+m)%half via CS2[pod][m].
                    let a = (j + m) % half;
                    let agg_occ = self.occupancy[&GroupId::agg(pod).slot(a)];
                    let up = self.cs2[pod * half + m].is_up()
                        && !self.iface_broken(edge_occ, half + m)
                        && !self.iface_broken(agg_occ, m);
                    updates.push((self.slots.edge(pod, j), self.slots.agg(pod, a), up));
                }
                // Agg j ↔ core j*half+u via CS3[pod][u].
                let agg_occ = self.occupancy[&GroupId::agg(pod).slot(j)];
                for u in 0..half {
                    let core_occ = self.occupancy[&GroupId::core(u).slot(j)];
                    let up = self.cs3[pod * half + u].is_up()
                        && !self.iface_broken(agg_occ, half + u)
                        && !self.iface_broken(core_occ, pod);
                    updates.push((self.slots.agg(pod, j), self.slots.core(j * half + u), up));
                }
            }
        }
        for (a, b, up) in updates {
            // Slot-network links are created for every fat-tree edge at
            // build time; absence is a builder bug, not a runtime state.
            #[expect(clippy::expect_used, reason = "build-time structural invariant")]
            let l = self
                .slots
                .net
                .link_between(a, b)
                .expect("slot link must exist");
            self.slots.net.set_link_up(l, up);
        }
        // Every reconfiguration and fault-state change funnels through here,
        // so this one hook re-verifies the structure after each transition.
        #[cfg(feature = "strict-invariants")]
        self.check_invariants();
    }

    /// Derive (endpoint, endpoint) logical links by walking circuit-switch
    /// matchings — used by tests to prove the circuit layer realizes exactly
    /// the fat-tree. Endpoints are slot-network node ids.
    pub fn derived_links(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for id in self.circuit_switch_ids() {
            let cs = self.circuit_switch(id);
            for (a, b) in cs.circuits() {
                let na = self.endpoint_node(cs.attachment(a));
                let nb = self.endpoint_node(cs.attachment(b));
                if let (Some(na), Some(nb)) = (na, nb) {
                    out.push(if na <= nb { (na, nb) } else { (nb, na) });
                }
            }
        }
        out.sort();
        out
    }

    fn endpoint_node(&self, att: Attachment) -> Option<NodeId> {
        match att {
            Attachment::Host(h) => Some(h),
            Attachment::Switch { switch, .. } => self.slot_of(switch).map(|s| self.slot_node(s)),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Structural invariants.
    // ------------------------------------------------------------------

    /// Assert the architecture's structural invariants: slot-occupancy
    /// bijectivity, crossbar matching validity, and circuit realization of
    /// the slot fat-tree. Cheap relative to a reconfiguration, but O(network)
    /// — under the `strict-invariants` feature it runs automatically after
    /// every [`ShareBackup::refresh_state`]; callers (tests, the controller)
    /// may also invoke it directly at any quiescent point.
    ///
    /// # Panics
    /// Panics with a description of the violated invariant.
    pub fn check_invariants(&self) {
        self.check_occupancy();
        self.check_matchings();
        self.check_circuit_realization();
    }

    /// Occupancy bijectivity: every slot has exactly one occupant, every
    /// physical switch occupies at most one slot (in its own group), and
    /// spares never exceed the group's backup pool.
    fn check_occupancy(&self) {
        let half = self.half();
        for g in self.group_ids() {
            let members = self.group_members(g);
            let mut occupying = 0;
            for &p in members {
                if let Some(slot) = self.slot_of(p) {
                    assert_eq!(slot.group, g, "{p:?} occupies a slot outside {g:?}");
                    assert_eq!(
                        self.occupant(slot),
                        p,
                        "occupancy maps disagree about {slot:?}"
                    );
                    occupying += 1;
                }
            }
            assert_eq!(occupying, half, "every slot of {g:?} must be occupied");
            let spares = self.spares(g).len();
            assert!(
                spares <= members.len() - half,
                "{g:?} reports {spares} spares with only {} backups",
                members.len() - half
            );
        }
        // Global view: the two occupancy maps are inverse bijections.
        assert_eq!(self.occupancy.len(), self.slot_of_phys.len());
        for (&slot, &p) in &self.occupancy {
            assert_eq!(
                self.slot_of_phys.get(&p),
                Some(&slot),
                "slot_of_phys is not the inverse of occupancy at {slot:?}"
            );
        }
    }

    /// Every circuit switch holds a valid (symmetric, self-loop-free)
    /// partial matching.
    fn check_matchings(&self) {
        for id in self.circuit_switch_ids() {
            self.circuit_switch(id).check_matching();
        }
    }

    /// The circuit layer realizes exactly the slot fat-tree's links: walking
    /// every crossbar circuit between attachments yields the slot network's
    /// edge set, no more and no less.
    fn check_circuit_realization(&self) {
        let mut expected: Vec<(NodeId, NodeId)> = self
            .slots
            .net
            .link_ids()
            .map(|l| {
                let link = self.slots.net.link(l);
                if link.a <= link.b {
                    (link.a, link.b)
                } else {
                    (link.b, link.a)
                }
            })
            .collect();
        expected.sort();
        assert_eq!(
            self.derived_links(),
            expected,
            "circuit layer does not realize the slot fat-tree"
        );
    }

    // ------------------------------------------------------------------
    // Offline diagnosis support (paper §4.2, Fig. 4).
    // ------------------------------------------------------------------

    /// The up-to-three circuit configurations through which the suspect
    /// interface `(p, iface)` can be tested: against a spare switch's
    /// matching interface on the same circuit switch (0 side hops), and
    /// against the suspect switch's *own* neighboring interfaces through one
    /// side-port hop in each ring direction.
    ///
    /// Host-facing edge interfaces cannot be diagnosed this way if the test
    /// would involve a host (hosts are actively in use — paper §4.2); the
    /// returned configurations only ever involve offline switches.
    pub fn diagnosis_configs(&self, p: PhysId, iface: usize) -> Vec<DiagConfig> {
        let half = self.half();
        let mut configs = Vec::new();
        let me = self.phys(p);
        // Partner 1: a spare member of the *opposite* side group on the same
        // circuit switch (crossbar can connect north↔south directly).
        if let Some(other_group) = self.opposite_group(me.group, iface) {
            let spares = self.spares(other_group);
            if let Some(&partner) = spares.first() {
                let partner_iface = self.opposite_iface(me.group, iface);
                configs.push(DiagConfig {
                    partner: (partner, partner_iface),
                    side_hops: 0,
                });
            }
        }
        // Partners 2 and 3: the suspect switch's own interface on the ring
        // neighbors of this circuit switch (Fig. 4's chained configurations).
        for delta in [half - 1, 1] {
            let neighbor = self.neighbor_iface(me.group, iface, delta);
            if let Some(other) = neighbor {
                configs.push(DiagConfig {
                    partner: (p, other),
                    side_hops: 1,
                });
            }
            if configs.len() >= 3 {
                break;
            }
        }
        configs.truncate(3);
        configs
    }

    /// The group on the other side of the circuit switch that `iface` of a
    /// switch in `group` attaches to, if that side holds packet switches.
    fn opposite_group(&self, group: GroupId, iface: usize) -> Option<GroupId> {
        let half = self.half();
        match group.kind {
            GroupKind::Edge => {
                if iface < half {
                    None // host side: no offline diagnosis against hosts
                } else {
                    Some(GroupId::agg(group.index))
                }
            }
            GroupKind::Agg => {
                if iface < half {
                    Some(GroupId::edge(group.index))
                } else {
                    Some(GroupId::core(iface - half))
                }
            }
            // Core iface = pod index; other side is that pod's agg group.
            GroupKind::Core => Some(GroupId::agg(iface)),
        }
    }

    /// Interface index the opposite-side partner uses on the same circuit
    /// switch.
    fn opposite_iface(&self, group: GroupId, iface: usize) -> usize {
        let half = self.half();
        match group.kind {
            GroupKind::Edge => iface - half, // CS2[m]: agg's down-port m
            GroupKind::Agg => {
                if iface < half {
                    half + iface // CS2[m]: edge's up-port m
                } else {
                    group.index // CS3: core's pod port
                }
            }
            GroupKind::Core => half + group.index, // CS3[u]: agg's up-port u
        }
    }

    /// The suspect switch's own interface attached to the ring neighbor
    /// (`delta` positions away) of the circuit switch holding `iface`.
    fn neighbor_iface(&self, group: GroupId, iface: usize, delta: usize) -> Option<usize> {
        let half = self.half();
        match group.kind {
            GroupKind::Edge | GroupKind::Agg => {
                if iface < half {
                    Some((iface + delta) % half)
                } else {
                    Some(half + (iface - half + delta) % half)
                }
            }
            // Core-layer rings run across u within a pod; a core switch has
            // exactly one interface per pod, attached to CS_{3,pod,u} for its
            // own u — its ring neighbors carry other groups' cores, where the
            // suspect has no port. No own-interface neighbor test.
            GroupKind::Core => None,
        }
    }

    /// The circuit switch and port where interface `iface` of `p` attaches.
    pub fn iface_attachment(&self, p: PhysId, iface: usize) -> (CsId, CsPort) {
        let half = self.half();
        let me = self.phys(p);
        let w = me.member;
        match me.group.kind {
            GroupKind::Edge => {
                let pod = me.group.index;
                if iface < half {
                    (CsId::HostEdge { pod, m: iface }, CsPort(w))
                } else {
                    (
                        CsId::EdgeAgg {
                            pod,
                            m: iface - half,
                        },
                        CsPort(w),
                    )
                }
            }
            GroupKind::Agg => {
                let pod = me.group.index;
                if iface < half {
                    let south0 = self.cfg.group_size_for(GroupKind::Edge) + 2;
                    (CsId::EdgeAgg { pod, m: iface }, CsPort(south0 + w))
                } else {
                    (
                        CsId::AggCore {
                            pod,
                            u: iface - half,
                        },
                        CsPort(w),
                    )
                }
            }
            GroupKind::Core => {
                let south0 = self.cfg.group_size_for(GroupKind::Agg) + 2;
                (
                    CsId::AggCore {
                        pod: iface,
                        u: me.group.index,
                    },
                    CsPort(south0 + w),
                )
            }
        }
    }

    /// Side-port indices (toward ring-previous, toward ring-next) of a
    /// circuit switch.
    fn side_ports(&self, cs: CsId) -> (CsPort, CsPort) {
        let north = match cs {
            CsId::HostEdge { .. } | CsId::EdgeAgg { .. } => {
                self.cfg.group_size_for(GroupKind::Edge)
            }
            CsId::AggCore { .. } => self.cfg.group_size_for(GroupKind::Agg),
        };
        (CsPort(north), CsPort(north + 1))
    }

    /// Ring position (m or u) of a circuit switch within its pod's layer.
    fn ring_index(&self, cs: CsId) -> usize {
        match cs {
            CsId::HostEdge { m, .. } | CsId::EdgeAgg { m, .. } => m,
            CsId::AggCore { u, .. } => u,
        }
    }

    /// Physically execute one offline-diagnosis test (paper §4.2, Fig. 4):
    /// set up the test circuit(s) on the real circuit switches — directly
    /// for a same-crossbar partner, through the side-port ring for a
    /// neighbor-crossbar partner — evaluate connectivity against ground
    /// truth, then tear the test circuits down.
    ///
    /// Returns `None` if the test cannot run without disturbing the live
    /// network (a port involved still carries a production circuit — the
    /// paper's rule that diagnosis only involves offline switches), or
    /// `Some(connectivity)` otherwise.
    pub fn run_diagnosis_test(
        &mut self,
        suspect: PhysId,
        iface: usize,
        cfg: DiagConfig,
    ) -> Option<bool> {
        let (cs_a, port_a) = self.iface_attachment(suspect, iface);
        let (cs_b, port_b) = self.iface_attachment(cfg.partner.0, cfg.partner.1);
        // Never touch ports that carry live circuits.
        if self.circuit_switch(cs_a).mate(port_a).is_some()
            || self.circuit_switch(cs_b).mate(port_b).is_some()
        {
            return None;
        }
        let healthy = self.phys(suspect).healthy
            && !self.iface_broken(suspect, iface)
            && self.phys(cfg.partner.0).healthy
            && !self.iface_broken(cfg.partner.0, cfg.partner.1);

        let connectivity = if cs_a == cs_b {
            // One crossbar: direct circuit.
            let cs = self.circuit_switch_mut(cs_a);
            cs.connect(port_a, port_b);
            let ok = self.circuit_switch(cs_a).is_up() && healthy;
            self.circuit_switch_mut(cs_a).disconnect(port_a);
            ok
        } else {
            // Ring neighbors: route through the side-port pair facing each
            // other. With a ring of size k/2, +1 and -1 can coincide (k=4);
            // pick the side pair by which neighbor cs_b actually is.
            let half = self.half();
            let (a_prev, a_next) = self.side_ports(cs_a);
            let (b_prev, b_next) = self.side_ports(cs_b);
            let ma = self.ring_index(cs_a);
            let mb = self.ring_index(cs_b);
            let (sa, sb) = if (ma + 1) % half == mb {
                (a_next, b_prev) // cs_b is the next ring member
            } else if (mb + 1) % half == ma {
                (a_prev, b_next) // cs_b is the previous ring member
            } else {
                return None; // not adjacent on the ring
            };
            if self.circuit_switch(cs_a).mate(sa).is_some()
                || self.circuit_switch(cs_b).mate(sb).is_some()
            {
                return None; // side ports busy with another diagnosis
            }
            self.circuit_switch_mut(cs_a).connect(port_a, sa);
            self.circuit_switch_mut(cs_b).connect(sb, port_b);
            let ok =
                self.circuit_switch(cs_a).is_up() && self.circuit_switch(cs_b).is_up() && healthy;
            self.circuit_switch_mut(cs_a).disconnect(port_a);
            self.circuit_switch_mut(cs_b).disconnect(port_b);
            ok
        };
        Some(connectivity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(k: usize, n: usize) -> ShareBackup {
        ShareBackup::build(ShareBackupConfig::new(k, n))
    }

    #[test]
    fn inventory_matches_paper_formulas() {
        let k = 6;
        let n = 1;
        let sb = build(k, n);
        // 5/2·k failure groups (2k pod groups + k/2 core groups).
        assert_eq!(sb.group_ids().len(), 5 * k / 2);
        // Physical switches: (k/2+n) per group.
        assert_eq!(sb.phys_count(), (5 * k / 2) * (k / 2 + n));
        // Circuit switches: 3 sets of k/2 per pod = 3k²/2.
        assert_eq!(sb.circuit_switch_count(), 3 * k * k / 2);
        // Spares: n per group.
        for g in sb.group_ids() {
            assert_eq!(sb.spares(g).len(), n);
        }
    }

    #[test]
    fn circuit_layer_realizes_exactly_the_fat_tree() {
        let sb = build(4, 1);
        let mut expected: Vec<(NodeId, NodeId)> = sb
            .slots
            .net
            .link_ids()
            .map(|l| {
                let link = sb.slots.net.link(l);
                if link.a <= link.b {
                    (link.a, link.b)
                } else {
                    (link.b, link.a)
                }
            })
            .collect();
        expected.sort();
        assert_eq!(sb.derived_links(), expected);
    }

    #[test]
    fn replacement_preserves_fat_tree_connectivity() {
        let mut sb = build(4, 1);
        for g in sb.group_ids() {
            let slot = g.slot(1);
            let spare = sb.spares(g)[0];
            let report = sb.replace(slot, spare);
            assert!(report.circuit_ops > 0);
            assert_eq!(sb.occupant(slot), spare);
        }
        // After replacing a slot in every group, the circuit layer must
        // still realize exactly the fat-tree.
        let mut expected: Vec<(NodeId, NodeId)> = sb
            .slots
            .net
            .link_ids()
            .map(|l| {
                let link = sb.slots.net.link(l);
                if link.a <= link.b {
                    (link.a, link.b)
                } else {
                    (link.b, link.a)
                }
            })
            .collect();
        expected.sort();
        assert_eq!(sb.derived_links(), expected);
    }

    #[test]
    fn replacement_touches_expected_circuit_switch_counts() {
        let mut sb = build(6, 1);
        let half = 3;
        // Edge slot: k/2 CS1 + k/2 CS2 = k circuit switches.
        let g = GroupId::edge(0);
        let spare = sb.spares(g)[0];
        let r = sb.replace(g.slot(0), spare);
        assert_eq!(r.circuit_switches_touched, 2 * half);
        // Core slot: one CS3 per pod = k circuit switches.
        let g = GroupId::core(1);
        let spare = sb.spares(g)[0];
        let r = sb.replace(g.slot(0), spare);
        assert_eq!(r.circuit_switches_touched, 6);
    }

    #[test]
    fn failed_switch_takes_slot_down_and_replacement_restores_it() {
        let mut sb = build(4, 1);
        let slot = GroupId::agg(2).slot(0);
        let victim = sb.occupant(slot);
        let node = sb.slot_node(slot);
        sb.set_phys_healthy(victim, false);
        assert!(!sb.slots.net.node(node).up);
        let spare = sb.spares(slot.group)[0];
        sb.replace(slot, spare);
        assert!(sb.slots.net.node(node).up);
        // Old occupant is now a spare-position switch, but unhealthy.
        assert_eq!(sb.slot_of(victim), None);
        assert!(sb.spares(slot.group).is_empty());
        // Repair it: it becomes an available backup (role swap, §4.2).
        sb.set_phys_healthy(victim, true);
        assert_eq!(sb.spares(slot.group), vec![victim]);
    }

    #[test]
    fn broken_interface_downs_one_link_only() {
        let mut sb = build(4, 1);
        let slot = GroupId::edge(0).slot(0);
        let occ = sb.occupant(slot);
        let k_half = 2;
        // Break edge up-port 0 (to CS2[0] → agg slot (0+0)%2 = 0).
        sb.set_iface_broken(occ, k_half, true);
        let e = sb.slots.edge(0, 0);
        let a0 = sb.slots.agg(0, 0);
        let a1 = sb.slots.agg(0, 1);
        let l0 = sb.slots.net.link_between(e, a0).expect("link");
        let l1 = sb.slots.net.link_between(e, a1).expect("link");
        assert!(!sb.slots.net.link_usable(l0));
        assert!(sb.slots.net.link_usable(l1));
        // Replacing the switch fixes the link (new occupant, fresh iface).
        let spare = sb.spares(slot.group)[0];
        sb.replace(slot, spare);
        let l0 = sb.slots.net.link_between(e, a0).expect("link");
        assert!(sb.slots.net.link_usable(l0));
    }

    #[test]
    fn circuit_switch_failure_downs_its_links() {
        let mut sb = build(4, 1);
        sb.set_circuit_switch_up(CsId::HostEdge { pod: 0, m: 1 }, false);
        // Host 1 of every edge in pod 0 loses its link.
        for j in 0..2 {
            let host = sb.slots.host(HostAddr {
                pod: 0,
                edge: j,
                host: 1,
            });
            let edge = sb.slots.edge(0, j);
            let l = sb.slots.net.link_between(host, edge).expect("link");
            assert!(!sb.slots.net.link_usable(l));
        }
        // Hosts with index 0 are unaffected.
        let host = sb.slots.host(HostAddr {
            pod: 0,
            edge: 0,
            host: 0,
        });
        let edge = sb.slots.edge(0, 0);
        let l = sb.slots.net.link_between(host, edge).expect("link");
        assert!(sb.slots.net.link_usable(l));
    }

    #[test]
    fn host_nic_failure_downs_host_link() {
        let mut sb = build(4, 1);
        let host = sb.slots.host(HostAddr {
            pod: 1,
            edge: 0,
            host: 0,
        });
        sb.set_host_nic_broken(host, true);
        let edge = sb.slots.edge(1, 0);
        let l = sb.slots.net.link_between(host, edge).expect("link");
        assert!(!sb.slots.net.link_usable(l));
        sb.set_host_nic_broken(host, false);
        assert!(sb.slots.net.link_usable(l));
    }

    #[test]
    fn diagnosis_configs_cover_three_tests() {
        let sb = build(6, 1);
        // Agg up-interface: spare core partner + two own-iface ring tests.
        let agg = sb.occupant(GroupId::agg(0).slot(0));
        let configs = sb.diagnosis_configs(agg, 3); // up-port u=0
        assert_eq!(configs.len(), 3);
        assert_eq!(configs.iter().filter(|c| c.side_hops == 0).count(), 1);
        assert_eq!(configs.iter().filter(|c| c.side_hops == 1).count(), 2);
        // The side-hop partners are the suspect's own other up-interfaces.
        for c in configs.iter().filter(|c| c.side_hops == 1) {
            assert_eq!(c.partner.0, agg);
            assert!(c.partner.1 >= 3, "must be another up-port");
        }
    }

    #[test]
    fn diagnosis_for_host_facing_iface_avoids_hosts() {
        let sb = build(6, 1);
        let edge = sb.occupant(GroupId::edge(0).slot(0));
        // Down-port (host side): only ring self-tests, no host partners.
        let configs = sb.diagnosis_configs(edge, 0);
        assert_eq!(configs.len(), 2);
        assert!(configs.iter().all(|c| c.partner.0 == edge));
    }

    #[test]
    fn core_diagnosis_uses_spare_agg_partner() {
        let sb = build(6, 1);
        let core = sb.occupant(GroupId::core(0).slot(0));
        let configs = sb.diagnosis_configs(core, 2); // pod-2 interface
        assert_eq!(configs.len(), 1);
        let (partner, iface) = configs[0].partner;
        assert_eq!(sb.phys(partner).group, GroupId::agg(2));
        assert_eq!(iface, 3); // agg up-port u=0 at k=6
    }

    #[test]
    fn non_uniform_backup_pools() {
        // §6 extension: more backups on critical (edge) groups, fewer on
        // cores. Everything — inventory, replacement, circuit realization —
        // must still hold.
        let cfg = ShareBackupConfig::new(6, 1).with_backups(2, 1, 0);
        let mut sb = ShareBackup::build(cfg);
        assert_eq!(sb.group_members(GroupId::edge(0)).len(), 5);
        assert_eq!(sb.group_members(GroupId::agg(0)).len(), 4);
        assert_eq!(sb.group_members(GroupId::core(0)).len(), 3);
        assert_eq!(sb.spares(GroupId::edge(0)).len(), 2);
        assert_eq!(sb.spares(GroupId::core(0)).len(), 0);
        // Two successive edge replacements succeed (two backups).
        for _ in 0..2 {
            let slot = GroupId::edge(0).slot(0);
            let spare = sb.spares(GroupId::edge(0))[0];
            sb.replace(slot, spare);
        }
        // Agg replacement also succeeds.
        let spare = sb.spares(GroupId::agg(3))[0];
        sb.replace(GroupId::agg(3).slot(2), spare);
        // The circuit layer still realizes exactly the fat-tree.
        let mut expected: Vec<(NodeId, NodeId)> = sb
            .slots
            .net
            .link_ids()
            .map(|l| {
                let link = sb.slots.net.link(l);
                if link.a <= link.b {
                    (link.a, link.b)
                } else {
                    (link.b, link.a)
                }
            })
            .collect();
        expected.sort();
        assert_eq!(sb.derived_links(), expected);
    }

    #[test]
    fn zero_backup_layer_has_no_spares_to_offer() {
        let cfg = ShareBackupConfig::new(4, 1).with_backups(1, 1, 0);
        let sb = ShareBackup::build(cfg);
        assert!(sb.spares(GroupId::core(0)).is_empty());
        assert_eq!(sb.spares(GroupId::edge(2)).len(), 1);
    }

    #[test]
    #[should_panic(expected = "different failure group")]
    fn cross_group_replacement_rejected() {
        let mut sb = build(4, 1);
        let spare = sb.spares(GroupId::edge(0))[0];
        sb.replace(GroupId::agg(0).slot(0), spare);
    }

    #[test]
    fn replace_with_no_slot_change_is_stable() {
        // Replacing back and forth returns to an equivalent configuration.
        let mut sb = build(4, 2);
        let slot = GroupId::edge(1).slot(1);
        let first = sb.occupant(slot);
        let spare = sb.spares(slot.group)[0];
        sb.replace(slot, spare);
        sb.replace(slot, first);
        assert_eq!(sb.occupant(slot), first);
        let mut expected: Vec<(NodeId, NodeId)> = sb
            .slots
            .net
            .link_ids()
            .map(|l| {
                let link = sb.slots.net.link(l);
                if link.a <= link.b {
                    (link.a, link.b)
                } else {
                    (link.b, link.a)
                }
            })
            .collect();
        expected.sort();
        assert_eq!(sb.derived_links(), expected);
    }
}
