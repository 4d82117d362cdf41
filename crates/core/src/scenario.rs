//! [`Environment`] implementations for the three compared systems.
//!
//! The Fig. 1-style experiments run the same trace through three worlds:
//!
//! * [`FatTreeWorld`] — plain fat-tree; on failure, global rerouting
//!   (hash-based or load-aware "optimal") over the surviving paths.
//! * [`F10World`] — the AB fat-tree with F10's local rerouting.
//! * [`ShareBackupWorld`] — the slot fat-tree under the recovery
//!   [`Controller`]: failures briefly down a slot, the controller swaps in
//!   a backup after the modeled detection+recovery latency, and flows
//!   resume **on their original paths** — no bandwidth loss, no dilation.
//!
//! Failure timelines are expressed as epoch events; the scenario builder
//! helpers produce the matched `(events, epoch_times)` pair the
//! [`sharebackup_flowsim::FlowSim`] consumes.

use sharebackup_flowsim::Environment;
use sharebackup_routing::{
    ecmp::ecmp_path_f10, ecmp_path, DegradedMode, DegradedTracker, F10Router, FlowKey,
    GlobalReroute,
};
use sharebackup_sim::{Duration, Time};
use sharebackup_topo::{
    F10Topology, FatTree, GroupId, LinkId, Network, NodeId, NodeKind, PhysId, ShareBackup,
};
use sharebackup_workload::{FailureEvent, FailureKind};

use crate::controller::Controller;
use crate::failover::{CompletedRecovery, FailoverConfig, FailoverPlane, FailureReport};

/// How a fat-tree world reacts to failures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecoveryMode {
    /// No rerouting: flows on broken paths stall (lower bound).
    None,
    /// Hash-based rerouting over surviving shortest paths.
    GlobalHash,
    /// Load-aware global assignment over surviving paths ("global optimal
    /// rerouting", the paper's fat-tree baseline).
    GlobalOptimal,
}

/// Topology mutations applied at epochs.
#[derive(Clone, Copy, Debug)]
pub enum TopoEvent {
    /// A switch dies.
    FailNode(NodeId),
    /// A link dies.
    FailLink(LinkId),
    /// A switch is repaired.
    RepairNode(NodeId),
    /// A link is repaired.
    RepairLink(LinkId),
}

/// Apply `ev` to `net`, keeping `failures_active` (the count of failures
/// not yet repaired) in step. Shared by the two rerouting worlds.
fn apply_topo_event(net: &mut Network, failures_active: &mut usize, ev: TopoEvent) {
    match ev {
        TopoEvent::FailNode(n) => {
            net.set_node_up(n, false);
            *failures_active += 1;
        }
        TopoEvent::FailLink(l) => {
            net.set_link_up(l, false);
            *failures_active += 1;
        }
        TopoEvent::RepairNode(n) => {
            net.set_node_up(n, true);
            *failures_active = failures_active.saturating_sub(1);
        }
        TopoEvent::RepairLink(l) => {
            net.set_link_up(l, true);
            *failures_active = failures_active.saturating_sub(1);
        }
    }
}

/// Plain fat-tree with rerouting-based recovery.
pub struct FatTreeWorld {
    /// The topology (failure state lives in `ft.net`).
    pub ft: FatTree,
    /// Recovery policy.
    pub mode: RecoveryMode,
    /// Event applied at epoch `i`.
    pub events: Vec<TopoEvent>,
    failures_active: usize,
}

impl FatTreeWorld {
    /// A world over `ft` with the given recovery mode and epoch events.
    pub fn new(ft: FatTree, mode: RecoveryMode, events: Vec<TopoEvent>) -> FatTreeWorld {
        FatTreeWorld {
            ft,
            mode,
            events,
            failures_active: 0,
        }
    }
}

impl Environment for FatTreeWorld {
    fn capacity(&self, l: LinkId) -> f64 {
        self.ft.net.link(l).capacity_bps
    }
    fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.ft.net.link_between(a, b)
    }
    fn route(&mut self, flow: &FlowKey) -> Option<Vec<NodeId>> {
        if self.failures_active == 0 {
            return Some(ecmp_path(&self.ft, flow));
        }
        match self.mode {
            RecoveryMode::None => {
                let p = ecmp_path(&self.ft, flow);
                self.ft.net.path_usable(&p).then_some(p)
            }
            RecoveryMode::GlobalHash | RecoveryMode::GlobalOptimal => {
                GlobalReroute::route(&self.ft, flow)
            }
        }
    }
    fn route_all(&mut self, flows: &[FlowKey]) -> Vec<Option<Vec<NodeId>>> {
        if self.failures_active > 0 && self.mode == RecoveryMode::GlobalOptimal {
            GlobalReroute::route_all(&self.ft, flows)
        } else {
            flows.iter().map(|f| self.route(f)).collect()
        }
    }
    fn on_epoch(&mut self, index: usize, _now: Time) {
        apply_topo_event(
            &mut self.ft.net,
            &mut self.failures_active,
            self.events[index],
        );
    }
}

/// F10 AB fat-tree with local rerouting.
pub struct F10World {
    /// The topology (failure state lives in `f10.net`).
    pub f10: F10Topology,
    /// Event applied at epoch `i`.
    pub events: Vec<TopoEvent>,
    failures_active: usize,
}

impl F10World {
    /// A world over `f10` with the given epoch events.
    pub fn new(f10: F10Topology, events: Vec<TopoEvent>) -> F10World {
        F10World {
            f10,
            events,
            failures_active: 0,
        }
    }
}

impl Environment for F10World {
    fn capacity(&self, l: LinkId) -> f64 {
        self.f10.net.link(l).capacity_bps
    }
    fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.f10.net.link_between(a, b)
    }
    fn route(&mut self, flow: &FlowKey) -> Option<Vec<NodeId>> {
        if self.failures_active == 0 {
            return Some(ecmp_path_f10(&self.f10, flow));
        }
        F10Router::route(&self.f10, flow)
    }
    fn on_epoch(&mut self, index: usize, _now: Time) {
        apply_topo_event(
            &mut self.f10.net,
            &mut self.failures_active,
            self.events[index],
        );
    }
}

/// Failure injections for a ShareBackup world, phrased against physical
/// devices (the controller reacts at the following recovery epoch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SbEvent {
    /// A physical switch dies.
    NodeFail(PhysId),
    /// A link between two switch interfaces dies: ground truth is that
    /// `faulty.0`'s interface `faulty.1` broke; `other` is the far end.
    LinkFail {
        /// The actually-broken interface.
        faulty: (PhysId, usize),
        /// The innocent far end (also replaced, then exonerated).
        other: (PhysId, usize),
    },
    /// A host↔edge link dies. `switch_side` selects the ground truth: the
    /// edge switch's host-facing interface (replacement fixes it) or the
    /// host's NIC (the switch gets exonerated and the host trouble-shot,
    /// §4.2).
    HostLinkFail {
        /// The affected host.
        host: NodeId,
        /// Whether the switch-side interface is the broken one.
        switch_side: bool,
    },
    /// A keep-alive loss: the controller receives a failure report about a
    /// switch that is actually *healthy* (chaos). Ground truth is left
    /// untouched — only the report fires, and the controller counts it as
    /// spurious after evicting the innocent switch.
    SpuriousReport(PhysId),
    /// The controller reacts to everything injected since the last
    /// `Recover` (scheduled one recovery latency after the failure epoch).
    Recover,
    /// Complete due repairs.
    PollRepairs,
    /// A controller replica crashes. Crashing the primary opens a blackout
    /// during which submitted failures stay journaled in the world's
    /// [`FailoverPlane`] and the data plane rides [`DegradedMode`].
    ControllerCrash(usize),
    /// A crashed controller replica comes back.
    ControllerRestore(usize),
}

/// The ShareBackup system under its controller.
pub struct ShareBackupWorld {
    /// The controller (owns the network).
    pub controller: Controller,
    /// Event applied at epoch `i`.
    pub events: Vec<SbEvent>,
    /// Reports injected since the last `Recover` epoch.
    pending: Vec<FailureReport>,
    /// Recoveries completed by the control plane, in completion order,
    /// with report/completion timestamps, for inspection by the harness.
    pub recoveries: Vec<CompletedRecovery>,
    /// Policy for flows whose static path crosses an unrecovered slot:
    /// stall (the paper's behavior, default) or fall back to global
    /// rerouting with per-flow accounting.
    pub degraded_mode: DegradedMode,
    /// Which flows ran degraded and for how long ([`DegradedMode::Reroute`]
    /// only). Call [`DegradedTracker::finalize`] with the simulation end
    /// time before reading totals.
    pub tracker: DegradedTracker,
    /// The replicated control plane every failure report travels through
    /// ([`FailoverPlane::submit`]): the primary can crash mid-recovery and
    /// an elected successor re-drives the journaled work. The default plane
    /// is chaos-free and never crashes on its own, so reports complete the
    /// instant they are submitted.
    pub failover: FailoverPlane,
    now: Time,
}

impl ShareBackupWorld {
    /// A world driven by `controller` with the given epoch events, behind
    /// an inert [`FailoverPlane`] (default config, no chaos stream: zero
    /// RNG draws). The degraded mode defaults to [`DegradedMode::Stall`] —
    /// exactly the pre-chaos behavior.
    pub fn new(controller: Controller, events: Vec<SbEvent>) -> ShareBackupWorld {
        ShareBackupWorld {
            controller,
            events,
            pending: Vec::new(),
            recoveries: Vec::new(),
            degraded_mode: DegradedMode::Stall,
            tracker: DegradedTracker::new(),
            failover: FailoverPlane::new(FailoverConfig::default()),
            now: Time::ZERO,
        }
    }

    /// Select the degraded-mode policy (builder style).
    pub fn with_degraded_mode(mut self, mode: DegradedMode) -> ShareBackupWorld {
        self.degraded_mode = mode;
        self
    }

    /// Replace the control plane (builder style). See [`FailoverPlane`].
    pub fn with_failover(mut self, plane: FailoverPlane) -> ShareBackupWorld {
        self.failover = plane;
        self
    }

    /// Poll the plane for journaled work that became driveable — the
    /// controller returned from a blackout, or a deferred retry came due —
    /// and collect completions. Cheap no-op when the journal is empty.
    fn drive_failover(&mut self, now: Time) {
        self.failover.poll(&mut self.controller, now);
        self.recoveries.extend(self.failover.take_completed());
    }

    /// The deterministic recovery latency of this deployment — scenario
    /// builders use it to place the `Recover` epoch.
    pub fn recovery_latency(&self) -> sharebackup_sim::Duration {
        self.controller
            .cfg
            .latency
            .total(crate::latency::RecoveryScheme::ShareBackup(
                self.controller.sb.cfg.tech,
            ))
    }

    fn sb(&self) -> &ShareBackup {
        &self.controller.sb
    }
}

impl Environment for ShareBackupWorld {
    fn capacity(&self, l: LinkId) -> f64 {
        self.sb().slots.net.link(l).capacity_bps
    }
    fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.sb().slots.net.link_between(a, b)
    }
    fn route(&mut self, flow: &FlowKey) -> Option<Vec<NodeId>> {
        // ShareBackup never reroutes: the static ECMP path, usable or not.
        // During the (sub-3ms) recovery window the path is down and the
        // flow stalls; after recovery the *same* path works again.
        let p = ecmp_path(&self.sb().slots, flow);
        if self.sb().slots.net.path_usable(&p) {
            self.tracker.mark_normal(flow.id, self.now);
            return Some(p);
        }
        match self.degraded_mode {
            // Stall until the slot heals (pre-chaos behavior).
            DegradedMode::Stall => None,
            // Graceful degradation: reroute exactly the affected flows
            // over the surviving topology, with explicit accounting.
            DegradedMode::Reroute => {
                let fallback = GlobalReroute::route(&self.controller.sb.slots, flow)?;
                if self.tracker.mark_degraded(flow.id, self.now) {
                    self.controller.stats.degraded_flows += 1;
                    self.controller
                        .tracer
                        .instant(self.now, "chaos", "flow-degraded");
                }
                Some(fallback)
            }
        }
    }
    fn on_advance(&mut self, now: Time) {
        // Keep the clock current so degraded spells opened from `route`
        // (which carries no timestamp) are stamped with the real instant,
        // not the last epoch's.
        self.now = now;
        // Journaled recoveries resume as soon as the engine's clock passes
        // the blackout end / retry deadline, not only at explicit epochs.
        self.drive_failover(now);
    }
    fn on_epoch(&mut self, index: usize, now: Time) {
        self.now = now;
        match self.events[index] {
            SbEvent::NodeFail(p) => {
                self.controller.sb.set_phys_healthy(p, false);
                self.pending.push(FailureReport::Node(p));
            }
            SbEvent::LinkFail { faulty, other } => {
                self.controller
                    .sb
                    .set_iface_broken(faulty.0, faulty.1, true);
                self.pending.push(FailureReport::Link { faulty, other });
            }
            SbEvent::HostLinkFail { host, switch_side } => {
                if switch_side {
                    // The host's edge slot occupant's down-port h breaks.
                    let (slot, h) = {
                        let net = &self.controller.sb.slots.net;
                        let l = net.incident(host)[0];
                        let edge_node = net.link(l).other(host);
                        #[expect(
                            clippy::expect_used,
                            reason = "hosts attach to edge slots by construction"
                        )]
                        let slot = self
                            .controller
                            .sb
                            .node_slot(edge_node)
                            .expect("host connects to an edge slot");
                        (slot, net.node(host).index % (self.controller.sb.k() / 2))
                    };
                    let occ = self.controller.sb.occupant(slot);
                    self.controller.sb.set_iface_broken(occ, h, true);
                } else {
                    self.controller.sb.set_host_nic_broken(host, true);
                }
                self.pending.push(FailureReport::HostLink(host));
            }
            SbEvent::SpuriousReport(p) => {
                // No ground-truth change: the switch is fine, the report
                // isn't.
                self.pending.push(FailureReport::Node(p));
            }
            SbEvent::Recover => {
                // Reports enter the plane's journal and complete when the
                // (possibly crashed / lossy) plane gets them through.
                for report in std::mem::take(&mut self.pending) {
                    self.failover.submit(&mut self.controller, report, now);
                }
                self.drive_failover(now);
            }
            SbEvent::PollRepairs => {
                self.controller.poll_repairs(now);
                self.drive_failover(now);
            }
            SbEvent::ControllerCrash(id) => {
                // Out-of-range ids are a schedule bug, not a data-plane
                // event — surface them loudly.
                #[expect(clippy::expect_used, reason = "scenario schedules name real replicas")]
                self.failover
                    .crash_replica(&mut self.controller, id, now)
                    .expect("crash event names a real replica");
            }
            SbEvent::ControllerRestore(id) => {
                #[expect(clippy::expect_used, reason = "scenario schedules name real replicas")]
                self.failover
                    .restore_replica(&mut self.controller, id, now)
                    .expect("restore event names a real replica");
                self.drive_failover(now);
            }
        }
    }
}

/// Map a probe-net link failure onto the physical event the controller
/// sees, using the deterministic fat-tree wiring (host link m on edge
/// iface m; edge j ↔ agg (j+m)%k/2 on edge iface k/2+m / agg iface m;
/// agg j ↔ core j·k/2+u on agg iface k/2+u / core iface pod). The "up"
/// side's interface is the faulty one, matching the Fig. 1 mapping.
///
/// `net` is a plain [`FatTree`] probe network with the same `k` as `sb`
/// (chaos schedules are sampled against a probe topology because the
/// injector speaks [`NodeId`]/[`LinkId`], not slots).
pub fn link_sb_event(sb: &ShareBackup, net: &Network, l: LinkId) -> SbEvent {
    let link = net.link(l);
    let half = sb.k() / 2;
    let (a, b) = (link.a, link.b);
    let (ka, kb) = (net.node(a).kind, net.node(b).kind);
    // Order the endpoints lower-layer first.
    let rank = |k: NodeKind| match k {
        NodeKind::Host => 0,
        NodeKind::Edge => 1,
        NodeKind::Agg => 2,
        NodeKind::Core => 3,
    };
    let (lo, hi) = if rank(ka) <= rank(kb) { (a, b) } else { (b, a) };
    let (nlo, nhi) = (net.node(lo), net.node(hi));
    match (nlo.kind, nhi.kind) {
        (NodeKind::Host, NodeKind::Edge) => SbEvent::HostLinkFail {
            host: lo,
            switch_side: true,
        },
        (NodeKind::Edge, NodeKind::Agg) => {
            #[expect(
                clippy::expect_used,
                reason = "every edge switch has a pod by construction"
            )]
            let pod = nlo.pod.expect("edge has a pod");
            let (j, agg) = (nlo.index, nhi.index);
            let m = (agg + half - j) % half;
            SbEvent::LinkFail {
                faulty: (sb.occupant(GroupId::edge(pod).slot(j)), half + m),
                other: (sb.occupant(GroupId::agg(pod).slot(agg)), m),
            }
        }
        (NodeKind::Agg, NodeKind::Core) => {
            #[expect(
                clippy::expect_used,
                reason = "every agg switch has a pod by construction"
            )]
            let pod = nlo.pod.expect("agg has a pod");
            let (j, core) = (nlo.index, nhi.index);
            let u = core % half;
            SbEvent::LinkFail {
                faulty: (sb.occupant(GroupId::agg(pod).slot(j)), half + u),
                other: (sb.occupant(GroupId::core(u).slot(j)), pod),
            }
        }
        other => unreachable!("no fat-tree link between {other:?}"),
    }
}

/// Translate an injector-produced chaos schedule (against a plain fat-tree
/// probe network) into the physical [`SbEvent`]s the controller sees.
/// Events are phrased against the *initial* occupancy — later events can
/// therefore name switches that have since been benched or repaired (a
/// stale report), which the controller must tolerate; that is part of the
/// chaos surface. Node failures landing on non-slot nodes (hosts) are
/// dropped.
pub fn map_chaos_schedule(
    sb: &ShareBackup,
    net: &Network,
    events: &[FailureEvent],
) -> Vec<(Time, SbEvent)> {
    let mut out: Vec<(Time, SbEvent)> = Vec::with_capacity(events.len());
    for ev in events {
        let sb_ev = match ev.kind {
            FailureKind::Node(node) => {
                let Some(slot) = sb.node_slot(node) else {
                    continue;
                };
                SbEvent::NodeFail(sb.occupant(slot))
            }
            FailureKind::Link(l) => link_sb_event(sb, net, l),
        };
        out.push((ev.at, sb_ev));
    }
    out
}

/// Build the matched `(events, epoch_times)` pair for a set of ShareBackup
/// failure injections: each failure epoch is followed by a `Recover` epoch
/// one recovery latency later, and by `PollRepairs` epochs when the
/// switch/host repair timers come due (so convicted switches rejoin the
/// pool and trouble-shot hosts come back within the simulation).
pub fn sharebackup_timeline(
    world: &ShareBackupWorld,
    failures: &[(Time, SbEvent)],
) -> (Vec<SbEvent>, Vec<Time>) {
    let lat = world.recovery_latency();
    let cfg = &world.controller.cfg;
    let plane = &world.failover.cfg;
    let mut pairs: Vec<(Time, SbEvent)> = Vec::with_capacity(failures.len() * 4);
    let eps = Duration::from_millis(1);
    for &(t, ev) in failures {
        pairs.push((t, ev));
        match ev {
            // Control-plane events recover nothing themselves; schedule a
            // poll for just after the plane becomes available again so
            // journaled recoveries resume even in flowless runs (where no
            // `on_advance` ticks past the blackout).
            SbEvent::ControllerCrash(_) => {
                pairs.push((t + plane.blackout() + eps, SbEvent::PollRepairs));
                continue;
            }
            SbEvent::ControllerRestore(_) => {
                pairs.push((t + plane.election_time + eps, SbEvent::PollRepairs));
                continue;
            }
            _ => {}
        }
        pairs.push((t + lat, SbEvent::Recover));
        // Repairs are scheduled relative to the Recover instant; poll just
        // after each possible due time.
        pairs.push((t + lat + cfg.switch_repair_time + eps, SbEvent::PollRepairs));
        pairs.push((t + lat + cfg.host_repair_time + eps, SbEvent::PollRepairs));
    }
    pairs.sort_by_key(|&(t, _)| t);
    let times = pairs.iter().map(|&(t, _)| t).collect();
    let events = pairs.into_iter().map(|(_, e)| e).collect();
    (events, times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use sharebackup_flowsim::{FlowSim, FlowSpec};
    use sharebackup_topo::{FatTreeConfig, GroupId, HostAddr, ShareBackupConfig};

    fn flows_ft(ft: &FatTree, n: u64, bytes: u64) -> Vec<FlowSpec> {
        (0..n)
            .map(|id| FlowSpec {
                key: FlowKey::new(
                    ft.host(HostAddr {
                        pod: 0,
                        edge: 0,
                        host: (id % 2) as usize,
                    }),
                    ft.host(HostAddr {
                        pod: 2,
                        edge: 1,
                        host: (id % 2) as usize,
                    }),
                    id,
                ),
                bytes,
                arrival: Time::ZERO,
            })
            .collect()
    }

    #[test]
    fn fat_tree_world_baseline_and_failure() {
        // Healthy run.
        let ft = FatTree::build(FatTreeConfig::new(4));
        let flows = flows_ft(&ft, 4, 125_000_000); // 1 Gbit each
        let mut world = FatTreeWorld::new(ft, RecoveryMode::GlobalOptimal, vec![]);
        let base = FlowSim::new().run(&mut world, &flows, &[]);
        assert!(base.flows.iter().all(|f| f.completed.is_some()));

        // Same run with a core failing at t=0.01s: flows finish but later.
        let ft = FatTree::build(FatTreeConfig::new(4));
        let core = ft.core(0);
        let mut world = FatTreeWorld::new(
            ft,
            RecoveryMode::GlobalOptimal,
            vec![TopoEvent::FailNode(core)],
        );
        let out = FlowSim::new().run(&mut world, &flows, &[Time::from_millis(10)]);
        assert!(out.flows.iter().all(|f| f.completed.is_some()));
        let t_base = base
            .flows
            .iter()
            .filter_map(|f| f.completed)
            .max()
            .expect("flows ran");
        let t_fail = out
            .flows
            .iter()
            .filter_map(|f| f.completed)
            .max()
            .expect("flows ran");
        // Global optimal rerouting *rebalances all flows* at the failure
        // epoch, so it can even beat the hash-ECMP baseline despite the
        // lost capacity; only gross speedups would indicate a bug.
        assert!(
            t_fail.as_secs_f64() >= t_base.as_secs_f64() * 0.5,
            "implausible speedup under failure: {t_fail:?} vs {t_base:?}"
        );
    }

    #[test]
    fn f10_world_routes_through_detours() {
        let f10 = F10Topology::build(FatTreeConfig::new(4));
        let src = f10.host(HostAddr {
            pod: 0,
            edge: 0,
            host: 0,
        });
        let dst = f10.host(HostAddr {
            pod: 1,
            edge: 1,
            host: 0,
        });
        let flows: Vec<FlowSpec> = (0..2)
            .map(|id| FlowSpec {
                key: FlowKey::new(src, dst, id),
                bytes: 1_250_000,
                arrival: Time::ZERO,
            })
            .collect();
        // Fail one core early.
        let core = f10.core(0);
        let mut world = F10World::new(f10, vec![TopoEvent::FailNode(core)]);
        let out = FlowSim::new().run(&mut world, &flows, &[Time::from_millis(1)]);
        assert!(out.flows.iter().all(|f| f.completed.is_some()));
    }

    #[test]
    fn sharebackup_world_restores_original_path() {
        let sb = ShareBackup::build(ShareBackupConfig::new(4, 1));
        let controller = Controller::new(sb, ControllerConfig::default());
        let mut world = ShareBackupWorld::new(controller, vec![]);

        let src = world.sb().slots.host(HostAddr {
            pod: 0,
            edge: 0,
            host: 0,
        });
        let dst = world.sb().slots.host(HostAddr {
            pod: 2,
            edge: 1,
            host: 0,
        });
        let flow = FlowKey::new(src, dst, 7);
        let original = world.route(&flow).expect("healthy route");
        // Fail the aggregation slot on the flow's path.
        let agg_node = original[2];
        let slot = world.sb().node_slot(agg_node).expect("agg slot");
        let victim = world.sb().occupant(slot);

        let failures = vec![(Time::from_millis(10), SbEvent::NodeFail(victim))];
        let (events, times) = sharebackup_timeline(&world, &failures);
        world.events = events;

        let flows = vec![FlowSpec {
            key: flow,
            bytes: 125_000_000,
            arrival: Time::ZERO,
        }];
        let out = FlowSim::new().run(&mut world, &flows, &times);
        assert!(out.flows[0].completed.is_some());
        // The flow stalled briefly but came back on the SAME path.
        assert!(out.flows[0].ever_stalled);
        let after = world.route(&flow).expect("route after recovery");
        assert_eq!(after, original, "no path change after recovery");
        assert_eq!(world.recoveries.len(), 1);
        assert!(world.recoveries[0].recovery.fully_recovered());
        // The stall cost ~2ms on a 100ms transfer: completion within 5% of
        // the no-failure time (0.1s at 10G... 1Gbit at 10G = 0.1s).
        let t = out.flows[0].completed.expect("done");
        assert!(t < Time::from_millis(110), "{t:?}");
    }

    #[test]
    fn sharebackup_link_failure_timeline() {
        let sb = ShareBackup::build(ShareBackupConfig::new(6, 1));
        let controller = Controller::new(sb, ControllerConfig::default());
        let mut world = ShareBackupWorld::new(controller, vec![]);
        let edge_phys = world.sb().occupant(GroupId::edge(0).slot(0));
        let agg_phys = world.sb().occupant(GroupId::agg(0).slot(0));
        // Edge(0,0) up-port 0 ↔ agg(0,0) down-port 0 (m=0, k=6 → iface 3).
        let failures = vec![(
            Time::from_millis(5),
            SbEvent::LinkFail {
                faulty: (edge_phys, 3),
                other: (agg_phys, 0),
            },
        )];
        let (events, times) = sharebackup_timeline(&world, &failures);
        world.events = events;
        let src = world.sb().slots.host(HostAddr {
            pod: 0,
            edge: 0,
            host: 0,
        });
        let dst = world.sb().slots.host(HostAddr {
            pod: 1,
            edge: 0,
            host: 0,
        });
        let flows: Vec<FlowSpec> = (0..4)
            .map(|id| FlowSpec {
                key: FlowKey::new(src, dst, id),
                bytes: 12_500_000,
                arrival: Time::ZERO,
            })
            .collect();
        let out = FlowSim::new().run(&mut world, &flows, &times);
        assert!(out.flows.iter().all(|f| f.completed.is_some()));
        // Diagnosis exonerated the agg side, convicted the edge side.
        assert_eq!(world.controller.stats.exonerations, 1);
        assert_eq!(world.controller.stats.convictions, 1);
    }

    #[test]
    fn timeline_builder_interleaves_and_sorts() {
        let sb = ShareBackup::build(ShareBackupConfig::new(4, 1));
        let world = ShareBackupWorld::new(Controller::new(sb, ControllerConfig::default()), vec![]);
        let p = world.sb().occupant(GroupId::edge(0).slot(0));
        let q = world.sb().occupant(GroupId::edge(1).slot(0));
        let failures = vec![
            (Time::from_secs(2), SbEvent::NodeFail(q)),
            (Time::from_secs(1), SbEvent::NodeFail(p)),
        ];
        let (events, times) = sharebackup_timeline(&world, &failures);
        // Per failure: inject + Recover + 2 PollRepairs.
        assert_eq!(events.len(), 8);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(matches!(events[0], SbEvent::NodeFail(_)));
        assert!(matches!(events[1], SbEvent::Recover));
        let lat = world.recovery_latency();
        assert_eq!(times[1], Time::from_secs(1) + lat);
        let polls = events
            .iter()
            .filter(|e| matches!(e, SbEvent::PollRepairs))
            .count();
        assert_eq!(polls, 4);
    }

    #[test]
    fn degraded_reroute_restores_connectivity_where_stall_does_not() {
        use sharebackup_routing::DegradedMode;
        use sharebackup_sim::Duration;

        // Exhaust agg pod-0's pool (n=1): first failure eats the spare,
        // second leaves its slot unrecovered.
        let build = || {
            let sb = ShareBackup::build(ShareBackupConfig::new(4, 1));
            let controller = Controller::new(sb, ControllerConfig::default());
            ShareBackupWorld::new(controller, vec![])
        };
        let exhaust = |world: &mut ShareBackupWorld| {
            let g = GroupId::agg(0);
            let (v0, v1) = (
                world.sb().occupant(g.slot(0)),
                world.sb().occupant(g.slot(1)),
            );
            world.events = vec![
                SbEvent::NodeFail(v0),
                SbEvent::Recover,
                SbEvent::NodeFail(v1),
                SbEvent::Recover,
            ];
            for (i, ms) in [10, 10, 20, 20].into_iter().enumerate() {
                world.on_epoch(i, Time::from_millis(ms));
            }
            assert!(world.recoveries[0].recovery.fully_recovered());
            assert!(
                !world.recoveries[1].recovery.fully_recovered(),
                "pool exhausted"
            );
            g.slot(1)
        };

        // A flow whose static ECMP path crosses the dead agg slot.
        let pick_flow = |world: &ShareBackupWorld, dead: sharebackup_topo::SlotId| {
            let src = world.sb().slots.host(HostAddr {
                pod: 0,
                edge: 0,
                host: 0,
            });
            let dst = world.sb().slots.host(HostAddr {
                pod: 2,
                edge: 1,
                host: 0,
            });
            let dead_node = world.sb().slot_node(dead);
            (0..64)
                .map(|id| FlowKey::new(src, dst, id))
                .find(|f| ecmp_path(&world.sb().slots, f).contains(&dead_node))
                .expect("some flow hashes through the dead agg")
        };

        // Stall mode: the affected flow gets no route.
        let mut stall = build();
        let dead = exhaust(&mut stall);
        let flow = pick_flow(&stall, dead);
        assert_eq!(stall.route(&flow), None, "stalled (pre-chaos behavior)");
        assert_eq!(stall.controller.stats.degraded_flows, 0);

        // Reroute mode: the same flow is routed around the dead slot and
        // the degradation is accounted.
        let mut reroute = build().with_degraded_mode(DegradedMode::Reroute);
        let dead = exhaust(&mut reroute);
        let flow = pick_flow(&reroute, dead);
        reroute.now = Time::from_millis(25);
        let p = reroute.route(&flow).expect("degraded fallback route");
        let dead_node = reroute.sb().slot_node(dead);
        assert!(!p.contains(&dead_node), "fallback avoids the dead slot");
        assert!(reroute.sb().slots.net.path_usable(&p));
        assert_eq!(reroute.controller.stats.degraded_flows, 1);
        assert!(reroute.tracker.contains(flow.id));
        // Routing again does not double-count the flow.
        assert!(reroute.route(&flow).is_some());
        assert_eq!(reroute.controller.stats.degraded_flows, 1);

        // After the victims' repairs, the flow returns to its static path
        // and the degraded spell closes.
        let due = reroute
            .controller
            .next_repair_due()
            .expect("repairs pending");
        reroute
            .controller
            .poll_repairs(due + Duration::from_secs(1));
        reroute.now = due + Duration::from_secs(1);
        let back = reroute.route(&flow).expect("healed");
        assert_eq!(back, ecmp_path(&reroute.sb().slots, &flow));
        reroute.tracker.finalize(reroute.now);
        assert!(reroute.tracker.total_degraded_time() > Duration::ZERO);
    }

    #[test]
    fn no_reroute_mode_stalls_until_repair() {
        let ft = FatTree::build(FatTreeConfig::new(4));
        let src = ft.host(HostAddr {
            pod: 0,
            edge: 0,
            host: 0,
        });
        let dst = ft.host(HostAddr {
            pod: 1,
            edge: 0,
            host: 0,
        });
        let flow = FlowKey::new(src, dst, 0);
        let path = ecmp_path(&ft, &flow);
        let core = path[3];
        let flows = vec![FlowSpec {
            key: flow,
            bytes: 125_000_000, // 0.1 s at 10G
            arrival: Time::ZERO,
        }];
        let mut world = FatTreeWorld::new(
            ft,
            RecoveryMode::None,
            vec![TopoEvent::FailNode(core), TopoEvent::RepairNode(core)],
        );
        let out = FlowSim::new().run(
            &mut world,
            &flows,
            &[Time::from_millis(10), Time::from_secs(60)],
        );
        // Stalled from 10ms to 60s, then finishes the remainder.
        let t = out.flows[0].completed.expect("finishes after repair");
        assert!(t > Time::from_secs(60));
        assert!(out.flows[0].ever_stalled);
    }

    #[test]
    fn default_plane_completes_every_report_instantly_and_for_free() {
        // Every world carries a plane; the default one is chaos-free, so
        // each report completes the instant it is submitted, at exactly the
        // §5.3 latency, and no control-plane counter moves.
        let sb = ShareBackup::build(ShareBackupConfig::new(4, 1));
        let controller = Controller::new(sb, ControllerConfig::default());
        let mut world = ShareBackupWorld::new(controller, vec![]);
        let agg = world.sb().occupant(GroupId::agg(0).slot(0));
        // Edge(1,0) up-port 0 ↔ agg(1,0) down-port 0 (k=4 → iface 2).
        let (edge, agg1) = (
            world.sb().occupant(GroupId::edge(1).slot(0)),
            world.sb().occupant(GroupId::agg(1).slot(0)),
        );
        let core = world.sb().occupant(GroupId::core(0).slot(0));
        let host = world.sb().slots.host(HostAddr {
            pod: 3,
            edge: 0,
            host: 1,
        });
        let failures = vec![
            (Time::from_millis(10), SbEvent::NodeFail(agg)),
            (
                Time::from_millis(20),
                SbEvent::LinkFail {
                    faulty: (edge, 2),
                    other: (agg1, 0),
                },
            ),
            (
                Time::from_millis(30),
                SbEvent::HostLinkFail {
                    host,
                    switch_side: false,
                },
            ),
            (Time::from_millis(40), SbEvent::SpuriousReport(core)),
        ];
        let (events, times) = sharebackup_timeline(&world, &failures);
        world.events = events;
        let src = world.sb().slots.host(HostAddr {
            pod: 0,
            edge: 0,
            host: 0,
        });
        let dst = world.sb().slots.host(HostAddr {
            pod: 2,
            edge: 1,
            host: 0,
        });
        let flows = vec![FlowSpec {
            key: FlowKey::new(src, dst, 7),
            bytes: 125_000_000,
            arrival: Time::ZERO,
        }];
        let out = FlowSim::new().run(&mut world, &flows, &times);
        assert!(out.flows[0].completed.is_some());

        assert_eq!(world.recoveries.len(), failures.len());
        for done in &world.recoveries {
            assert_eq!(
                done.completed_at, done.reported_at,
                "no control-plane dwell"
            );
            assert_eq!(done.recovery.penalty, Duration::ZERO);
            assert_eq!(done.recovery.latency, world.recovery_latency());
        }
        let s = &world.controller.stats;
        assert_eq!(s.control_reports, failures.len() as u64);
        assert_eq!(s.control_losses, 0);
        assert_eq!(s.control_retries, 0);
        assert_eq!(s.controller_crashes, 0);
        assert_eq!(s.elections, 0);
        assert_eq!(s.recoveries_resumed, 0);
        assert_eq!(world.failover.pending_count(), 0);
        s.assert_consistent();
    }

    #[test]
    fn controller_crash_blacks_out_recovery_until_the_successor_takes_over() {
        // The primary crashes just before the failure report arrives: the
        // report stays journaled through detection + election, the flow
        // stalls for the whole blackout, and the elected successor
        // completes the recovery on the original path.
        use crate::failover::{FailoverConfig, FailoverPlane};

        let sb = ShareBackup::build(ShareBackupConfig::new(4, 1));
        let controller = Controller::new(sb, ControllerConfig::default());
        let plane = FailoverPlane::new(FailoverConfig::default());
        let blackout = plane.cfg.blackout();
        let mut world = ShareBackupWorld::new(controller, vec![]).with_failover(plane);

        let src = world.sb().slots.host(HostAddr {
            pod: 0,
            edge: 0,
            host: 0,
        });
        let dst = world.sb().slots.host(HostAddr {
            pod: 2,
            edge: 1,
            host: 0,
        });
        let flow = FlowKey::new(src, dst, 7);
        let original = world.route(&flow).expect("healthy route");
        let victim = world
            .sb()
            .occupant(world.sb().node_slot(original[2]).expect("agg slot"));

        let crash_at = Time::from_millis(11);
        let failures = vec![
            (Time::from_millis(10), SbEvent::NodeFail(victim)),
            (crash_at, SbEvent::ControllerCrash(0)),
        ];
        let (events, times) = sharebackup_timeline(&world, &failures);
        world.events = events;

        let flows = vec![FlowSpec {
            key: flow,
            bytes: 125_000_000, // 0.1 s at 10G
            arrival: Time::ZERO,
        }];
        let out = FlowSim::new().run(&mut world, &flows, &times);

        let t = out.flows[0].completed.expect("finishes after failover");
        assert!(out.flows[0].ever_stalled, "stalled through the blackout");
        // Stall spans the blackout: the transfer needs 100 ms of service
        // plus the ~53 ms outage minus the 10 ms served before the crash.
        assert!(t > Time::ZERO + blackout, "{t:?}");

        assert_eq!(world.recoveries.len(), 1, "recovery resumed exactly once");
        let done = &world.recoveries[0];
        assert!(done.recovery.fully_recovered());
        assert!(
            done.completed_at >= crash_at + blackout,
            "completion {} can't precede the blackout end {}",
            done.completed_at,
            crash_at + blackout
        );
        assert_eq!(world.controller.stats.controller_crashes, 1);
        assert_eq!(world.controller.stats.elections, 1);
        let after = world.route(&flow).expect("route after recovery");
        assert_eq!(after, original, "recovery restores the original path");
    }
}
