//! End-to-end integration: the same trace and the same failure through all
//! three systems, asserting the paper's qualitative ordering.

#![allow(clippy::cast_possible_truncation)] // bounded rack/salt arithmetic
use sharebackup::core::scenario::{
    sharebackup_timeline, F10World, FatTreeWorld, RecoveryMode, SbEvent, ShareBackupWorld,
    TopoEvent,
};
use sharebackup::core::{Controller, ControllerConfig};
use sharebackup::flowsim::{FlowSim, FlowSpec};
use sharebackup::routing::FlowKey;
use sharebackup::sim::{SimRng, Time};
use sharebackup::topo::{
    F10Topology, FatTree, FatTreeConfig, GroupId, HostAddr, ShareBackup, ShareBackupConfig,
};
use sharebackup::workload::{CoflowTrace, TraceConfig};

const K: usize = 8;

fn build_trace(ft: &FatTree) -> CoflowTrace {
    let cfg = TraceConfig::fb_like(K * K / 2, Time::from_secs(40)).with_mean_interarrival_s(1.0);
    let mut rng = SimRng::seed_from_u64(99);
    CoflowTrace::generate(&cfg, &mut rng, |rack, salt| {
        let half = K / 2;
        ft.host(HostAddr {
            pod: (rack / half) % K,
            edge: rack % half,
            host: (salt as usize) % half,
        })
    })
}

fn total_cct(
    trace: &CoflowTrace,
    specs: &[FlowSpec],
    out: &sharebackup::flowsim::SimOutcome,
) -> f64 {
    trace
        .coflows
        .iter()
        .map(|cf| cf.cct(specs, out).map(|d| d.as_secs_f64()).unwrap_or(1e9))
        .sum()
}

#[test]
fn same_failure_three_systems_ordering() {
    let ft_cfg = FatTreeConfig::new(K).with_oversubscription(10.0);
    let base_ft = FatTree::build(ft_cfg);
    let trace = build_trace(&base_ft);
    assert!(trace.coflow_count() >= 20, "trace has substance");

    let fail_at = Time::from_secs(2);
    let repair_at = Time::from_secs(60);
    let (pod, a) = (0, 0);

    // Append a long-lived probe flow that deterministically crosses
    // agg(pod, a), so the rerouting-vs-replacement contrast is guaranteed
    // to be exercised.
    let mut trace = trace;
    let probe_src = base_ft.host(HostAddr {
        pod,
        edge: 0,
        host: 0,
    });
    let probe_dst = base_ft.host(HostAddr {
        pod: 4,
        edge: 2,
        host: 1,
    });
    let probe_id = (0..10_000u64)
        .find(|&id| {
            let p =
                sharebackup::routing::ecmp_path(&base_ft, &FlowKey::new(probe_src, probe_dst, id));
            p[2] == base_ft.agg(pod, a)
        })
        .expect("some id hashes through the target agg");
    let probe_index = trace.specs.len();
    trace.specs.push(FlowSpec {
        key: FlowKey::new(probe_src, probe_dst, probe_id),
        bytes: 2_000_000_000, // outlives the failure epoch
        arrival: Time::ZERO,
    });
    trace.coflows.push(sharebackup::flowsim::Coflow {
        id: sharebackup::flowsim::CoflowId(trace.coflows.len() as u32),
        flows: vec![probe_index],
    });

    // Fat-tree, global optimal rerouting.
    let ft = FatTree::build(ft_cfg);
    let agg = ft.agg(pod, a);
    let mut world = FatTreeWorld::new(
        ft,
        RecoveryMode::GlobalOptimal,
        vec![TopoEvent::FailNode(agg), TopoEvent::RepairNode(agg)],
    );
    let out_ft = FlowSim::new().run(&mut world, &trace.specs, &[fail_at, repair_at]);

    // F10, local rerouting.
    let f10 = F10Topology::build(ft_cfg);
    let agg = f10.agg(pod, a);
    let mut world = F10World::new(
        f10,
        vec![TopoEvent::FailNode(agg), TopoEvent::RepairNode(agg)],
    );
    let out_f10 = FlowSim::new().run(&mut world, &trace.specs, &[fail_at, repair_at]);

    // ShareBackup.
    let sb = ShareBackup::build(ShareBackupConfig::for_fattree(ft_cfg, 1));
    let controller = Controller::new(sb, ControllerConfig::default());
    let mut world = ShareBackupWorld::new(controller, vec![]);
    let victim = world.controller.sb.occupant(GroupId::agg(pod).slot(a));
    let (events, times) = sharebackup_timeline(&world, &[(fail_at, SbEvent::NodeFail(victim))]);
    world.events = events;
    let out_sb = FlowSim::new().run(&mut world, &trace.specs, &times);

    // Everyone eventually finishes every flow (failure was repairable).
    for (name, out) in [("ft", &out_ft), ("f10", &out_f10), ("sb", &out_sb)] {
        assert!(
            out.flows.iter().all(|f| f.completed.is_some()),
            "{name}: all flows complete"
        );
    }

    // Compare each system against its *own* no-failure baseline (the Fig. 1c
    // methodology): cross-topology absolute CCTs differ by ECMP hashing
    // noise, but slowdowns isolate the failure's effect.
    let mut env = FatTreeWorld::new(FatTree::build(ft_cfg), RecoveryMode::GlobalOptimal, vec![]);
    let base_ft_run = FlowSim::new().run(&mut env, &trace.specs, &[]);
    let mut env = F10World::new(F10Topology::build(ft_cfg), vec![]);
    let base_f10_run = FlowSim::new().run(&mut env, &trace.specs, &[]);

    let max_slowdown =
        |fail: &sharebackup::flowsim::SimOutcome, base: &sharebackup::flowsim::SimOutcome| -> f64 {
            trace
                .coflows
                .iter()
                .filter_map(|cf| {
                    let f = cf.cct(&trace.specs, fail)?.as_secs_f64();
                    let b = cf.cct(&trace.specs, base)?.as_secs_f64();
                    (b > 0.0).then(|| f / b)
                })
                .fold(0.0, f64::max)
        };
    let worst_ft = max_slowdown(&out_ft, &base_ft_run);
    let worst_f10 = max_slowdown(&out_f10, &base_f10_run);
    let worst_sb = max_slowdown(&out_sb, &base_ft_run);
    // ShareBackup's worst coflow barely notices the millisecond blip; the
    // rerouting baselines' worst coflows pay for the lost bandwidth.
    // (Note: aggregate CCT can even *improve* under global optimal
    // rerouting — it rebalances all flows — which is why the comparison
    // must be on the affected tail, not totals.)
    assert!(
        worst_sb <= worst_ft + 1e-6,
        "ShareBackup worst slowdown ({worst_sb}) must not exceed fat-tree's ({worst_ft})"
    );
    assert!(
        worst_sb <= worst_f10 + 1e-6,
        "ShareBackup worst slowdown ({worst_sb}) must not exceed F10's ({worst_f10})"
    );
    assert!(
        worst_sb < 1.02,
        "ShareBackup's millisecond blip is invisible at coflow scale: {worst_sb}"
    );
    let _ = total_cct; // retained for ad-hoc inspection

    // ShareBackup never rerouted a single flow; the baselines had to move
    // the probe flow (it crossed the failed switch).
    assert!(out_sb.flows.iter().all(|f| !f.rerouted));
    assert!(
        out_ft.flows[probe_index].rerouted,
        "fat-tree must reroute the affected probe flow"
    );
    assert!(
        out_f10.flows[probe_index].rerouted,
        "F10 must locally reroute the affected probe flow"
    );
    assert_eq!(world.controller.stats.replacements, 1);
}

#[test]
fn edge_failure_strands_reroute_but_not_sharebackup() {
    // An edge-switch failure cannot be rerouted around — its hosts are cut
    // off until repair. ShareBackup replaces the switch in ~1 ms.
    let ft_cfg = FatTreeConfig::new(K).with_oversubscription(10.0);
    let fail_at = Time::from_millis(100);

    let ft = FatTree::build(ft_cfg);
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
    let specs = vec![FlowSpec {
        key: FlowKey::new(src, dst, 1),
        bytes: 1_000_000_000, // ~8 s at the 1 Gbps oversubscribed uplinks
        arrival: Time::ZERO,
    }];

    // Fat-tree, no repair within the horizon: the flow never finishes.
    let edge = ft.edge(0, 0);
    let mut world = FatTreeWorld::new(
        ft,
        RecoveryMode::GlobalOptimal,
        vec![TopoEvent::FailNode(edge)],
    );
    let out = FlowSim::with_horizon(Time::from_secs(60)).run(&mut world, &specs, &[fail_at]);
    assert_eq!(out.flows[0].completed, None, "stranded under rerouting");

    // ShareBackup: recovered within milliseconds, flow finishes on time.
    let sb = ShareBackup::build(ShareBackupConfig::for_fattree(ft_cfg, 1));
    let controller = Controller::new(sb, ControllerConfig::default());
    let mut world = ShareBackupWorld::new(controller, vec![]);
    let src = world.controller.sb.slots.host(HostAddr {
        pod: 0,
        edge: 0,
        host: 0,
    });
    let dst = world.controller.sb.slots.host(HostAddr {
        pod: 1,
        edge: 0,
        host: 0,
    });
    let specs = vec![FlowSpec {
        key: FlowKey::new(src, dst, 1),
        bytes: 1_000_000_000,
        arrival: Time::ZERO,
    }];
    let victim = world.controller.sb.occupant(GroupId::edge(0).slot(0));
    let (events, times) = sharebackup_timeline(&world, &[(fail_at, SbEvent::NodeFail(victim))]);
    world.events = events;
    let out = FlowSim::with_horizon(Time::from_secs(60)).run(&mut world, &specs, &times);
    let done = out.flows[0].completed.expect("ShareBackup saves the flow");
    assert!(done < Time::from_secs(10), "{done:?}");
}

#[test]
fn beyond_pool_failures_degrade_gracefully() {
    // Two concurrent failures in one group with n=1: the second is not
    // masked, but the first is, and repair eventually restores everything.
    let sb = ShareBackup::build(ShareBackupConfig::new(4, 1));
    let mut ctl = Controller::new(sb, ControllerConfig::default());
    let g = GroupId::agg(0);
    let v0 = ctl.sb.occupant(g.slot(0));
    let v1 = ctl.sb.occupant(g.slot(1));
    ctl.sb.set_phys_healthy(v0, false);
    ctl.sb.set_phys_healthy(v1, false);
    let r0 = ctl.handle_node_failure(v0, Time::ZERO);
    let r1 = ctl.handle_node_failure(v1, Time::ZERO);
    assert!(r0.fully_recovered());
    assert!(!r1.fully_recovered());
    assert_eq!(ctl.stats.fallbacks, 1);
    // First repair comes back: the controller can then fix the open slot.
    let due = ctl.next_repair_due().expect("repairs pending");
    ctl.poll_repairs(due);
    let open_slot = r1.unrecovered[0];
    let spare = ctl.sb.spares(g)[0];
    ctl.sb.replace(open_slot, spare);
    assert!(ctl.sb.slots.net.node(ctl.sb.slot_node(open_slot)).up);
}
