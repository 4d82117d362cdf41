//! Property tests of the chaos layer: under *any* chaos profile (random
//! correlated-failure schedules crossed with random recovery-machinery
//! failure rates), the controller's structural invariants and counter
//! accounting hold after every single transition, replays are
//! bit-deterministic, and no flow is ever silently blackholed — every flow
//! either completes, is visibly stalled, or is explicitly accounted as
//! degraded.

use proptest::prelude::*;

use sharebackup_core::scenario::{
    map_chaos_schedule, sharebackup_timeline, SbEvent, ShareBackupWorld,
};
use sharebackup_core::{ChaosConfig, Controller, ControllerConfig};
use sharebackup_flowsim::{Environment, FlowSim, FlowSpec};
use sharebackup_routing::{DegradedMode, FlowKey};
use sharebackup_sim::{Duration, SimRng, Time};
use sharebackup_topo::{FatTree, FatTreeConfig, NodeId, ShareBackup, ShareBackupConfig};
use sharebackup_workload::{ChaosProfile, FailureInjector};

/// Virtual time covered by each generated schedule. Short enough to keep
/// proptest cases fast, long enough for repairs (30 s below) to come due
/// and re-enter the pool mid-run.
const HORIZON_SECS: u64 = 120;

/// Random recovery-machinery failure rates, up to an aggressive 50% per
/// opportunity.
fn machinery() -> impl Strategy<Value = ChaosConfig> {
    (
        0.0f64..=0.5,
        0.0f64..=0.5,
        1u32..=3,
        0.0f64..=0.5,
        0.0f64..=0.5,
    )
        .prop_map(|(doa, reconfig, retries, conv, exon)| ChaosConfig {
            doa_rate: doa,
            reconfig_failure_rate: reconfig,
            max_reconfig_retries: retries,
            false_conviction_rate: conv,
            false_exoneration_rate: exon,
            ..ChaosConfig::off()
        })
}

/// Random workload-side chaos: each component independently on/off with
/// random knobs, so the strategy space includes quiet, single-component,
/// and everything-at-once profiles.
fn profile() -> impl Strategy<Value = ChaosProfile> {
    (
        prop::option::of(5u64..=60),
        0.0f64..=1.0,
        prop::option::of(20u64..=90),
        1.0f64..=4.0,
        0usize..=2,
    )
        .prop_map(
            |(poisson, node_frac, burst, burst_size, flaps)| ChaosProfile {
                poisson_interarrival: poisson.map(Duration::from_secs),
                poisson_node_fraction: node_frac,
                burst_interarrival: burst.map(Duration::from_secs),
                mean_burst_size: burst_size,
                flapping_links: flaps,
                flap_up_dwell: Duration::from_secs(20),
                flap_down_dwell: Duration::from_secs(5),
                mean_duration: Duration::from_secs(60),
                ..ChaosProfile::quiet()
            },
        )
}

/// Build a chaos-configured world plus its failure schedule (including
/// spurious keep-alive reports), all randomness drawn from `seed`'s child
/// streams. Short repair times so pools refill within the horizon.
fn build_world(
    k: usize,
    n: usize,
    seed: u64,
    profile: &ChaosProfile,
    machinery: ChaosConfig,
    mode: DegradedMode,
    spurious: usize,
) -> (ShareBackupWorld, Vec<(Time, SbEvent)>) {
    let rng = SimRng::seed_from_u64(seed).child("chaos-prop");
    let sb = ShareBackup::build(ShareBackupConfig::new(k, n));
    let cfg = ControllerConfig {
        retry_exhausted_on_repair: true,
        switch_repair_time: Duration::from_secs(30),
        host_repair_time: Duration::from_secs(45),
        ..ControllerConfig::default()
    };
    let controller = Controller::with_chaos(sb, cfg, machinery, rng.child("machinery"));
    let probe = FatTree::build(FatTreeConfig::new(k));
    let injector = FailureInjector::new(&probe.net);
    let horizon = Time::from_secs(HORIZON_SECS);
    let events = injector.chaos_process(&rng.child("schedule"), &probe.net, horizon, profile);
    let world = ShareBackupWorld::new(controller, vec![]).with_degraded_mode(mode);
    let mut failures = map_chaos_schedule(&world.controller.sb, &probe.net, &events);
    if spurious > 0 {
        let mut r = rng.child("spurious");
        for _ in 0..spurious {
            let at = Time::from_secs_f64(r.f64() * HORIZON_SECS as f64);
            let node = injector.sample_nodes(&mut r, 1)[0];
            if let Some(slot) = world.controller.sb.node_slot(node) {
                let occ = world.controller.sb.occupant(slot);
                failures.push((at, SbEvent::SpuriousReport(occ)));
            }
        }
    }
    failures.sort_by_key(|&(t, _)| t);
    (world, failures)
}

/// Two waves of host-to-host flows with rotating partners — enough traffic
/// that every pod has flows in flight through the outage windows.
fn traffic(hosts: &[NodeId]) -> Vec<FlowSpec> {
    let h = hosts.len();
    let mut flows = Vec::with_capacity(2 * h);
    for w in 0..2usize {
        let at = Time::from_secs(w as u64 * HORIZON_SECS / 3);
        let offset = 1 + (w * (h / 4 + 1)) % (h - 1);
        for i in 0..h {
            flows.push(FlowSpec {
                key: FlowKey::new(hosts[i], hosts[(i + offset) % h], (w * h + i) as u64),
                bytes: 12_500_000, // 10 ms at 10 G
                arrival: at,
            });
        }
    }
    flows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole safety property: drive the controller through a random
    /// chaos schedule and re-verify the network's structural invariants
    /// (slot-occupancy bijectivity, crossbar matchings, circuit
    /// realization) plus the stats counter equations after EVERY
    /// transition — each injection, each recovery batch, each repair poll.
    #[test]
    fn invariants_hold_after_every_transition(
        seed in any::<u64>(),
        n in 1usize..=2,
        machinery in machinery(),
        profile in profile(),
        spurious in 0usize..=2,
    ) {
        let (mut world, failures) =
            build_world(4, n, seed, &profile, machinery, DegradedMode::Reroute, spurious);
        let (events, times) = sharebackup_timeline(&world, &failures);
        world.events = events;
        for (i, &t) in times.iter().enumerate() {
            world.on_epoch(i, t);
            world.controller.sb.check_invariants();
            world.controller.stats.assert_consistent();
        }
    }

    /// No silent blackholes: run real traffic through the chaos schedule
    /// under both degraded-mode policies. Every flow's fate must be
    /// explicit — completed, visibly stalled at some point (`ever_stalled`),
    /// or accounted in the degraded tracker. A flow that neither finishes
    /// nor shows up in either record has been silently dropped.
    #[test]
    fn no_flow_silently_blackholed(
        seed in any::<u64>(),
        n in 1usize..=2,
        stall in any::<bool>(),
        machinery in machinery(),
        profile in profile(),
        spurious in 0usize..=2,
    ) {
        let mode = if stall { DegradedMode::Stall } else { DegradedMode::Reroute };
        let (mut world, failures) =
            build_world(4, n, seed, &profile, machinery, mode, spurious);
        let (events, times) = sharebackup_timeline(&world, &failures);
        world.events = events;
        let hosts: Vec<NodeId> = world.controller.sb.slots.hosts().to_vec();
        let flows = traffic(&hosts);
        let out = FlowSim::new().run(&mut world, &flows, &times);
        world.controller.sb.check_invariants();
        world.controller.stats.assert_consistent();
        for (spec, fo) in flows.iter().zip(out.flows.iter()) {
            prop_assert!(
                fo.completed.is_some()
                    || fo.ever_stalled
                    || world.tracker.contains(spec.key.id),
                "flow {} silently blackholed: not completed, never stalled, \
                 not in the degraded tracker",
                spec.key.id
            );
        }
    }

    /// Replaying the same seed reproduces the exact same counters: chaos
    /// draws only from the passed-in `SimRng` streams, never from ambient
    /// entropy.
    #[test]
    fn chaos_replay_is_deterministic(
        seed in any::<u64>(),
        machinery in machinery(),
        profile in profile(),
    ) {
        let run = || {
            let (mut world, failures) =
                build_world(4, 1, seed, &profile, machinery, DegradedMode::Reroute, 1);
            let (events, times) = sharebackup_timeline(&world, &failures);
            world.events = events;
            for (i, &t) in times.iter().enumerate() {
                world.on_epoch(i, t);
            }
            world.controller.stats
        };
        prop_assert_eq!(run(), run());
    }
}
