//! Longitudinal availability: a week of Poisson failures, ShareBackup vs a
//! rerouting fat-tree, measured as capacity-hours and host-reachability.
//!
//! Usage: `longrun_availability [--k 8] [--n 1] [--seed 42] [--mode hostile|realistic] [--jobs N] [--json]`
//!
//! The paper's pitch in one number: under rerouting, every failure costs
//! its *full outage duration* in lost capacity (and an edge failure
//! strands k/2 hosts for minutes); under ShareBackup each failure costs
//! ~1.3 ms. Integrated over time, the rerouting fabric runs measurably
//! degraded while ShareBackup's availability is indistinguishable from a
//! failure-free network.

use sharebackup_bench::{parallel_map_indexed, Args};
use sharebackup_core::scenario::{map_chaos_schedule, sharebackup_timeline, ShareBackupWorld};
use sharebackup_core::{Controller, ControllerConfig};
use sharebackup_flowsim::properties::total_usable_capacity;
use sharebackup_flowsim::Environment;
use sharebackup_sim::{Duration, SimRng, Time};
use sharebackup_topo::{
    FatTree, FatTreeConfig, Network, NodeKind, ShareBackup, ShareBackupConfig,
};
use sharebackup_workload::{FailureEvent, FailureInjector};

const WEEK: u64 = 7 * 24 * 3600;

struct Tally {
    capacity_integral: f64, // bps·s of usable capacity
    full_capacity: f64,
    stranded_host_seconds: f64,
    failures: usize,
    unmasked: usize,
}

impl Tally {
    fn new(net: &Network, failures: usize) -> Tally {
        Tally {
            capacity_integral: 0.0,
            full_capacity: total_usable_capacity(net),
            stranded_host_seconds: 0.0,
            failures,
            unmasked: 0,
        }
    }

    /// Charge `net`'s current state over `[from, to)`.
    fn integrate(&mut self, net: &Network, from: Time, to: Time) {
        let dt = to.saturating_since(from).as_secs_f64();
        self.capacity_integral += total_usable_capacity(net) * dt;
        self.stranded_host_seconds += stranded_hosts(net) as f64 * dt;
    }

    fn availability(&self) -> f64 {
        self.capacity_integral / (self.full_capacity * WEEK as f64)
    }
}

/// Hosts currently cut off (their edge switch or host link is down).
fn stranded_hosts(net: &Network) -> usize {
    net.node_ids()
        .filter(|&h| net.node(h).kind == NodeKind::Host)
        .filter(|&h| {
            !net
                .incident(h)
                .iter()
                .any(|&l| net.link_usable(l))
        })
        .count()
}

/// The week of failures both systems replay: the same seed and process
/// against the same fat-tree wiring.
fn week_of_failures(
    net: &Network,
    seed: u64,
    mtbf: Duration,
    outage: Duration,
) -> Vec<FailureEvent> {
    let mut rng = SimRng::seed_from_u64(seed);
    FailureInjector::new(net).poisson_process(
        &mut rng,
        Time::from_secs(WEEK),
        mtbf,
        outage,
        0.7, // mostly node failures
    )
}

fn run_fattree(k: usize, seed: u64, mtbf: Duration, outage: Duration) -> Tally {
    let mut ft = FatTree::build(FatTreeConfig::new(k));
    let events = week_of_failures(&ft.net, seed, mtbf, outage);
    // Build a merged chronological change list: (time, apply/revert).
    let mut changes = Vec::new();
    for ev in &events {
        changes.push((ev.at, ev.kind, true));
        changes.push((ev.repaired_at().min(Time::from_secs(WEEK)), ev.kind, false));
    }
    changes.sort_by_key(|&(t, _, _)| t);
    let mut tally = Tally::new(&ft.net, events.len());
    tally.unmasked = events.len(); // every failure runs its full outage
    let mut last = Time::ZERO;
    for (t, kind, apply) in changes {
        tally.integrate(&ft.net, last, t);
        if apply {
            FailureInjector::apply(&mut ft.net, kind);
        } else {
            FailureInjector::repair(&mut ft.net, kind);
        }
        last = t;
    }
    tally.integrate(&ft.net, last, Time::from_secs(WEEK));
    tally
}

/// Replay the week through a [`ShareBackupWorld`]: every failure takes its
/// slot down until the world's `Recover` epoch swaps in a backup, so the
/// recovery blip (and any pool-exhaustion window) lands in the capacity
/// integral from the slot state alone. Failures name the *initial*
/// occupants ([`map_chaos_schedule`]), so one that hits a switch since
/// swapped out of its slot downs a spare and costs no capacity.
fn run_sharebackup(k: usize, n: usize, seed: u64, mtbf: Duration, outage: Duration) -> Tally {
    let sb = ShareBackup::build(ShareBackupConfig::new(k, n));
    let cfg = ControllerConfig {
        switch_repair_time: outage, // same technician model as the baseline
        ..ControllerConfig::default()
    };
    let mut world = ShareBackupWorld::new(Controller::new(sb, cfg), vec![]);
    // Same failure schedule as the baseline, phrased against the physical
    // occupants of the same structural positions.
    let probe = FatTree::build(FatTreeConfig::new(k));
    let events = week_of_failures(&probe.net, seed, mtbf, outage);
    let failures = map_chaos_schedule(&world.controller.sb, &probe.net, &events);
    let (epochs, times) = sharebackup_timeline(&world, &failures);
    world.events = epochs;
    let end = Time::from_secs(WEEK);
    let mut tally = Tally::new(&world.controller.sb.slots.net, failures.len());
    let mut last = Time::ZERO;
    for (i, &t) in times.iter().enumerate().take_while(|&(_, &t)| t <= end) {
        tally.integrate(&world.controller.sb.slots.net, last, t);
        world.on_epoch(i, t);
        last = t;
    }
    tally.integrate(&world.controller.sb.slots.net, last, end);
    tally.unmasked = world
        .recoveries
        .iter()
        .filter(|done| !done.recovery.fully_recovered())
        .count();
    tally
}

fn main() {
    let mut defaults = Args::paper_defaults();
    defaults.k = 8;
    defaults.mode = "hostile".to_string();
    let args = Args::parse(defaults);
    // Hostile: a failure every 2 hours somewhere in this little k=8 network
    // (per-device MTBF of ~12 days). Realistic would be weeks per device;
    // hostile makes the week eventful enough to measure.
    let (mtbf, outage) = match args.mode.as_str() {
        "hostile" => (Duration::from_secs(2 * 3600), Duration::from_secs(300)),
        "realistic" => (Duration::from_secs(12 * 3600), Duration::from_secs(300)),
        other => {
            eprintln!("--mode must be hostile or realistic, got {other}");
            std::process::exit(2);
        }
    };

    // Both systems replay the same week of failures from the same seed but
    // never share state, so the two runs fan out across `--jobs` threads.
    let mut runs = parallel_map_indexed(args.jobs, 2, |i| {
        if i == 0 {
            run_fattree(args.k, args.seed, mtbf, outage)
        } else {
            run_sharebackup(args.k, args.n, args.seed, mtbf, outage)
        }
    });
    let sb = runs.pop().expect("two runs");
    let ft = runs.pop().expect("two runs");

    if args.json {
        println!(
            "{}",
            minijson::to_string_pretty(&minijson::json!([
                {
                    "system": "fat-tree (rerouting)",
                    "failures": ft.failures,
                    "unmasked": ft.unmasked,
                    "capacity_availability": ft.availability(),
                    "stranded_host_hours": ft.stranded_host_seconds / 3600.0,
                },
                {
                    "system": "ShareBackup",
                    "failures": sb.failures,
                    "unmasked": sb.unmasked,
                    "capacity_availability": sb.availability(),
                    "stranded_host_hours": sb.stranded_host_seconds / 3600.0,
                }
            ]))
            .expect("json")
        );
        return;
    }

    println!(
        "One week, k={}, MTBF {} per network, outages {} — capacity availability",
        args.k, mtbf, outage
    );
    println!(
        "{:<24} {:>9} {:>9} {:>22} {:>20}",
        "system", "failures", "unmasked", "capacity availability", "stranded host-hours"
    );
    for (name, t) in [("fat-tree (rerouting)", &ft), ("ShareBackup", &sb)] {
        println!(
            "{:<24} {:>9} {:>9} {:>21.6}% {:>20.2}",
            name,
            t.failures,
            t.unmasked,
            100.0 * t.availability(),
            t.stranded_host_seconds / 3600.0,
        );
    }
    println!();
    println!("rerouting eats every outage in full; ShareBackup's cost is ~1.3 ms per");
    println!("failure (plus any pool-exhaustion window), and no host is ever stranded");
    println!("unless the pool runs dry.");
}
