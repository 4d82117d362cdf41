//! Longitudinal availability: a week of Poisson failures, ShareBackup vs a
//! rerouting fat-tree, measured as capacity-hours and host-reachability.
//!
//! The paper's pitch in one number: under rerouting, every failure costs
//! its *full outage duration* in lost capacity (and an edge failure
//! strands k/2 hosts for minutes); under ShareBackup each failure costs
//! ~1.3 ms. Integrated over time, the rerouting fabric runs measurably
//! degraded while ShareBackup's availability is indistinguishable from a
//! failure-free network.

use super::Output;
use crate::report::Format::{Fixed, Int, Text};
use crate::report::{self, num, Check, Column};
use crate::{parallel_map_indexed, Cli};
use minijson::Value;
use sharebackup_core::scenario::{map_chaos_schedule, sharebackup_timeline, ShareBackupWorld};
use sharebackup_core::{Controller, ControllerConfig};
use sharebackup_flowsim::properties::total_usable_capacity;
use sharebackup_flowsim::Environment;
use sharebackup_sim::{Duration, SimRng, Time};
use sharebackup_topo::{FatTree, FatTreeConfig, Network, NodeKind, ShareBackup, ShareBackupConfig};
use sharebackup_workload::{FailureEvent, FailureInjector};
use std::fmt::Write;

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
        .filter(|&h| !net.incident(h).iter().any(|&l| net.link_usable(l)))
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

/// Run the harness on `cli`'s flags.
pub fn run(cli: &mut Cli) -> Output {
    let k = cli.k(8);
    let n: usize = cli.get("n", 1);
    let seed: u64 = cli.get("seed", 42);
    let mode = cli.choice("mode", &["hostile", "realistic"]);
    let jobs = cli.jobs();
    cli.finish();
    // Hostile: a failure every 2 hours somewhere in this little k=8 network
    // (per-device MTBF of ~12 days). Realistic would be weeks per device;
    // hostile makes the week eventful enough to measure.
    let mtbf_hours = if mode == "hostile" { 2 } else { 12 };
    let mtbf = Duration::from_secs(mtbf_hours * 3600);
    let outage = Duration::from_secs(300);

    // Both systems replay the same week of failures from the same seed but
    // never share state, so the two runs fan out across `--jobs` threads.
    let runs = parallel_map_indexed(jobs, 2, |i| {
        if i == 0 {
            run_fattree(k, seed, mtbf, outage)
        } else {
            run_sharebackup(k, n, seed, mtbf, outage)
        }
    });
    let rows: Vec<Value> = ["fat-tree (rerouting)", "ShareBackup"]
        .iter()
        .zip(&runs)
        .map(|(system, t)| {
            minijson::json!({
                "system": system,
                "failures": t.failures,
                "unmasked": t.unmasked,
                "capacity_availability": t.availability(),
                "stranded_host_hours": t.stranded_host_seconds / 3600.0,
            })
        })
        .collect();
    let mut text = report::header(
        &format!("One week, MTBF {mtbf} per network, outages {outage} — capacity availability"),
        cli,
    );
    text += &report::table(&COLUMNS, &rows);
    text.push('\n');
    let _ = writeln!(
        text,
        "rerouting eats every outage in full; ShareBackup's cost is ~1.3 ms per\n\
         failure (plus any pool-exhaustion window)."
    );
    Output::new(text, &rows, vec![stranding(&rows, k)])
}

/// An edge failure strands its k/2 hosts until the slot is recovered, so
/// with a backup for every failure a failure strands at most k/2 hosts for
/// ~1.3 ms; only an exhausted pool strands hosts for a whole outage.
fn stranding(rows: &[Value], k: usize) -> Check {
    let (ft, sb) = (&rows[0], &rows[1]);
    let host_ms = |r: &Value| 3.6e6 * num(r, "stranded_host_hours") / num(r, "failures");
    let bound = (k / 2) as f64 * 1.3;
    Check::new(
        "§4.1",
        "unless the pool runs dry, a failure strands hosts only for the ~1.3 ms recovery",
        num(sb, "unmasked") > 0.0 || host_ms(sb) <= bound || report::approx(host_ms(sb), bound),
        format!(
            "{:.2} host-ms per failure, at most {bound:.1} (k/2 hosts x 1.3 ms); rerouting {:.0}",
            host_ms(sb),
            host_ms(ft)
        ),
    )
}

const COLUMNS: [Column; 5] = [
    Column::new("system", "system", Text),
    Column::new("failures", "failures", Int),
    Column::new("unmasked", "unmasked", Int),
    Column::new(
        "capacity availability",
        "capacity_availability",
        Fixed(8, ""),
    ),
    Column::new("stranded host-hours", "stranded_host_hours", Fixed(2, "")),
];
