//! Controller failover: what the replicated control plane costs and buys
//! when the controller itself is the thing that fails.
//!
//! Usage: `controller_failover [--k 4] [--n 1] [--seed 42] [--trials 2]
//! [--mode sweep|digest|demo] [--jobs N] [--json]`
//!
//! Sweeps replica count × election time × control-message loss rate under
//! a Poisson node-failure workload plus a Poisson controller-crash/restore
//! schedule (its own `"chaos-controller"` stream). Every data-plane
//! failure travels through the `FailoverPlane`: reports are journaled,
//! control messages are lost and retried with bounded backoff, a primary
//! crash blacks recovery out until a successor is elected, and the
//! successor re-drives the journal idempotently. Reports recovery-latency
//! inflation (channel penalties relative to the closed-form ShareBackup
//! latency), recovered dwell (report → completion, i.e. blackout + retry
//! deferral), and the dwell of failures still unrecovered at the horizon —
//! nothing is silently dropped.
//!
//! `--mode digest` prints a deterministic one-line-per-cell digest (CI
//! byte-diffs it across `--jobs` values); `--mode demo` crashes the
//! primary at the diagnosis → reconfiguration boundary of a live recovery
//! and shows the successor finishing it after exactly the closed-form
//! blackout.

#![allow(clippy::cast_possible_truncation)] // bounded grid/percent arithmetic
use sharebackup_bench::{parallel_map_indexed, Args};
use sharebackup_core::failover::{FailoverConfig, FailoverPlane, RecoveryPhase};
use sharebackup_core::scenario::{
    map_chaos_schedule, sharebackup_timeline, SbEvent, ShareBackupWorld,
};
use sharebackup_core::{ChaosConfig, Controller, ControllerConfig, ControllerStats};
use sharebackup_flowsim::{FlowSim, FlowSpec};
use sharebackup_routing::{DegradedMode, FlowKey};
use sharebackup_sim::{Duration, SimRng, Time};
use sharebackup_topo::{FatTree, FatTreeConfig, GroupId, NodeId, ShareBackupConfig};
use sharebackup_topo::ShareBackup;
use sharebackup_workload::{controller_crash_process, ChaosProfile, FailureInjector};

/// Whole milliseconds of a duration (labels and digest keys).
fn ms(d: Duration) -> u64 {
    d.as_nanos() / 1_000_000
}

/// Virtual time covered by each sweep trial.
const HORIZON_SECS: u64 = 300;
/// A fresh wave of flows starts this often.
const WAVE_EVERY_SECS: u64 = 30;
/// Bytes per flow: 1 Gbit, ~0.1 s on an idle 10 G link.
const FLOW_BYTES: u64 = 125_000_000;
/// A flow finishing more than this long after arrival counts against
/// availability.
const LATE_SECS: u64 = 5;

/// One sweep cell: a control-plane configuration.
#[derive(Clone, Copy)]
struct CellCfg {
    replicas: usize,
    election: Duration,
    loss: f64,
}

fn grid() -> Vec<CellCfg> {
    let mut cells = Vec::new();
    for &replicas in &[1usize, 2, 3] {
        for &election_ms in &[10u64, 50] {
            for &loss in &[0.0f64, 0.2] {
                cells.push(CellCfg {
                    replicas,
                    election: Duration::from_millis(election_ms),
                    loss,
                });
            }
        }
    }
    cells
}

/// Waves of host-to-host flows covering the horizon (same shape as the
/// chaos_availability harness).
fn traffic(hosts: &[NodeId], horizon_secs: u64, wave_secs: u64) -> Vec<FlowSpec> {
    let h = hosts.len();
    let waves = usize::try_from(horizon_secs / wave_secs).expect("wave count fits usize");
    let mut flows = Vec::with_capacity(waves * h);
    for w in 0..waves {
        let at = Time::from_secs(wave_secs * w as u64);
        let offset = 1 + (w * (h / 4 + 1)) % (h - 1);
        for i in 0..h {
            flows.push(FlowSpec {
                key: FlowKey::new(hosts[i], hosts[(i + offset) % h], (w * h + i) as u64),
                bytes: FLOW_BYTES,
                arrival: at,
            });
        }
    }
    flows
}

/// Everything one trial reports, plain data so trials fan out across
/// threads and collect in trial order.
#[derive(Clone, Default)]
struct TrialOut {
    flows: u64,
    completed: u64,
    late: u64,
    stalled: u64,
    degraded_flows: u64,
    /// Data-plane failures injected / controller crashes scheduled.
    injected: u64,
    crashes_scheduled: u64,
    /// Recoveries completed through the plane.
    recovered: u64,
    /// Failures still journaled (visibly unrecovered) at the horizon.
    pending_end: u64,
    /// Sum over completed recoveries of (completed − reported), seconds.
    dwell_sum_s: f64,
    /// Worst dwell seen, completed or still pending at the horizon.
    dwell_max_s: f64,
    /// Sum over pending entries of (horizon − reported), seconds.
    pending_dwell_s: f64,
    /// Sum of per-recovery modeled latency (includes channel penalties).
    latency_sum_s: f64,
    stats: ControllerStats,
}

impl TrialOut {
    fn add(&mut self, other: &TrialOut) {
        self.flows += other.flows;
        self.completed += other.completed;
        self.late += other.late;
        self.stalled += other.stalled;
        self.degraded_flows += other.degraded_flows;
        self.injected += other.injected;
        self.crashes_scheduled += other.crashes_scheduled;
        self.recovered += other.recovered;
        self.pending_end += other.pending_end;
        self.dwell_sum_s += other.dwell_sum_s;
        self.dwell_max_s = self.dwell_max_s.max(other.dwell_max_s);
        self.pending_dwell_s += other.pending_dwell_s;
        self.latency_sum_s += other.latency_sum_s;
        self.stats += other.stats;
    }

    fn availability(&self) -> f64 {
        if self.flows == 0 {
            return 1.0;
        }
        1.0 - self.late as f64 / self.flows as f64
    }

    fn mean_dwell_ms(&self) -> f64 {
        if self.recovered == 0 {
            return 0.0;
        }
        1e3 * self.dwell_sum_s / self.recovered as f64
    }

    /// Mean modeled recovery latency relative to `base` (1.0 = no channel
    /// penalty at all).
    fn latency_inflation(&self, base: Duration) -> f64 {
        if self.recovered == 0 {
            return 1.0;
        }
        (self.latency_sum_s / self.recovered as f64) / base.as_secs_f64()
    }
}

/// One sweep trial: fresh world with a failover plane, Poisson node
/// failures + Poisson controller crashes from the trial's own child
/// streams, waves of traffic, full accounting.
fn run_trial(k: usize, n: usize, seed: u64, cell: CellCfg, trial: usize) -> TrialOut {
    let rng = SimRng::seed_from_u64(seed).child(&format!(
        "failover-r{}-e{}-l{}-{}",
        cell.replicas,
        ms(cell.election),
        (cell.loss * 100.0) as u64,
        trial
    ));
    let sb = ShareBackup::build(ShareBackupConfig::new(k, n));
    let controller = Controller::new(sb, ControllerConfig::default());
    let fcfg = FailoverConfig {
        replicas: cell.replicas,
        election_time: cell.election,
        ..FailoverConfig::default()
    };
    let machinery = ChaosConfig {
        control_loss_rate: cell.loss,
        // Beyond the scheduled Poisson crashes, the primary can also die
        // *mid-recovery* at a phase boundary — the case the journal +
        // reconciliation machinery exists for.
        controller_crash_rate: 0.1,
        ..ChaosConfig::off()
    };
    let plane = FailoverPlane::with_chaos(fcfg, machinery, rng.child("control-chaos"));
    let mut world = ShareBackupWorld::new(controller, vec![])
        .with_degraded_mode(DegradedMode::Reroute)
        .with_failover(plane);

    let probe = FatTree::build(FatTreeConfig::new(k));
    let injector = FailureInjector::new(&probe.net);
    let horizon = Time::from_secs(HORIZON_SECS);
    let schedule_rng = rng.child("schedule");
    let data_profile = ChaosProfile {
        poisson_interarrival: Some(Duration::from_secs(45)),
        poisson_node_fraction: 1.0,
        ..ChaosProfile::quiet()
    };
    let data = injector.chaos_process(&schedule_rng, &probe.net, horizon, &data_profile);
    let mut failures = map_chaos_schedule(&world.controller.sb, &probe.net, &data);
    let injected = failures.len() as u64;
    let crash_profile = ChaosProfile {
        controller_crash_interarrival: Some(Duration::from_secs(60)),
        controller_crash_dwell: Duration::from_secs(20),
        ..ChaosProfile::quiet()
    };
    let crashes = controller_crash_process(&schedule_rng, horizon, cell.replicas, &crash_profile);
    let crashes_scheduled = crashes.len() as u64;
    for ev in &crashes {
        failures.push((ev.at, SbEvent::ControllerCrash(ev.replica)));
        failures.push((ev.restored_at(), SbEvent::ControllerRestore(ev.replica)));
    }
    failures.sort_by_key(|&(t, _)| t);

    let (events, times) = sharebackup_timeline(&world, &failures);
    world.events = events;
    let flows = traffic(probe.hosts(), HORIZON_SECS, WAVE_EVERY_SECS);
    let sim_out = FlowSim::new().run(&mut world, &flows, &times);

    let late_after = Duration::from_secs(LATE_SECS);
    let mut out = TrialOut {
        flows: flows.len() as u64,
        injected,
        crashes_scheduled,
        ..TrialOut::default()
    };
    for (spec, fo) in flows.iter().zip(&sim_out.flows) {
        match fo.completed {
            Some(t) => {
                out.completed += 1;
                if t.since(spec.arrival) > late_after {
                    out.late += 1;
                }
            }
            None => out.late += 1,
        }
        if fo.ever_stalled {
            out.stalled += 1;
        }
    }
    out.degraded_flows = world.tracker.degraded_count() as u64;

    out.recovered = world.recoveries.len() as u64;
    for done in &world.recoveries {
        let dwell = done.completed_at.since(done.reported_at).as_secs_f64();
        out.dwell_sum_s += dwell;
        out.dwell_max_s = out.dwell_max_s.max(dwell);
        out.latency_sum_s += done.recovery.latency.as_secs_f64();
    }
    for pending in world.failover.pending() {
        let dwell = horizon.saturating_since(pending.reported_at).as_secs_f64();
        out.pending_end += 1;
        out.pending_dwell_s += dwell;
        out.dwell_max_s = out.dwell_max_s.max(dwell);
    }
    out.stats = world.controller.stats;
    out
}

/// Aggregated sweep cell.
struct Cell {
    cfg: CellCfg,
    base_latency: Duration,
    agg: TrialOut,
}

fn sweep(args: &Args) -> Vec<Cell> {
    let cells = grid();
    let trials = args.trials;
    let total = cells.len() * trials;
    let (k, n, seed) = (args.k, args.n, args.seed);
    let results = parallel_map_indexed(args.jobs, total, |i| {
        run_trial(k, n, seed, cells[i / trials], i % trials)
    });
    // The closed-form ShareBackup latency the inflation is measured
    // against is deployment-level, not cell-level.
    let probe_world = ShareBackupWorld::new(
        Controller::new(
            ShareBackup::build(ShareBackupConfig::new(k, n)),
            ControllerConfig::default(),
        ),
        vec![],
    );
    let base_latency = probe_world.recovery_latency();
    cells
        .iter()
        .enumerate()
        .map(|(ci, &cfg)| {
            let mut agg = TrialOut::default();
            for r in &results[ci * trials..(ci + 1) * trials] {
                agg.add(r);
            }
            Cell {
                cfg,
                base_latency,
                agg,
            }
        })
        .collect()
}

fn print_digest(cells: &[Cell]) {
    for c in cells {
        let a = &c.agg;
        let s = &a.stats;
        println!(
            "replicas={} election_ms={} loss={:.2} flows={} completed={} late={} \
             stalled={} degraded={} avail={:.6} injected={} crashes_sched={} \
             recovered={} pending_end={} dwell_mean_ms={:.6} dwell_max_ms={:.6} \
             pending_dwell_s={:.6} inflation={:.6} crashes={} restores={} \
             elections={} reports={} resumed={} losses={} retries={} exhausted={} \
             delays={} repl={} fb={}",
            c.cfg.replicas,
            ms(c.cfg.election),
            c.cfg.loss,
            a.flows,
            a.completed,
            a.late,
            a.stalled,
            a.degraded_flows,
            a.availability(),
            a.injected,
            a.crashes_scheduled,
            a.recovered,
            a.pending_end,
            a.mean_dwell_ms(),
            1e3 * a.dwell_max_s,
            a.pending_dwell_s,
            a.latency_inflation(c.base_latency),
            s.controller_crashes,
            s.controller_restores,
            s.elections,
            s.control_reports,
            s.recoveries_resumed,
            s.control_losses,
            s.control_retries,
            s.control_exhausted,
            s.control_delays,
            s.replacements,
            s.fallbacks,
        );
    }
}

fn cells_json(cells: &[Cell]) -> String {
    let items: Vec<minijson::Value> = cells
        .iter()
        .map(|c| {
            let a = &c.agg;
            let s = &a.stats;
            minijson::json!({
                "replicas": c.cfg.replicas,
                "election_ms": ms(c.cfg.election),
                "control_loss": c.cfg.loss,
                "flows": a.flows,
                "completed": a.completed,
                "late": a.late,
                "stalled": a.stalled,
                "degraded_flows": a.degraded_flows,
                "availability": a.availability(),
                "failures_injected": a.injected,
                "controller_crashes_scheduled": a.crashes_scheduled,
                "recovered": a.recovered,
                "unrecovered_at_horizon": a.pending_end,
                "dwell_mean_ms": a.mean_dwell_ms(),
                "dwell_max_ms": 1e3 * a.dwell_max_s,
                "unrecovered_dwell_s": a.pending_dwell_s,
                "latency_inflation": a.latency_inflation(c.base_latency),
                "elections": s.elections,
                "recoveries_resumed": s.recoveries_resumed,
                "control_losses": s.control_losses,
                "control_retries": s.control_retries,
                "control_exhausted": s.control_exhausted,
            })
        })
        .collect();
    minijson::to_string_pretty(&minijson::Value::Array(items)).expect("json")
}

fn print_table(args: &Args, cells: &[Cell]) {
    println!(
        "Controller failover, k={} n={} seed={} — {} s horizon, {} trials per cell",
        args.k, args.n, args.seed, HORIZON_SECS, args.trials
    );
    println!(
        "{:>4} {:>8} {:>5} {:>7} {:>5} {:>5} {:>9} {:>8} {:>10} {:>10} {:>5} {:>7} {:>6}",
        "repl", "elect", "loss", "avail%", "recov", "pend", "dwell(ms)", "max(ms)",
        "unrec-s", "inflation", "elec", "retries", "resume"
    );
    for c in cells {
        let a = &c.agg;
        println!(
            "{:>4} {:>6}ms {:>5.2} {:>6.2}% {:>5} {:>5} {:>9.2} {:>8.1} {:>10.2} {:>10.4} {:>5} {:>7} {:>6}",
            c.cfg.replicas,
            ms(c.cfg.election),
            c.cfg.loss,
            100.0 * a.availability(),
            a.recovered,
            a.pending_end,
            a.mean_dwell_ms(),
            1e3 * a.dwell_max_s,
            a.pending_dwell_s,
            a.latency_inflation(c.base_latency),
            a.stats.elections,
            a.stats.control_retries,
            a.stats.recoveries_resumed,
        );
    }
    println!();
    println!("dwell = report → completion (blackout + retry deferral); inflation = mean");
    println!("modeled recovery latency / closed-form ShareBackup latency (1.0 = free).");
    println!("A single replica turns every controller crash into a restore-bounded");
    println!("outage; replicas 2+ cap it at detection + election.");
}

/// The acceptance demo: the primary crashes exactly between diagnosis and
/// reconfiguration of a live recovery; the elected successor reconciles
/// the journal and completes it after the closed-form blackout.
fn demo(args: &Args) {
    let elections = [Duration::from_millis(10), Duration::from_millis(50)];
    let (k, n) = (args.k, args.n);
    let results = parallel_map_indexed(args.jobs, elections.len(), |i| {
        let election = elections[i];
        let sb = ShareBackup::build(ShareBackupConfig::new(k, n));
        let controller = Controller::new(sb, ControllerConfig::default());
        let fcfg = FailoverConfig {
            replicas: 3,
            election_time: election,
            ..FailoverConfig::default()
        };
        let blackout = fcfg.blackout();
        let mut plane = FailoverPlane::new(fcfg);
        plane.force_crash_at(RecoveryPhase::Diagnosed);
        let mut world = ShareBackupWorld::new(controller, vec![])
            .with_degraded_mode(DegradedMode::Reroute)
            .with_failover(plane);

        let victim = world.controller.sb.occupant(GroupId::agg(0).slot(0));
        let failures = vec![(Time::from_secs(5), SbEvent::NodeFail(victim))];
        let (mut events, mut times) = sharebackup_timeline(&world, &failures);
        // The forced crash fires inside the Recover epoch (no crash event
        // exists on the timeline), so schedule the resume poll ourselves:
        // exactly one blackout after the report reaches the plane.
        let resume_at = Time::from_secs(5) + world.recovery_latency() + blackout;
        let at = times.partition_point(|&t| t <= resume_at);
        times.insert(at, resume_at);
        events.insert(at, SbEvent::PollRepairs);
        world.events = events;
        let probe = FatTree::build(FatTreeConfig::new(k));
        let flows = traffic(probe.hosts(), 60, 10);
        let sim_out = FlowSim::new().run(&mut world, &flows, &times);

        let completed = sim_out.flows.iter().filter(|f| f.completed.is_some()).count();
        let dwell = world
            .recoveries
            .first()
            .map(|d| d.completed_at.since(d.reported_at))
            .unwrap_or(Duration::ZERO);
        (
            election,
            blackout,
            dwell,
            completed,
            flows.len(),
            world.recoveries.len(),
            world.controller.stats,
        )
    });

    if args.json {
        let items: Vec<minijson::Value> = results
            .iter()
            .map(|(election, blackout, dwell, completed, flows, recovered, stats)| {
                minijson::json!({
                    "election_ms": ms(*election),
                    "blackout_ms": blackout.as_millis_f64(),
                    "dwell_ms": dwell.as_millis_f64(),
                    "flows": *flows as u64,
                    "completed": *completed as u64,
                    "recovered": *recovered as u64,
                    "elections": stats.elections,
                    "recoveries_resumed": stats.recoveries_resumed,
                })
            })
            .collect();
        println!(
            "{}",
            minijson::to_string_pretty(&minijson::Value::Array(items)).expect("json")
        );
        return;
    }

    println!("Demo: primary crashes between diagnosis and reconfiguration (k={k}, 3 replicas)");
    println!(
        "{:>8} {:>12} {:>10} {:>10} {:>9} {:>5} {:>7}",
        "election", "blackout(ms)", "dwell(ms)", "completed", "recovered", "elec", "resumed"
    );
    for (election, blackout, dwell, completed, flows, recovered, stats) in &results {
        println!(
            "{:>6}ms {:>12} {:>10} {:>6}/{:<3} {:>9} {:>5} {:>7}",
            ms(*election),
            blackout.as_millis_f64(),
            dwell.as_millis_f64(),
            completed,
            flows,
            recovered,
            stats.elections,
            stats.recoveries_resumed,
        );
    }
    println!();
    println!("The recovery's dwell equals the closed-form blackout (heartbeat worst case");
    println!("+ election time): the successor resumed the journaled recovery the instant");
    println!("it took office — no failure was dropped, no backup double-assigned.");
}

fn main() {
    let mut defaults = Args::paper_defaults();
    defaults.k = 4;
    defaults.trials = 2;
    defaults.mode = "sweep".to_string();
    let args = Args::parse(defaults);
    match args.mode.as_str() {
        "demo" => demo(&args),
        "digest" => {
            let cells = sweep(&args);
            print_digest(&cells);
        }
        _ => {
            let cells = sweep(&args);
            if args.json {
                println!("{}", cells_json(&cells));
            } else {
                print_table(&args, &cells);
            }
        }
    }
}
