//! Chaos availability: what happens to ShareBackup's "no rerouting" pitch
//! when the *recovery machinery itself* misbehaves.
//!
//! Usage: `chaos_availability [--k 4] [--n 1] [--seed 42] [--trials 3]
//! [--mode sweep|digest|demo] [--jobs N] [--json] [--trace-out <path>]`
//!
//! Sweeps chaos profiles — correlated failure bursts inside a pod's fault
//! domain, link flapping, dead-on-arrival backups, circuit-reconfiguration
//! failures, diagnosis errors, spurious keep-alive reports — crossed with
//! the two degraded-mode policies (`stall`: the paper's behavior, flows on
//! a dead slot wait for repair; `reroute`: graceful degradation to global
//! rerouting with per-flow accounting). Reports flow availability, fallback
//! counts, retry/abort counters, and degraded flow-time.
//!
//! `--mode digest` prints a deterministic one-line-per-cell digest (CI
//! byte-diffs it across `--jobs` values); `--mode demo` runs the
//! pool-exhausting burst + 5% DOA scenario that shows `reroute` restoring
//! connectivity where `stall` reproduces the old unrecovered behavior.
//! With `--trace-out`, every retry, fallback, and flow-degraded decision
//! lands in the chrome-trace as a "chaos" instant.

use sharebackup_bench::{parallel_map_indexed, write_trace_files, Args};
use sharebackup_core::scenario::{
    map_chaos_schedule, sharebackup_timeline, SbEvent, ShareBackupWorld,
};
use sharebackup_core::{ChaosConfig, Controller, ControllerConfig, ControllerStats};
use sharebackup_flowsim::{FlowSim, FlowSpec};
use sharebackup_routing::{DegradedMode, FlowKey};
use sharebackup_sim::{Duration, SimRng, Time};
use sharebackup_telemetry::{TraceBuffer, Tracer};
use sharebackup_topo::{FatTree, FatTreeConfig, GroupId, NodeId, ShareBackup, ShareBackupConfig};
use sharebackup_workload::{ChaosProfile, FailureInjector};

/// Virtual time covered by each sweep trial.
const HORIZON_SECS: u64 = 600;
/// A fresh wave of flows starts this often.
const WAVE_EVERY_SECS: u64 = 30;
/// Bytes per flow: 1 Gbit, ~0.1 s on an idle 10 G link.
const FLOW_BYTES: u64 = 125_000_000;
/// A flow finishing more than this long after arrival counts against
/// availability (an unimpeded transfer takes well under a second).
const LATE_SECS: u64 = 5;

/// One chaos scenario: a workload-side failure schedule plus
/// recovery-machinery failure rates.
struct ChaosCase {
    name: &'static str,
    profile: ChaosProfile,
    machinery: ChaosConfig,
    /// Keep-alive losses: reports about healthy switches, uniform over the
    /// horizon.
    spurious_reports: usize,
}

fn cases() -> Vec<ChaosCase> {
    let quiet = ChaosProfile::quiet();
    let off = ChaosConfig::off();
    vec![
        // Control arm: must match a chaos-free run exactly.
        ChaosCase {
            name: "quiet",
            profile: quiet,
            machinery: off,
            spurious_reports: 0,
        },
        // Correlated bursts inside one fault domain (pod power feed).
        ChaosCase {
            name: "bursts",
            profile: ChaosProfile {
                burst_interarrival: Some(Duration::from_secs(150)),
                mean_burst_size: 3.0,
                ..quiet
            },
            machinery: off,
            spurious_reports: 0,
        },
        // Two links flapping: repeated reports on the same circuit switch
        // (can trip the §5.1 escalation threshold and halt recovery).
        ChaosCase {
            name: "flapping",
            profile: ChaosProfile {
                flapping_links: 2,
                ..quiet
            },
            machinery: off,
            spurious_reports: 0,
        },
        // Node failures with an unreliable repair path: DOA backups and
        // failing circuit reconfigurations.
        ChaosCase {
            name: "doa",
            profile: ChaosProfile {
                poisson_interarrival: Some(Duration::from_secs(90)),
                poisson_node_fraction: 1.0,
                ..quiet
            },
            machinery: ChaosConfig {
                doa_rate: 0.3,
                reconfig_failure_rate: 0.15,
                ..off
            },
            spurious_reports: 0,
        },
        // Link failures with lying diagnosis: healthy switches benched,
        // faulty ones returned to poison the pool.
        ChaosCase {
            name: "misdiagnosis",
            profile: ChaosProfile {
                poisson_interarrival: Some(Duration::from_secs(90)),
                poisson_node_fraction: 0.0,
                ..quiet
            },
            machinery: ChaosConfig {
                false_conviction_rate: 0.25,
                false_exoneration_rate: 0.25,
                ..off
            },
            spurious_reports: 0,
        },
        // Everything at once, at lower rates.
        ChaosCase {
            name: "full-chaos",
            profile: ChaosProfile {
                poisson_interarrival: Some(Duration::from_secs(120)),
                poisson_node_fraction: 0.7,
                burst_interarrival: Some(Duration::from_secs(200)),
                flapping_links: 1,
                ..quiet
            },
            machinery: ChaosConfig {
                doa_rate: 0.1,
                reconfig_failure_rate: 0.1,
                false_conviction_rate: 0.1,
                false_exoneration_rate: 0.1,
                ..off
            },
            spurious_reports: 2,
        },
    ]
}

fn mode_name(mode: DegradedMode) -> &'static str {
    match mode {
        DegradedMode::Stall => "stall",
        DegradedMode::Reroute => "reroute",
    }
}

/// Generate the chaos failure schedule for one trial, phrased as the
/// physical events the controller will see (see
/// [`sharebackup_core::scenario::map_chaos_schedule`] for the stale-report
/// caveat).
fn schedule(
    sb: &ShareBackup,
    probe: &FatTree,
    injector: &FailureInjector,
    rng: &SimRng,
    case: &ChaosCase,
) -> Vec<(Time, SbEvent)> {
    let horizon = Time::from_secs(HORIZON_SECS);
    let events = injector.chaos_process(rng, &probe.net, horizon, &case.profile);
    let mut out = map_chaos_schedule(sb, &probe.net, &events);
    if case.spurious_reports > 0 {
        let mut r = rng.child("chaos-spurious");
        for _ in 0..case.spurious_reports {
            let at = Time::from_secs_f64(r.f64() * HORIZON_SECS as f64);
            let node = injector.sample_nodes(&mut r, 1)[0];
            if let Some(slot) = sb.node_slot(node) {
                out.push((at, SbEvent::SpuriousReport(sb.occupant(slot))));
            }
        }
    }
    out.sort_by_key(|&(t, _)| t);
    out
}

/// Waves of host-to-host flows covering the horizon: every
/// `WAVE_EVERY_SECS` each host sends one flow to a rotating partner, so
/// every pod keeps traffic in flight through every outage window.
fn traffic(hosts: &[NodeId], horizon_secs: u64, wave_secs: u64) -> Vec<FlowSpec> {
    let h = hosts.len();
    let waves = usize::try_from(horizon_secs / wave_secs).expect("wave count fits usize");
    let mut flows = Vec::with_capacity(waves * h);
    for w in 0..waves {
        let at = Time::from_secs(wave_secs * w as u64);
        // Rotate partners across waves; stride h/4+1 walks across pods and
        // never maps a host to itself.
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
    stalled: u64,
    /// Flows finishing more than `LATE_SECS` after arrival, or never.
    late: u64,
    degraded_flows: u64,
    degraded_secs: f64,
    /// Sum of (completion − arrival) over completed flows, seconds.
    latency_sum: f64,
    injected: u64,
    stats: ControllerStats,
    trace: Option<TraceBuffer>,
}

impl TrialOut {
    fn add(&mut self, other: &TrialOut) {
        self.flows += other.flows;
        self.completed += other.completed;
        self.stalled += other.stalled;
        self.late += other.late;
        self.degraded_flows += other.degraded_flows;
        self.degraded_secs += other.degraded_secs;
        self.latency_sum += other.latency_sum;
        self.injected += other.injected;
        self.stats += other.stats;
    }

    /// Fraction of flows that finished on time.
    fn availability(&self) -> f64 {
        if self.flows == 0 {
            return 1.0;
        }
        1.0 - self.late as f64 / self.flows as f64
    }
}

/// Run one world (already loaded with a failure schedule and a degraded
/// mode) over `flows` and tally the outcome.
fn run_world(
    mut world: ShareBackupWorld,
    failures: &[(Time, SbEvent)],
    flows: &[FlowSpec],
    tracer: &Tracer,
) -> (TrialOut, ShareBackupWorld) {
    let (events, times) = sharebackup_timeline(&world, failures);
    world.events = events;
    let sim_out = FlowSim::new().run_traced(&mut world, flows, &times, tracer);
    let horizon = Time::from_secs(HORIZON_SECS);
    let end = sim_out
        .flows
        .iter()
        .filter_map(|f| f.completed)
        .max()
        .unwrap_or(horizon)
        .max(horizon);
    // A finished flow is no longer degraded: close its spell at completion
    // so degraded time measures time *spent running* on fallback paths.
    for (spec, fo) in flows.iter().zip(&sim_out.flows) {
        if let Some(t) = fo.completed {
            world.tracker.mark_normal(spec.key.id, t);
        }
    }
    world.tracker.finalize(end);

    let late_after = Duration::from_secs(LATE_SECS);
    let mut out = TrialOut {
        flows: flows.len() as u64,
        injected: failures.len() as u64,
        ..TrialOut::default()
    };
    for (spec, fo) in flows.iter().zip(&sim_out.flows) {
        match fo.completed {
            Some(t) => {
                out.completed += 1;
                let took = t.since(spec.arrival);
                out.latency_sum += took.as_secs_f64();
                if took > late_after {
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
    out.degraded_secs = world.tracker.total_degraded_time().as_secs_f64();
    out.stats = world.controller.stats;
    (out, world)
}

/// One sweep trial: fresh world, chaos schedule from the trial's own child
/// stream (shared by both degraded modes), waves of traffic, full
/// accounting.
fn run_trial(
    k: usize,
    n: usize,
    seed: u64,
    case: &ChaosCase,
    mode: DegradedMode,
    trial: usize,
    tracing: bool,
) -> TrialOut {
    // Keyed on (case, trial) only: both degraded modes replay one failure
    // schedule and one machinery stream, so the comparison is paired.
    let rng = SimRng::seed_from_u64(seed).child(&format!("chaos-{}-{}", case.name, trial));
    let sb = ShareBackup::build(ShareBackupConfig::new(k, n));
    let cfg = ControllerConfig {
        // The chaos harness exercises the full heal path: pools refilled by
        // repair immediately retry slots stranded by exhaustion or aborts.
        retry_exhausted_on_repair: true,
        ..ControllerConfig::default()
    };
    let mut controller = Controller::with_chaos(sb, cfg, case.machinery, rng.child("machinery"));
    let (tracer, sink) = if tracing {
        let (t, s) = Tracer::recording();
        (t, Some(s))
    } else {
        (Tracer::off(), None)
    };
    controller.tracer = tracer.clone();
    let world = ShareBackupWorld::new(controller, vec![]).with_degraded_mode(mode);

    let probe = FatTree::build(FatTreeConfig::new(k));
    let injector = FailureInjector::new(&probe.net);
    let failures = schedule(
        &world.controller.sb,
        &probe,
        &injector,
        &rng.child("schedule"),
        case,
    );
    let flows = traffic(probe.hosts(), HORIZON_SECS, WAVE_EVERY_SECS);
    let (mut out, _world) = run_world(world, &failures, &flows, &tracer);
    out.trace = sink.map(|s| s.borrow_mut().take());
    out
}

/// Aggregated sweep cell: one chaos case under one degraded mode.
struct Cell {
    case: &'static str,
    mode: &'static str,
    agg: TrialOut,
}

fn sweep(args: &Args) -> Vec<Cell> {
    let case_list = cases();
    let modes = [DegradedMode::Stall, DegradedMode::Reroute];
    let trials = args.trials;
    let total = case_list.len() * modes.len() * trials;
    let tracing = args.trace_out.is_some();
    let (k, n, seed) = (args.k, args.n, args.seed);
    let results = parallel_map_indexed(args.jobs, total, |i| {
        let case = &case_list[i / (modes.len() * trials)];
        let mode = modes[(i / trials) % modes.len()];
        run_trial(k, n, seed, case, mode, i % trials, tracing)
    });
    if let Some(path) = &args.trace_out {
        let pairs: Vec<(u64, &TraceBuffer)> = results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.trace.as_ref().map(|b| (i as u64, b)))
            .collect();
        write_trace_files(path, &pairs);
    }
    let mut cells = Vec::new();
    for (ci, case) in case_list.iter().enumerate() {
        for (mi, &mode) in modes.iter().enumerate() {
            let mut agg = TrialOut::default();
            let base = (ci * modes.len() + mi) * trials;
            for r in &results[base..base + trials] {
                agg.add(r);
            }
            cells.push(Cell {
                case: case.name,
                mode: mode_name(mode),
                agg,
            });
        }
    }
    cells
}

fn print_digest(cells: &[Cell]) {
    for c in cells {
        let a = &c.agg;
        let s = &a.stats;
        println!(
            "case={} mode={} flows={} completed={} late={} stalled={} degraded={} \
             dtime={:.6} avail={:.6} injected={} node={} link={} hostlink={} repl={} \
             fb={} doa={} retries={} aborts={} pool={} halted={} spur={} fconv={} \
             fexon={} esc={}",
            c.case,
            c.mode,
            a.flows,
            a.completed,
            a.late,
            a.stalled,
            a.degraded_flows,
            a.degraded_secs,
            a.availability(),
            a.injected,
            s.node_failures,
            s.link_failures,
            s.host_link_failures,
            s.replacements,
            s.fallbacks,
            s.doa_backups,
            s.reconfig_retries,
            s.reconfig_aborts,
            s.pool_exhausted,
            s.halted_fallbacks,
            s.spurious_reports,
            s.false_convictions,
            s.false_exonerations,
            s.escalations,
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
                "case": c.case,
                "mode": c.mode,
                "flows": a.flows,
                "completed": a.completed,
                "late": a.late,
                "stalled": a.stalled,
                "degraded_flows": a.degraded_flows,
                "degraded_flow_seconds": a.degraded_secs,
                "availability": a.availability(),
                "failures_injected": a.injected,
                "replacements": s.replacements,
                "fallbacks": s.fallbacks,
                "doa_backups": s.doa_backups,
                "reconfig_retries": s.reconfig_retries,
                "reconfig_aborts": s.reconfig_aborts,
                "pool_exhausted": s.pool_exhausted,
                "halted_fallbacks": s.halted_fallbacks,
                "spurious_reports": s.spurious_reports,
                "false_convictions": s.false_convictions,
                "false_exonerations": s.false_exonerations,
                "escalations": s.escalations,
            })
        })
        .collect();
    minijson::to_string_pretty(&minijson::Value::Array(items)).expect("json")
}

fn print_table(args: &Args, cells: &[Cell]) {
    println!(
        "Chaos availability, k={} n={} seed={} — {} s horizon, {} trials per cell",
        args.k, args.n, args.seed, HORIZON_SECS, args.trials
    );
    println!(
        "{:<14} {:<8} {:>7} {:>6} {:>6} {:>6} {:>10} {:>5} {:>5} {:>4} {:>5} {:>5} {:>5} {:>5} {:>4}",
        "case", "mode", "avail%", "late", "stall", "degr", "d-time(s)", "repl", "fb",
        "doa", "retry", "abort", "pool", "spur", "esc"
    );
    for c in cells {
        let a = &c.agg;
        let s = &a.stats;
        println!(
            "{:<14} {:<8} {:>6.2}% {:>6} {:>6} {:>6} {:>10.2} {:>5} {:>5} {:>4} {:>5} {:>5} {:>5} {:>5} {:>4}",
            c.case,
            c.mode,
            100.0 * a.availability(),
            a.late,
            a.stalled,
            a.degraded_flows,
            a.degraded_secs,
            s.replacements,
            s.fallbacks,
            s.doa_backups,
            s.reconfig_retries,
            s.reconfig_aborts,
            s.pool_exhausted,
            s.spurious_reports,
            s.escalations,
        );
    }
    println!();
    println!("stall = the paper's behavior (flows on a dead slot wait for repair);");
    println!("reroute = graceful degradation to global rerouting, every affected flow");
    println!("counted. The quiet rows are the control: both modes identical, no chaos");
    println!("counters, availability 100%.");
}

/// The acceptance demo: a pool-exhausting burst (both agg slots of pod 0,
/// n=1 — the second failure finds the pool empty) plus 5% DOA backups.
/// Under `stall` the affected flows reproduce the old unrecovered behavior
/// (stalled until the repair crew shows up); under `reroute` they all
/// complete on time over fallback paths, explicitly accounted.
fn demo(args: &Args) {
    let modes = [DegradedMode::Stall, DegradedMode::Reroute];
    let (k, n, seed) = (args.k, args.n, args.seed);
    let tracing = args.trace_out.is_some();
    let results = parallel_map_indexed(args.jobs, modes.len(), |i| {
        let mode = modes[i];
        // One stream for both modes: the comparison is paired.
        let rng = SimRng::seed_from_u64(seed).child("demo");
        let sb = ShareBackup::build(ShareBackupConfig::new(k, n));
        let cfg = ControllerConfig {
            retry_exhausted_on_repair: true,
            // Repairs land only after the measurement window: a stalled
            // flow stays stalled for the whole demo.
            switch_repair_time: Duration::from_secs(2 * HORIZON_SECS),
            ..ControllerConfig::default()
        };
        let machinery = ChaosConfig {
            doa_rate: 0.05,
            ..ChaosConfig::off()
        };
        let mut controller =
            Controller::with_chaos(sb, cfg, machinery, rng.child("machinery"));
        let (tracer, sink) = if tracing {
            let (t, s) = Tracer::recording();
            (t, Some(s))
        } else {
            (Tracer::off(), None)
        };
        controller.tracer = tracer.clone();
        let world = ShareBackupWorld::new(controller, vec![]).with_degraded_mode(mode);

        // The burst: both agg slots of pod 0 die 200 ms apart.
        let g = GroupId::agg(0);
        let v0 = world.controller.sb.occupant(g.slot(0));
        let v1 = world.controller.sb.occupant(g.slot(1));
        let failures = vec![
            (Time::from_secs(5), SbEvent::NodeFail(v0)),
            (Time::from_secs_f64(5.2), SbEvent::NodeFail(v1)),
        ];
        let probe = FatTree::build(FatTreeConfig::new(k));
        let flows = traffic(probe.hosts(), 60, 10);
        let (mut out, world) = run_world(world, &failures, &flows, &tracer);
        out.trace = sink.map(|s| s.borrow_mut().take());
        let degraded_slots = world.controller.degraded_slots().count() as u64;
        (out, degraded_slots)
    });
    if let Some(path) = &args.trace_out {
        let pairs: Vec<(u64, &TraceBuffer)> = results
            .iter()
            .enumerate()
            .filter_map(|(i, (r, _))| r.trace.as_ref().map(|b| (i as u64, b)))
            .collect();
        write_trace_files(path, &pairs);
    }

    if args.json {
        let items: Vec<minijson::Value> = modes
            .iter()
            .zip(&results)
            .map(|(&mode, (a, slots))| {
                minijson::json!({
                    "mode": mode_name(mode),
                    "flows": a.flows,
                    "completed": a.completed,
                    "late": a.late,
                    "stalled": a.stalled,
                    "degraded_flows": a.degraded_flows,
                    "degraded_flow_seconds": a.degraded_secs,
                    "availability": a.availability(),
                    "pool_exhausted": a.stats.pool_exhausted,
                    "doa_backups": a.stats.doa_backups,
                    "degraded_slots_open": *slots,
                })
            })
            .collect();
        println!(
            "{}",
            minijson::to_string_pretty(&minijson::Value::Array(items)).expect("json")
        );
        return;
    }

    println!(
        "Demo: pool-exhausting burst (both agg slots of pod 0, n={}) + 5% DOA backups, k={}",
        args.n, args.k
    );
    println!(
        "{:<8} {:>6} {:>9} {:>6} {:>6} {:>6} {:>10} {:>5} {:>4}",
        "mode", "flows", "completed", "late", "stall", "degr", "d-time(s)", "pool", "doa"
    );
    for (&mode, (a, _)) in modes.iter().zip(&results) {
        println!(
            "{:<8} {:>6} {:>9} {:>6} {:>6} {:>6} {:>10.2} {:>5} {:>4}",
            mode_name(mode),
            a.flows,
            a.completed,
            a.late,
            a.stalled,
            a.degraded_flows,
            a.degraded_secs,
            a.stats.pool_exhausted,
            a.stats.doa_backups,
        );
    }
    let (stall, _) = &results[0];
    let (reroute, _) = &results[1];
    println!();
    println!(
        "stall leaves {} flows waiting on the dead slot (the old unrecovered behavior);",
        stall.late
    );
    println!(
        "reroute completes all {} flows, {} of them on explicit fallback paths for {:.1} s total.",
        reroute.completed, reroute.degraded_flows, reroute.degraded_secs
    );
}

fn main() {
    let mut defaults = Args::paper_defaults();
    defaults.k = 4;
    defaults.trials = 3;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_modes_are_paired_on_one_schedule() {
        // Stall and reroute see the same failures and the same machinery
        // rolls; only the data plane's reaction (degraded flows) differs.
        for case in &cases() {
            for trial in 0..2 {
                let run = |mode| run_trial(4, 1, 42, case, mode, trial, false);
                let (stall, reroute) = (run(DegradedMode::Stall), run(DegradedMode::Reroute));
                assert_eq!(stall.injected, reroute.injected, "{} #{trial}", case.name);
                let strip = |s: ControllerStats| ControllerStats {
                    degraded_flows: 0,
                    ..s
                };
                assert_eq!(
                    strip(stall.stats),
                    strip(reroute.stats),
                    "{} #{trial}",
                    case.name
                );
            }
        }
    }
}
