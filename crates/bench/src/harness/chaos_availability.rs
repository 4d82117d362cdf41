//! Availability campaign: what happens to ShareBackup's "no rerouting"
//! pitch when the *recovery machinery* — or the controller itself —
//! misbehaves.
//!
//! A *scenario* is a failure schedule — correlated bursts inside a pod's
//! fault domain, link flapping, Poisson singles, spurious keep-alive
//! reports, controller-replica crashes — plus one [`ChaosConfig`] of
//! machinery and control-plane failure rates: dead-on-arrival backups,
//! circuit-reconfiguration failures, diagnosis errors, mid-recovery primary
//! crashes, control-message loss. A *treatment* is a degraded-mode policy
//! (`stall`: the paper's behavior, flows on a dead slot wait for repair;
//! `reroute`: graceful degradation to global rerouting with per-flow
//! accounting) on a replicated control plane ([`FailoverConfig`]). Each
//! `(scenario, trial)` samples one schedule and one traffic matrix and
//! replays them against every treatment, so every comparison is paired.
//!
//! `--mode sweep` crosses six chaos scenarios with {stall, reroute} and two
//! controller-crash scenarios (control loss 0 and 0.2) with replicas
//! {1,2,3} × election {10,50} ms. `--mode demo` runs two fixed scenarios,
//! one trial each (it rejects `--trials`): a pool-exhausting burst + 5% DOA backups, where `reroute` restores the
//! connectivity `stall` leaves stranded; and a primary forced to crash
//! between diagnosis and reconfiguration, whose recovery the elected
//! successor finishes after exactly the closed-form blackout. Every row
//! reports flow availability, degraded flow-time, recovery dwell and
//! latency inflation, and the full controller counter set; `--json` prints
//! the same rows at full precision (CI byte-diffs it across `--jobs`).
//! With `--trace-out`, every retry, fallback, flow-degraded decision and
//! failover span lands in the chrome-trace.

use super::Output;
use crate::report::Format::{Fixed, Int, Text};
use crate::report::{self, Check, Column};
use crate::{parallel_map_indexed, write_trace_files, Cli};
use minijson::Value;
use sharebackup_core::failover::{FailoverConfig, FailoverPlane, RecoveryPhase};
use sharebackup_core::scenario::{
    map_chaos_schedule, sharebackup_timeline, SbEvent, ShareBackupWorld,
};
use sharebackup_core::{ChaosConfig, Controller, ControllerConfig, ControllerStats};
use sharebackup_flowsim::{FlowSim, FlowSpec};
use sharebackup_routing::{DegradedMode, FlowKey};
use sharebackup_sim::{Duration, SimRng, Time};
use sharebackup_telemetry::{TraceBuffer, Tracer};
use sharebackup_topo::{
    FatTree, FatTreeConfig, GroupId, NodeId, ShareBackup, ShareBackupConfig, SlotId,
};
use sharebackup_workload::{controller_crash_process, ChaosProfile, FailureInjector};
use std::fmt::Write;

/// Bytes per flow: 1 Gbit, ~0.1 s on an idle 10 G link.
const FLOW_BYTES: u64 = 125_000_000;
/// A flow finishing more than this long after arrival counts against
/// availability (an unimpeded transfer takes well under a second).
const LATE_SECS: u64 = 5;

/// One treatment: how the data plane rides out an unrecovered failure, and
/// the replicated control plane that drives recovery.
#[derive(Clone, Copy)]
struct Treatment {
    mode: DegradedMode,
    plane: FailoverConfig,
}

/// One scenario: a failure schedule, failure rates for the recovery
/// machinery and control plane, and the treatments it is replayed against.
struct Scenario {
    name: &'static str,
    profile: ChaosProfile,
    /// Passed to both the controller and the failover plane; each reads
    /// only its own rates, and a zero-rate roll never fires.
    chaos: ChaosConfig,
    /// Keep-alive losses: reports about healthy switches, uniform over the
    /// horizon.
    spurious_reports: usize,
    controller: ControllerConfig,
    horizon_secs: u64,
    /// A fresh wave of flows starts this often.
    wave_secs: u64,
    /// Node failures at fixed instants, by the slot whose occupant dies.
    pinned: Vec<(Time, SlotId)>,
    /// The primary crashes when the first recovery reaches this phase.
    forced_crash: Option<RecoveryPhase>,
    treatments: Vec<Treatment>,
}

/// Stall vs reroute on the default control plane.
fn stall_vs_reroute() -> Vec<Treatment> {
    [DegradedMode::Stall, DegradedMode::Reroute]
        .map(|mode| Treatment {
            mode,
            plane: FailoverConfig::default(),
        })
        .to_vec()
}

/// Replicated control planes under `reroute`: `replicas` × election times.
fn planes(replicas: &[usize], elections_ms: &[u64]) -> Vec<Treatment> {
    let mut out = Vec::new();
    for &replicas in replicas {
        for &ms in elections_ms {
            out.push(Treatment {
                mode: DegradedMode::Reroute,
                plane: FailoverConfig {
                    replicas,
                    election_time: Duration::from_millis(ms),
                    ..FailoverConfig::default()
                },
            });
        }
    }
    out
}

impl Scenario {
    /// A sweep chaos scenario: 600 s of traffic waves, the full heal path
    /// (pools refilled by repair immediately retry slots stranded by
    /// exhaustion or aborts), stall vs reroute.
    fn chaos(
        name: &'static str,
        profile: ChaosProfile,
        chaos: ChaosConfig,
        spurious_reports: usize,
    ) -> Scenario {
        Scenario {
            name,
            profile,
            chaos,
            spurious_reports,
            controller: ControllerConfig {
                retry_exhausted_on_repair: true,
                ..ControllerConfig::default()
            },
            horizon_secs: 600,
            wave_secs: 30,
            pinned: Vec::new(),
            forced_crash: None,
            treatments: stall_vs_reroute(),
        }
    }

    /// A sweep controller-crash scenario: Poisson node failures and Poisson
    /// replica crashes (the `"chaos-controller"` stream), plus mid-recovery
    /// primary crashes at phase boundaries — the case the journal and
    /// reconciliation exist for — over a lossy or clean control channel.
    fn crashes(name: &'static str, control_loss_rate: f64) -> Scenario {
        Scenario {
            name,
            profile: ChaosProfile {
                poisson_interarrival: Some(Duration::from_secs(45)),
                poisson_node_fraction: 1.0,
                controller_crash_interarrival: Some(Duration::from_secs(60)),
                controller_crash_dwell: Duration::from_secs(20),
                ..ChaosProfile::quiet()
            },
            chaos: ChaosConfig {
                controller_crash_rate: 0.1,
                control_loss_rate,
                ..ChaosConfig::off()
            },
            spurious_reports: 0,
            controller: ControllerConfig::default(),
            horizon_secs: 300,
            wave_secs: 30,
            pinned: Vec::new(),
            forced_crash: None,
            treatments: planes(&[1, 2, 3], &[10, 50]),
        }
    }

    /// A fixed demo scenario: the pinned failures only, 60 s of traffic.
    fn demo(name: &'static str, pinned: Vec<(Time, SlotId)>) -> Scenario {
        Scenario {
            name,
            profile: ChaosProfile::quiet(),
            chaos: ChaosConfig::off(),
            spurious_reports: 0,
            controller: ControllerConfig::default(),
            horizon_secs: 60,
            wave_secs: 10,
            pinned,
            forced_crash: None,
            treatments: Vec::new(),
        }
    }
}

/// The sweep scenarios.
fn scenarios() -> Vec<Scenario> {
    let quiet = ChaosProfile::quiet();
    let off = ChaosConfig::off();
    vec![
        // Control arm: must match a chaos-free run exactly.
        Scenario::chaos("quiet", quiet, off, 0),
        // Correlated bursts inside one fault domain (pod power feed).
        Scenario::chaos(
            "bursts",
            ChaosProfile {
                burst_interarrival: Some(Duration::from_secs(150)),
                mean_burst_size: 3.0,
                ..quiet
            },
            off,
            0,
        ),
        // Two links flapping: repeated reports on the same circuit switch
        // (can trip the §5.1 escalation threshold and halt recovery).
        Scenario::chaos(
            "flapping",
            ChaosProfile {
                flapping_links: 2,
                ..quiet
            },
            off,
            0,
        ),
        // Node failures with an unreliable repair path: DOA backups and
        // failing circuit reconfigurations.
        Scenario::chaos(
            "doa",
            ChaosProfile {
                poisson_interarrival: Some(Duration::from_secs(90)),
                poisson_node_fraction: 1.0,
                ..quiet
            },
            ChaosConfig {
                doa_rate: 0.3,
                reconfig_failure_rate: 0.15,
                ..off
            },
            0,
        ),
        // Link failures with lying diagnosis: healthy switches benched,
        // faulty ones returned to poison the pool.
        Scenario::chaos(
            "misdiagnosis",
            ChaosProfile {
                poisson_interarrival: Some(Duration::from_secs(90)),
                poisson_node_fraction: 0.0,
                ..quiet
            },
            ChaosConfig {
                false_conviction_rate: 0.25,
                false_exoneration_rate: 0.25,
                ..off
            },
            0,
        ),
        // Everything at once, at lower rates.
        Scenario::chaos(
            "full-chaos",
            ChaosProfile {
                poisson_interarrival: Some(Duration::from_secs(120)),
                poisson_node_fraction: 0.7,
                burst_interarrival: Some(Duration::from_secs(200)),
                flapping_links: 1,
                ..quiet
            },
            ChaosConfig {
                doa_rate: 0.1,
                reconfig_failure_rate: 0.1,
                false_conviction_rate: 0.1,
                false_exoneration_rate: 0.1,
                ..off
            },
            2,
        ),
        Scenario::crashes("crash", 0.0),
        Scenario::crashes("crash-loss", 0.2),
    ]
}

/// The two fixed demo scenarios.
fn demos() -> Vec<Scenario> {
    let agg0 = GroupId::agg(0);
    // Both agg slots of pod 0 die 200 ms apart: with n=1 the second
    // failure finds the pool empty. 5% of backups are DOA, and repairs land
    // only after the measurement window, so a stalled flow stays stalled.
    let burst = Scenario {
        chaos: ChaosConfig {
            doa_rate: 0.05,
            ..ChaosConfig::off()
        },
        controller: ControllerConfig {
            retry_exhausted_on_repair: true,
            switch_repair_time: Duration::from_secs(1200),
            ..ControllerConfig::default()
        },
        treatments: stall_vs_reroute(),
        ..Scenario::demo(
            "pool-burst",
            vec![
                (Time::from_secs(5), agg0.slot(0)),
                (Time::from_secs_f64(5.2), agg0.slot(1)),
            ],
        )
    };
    // One live recovery, whose primary crashes between diagnosis and
    // reconfiguration; three replicas elect a successor.
    let crash = Scenario {
        forced_crash: Some(RecoveryPhase::Diagnosed),
        treatments: planes(&[3], &[10, 50]),
        ..Scenario::demo("forced-crash", vec![(Time::from_secs(5), agg0.slot(0))])
    };
    vec![burst, crash]
}

fn mode_name(mode: DegradedMode) -> &'static str {
    match mode {
        DegradedMode::Stall => "stall",
        DegradedMode::Reroute => "reroute",
    }
}

/// Whole milliseconds of a duration.
fn ms(d: Duration) -> u64 {
    d.as_nanos() / 1_000_000
}

/// The trial's failure schedule, phrased as the events the controller sees
/// (see [`map_chaos_schedule`] for the stale-report caveat): the profile's
/// data-plane faults, spurious reports, the pinned failures, and replica
/// crash/restore pairs over `replicas`. Every component draws from its own
/// child stream, so only the crashed replica ids depend on `replicas`.
fn schedule(
    scn: &Scenario,
    sb: &ShareBackup,
    probe: &FatTree,
    rng: &SimRng,
    replicas: usize,
) -> Vec<(Time, SbEvent)> {
    let horizon = Time::from_secs(scn.horizon_secs);
    let injector = FailureInjector::new(&probe.net);
    let events = injector.chaos_process(rng, &probe.net, horizon, &scn.profile);
    let mut out = map_chaos_schedule(sb, &probe.net, &events);
    let mut r = rng.child("chaos-spurious");
    for _ in 0..scn.spurious_reports {
        let at = Time::from_secs_f64(r.f64() * scn.horizon_secs as f64);
        let node = injector.sample_nodes(&mut r, 1)[0];
        if let Some(slot) = sb.node_slot(node) {
            out.push((at, SbEvent::SpuriousReport(sb.occupant(slot))));
        }
    }
    out.extend(
        scn.pinned
            .iter()
            .map(|&(at, slot)| (at, SbEvent::NodeFail(sb.occupant(slot)))),
    );
    for ev in controller_crash_process(rng, horizon, replicas, &scn.profile) {
        out.push((ev.at, SbEvent::ControllerCrash(ev.replica)));
        out.push((ev.restored_at(), SbEvent::ControllerRestore(ev.replica)));
    }
    out.sort_by_key(|&(t, _)| t);
    out
}

/// Waves of host-to-host flows covering the horizon: every `wave_secs`
/// each host sends one flow to a rotating partner, so every pod keeps
/// traffic in flight through every outage window.
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
    degraded_time: Duration,
    /// Data-plane failures and spurious reports injected.
    injected: u64,
    crashes_scheduled: u64,
    /// Recoveries completed through the failover plane.
    recovered: u64,
    /// Failures still journaled (visibly unrecovered) at the horizon.
    pending_end: u64,
    /// Sum over completed recoveries of (completed − reported).
    dwell_sum: Duration,
    /// Worst dwell seen, completed or still pending at the horizon.
    dwell_max: Duration,
    /// Sum over pending entries of (horizon − reported).
    pending_dwell: Duration,
    /// Sum of per-recovery modeled latency (includes channel penalties).
    latency_sum: Duration,
    /// The closed-form recovery latency, once per completed recovery.
    latency_base: Duration,
    /// Slots left unrecovered at the end of the run.
    degraded_slots_open: u64,
    stats: ControllerStats,
    trace: Option<TraceBuffer>,
}

impl TrialOut {
    fn add(&mut self, other: &TrialOut) {
        self.flows += other.flows;
        self.completed += other.completed;
        self.stalled += other.stalled;
        self.late += other.late;
        self.degraded_time += other.degraded_time;
        self.injected += other.injected;
        self.crashes_scheduled += other.crashes_scheduled;
        self.recovered += other.recovered;
        self.pending_end += other.pending_end;
        self.dwell_sum += other.dwell_sum;
        self.dwell_max = self.dwell_max.max(other.dwell_max);
        self.pending_dwell += other.pending_dwell;
        self.latency_sum += other.latency_sum;
        self.latency_base += other.latency_base;
        self.degraded_slots_open += other.degraded_slots_open;
        self.stats += other.stats;
    }
}

/// One trial: a fresh world under `t`, the scenario's schedule and traffic
/// from `rng` (the same for every treatment of the scenario), full
/// accounting.
fn run_trial(
    k: usize,
    n: usize,
    scn: &Scenario,
    t: Treatment,
    rng: &SimRng,
    tracing: bool,
) -> TrialOut {
    let sb = ShareBackup::build(ShareBackupConfig::new(k, n));
    let mut controller =
        Controller::with_chaos(sb, scn.controller, scn.chaos, rng.child("machinery"));
    let (tracer, sink) = if tracing {
        let (t, s) = Tracer::recording();
        (t, Some(s))
    } else {
        (Tracer::off(), None)
    };
    controller.tracer = tracer.clone();
    let mut plane = FailoverPlane::with_chaos(t.plane, scn.chaos, rng.child("control-chaos"));
    if let Some(phase) = scn.forced_crash {
        plane.force_crash_at(phase);
    }
    let mut world = ShareBackupWorld::new(controller, vec![])
        .with_degraded_mode(t.mode)
        .with_failover(plane);

    let probe = FatTree::build(FatTreeConfig::new(k));
    let failures = schedule(
        scn,
        &world.controller.sb,
        &probe,
        &rng.child("schedule"),
        t.plane.replicas,
    );
    let (mut events, mut times) = sharebackup_timeline(&world, &failures);
    if scn.forced_crash.is_some() {
        // The forced crash fires inside the first Recover epoch, where the
        // timeline holds no crash event: poll for the resume ourselves,
        // exactly one blackout after the report reaches the plane.
        let resume_at = failures[0].0 + world.recovery_latency() + t.plane.blackout();
        let at = times.partition_point(|&x| x <= resume_at);
        times.insert(at, resume_at);
        events.insert(at, SbEvent::PollRepairs);
    }
    world.events = events;
    let flows = traffic(probe.hosts(), scn.horizon_secs, scn.wave_secs);
    let sim_out = FlowSim::new().run_traced(&mut world, &flows, &times, &tracer);

    let horizon = Time::from_secs(scn.horizon_secs);
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

    let crashes = failures
        .iter()
        .filter(|(_, e)| matches!(e, SbEvent::ControllerCrash(_)))
        .count() as u64;
    let mut out = TrialOut {
        flows: flows.len() as u64,
        injected: failures.len() as u64 - 2 * crashes,
        crashes_scheduled: crashes,
        ..TrialOut::default()
    };
    let late_after = Duration::from_secs(LATE_SECS);
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
    out.degraded_time = world.tracker.total_degraded_time();
    out.recovered = world.recoveries.len() as u64;
    for done in &world.recoveries {
        let dwell = done.completed_at.since(done.reported_at);
        out.dwell_sum += dwell;
        out.dwell_max = out.dwell_max.max(dwell);
        out.latency_sum += done.recovery.latency;
        out.latency_base += world.recovery_latency();
    }
    for pending in world.failover.pending() {
        let dwell = horizon.saturating_since(pending.reported_at);
        out.pending_end += 1;
        out.pending_dwell += dwell;
        out.dwell_max = out.dwell_max.max(dwell);
    }
    out.degraded_slots_open = world.controller.degraded_slots().count() as u64;
    out.stats = world.controller.stats;
    out.stats.record(&tracer);
    out.trace = sink.map(|s| s.borrow_mut().take());
    out
}

/// One output row: a (scenario, treatment) cell aggregated over trials.
struct Row<'a> {
    scn: &'a Scenario,
    t: Treatment,
    agg: TrialOut,
}

impl Row<'_> {
    fn availability(&self) -> f64 {
        let a = &self.agg;
        if a.flows == 0 {
            return 1.0;
        }
        1.0 - a.late as f64 / a.flows as f64
    }

    fn dwell_mean_ms(&self) -> f64 {
        let a = &self.agg;
        if a.recovered == 0 {
            return 0.0;
        }
        1e3 * a.dwell_sum.as_secs_f64() / a.recovered as f64
    }

    /// The row as JSON: the cell's identity, the flow and recovery tallies,
    /// then every controller counter. Both the table and `--json` read it.
    fn json(&self) -> Value {
        let a = &self.agg;
        let inflation = if a.recovered == 0 {
            1.0
        } else {
            a.latency_sum.as_secs_f64() / a.latency_base.as_secs_f64()
        };
        let mut row = minijson::json!({
            "scenario": self.scn.name,
            "mode": mode_name(self.t.mode),
            "replicas": self.t.plane.replicas,
            "election_ms": ms(self.t.plane.election_time),
            "blackout_ms": self.t.plane.blackout().as_millis_f64(),
            "control_loss": self.scn.chaos.control_loss_rate,
            "horizon_s": self.scn.horizon_secs,
            "flows": a.flows,
            "completed": a.completed,
            "late": a.late,
            "stalled": a.stalled,
            "degraded_flow_seconds": a.degraded_time.as_secs_f64(),
            "availability": self.availability(),
            "failures_injected": a.injected,
            "controller_crashes_scheduled": a.crashes_scheduled,
            "recovered": a.recovered,
            "unrecovered_at_horizon": a.pending_end,
            "dwell_mean_ms": self.dwell_mean_ms(),
            "dwell_max_ms": a.dwell_max.as_millis_f64(),
            "unrecovered_dwell_s": a.pending_dwell.as_secs_f64(),
            "latency_inflation": inflation,
            "degraded_slots_open": a.degraded_slots_open,
        });
        if let Value::Object(members) = &mut row {
            members.extend(
                a.stats
                    .counters()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Value::from(v))),
            );
        }
        row
    }
}

/// What every campaign row runs on, from the command line.
struct Setup {
    k: usize,
    n: usize,
    seed: u64,
    jobs: usize,
    trace_out: Option<String>,
}

/// Run every treatment of every scenario for `trials` trials. Trial `i` of
/// a scenario draws everything from the seed's `stream(scenario, i)` child,
/// whatever the treatment. Writes `--trace-out` files in row order.
fn campaign<'a>(
    setup: &Setup,
    scenarios: &'a [Scenario],
    trials: usize,
    stream: fn(&Scenario, usize) -> String,
) -> Vec<Row<'a>> {
    let cells: Vec<(&Scenario, Treatment)> = scenarios
        .iter()
        .flat_map(|s| s.treatments.iter().map(move |&t| (s, t)))
        .collect();
    let tracing = setup.trace_out.is_some();
    let (k, n, seed) = (setup.k, setup.n, setup.seed);
    let results = parallel_map_indexed(setup.jobs, cells.len() * trials, |i| {
        let (scn, t) = cells[i / trials];
        let rng = SimRng::seed_from_u64(seed).child(&stream(scn, i % trials));
        run_trial(k, n, scn, t, &rng, tracing)
    });
    if let Some(path) = &setup.trace_out {
        let pairs: Vec<(u64, &TraceBuffer)> = results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.trace.as_ref().map(|b| (i as u64, b)))
            .collect();
        write_trace_files(path, &pairs);
    }
    cells
        .iter()
        .enumerate()
        .map(|(c, &(scn, t))| {
            let mut agg = TrialOut::default();
            for r in &results[c * trials..(c + 1) * trials] {
                agg.add(r);
            }
            Row { scn, t, agg }
        })
        .collect()
}

/// The sweep's per-trial stream: keyed on `(scenario, trial)` only, so
/// every treatment replays one schedule and one set of chaos rolls.
fn sweep_stream(scn: &Scenario, trial: usize) -> String {
    format!("chaos-{}-{}", scn.name, trial)
}

const COLUMNS: [Column; 20] = [
    Column::new("scenario", "scenario", Text),
    Column::new("mode", "mode", Text),
    Column::new("ctl", "replicas", Int),
    Column::new("elect", "election_ms", Int),
    Column::new("avail", "availability", Fixed(4, "")),
    Column::new("late", "late", Int),
    Column::new("degr", "degraded_flows", Int),
    Column::new("d-time(s)", "degraded_flow_seconds", Fixed(2, "")),
    Column::new("repl", "replacements", Int),
    Column::new("fb", "fallbacks", Int),
    Column::new("doa", "doa_backups", Int),
    Column::new("retry", "reconfig_retries", Int),
    Column::new("abort", "reconfig_aborts", Int),
    Column::new("pool", "pool_exhausted", Int),
    Column::new("recov", "recovered", Int),
    Column::new("pend", "unrecovered_at_horizon", Int),
    Column::new("dwell(ms)", "dwell_mean_ms", Fixed(1, "")),
    Column::new("infl", "latency_inflation", Fixed(3, "")),
    Column::new("elec", "elections", Int),
    Column::new("resum", "recoveries_resumed", Int),
];

/// Run the harness on `cli`'s flags.
pub fn run(cli: &mut Cli) -> Output {
    let k = cli.k(4);
    let n: usize = cli.get("n", 1);
    let seed: u64 = cli.get("seed", 42);
    let trials = cli.trials(3);
    let mode = cli.choice("mode", &["sweep", "demo"]);
    let demo = mode == "demo";
    if demo {
        // Every demo row runs one fixed trial, so `--trials` is an error.
        cli.unread("trials");
    }
    let jobs = cli.jobs();
    let trace_out = cli.path("trace-out");
    cli.finish();
    let setup = Setup {
        k,
        n,
        seed,
        jobs,
        trace_out,
    };
    let (scns, trials, stream): (_, _, fn(&Scenario, usize) -> String) = if demo {
        // One fixed trial on one stream for every demo row.
        (demos(), 1, |_, _| "demo".to_string())
    } else {
        (scenarios(), trials, sweep_stream)
    };
    let rows = campaign(&setup, &scns, trials, stream);
    let items: Vec<Value> = rows.iter().map(Row::json).collect();
    let title = format!(
        "Availability campaign ({mode}){}",
        if demo { " — one trial per row" } else { "" }
    );
    let mut text = report::header(&title, cli);
    text += &report::table(&COLUMNS, &items);
    text.push('\n');
    let _ = writeln!(
        text,
        "stall = the paper's behavior (flows on a dead slot wait for repair); reroute =\n\
         graceful degradation to global rerouting, every affected flow counted. ctl/elect\n\
         = controller replicas / election time (ms); dwell = failure report → recovery\n\
         completed; infl = mean modeled recovery latency / closed-form latency. --json\n\
         prints every row with all controller counters."
    );
    if demo {
        return Output::new(text, &items, demo_claims(&rows));
    }
    crash_summary(&mut text, &rows);
    Output::new(text, &items, Vec::new())
}

/// What the paired controller-crash rows show, computed from them.
fn crash_summary(text: &mut String, rows: &[Row]) {
    let crash: Vec<&Row> = rows
        .iter()
        .filter(|r| r.scn.profile.controller_crash_interarrival.is_some())
        .collect();
    // Rows of one scenario and replica count differ only in election time.
    let election_effect = crash
        .iter()
        .flat_map(|a| crash.iter().map(move |b| (a, b)))
        .filter(|(a, b)| a.scn.name == b.scn.name && a.t.plane.replicas == b.t.plane.replicas)
        .map(|(a, b)| (a.dwell_mean_ms() - b.dwell_mean_ms()).abs())
        .fold(0.0, f64::max);
    let shortest = crash
        .iter()
        .map(|r| r.dwell_mean_ms())
        .fold(f64::MAX, f64::min);
    let blackout = crash
        .iter()
        .map(|r| r.t.plane.blackout().as_millis_f64())
        .fold(0.0, f64::max);
    text.push('\n');
    let _ = writeln!(
        text,
        "crash rows: the election time moves mean dwell by at most {election_effect:.0} ms. The\n\
         shortest mean dwell, {:.1} s, is {:.0}x the longest blackout (detection + election,\n\
         {blackout} ms): a journaled recovery resumes only at the next event that polls the\n\
         plane (a flow wave, a repair poll, a restore), and waits for a restore while\n\
         every replica is down.",
        shortest / 1e3,
        shortest / blackout
    );
}

/// The demo's two facts, checked on its rows.
fn demo_claims(rows: &[Row]) -> Vec<Check> {
    let burst = |mode: DegradedMode| {
        let row = rows
            .iter()
            .find(|r| r.scn.name == "pool-burst" && r.t.mode == mode);
        &row.expect("a pool-burst row per mode").agg
    };
    let (stall, reroute) = (burst(DegradedMode::Stall), burst(DegradedMode::Reroute));
    let crash: Vec<&Row> = rows
        .iter()
        .filter(|r| r.scn.name == "forced-crash")
        .collect();
    let exact = |r: &&Row| {
        let a = &r.agg;
        a.dwell_max == r.t.plane.blackout() && a.recovered == 1 && a.stats.recoveries_resumed == 1
    };
    let dwells: Vec<String> = crash
        .iter()
        .map(|r| {
            format!(
                "election {} ms: dwell {} ms vs blackout {} ms, {} resumed",
                ms(r.t.plane.election_time),
                r.agg.dwell_max.as_millis_f64(),
                r.t.plane.blackout().as_millis_f64(),
                r.agg.stats.recoveries_resumed
            )
        })
        .collect();
    vec![
        Check::new(
            "§5.1",
            "past an exhausted pool, stall strands flows on the dead slot and reroute completes them all",
            stall.late > 0 && reroute.late == 0 && reroute.completed == reroute.flows,
            format!(
                "stall: {} of {} flows late; reroute: {} of {} complete, {} late, {} on fallback paths for {:.1} s",
                stall.late,
                stall.flows,
                reroute.completed,
                reroute.flows,
                reroute.late,
                reroute.stats.degraded_flows,
                reroute.degraded_time.as_secs_f64()
            ),
        ),
        Check::new(
            "§5.1",
            "a primary crashing mid-recovery delays it by exactly the blackout (heartbeat worst case + election)",
            !crash.is_empty() && crash.iter().all(exact),
            dwells.join("; "),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Run every treatment of `scn` for one trial on `stream`, at k=4.
    fn replay(scn: &Scenario, stream: &str) -> Vec<TrialOut> {
        let rng = SimRng::seed_from_u64(42).child(stream);
        scn.treatments
            .iter()
            .map(|&t| run_trial(4, 1, scn, t, &rng, false))
            .collect()
    }

    #[test]
    fn treatments_are_paired_on_one_schedule() {
        // Every treatment of a scenario sees the same failures at the same
        // instants (replica crashes differ only in which replica dies);
        // treatments on one control plane also see the same machinery rolls,
        // so only the data plane's reaction (degraded flows) differs.
        let probe = FatTree::build(FatTreeConfig::new(4));
        let sb = ShareBackup::build(ShareBackupConfig::new(4, 1));
        let mut crashes_seen = 0;
        for scn in &scenarios() {
            for trial in 0..2 {
                let stream = sweep_stream(scn, trial);
                let crash_instants = |t: &Treatment| -> Vec<Time> {
                    let rng = SimRng::seed_from_u64(42).child(&stream).child("schedule");
                    schedule(scn, &sb, &probe, &rng, t.plane.replicas)
                        .into_iter()
                        .filter_map(|(at, e)| {
                            matches!(e, SbEvent::ControllerCrash(_)).then_some(at)
                        })
                        .collect()
                };
                let outs = replay(scn, &stream);
                let first = &scn.treatments[0];
                crashes_seen += crash_instants(first).len();
                for (t, out) in scn.treatments.iter().zip(&outs) {
                    assert_eq!(out.injected, outs[0].injected, "{stream}");
                    assert_eq!(crash_instants(t), crash_instants(first), "{stream}");
                }
                let strip = |s: ControllerStats| ControllerStats {
                    degraded_flows: 0,
                    ..s
                };
                for (i, a) in scn.treatments.iter().enumerate() {
                    for (j, b) in scn.treatments.iter().enumerate().skip(i + 1) {
                        if (a.plane.replicas, a.plane.election_time)
                            == (b.plane.replicas, b.plane.election_time)
                        {
                            assert_eq!(strip(outs[i].stats), strip(outs[j].stats), "{stream}");
                        }
                    }
                }
            }
        }
        assert!(
            crashes_seen > 0,
            "the crash scenarios schedule replica crashes"
        );
    }

    #[test]
    fn pool_burst_demo_strands_stall_and_rescues_reroute() {
        let demos = demos();
        let scn = &demos[0];
        let [stall, reroute] = [DegradedMode::Stall, DegradedMode::Reroute].map(|m| {
            scn.treatments
                .iter()
                .position(|t| t.mode == m)
                .expect("both modes")
        });
        let outs = replay(scn, "demo");
        let (stall, reroute) = (&outs[stall], &outs[reroute]);
        assert!(stall.late > 0, "stall strands flows on the dead slot");
        assert_eq!(reroute.late, 0);
        assert_eq!(reroute.completed, reroute.flows);
        assert!(
            reroute.stats.degraded_flows > 0,
            "reroute accounts its fallback flows"
        );
    }

    #[test]
    fn forced_crash_demo_dwell_is_exactly_the_blackout() {
        let demos = demos();
        let scn = &demos[1];
        let elections: Vec<u64> = scn
            .treatments
            .iter()
            .map(|t| ms(t.plane.election_time))
            .collect();
        assert_eq!(elections, [10, 50]);
        for (t, out) in scn.treatments.iter().zip(replay(scn, "demo")) {
            assert_eq!(out.dwell_max, t.plane.blackout());
            assert_eq!(out.recovered, 1);
            assert_eq!(out.stats.recoveries_resumed, 1);
        }
    }

    #[test]
    fn no_json_row_repeats_a_key() {
        let setup = Setup {
            k: 4,
            n: 1,
            seed: 42,
            jobs: 1,
            trace_out: None,
        };
        let scns = scenarios();
        let rows = campaign(&setup, &scns, 1, sweep_stream);
        assert_eq!(rows.len(), 24);
        for row in &rows {
            let Value::Object(members) = row.json() else {
                panic!("a row is a JSON object");
            };
            let keys: BTreeSet<&str> = members.iter().map(|(key, _)| key.as_str()).collect();
            assert_eq!(
                keys.len(),
                members.len(),
                "{} {}",
                row.scn.name,
                mode_name(row.t.mode)
            );
        }
    }

    #[test]
    fn traced_counters_sum_to_the_row_counters() {
        // Two traced trials of one cell: each trace carries the trial's
        // whole `controller.*` block, and their sum is the row's counters.
        let scns = scenarios();
        let scn = scns
            .iter()
            .find(|s| s.name == "full-chaos")
            .expect("scenario");
        let t = scn.treatments[1];
        let mut agg = TrialOut::default();
        let mut traced: BTreeMap<&str, u64> = BTreeMap::new();
        for trial in 0..2 {
            let rng = SimRng::seed_from_u64(42).child(&sweep_stream(scn, trial));
            let out = run_trial(4, 1, scn, t, &rng, true);
            for (name, &v) in &out.trace.as_ref().expect("traced trial").counters {
                if let Some(field) = name.strip_prefix("controller.") {
                    *traced.entry(field).or_default() += v;
                }
            }
            agg.add(&out);
        }
        assert!(agg.stats.replacements > 0, "the cell recovers something");
        let row = Row { scn, t, agg }.json();
        assert_eq!(traced.len(), ControllerStats::COUNT);
        for (field, v) in traced {
            let json = row.get(field).and_then(Value::as_i64);
            assert_eq!(json, i64::try_from(v).ok(), "{field}");
        }
    }
}
