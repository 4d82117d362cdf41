//! The `chaos` workload: ShareBackup at k=16 under the `full-chaos`
//! profile of the `chaos_availability` harness — Poisson failures, bursts,
//! a flapping link, dead-on-arrival backups, reconfiguration failures,
//! misdiagnosis and spurious reports — with synchronized waves of one-Gbit
//! flows.
//!
//! Treatments are paired: the failure schedule and the traffic are sampled
//! once per trial, from an RNG keyed on the case and the trial only, and
//! replayed for both [`DegradedMode::Stall`] and [`DegradedMode::Reroute`].
//!
//! The schedules are those of [`SCHEDULE_SEED`]; the workload's seed draws
//! the recovery machinery's faults (dead-on-arrival backups, failed
//! reconfigurations, misdiagnoses). Failure counts are Poisson, so seeding
//! the schedule would swing the work of a fixed run with the seed.

use std::rc::Rc;

use sharebackup_core::scenario::{map_chaos_schedule, sharebackup_timeline, SbEvent};
use sharebackup_core::{ChaosConfig, Controller, ControllerConfig, ShareBackupWorld};
use sharebackup_flowsim::FlowSpec;
use sharebackup_routing::{DegradedMode, FlowKey};
use sharebackup_sim::{Duration, SimRng, Time};
use sharebackup_topo::{FatTree, FatTreeConfig, NodeId, ShareBackup, ShareBackupConfig};
use sharebackup_workload::{ChaosProfile, FailureInjector};

use crate::check::{Checked, Outcome};
use crate::workload::{timed, Done, Job, Output, SetupClock, Workload, World};

/// Virtual time covered by each trial.
const HORIZON_SECS: u64 = 600;
/// A fresh wave of flows starts this often.
const WAVE_EVERY_SECS: u64 = 30;
/// Bytes per flow: 1 Gbit.
const FLOW_BYTES: u64 = 125_000_000;
/// A flow finishing more than this long after arrival counts as late.
const LATE_SECS: u64 = 5;
/// Keep-alive losses per trial.
const SPURIOUS_REPORTS: usize = 2;
/// Seed of the replayed failure schedules (the harness default).
pub const SCHEDULE_SEED: u64 = 42;
/// The treatments every schedule is replayed against.
pub const MODES: [DegradedMode; 2] = [DegradedMode::Stall, DegradedMode::Reroute];

/// `full-chaos` at fat-tree parameter `k`.
pub struct Chaos {
    /// Fat-tree parameter.
    pub k: usize,
    /// Seed of the machinery's fault draws.
    pub seed: u64,
    /// Trials per fixed run; each runs both treatments.
    pub trials: usize,
}

fn mode_name(mode: DegradedMode) -> &'static str {
    match mode {
        DegradedMode::Stall => "stall",
        DegradedMode::Reroute => "reroute",
    }
}

fn profile() -> ChaosProfile {
    ChaosProfile {
        poisson_interarrival: Some(Duration::from_secs(120)),
        poisson_node_fraction: 0.7,
        burst_interarrival: Some(Duration::from_secs(200)),
        flapping_links: 1,
        ..ChaosProfile::quiet()
    }
}

fn machinery() -> ChaosConfig {
    ChaosConfig {
        doa_rate: 0.1,
        reconfig_failure_rate: 0.1,
        false_conviction_rate: 0.1,
        false_exoneration_rate: 0.1,
        ..ChaosConfig::off()
    }
}

/// The trial's failure schedule as the physical events the controller sees.
fn schedule(sb: &ShareBackup, probe: &FatTree, rng: &SimRng) -> Vec<(Time, SbEvent)> {
    let injector = FailureInjector::new(&probe.net);
    let horizon = Time::from_secs(HORIZON_SECS);
    let events = injector.chaos_process(rng, &probe.net, horizon, &profile());
    let mut out = map_chaos_schedule(sb, &probe.net, &events);
    let mut r = rng.child("chaos-spurious");
    for _ in 0..SPURIOUS_REPORTS {
        let at = Time::from_secs_f64(r.f64() * HORIZON_SECS as f64);
        let node = injector.sample_nodes(&mut r, 1)[0];
        if let Some(slot) = sb.node_slot(node) {
            out.push((at, SbEvent::SpuriousReport(sb.occupant(slot))));
        }
    }
    out.sort_by_key(|&(t, _)| t);
    out
}

/// Every `WAVE_EVERY_SECS` each host sends one flow to a rotating partner.
fn traffic(hosts: &[NodeId]) -> Vec<FlowSpec> {
    let h = hosts.len();
    let waves = usize::try_from(HORIZON_SECS / WAVE_EVERY_SECS).expect("wave count fits usize");
    let mut flows = Vec::with_capacity(waves * h);
    for w in 0..waves {
        let at = Time::from_secs(WAVE_EVERY_SECS * w as u64);
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

/// Per-run context: the schedule replayed and the traffic.
pub struct RunCtx {
    /// The failure injections the run's timeline was built from.
    pub failures: Rc<Vec<(Time, SbEvent)>>,
    /// The run's flows.
    pub flows: Rc<Vec<FlowSpec>>,
}

impl Workload for Chaos {
    type Ctx = Vec<RunCtx>;

    fn prepare(&self, clock: &mut SetupClock) -> (Vec<Job>, Vec<RunCtx>) {
        let k = self.k;
        let mut jobs = Vec::with_capacity(self.trials * MODES.len());
        let mut ctx = Vec::with_capacity(self.trials * MODES.len());
        for trial in 0..self.trials {
            let stream = format!("chaos-full-chaos-{trial}");
            let machinery_rng = SimRng::seed_from_u64(self.seed)
                .child(&stream)
                .child("machinery");
            let probe = timed(&mut clock.topo_ns, || FatTree::build(FatTreeConfig::new(k)));
            let flows = Rc::new(timed(&mut clock.trace_ns, || traffic(probe.hosts())));
            clock.flows += flows.len() as u64;
            let worlds: Vec<ShareBackupWorld> = MODES
                .iter()
                .map(|&mode| {
                    timed(&mut clock.topo_ns, || {
                        let sb = ShareBackup::build(ShareBackupConfig::new(k, 1));
                        let cfg = ControllerConfig {
                            retry_exhausted_on_repair: true,
                            ..ControllerConfig::default()
                        };
                        let c = Controller::with_chaos(sb, cfg, machinery(), machinery_rng.clone());
                        ShareBackupWorld::new(c, vec![]).with_degraded_mode(mode)
                    })
                })
                .collect();
            let failures = Rc::new(timed(&mut clock.schedule_ns, || {
                let rng = SimRng::seed_from_u64(SCHEDULE_SEED).child(&stream);
                schedule(&worlds[0].controller.sb, &probe, &rng.child("schedule"))
            }));
            for (mut world, mode) in worlds.into_iter().zip(MODES) {
                let times = timed(&mut clock.schedule_ns, || {
                    let (events, times) = sharebackup_timeline(&world, &failures);
                    world.events = events;
                    times
                });
                jobs.push(Job::Flow {
                    label: format!("trial{trial}/{}", mode_name(mode)),
                    world: World::Sb(world),
                    flows: flows.clone(),
                    epochs: times,
                });
                ctx.push(RunCtx {
                    failures: failures.clone(),
                    flows: flows.clone(),
                });
            }
        }
        (jobs, ctx)
    }

    fn outcomes(&self, ctx: &Vec<RunCtx>, done: &mut [Done]) -> Vec<Checked> {
        let horizon = Time::from_secs(HORIZON_SECS);
        let late_after = Duration::from_secs(LATE_SECS);
        ctx.iter()
            .zip(done.iter_mut())
            .map(|(c, d)| {
                let Output::Flow {
                    out,
                    world: World::Sb(world),
                } = &mut d.output
                else {
                    unreachable!("chaos runs are ShareBackup flow-level runs");
                };
                // Close degraded spells at completion, as the availability
                // harness does, so degraded time counts running time only.
                let end = out
                    .flows
                    .iter()
                    .filter_map(|f| f.completed)
                    .max()
                    .unwrap_or(horizon)
                    .max(horizon);
                for (spec, fo) in c.flows.iter().zip(&out.flows) {
                    if let Some(t) = fo.completed {
                        world.tracker.mark_normal(spec.key.id, t);
                    }
                }
                world.tracker.finalize(end);

                let (mut completed, mut late, mut stalled, mut latency) = (0u64, 0u64, 0u64, 0.0);
                for (spec, fo) in c.flows.iter().zip(&out.flows) {
                    match fo.completed {
                        Some(t) => {
                            completed += 1;
                            let took = t.since(spec.arrival);
                            latency += took.as_secs_f64();
                            late += u64::from(took > late_after);
                        }
                        None => late += 1,
                    }
                    stalled += u64::from(fo.ever_stalled);
                }
                let s = &world.controller.stats;
                let mut o = Outcome::default();
                o.int("flows", c.flows.len() as u64);
                o.int("completed", completed);
                o.int("late", late);
                o.int("stalled", stalled);
                o.int("injected", c.failures.len() as u64);
                o.int("degraded_flows", world.tracker.degraded_count() as u64);
                for (name, v) in [
                    ("node_failures", s.node_failures),
                    ("link_failures", s.link_failures),
                    ("host_link_failures", s.host_link_failures),
                    ("replacements", s.replacements),
                    ("fallbacks", s.fallbacks),
                    ("recovery_attempts", s.recovery_attempts),
                    ("diagnoses", s.diagnoses),
                    ("exonerations", s.exonerations),
                    ("convictions", s.convictions),
                    ("circuit_reconfigs", s.circuit_reconfigs),
                    ("escalations", s.escalations),
                    ("doa_backups", s.doa_backups),
                    ("reconfig_retries", s.reconfig_retries),
                    ("reconfig_aborts", s.reconfig_aborts),
                    ("pool_exhausted", s.pool_exhausted),
                    ("halted_fallbacks", s.halted_fallbacks),
                    ("spurious_reports", s.spurious_reports),
                    ("false_convictions", s.false_convictions),
                    ("false_exonerations", s.false_exonerations),
                    ("stat_degraded_flows", s.degraded_flows),
                ] {
                    o.int(name, v);
                }
                o.float("latency_sum_s", latency);
                o.float(
                    "degraded_flow_s",
                    world.tracker.total_degraded_time().as_secs_f64(),
                );
                let invariant = if s.recovery_attempts != s.replacements + s.fallbacks {
                    Err(format!("{}: attempts != replacements + fallbacks", d.label))
                } else if s.fallbacks != s.pool_exhausted + s.halted_fallbacks + s.reconfig_aborts {
                    Err(format!("{}: a fallback without exactly one cause", d.label))
                } else if completed == 0 {
                    Err(format!("{}: no flow completed", d.label))
                } else {
                    Ok(())
                };
                Checked {
                    label: d.label.clone(),
                    outcome: o,
                    invariant,
                }
            })
            .collect()
    }
}
