//! The `fig1c` workload: the paper's Fig. 1(c) trials.
//!
//! Each trial runs five simulations over one coflow trace: fat-tree
//! baseline and failure (global optimal rerouting), F10 baseline and
//! failure (local rerouting), and ShareBackup under its controller.
//! Failures alternate between node and link and are drawn exactly as the
//! `fig1c_cct` harness draws them, so a trial here reproduces
//! `sharebackup_bench::fig1::run_fig1c_trial` bit for bit.
//!
//! Like the paper, which replays one recorded trace, the workload replays
//! fixed trace partitions (those of [`TRACE_SEED`]); the seed draws the
//! failures. The cost of a synthetic partition swings by more than 10x
//! between trace seeds, so seeding the trace would measure the seed, not
//! the program.

use std::rc::Rc;

use sharebackup_bench::fig1::{slowdowns, AbstractFailure, CctRun, Fig1Setup};
use sharebackup_core::scenario::{sharebackup_timeline, RecoveryMode, TopoEvent};
use sharebackup_core::{Controller, ControllerConfig, F10World, FatTreeWorld, ShareBackupWorld};
use sharebackup_flowsim::{Coflow, FlowSpec, SimOutcome};
use sharebackup_sim::{Cdf, SimRng, Time};
use sharebackup_topo::{F10Topology, FatTree, ShareBackup, ShareBackupConfig};

use crate::check::{Checked, Outcome};
use crate::workload::{timed, Done, Job, Output, SetupClock, Workload, World};

/// Labels of a trial's five runs, in job order.
pub const RUNS: [&str; 5] = ["ft-base", "ft-fail", "f10-base", "f10-fail", "sb-fail"];

/// Slowdown quantiles recorded per failure run (the Fig. 1(c) table's).
const QUANTILES: [(&str, f64); 5] = [
    ("p50", 0.5),
    ("p90", 0.9),
    ("p99", 0.99),
    ("p99.9", 0.999),
    ("max", 1.0),
];

/// Seed of the replayed trace partitions (the `fig1c_cct` default).
pub const TRACE_SEED: u64 = 42;

/// Fig. 1(c) at `k`, load 6, 10:1 oversubscription.
pub struct Fig1c {
    /// The paper's §2.2 set-up at load 6, over the fixed trace.
    pub setup: Fig1Setup,
    /// Seed of the failure draws.
    pub failure_seed: u64,
    /// Trials per fixed run.
    pub trials: usize,
}

/// Per-trial context kept for the outcome derivation.
pub struct TrialCtx {
    /// The trial's coflows (over the shared flow specs).
    pub coflows: Vec<Coflow>,
    /// The trial's flows.
    pub specs: Rc<Vec<FlowSpec>>,
}

/// One trial's Fig. 1(c) samples: `(slowdowns, stranded)` per system, in
/// the order of `sharebackup_bench::fig1::Fig1cTrial`.
pub type TrialSlowdowns = [(Vec<f64>, usize); 3];

impl Fig1c {
    /// The workload for `seed`: `trials` trials at fat-tree parameter `k`.
    pub fn new(k: usize, seed: u64, trials: usize) -> Fig1c {
        Fig1c {
            setup: Fig1Setup::paper(k, TRACE_SEED).with_load(6.0),
            failure_seed: seed,
            trials,
        }
    }

    /// The failures of trials `0..trials`, drawn as `fig1c_cct` draws them
    /// for `--mode both`.
    pub fn failures(&self) -> Vec<AbstractFailure> {
        let k = self.setup.k;
        let mut rng = SimRng::seed_from_u64(self.failure_seed).child("fig1c-failures");
        (0..self.trials)
            .map(|trial| {
                if trial % 2 == 0 {
                    AbstractFailure::sample_node(&mut rng, k)
                } else {
                    AbstractFailure::sample_link(&mut rng, k)
                }
            })
            .collect()
    }

    /// Per-trial slowdown samples from a finished fixed run.
    pub fn slowdowns(&self, ctx: &[TrialCtx], done: &[Done]) -> Vec<TrialSlowdowns> {
        ctx.iter()
            .zip(done.chunks(RUNS.len()))
            .map(|(t, runs)| {
                let cct: Vec<CctRun> = runs.iter().map(|d| ccts(t, sim_outcome(d))).collect();
                [
                    slowdowns(&cct[0], &cct[1]),
                    slowdowns(&cct[2], &cct[3]),
                    slowdowns(&cct[0], &cct[4]),
                ]
            })
            .collect()
    }
}

fn sim_outcome(d: &Done) -> &SimOutcome {
    match &d.output {
        Output::Flow { out, .. } => out,
        Output::Packet { .. } => unreachable!("fig1c runs are flow-level"),
    }
}

fn ccts(t: &TrialCtx, out: &SimOutcome) -> CctRun {
    CctRun {
        cct: t
            .coflows
            .iter()
            .map(|cf| cf.cct(&t.specs, out).map(|d| d.as_secs_f64()))
            .collect(),
    }
}

fn repair_of(ev: TopoEvent) -> TopoEvent {
    match ev {
        TopoEvent::FailNode(n) => TopoEvent::RepairNode(n),
        TopoEvent::FailLink(l) => TopoEvent::RepairLink(l),
        _ => unreachable!("failures only"),
    }
}

impl Workload for Fig1c {
    type Ctx = Vec<TrialCtx>;

    fn prepare(&self, clock: &mut SetupClock) -> (Vec<Job>, Vec<TrialCtx>) {
        let s = &self.setup;
        let failures = timed(&mut clock.schedule_ns, || self.failures());
        let probe = timed(&mut clock.topo_ns, || FatTree::build(s.ft_config()));
        let outage_epochs = vec![s.fail_at, s.fail_at + s.outage];
        let mut jobs = Vec::with_capacity(self.trials * RUNS.len());
        let mut ctx = Vec::with_capacity(self.trials);
        for (trial, &failure) in failures.iter().enumerate() {
            let trace = timed(&mut clock.trace_ns, || s.trace(&probe, trial));
            clock.flows += trace.specs.len() as u64;
            let specs = Rc::new(trace.specs);

            let (ft_base, ft, f10_base, f10, sb) = timed(&mut clock.topo_ns, || {
                let sb = ShareBackup::build(ShareBackupConfig::for_fattree(s.ft_config(), s.n));
                (
                    FatTree::build(s.ft_config()),
                    FatTree::build(s.ft_config()),
                    F10Topology::build(s.ft_config()),
                    F10Topology::build(s.ft_config()),
                    Controller::new(sb, ControllerConfig::default()),
                )
            });
            let mut sb = ShareBackupWorld::new(sb, vec![]);
            let (ft_ev, f10_ev, sb_times) = timed(&mut clock.schedule_ns, || {
                let ft_ev = failure.to_fattree(&ft);
                let f10_ev = failure.to_f10(&f10);
                let sb_ev = failure.to_sharebackup(&sb.controller.sb);
                let (events, times) = sharebackup_timeline(&sb, &[(s.fail_at, sb_ev)]);
                sb.events = events;
                (ft_ev, f10_ev, times)
            });

            let worlds = [
                (
                    World::FatTree(FatTreeWorld::new(
                        ft_base,
                        RecoveryMode::GlobalOptimal,
                        vec![],
                    )),
                    vec![],
                ),
                (
                    World::FatTree(FatTreeWorld::new(
                        ft,
                        RecoveryMode::GlobalOptimal,
                        vec![ft_ev, repair_of(ft_ev)],
                    )),
                    outage_epochs.clone(),
                ),
                (World::F10(F10World::new(f10_base, vec![])), vec![]),
                (
                    World::F10(F10World::new(f10, vec![f10_ev, repair_of(f10_ev)])),
                    outage_epochs.clone(),
                ),
                (World::Sb(sb), sb_times),
            ];
            for ((world, epochs), run) in worlds.into_iter().zip(RUNS) {
                jobs.push(Job::Flow {
                    label: format!("trial{trial}/{run}"),
                    world,
                    flows: specs.clone(),
                    epochs,
                });
            }
            ctx.push(TrialCtx {
                coflows: trace.coflows,
                specs,
            });
        }
        (jobs, ctx)
    }

    fn outcomes(&self, ctx: &Vec<TrialCtx>, done: &mut [Done]) -> Vec<Checked> {
        let samples = self.slowdowns(ctx, done);
        let mut out = Vec::with_capacity(done.len());
        for ((t, runs), sd) in ctx.iter().zip(done.chunks(RUNS.len())).zip(&samples) {
            for (i, d) in runs.iter().enumerate() {
                let sim = sim_outcome(d);
                let cct = ccts(t, sim);
                let mut o = Outcome::default();
                let completed = sim.flows.iter().filter(|f| f.completed.is_some()).count();
                o.int("completed_flows", completed as u64);
                o.int(
                    "completed_coflows",
                    cct.cct.iter().filter(|c| c.is_some()).count() as u64,
                );
                let baseline = RUNS[i].ends_with("-base");
                if !baseline {
                    let (samples, stranded) = &sd[i / 2];
                    o.int("stranded", *stranded as u64);
                    o.int("slowdowns", samples.len() as u64);
                    let cdf = Cdf::from_samples(samples.iter().copied());
                    for (name, q) in QUANTILES {
                        let v = if cdf.is_empty() { 0.0 } else { cdf.quantile(q) };
                        o.float(&format!("slowdown_{name}"), v);
                    }
                }
                if let Output::Flow {
                    world: World::Sb(sb),
                    ..
                } = &d.output
                {
                    let st = &sb.controller.stats;
                    o.int("replacements", st.replacements);
                    o.int("fallbacks", st.fallbacks);
                    o.int("recovery_attempts", st.recovery_attempts);
                    o.int("diagnoses", st.diagnoses);
                    o.int("exonerations", st.exonerations);
                    o.int("convictions", st.convictions);
                    o.int("circuit_reconfigs", st.circuit_reconfigs);
                }
                let fct_sum: f64 = (0..sim.flows.len())
                    .filter_map(|i| sim.fct(&t.specs, i))
                    .map(|d| d.as_secs_f64())
                    .sum();
                o.float("fct_sum_s", fct_sum);
                o.float("finished_at_s", sim.finished_at.as_secs_f64());
                let invariant = if baseline && completed != t.specs.len() {
                    Err(format!(
                        "{}: baseline finished {completed} of {} flows",
                        d.label,
                        t.specs.len()
                    ))
                } else if sim.finished_at == Time::ZERO && !t.specs.is_empty() {
                    Err(format!("{}: simulation never advanced", d.label))
                } else {
                    Ok(())
                };
                out.push(Checked {
                    label: d.label.clone(),
                    outcome: o,
                    invariant,
                });
            }
        }
        out
    }
}
