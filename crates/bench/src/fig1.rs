//! Shared driver for the Fig. 1 experiments (§2.2 failure study).
//!
//! The same *abstract failure* — a switch position or a link position in
//! the fat-tree structure — is applied to all three systems so their
//! responses are directly comparable:
//!
//! * fat-tree with global optimal rerouting,
//! * F10 with local rerouting,
//! * ShareBackup under its recovery controller.

use sharebackup_core::scenario::{
    link_sb_event, sharebackup_timeline, F10World, FatTreeWorld, RecoveryMode, SbEvent,
    ShareBackupWorld, TopoEvent,
};
use sharebackup_core::{Controller, ControllerConfig};
use sharebackup_flowsim::{impact, Coflow, FlowSim, SimOutcome};
use sharebackup_routing::ecmp_path;
use sharebackup_sim::{Duration, SimRng, Time};
use sharebackup_telemetry::{TraceBuffer, Tracer};
use sharebackup_topo::{
    F10Topology, FatTree, FatTreeConfig, HostAddr, ShareBackup, ShareBackupConfig,
};
use sharebackup_workload::{CoflowTrace, TraceConfig};

use crate::racks::RackMap;

/// Parameters of a Fig. 1-style experiment.
#[derive(Clone, Copy, Debug)]
pub struct Fig1Setup {
    /// Fat-tree parameter (paper: 16).
    pub k: usize,
    /// Backups per group for the ShareBackup runs.
    pub n: usize,
    /// Edge oversubscription (paper: 10.0).
    pub oversubscription: f64,
    /// Trace duration (paper: 5-minute partitions).
    pub duration: Time,
    /// Failure strike time within the partition.
    pub fail_at: Time,
    /// Outage length before repair ("most failures last a few minutes").
    pub outage: Duration,
    /// Base RNG seed.
    pub seed: u64,
    /// Traffic intensity multiplier (scales the coflow arrival rate;
    /// 1.0 ≈ a lightly loaded cluster, 4-8 ≈ busy).
    pub load_factor: f64,
}

impl Fig1Setup {
    /// The paper's §2.2 configuration.
    pub fn paper(k: usize, seed: u64) -> Fig1Setup {
        Fig1Setup {
            k,
            n: 1,
            oversubscription: 10.0,
            duration: Time::from_secs(300),
            fail_at: Time::from_secs(30),
            outage: Duration::from_secs(180),
            seed,
            load_factor: 1.0,
        }
    }

    /// Scale the offered load (arrival rate multiplier).
    pub fn with_load(mut self, factor: f64) -> Fig1Setup {
        self.load_factor = factor;
        self
    }

    /// The fat-tree topology config.
    pub fn ft_config(&self) -> FatTreeConfig {
        FatTreeConfig::new(self.k).with_oversubscription(self.oversubscription)
    }

    /// Generate the synthetic coflow trace for trial `trial`.
    pub fn trace(&self, ft: &FatTree, trial: usize) -> CoflowTrace {
        let map = RackMap::new(self.k);
        // Cap widths so giant shuffles stay simulable at workstation scale
        // while preserving the heavy tail.
        let cfg = TraceConfig {
            max_width: (map.racks() / 4).max(8),
            ..TraceConfig::fb_like(map.racks(), self.duration)
        }
        .with_mean_interarrival_s(3.0 / self.load_factor);
        let mut rng = SimRng::seed_from_u64(self.seed).child(&format!("trace-{trial}"));
        CoflowTrace::generate(&cfg, &mut rng, |rack, salt| map.host(ft, rack, salt))
    }
}

/// An abstract failure position, mappable onto every compared topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbstractFailure {
    /// Edge switch (pod, j).
    Edge(usize, usize),
    /// Aggregation switch (pod, j).
    Agg(usize, usize),
    /// Core switch (global index).
    Core(usize),
    /// Link between edge `e` and its `m`-th uplink in `pod`.
    LinkEdgeUp {
        /// Pod.
        pod: usize,
        /// Edge index.
        e: usize,
        /// Uplink index.
        m: usize,
    },
    /// Link between agg `a` and its `m`-th core uplink in `pod`.
    LinkAggUp {
        /// Pod.
        pod: usize,
        /// Agg index.
        a: usize,
        /// Uplink index.
        m: usize,
    },
    /// Host link of host (pod, e, h); the switch-side interface is at
    /// fault.
    LinkHost {
        /// Pod.
        pod: usize,
        /// Edge index.
        e: usize,
        /// Host index.
        h: usize,
    },
}

impl AbstractFailure {
    /// Sample a node failure uniformly over switch positions.
    pub fn sample_node(rng: &mut SimRng, k: usize) -> AbstractFailure {
        let half = k / 2;
        let total = 2 * k * half + half * half;
        let x = rng.range(0..total);
        if x < k * half {
            AbstractFailure::Edge(x / half, x % half)
        } else if x < 2 * k * half {
            let y = x - k * half;
            AbstractFailure::Agg(y / half, y % half)
        } else {
            AbstractFailure::Core(x - 2 * k * half)
        }
    }

    /// Sample a link failure uniformly over link positions.
    pub fn sample_link(rng: &mut SimRng, k: usize) -> AbstractFailure {
        let half = k / 2;
        let host_links = k * half * half;
        let ea_links = k * half * half;
        let ac_links = k * half * half;
        let x = rng.range(0..host_links + ea_links + ac_links);
        if x < host_links {
            let pod = x / (half * half);
            let rem = x % (half * half);
            AbstractFailure::LinkHost {
                pod,
                e: rem / half,
                h: rem % half,
            }
        } else if x < host_links + ea_links {
            let y = x - host_links;
            let pod = y / (half * half);
            let rem = y % (half * half);
            AbstractFailure::LinkEdgeUp {
                pod,
                e: rem / half,
                m: rem % half,
            }
        } else {
            let y = x - host_links - ea_links;
            let pod = y / (half * half);
            let rem = y % (half * half);
            AbstractFailure::LinkAggUp {
                pod,
                a: rem / half,
                m: rem % half,
            }
        }
    }

    /// The topology event for this failure in `ft`; an agg uplink `m`
    /// resolves under `ft`'s striping.
    pub fn to_fattree(&self, ft: &FatTree) -> TopoEvent {
        let half = ft.k() / 2;
        match *self {
            AbstractFailure::Edge(p, j) => TopoEvent::FailNode(ft.edge(p, j)),
            AbstractFailure::Agg(p, j) => TopoEvent::FailNode(ft.agg(p, j)),
            AbstractFailure::Core(c) => TopoEvent::FailNode(ft.core(c)),
            AbstractFailure::LinkEdgeUp { pod, e, m } => {
                let a = (e + m) % half; // same position ShareBackup wires via CS2[m]
                let l = ft
                    .net
                    .link_between(ft.edge(pod, e), ft.agg(pod, a))
                    .expect("edge-agg link");
                TopoEvent::FailLink(l)
            }
            AbstractFailure::LinkAggUp { pod, a, m } => {
                let l = ft
                    .net
                    .link_between(ft.agg(pod, a), ft.core(ft.core_index(pod, a, m)))
                    .expect("agg-core link");
                TopoEvent::FailLink(l)
            }
            AbstractFailure::LinkHost { pod, e, h } => {
                let host = ft.host(HostAddr {
                    pod,
                    edge: e,
                    host: h,
                });
                let l = ft
                    .net
                    .link_between(host, ft.edge(pod, e))
                    .expect("host link");
                TopoEvent::FailLink(l)
            }
        }
    }

    /// The F10 topology event for this failure: the same structural
    /// position, with uplink `m` resolved under F10's striping.
    pub fn to_f10(&self, f10: &F10Topology) -> TopoEvent {
        self.to_fattree(f10)
    }

    /// The ShareBackup injection for this failure (against the physical
    /// occupant of the slot): the fat-tree event on the logical slot view,
    /// phrased against each slot's occupant by [`link_sb_event`].
    pub fn to_sharebackup(&self, sb: &ShareBackup) -> SbEvent {
        match self.to_fattree(&sb.slots) {
            TopoEvent::FailNode(n) => {
                SbEvent::NodeFail(sb.occupant(sb.node_slot(n).expect("a switch has a slot")))
            }
            TopoEvent::FailLink(l) => link_sb_event(sb, &sb.slots.net, l),
            _ => unreachable!("failures only"),
        }
    }
}

/// One system's CCT results for a trial.
#[derive(Clone, Debug)]
pub struct CctRun {
    /// Per-coflow CCT in seconds (`None` = never finished).
    pub cct: Vec<Option<f64>>,
}

/// Compute per-coflow CCTs from a sim outcome.
fn ccts(trace: &CoflowTrace, out: &SimOutcome) -> CctRun {
    CctRun {
        cct: trace
            .coflows
            .iter()
            .map(|cf: &Coflow| cf.cct(&trace.specs, out).map(|d| d.as_secs_f64()))
            .collect(),
    }
}

/// Run the baseline (no failure) on a fat-tree.
pub fn run_fattree_baseline(setup: &Fig1Setup, trace: &CoflowTrace) -> CctRun {
    let ft = FatTree::build(setup.ft_config());
    let mut world = FatTreeWorld::new(ft, RecoveryMode::GlobalOptimal, vec![]);
    let out = FlowSim::new().run(&mut world, &trace.specs, &[]);
    ccts(trace, &out)
}

/// A rerouting baseline's failure run: `fail` at `setup.fail_at` and its
/// repair an outage later, as world events and the epochs they fire at.
fn outage(setup: &Fig1Setup, fail: TopoEvent) -> (Vec<TopoEvent>, [Time; 2]) {
    let repair = match fail {
        TopoEvent::FailNode(n) => TopoEvent::RepairNode(n),
        TopoEvent::FailLink(l) => TopoEvent::RepairLink(l),
        _ => unreachable!("failures only"),
    };
    let epochs = [setup.fail_at, setup.fail_at + setup.outage];
    (vec![fail, repair], epochs)
}

/// Run a fat-tree trial with one failure, global optimal rerouting.
pub fn run_fattree_failure(
    setup: &Fig1Setup,
    trace: &CoflowTrace,
    failure: AbstractFailure,
) -> CctRun {
    let ft = FatTree::build(setup.ft_config());
    let (events, epochs) = outage(setup, failure.to_fattree(&ft));
    let mut world = FatTreeWorld::new(ft, RecoveryMode::GlobalOptimal, events);
    let out = FlowSim::new().run(&mut world, &trace.specs, &epochs);
    ccts(trace, &out)
}

/// Run the baseline (no failure) on F10.
pub fn run_f10_baseline(setup: &Fig1Setup, trace: &CoflowTrace) -> CctRun {
    let f10 = F10Topology::build(setup.ft_config());
    let mut world = F10World::new(f10, vec![]);
    let out = FlowSim::new().run(&mut world, &trace.specs, &[]);
    ccts(trace, &out)
}

/// Run an F10 trial with one failure, local rerouting.
pub fn run_f10_failure(setup: &Fig1Setup, trace: &CoflowTrace, failure: AbstractFailure) -> CctRun {
    let f10 = F10Topology::build(setup.ft_config());
    let (events, epochs) = outage(setup, failure.to_f10(&f10));
    let mut world = F10World::new(f10, events);
    let out = FlowSim::new().run(&mut world, &trace.specs, &epochs);
    ccts(trace, &out)
}

/// Run a ShareBackup trial with one failure under the controller. The flow
/// simulation records its solve spans/counters, the controller its
/// recovery span tree and, at the end, its `controller.*` counter block
/// onto `tracer` ([`Tracer::off`] records nothing).
pub fn run_sharebackup_failure(
    setup: &Fig1Setup,
    trace: &CoflowTrace,
    failure: AbstractFailure,
    tracer: &Tracer,
) -> (CctRun, ShareBackupWorld) {
    let sb = ShareBackup::build(ShareBackupConfig::for_fattree(setup.ft_config(), setup.n));
    let mut controller = Controller::new(sb, ControllerConfig::default());
    controller.tracer = tracer.clone();
    let mut world = ShareBackupWorld::new(controller, vec![]);
    let ev = failure.to_sharebackup(&world.controller.sb);
    let (events, times) = sharebackup_timeline(&world, &[(setup.fail_at, ev)]);
    world.events = events;
    let out = FlowSim::new().run_traced(&mut world, &trace.specs, &times, tracer);
    world.controller.stats.record(tracer);
    (ccts(trace, &out), world)
}

/// Slowdowns (failure CCT / baseline CCT) for coflows finished in both
/// runs; `stranded` counts coflows the failure run never finished.
pub fn slowdowns(baseline: &CctRun, failure: &CctRun) -> (Vec<f64>, usize) {
    let mut out = Vec::new();
    let mut stranded = 0;
    for (b, f) in baseline.cct.iter().zip(&failure.cct) {
        match (b, f) {
            (Some(b), Some(f)) if *b > 0.0 => out.push(f / b),
            (Some(_), None) => stranded += 1,
            _ => {}
        }
    }
    (out, stranded)
}

/// All three systems' slowdown samples from one Fig. 1(c)-style trial:
/// `(slowdowns, stranded)` per system.
#[derive(Clone, Debug)]
pub struct Fig1cTrial {
    /// Fat-tree with global optimal rerouting.
    pub ft: (Vec<f64>, usize),
    /// F10 with local rerouting.
    pub f10: (Vec<f64>, usize),
    /// ShareBackup under the recovery controller (slowdowns against the
    /// fat-tree baseline, the common no-failure reference).
    pub sb: (Vec<f64>, usize),
    /// The ShareBackup run's telemetry buffer when the trial ran traced
    /// (`None` otherwise). Plain data, so traced trials still fan out
    /// across worker threads and collect in trial order.
    pub trace: Option<TraceBuffer>,
}

/// Run one complete Fig. 1(c) trial: the trial's trace, baseline and
/// failure runs for fat-tree and F10, and the controller run for
/// ShareBackup.
///
/// A pure function of `(setup, trial, failure)` — the trace comes from the
/// per-trial child RNG stream — so trials fan out across threads without
/// changing results (see DESIGN.md on the determinism contract).
pub fn run_fig1c_trial(
    setup: &Fig1Setup,
    ft: &FatTree,
    trial: usize,
    failure: AbstractFailure,
) -> Fig1cTrial {
    run_fig1c_trial_traced(setup, ft, trial, failure, false)
}

/// [`run_fig1c_trial`] with optional telemetry. When `tracing`, the
/// ShareBackup run records onto a per-trial in-memory sink whose buffer is
/// returned in [`Fig1cTrial::trace`]; the tracer never leaves this call,
/// so the function stays safe to fan out across threads.
pub fn run_fig1c_trial_traced(
    setup: &Fig1Setup,
    ft: &FatTree,
    trial: usize,
    failure: AbstractFailure,
    tracing: bool,
) -> Fig1cTrial {
    let trace = setup.trace(ft, trial);
    let base_ft = run_fattree_baseline(setup, &trace);
    let fail_ft = run_fattree_failure(setup, &trace, failure);
    let base_f10 = run_f10_baseline(setup, &trace);
    let fail_f10 = run_f10_failure(setup, &trace, failure);
    let (tracer, sink) = if tracing {
        let (t, s) = Tracer::recording();
        (t, Some(s))
    } else {
        (Tracer::off(), None)
    };
    let (fail_sb, _world) = run_sharebackup_failure(setup, &trace, failure, &tracer);
    let buf = sink.map(|s| s.borrow_mut().take());
    Fig1cTrial {
        ft: slowdowns(&base_ft, &fail_ft),
        f10: slowdowns(&base_f10, &fail_f10),
        sb: slowdowns(&base_ft, &fail_sb),
        trace: buf,
    }
}

/// Fig. 1(a)/(b) sweep: affected flow/coflow fractions at each failure
/// count, averaged over trials. Trials run on `jobs` threads; each trial
/// derives its own RNG stream from `(seed, node_mode, count, trial)`, so
/// the result is independent of `jobs` (collected and summed in trial
/// order).
pub fn impact_sweep(
    setup: &Fig1Setup,
    node_mode: bool,
    failure_counts: &[usize],
    trials: usize,
    jobs: usize,
) -> Vec<(usize, f64, f64)> {
    let ft = FatTree::build(setup.ft_config());
    let mut results = Vec::new();
    for &count in failure_counts {
        let fractions = crate::parallel::parallel_map_indexed(jobs, trials, |trial| {
            let trace = setup.trace(&ft, trial);
            let paths: Vec<Vec<_>> = trace.specs.iter().map(|s| ecmp_path(&ft, &s.key)).collect();
            let mut net = ft.net.clone();
            let mut rng = SimRng::seed_from_u64(setup.seed)
                .child(&format!("impact-{node_mode}-{count}-{trial}"));
            for _ in 0..count {
                let f = if node_mode {
                    AbstractFailure::sample_node(&mut rng, setup.k)
                } else {
                    AbstractFailure::sample_link(&mut rng, setup.k)
                };
                match f.to_fattree(&ft) {
                    TopoEvent::FailNode(n) => net.set_node_up(n, false),
                    TopoEvent::FailLink(l) => net.set_link_up(l, false),
                    _ => unreachable!(),
                }
            }
            let report = impact::impact(&net, &paths, &trace.coflows);
            (report.flow_fraction(), report.coflow_fraction())
        });
        let mut flow_sum = 0.0;
        let mut coflow_sum = 0.0;
        for (f, c) in fractions {
            flow_sum += f;
            coflow_sum += c;
        }
        results.push((count, flow_sum / trials as f64, coflow_sum / trials as f64));
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abstract_failures_map_consistently() {
        let setup = Fig1Setup::paper(8, 1);
        let ft = FatTree::build(setup.ft_config());
        let f10 = F10Topology::build(setup.ft_config());
        let sb = ShareBackup::build(ShareBackupConfig::new(8, 1));
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..50 {
            let f = AbstractFailure::sample_node(&mut rng, 8);
            // Must map without panicking on every topology.
            let _ = f.to_fattree(&ft);
            let _ = f.to_f10(&f10);
            let _ = f.to_sharebackup(&sb);
            let l = AbstractFailure::sample_link(&mut rng, 8);
            let _ = l.to_fattree(&ft);
            let _ = l.to_f10(&f10);
            let _ = l.to_sharebackup(&sb);
        }
    }

    #[test]
    fn single_node_failure_amplifies_on_coflows() {
        // A miniature Fig. 1(a): coflow fraction ≥ flow fraction always.
        let setup = Fig1Setup::paper(8, 7);
        let rows = impact_sweep(&setup, true, &[1, 4], 3, 1);
        for (count, flow_frac, coflow_frac) in rows {
            assert!(
                coflow_frac >= flow_frac,
                "amplification must hold at count {count}: {coflow_frac} < {flow_frac}"
            );
        }
    }

    #[test]
    fn impact_sweep_is_jobs_invariant() {
        // The determinism contract end-to-end: running the trials on two
        // worker threads must reproduce the serial sweep bit for bit.
        let setup = Fig1Setup::paper(8, 7);
        let serial = impact_sweep(&setup, false, &[1, 2], 4, 1);
        let parallel = impact_sweep(&setup, false, &[1, 2], 4, 2);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn sharebackup_slowdown_is_negligible_vs_fattree() {
        // A miniature Fig. 1(c) on k=4 with a handful of coflows.
        let mut setup = Fig1Setup::paper(4, 3);
        setup.duration = Time::from_secs(30);
        setup.fail_at = Time::from_secs(2);
        setup.outage = Duration::from_secs(20);
        let ft = FatTree::build(setup.ft_config());
        let trace = setup.trace(&ft, 0);
        assert!(trace.coflow_count() > 0);
        // Pick a core failure (never strands hosts).
        let failure = AbstractFailure::Core(1);
        let base_ft = run_fattree_baseline(&setup, &trace);
        let fail_ft = run_fattree_failure(&setup, &trace, failure);
        let (fail_sb, world) = run_sharebackup_failure(&setup, &trace, failure, &Tracer::off());
        assert_eq!(world.controller.stats.replacements, 1);
        let (sd_ft, stranded_ft) = slowdowns(&base_ft, &fail_ft);
        let (sd_sb, stranded_sb) = slowdowns(&base_ft, &fail_sb);
        assert_eq!(stranded_ft, 0);
        assert_eq!(stranded_sb, 0);
        let max_sb = sd_sb.iter().cloned().fold(0.0, f64::max);
        let max_ft = sd_ft.iter().cloned().fold(0.0, f64::max);
        assert!(
            max_sb <= max_ft + 1e-6,
            "ShareBackup ({max_sb}) must not degrade more than fat-tree ({max_ft})"
        );
        assert!(max_sb < 1.05, "ShareBackup slowdown ≈ 1, got {max_sb}");
    }
}
