//! What a workload hands the measurement loop: simulation jobs built
//! during set-up, and the plain or probed execution of each job.

use std::rc::Rc;
use std::time::Instant;

use sharebackup_core::{ControllerStats, F10World, FatTreeWorld, ShareBackupWorld};
use sharebackup_flowsim::{Environment, FlowSim, FlowSpec, SimOutcome};
use sharebackup_packet::{PacketNetConfig, PacketSim, PktEvent, PktFlowOutcome, PktFlowSpec};
use sharebackup_sim::Time;
use sharebackup_topo::Network;

use crate::check::Checked;
use crate::probe::{probed_run, LayerClock};

/// Nanoseconds since `start`.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Run `f`, adding its wall time to `acc`.
pub fn timed<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += elapsed_ns(start);
    out
}

/// Wall time of one set-up, split by the layer whose constructor or
/// generator ran.
#[derive(Clone, Debug, Default)]
pub struct SetupClock {
    /// Traffic generation (coflow traces, flow waves, flow pairs).
    pub trace_ns: u64,
    /// Failure schedules: sampling, mapping, and epoch timelines.
    pub schedule_ns: u64,
    /// Topology and controller construction.
    pub topo_ns: u64,
    /// Flows generated.
    pub flows: u64,
    /// Duration of each path computation made during set-up.
    pub route_call_ns: Vec<u64>,
}

/// A flow-level world of one of the three compared systems.
// A fixed run builds a handful of these; boxing would buy nothing.
#[allow(clippy::large_enum_variant)]
pub enum World {
    /// Fat-tree with global rerouting.
    FatTree(FatTreeWorld),
    /// F10 with local rerouting.
    F10(F10World),
    /// ShareBackup under its controller.
    Sb(ShareBackupWorld),
}

impl World {
    /// The controller counters, for ShareBackup worlds.
    pub fn stats(&self) -> Option<&ControllerStats> {
        match self {
            World::Sb(w) => Some(&w.controller.stats),
            _ => None,
        }
    }
}

/// One simulation run, fully set up.
#[allow(clippy::large_enum_variant)]
pub enum Job {
    /// A `FlowSim::run`.
    Flow {
        /// Run label.
        label: String,
        /// The world, loaded with its epoch events.
        world: World,
        /// The traffic (shared between the runs of one trial).
        flows: Rc<Vec<FlowSpec>>,
        /// Epoch instants.
        epochs: Vec<Time>,
    },
    /// A `PacketSim::run`.
    Packet {
        /// Run label.
        label: String,
        /// The network (cloned by the simulator).
        net: Rc<Network>,
        /// Flows with their paths.
        flows: Vec<PktFlowSpec>,
        /// Mid-run events.
        events: Vec<(Time, PktEvent)>,
        /// Simulation horizon.
        horizon: Time,
        /// Wire and protocol constants.
        cfg: PacketNetConfig,
    },
}

/// What a simulation run produced.
#[allow(clippy::large_enum_variant)]
pub enum Output {
    /// A flow-level run and the world after it.
    Flow {
        /// The simulator's outcome.
        out: SimOutcome,
        /// The world after the run.
        world: World,
    },
    /// A packet-level run.
    Packet {
        /// Per-flow outcomes.
        out: Vec<PktFlowOutcome>,
        /// Packets dropped.
        drops: u64,
    },
}

/// A finished simulation run.
pub struct Done {
    /// Run label.
    pub label: String,
    /// Its output.
    pub output: Output,
    /// Wall time of the simulator call.
    pub wall_ns: u64,
    /// The layer split, for probed flow-level runs.
    pub layers: Option<LayerClock>,
}

fn run_flow(
    env: &mut impl Environment,
    flows: &[FlowSpec],
    epochs: &[Time],
    probe: bool,
) -> (SimOutcome, Option<LayerClock>) {
    if probe {
        let (out, layers) = probed_run(env, flows, epochs);
        (out, Some(layers))
    } else {
        (FlowSim::new().run(env, flows, epochs), None)
    }
}

impl Job {
    /// Execute the run, probed or plain, timing the simulator call.
    pub fn run(self, probe: bool) -> Done {
        let start = Instant::now();
        match self {
            Job::Flow {
                label,
                mut world,
                flows,
                epochs,
            } => {
                let (out, layers) = match &mut world {
                    World::FatTree(w) => run_flow(w, &flows, &epochs, probe),
                    World::F10(w) => run_flow(w, &flows, &epochs, probe),
                    World::Sb(w) => run_flow(w, &flows, &epochs, probe),
                };
                let wall_ns = elapsed_ns(start);
                Done {
                    label,
                    output: Output::Flow { out, world },
                    wall_ns,
                    layers,
                }
            }
            Job::Packet {
                label,
                net,
                flows,
                events,
                horizon,
                cfg,
            } => {
                let (out, drops) = PacketSim::new(cfg).run(&net, &flows, events, horizon);
                let wall_ns = elapsed_ns(start);
                Done {
                    label,
                    output: Output::Packet { out, drops },
                    wall_ns,
                    layers: None,
                }
            }
        }
    }
}

/// A named benchmark workload.
pub trait Workload {
    /// What set-up hands to the outcome derivation besides the jobs.
    type Ctx;

    /// Build every input of one fixed run: topologies, traffic, failure
    /// schedules. Inputs are a pure function of the workload's seed.
    fn prepare(&self, clock: &mut SetupClock) -> (Vec<Job>, Self::Ctx);

    /// Derive each run's checkable outcome, in job order.
    fn outcomes(&self, ctx: &Self::Ctx, done: &mut [Done]) -> Vec<Checked>;
}
