//! Outside-in wall-clock probes for the simulation layers.
//!
//! Nothing here changes the program. [`Probed`] delegates every
//! [`Environment`] call to the wrapped world and stamps it with
//! [`Instant`]; [`WallClockSink`] plugs into the existing
//! [`Tracer::from_sink`] hook and stamps the `flowsim.solve.*` records that
//! [`FlowSim::run_traced`] already emits. Both write into one shared
//! [`LayerClock`].
//!
//! Attribution inside one flow-level simulation run:
//!
//! * `route` / `route_all` → routing (per-flow routing / epoch re-routing);
//! * `on_epoch` → core epoch work (the controller's recovery);
//! * `on_advance` → core polling;
//! * from the end of the last environment call (or the run start) to a
//!   solve's `flowsim.solve.active_flows` record → flowsim solve, which
//!   covers the max-min solve plus the flow-set changes just before it;
//! * everything else in the run → flowsim advance (completion scans and
//!   draining).
//!
//! `capacity` and `link_between` are plain lookups the simulator calls per
//! path hop while interning links; they are delegated without a stamp.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use sharebackup_flowsim::{Environment, FlowSim, FlowSpec, SimOutcome};
use sharebackup_routing::FlowKey;
use sharebackup_sim::Time;
use sharebackup_telemetry::{Sink, Tracer};
use sharebackup_topo::{LinkId, NodeId};

/// Nanoseconds between two instants.
fn ns(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Wall-clock busy time and work counts of the layers one flow-level run
/// touched. Plain sums, so the runs of a workload fold with
/// [`LayerClock::absorb`].
#[derive(Clone, Debug, Default)]
pub struct LayerClock {
    /// End of the most recent environment call (or the run start).
    last_env_end: Option<Instant>,
    /// `Environment::route` calls.
    pub route_calls: u64,
    /// Busy time in `route`.
    pub route_ns: u64,
    /// Duration of each `route` call.
    pub route_call_ns: Vec<u64>,
    /// `route` calls that returned `None` (the flow stalls).
    pub unroutable: u64,
    /// `Environment::route_all` calls (one per fired epoch batch).
    pub reroute_calls: u64,
    /// Flows handed to `route_all`.
    pub reroute_flows: u64,
    /// Busy time in `route_all`.
    pub reroute_ns: u64,
    /// `Environment::on_epoch` calls.
    pub epochs: u64,
    /// Busy time in `on_epoch`.
    pub epoch_ns: u64,
    /// Busy time in `on_advance`.
    pub poll_ns: u64,
    /// Max-min solves (one `flowsim.solve.active_flows` record each).
    pub solves: u64,
    /// Time attributed to solves (see the module docs).
    pub solve_ns: u64,
    /// Duration of each solve.
    pub solve_call_ns: Vec<u64>,
    /// Sum of active flows over solves.
    pub active_sum: u64,
    /// Sum of filling rounds over solves.
    pub rounds_sum: u64,
    /// Sum of flows touched over solves.
    pub touched_sum: u64,
    /// Wall time of whole simulation runs.
    pub run_ns: u64,
}

impl LayerClock {
    /// Stamp the end of an environment call that began at `start`.
    fn env_call(&mut self, start: Instant) -> u64 {
        let end = Instant::now();
        self.last_env_end = Some(end);
        ns(start, end)
    }

    fn solve_record(&mut self, active: u64) {
        let now = Instant::now();
        let from = self.last_env_end.unwrap_or(now);
        let d = ns(from, now);
        self.solves += 1;
        self.solve_ns += d;
        self.solve_call_ns.push(d);
        self.active_sum += active;
    }

    /// The run's self time outside every stamped call: completion scans,
    /// draining, and interning between environment calls.
    pub fn advance_ns(&self) -> u64 {
        self.run_ns.saturating_sub(
            self.route_ns + self.reroute_ns + self.epoch_ns + self.poll_ns + self.solve_ns,
        )
    }

    /// Fold another clock's sums and samples into this one.
    pub fn absorb(&mut self, o: &LayerClock) {
        self.route_calls += o.route_calls;
        self.route_ns += o.route_ns;
        self.route_call_ns.extend_from_slice(&o.route_call_ns);
        self.unroutable += o.unroutable;
        self.reroute_calls += o.reroute_calls;
        self.reroute_flows += o.reroute_flows;
        self.reroute_ns += o.reroute_ns;
        self.epochs += o.epochs;
        self.epoch_ns += o.epoch_ns;
        self.poll_ns += o.poll_ns;
        self.solves += o.solves;
        self.solve_ns += o.solve_ns;
        self.solve_call_ns.extend_from_slice(&o.solve_call_ns);
        self.active_sum += o.active_sum;
        self.rounds_sum += o.rounds_sum;
        self.touched_sum += o.touched_sum;
        self.run_ns += o.run_ns;
    }
}

/// A shared handle to the clock both probes write.
pub type SharedClock = Rc<RefCell<LayerClock>>;

/// Delegating [`Environment`] that stamps each call into a [`LayerClock`].
pub struct Probed<'a, E> {
    inner: &'a mut E,
    clock: SharedClock,
}

impl<'a, E: Environment> Probed<'a, E> {
    /// Wrap `inner`, recording into `clock`.
    pub fn new(inner: &'a mut E, clock: SharedClock) -> Self {
        Probed { inner, clock }
    }
}

impl<E: Environment> Environment for Probed<'_, E> {
    fn capacity(&self, l: LinkId) -> f64 {
        self.inner.capacity(l)
    }

    fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.inner.link_between(a, b)
    }

    fn route(&mut self, flow: &FlowKey) -> Option<Vec<NodeId>> {
        let start = Instant::now();
        let path = self.inner.route(flow);
        let mut c = self.clock.borrow_mut();
        let d = c.env_call(start);
        c.route_calls += 1;
        c.route_ns += d;
        c.route_call_ns.push(d);
        if path.is_none() {
            c.unroutable += 1;
        }
        path
    }

    fn route_all(&mut self, flows: &[FlowKey]) -> Vec<Option<Vec<NodeId>>> {
        let start = Instant::now();
        let paths = self.inner.route_all(flows);
        let mut c = self.clock.borrow_mut();
        let d = c.env_call(start);
        c.reroute_calls += 1;
        c.reroute_flows += flows.len() as u64;
        c.reroute_ns += d;
        paths
    }

    fn on_epoch(&mut self, index: usize, now: Time) {
        let start = Instant::now();
        self.inner.on_epoch(index, now);
        let mut c = self.clock.borrow_mut();
        let d = c.env_call(start);
        c.epochs += 1;
        c.epoch_ns += d;
    }

    fn on_advance(&mut self, now: Time) {
        let start = Instant::now();
        self.inner.on_advance(now);
        let mut c = self.clock.borrow_mut();
        let d = c.env_call(start);
        c.poll_ns += d;
    }
}

/// A telemetry [`Sink`] that stamps the simulator's per-solve records with
/// wall-clock time. Every other event is ignored.
pub struct WallClockSink {
    clock: SharedClock,
}

impl WallClockSink {
    /// A sink recording into `clock`.
    pub fn new(clock: SharedClock) -> Self {
        WallClockSink { clock }
    }
}

impl Sink for WallClockSink {
    fn span_begin(&mut self, _at: Time, _cat: &'static str, _name: &str) {}
    fn span_end(&mut self, _at: Time) {}
    fn instant(&mut self, _at: Time, _cat: &'static str, _name: &str) {}
    fn add(&mut self, _counter: &'static str, _delta: u64) {}
    fn record(&mut self, hist: &'static str, value: u64) {
        let mut c = self.clock.borrow_mut();
        match hist {
            "flowsim.solve.active_flows" => c.solve_record(value),
            "flowsim.solve.rounds" => c.rounds_sum += value,
            "flowsim.solve.flows_touched" => c.touched_sum += value,
            _ => {}
        }
    }
}

/// Run `flows` against `env` under both probes and return the outcome with
/// the layer split of this one run.
pub fn probed_run(
    env: &mut impl Environment,
    flows: &[FlowSpec],
    epochs: &[Time],
) -> (SimOutcome, LayerClock) {
    let clock: SharedClock = Rc::new(RefCell::new(LayerClock::default()));
    let tracer = Tracer::from_sink(Rc::new(RefCell::new(WallClockSink::new(clock.clone()))));
    let mut probed = Probed::new(env, clock.clone());
    let start = Instant::now();
    clock.borrow_mut().last_env_end = Some(start);
    let out = FlowSim::new().run_traced(&mut probed, flows, epochs, &tracer);
    let run_ns = ns(start, Instant::now());
    drop(probed);
    drop(tracer);
    let mut layers = clock.take();
    layers.run_ns = run_ns;
    layers.last_env_end = None;
    (out, layers)
}
