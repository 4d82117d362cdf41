//! Event-driven flow-progress simulation.
//!
//! The simulation advances from rate-change point to rate-change point:
//! flow arrivals, flow completions, and *epochs* — instants at which the
//! environment mutates (a failure strikes, the controller recovers it) and
//! all live flows are re-routed under the environment's policy. Between
//! events every flow drains at its max-min fair rate.
//!
//! The [`Environment`] trait is the seam between this simulator and the
//! topology/routing crates: fat-tree + global rerouting, F10 + local
//! rerouting, and ShareBackup + the recovery controller each implement it.

use std::collections::BTreeMap;

use sharebackup_routing::FlowKey;
use sharebackup_sim::{Duration, Time};
use sharebackup_telemetry::Tracer;
use sharebackup_topo::{LinkId, NodeId};

use crate::maxmin::WaterFiller;

/// One flow to simulate.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// Endpoints and id.
    pub key: FlowKey,
    /// Bytes to transfer.
    pub bytes: u64,
    /// Arrival instant.
    pub arrival: Time,
}

/// The world a [`FlowSim`] runs against.
pub trait Environment {
    /// Capacity of a link, bits per second.
    fn capacity(&self, l: LinkId) -> f64;

    /// The link joining two adjacent path nodes, if it exists.
    fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId>;

    /// Route a flow under the current state. `None` = currently
    /// unroutable (the flow stalls; it is retried at the next epoch).
    fn route(&mut self, flow: &FlowKey) -> Option<Vec<NodeId>>;

    /// Batch routing hook for policies that assign flows jointly (global
    /// optimal rerouting). Default: route each flow independently.
    fn route_all(&mut self, flows: &[FlowKey]) -> Vec<Option<Vec<NodeId>>> {
        flows.iter().map(|f| self.route(f)).collect()
    }

    /// Mutate the world at epoch `index` (failure injection, recovery, …).
    fn on_epoch(&mut self, index: usize, now: Time);

    /// Called each time simulated time advances to `now`, before any
    /// completion, epoch, or routing work at the new instant. Default:
    /// no-op. Worlds that keep time-stamped accounting (e.g. degraded-flow
    /// spells opened from [`Environment::route`], which carries no
    /// timestamp) override this to track the clock.
    fn on_advance(&mut self, _now: Time) {}
}

/// Per-flow result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowOutcome {
    /// Completion instant, if the flow finished before the horizon.
    pub completed: Option<Time>,
    /// Bytes actually delivered.
    pub delivered: u64,
    /// Whether the flow was ever stalled (no route) during its life.
    pub ever_stalled: bool,
    /// Whether the flow's path *changed* after it had one (resuming a
    /// stalled flow on the same path does not count).
    pub rerouted: bool,
}

/// Result of a simulation run.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Outcome per input flow, same order as the input.
    pub flows: Vec<FlowOutcome>,
    /// Instant at which the simulation stopped.
    pub finished_at: Time,
    /// Bits carried per link over the whole run (for utilization reports).
    /// Only links that actually carried traffic appear.
    pub link_bits: BTreeMap<LinkId, f64>,
    /// Event-loop steps executed (rate recomputations); a throughput
    /// denominator for benchmarking, not a semantic output.
    pub events: u64,
}

impl SimOutcome {
    /// Flow completion time (arrival → completion) of flow `i`.
    pub fn fct(&self, specs: &[FlowSpec], i: usize) -> Option<Duration> {
        self.flows[i].completed.map(|t| t.since(specs[i].arrival))
    }
}

struct LiveFlow {
    index: usize,
    key: FlowKey,
    /// Slot in the [`WaterFiller`] registry holding this flow's link list,
    /// stall state, and current rate.
    fid: usize,
    /// Since when the flow has carried its mirrored rate over its current
    /// links; what it carried before is already in the link counters.
    since: Time,
}

/// The live flows, as parallel arrays in one order. Every loop step
/// streams `remaining` and `rate`; the rest is touched only for the flows a
/// step changes.
#[derive(Default)]
struct Live {
    flows: Vec<LiveFlow>,
    /// Bits still to send.
    remaining: Vec<f64>,
    /// Mirror of [`WaterFiller::rate`], refreshed only where a solve or a
    /// mutation can have changed it.
    rate: Vec<f64>,
    /// Flow id → position in the arrays above.
    slot: Vec<usize>,
}

impl Live {
    fn len(&self) -> usize {
        self.flows.len()
    }

    fn push(&mut self, flow: LiveFlow, remaining: f64, rate: f64) {
        if self.slot.len() <= flow.fid {
            self.slot.resize(flow.fid + 1, usize::MAX);
        }
        self.slot[flow.fid] = self.flows.len();
        self.flows.push(flow);
        self.remaining.push(remaining);
        self.rate.push(rate);
    }

    /// Remove the flow at `j`; the last flow takes its place.
    fn swap_remove(&mut self, j: usize) -> LiveFlow {
        let f = self.flows.swap_remove(j);
        self.remaining.swap_remove(j);
        self.rate.swap_remove(j);
        if let Some(moved) = self.flows.get(j) {
            self.slot[moved.fid] = j;
        }
        f
    }

    /// Add what flow `j` carried from `since` to `t` to each of its links
    /// (as `wf` lists them now), and restart its tally at `t`. Called
    /// before anything changes the flow's rate or links. A zero-rate flow
    /// carries nothing and credits nothing.
    fn credit(&mut self, j: usize, t: Time, wf: &WaterFiller, bits: &mut [f64]) {
        let f = &mut self.flows[j];
        let r = self.rate[j];
        if r > 0.0 {
            let carried = r * t.since(f.since).as_secs_f64();
            for &li in wf.links(f.fid) {
                bits[li as usize] += carried;
            }
        }
        f.since = t;
    }
}

/// The flow-level simulator.
pub struct FlowSim {
    /// Stop simulating at this instant (flows still running get
    /// `completed: None` but keep their delivered byte counts).
    pub horizon: Time,
}

impl Default for FlowSim {
    fn default() -> Self {
        FlowSim { horizon: Time::MAX }
    }
}

/// Intern every link of `path` into `wf`, returning dense link indices.
/// Capacities are refreshed as a side effect, so a post-epoch re-route
/// also picks up capacity changes.
fn dense_links_of_path(
    env: &impl Environment,
    wf: &mut WaterFiller,
    path: &[NodeId],
) -> Vec<u32> {
    path.windows(2)
        .map(|w| {
            // A non-adjacent hop is a routing bug that must surface
            // loudly, not a recoverable condition.
            #[expect(clippy::expect_used, reason = "Environment contract violation")]
            let l = env
                .link_between(w[0], w[1])
                .expect("route returned a non-adjacent hop");
            let cap = env.capacity(l);
            wf.link_index(l, cap)
        })
        .collect()
}

impl FlowSim {
    /// A simulator with no horizon.
    pub fn new() -> FlowSim {
        FlowSim::default()
    }

    /// A simulator that stops at `horizon`.
    pub fn with_horizon(horizon: Time) -> FlowSim {
        FlowSim { horizon }
    }

    /// Run `flows` against `env`, applying `env.on_epoch(i, t)` at each
    /// `epochs[i]` (must be sorted ascending) and re-routing all live and
    /// stalled flows afterwards.
    pub fn run(
        &self,
        env: &mut impl Environment,
        flows: &[FlowSpec],
        epochs: &[Time],
    ) -> SimOutcome {
        self.run_traced(env, flows, epochs, &Tracer::off())
    }

    /// [`FlowSim::run`] with telemetry. With a recording tracer, emits one
    /// `flowsim/run` span over the whole simulation, per-solve histograms
    /// (active flows, filling rounds, links used, incremental mutations),
    /// cause counters for each loop step (completion / epoch / arrival),
    /// and an instant per fired epoch. With [`Tracer::off`] every
    /// instrumentation point is a single branch, so `run` delegates here
    /// unconditionally.
    pub fn run_traced(
        &self,
        env: &mut impl Environment,
        flows: &[FlowSpec],
        epochs: &[Time],
        tracer: &Tracer,
    ) -> SimOutcome {
        assert!(
            epochs.windows(2).all(|w| w[0] <= w[1]),
            "epochs must be sorted"
        );
        tracer.span_begin(Time::ZERO, "flowsim", "run");
        let mut outcome: Vec<FlowOutcome> = flows
            .iter()
            .map(|_| FlowOutcome {
                completed: None,
                delivered: 0,
                ever_stalled: false,
                rerouted: false,
            })
            .collect();

        let mut order: Vec<usize> = (0..flows.len()).collect();
        order.sort_by_key(|&i| flows[i].arrival);
        let mut next_arrival = 0usize;
        let mut next_epoch = 0usize;
        let mut live = Live::default();
        let mut now = Time::ZERO;
        // Dense, reused allocator state: link interning, per-link flow
        // counts, and rate scratch all persist across events.
        let mut wf = WaterFiller::new();
        // Bits carried per dense link index, credited whenever a flow's
        // rate or links change; folded into a BTreeMap at the end (zero
        // entries are dropped — a link that never carried traffic does not
        // appear in the output).
        let mut bits: Vec<f64> = Vec::new();
        let mut events: u64 = 0;

        loop {
            // Max-min rates for the current live set (stalled flows get 0).
            wf.solve();
            if tracer.is_enabled() {
                let st = wf.last_solve_stats();
                tracer.record("flowsim.solve.active_flows", st.active_flows);
                tracer.record("flowsim.solve.rounds", st.rounds);
                tracer.record("flowsim.solve.links_used", st.links_used);
                tracer.record("flowsim.solve.flows_touched", st.flows_touched);
                tracer.record("flowsim.solve.replayed", st.replayed);
            }
            if bits.len() < wf.link_count() {
                bits.resize(wf.link_count(), 0.0);
            }
            // Only the flows the solve froze afresh can have a new rate;
            // each one that does first credits what its old rate carried.
            for &fid in wf.refrozen() {
                let j = live.slot[fid];
                let r = wf.rate(fid);
                if r.to_bits() != live.rate[j].to_bits() {
                    live.credit(j, now, &wf, &mut bits);
                    live.rate[j] = r;
                }
            }
            #[cfg(feature = "strict-invariants")]
            for (f, r) in live.flows.iter().zip(&live.rate) {
                assert_eq!(
                    r.to_bits(),
                    wf.rate(f.fid).to_bits(),
                    "flowsim: stale rate mirror for flow {}",
                    f.index
                );
            }

            // Candidate next-event instants. The soonest completion is the
            // least `remaining / rate`, converted once: the conversion
            // rounds to the nanosecond and never decreases, so it picks the
            // same instant as converting every quotient. Each quotient is
            // still checked as the conversion would, so a NaN or negative
            // one panics instead of dropping out of the minimum. The delta
            // is clamped to ≥ 1 ns: float residue in `remaining` must never
            // produce a zero-delta event, which would stall virtual time
            // forever.
            let mut soonest = f64::INFINITY;
            for (&rem, &r) in live.remaining.iter().zip(&live.rate) {
                if r > 0.0 {
                    let secs = rem / r;
                    assert!(
                        secs >= 0.0 && (secs * 1e9).is_finite(),
                        "flowsim: completion in {secs} s ({rem} bits at {r} bit/s)"
                    );
                    soonest = soonest.min(secs);
                }
            }
            let completion = (soonest < f64::INFINITY).then(|| {
                now + Duration::from_secs_f64(soonest).max(Duration::from_nanos(1))
            });
            let arrival = order.get(next_arrival).map(|&i| flows[i].arrival);
            let epoch = epochs.get(next_epoch).copied();

            let next_t = [completion, arrival, epoch]
                .into_iter()
                .flatten()
                .min();
            let Some(next_t) = next_t else {
                break; // nothing will ever happen again
            };
            if next_t > self.horizon {
                // Drain until the horizon, then stop; the links are
                // credited after the loop.
                let dt = self.horizon.saturating_since(now).as_secs_f64();
                for (rem, &r) in live.remaining.iter_mut().zip(&live.rate) {
                    *rem = (*rem - r * dt).max(0.0);
                }
                now = self.horizon;
                tracer.instant(now, "flowsim", "horizon");
                break;
            }

            // Advance. The epsilon is generous (1 millibit) — any flow that
            // close to done at its own completion instant *is* done; keeping
            // a sub-nanosecond-of-traffic residue alive only breeds
            // zero-progress events.
            let dt = next_t.since(now).as_secs_f64();
            for (rem, &r) in live.remaining.iter_mut().zip(&live.rate) {
                *rem -= r * dt;
                if *rem < 1e-3 {
                    *rem = 0.0;
                }
            }
            now = next_t;
            events += 1;
            env.on_advance(now);

            // 1. Completions.
            let mut completed_any = false;
            let mut j = 0;
            while j < live.len() {
                if live.remaining[j] == 0.0 {
                    live.credit(j, now, &wf, &mut bits);
                    let f = live.swap_remove(j);
                    wf.remove_flow(f.fid);
                    outcome[f.index].completed = Some(now);
                    outcome[f.index].delivered = flows[f.index].bytes;
                    completed_any = true;
                } else {
                    j += 1;
                }
            }
            if completed_any {
                tracer.add("flowsim.cause.completion", 1);
            }

            // 2. Epochs due now (before arrivals, so new flows route under
            //    the post-epoch state).
            let mut epoch_fired = false;
            while next_epoch < epochs.len() && epochs[next_epoch] <= now {
                env.on_epoch(next_epoch, now);
                next_epoch += 1;
                epoch_fired = true;
            }
            if epoch_fired {
                tracer.add("flowsim.cause.epoch", 1);
                tracer.instant(now, "flowsim", "epoch");
                let keys: Vec<FlowKey> = live.flows.iter().map(|f| f.key).collect();
                let routes = env.route_all(&keys);
                for (j, route) in routes.into_iter().enumerate() {
                    let (fid, index) = (live.flows[j].fid, live.flows[j].index);
                    match route {
                        Some(path) => {
                            let links = dense_links_of_path(env, &mut wf, &path);
                            let prev = wf.links(fid);
                            if prev != links.as_slice() {
                                // "Rerouted" = the path changed after the
                                // flow had one. Resuming a stalled flow on
                                // the same path (ShareBackup) is not a
                                // reroute.
                                if !prev.is_empty() {
                                    outcome[index].rerouted = true;
                                }
                                live.credit(j, now, &wf, &mut bits);
                            }
                            wf.set_links(fid, links);
                            wf.set_stalled(fid, false);
                        }
                        None => {
                            // A stalled flow keeps its link list, so
                            // resuming on the same path later is not a
                            // reroute.
                            live.credit(j, now, &wf, &mut bits);
                            wf.set_stalled(fid, true);
                            outcome[index].ever_stalled = true;
                        }
                    }
                    live.rate[j] = wf.rate(fid);
                }
            }

            // 3. Arrivals due now.
            if order.get(next_arrival).is_some_and(|&i| flows[i].arrival <= now) {
                tracer.add("flowsim.cause.arrival", 1);
            }
            while next_arrival < order.len() && flows[order[next_arrival]].arrival <= now {
                let idx = order[next_arrival];
                next_arrival += 1;
                let key = flows[idx].key;
                let flow_bits = flows[idx].bytes as f64 * 8.0;
                if flow_bits == 0.0 {
                    outcome[idx].completed = Some(now);
                    continue;
                }
                let fid = match env.route(&key) {
                    Some(path) => {
                        let links = dense_links_of_path(env, &mut wf, &path);
                        wf.add_flow(links)
                    }
                    None => {
                        outcome[idx].ever_stalled = true;
                        let fid = wf.add_flow(Vec::new());
                        wf.set_stalled(fid, true);
                        fid
                    }
                };
                let flow = LiveFlow {
                    index: idx,
                    key,
                    fid,
                    since: now,
                };
                live.push(flow, flow_bits, wf.rate(fid));
            }
        }

        // Credit what every flow still live carried up to the end, and
        // work out the delivered bytes of the unfinished ones.
        for j in 0..live.len() {
            live.credit(j, now, &wf, &mut bits);
            let index = live.flows[j].index;
            let out = &mut outcome[index];
            if out.completed.is_none() {
                let sent_bits = flows[index].bytes as f64 * 8.0 - live.remaining[j];
                // Bounded by flows[i].bytes, and float->int `as` saturates.
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                {
                    out.delivered = (sent_bits / 8.0).floor().max(0.0) as u64;
                }
            }
        }
        let mut link_bits: BTreeMap<LinkId, f64> = BTreeMap::new();
        for (i, &b) in bits.iter().enumerate() {
            if b > 0.0 {
                link_bits.insert(wf.link_id(i), b);
            }
        }
        tracer.add("flowsim.loop_steps", events);
        tracer.span_end(now);
        SimOutcome {
            flows: outcome,
            finished_at: now,
            link_bits,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A line network: h0 — s — h1, plus a second host pair sharing the
    /// middle link. Capacities in bits/s for easy arithmetic.
    struct LineEnv {
        net: sharebackup_topo::Network,
        /// Paths to hand out, keyed by flow id. `None` = unroutable.
        paths: BTreeMap<u64, Option<Vec<NodeId>>>,
        epoch_log: Vec<(usize, Time)>,
        /// When an epoch fires, switch flow routes to these.
        after_epoch: BTreeMap<u64, Option<Vec<NodeId>>>,
    }

    impl Environment for LineEnv {
        fn capacity(&self, l: LinkId) -> f64 {
            self.net.link(l).capacity_bps
        }
        fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
            self.net.link_between(a, b)
        }
        fn route(&mut self, flow: &FlowKey) -> Option<Vec<NodeId>> {
            self.paths.get(&flow.id).cloned().flatten()
        }
        fn on_epoch(&mut self, index: usize, now: Time) {
            self.epoch_log.push((index, now));
            for (id, p) in std::mem::take(&mut self.after_epoch) {
                self.paths.insert(id, p);
            }
        }
    }

    fn line_env() -> (LineEnv, Vec<NodeId>) {
        use sharebackup_topo::NodeKind;
        let mut net = sharebackup_topo::Network::new();
        let h0 = net.add_node(NodeKind::Host, None, 0);
        let h1 = net.add_node(NodeKind::Host, None, 1);
        let s = net.add_node(NodeKind::Edge, None, 0);
        net.add_link(h0, s, 8.0); // 1 byte/s
        net.add_link(s, h1, 8.0);
        (
            LineEnv {
                net,
                paths: BTreeMap::new(),
                epoch_log: Vec::new(),
                after_epoch: BTreeMap::new(),
            },
            vec![h0, h1, s],
        )
    }

    fn spec(h0: NodeId, h1: NodeId, id: u64, bytes: u64, at: Time) -> FlowSpec {
        FlowSpec {
            key: FlowKey::new(h0, h1, id),
            bytes,
            arrival: at,
        }
    }

    #[test]
    fn single_flow_completes_at_capacity() {
        let (mut env, n) = line_env();
        env.paths.insert(0, Some(vec![n[0], n[2], n[1]]));
        let flows = vec![spec(n[0], n[1], 0, 10, Time::ZERO)];
        let out = FlowSim::new().run(&mut env, &flows, &[]);
        // 10 bytes at 1 byte/s → 10 s.
        assert_eq!(out.flows[0].completed, Some(Time::from_secs(10)));
        assert_eq!(out.flows[0].delivered, 10);
    }

    #[test]
    fn two_flows_share_fairly() {
        let (mut env, n) = line_env();
        env.paths.insert(0, Some(vec![n[0], n[2], n[1]]));
        env.paths.insert(1, Some(vec![n[0], n[2], n[1]]));
        let flows = vec![
            spec(n[0], n[1], 0, 10, Time::ZERO),
            spec(n[0], n[1], 1, 10, Time::ZERO),
        ];
        let out = FlowSim::new().run(&mut env, &flows, &[]);
        // Both share 1 byte/s → each takes 20 s.
        assert_eq!(out.flows[0].completed, Some(Time::from_secs(20)));
        assert_eq!(out.flows[1].completed, Some(Time::from_secs(20)));
    }

    #[test]
    fn short_flow_finishing_speeds_up_the_other() {
        let (mut env, n) = line_env();
        env.paths.insert(0, Some(vec![n[0], n[2], n[1]]));
        env.paths.insert(1, Some(vec![n[0], n[2], n[1]]));
        let flows = vec![
            spec(n[0], n[1], 0, 5, Time::ZERO),
            spec(n[0], n[1], 1, 10, Time::ZERO),
        ];
        let out = FlowSim::new().run(&mut env, &flows, &[]);
        // Share 0.5 B/s until flow 0 finishes at 10 s (5 B). Flow 1 has 5 B
        // left, then runs at 1 B/s → finishes at 15 s.
        assert_eq!(out.flows[0].completed, Some(Time::from_secs(10)));
        assert_eq!(out.flows[1].completed, Some(Time::from_secs(15)));
    }

    #[test]
    fn late_arrival_changes_rates() {
        let (mut env, n) = line_env();
        env.paths.insert(0, Some(vec![n[0], n[2], n[1]]));
        env.paths.insert(1, Some(vec![n[0], n[2], n[1]]));
        let flows = vec![
            spec(n[0], n[1], 0, 10, Time::ZERO),
            spec(n[0], n[1], 1, 10, Time::from_secs(5)),
        ];
        let out = FlowSim::new().run(&mut env, &flows, &[]);
        // Flow 0: 5 B alone (5 s), then shares: 5 B at 0.5 B/s → t=15.
        // Flow 1: from t=5 shares 0.5 B/s for 10 s → 5 B by t=15, then
        // alone at 1 B/s for remaining 5 B → t=20.
        assert_eq!(out.flows[0].completed, Some(Time::from_secs(15)));
        assert_eq!(out.flows[1].completed, Some(Time::from_secs(20)));
    }

    #[test]
    fn unroutable_flow_stalls_until_epoch_restores_it() {
        let (mut env, n) = line_env();
        env.paths.insert(0, None); // failed at arrival
        env.after_epoch.insert(0, Some(vec![n[0], n[2], n[1]]));
        let flows = vec![spec(n[0], n[1], 0, 10, Time::ZERO)];
        let out = FlowSim::new().run(&mut env, &flows, &[Time::from_secs(7)]);
        // Stalled for 7 s, then 10 s of transfer.
        assert_eq!(out.flows[0].completed, Some(Time::from_secs(17)));
        assert!(out.flows[0].ever_stalled);
        // Gaining a first path after an arrival-stall is not a reroute.
        assert!(!out.flows[0].rerouted);
        assert_eq!(env.epoch_log, vec![(0, Time::from_secs(7))]);
    }

    #[test]
    fn permanently_stalled_flow_never_completes() {
        let (mut env, n) = line_env();
        env.paths.insert(0, None);
        let flows = vec![spec(n[0], n[1], 0, 10, Time::ZERO)];
        let out = FlowSim::new().run(&mut env, &flows, &[]);
        assert_eq!(out.flows[0].completed, None);
        assert_eq!(out.flows[0].delivered, 0);
    }

    #[test]
    fn horizon_cuts_off_and_reports_partial_delivery() {
        let (mut env, n) = line_env();
        env.paths.insert(0, Some(vec![n[0], n[2], n[1]]));
        let flows = vec![spec(n[0], n[1], 0, 100, Time::ZERO)];
        let out = FlowSim::with_horizon(Time::from_secs(30)).run(&mut env, &flows, &[]);
        assert_eq!(out.flows[0].completed, None);
        assert_eq!(out.flows[0].delivered, 30);
        assert_eq!(out.finished_at, Time::from_secs(30));
    }

    #[test]
    fn zero_byte_flow_completes_on_arrival() {
        let (mut env, n) = line_env();
        env.paths.insert(0, Some(vec![n[0], n[2], n[1]]));
        let flows = vec![spec(n[0], n[1], 0, 0, Time::from_secs(3))];
        let out = FlowSim::new().run(&mut env, &flows, &[]);
        assert_eq!(out.flows[0].completed, Some(Time::from_secs(3)));
    }

    #[test]
    fn utilization_accounting_matches_bytes_sent() {
        let (mut env, n) = line_env();
        env.paths.insert(0, Some(vec![n[0], n[2], n[1]]));
        let flows = vec![spec(n[0], n[1], 0, 10, Time::ZERO)];
        let out = FlowSim::new().run(&mut env, &flows, &[]);
        // Both links carried all 80 bits.
        let l0 = env.net.link_between(n[0], n[2]).expect("link");
        let l1 = env.net.link_between(n[2], n[1]).expect("link");
        assert!((out.link_bits[&l0] - 80.0).abs() < 1e-6);
        assert!((out.link_bits[&l1] - 80.0).abs() < 1e-6);
    }

    #[test]
    fn zero_rate_flow_mints_no_link_entries_at_horizon() {
        // Flow 0 runs h0—s—h1 at 1 B/s; flow 1 is routed over a
        // zero-capacity link (h2—s) and drains at rate 0. The horizon
        // drain must apply the same r > 0 guard as the main advance: the
        // dead flow's links must not appear in link_bits as zero-byte
        // entries.
        use sharebackup_topo::NodeKind;
        let mut net = sharebackup_topo::Network::new();
        let h0 = net.add_node(NodeKind::Host, None, 0);
        let h1 = net.add_node(NodeKind::Host, None, 1);
        let h2 = net.add_node(NodeKind::Host, None, 2);
        let s = net.add_node(NodeKind::Edge, None, 0);
        let l0 = net.add_link(h0, s, 8.0);
        let l1 = net.add_link(s, h1, 8.0);
        let dead = net.add_link(h2, s, 0.0);
        let mut env = LineEnv {
            net,
            paths: BTreeMap::new(),
            epoch_log: Vec::new(),
            after_epoch: BTreeMap::new(),
        };
        env.paths.insert(0, Some(vec![h0, s, h1]));
        env.paths.insert(1, Some(vec![h2, s, h1]));
        let flows = vec![
            spec(h0, h1, 0, 10, Time::ZERO),
            spec(h2, h1, 1, 10, Time::ZERO),
        ];
        let out = FlowSim::with_horizon(Time::from_secs(5)).run(&mut env, &flows, &[]);
        // Flow 1's private link carried nothing and must be absent.
        assert!(!out.link_bits.contains_key(&dead), "{:?}", out.link_bits);
        assert_eq!(out.flows[1].delivered, 0);
        // Flow 0 drained to the horizon: 5 s at 8 bps on both its links.
        assert!((out.link_bits[&l0] - 40.0).abs() < 1e-6);
        assert!((out.link_bits[&l1] - 40.0).abs() < 1e-6);
        assert_eq!(out.flows[0].delivered, 5);
    }

    #[test]
    fn event_counter_tracks_loop_steps() {
        let (mut env, n) = line_env();
        env.paths.insert(0, Some(vec![n[0], n[2], n[1]]));
        let flows = vec![spec(n[0], n[1], 0, 10, Time::ZERO)];
        let out = FlowSim::new().run(&mut env, &flows, &[]);
        // One arrival step, one completion step.
        assert_eq!(out.events, 2);
    }

    #[test]
    fn traced_run_records_telemetry_without_changing_outcomes() {
        use sharebackup_telemetry::TraceEvent;
        let make = || {
            let (mut env, n) = line_env();
            env.paths.insert(0, None); // stalled until the epoch restores it
            env.after_epoch.insert(0, Some(vec![n[0], n[2], n[1]]));
            (env, n)
        };
        let (mut env, n) = make();
        let flows = vec![spec(n[0], n[1], 0, 10, Time::ZERO)];
        let epochs = [Time::from_secs(7)];
        let plain = FlowSim::new().run(&mut env, &flows, &epochs);

        let (tracer, sink) = sharebackup_telemetry::Tracer::recording();
        let (mut env, _) = make();
        let traced = FlowSim::new().run_traced(&mut env, &flows, &epochs, &tracer);
        assert_eq!(plain.flows, traced.flows, "tracing must not perturb the sim");
        assert_eq!(plain.events, traced.events);

        let buf = sink.borrow_mut().take();
        let spans = buf.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "run");
        assert_eq!(spans[0].end, Time::from_secs(17));
        assert_eq!(buf.counters.get("flowsim.cause.epoch"), Some(&1));
        assert_eq!(buf.counters.get("flowsim.cause.arrival"), Some(&1));
        assert_eq!(buf.counters.get("flowsim.cause.completion"), Some(&1));
        assert_eq!(buf.counters.get("flowsim.loop_steps"), Some(&traced.events));
        // One solve per loop iteration plus the initial one.
        let rounds = buf.hists.get("flowsim.solve.rounds").expect("recorded");
        assert_eq!(rounds.count(), traced.events + 1);
        // The epoch shows up as an instant event.
        assert!(buf.events.iter().any(|e| matches!(
            e,
            TraceEvent::Mark { name, at, .. } if name == "epoch" && *at == Time::from_secs(7)
        )));
    }

    #[test]
    fn fct_helper_subtracts_arrival() {
        let (mut env, n) = line_env();
        env.paths.insert(0, Some(vec![n[0], n[2], n[1]]));
        let flows = vec![spec(n[0], n[1], 0, 10, Time::from_secs(100))];
        let out = FlowSim::new().run(&mut env, &flows, &[]);
        assert_eq!(out.fct(&flows, 0), Some(Duration::from_secs(10)));
    }
}
