//! `FlowSim` credits `link_bits` only when a flow's rate or links change:
//! after a solve that moves its rate, when it completes, stalls or moves,
//! and at the end of the run. This holds it to the per-step accumulation
//! it replaced, kept below verbatim as the oracle (every loop step added
//! `rate · dt` to each link of every running flow). Both runs must give
//! the same flow outcomes, finish instant and step count exactly; the link
//! counters must name the same links and agree to 1e-9 relative, since the
//! two ways of summing round differently.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sharebackup_flowsim::{Environment, FlowOutcome, FlowSim, FlowSpec, SimOutcome, WaterFiller};
use sharebackup_routing::FlowKey;
use sharebackup_sim::{Duration, Time};
use sharebackup_topo::{LinkId, Network, NodeId, NodeKind};

/// Epochs per instance, at most; the environment has one phase more.
const MAX_EPOCHS: usize = 4;
const PHASES: usize = MAX_EPOCHS + 1;

/// Four hosts, each linked to both of two spine switches, which are also
/// linked to each other: 9 links, most paths share one.
struct TwoSpineEnv {
    net: Network,
    spine: [NodeId; 2],
    /// Per phase, per link: capacity in bits/s (zero for some links).
    caps: Vec<Vec<f64>>,
    /// Per flow id, per phase: which route the flow gets (0 = none).
    plans: Vec<Vec<u32>>,
    /// Epochs fired so far.
    phase: usize,
}

impl Environment for TwoSpineEnv {
    fn capacity(&self, l: LinkId) -> f64 {
        self.caps[self.phase][l.0 as usize]
    }

    fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.net.link_between(a, b)
    }

    fn route(&mut self, flow: &FlowKey) -> Option<Vec<NodeId>> {
        let [a, b] = self.spine;
        let (s, d) = (flow.src, flow.dst);
        #[allow(clippy::cast_possible_truncation)]
        match self.plans[flow.id as usize][self.phase] {
            0 => None,
            1 => Some(vec![s, a, d]),
            2 => Some(vec![s, b, d]),
            3 => Some(vec![s, a, b, d]),
            _ => Some(vec![s, b, a, d]),
        }
    }

    fn on_epoch(&mut self, _index: usize, _now: Time) {
        self.phase += 1;
    }
}

/// One random instance.
#[derive(Clone, Debug)]
struct Instance {
    /// Per flow: source host, destination offset, bytes, arrival slot, and
    /// the route choice per phase.
    flows: Vec<(u32, u32, u64, u32, Vec<u32>)>,
    caps: Vec<Vec<f64>>,
    epochs: Vec<Time>,
    horizon: Time,
}

/// Up to 10 flows of up to 200 kB arriving over 2 ms, up to 4 epochs that
/// re-route or stall them, one link in six at zero capacity, a capacity
/// change on one link in four per phase, and a horizon half the time.
fn instances() -> impl Strategy<Value = Instance> {
    let flow = (
        0u32..4,
        1u32..4,
        0u64..200_000,
        0u32..20,
        prop::collection::vec(0u32..5, PHASES),
    );
    let base = prop::collection::vec((0u32..6, 1e8f64..1e10), 9);
    let changes = prop::collection::vec(
        prop::collection::vec((0u32..8, 0u32..6, 1e8f64..1e10), 9),
        MAX_EPOCHS,
    );
    (
        prop::collection::vec(flow, 1..=10),
        base,
        changes,
        prop::collection::vec(0u64..3_000_000, 0..=MAX_EPOCHS),
        (any::<bool>(), 0u64..5_000_000),
    )
        .prop_map(|(flows, base, changes, mut epochs, (bounded, horizon))| {
            epochs.sort_unstable();
            Instance {
                flows,
                caps: phase_caps(base, changes),
                epochs: epochs.into_iter().map(Time::from_nanos).collect(),
                horizon: if bounded {
                    Time::from_nanos(horizon)
                } else {
                    Time::MAX
                },
            }
        })
}

/// Per-phase capacities: a `(pick, capacity)` draw is zero when `pick` is
/// 0; a later phase redraws a link when its `change` is below 2.
fn phase_caps(base: Vec<(u32, f64)>, changes: Vec<Vec<(u32, u32, f64)>>) -> Vec<Vec<f64>> {
    let cap = |pick: u32, c: f64| if pick == 0 { 0.0 } else { c };
    let mut caps: Vec<Vec<f64>> = vec![base.into_iter().map(|(p, c)| cap(p, c)).collect()];
    for phase in changes {
        let prev = &caps[caps.len() - 1];
        let next = prev
            .iter()
            .zip(phase)
            .map(|(&c, (change, p, new))| if change < 2 { cap(p, new) } else { c })
            .collect();
        caps.push(next);
    }
    caps
}

fn build(inst: &Instance) -> (TwoSpineEnv, Vec<FlowSpec>) {
    let mut net = Network::new();
    let hosts: Vec<NodeId> = (0..4)
        .map(|i| net.add_node(NodeKind::Host, None, i))
        .collect();
    let spine = [
        net.add_node(NodeKind::Core, None, 0),
        net.add_node(NodeKind::Core, None, 1),
    ];
    for &h in &hosts {
        for &s in &spine {
            net.add_link(h, s, 1.0);
        }
    }
    net.add_link(spine[0], spine[1], 1.0);
    let specs = inst
        .flows
        .iter()
        .enumerate()
        .map(|(id, &(src, off, bytes, slot, _))| FlowSpec {
            key: FlowKey::new(
                hosts[src as usize],
                hosts[((src + off) % 4) as usize],
                id as u64,
            ),
            bytes,
            arrival: Time::from_micros(100 * u64::from(slot)),
        })
        .collect();
    let env = TwoSpineEnv {
        net,
        spine,
        caps: inst.caps.clone(),
        plans: inst.flows.iter().map(|f| f.4.clone()).collect(),
        phase: 0,
    };
    (env, specs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn credited_link_bits_match_the_per_step_oracle(inst in instances()) {
        let (mut env, specs) = build(&inst);
        let got = FlowSim::with_horizon(inst.horizon).run(&mut env, &specs, &inst.epochs);
        let (mut env, _) = build(&inst);
        let want = per_step_oracle(inst.horizon, &mut env, &specs, &inst.epochs);

        prop_assert_eq!(&got.flows, &want.flows, "flow outcomes");
        prop_assert_eq!(got.finished_at, want.finished_at, "finish instant");
        prop_assert_eq!(got.events, want.events, "loop steps");
        let keys = |o: &SimOutcome| o.link_bits.keys().copied().collect::<Vec<_>>();
        prop_assert_eq!(keys(&got), keys(&want), "links that carried traffic");
        for (l, &w) in &want.link_bits {
            let g = got.link_bits[l];
            prop_assert!(
                (g - w).abs() <= 1e-9 * w,
                "link {l:?}: credited {g} vs per-step {w} bits"
            );
        }
    }
}

/// Intern every link of `path` into `wf`, returning dense link indices.
fn dense_links_of_path(env: &impl Environment, wf: &mut WaterFiller, path: &[NodeId]) -> Vec<u32> {
    path.windows(2)
        .map(|w| {
            let l = env
                .link_between(w[0], w[1])
                .expect("route returned a non-adjacent hop");
            let cap = env.capacity(l);
            wf.link_index(l, cap)
        })
        .collect()
}

struct LiveFlow {
    index: usize,
    key: FlowKey,
    remaining: f64, // bits
    fid: usize,
}

/// The event loop as it was before link bits were credited on change:
/// every step visits every live flow to find the next completion, to
/// drain it, and to add `r · dt` to each of its links. Telemetry removed,
/// otherwise verbatim.
fn per_step_oracle(
    horizon: Time,
    env: &mut impl Environment,
    flows: &[FlowSpec],
    epochs: &[Time],
) -> SimOutcome {
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
    let mut live: Vec<LiveFlow> = Vec::new();
    let mut now = Time::ZERO;
    let mut wf = WaterFiller::new();
    let mut bits: Vec<f64> = Vec::new();
    let mut events: u64 = 0;

    loop {
        wf.solve();
        if bits.len() < wf.link_count() {
            bits.resize(wf.link_count(), 0.0);
        }

        let completion: Option<Time> = live
            .iter()
            .filter_map(|f| {
                let r = wf.rate(f.fid);
                if r > 0.0 {
                    let dt = Duration::from_secs_f64(f.remaining / r);
                    Some(now + dt.max(Duration::from_nanos(1)))
                } else {
                    None
                }
            })
            .min();
        let arrival = order.get(next_arrival).map(|&i| flows[i].arrival);
        let epoch = epochs.get(next_epoch).copied();

        let next_t = [completion, arrival, epoch].into_iter().flatten().min();
        let Some(next_t) = next_t else {
            break;
        };
        if next_t > horizon {
            let dt = horizon.saturating_since(now).as_secs_f64();
            for f in live.iter_mut() {
                let r = wf.rate(f.fid);
                f.remaining = (f.remaining - r * dt).max(0.0);
                if r > 0.0 {
                    for &li in wf.links(f.fid) {
                        bits[li as usize] += r * dt;
                    }
                }
            }
            now = horizon;
            break;
        }

        let dt = next_t.since(now).as_secs_f64();
        for f in live.iter_mut() {
            let r = wf.rate(f.fid);
            f.remaining -= r * dt;
            if f.remaining < 1e-3 {
                f.remaining = 0.0;
            }
            if r > 0.0 {
                for &li in wf.links(f.fid) {
                    bits[li as usize] += r * dt;
                }
            }
        }
        now = next_t;
        events += 1;
        env.on_advance(now);

        let mut j = 0;
        while j < live.len() {
            if live[j].remaining == 0.0 {
                let f = live.swap_remove(j);
                wf.remove_flow(f.fid);
                outcome[f.index].completed = Some(now);
                outcome[f.index].delivered = flows[f.index].bytes;
            } else {
                j += 1;
            }
        }

        let mut epoch_fired = false;
        while next_epoch < epochs.len() && epochs[next_epoch] <= now {
            env.on_epoch(next_epoch, now);
            next_epoch += 1;
            epoch_fired = true;
        }
        if epoch_fired {
            let keys: Vec<FlowKey> = live.iter().map(|f| f.key).collect();
            let routes = env.route_all(&keys);
            for (f, route) in live.iter().zip(routes) {
                match route {
                    Some(path) => {
                        let links = dense_links_of_path(env, &mut wf, &path);
                        let prev = wf.links(f.fid);
                        if !prev.is_empty() && prev != links.as_slice() {
                            outcome[f.index].rerouted = true;
                        }
                        wf.set_links(f.fid, links);
                        wf.set_stalled(f.fid, false);
                    }
                    None => {
                        wf.set_stalled(f.fid, true);
                        outcome[f.index].ever_stalled = true;
                    }
                }
            }
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
            live.push(LiveFlow {
                index: idx,
                key,
                remaining: flow_bits,
                fid,
            });
        }
    }

    for f in &live {
        let out = &mut outcome[f.index];
        if out.completed.is_none() {
            let sent_bits = flows[f.index].bytes as f64 * 8.0 - f.remaining;
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
    SimOutcome {
        flows: outcome,
        finished_at: now,
        link_bits,
        events,
    }
}
