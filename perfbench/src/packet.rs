//! The `packet` workload: the §5.3 packet-level failover, scaled to many
//! concurrent flows.
//!
//! Every host of a k=8 fat-tree sends one transfer to a host in another
//! pod, and receives one. Shortly after the start, the core switch that carries the most of
//! these flows dies. Under ShareBackup the flows get the same path back
//! after the modeled circuit-switch recovery latency; under local
//! rerouting the affected flows move to a surviving path after the
//! local-reroute latency. No flow-level simulator or max-min solve runs.

use std::rc::Rc;

use sharebackup_core::{RecoveryLatencyModel, RecoveryScheme};
use sharebackup_packet::{PacketNetConfig, PktEvent, PktFlowSpec};
use sharebackup_routing::{ecmp_path, FlowKey};
use sharebackup_sim::{Duration, SimRng, Time};
use sharebackup_topo::{CircuitTech, FatTree, FatTreeConfig, NodeId, NodeKind};

use crate::check::{Checked, Outcome};
use crate::workload::{elapsed_ns, timed, Done, Job, Output, SetupClock, Workload};

/// The failure strikes this long after the flows start.
const FAIL_AT: Time = Time(1_000_000);
/// Nothing is simulated past this instant.
const HORIZON: Time = Time(5_000_000_000);

/// The packet-level failover workload.
pub struct Packet {
    /// Fat-tree parameter.
    pub k: usize,
    /// Base seed: picks each host's destination.
    pub seed: u64,
    /// Bytes per transfer.
    pub bytes: u64,
}

/// Labels of the two treatments, in job order.
pub const RUNS: [&str; 2] = ["sharebackup", "local-reroute"];

fn cfg() -> PacketNetConfig {
    PacketNetConfig {
        rto: Duration::from_millis(2),
        ..PacketNetConfig::default()
    }
}

impl Packet {
    /// A host permutation with every transfer crossing pods: pod `p`'s
    /// hosts, shuffled, send to the hosts of pod `π(p)` for a random
    /// fixed-point-free pod permutation `π`. Every host sends and receives
    /// exactly one transfer, so the seed moves the paths but not the load.
    fn pairs(&self, ft: &FatTree) -> Vec<FlowKey> {
        let mut rng = SimRng::seed_from_u64(self.seed).child("packet-pairs");
        let pods: Vec<Vec<NodeId>> = (0..self.k)
            .map(|p| {
                let mut hosts: Vec<NodeId> = ft
                    .hosts()
                    .iter()
                    .copied()
                    .filter(|&h| ft.net.node(h).pod == Some(p))
                    .collect();
                rng.shuffle(&mut hosts);
                hosts
            })
            .collect();
        let mut to: Vec<usize> = (0..self.k).collect();
        while to.iter().enumerate().any(|(p, &q)| p == q) {
            rng.shuffle(&mut to);
        }
        pods.iter()
            .zip(&to)
            .flat_map(|(src, &q)| src.iter().zip(&pods[q]))
            .enumerate()
            .map(|(i, (&s, &d))| FlowKey::new(s, d, i as u64))
            .collect()
    }
}

impl Workload for Packet {
    type Ctx = ();

    fn prepare(&self, clock: &mut SetupClock) -> (Vec<Job>, ()) {
        let ft = timed(&mut clock.topo_ns, || {
            FatTree::build(FatTreeConfig::new(self.k))
        });
        let keys = timed(&mut clock.trace_ns, || self.pairs(&ft));
        clock.flows += keys.len() as u64;
        let paths: Vec<Vec<NodeId>> = keys
            .iter()
            .map(|key| {
                let start = std::time::Instant::now();
                let p = ecmp_path(&ft, key);
                clock.route_call_ns.push(elapsed_ns(start));
                p
            })
            .collect();

        // The core on the most paths (lowest id on ties) is the victim.
        let mut load = vec![0usize; ft.net.node_count()];
        for p in &paths {
            for &n in p {
                if ft.net.node(n).kind == NodeKind::Core {
                    load[n.index()] += 1;
                }
            }
        }
        let core = paths
            .iter()
            .flatten()
            .copied()
            .filter(|&n| ft.net.node(n).kind == NodeKind::Core)
            .max_by_key(|n| (load[n.index()], std::cmp::Reverse(n.index())))
            .expect("inter-pod paths cross a core");

        let model = RecoveryLatencyModel::default();
        let sb_back = FAIL_AT + model.total(RecoveryScheme::ShareBackup(CircuitTech::Crosspoint));
        let rerouted = FAIL_AT + model.total(RecoveryScheme::LocalReroute);
        let sb_events = vec![
            (FAIL_AT, PktEvent::FailNode(core)),
            (sb_back, PktEvent::RepairNode(core)),
        ];
        let mut reroute_events = vec![(FAIL_AT, PktEvent::FailNode(core))];
        for (i, (key, p)) in keys.iter().zip(&paths).enumerate() {
            if !p.contains(&core) {
                continue;
            }
            let start = std::time::Instant::now();
            let alts: Vec<Vec<NodeId>> = ft
                .host_paths(key.src, key.dst)
                .into_iter()
                .filter(|q| !q.contains(&core))
                .collect();
            clock.route_call_ns.push(elapsed_ns(start));
            let alt = alts[i % alts.len()].clone();
            reroute_events.push((
                rerouted,
                PktEvent::SetPath {
                    flow: i,
                    path: Some(alt),
                },
            ));
        }

        let flows: Vec<PktFlowSpec> = paths
            .into_iter()
            .map(|path| PktFlowSpec {
                path,
                bytes: self.bytes,
                start: Time::ZERO,
            })
            .collect();
        let net = Rc::new(ft.net);
        let jobs = [sb_events, reroute_events]
            .into_iter()
            .zip(RUNS)
            .map(|(events, label)| Job::Packet {
                label: label.to_string(),
                net: net.clone(),
                flows: flows.clone(),
                events,
                horizon: HORIZON,
                cfg: cfg(),
            })
            .collect();
        (jobs, ())
    }

    fn outcomes(&self, _: &(), done: &mut [Done]) -> Vec<Checked> {
        done.iter()
            .map(|d| {
                let Output::Packet { out, drops } = &d.output else {
                    unreachable!("packet runs are packet-level");
                };
                let completed = out.iter().filter(|f| f.completed.is_some()).count();
                let mut o = Outcome::default();
                o.int("completed", completed as u64);
                o.int("delivered_bytes", out.iter().map(|f| f.delivered).sum());
                o.int("drops", *drops);
                o.int("retransmits", out.iter().map(|f| f.retransmits).sum());
                o.int("timeouts", out.iter().map(|f| f.timeouts).sum());
                let done_at: Vec<f64> = out
                    .iter()
                    .filter_map(|f| f.completed)
                    .map(|t| t.as_secs_f64())
                    .collect();
                o.float("completion_sum_s", done_at.iter().sum());
                o.float(
                    "last_completion_s",
                    done_at.iter().copied().fold(0.0, f64::max),
                );
                let invariant = if completed != out.len() {
                    Err(format!(
                        "{}: {completed} of {} flows finished",
                        d.label,
                        out.len()
                    ))
                } else if out.iter().any(|f| f.delivered != self.bytes) {
                    Err(format!(
                        "{}: a finished flow delivered a short count",
                        d.label
                    ))
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
