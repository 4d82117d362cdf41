//! The packet-level network simulation: queues, links, forwarding, and the
//! event loop gluing transports to the wire.
//!
//! Forwarding is source-routed: each flow carries the node path the routing
//! crate selected (data forward, ACKs on the reverse path), so the packet
//! simulator exercises exactly the paths the flow-level simulator assumed —
//! which is what makes cross-validation between the two meaningful.
//!
//! Failure realism: packets are dropped when they meet a down link (at
//! enqueue or at transmission end), when a drop-tail queue overflows, and
//! when they belong to a stale path version after a re-route.

use std::collections::VecDeque;

use sharebackup_sim::{Duration, Engine, Slot, Time, World};
use sharebackup_topo::{LinkId, Network, NodeId};

use crate::transport::{Receiver, RenoFlow};

/// Wire/protocol constants of the simulation.
#[derive(Clone, Copy, Debug)]
pub struct PacketNetConfig {
    /// Maximum segment size (payload bytes).
    pub mss: u32,
    /// Per-segment header overhead on the wire, bytes.
    pub header_bytes: u32,
    /// ACK packet wire size, bytes.
    pub ack_bytes: u32,
    /// Drop-tail queue capacity per output port, packets.
    pub queue_packets: usize,
    /// Per-link propagation delay.
    pub prop_delay: Duration,
    /// Retransmission timeout (fixed; generations handle staleness).
    pub rto: Duration,
}

impl Default for PacketNetConfig {
    fn default() -> Self {
        PacketNetConfig {
            mss: 1460,
            header_bytes: 40,
            ack_bytes: 64,
            queue_packets: 64,
            prop_delay: Duration::from_micros(5),
            rto: Duration::from_millis(10),
        }
    }
}

/// One flow to simulate at packet level.
#[derive(Clone, Debug)]
pub struct PktFlowSpec {
    /// Node path from source host to destination host (inclusive).
    pub path: Vec<NodeId>,
    /// Bytes to transfer.
    pub bytes: u64,
    /// Start instant.
    pub start: Time,
}

/// Mid-run events.
#[derive(Clone, Debug)]
pub enum PktEvent {
    /// A link goes down (packets meeting it are lost).
    FailLink(LinkId),
    /// A link comes back.
    RepairLink(LinkId),
    /// A node goes down (its links become unusable).
    FailNode(NodeId),
    /// A node comes back.
    RepairNode(NodeId),
    /// Re-route a flow (None = no path; the flow stalls and retries via
    /// RTO until a later `SetPath` restores one). In-flight packets of the
    /// old path are lost.
    SetPath {
        /// Flow index.
        flow: usize,
        /// New path, or `None` while unroutable.
        path: Option<Vec<NodeId>>,
    },
}

/// Per-flow result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PktFlowOutcome {
    /// When the last byte was acknowledged, if the flow finished.
    pub completed: Option<Time>,
    /// Bytes received in order at the destination.
    pub delivered: u64,
    /// Fast retransmissions.
    pub retransmits: u64,
    /// RTO events.
    pub timeouts: u64,
}

#[derive(Clone, Debug)]
struct QPacket {
    flow: usize,
    seq: u64,
    len: u32,
    wire: u32,
    ack: bool,
    hop: usize,
    ver: u32,
}

struct DirState {
    queue: VecDeque<QPacket>,
    busy: bool,
}

/// A flow's path as the direction index of each hop: `fwd` carries data,
/// `rev` (the path reversed) carries ACKs. A hop between nodes that share
/// no link is `None`; a packet meeting it is dropped. Which links exist
/// never changes during a run, so the indices are fixed per path.
struct Route {
    fwd: Vec<Option<usize>>,
    rev: Vec<Option<usize>>,
}

impl Route {
    fn new(net: &Network, path: &[NodeId]) -> Route {
        Route {
            fwd: path
                .windows(2)
                .map(|w| dir_index(net, w[0], w[1]))
                .collect(),
            rev: path
                .windows(2)
                .rev()
                .map(|w| dir_index(net, w[1], w[0]))
                .collect(),
        }
    }

    fn hops(&self, ack: bool) -> &[Option<usize>] {
        if ack {
            &self.rev
        } else {
            &self.fwd
        }
    }
}

/// Index of the `from → to` direction of the link between them.
fn dir_index(net: &Network, from: NodeId, to: NodeId) -> Option<usize> {
    let l = net.link_between(from, to)?;
    let d = if net.link(l).a == from { 0 } else { 1 };
    Some((l.0 as usize) * 2 + d)
}

struct FlowState {
    route: Option<Route>,
    sender: RenoFlow,
    receiver: Receiver,
    completed: Option<Time>,
    /// The RTO armed for a sender generation, due at the slot a timer
    /// scheduled at arming time would have taken.
    armed: Option<(u64, Slot)>,
    /// The flow's live `Ev::Rto` entry, due at or before the armed slot.
    queued: Option<Slot>,
    ver: u32,
}

impl FlowState {
    /// Queue flow `flow`'s live RTO entry (this state) under `slot`.
    fn queue_rto(&mut self, engine: &mut Engine<Ev>, flow: usize, slot: Slot) {
        self.queued = Some(slot);
        let token = slot.seq();
        engine.schedule_slot(slot, Ev::Rto { flow, token });
    }
}

enum Ev {
    Start(usize),
    TxDone(usize),
    Arrive(QPacket),
    /// A flow's RTO entry, queued under the slot whose sequence number is
    /// `token`.
    Rto {
        flow: usize,
        token: u64,
    },
    Topo(usize),
}

/// The packet-level simulator.
pub struct PacketSim {
    /// Configuration.
    pub cfg: PacketNetConfig,
}

struct NetWorld {
    cfg: PacketNetConfig,
    net: Network,
    dirs: Vec<DirState>,
    flows: Vec<FlowState>,
    events: Vec<Option<PktEvent>>,
    drops: u64,
    /// Reused buffer for one pump's sends.
    sends: Vec<(u64, u32)>,
}

impl PacketSim {
    /// A simulator with the given configuration.
    pub fn new(cfg: PacketNetConfig) -> PacketSim {
        PacketSim { cfg }
    }

    /// Run flows over (a clone of) `net` until `horizon`, applying
    /// `events[i].1` at `events[i].0`. Returns one outcome per flow plus
    /// the total packet-drop count.
    pub fn run(
        &self,
        net: &Network,
        flows: &[PktFlowSpec],
        events: Vec<(Time, PktEvent)>,
        horizon: Time,
    ) -> (Vec<PktFlowOutcome>, u64) {
        let mut engine: Engine<Ev> = Engine::new();
        engine.set_horizon(horizon);
        let mut world = NetWorld {
            cfg: self.cfg,
            net: net.clone(),
            dirs: (0..net.link_count() * 2)
                .map(|_| DirState {
                    queue: VecDeque::new(),
                    busy: false,
                })
                .collect(),
            flows: flows
                .iter()
                .map(|s| FlowState {
                    route: Some(Route::new(net, &s.path)),
                    sender: RenoFlow::new(s.bytes, self.cfg.mss),
                    receiver: Receiver::new(),
                    completed: None,
                    armed: None,
                    queued: None,
                    ver: 0,
                })
                .collect(),
            events: events.iter().map(|(_, e)| Some(e.clone())).collect(),
            drops: 0,
            sends: Vec::new(),
        };
        for (i, s) in flows.iter().enumerate() {
            engine.schedule(s.start, Ev::Start(i));
        }
        for (i, (t, _)) in events.iter().enumerate() {
            engine.schedule(*t, Ev::Topo(i));
        }
        engine.run(&mut world);
        let outcomes = world
            .flows
            .iter()
            .map(|f| PktFlowOutcome {
                completed: f.completed,
                delivered: f.receiver.expected().min(f.sender.total_bytes),
                retransmits: f.sender.retransmits(),
                timeouts: f.sender.timeouts(),
            })
            .collect();
        (outcomes, world.drops)
    }
}

impl NetWorld {
    fn link_of_dir(&self, dir: usize) -> LinkId {
        LinkId::from_index(dir / 2)
    }

    /// Wire time of a packet on a link.
    fn tx_time(&self, dir: usize, wire: u32) -> Duration {
        let cap = self.net.link(self.link_of_dir(dir)).capacity_bps;
        Duration::from_secs_f64(wire as f64 * 8.0 / cap)
    }

    /// Enqueue `pkt` for its next hop; drops on down links / full queues.
    fn forward(&mut self, engine: &mut Engine<Ev>, pkt: QPacket) {
        let flow = &self.flows[pkt.flow];
        if pkt.ver != flow.ver {
            self.drops += 1;
            return;
        }
        let Some(dir) = flow.route.as_ref().and_then(|r| r.hops(pkt.ack)[pkt.hop]) else {
            self.drops += 1;
            return;
        };
        if !self.net.link_usable(self.link_of_dir(dir)) {
            self.drops += 1;
            return;
        }
        if self.dirs[dir].queue.len() >= self.cfg.queue_packets {
            self.drops += 1;
            return;
        }
        self.dirs[dir].queue.push_back(pkt);
        if !self.dirs[dir].busy {
            self.start_tx(engine, dir);
        }
    }

    fn start_tx(&mut self, engine: &mut Engine<Ev>, dir: usize) {
        #[expect(
            clippy::expect_used,
            reason = "callers check the queue before starting tx"
        )]
        let wire = self.dirs[dir]
            .queue
            .front()
            .expect("start_tx on empty queue")
            .wire;
        self.dirs[dir].busy = true;
        engine.schedule_fixed(self.tx_time(dir, wire), Ev::TxDone(dir));
    }

    /// Send whatever the window permits and (re)arm the RTO.
    fn pump(&mut self, engine: &mut Engine<Ev>, flow: usize) {
        let ver = self.flows[flow].ver;
        let mut sends = std::mem::take(&mut self.sends);
        sends.clear();
        self.flows[flow].sender.sends_into(&mut sends);
        for &(seq, len) in &sends {
            let wire = len + self.cfg.header_bytes;
            self.forward(
                engine,
                QPacket {
                    flow,
                    seq,
                    len,
                    wire,
                    ack: false,
                    hop: 0,
                    ver,
                },
            );
        }
        self.sends = sends;
        self.arm_rto(engine, flow);
    }

    /// Arm the RTO for the sender's current generation. The deadline takes
    /// the engine slot a timer scheduled now would take, but an entry is
    /// queued only if the flow has none due at or before it; a later
    /// deadline is reached by re-queueing that entry when it pops.
    fn arm_rto(&mut self, engine: &mut Engine<Ev>, flow: usize) {
        let f = &mut self.flows[flow];
        if f.sender.finished() {
            return;
        }
        let gen = f.sender.rto_generation();
        if f.armed.is_some_and(|(g, _)| g == gen) {
            return;
        }
        let slot = engine.reserve_in(self.cfg.rto * f.sender.rto_multiplier() as u64);
        f.armed = Some((gen, slot));
        // A deadline can move earlier (progress resets the backoff): queue
        // a new entry; the superseded one is stale when it pops.
        if f.queued.is_none_or(|q| q > slot) {
            f.queue_rto(engine, flow, slot);
        }
    }

    fn apply_topo(&mut self, ev: PktEvent) {
        match ev {
            PktEvent::FailLink(l) => self.net.set_link_up(l, false),
            PktEvent::RepairLink(l) => self.net.set_link_up(l, true),
            PktEvent::FailNode(n) => self.net.set_node_up(n, false),
            PktEvent::RepairNode(n) => self.net.set_node_up(n, true),
            PktEvent::SetPath { flow, path } => {
                let route = path.map(|p| Route::new(&self.net, &p));
                let f = &mut self.flows[flow];
                f.route = route;
                f.ver += 1; // in-flight packets of the old path are lost
            }
        }
    }
}

impl World<Ev> for NetWorld {
    fn handle(&mut self, engine: &mut Engine<Ev>, now: Time, ev: Ev) {
        match ev {
            Ev::Start(i) => self.pump(engine, i),
            Ev::TxDone(dir) => {
                #[expect(
                    clippy::expect_used,
                    reason = "a TxDone is scheduled only while a packet occupies the head"
                )]
                let pkt = self.dirs[dir]
                    .queue
                    .pop_front()
                    .expect("TxDone with empty queue");
                self.dirs[dir].busy = false;
                // The packet survives only if the link is still up.
                if self.net.link_usable(self.link_of_dir(dir)) {
                    let mut pkt = pkt;
                    pkt.hop += 1;
                    engine.schedule_fixed(self.cfg.prop_delay, Ev::Arrive(pkt));
                } else {
                    self.drops += 1;
                }
                if !self.dirs[dir].queue.is_empty() {
                    self.start_tx(engine, dir);
                }
            }
            Ev::Arrive(pkt) => {
                let flow_idx = pkt.flow;
                // Stale-path packets are lost.
                if pkt.ver != self.flows[flow_idx].ver {
                    self.drops += 1;
                    return;
                }
                let Some(route) = &self.flows[flow_idx].route else {
                    self.drops += 1;
                    return;
                };
                if pkt.hop < route.hops(pkt.ack).len() {
                    // Transit node: forward along the path.
                    self.forward(engine, pkt);
                    return;
                }
                if pkt.ack {
                    // ACK reached the sender; pump also sends any fast
                    // retransmit it queued.
                    self.flows[flow_idx].sender.on_ack(pkt.seq);
                    if self.flows[flow_idx].sender.finished() {
                        if self.flows[flow_idx].completed.is_none() {
                            self.flows[flow_idx].completed = Some(now);
                        }
                        return;
                    }
                    self.pump(engine, flow_idx);
                } else {
                    // Data reached the receiver: emit a cumulative ACK.
                    let ackno = self.flows[flow_idx].receiver.on_segment(pkt.seq, pkt.len);
                    let ver = self.flows[flow_idx].ver;
                    self.forward(
                        engine,
                        QPacket {
                            flow: flow_idx,
                            seq: ackno,
                            len: 0,
                            wire: self.cfg.ack_bytes,
                            ack: true,
                            hop: 0,
                            ver,
                        },
                    );
                }
            }
            Ev::Rto { flow, token } => {
                let f = &mut self.flows[flow];
                let Some(due) = f.queued.filter(|q| q.seq() == token) else {
                    return; // superseded by an earlier deadline
                };
                f.queued = None;
                let Some((gen, slot)) = f.armed else {
                    return;
                };
                if f.sender.finished() {
                    return;
                }
                if slot > due {
                    // Re-armed since this entry was queued: carry it to the
                    // armed slot, where a timer scheduled then would pop.
                    f.queue_rto(engine, flow, slot);
                    return;
                }
                if slot != due || f.sender.rto_generation() != gen {
                    return;
                }
                f.sender.on_rto();
                f.armed = None;
                self.pump(engine, flow);
            }
            Ev::Topo(i) => {
                if let Some(ev) = self.events[i].take() {
                    self.apply_topo(ev);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharebackup_topo::NodeKind;

    /// h0 — s0 — s1 — h1 line, 100 Mbps links.
    fn line() -> (Network, Vec<NodeId>) {
        let mut net = Network::new();
        let h0 = net.add_node(NodeKind::Host, None, 0);
        let s0 = net.add_node(NodeKind::Edge, None, 0);
        let s1 = net.add_node(NodeKind::Edge, None, 1);
        let h1 = net.add_node(NodeKind::Host, None, 1);
        net.add_link(h0, s0, 100e6);
        net.add_link(s0, s1, 100e6);
        net.add_link(s1, h1, 100e6);
        (net, vec![h0, s0, s1, h1])
    }

    /// Two hosts on each side of a shared bottleneck.
    fn dumbbell() -> (Network, Vec<NodeId>) {
        let mut net = Network::new();
        let h0 = net.add_node(NodeKind::Host, None, 0);
        let h1 = net.add_node(NodeKind::Host, None, 1);
        let s0 = net.add_node(NodeKind::Edge, None, 0);
        let s1 = net.add_node(NodeKind::Edge, None, 1);
        let h2 = net.add_node(NodeKind::Host, None, 2);
        let h3 = net.add_node(NodeKind::Host, None, 3);
        net.add_link(h0, s0, 1e9);
        net.add_link(h1, s0, 1e9);
        net.add_link(s0, s1, 100e6); // bottleneck
        net.add_link(s1, h2, 1e9);
        net.add_link(s1, h3, 1e9);
        (net, vec![h0, h1, s0, s1, h2, h3])
    }

    #[test]
    fn single_flow_achieves_near_line_rate() {
        let (net, n) = line();
        let flows = vec![PktFlowSpec {
            path: vec![n[0], n[1], n[2], n[3]],
            bytes: 1_250_000, // 0.1 s at 100 Mbps
            start: Time::ZERO,
        }];
        let (out, _drops) = PacketSim::new(PacketNetConfig::default()).run(
            &net,
            &flows,
            vec![],
            Time::from_secs(10),
        );
        let t = out[0].completed.expect("finishes");
        let goodput = 1_250_000.0 * 8.0 / t.as_secs_f64();
        assert!(
            goodput > 55e6,
            "goodput {goodput:.0} too low (slow start + acks overhead expected)"
        );
        assert_eq!(out[0].delivered, 1_250_000);
    }

    #[test]
    fn two_flows_share_bottleneck_roughly_fairly() {
        let (net, n) = dumbbell();
        let flows = vec![
            PktFlowSpec {
                path: vec![n[0], n[2], n[3], n[4]],
                bytes: 2_000_000,
                start: Time::ZERO,
            },
            PktFlowSpec {
                path: vec![n[1], n[2], n[3], n[5]],
                bytes: 2_000_000,
                start: Time::ZERO,
            },
        ];
        let (out, _) = PacketSim::new(PacketNetConfig::default()).run(
            &net,
            &flows,
            vec![],
            Time::from_secs(30),
        );
        let t0 = out[0].completed.expect("f0 done").as_secs_f64();
        let t1 = out[1].completed.expect("f1 done").as_secs_f64();
        // Equal demands sharing one bottleneck: completion within 2× of
        // each other (AIMD fairness is approximate).
        let ratio = t0.max(t1) / t0.min(t1);
        assert!(ratio < 2.0, "unfair sharing: {t0} vs {t1}");
        // And both significantly slower than a lone flow would be.
        assert!(t0.max(t1) > 0.25, "two 2MB flows over 100Mbps take > 0.25s");
    }

    #[test]
    fn link_failure_stalls_flow_and_repair_revives_it() {
        let (net, n) = line();
        let l = net.link_between(n[1], n[2]).expect("middle link");
        let flows = vec![PktFlowSpec {
            path: vec![n[0], n[1], n[2], n[3]],
            bytes: 2_500_000, // 0.2 s at 100 Mbps
            start: Time::ZERO,
        }];
        let events = vec![
            (Time::from_millis(50), PktEvent::FailLink(l)),
            (Time::from_millis(250), PktEvent::RepairLink(l)),
        ];
        let (out, drops) = PacketSim::new(PacketNetConfig::default()).run(
            &net,
            &flows,
            events,
            Time::from_secs(30),
        );
        let t = out[0].completed.expect("finishes after repair");
        assert!(
            t > Time::from_millis(250),
            "cannot finish while down: {t:?}"
        );
        assert!(out[0].timeouts >= 1, "RTO must fire during the outage");
        assert!(drops > 0);
        assert_eq!(out[0].delivered, 2_500_000);
    }

    #[test]
    fn permanent_failure_leaves_flow_unfinished() {
        let (net, n) = line();
        let l = net.link_between(n[1], n[2]).expect("middle link");
        let flows = vec![PktFlowSpec {
            path: vec![n[0], n[1], n[2], n[3]],
            bytes: 10_000_000,
            start: Time::ZERO,
        }];
        let events = vec![(Time::from_millis(10), PktEvent::FailLink(l))];
        let (out, _) = PacketSim::new(PacketNetConfig::default()).run(
            &net,
            &flows,
            events,
            Time::from_secs(2),
        );
        assert_eq!(out[0].completed, None);
        assert!(out[0].delivered < 10_000_000);
    }

    #[test]
    fn reroute_via_setpath_recovers_delivery() {
        // Diamond: h0 - s0 - {s1|s2} - s3 - h1.
        let mut net = Network::new();
        let h0 = net.add_node(NodeKind::Host, None, 0);
        let s0 = net.add_node(NodeKind::Edge, None, 0);
        let s1 = net.add_node(NodeKind::Agg, None, 1);
        let s2 = net.add_node(NodeKind::Agg, None, 2);
        let s3 = net.add_node(NodeKind::Edge, None, 3);
        let h1 = net.add_node(NodeKind::Host, None, 1);
        net.add_link(h0, s0, 100e6);
        net.add_link(s0, s1, 100e6);
        net.add_link(s0, s2, 100e6);
        net.add_link(s1, s3, 100e6);
        net.add_link(s2, s3, 100e6);
        net.add_link(s3, h1, 100e6);
        let via_s1 = vec![h0, s0, s1, s3, h1];
        let via_s2 = vec![h0, s0, s2, s3, h1];
        let flows = vec![PktFlowSpec {
            path: via_s1,
            bytes: 2_500_000,
            start: Time::ZERO,
        }];
        let events = vec![
            (Time::from_millis(50), PktEvent::FailNode(s1)),
            (
                Time::from_millis(60),
                PktEvent::SetPath {
                    flow: 0,
                    path: Some(via_s2),
                },
            ),
        ];
        let (out, _) = PacketSim::new(PacketNetConfig::default()).run(
            &net,
            &flows,
            events,
            Time::from_secs(10),
        );
        let t = out[0].completed.expect("finishes on detour");
        assert!(t > Time::from_millis(60));
        assert!(t < Time::from_secs(1), "{t:?}");
    }

    #[test]
    fn drops_occur_under_incast_overload() {
        // Four senders into one 100 Mbps sink link with small queues.
        let mut net = Network::new();
        let mut hosts = Vec::new();
        let s0 = net.add_node(NodeKind::Edge, None, 0);
        let s1 = net.add_node(NodeKind::Edge, None, 1);
        net.add_link(s0, s1, 100e6);
        let sink = net.add_node(NodeKind::Host, None, 99);
        net.add_link(s1, sink, 100e6);
        for i in 0..4 {
            let h = net.add_node(NodeKind::Host, None, i);
            net.add_link(h, s0, 1e9);
            hosts.push(h);
        }
        let flows: Vec<PktFlowSpec> = hosts
            .iter()
            .map(|&h| PktFlowSpec {
                path: vec![h, s0, s1, sink],
                bytes: 1_000_000,
                start: Time::ZERO,
            })
            .collect();
        let cfg = PacketNetConfig {
            queue_packets: 16,
            ..PacketNetConfig::default()
        };
        let (out, drops) = PacketSim::new(cfg).run(&net, &flows, vec![], Time::from_secs(30));
        assert!(drops > 0, "incast must overflow the small queue");
        assert!(out.iter().all(|o| o.completed.is_some()));
        assert!(out.iter().any(|o| o.retransmits + o.timeouts > 0));
    }
}
