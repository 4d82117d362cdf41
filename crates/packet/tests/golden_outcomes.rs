//! Golden outcomes: the exact per-flow results and drop counts of fixed
//! packet-level scenarios, pinned bit for bit.
//!
//! The first five scenarios were recorded before the RTO timer moved to one
//! queued entry per flow, so they pin that every drop, retransmit, timeout
//! and completion instant is unchanged by how timers are queued. The sixth
//! was recorded before wire times, lane handles and link state were
//! computed once per run; it is the one that fails a link and routes over
//! a hop between non-adjacent nodes. Any change to these
//! numbers is a behaviour change of the simulator and must say why.

use sharebackup_packet::{PacketNetConfig, PacketSim, PktEvent, PktFlowOutcome, PktFlowSpec};
use sharebackup_routing::{ecmp_path, FlowKey};
use sharebackup_sim::{Duration, Time};
use sharebackup_topo::{FatTree, FatTreeConfig, Network, NodeId, NodeKind};

/// `(completed ns, delivered, retransmits, timeouts)` per flow.
type Row = (Option<u64>, u64, u64, u64);

fn rto_2ms() -> PacketNetConfig {
    PacketNetConfig {
        rto: Duration::from_millis(2),
        ..PacketNetConfig::default()
    }
}

/// Flows `hosts[s] → hosts[d]` for each pair, on their ECMP paths.
fn ecmp_flows(ft: &FatTree, pairs: &[(usize, usize)], bytes: u64) -> Vec<PktFlowSpec> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, &(s, d))| PktFlowSpec {
            path: ecmp_path(ft, &FlowKey::new(ft.hosts()[s], ft.hosts()[d], i as u64)),
            bytes,
            start: Time::ZERO,
        })
        .collect()
}

/// The core switch on a flow's path (hop 3 of a 7-node inter-pod path).
fn core_of(ft: &FatTree, path: &[NodeId]) -> NodeId {
    let core = path[3];
    assert_eq!(ft.net.node(core).kind, NodeKind::Core);
    core
}

fn run(
    cfg: PacketNetConfig,
    net: &Network,
    flows: &[PktFlowSpec],
    events: Vec<(Time, PktEvent)>,
) -> (Vec<PktFlowOutcome>, u64) {
    PacketSim::new(cfg).run(net, flows, events, Time::from_secs(10))
}

/// k=4: four 2 MB flows; the core under flow 0 dies at 5 ms and is back
/// 1.25 ms later (ShareBackup's crosspoint recovery).
fn k4_core_fail_repair() -> (Vec<PktFlowOutcome>, u64) {
    let ft = FatTree::build(FatTreeConfig::new(4));
    let flows = ecmp_flows(&ft, &[(0, 8), (1, 13), (4, 14), (7, 2)], 2_000_000);
    let core = core_of(&ft, &flows[0].path);
    let events = vec![
        (Time::from_millis(5), PktEvent::FailNode(core)),
        (Time::from_micros(6_250), PktEvent::RepairNode(core)),
    ];
    run(rto_2ms(), &ft.net, &flows, events)
}

/// k=4: a 45 ms outage strands flow 0 through five consecutive RTOs
/// (backoff 2⁵); the first fresh ACK after repair resets the backoff, so
/// the armed deadline moves earlier.
fn long_outage_backoff() -> (Vec<PktFlowOutcome>, u64) {
    let ft = FatTree::build(FatTreeConfig::new(4));
    let flows = ecmp_flows(&ft, &[(0, 12), (5, 10)], 3_000_000);
    let core = core_of(&ft, &flows[0].path);
    let events = vec![
        (Time::from_millis(5), PktEvent::FailNode(core)),
        (Time::from_millis(50), PktEvent::RepairNode(core)),
    ];
    run(rto_2ms(), &ft.net, &flows, events)
}

/// k=4: flow 0 moves to another path mid-transfer with no failure (its
/// in-flight packets are lost); flow 1 loses its path at 6 ms and gets it
/// back at 9 ms.
fn mid_transfer_setpath() -> (Vec<PktFlowOutcome>, u64) {
    let ft = FatTree::build(FatTreeConfig::new(4));
    let flows = ecmp_flows(&ft, &[(0, 12), (2, 9)], 2_000_000);
    let (src, dst) = (ft.hosts()[0], ft.hosts()[12]);
    let alt = ft
        .host_paths(src, dst)
        .into_iter()
        .find(|p| *p != flows[0].path)
        .expect("k=4 has four inter-pod paths");
    let events = vec![
        (
            Time::from_millis(3),
            PktEvent::SetPath {
                flow: 0,
                path: Some(alt),
            },
        ),
        (
            Time::from_millis(6),
            PktEvent::SetPath {
                flow: 1,
                path: None,
            },
        ),
        (
            Time::from_millis(9),
            PktEvent::SetPath {
                flow: 1,
                path: Some(flows[1].path.clone()),
            },
        ),
    ];
    run(rto_2ms(), &ft.net, &flows, events)
}

/// Four 1 MB senders into one 100 Mbps sink link behind 16-packet queues.
fn incast_4to1_q16() -> (Vec<PktFlowOutcome>, u64) {
    let mut net = Network::new();
    let s0 = net.add_node(NodeKind::Edge, None, 0);
    let s1 = net.add_node(NodeKind::Edge, None, 1);
    net.add_link(s0, s1, 100e6);
    let sink = net.add_node(NodeKind::Host, None, 99);
    net.add_link(s1, sink, 100e6);
    let flows: Vec<PktFlowSpec> = (0..4)
        .map(|i| {
            let h = net.add_node(NodeKind::Host, None, i);
            net.add_link(h, s0, 1e9);
            PktFlowSpec {
                path: vec![h, s0, s1, sink],
                bytes: 1_000_000,
                start: Time::ZERO,
            }
        })
        .collect();
    let cfg = PacketNetConfig {
        queue_packets: 16,
        ..PacketNetConfig::default()
    };
    run(cfg, &net, &flows, vec![])
}

/// k=8: 32 cross-pod flows of 200 kB; the core under flow 0 dies at 1 ms
/// and is back 2.5 ms later.
fn k8_32_flows_core_fail() -> (Vec<PktFlowOutcome>, u64) {
    let ft = FatTree::build(FatTreeConfig::new(8));
    let pairs: Vec<(usize, usize)> = (0..32).map(|i| (4 * i, (4 * i + 37) % 128)).collect();
    let flows = ecmp_flows(&ft, &pairs, 200_000);
    let core = core_of(&ft, &flows[0].path);
    let events = vec![
        (Time::from_millis(1), PktEvent::FailNode(core)),
        (Time::from_micros(3_500), PktEvent::RepairNode(core)),
    ];
    run(rto_2ms(), &ft.net, &flows, events)
}

/// k=4 at 2:1 oversubscription (10 Gbps host links, 5 Gbps uplinks), three
/// flows of a byte count that leaves a tail segment. The agg–core link
/// under flow 0 fails at 1 ms and is repaired at 2.5 ms; flow 1 moves at
/// 1.5 ms onto a path whose core–agg hop joins nodes that share no link
/// (every packet meeting it is dropped) and gets its own path back at 4 ms.
fn k4_link_fail_and_broken_hop() -> (Vec<PktFlowOutcome>, u64) {
    let ft = FatTree::build(FatTreeConfig::new(4).with_oversubscription(2.0));
    let flows = ecmp_flows(&ft, &[(0, 12), (3, 9), (5, 14)], 1_500_001);
    let up = ft
        .link_between(flows[0].path[2], flows[0].path[3])
        .expect("agg–core link on flow 0's path");
    // Flow 1 descends through the other agg of the destination pod, which
    // its core does not reach.
    let mut broken = flows[1].path.clone();
    let agg = ft.net.node(broken[4]);
    let (pod, j) = (agg.pod.expect("agg has a pod"), agg.index);
    broken[4] = ft.agg(pod, 1 - j);
    assert!(ft.link_between(broken[3], broken[4]).is_none());
    assert!(ft.link_between(broken[4], broken[5]).is_some());
    let events = vec![
        (Time::from_millis(1), PktEvent::FailLink(up)),
        (
            Time::from_micros(1_500),
            PktEvent::SetPath {
                flow: 1,
                path: Some(broken),
            },
        ),
        (Time::from_micros(2_500), PktEvent::RepairLink(up)),
        (
            Time::from_millis(4),
            PktEvent::SetPath {
                flow: 1,
                path: Some(flows[1].path.clone()),
            },
        ),
    ];
    run(rto_2ms(), &ft.net, &flows, events)
}

fn rows(out: &[PktFlowOutcome]) -> Vec<Row> {
    out.iter()
        .map(|o| {
            (
                o.completed.map(|t| t.as_nanos()),
                o.delivered,
                o.retransmits,
                o.timeouts,
            )
        })
        .collect()
}

fn check(name: &str, (out, drops): (Vec<PktFlowOutcome>, u64), want_drops: u64, want: &[Row]) {
    let got = rows(&out);
    assert!(
        got == want && drops == want_drops,
        "{name}: outcomes moved\n got drops {drops}, rows {got:?}\nwant drops {want_drops}, rows {want:?}"
    );
}

#[test]
fn k4_core_fail_repair_is_pinned() {
    check(
        "k4_core_fail_repair",
        k4_core_fail_repair(),
        378,
        &[
            (Some(9_540_541), 2_000_000, 39, 2),
            (Some(7_346_109), 2_000_000, 27, 1),
            (Some(6_792_130), 2_000_000, 54, 1),
            (Some(8_635_771), 2_000_000, 65, 1),
        ],
    );
}

#[test]
fn long_outage_backoff_is_pinned() {
    check(
        "long_outage_backoff",
        long_outage_backoff(),
        286,
        &[
            (Some(70_819_630), 3_000_000, 54, 6),
            (Some(70_819_630), 3_000_000, 54, 6),
        ],
    );
}

#[test]
fn mid_transfer_setpath_is_pinned() {
    check(
        "mid_transfer_setpath",
        mid_transfer_setpath(),
        277,
        &[
            (Some(8_854_836), 2_000_000, 54, 2),
            (Some(14_044_438), 2_000_000, 54, 3),
        ],
    );
}

#[test]
fn incast_4to1_q16_is_pinned() {
    check(
        "incast_4to1_q16",
        incast_4to1_q16(),
        118,
        &[
            (Some(345_593_504), 1_000_000, 28, 9),
            (Some(254_177_504), 1_000_000, 34, 1),
            (Some(303_129_504), 1_000_000, 33, 3),
            (Some(334_201_504), 1_000_000, 31, 6),
        ],
    );
}

#[test]
fn k8_32_flows_core_fail_is_pinned() {
    check(
        "k8_32_flows_core_fail",
        k8_32_flows_core_fail(),
        72,
        &[
            (Some(6_980_217), 200_000, 2, 2),
            (Some(499_852), 200_000, 0, 0),
            (Some(497_401), 200_000, 0, 0),
            (Some(493_820), 200_000, 0, 0),
            (Some(498_499), 200_000, 0, 0),
            (Some(493_820), 200_000, 0, 0),
            (Some(493_820), 200_000, 0, 0),
            (Some(497_334), 200_000, 0, 0),
            (Some(2_832_950), 200_000, 4, 1),
            (Some(2_834_150), 200_000, 0, 1),
            (Some(497_111), 200_000, 0, 0),
            (Some(497_213), 200_000, 0, 0),
            (Some(493_820), 200_000, 0, 0),
            (Some(498_365), 200_000, 0, 0),
            (Some(493_820), 200_000, 0, 0),
            (Some(493_820), 200_000, 0, 0),
            (Some(2_886_260), 200_000, 0, 1),
            (Some(493_820), 200_000, 0, 0),
            (Some(2_635_436), 200_000, 0, 1),
            (Some(497_267), 200_000, 0, 0),
            (Some(498_499), 200_000, 0, 0),
            (Some(493_820), 200_000, 0, 0),
            (Some(493_820), 200_000, 0, 0),
            (Some(493_820), 200_000, 0, 0),
            (Some(498_499), 200_000, 0, 0),
            (Some(496_754), 200_000, 0, 0),
            (Some(493_820), 200_000, 0, 0),
            (Some(493_820), 200_000, 0, 0),
            (Some(2_886_260), 200_000, 0, 1),
            (Some(498_365), 200_000, 0, 0),
            (Some(2_635_436), 200_000, 0, 1),
            (Some(6_704_432), 200_000, 0, 2),
        ],
    );
}

#[test]
fn k4_link_fail_and_broken_hop_is_pinned() {
    check(
        "k4_link_fail_and_broken_hop",
        k4_link_fail_and_broken_hop(),
        297,
        &[
            (Some(6_694_867), 1_500_001, 38, 1),
            (Some(10_796_687), 1_500_001, 44, 2),
            (Some(6_796_687), 1_500_001, 44, 1),
        ],
    );
}
