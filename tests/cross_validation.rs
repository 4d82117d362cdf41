//! Cross-validation between the flow-level (max-min fluid) and the
//! packet-level (queues + Reno) simulators: on simple scenarios the two
//! must agree on completion times within the slack AIMD dynamics allow.

use sharebackup::flowsim::{Environment, FlowSim, FlowSpec};
use sharebackup::packet::{PacketNetConfig, PacketSim, PktFlowSpec};
use sharebackup::routing::{ecmp_path, FlowKey};
use sharebackup::sim::Time;
use sharebackup::topo::{FatTree, FatTreeConfig, HostAddr, LinkId, NodeId};

/// A trivial environment: static ECMP over a healthy fat-tree.
struct StaticFt {
    ft: FatTree,
}

impl Environment for StaticFt {
    fn capacity(&self, l: LinkId) -> f64 {
        self.ft.net.link(l).capacity_bps
    }
    fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.ft.net.link_between(a, b)
    }
    fn route(&mut self, flow: &FlowKey) -> Option<Vec<NodeId>> {
        Some(ecmp_path(&self.ft, flow))
    }
    fn on_epoch(&mut self, _index: usize, _now: Time) {}
}

#[test]
fn single_flow_completion_agrees() {
    let ft = FatTree::build(FatTreeConfig::new(4));
    let src = ft.host(HostAddr {
        pod: 0,
        edge: 0,
        host: 0,
    });
    let dst = ft.host(HostAddr {
        pod: 2,
        edge: 1,
        host: 0,
    });
    let key = FlowKey::new(src, dst, 1);
    let bytes = 50_000_000u64; // 40 ms at 10 Gbps

    // Fluid model: exactly bytes·8/rate.
    let specs = vec![FlowSpec {
        key,
        bytes,
        arrival: Time::ZERO,
    }];
    let mut env = StaticFt {
        ft: FatTree::build(FatTreeConfig::new(4)),
    };
    let fluid = FlowSim::new().run(&mut env, &specs, &[]);
    let t_fluid = fluid.flows[0]
        .completed
        .expect("fluid finishes")
        .as_secs_f64();

    // Packet model: slow start + header overhead make it slower, but the
    // same order.
    let path = ecmp_path(&ft, &key);
    let (pkt, _) = PacketSim::new(PacketNetConfig::default()).run(
        &ft.net,
        &[PktFlowSpec {
            path,
            bytes,
            start: Time::ZERO,
        }],
        vec![],
        Time::from_secs(30),
    );
    let t_pkt = pkt[0].completed.expect("packet finishes").as_secs_f64();

    assert!(
        t_pkt >= t_fluid * 0.95,
        "packet sim can't beat the fluid bound"
    );
    assert!(
        t_pkt <= t_fluid * 2.0,
        "packet sim within 2x of fluid: {t_pkt} vs {t_fluid}"
    );
}

#[test]
fn shared_bottleneck_fairness_agrees() {
    // Two flows from hosts under the same edge to hosts under one remote
    // edge: both cross the same edge uplinks region; with ECMP they may or
    // may not collide, so force a single shared host link by using the same
    // destination host — the receiver link is the bottleneck either way.
    let ft = FatTree::build(FatTreeConfig::new(4));
    let src_a = ft.host(HostAddr {
        pod: 0,
        edge: 0,
        host: 0,
    });
    let src_b = ft.host(HostAddr {
        pod: 0,
        edge: 1,
        host: 0,
    });
    let dst = ft.host(HostAddr {
        pod: 2,
        edge: 1,
        host: 0,
    });
    let bytes = 25_000_000u64;
    let keys = [FlowKey::new(src_a, dst, 1), FlowKey::new(src_b, dst, 2)];

    let specs: Vec<FlowSpec> = keys
        .iter()
        .map(|&key| FlowSpec {
            key,
            bytes,
            arrival: Time::ZERO,
        })
        .collect();
    let mut env = StaticFt {
        ft: FatTree::build(FatTreeConfig::new(4)),
    };
    let fluid = FlowSim::new().run(&mut env, &specs, &[]);
    let t_fluid: Vec<f64> = (0..2)
        .map(|i| fluid.flows[i].completed.expect("finishes").as_secs_f64())
        .collect();

    let pkt_specs: Vec<PktFlowSpec> = keys
        .iter()
        .map(|key| PktFlowSpec {
            path: ecmp_path(&ft, key),
            bytes,
            start: Time::ZERO,
        })
        .collect();
    let (pkt, _) = PacketSim::new(PacketNetConfig::default()).run(
        &ft.net,
        &pkt_specs,
        vec![],
        Time::from_secs(30),
    );
    let t_pkt: Vec<f64> = (0..2)
        .map(|i| pkt[i].completed.expect("finishes").as_secs_f64())
        .collect();

    // Both models: the two flows share the receiver link, so each sees
    // roughly half throughput — their completions are close to each other.
    let fluid_ratio = t_fluid[0].max(t_fluid[1]) / t_fluid[0].min(t_fluid[1]);
    let pkt_ratio = t_pkt[0].max(t_pkt[1]) / t_pkt[0].min(t_pkt[1]);
    assert!(fluid_ratio < 1.01, "fluid is exactly fair: {t_fluid:?}");
    assert!(pkt_ratio < 2.0, "AIMD is approximately fair: {t_pkt:?}");
    // And the models agree on the absolute scale.
    for i in 0..2 {
        assert!(
            t_pkt[i] <= t_fluid[i] * 2.5 && t_pkt[i] >= t_fluid[i] * 0.8,
            "flow {i}: packet {} vs fluid {}",
            t_pkt[i],
            t_fluid[i]
        );
    }
}

#[test]
fn failover_blip_agrees_between_models() {
    // A 1.25 ms outage (ShareBackup crosspoint recovery) in the middle of a
    // transfer: both models show a completion delay of the same order as
    // the outage, not the transfer length.
    use sharebackup::packet::PktEvent;
    let ft = FatTree::build(FatTreeConfig::new(4));
    let src = ft.host(HostAddr {
        pod: 0,
        edge: 0,
        host: 0,
    });
    let dst = ft.host(HostAddr {
        pod: 2,
        edge: 1,
        host: 0,
    });
    let key = FlowKey::new(src, dst, 1);
    let path = ecmp_path(&ft, &key);
    let core = path[3];
    let bytes = 125_000_000u64; // 100 ms at 10 Gbps
    let fail = Time::from_millis(20);
    let back = fail + sharebackup::sim::Duration::from_micros(1250);

    let (pkt, _) = PacketSim::new(PacketNetConfig {
        rto: sharebackup::sim::Duration::from_millis(2),
        ..PacketNetConfig::default()
    })
    .run(
        &ft.net,
        &[PktFlowSpec {
            path: path.clone(),
            bytes,
            start: Time::ZERO,
        }],
        vec![
            (fail, PktEvent::FailNode(core)),
            (back, PktEvent::RepairNode(core)),
        ],
        Time::from_secs(30),
    );
    let t = pkt[0].completed.expect("finishes").as_secs_f64();
    // Clean transfer ~0.104 s (slow start etc.); the blip adds a few ms.
    assert!(t < 0.2, "blip must not derail the transfer: {t}");
}
