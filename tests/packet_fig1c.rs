//! Packet-level miniature of Fig. 1(c): the same transfer, the same
//! failure, three recovery schemes — at packet granularity. Cross-validates
//! the flow-level harness: the ordering (ShareBackup ≤ local reroute ≤
//! stranded) must match, with real queues, ACKs, retransmissions, and
//! timeouts in the loop.

use sharebackup::core::{RecoveryLatencyModel, RecoveryScheme};
use sharebackup::packet::{PacketNetConfig, PacketSim, PktEvent, PktFlowSpec};
use sharebackup::routing::{ecmp_path, FlowKey};
use sharebackup::sim::{Duration, Time};
use sharebackup::topo::{CircuitTech, FatTree, FatTreeConfig, HostAddr};

const BYTES: u64 = 25_000_000; // 20 ms at 10 Gbps
const FAIL_AT: Time = Time(5_000_000); // 5 ms

fn run(outage: Duration, recovery: Recovery) -> (Time, u64) {
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
    let flow = FlowKey::new(src, dst, 9);
    let path = ecmp_path(&ft, &flow);
    let agg = path[2];
    let mut events = vec![(FAIL_AT, PktEvent::FailNode(agg))];
    match recovery {
        Recovery::SamePath => {
            events.push((FAIL_AT + outage, PktEvent::RepairNode(agg)));
        }
        Recovery::Reroute => {
            let alt = ft
                .host_paths(src, dst)
                .into_iter()
                .find(|p| !p.contains(&agg))
                .expect("alternate path");
            events.push((
                FAIL_AT + outage,
                PktEvent::SetPath {
                    flow: 0,
                    path: Some(alt),
                },
            ));
        }
        Recovery::None => {}
    }
    let cfg = PacketNetConfig {
        rto: Duration::from_millis(2),
        ..PacketNetConfig::default()
    };
    let (out, _) = PacketSim::new(cfg).run(
        &ft.net,
        &[PktFlowSpec {
            path,
            bytes: BYTES,
            start: Time::ZERO,
        }],
        events,
        Time::from_secs(5),
    );
    (out[0].completed.unwrap_or(Time::MAX), out[0].delivered)
}

enum Recovery {
    SamePath,
    Reroute,
    None,
}

#[test]
fn packet_level_ordering_matches_flow_level() {
    let m = RecoveryLatencyModel::default();
    let sb_outage = m.total(RecoveryScheme::ShareBackup(CircuitTech::Crosspoint));
    let local_outage = m.total(RecoveryScheme::LocalReroute);
    let global_outage = m.total(RecoveryScheme::GlobalReroute {
        switches_updated: 4,
        propagation_hops: 3,
    });

    let (t_sb, d_sb) = run(sb_outage, Recovery::SamePath);
    let (t_local, d_local) = run(local_outage, Recovery::Reroute);
    let (t_global, d_global) = run(global_outage, Recovery::Reroute);
    let (t_none, d_none) = run(Duration::ZERO, Recovery::None);

    // Everyone with a recovery path finishes and delivers everything.
    assert_eq!(d_sb, BYTES);
    assert_eq!(d_local, BYTES);
    assert_eq!(d_global, BYTES);
    // No recovery: stranded (delivered < total, never completed).
    assert_eq!(t_none, Time::MAX);
    assert!(d_none < BYTES);

    // Ordering: ShareBackup ≤ local reroute ≤ global reroute.
    assert!(t_sb <= t_local, "{t_sb:?} vs {t_local:?}");
    assert!(t_local <= t_global, "{t_local:?} vs {t_global:?}");
}

#[test]
fn sharebackup_failover_loses_only_in_flight_packets() {
    // The microscopic claim: during the ~1.25 ms blackout only the packets
    // in flight die; the transport retransmits them and total goodput is
    // preserved.
    let m = RecoveryLatencyModel::default();
    let outage = m.total(RecoveryScheme::ShareBackup(CircuitTech::Crosspoint));
    let (t, delivered) = run(outage, Recovery::SamePath);
    assert_eq!(delivered, BYTES);
    // Clean transfer is ~28 ms with slow start; the blip adds a few ms.
    let clean = {
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
        let path = ecmp_path(&ft, &FlowKey::new(src, dst, 9));
        let (out, _) = PacketSim::new(PacketNetConfig {
            rto: Duration::from_millis(2),
            ..PacketNetConfig::default()
        })
        .run(
            &ft.net,
            &[PktFlowSpec {
                path,
                bytes: BYTES,
                start: Time::ZERO,
            }],
            vec![],
            Time::from_secs(5),
        );
        out[0].completed.expect("clean run finishes")
    };
    let penalty = t.saturating_since(clean);
    assert!(
        penalty < Duration::from_millis(15),
        "failover penalty should be a few RTO/slow-start cycles, got {penalty}"
    );
}
