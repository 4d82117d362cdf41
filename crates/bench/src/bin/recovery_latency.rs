//! §5.3: recovery latency — ShareBackup vs. local and global rerouting —
//! from the analytical model *and* from a packet-level failover
//! simulation.
//!
//! Usage: `recovery_latency [flags]`; `--help` lists the flags and their defaults.
//!
//! The packet-level part transfers a flow across a k=4 fat-tree, kills the
//! core on its path, restores the path after each scheme's modeled
//! recovery latency, and reports the instant the transfer completes (it
//! starts at 0). The three schemes that recover within 2 ms print the same
//! 15.90 ms: each has the path back before the flow's first 2 ms RTO fires
//! (armed by the last ACK, which arrives just after the core dies), so the
//! same first retransmission finds the path restored.

use minijson::Value;
use sharebackup_bench::report::Format::{Fixed, Text};
use sharebackup_bench::report::{self, num, Check, Column};
use sharebackup_bench::Cli;
use sharebackup_core::{RecoveryLatencyModel, RecoveryScheme};
use sharebackup_packet::{PacketNetConfig, PacketSim, PktEvent, PktFlowSpec};

use sharebackup_routing::{ecmp_path, FlowKey};
use sharebackup_sim::{Duration, Time};
use sharebackup_topo::{CircuitTech, FatTree, FatTreeConfig, HostAddr};

/// Completion time of a 10 MB transfer whose path dies at 10 ms and is
/// restored `recovery` later (same path — models ShareBackup — or an
/// alternate path — models rerouting).
fn disrupted_transfer(recovery: Duration, reroute: bool) -> Time {
    let ft = FatTree::build(FatTreeConfig::new(4));
    let src = ft.host(HostAddr { pod: 0, edge: 0, host: 0 });
    let dst = ft.host(HostAddr { pod: 2, edge: 1, host: 0 });
    let flow = FlowKey::new(src, dst, 1);
    let path = ecmp_path(&ft, &flow);
    let core = path[3];
    let fail_at = Time::from_millis(10);
    let recovered_at = fail_at + recovery;
    let mut events = vec![(fail_at, PktEvent::FailNode(core))];
    if reroute {
        // Rerouting: a different same-length path comes into service.
        let alt = ft
            .host_paths(src, dst)
            .into_iter()
            .find(|p| !p.contains(&core))
            .expect("alternate path");
        events.push((
            recovered_at,
            PktEvent::SetPath {
                flow: 0,
                path: Some(alt),
            },
        ));
    } else {
        // ShareBackup: the same path comes back (slot restored).
        events.push((recovered_at, PktEvent::RepairNode(core)));
    }
    let flows = vec![PktFlowSpec {
        path,
        bytes: 10_000_000,
        start: Time::ZERO,
    }];
    // A finer RTO than the 10 ms default, so millisecond-scale recovery
    // differences are not hidden by retransmission-timer quantization.
    let cfg = PacketNetConfig {
        rto: Duration::from_millis(2),
        ..PacketNetConfig::default()
    };
    let (out, _) = PacketSim::new(cfg).run(&ft.net, &flows, events, Time::from_secs(60));
    out[0].completed.expect("transfer finishes")
}

fn main() {
    let mut cli = Cli::from_env();
    let json = cli.switch("json");
    cli.finish();
    let m = RecoveryLatencyModel::default();

    let schemes = [
        (
            "ShareBackup (crosspoint)",
            RecoveryScheme::ShareBackup(CircuitTech::Crosspoint),
            false,
        ),
        (
            "ShareBackup (2D MEMS)",
            RecoveryScheme::ShareBackup(CircuitTech::Mems2D),
            false,
        ),
        ("F10/Aspen local reroute", RecoveryScheme::LocalReroute, true),
        (
            "fat-tree global reroute",
            RecoveryScheme::GlobalReroute {
                switches_updated: 4,
                propagation_hops: 3,
            },
            true,
        ),
    ];

    let mut rows = Vec::new();
    for &(name, scheme, reroute) in &schemes {
        let detection = m.detection();
        let repair = m.repair(scheme);
        let total = m.total(scheme);
        let completion = disrupted_transfer(total, reroute);
        rows.push(minijson::json!({
            "scheme": name,
            "detection_us": detection.as_secs_f64() * 1e6,
            "repair_us": repair.as_secs_f64() * 1e6,
            "total_us": total.as_secs_f64() * 1e6,
            "packet_sim_completion_ms": completion.as_secs_f64() * 1e3,
        }));
    }
    // Reference: the same transfer with no failure at all.
    let clean = disrupted_transfer(Duration::ZERO, false);
    rows.push(minijson::json!({
        "scheme": "(no failure reference)",
        "detection_us": 0.0,
        "repair_us": 0.0,
        "total_us": 0.0,
        "packet_sim_completion_ms": clean.as_secs_f64() * 1e3,
    }));

    if json {
        report::print_json(&rows);
        return;
    }
    println!("§5.3 — recovery latency model + packet-level failover (10 MB transfer, core dies at 10 ms)");
    print!("{}", report::table(&COLUMNS, &rows));
    println!();
    println!("model constants (§5.3): ~1 ms probe interval (all schemes), 1 ms SDN rule");
    println!("install, 70 ns crosspoint / 40 us MEMS circuit reset, sub-ms control messages.");
    report::print_claims(&claims(&rows));
}

const COLUMNS: [Column; 5] = [
    Column::new("scheme", "scheme", Text),
    Column::new("detection", "detection_us", Fixed(0, " us")),
    Column::new("repair", "repair_us", Fixed(2, " us")),
    Column::new("total", "total_us", Fixed(2, " us")),
    Column::new(
        "observed completion",
        "packet_sim_completion_ms",
        Fixed(2, " ms"),
    ),
];

fn claims(rows: &[Value]) -> Vec<Check> {
    let at = |scheme: &str, key: &str| num(report::row(rows, "scheme", scheme), key);
    let sb = ["ShareBackup (crosspoint)", "ShareBackup (2D MEMS)"];
    let local = "F10/Aspen local reroute";
    let total = sb.map(|s| at(s, "total_us"));
    let done = sb.map(|s| at(s, "packet_sim_completion_ms"));
    let (local_total, local_done) = (at(local, "total_us"), at(local, "packet_sim_completion_ms"));
    vec![
        Check::new(
            "§5.3",
            "ShareBackup recovers in under 3 ms, detection included",
            total.iter().all(|&t| t < 3000.0),
            format!("{:.2} / {:.2} us (crosspoint / 2D MEMS)", total[0], total[1]),
        ),
        Check::new(
            "§5.3",
            "ShareBackup recovers as fast as F10/Aspen local rerouting",
            total.iter().all(|&t| t <= local_total) && done.iter().all(|&d| d <= local_done),
            format!(
                "{:.2} / {:.2} us vs {local_total:.2} us; transfer done at {:.2} / {:.2} ms vs {local_done:.2} ms",
                total[0], total[1], done[0], done[1]
            ),
        ),
    ]
}
