//! §5.3: recovery latency — ShareBackup vs. local and global rerouting —
//! from the analytical model *and* from a packet-level failover
//! simulation.
//!
//! Usage: `recovery_latency [flags]`; `--help` lists the flags and their defaults.
//!
//! The packet-level part transfers a flow across a k=4 fat-tree, kills the
//! core on its path, restores the path after each scheme's modeled
//! recovery latency, and reports the instant the transfer completes (it
//! starts at 0) with the flow's drops and retransmission timeouts. The
//! three schemes that recover within 2 ms print the same 15.90 ms: each has
//! the path back before the flow's first 2 ms RTO fires (armed by the last
//! ACK, which arrives just after the core dies), so the same first
//! retransmission finds the path restored.
//!
//! The two ShareBackup rows are also the circuit-technology ablation: the
//! crosspoint's 70 ns and the 2D MEMS's 40 µs circuit reset both sit far
//! below the ~1 ms detection time, so the paper treats them as negligible.
//! The claims check that both rows finish and drop the same, and that their
//! delay over the no-failure reference is the blackout plus the wait for
//! the RTO.

use super::Output;
use crate::report::Format::{Fixed, Int, Text};
use crate::report::{self, num, Check, Column};
use crate::Cli;
use minijson::Value;
use sharebackup_core::{RecoveryLatencyModel, RecoveryScheme};
use sharebackup_packet::{PacketNetConfig, PacketSim, PktEvent, PktFlowSpec};
use std::fmt::Write;

use sharebackup_routing::{ecmp_path, FlowKey};
use sharebackup_sim::{Duration, Time};
use sharebackup_topo::{CircuitTech, FatTree, FatTreeConfig, HostAddr};

/// The flow's retransmission timeout: finer than the 10 ms default, so
/// millisecond-scale recovery differences are not hidden by
/// retransmission-timer quantization.
const RTO: Duration = Duration::from_millis(2);

/// Completion time, drops and timeouts of a 10 MB transfer whose path dies
/// at 10 ms and is restored `recovery` later (same path — models
/// ShareBackup — or an alternate path — models rerouting).
fn disrupted_transfer(recovery: Duration, reroute: bool) -> (Time, u64, u64) {
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
    let cfg = PacketNetConfig {
        rto: RTO,
        ..PacketNetConfig::default()
    };
    let (out, drops) = PacketSim::new(cfg).run(&ft.net, &flows, events, Time::from_secs(60));
    let done = out[0].completed.expect("transfer finishes");
    (done, drops, out[0].timeouts)
}

/// Run the harness on `cli`'s flags.
pub fn run(cli: &mut Cli) -> Output {
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
        (
            "F10/Aspen local reroute",
            RecoveryScheme::LocalReroute,
            true,
        ),
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
        let (completion, drops, timeouts) = disrupted_transfer(total, reroute);
        rows.push(minijson::json!({
            "scheme": name,
            "detection_us": detection.as_secs_f64() * 1e6,
            "repair_us": repair.as_secs_f64() * 1e6,
            "total_us": total.as_secs_f64() * 1e6,
            "packet_sim_completion_ms": completion.as_secs_f64() * 1e3,
            "drops": drops,
            "timeouts": timeouts,
        }));
    }
    // Reference: the same transfer with no failure at all. Its slow-start
    // losses are the baseline the failure rows add to.
    let (clean, drops, timeouts) = disrupted_transfer(Duration::ZERO, false);
    rows.push(minijson::json!({
        "scheme": "(no failure reference)",
        "detection_us": 0.0,
        "repair_us": 0.0,
        "total_us": 0.0,
        "packet_sim_completion_ms": clean.as_secs_f64() * 1e3,
        "drops": drops,
        "timeouts": timeouts,
    }));

    if json {
        return Output::json(&rows);
    }
    let mut text = report::header(
        "§5.3 — recovery latency model + packet-level failover (10 MB transfer, core dies at 10 ms)",
        cli,
    );
    text += &report::table(&COLUMNS, &rows);
    text.push('\n');
    let _ = writeln!(
        text,
        "model constants (§5.3): ~1 ms probe interval (all schemes), 1 ms SDN rule\n\
         install, 70 ns crosspoint / 40 us MEMS circuit reset, sub-ms control messages."
    );
    Output::checked(text, claims(&rows))
}

const COLUMNS: [Column; 7] = [
    Column::new("scheme", "scheme", Text),
    Column::new("detection", "detection_us", Fixed(0, " us")),
    Column::new("repair", "repair_us", Fixed(2, " us")),
    Column::new("total", "total_us", Fixed(2, " us")),
    Column::new(
        "observed completion",
        "packet_sim_completion_ms",
        Fixed(2, " ms"),
    ),
    Column::new("drops", "drops", Int),
    Column::new("timeouts", "timeouts", Int),
];

fn claims(rows: &[Value]) -> Vec<Check> {
    let at = |scheme: &str, key: &str| num(report::row(rows, "scheme", scheme), key);
    let sb = ["ShareBackup (crosspoint)", "ShareBackup (2D MEMS)"];
    let local = "F10/Aspen local reroute";
    let total = sb.map(|s| at(s, "total_us"));
    let done = sb.map(|s| at(s, "packet_sim_completion_ms"));
    let (local_total, local_done) = (at(local, "total_us"), at(local, "packet_sim_completion_ms"));
    let drops = sb.map(|s| at(s, "drops"));
    // Each technology's blackout, and its delay over the reference, in ms.
    let blackouts = total.map(|t| t / 1e3);
    let delays = done.map(|d| d - at("(no failure reference)", "packet_sim_completion_ms"));
    let rto = RTO.as_millis_f64();
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
        Check::new(
            "§5.3",
            "the 70 ns vs 40 us reset difference is invisible: both technologies add the same delay",
            done[0] == done[1] && drops[0] == drops[1],
            format!(
                "crosspoint {:.3} ms, {} drops; 2D MEMS {:.3} ms, {} drops",
                done[0], drops[0], done[1], drops[1]
            ),
        ),
        Check::new(
            "§5.3",
            "that delay is the detection-dominated blackout (~1.3 ms) plus the wait for the 2 ms RTO",
            delays
                .iter()
                .zip(blackouts)
                .all(|(&d, b)| report::approx(b, 1.3) && b < d && d <= b + rto),
            format!(
                "delay {:.3} / {:.3} ms after blackouts of {:.3} / {:.3} ms",
                delays[0], delays[1], blackouts[0], blackouts[1]
            ),
        ),
    ]
}
