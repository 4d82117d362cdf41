//! Ablation: circuit-switch technology (70 ns crosspoint vs. 40 µs MEMS)
//! and its effect on packets in flight during a failover.
//!
//! Usage: `ablation_circuit_tech [flags]`; `--help` lists the flags and their defaults.
//!
//! Both reconfiguration delays are far below the failure-detection time
//! (~1 ms probe interval), so the paper treats them as negligible (§5.3).
//! This ablation verifies that: it sweeps the *total* blackout window a
//! transfer experiences (detection + recovery per technology) in the
//! packet-level simulator and reports completion-time impact and drops.
//!
//! The flow runs with the 2 ms RTO `recovery_latency` uses. At the 10 ms
//! default the flow is already idle, waiting for a slow-start timeout,
//! through the whole outage that starts at 5 ms: the failure never reaches
//! it, and all three rows read the same.

use minijson::Value;
use sharebackup_bench::report::Format::{Fixed, Int, Text};
use sharebackup_bench::report::{self, num, Check, Column};
use sharebackup_bench::{parallel_map_indexed, Cli};
use sharebackup_core::{RecoveryLatencyModel, RecoveryScheme};
use sharebackup_packet::{PacketNetConfig, PacketSim, PktEvent, PktFlowSpec};
use sharebackup_routing::{ecmp_path, FlowKey};
use sharebackup_sim::{Duration, Time};
use sharebackup_topo::{CircuitTech, FatTree, FatTreeConfig, HostAddr};

/// The flow's retransmission timeout, as in `recovery_latency`.
const RTO: Duration = Duration::from_millis(2);

fn main() {
    let mut cli = Cli::from_env();
    let jobs = cli.jobs();
    let json = cli.switch("json");
    cli.finish();
    let model = RecoveryLatencyModel::default();
    let ft = FatTree::build(FatTreeConfig::new(4));
    let src = ft.host(HostAddr { pod: 0, edge: 0, host: 0 });
    let dst = ft.host(HostAddr { pod: 2, edge: 1, host: 0 });
    let flow = FlowKey::new(src, dst, 1);
    let path = ecmp_path(&ft, &flow);
    let core = path[3];
    let bytes = 25_000_000u64; // 20 ms at 10 Gbps

    // Three independent packet-level runs (clean reference + one per
    // technology) share nothing but immutable inputs, so they fan out
    // across `--jobs` threads; index order fixes the row order.
    let configs: [Option<CircuitTech>; 3] =
        [None, Some(CircuitTech::Crosspoint), Some(CircuitTech::Mems2D)];
    let rows = parallel_map_indexed(jobs, configs.len(), |i| {
        let (name, events) = match configs[i] {
            None => ("no failure".to_string(), vec![]),
            Some(tech) => {
                let outage = model.total(RecoveryScheme::ShareBackup(tech));
                let fail_at = Time::from_millis(5);
                (
                    format!("{tech:?} (outage {:.3} ms)", outage.as_millis_f64()),
                    vec![
                        (fail_at, PktEvent::FailNode(core)),
                        (fail_at + outage, PktEvent::RepairNode(core)),
                    ],
                )
            }
        };
        let cfg = PacketNetConfig {
            rto: RTO,
            ..PacketNetConfig::default()
        };
        let (out, drops) = PacketSim::new(cfg).run(
            &ft.net,
            &[PktFlowSpec {
                path: path.clone(),
                bytes,
                start: Time::ZERO,
            }],
            events,
            Time::from_secs(10),
        );
        // Every row reports its real counts: the reference's slow-start
        // losses are the baseline the failure rows add to.
        minijson::json!({
            "configuration": name,
            "completion_ms": out[0].completed.expect("finishes").as_secs_f64() * 1e3,
            "drops": drops,
            "timeouts": out[0].timeouts,
        })
    });

    if json {
        report::print_json(&rows);
        return;
    }
    report::print_header(
        "Ablation — circuit technology vs. failover disruption (25 MB transfer, core slot fails at 5 ms)",
        &cli,
    );
    print!("{}", report::table(&COLUMNS, &rows));
    let blackouts = [CircuitTech::Crosspoint, CircuitTech::Mems2D].map(|tech| {
        model
            .total(RecoveryScheme::ShareBackup(tech))
            .as_millis_f64()
    });
    report::print_claims(&claims(&rows, blackouts));
}

const COLUMNS: [Column; 4] = [
    Column::new("configuration", "configuration", Text),
    Column::new("completion", "completion_ms", Fixed(2, " ms")),
    Column::new("drops", "drops", Int),
    Column::new("timeouts", "timeouts", Int),
];

/// Rows are the reference, Crosspoint, then Mems2D; `blackouts` are the two
/// technologies' outages in ms.
fn claims(rows: &[Value], blackouts: [f64; 2]) -> Vec<Check> {
    let done = |i: usize| num(&rows[i], "completion_ms");
    let drops = |i: usize| num(&rows[i], "drops");
    let delays = [done(1) - done(0), done(2) - done(0)];
    let within_rto = delays
        .iter()
        .zip(blackouts)
        .all(|(&d, b)| report::approx(b, 1.3) && b < d && d <= b + RTO.as_millis_f64());
    vec![
        Check::new(
            "§5.3",
            "the 70 ns vs 40 us reset difference is invisible: both technologies add the same delay",
            done(1) == done(2) && drops(1) == drops(2),
            format!(
                "Crosspoint {:.3} ms, {} drops; Mems2D {:.3} ms, {} drops",
                done(1),
                drops(1),
                done(2),
                drops(2)
            ),
        ),
        Check::new(
            "§5.3",
            "that delay is the detection-dominated blackout (~1.3 ms) plus the wait for the 2 ms RTO",
            within_rto,
            format!(
                "delay {:.3} / {:.3} ms after blackouts of {:.3} / {:.3} ms",
                delays[0], delays[1], blackouts[0], blackouts[1]
            ),
        ),
    ]
}
