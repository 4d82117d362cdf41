//! §5.1: capacity to handle failures — backup ratios vs. the measured
//! 0.01% switch failure rate, plus an empirical pool-exhaustion check.
//!
//! Each row builds its ShareBackup deployment, so the §3 inventory (failure
//! groups, circuit switches, and the logical links the circuits realize)
//! is counted from the topology rather than from a formula.
//!
//! The empirical part samples concurrent-failure scenarios at the paper's
//! failure statistics and counts how often any failure group would need
//! more than n backups — the event ShareBackup cannot mask.

use super::Output;
use crate::report::Format::{Fixed, Int};
use crate::report::{self, num, Check, Column};
use crate::Cli;
use minijson::Value;
use sharebackup_cost::CapacityAnalysis;
use sharebackup_sim::SimRng;
use sharebackup_topo::{ShareBackup, ShareBackupConfig};

/// Probability that some group exceeds its n backups when each switch is
/// independently down with probability `p` — estimated by sampling.
fn exhaustion_probability(k: usize, n: usize, p: f64, trials: usize, seed: u64) -> f64 {
    let half = k / 2;
    let groups = 5 * k / 2;
    let mut rng = SimRng::seed_from_u64(seed);
    let mut exhausted = 0usize;
    for _ in 0..trials {
        let mut any = false;
        for _ in 0..groups {
            let mut down = 0usize;
            for _ in 0..half {
                if rng.chance(p) {
                    down += 1;
                }
            }
            if down > n {
                any = true;
                break;
            }
        }
        if any {
            exhausted += 1;
        }
    }
    exhausted as f64 / trials as f64
}

/// Run the harness on `cli`'s flags.
pub fn run(cli: &mut Cli) -> Output {
    let seed: u64 = cli.get("seed", 42);
    let trials = cli.trials(10_000);
    cli.finish();
    const FAILURE_RATE: f64 = 0.0001; // 99.99% availability (Gill et al.)

    let configs = [(16usize, 1usize), (48, 1), (48, 4), (58, 1), (64, 2)];
    let rows: Vec<minijson::Value> = configs
        .iter()
        .map(|&(k, n)| {
            let c = CapacityAnalysis::new(k, n);
            let sb = ShareBackup::build(ShareBackupConfig::new(k, n));
            minijson::json!({
                "k": k,
                "n": n,
                "hosts": c.hosts(),
                "failure_groups": sb.group_ids().len(),
                "circuit_switches": sb.circuit_switch_count(),
                "links": sb.slots.net.link_count(),
                "derived_links": sb.derived_links().len(),
                "backup_ratio_pct": 100.0 * c.backup_ratio(),
                "headroom_over_0p01pct": c.headroom_over(FAILURE_RATE),
                "switch_failures_per_group": c.switch_failures_per_group(),
                "link_failures_per_group": c.link_failures_per_group(),
                "exhaustion_probability": exhaustion_probability(
                    k, n, FAILURE_RATE, trials, seed
                ),
            })
        })
        .collect();

    let mut text = report::header(
        "§5.1 — capacity to handle failures (0.01% instantaneous switch failure rate)",
        cli,
    );
    text += &report::table(&COLUMNS, &rows);
    Output::new(text, &rows, claims(&rows))
}

const COLUMNS: [Column; 12] = [
    Column::new("k", "k", Int),
    Column::new("n", "n", Int),
    Column::new("hosts", "hosts", Int),
    Column::new("groups", "failure_groups", Int),
    Column::new("CS", "circuit_switches", Int),
    Column::new("links", "links", Int),
    Column::new("via CS", "derived_links", Int),
    Column::new("backup ratio", "backup_ratio_pct", Fixed(2, "%")),
    Column::new("headroom", "headroom_over_0p01pct", Fixed(0, "x")),
    Column::new("sw fail/grp", "switch_failures_per_group", Int),
    Column::new("ln fail/grp", "link_failures_per_group", Int),
    Column::new("P(exhaust)", "exhaustion_probability", Fixed(5, "")),
];

fn claims(rows: &[Value]) -> Vec<Check> {
    let r = rows
        .iter()
        .find(|r| num(r, "k") == 48.0 && num(r, "n") == 1.0)
        .expect("the k=48, n=1 row");
    let (ratio, headroom) = (num(r, "backup_ratio_pct"), num(r, "headroom_over_0p01pct"));
    let inventory = rows
        .iter()
        .filter(|r| {
            let k = num(r, "k");
            num(r, "failure_groups") == 5.0 * k / 2.0
                && num(r, "circuit_switches") == 3.0 * k * k / 2.0
                && num(r, "derived_links") == num(r, "links")
        })
        .count();
    let tolerated = rows
        .iter()
        .filter(|r| {
            let (k, n) = (num(r, "k"), num(r, "n"));
            num(r, "switch_failures_per_group") == n && num(r, "link_failures_per_group") == k * n
        })
        .count();
    vec![
        Check::new(
            "§3",
            "5k/2 failure groups, 3k²/2 circuit switches, as many circuit-realized links as fat-tree links",
            inventory == rows.len(),
            format!("in {inventory} of {} configurations", rows.len()),
        ),
        Check::new(
            "§5.1",
            "k=48, n=1 gives backup ratio 4.17%, >400x the failure rate",
            format!("{ratio:.2}") == "4.17" && headroom > 400.0,
            format!("{ratio:.2}%, {headroom:.0}x"),
        ),
        Check::new(
            "§5.1",
            "n concurrent switch failures (kn link failures) tolerated per group",
            tolerated == rows.len(),
            format!("n and kn in {tolerated} of {} configurations", rows.len()),
        ),
    ]
}
