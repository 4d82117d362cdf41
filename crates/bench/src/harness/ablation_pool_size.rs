//! Ablation: backup-pool size `n` under elevated failure pressure.
//!
//! The paper argues n=1 suffices at real failure rates (§5.1). This
//! ablation cranks the failure rate far beyond reality and measures the
//! fraction of failures ShareBackup cannot mask (pool exhausted at the
//! moment of failure) as n grows, with repairs returning switches to the
//! pool at the paper's few-minute repair times.

#![allow(clippy::cast_possible_truncation)] // bounded rack/salt arithmetic
use super::Output;
use crate::report::{self, num, Check};
use crate::{parallel_map_indexed, Cli};
use minijson::Value;
use sharebackup_core::{Controller, ControllerConfig};
use sharebackup_sim::{Duration, SimRng, Time};
use sharebackup_topo::{ShareBackup, ShareBackupConfig};
use sharebackup_workload::{FailureInjector, FailureKind};
use std::fmt::Write;

/// Fraction of node failures that could not be recovered immediately.
fn unmasked_fraction(
    k: usize,
    n: usize,
    trials: usize,
    seed: u64,
    mean_interarrival: Duration,
) -> f64 {
    let sb = ShareBackup::build(ShareBackupConfig::new(k, n));
    let mut ctl = Controller::new(sb, ControllerConfig::default());
    let injector = FailureInjector::new(&ctl.sb.slots.net);
    let mut rng = SimRng::seed_from_u64(seed);
    let events = injector.poisson_process(
        &mut rng,
        Time::from_secs(mean_interarrival.as_secs_f64() as u64 * trials as u64 + 1),
        mean_interarrival,
        Duration::from_secs(180),
        1.0, // node failures only for this ablation
    );
    let mut fallbacks = 0usize;
    let mut handled = 0usize;
    for ev in events.iter().take(trials) {
        ctl.poll_repairs(ev.at);
        let FailureKind::Node(node) = ev.kind else {
            continue;
        };
        let Some(slot) = ctl.sb.node_slot(node) else {
            continue;
        };
        let phys = ctl.sb.occupant(slot);
        if !ctl.sb.phys(phys).healthy {
            continue; // already down from an earlier unrecovered failure
        }
        ctl.sb.set_phys_healthy(phys, false);
        let r = ctl.handle_node_failure(phys, ev.at);
        handled += 1;
        if !r.fully_recovered() {
            fallbacks += 1;
        }
    }
    if handled == 0 {
        0.0
    } else {
        fallbacks as f64 / handled as f64
    }
}

/// Run the harness on `cli`'s flags.
pub fn run(cli: &mut Cli) -> Output {
    let k = cli.k(8);
    let seed: u64 = cli.get("seed", 42);
    let trials = cli.trials(300);
    let jobs = cli.jobs();
    cli.finish();

    // Sweep failure pressure: mean time between failures from crazy (5 s)
    // to merely absurd (120 s); real data centers sit around days.
    let pressures = [5u64, 15, 30, 60, 120];
    let ns = [1usize, 2, 3, 4];

    // Each grid cell is an independent simulation (fresh controller, RNG
    // reseeded from `--seed`), so the 5×4 grid fans out across `--jobs`
    // threads; collecting in index order preserves the mtbf-outer /
    // n-inner row order of the serial sweep.
    let cells: Vec<(u64, usize)> = pressures
        .iter()
        .flat_map(|&mtbf| ns.iter().map(move |&n| (mtbf, n)))
        .collect();
    let fracs = parallel_map_indexed(jobs, cells.len(), |i| {
        let (mtbf, n) = cells[i];
        unmasked_fraction(k, n, trials, seed, Duration::from_secs(mtbf))
    });
    let rows: Vec<Value> = cells
        .iter()
        .zip(&fracs)
        .map(|(&(mtbf, n), &frac)| {
            minijson::json!({
                "mtbf_s": mtbf,
                "n": n,
                "unmasked_fraction": frac,
            })
        })
        .collect();

    let mut text = report::header(
        "Ablation — unmasked failure fraction vs. backup pool size (one node failure per trial, 180 s repair)",
        cli,
    );
    let _ = write!(text, "{:>10}", "MTBF");
    for n in ns {
        let _ = write!(text, " {:>10}", format!("n={n}"));
    }
    text.push('\n');
    for &mtbf in &pressures {
        let _ = write!(text, "{:>9}s", mtbf);
        for &n in &ns {
            let r = rows
                .iter()
                .find(|r| r["mtbf_s"] == mtbf && r["n"] == n)
                .expect("row");
            let _ = write!(
                text,
                " {:>9.1}%",
                100.0 * r["unmasked_fraction"].as_f64().expect("v")
            );
        }
        text.push('\n');
    }
    // §5.1's real-world rate: one failure a day in the whole network.
    let daily = unmasked_fraction(k, 1, trials, seed, Duration::from_secs(24 * 3600));
    Output::new(text, &rows, claims(&rows, daily))
}

/// `rows` are the MTBF x n grid; `daily` is n=1's fraction at an MTBF of a
/// day.
fn claims(rows: &[Value], daily: f64) -> Vec<Check> {
    let frac = |r: &Value| num(r, "unmasked_fraction");
    // Pairs of cells that share `same` where the one with the larger `grows`
    // has the larger fraction.
    let rises = |same: &str, grows: &str| {
        rows.iter()
            .flat_map(|a| rows.iter().map(move |b| (a, b)))
            .filter(|(a, b)| a[same] == b[same] && num(a, grows) < num(b, grows))
            .filter(|(a, b)| frac(b) > frac(a))
            .count()
    };
    let (by_n, by_mtbf) = (rises("mtbf_s", "n"), rises("n", "mtbf_s"));
    vec![
        Check::new(
            "§5.1",
            "unmasked fraction falls with n and with MTBF",
            by_n == 0 && by_mtbf == 0,
            format!("rises with n in {by_n} pairs, with MTBF in {by_mtbf} pairs"),
        ),
        Check::new(
            "§5.1",
            "at real-world rates (MTBF of days) even n=1 never exhausts",
            daily == 0.0,
            format!("{:.1}% unmasked at n=1, MTBF 1 day", 100.0 * daily),
        ),
    ]
}
