//! Ablation: offline failure diagnosis on vs. off.
//!
//! Usage: `ablation_diagnosis [flags]`; `--help` lists the flags and their defaults.
//!
//! A link failure replaces *both* suspect switches (§4.1). With diagnosis
//! (§4.2) the innocent side is exonerated and returns to the pool at once;
//! without it, both switches sit out the full repair time. Both arms run
//! the identical failure schedule through the same controller — only the
//! `diagnosis_enabled` knob differs — and we measure switches out of
//! service and recovery fallbacks (pool exhaustion). An arm skips a
//! failure whose switch is already out, and the arm without diagnosis has
//! more out, so each row records the link failures it handled. Switches
//! out of service are sampled at every trial's instant in both arms,
//! handled or skipped, so the two means average the same instants.

use super::Output;
use crate::report::{
    self, num, Check, Column,
    Format::{Fixed, Int, Text},
};
use crate::{parallel_map_indexed, Cli};
use minijson::Value;
use sharebackup_core::{Controller, ControllerConfig};
use sharebackup_sim::{Duration, SimRng, Time};
use sharebackup_topo::{GroupId, ShareBackup, ShareBackupConfig};

/// One arm's row: recovery counters and switches out of service.
fn arm(k: usize, trials: usize, seed: u64, with_diagnosis: bool) -> Value {
    let sb = ShareBackup::build(ShareBackupConfig::new(k, 2));
    let cfg = ControllerConfig {
        diagnosis_enabled: with_diagnosis,
        ..ControllerConfig::default()
    };
    let mut ctl = Controller::new(sb, cfg);
    let mut rng = SimRng::seed_from_u64(seed);
    let half = k / 2;
    let mut out_samples = Vec::new();
    let mut peak = 0usize;
    let mut now = Time::ZERO;
    for _ in 0..trials {
        now += Duration::from_secs(45);
        ctl.poll_repairs(now);
        // Random edge-agg link failure: edge (pod, e) uplink m breaks.
        let pod = rng.range(0..k);
        let e = rng.range(0..half);
        let m = rng.range(0..half);
        let a = (e + m) % half;
        let edge = ctl.sb.occupant(GroupId::edge(pod).slot(e));
        let agg = ctl.sb.occupant(GroupId::agg(pod).slot(a));
        // A slot already down from an unrecovered failure skips the trial.
        if ctl.sb.phys(edge).healthy && ctl.sb.phys(agg).healthy {
            ctl.sb.set_iface_broken(edge, half + m, true);
            let _ = ctl.handle_link_failure((edge, half + m), (agg, m), now);
        }
        let out = ctl
            .sb
            .group_ids()
            .iter()
            .flat_map(|&g| ctl.sb.group_members(g).to_vec())
            .filter(|&p| !ctl.sb.phys(p).healthy)
            .count();
        peak = peak.max(out);
        out_samples.push(out as f64);
    }
    minijson::json!({
        "diagnosis": with_diagnosis,
        "link_failures": ctl.stats.link_failures,
        "exonerated": ctl.stats.exonerations,
        "convicted": ctl.stats.convictions,
        "fallbacks": ctl.stats.fallbacks,
        "samples": out_samples.len(),
        "mean_switches_out": out_samples.iter().sum::<f64>() / out_samples.len().max(1) as f64,
        "peak_switches_out": peak,
    })
}

/// Run the harness on `cli`'s flags.
pub fn run(cli: &mut Cli) -> Output {
    let k = cli.k(8);
    let seed: u64 = cli.get("seed", 42);
    let trials = cli.trials(100);
    let jobs = cli.jobs();
    let json = cli.switch("json");
    cli.finish();

    // The two arms replay the same failure schedule independently, so they
    // can run on separate threads; index order keeps `with` first.
    let rows = parallel_map_indexed(jobs, 2, |i| arm(k, trials, seed, i == 0));
    if json {
        return Output::json(&rows);
    }
    let mut text = report::header(
        "Ablation — offline diagnosis on/off (one link failure per trial, one faulty side each, 180 s repair)",
        cli,
    );
    text += &report::table(&COLUMNS, &rows);
    Output::checked(text, claims(&rows[0], &rows[1]))
}

const COLUMNS: [Column; 8] = [
    Column::new("diagnosis", "diagnosis", Text),
    Column::new("link failures", "link_failures", Int),
    Column::new("exonerated", "exonerated", Int),
    Column::new("convicted", "convicted", Int),
    Column::new("fallbacks", "fallbacks", Int),
    Column::new("samples", "samples", Int),
    Column::new("mean sw out", "mean_switches_out", Fixed(2, "")),
    Column::new("peak sw out", "peak_switches_out", Int),
];

/// The rationale for §4.2's background diagnosis, from the two arms' rows.
fn claims(with: &Value, without: &Value) -> Vec<Check> {
    let both = |key: &str| (num(with, key), num(without, key));
    let (failures, exonerated) = (both("link_failures"), both("exonerated"));
    let convicted = both("convicted");
    let (out, fallbacks) = (both("mean_switches_out"), both("fallbacks"));
    vec![
        Check::new(
            "§4.2",
            "without diagnosis every link failure convicts two switches, with it one",
            convicted.1 == 2.0 * failures.1
                && exonerated.0 == failures.0
                && convicted.0 == failures.0,
            format!(
                "link failures {} with, {} without; exonerated {} with, {} without; \
                 convicted {} with, {} without",
                failures.0, failures.1, exonerated.0, exonerated.1, convicted.0, convicted.1
            ),
        ),
        Check::new(
            "§4.2",
            "which roughly doubles the switches out of service",
            report::approx(out.1 / out.0, 2.0),
            format!("mean {:.2} -> {:.2} ({:.2}x)", out.0, out.1, out.1 / out.0),
        ),
        Check::new(
            "§4.2",
            "and increases pool-exhaustion fallbacks",
            fallbacks.1 > fallbacks.0,
            format!("{} -> {}", fallbacks.0, fallbacks.1),
        ),
    ]
}
