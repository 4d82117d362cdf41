//! Ablation: offline failure diagnosis on vs. off.
//!
//! A link failure replaces *both* suspect switches (§4.1). With diagnosis
//! (§4.2) the innocent side is exonerated and returns to the pool at once;
//! without it, both switches sit out the full repair time. The two arms
//! are two controllers that differ only in the `diagnosis_enabled` knob,
//! driven in one loop by one failure draw per trial, and we measure
//! switches out of service and recovery fallbacks (pool exhaustion). A
//! trial whose switch is still out in either arm is skipped in both, so
//! both arms handle the same link failures; switches out of service are
//! sampled at every trial's instant in both arms, handled or skipped.

use super::Output;
use crate::report::{
    self, num, Check, Column,
    Format::{Fixed, Int, Text},
};
use crate::Cli;
use minijson::Value;
use sharebackup_core::{Controller, ControllerConfig};
use sharebackup_sim::{Duration, SimRng, Time};
use sharebackup_topo::{GroupId, ShareBackup, ShareBackupConfig};

/// The two arms' rows, with diagnosis first: recovery counters and
/// switches out of service.
fn arms(k: usize, trials: usize, seed: u64) -> [Value; 2] {
    let mut ctls = [true, false].map(|with_diagnosis| {
        let cfg = ControllerConfig {
            diagnosis_enabled: with_diagnosis,
            ..ControllerConfig::default()
        };
        Controller::new(ShareBackup::build(ShareBackupConfig::new(k, 2)), cfg)
    });
    let mut rng = SimRng::seed_from_u64(seed);
    let half = k / 2;
    let mut out_sum = [0.0; 2];
    let mut peak = [0usize; 2];
    let mut now = Time::ZERO;
    for _ in 0..trials {
        now += Duration::from_secs(45);
        // Random edge-agg link failure: edge (pod, e) uplink m breaks.
        let pod = rng.range(0..k);
        let e = rng.range(0..half);
        let m = rng.range(0..half);
        let a = (e + m) % half;
        let slots = [GroupId::edge(pod).slot(e), GroupId::agg(pod).slot(a)];
        for ctl in &mut ctls {
            ctl.poll_repairs(now);
        }
        // A slot down in either arm from an unrecovered failure skips the
        // trial in both.
        let up = |ctl: &Controller, slot| ctl.sb.phys(ctl.sb.occupant(slot)).healthy;
        let handled = ctls.iter().all(|ctl| slots.iter().all(|&s| up(ctl, s)));
        for (i, ctl) in ctls.iter_mut().enumerate() {
            if handled {
                let [edge, agg] = slots.map(|s| ctl.sb.occupant(s));
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
            peak[i] = peak[i].max(out);
            out_sum[i] += out as f64;
        }
    }
    [0, 1].map(|i| {
        let stats = &ctls[i].stats;
        minijson::json!({
            "diagnosis": i == 0,
            "link_failures": stats.link_failures,
            "exonerated": stats.exonerations,
            "convicted": stats.convictions,
            "fallbacks": stats.fallbacks,
            "samples": trials,
            "mean_switches_out": out_sum[i] / trials as f64,
            "peak_switches_out": peak[i],
        })
    })
}

/// Run the harness on `cli`'s flags.
pub fn run(cli: &mut Cli) -> Output {
    let k = cli.k(8);
    let seed: u64 = cli.get("seed", 42);
    let trials = cli.trials(100);
    cli.finish();

    let rows = arms(k, trials, seed);
    let mut text = report::header(
        "Ablation — offline diagnosis on/off (one link failure per trial, one faulty side each, 180 s repair)",
        cli,
    );
    text += &report::table(&COLUMNS, &rows);
    Output::new(text, &rows, claims(&rows[0], &rows[1]))
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
