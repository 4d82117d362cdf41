//! Ablation: offline failure diagnosis on vs. off.
//!
//! Usage: `ablation_diagnosis [flags]`; `--help` lists the flags and their defaults.
//!
//! A link failure replaces *both* suspect switches (§4.1). With diagnosis
//! (§4.2) the innocent side is exonerated and returns to the pool at once;
//! without it, both switches sit out the full repair time. Both arms run
//! the identical failure schedule through the same controller — only the
//! `diagnosis_enabled` knob differs — and we measure switches out of
//! service and recovery fallbacks (pool exhaustion).

use sharebackup_bench::{parallel_map_indexed, Cli};
use sharebackup_core::{Controller, ControllerConfig};
use sharebackup_sim::{Duration, SimRng, Time};
use sharebackup_topo::{GroupId, ShareBackup, ShareBackupConfig};

struct Outcome {
    exonerated: u64,
    convicted: u64,
    fallbacks: u64,
    mean_switches_out: f64,
    peak_switches_out: usize,
}

fn run(k: usize, trials: usize, seed: u64, with_diagnosis: bool) -> Outcome {
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
        if !ctl.sb.phys(edge).healthy || !ctl.sb.phys(agg).healthy {
            continue; // slot already down from an unrecovered failure
        }
        ctl.sb.set_iface_broken(edge, half + m, true);
        let _ = ctl.handle_link_failure((edge, half + m), (agg, m), now);
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
    Outcome {
        exonerated: ctl.stats.exonerations,
        convicted: ctl.stats.convictions,
        fallbacks: ctl.stats.fallbacks,
        mean_switches_out: out_samples.iter().sum::<f64>() / out_samples.len().max(1) as f64,
        peak_switches_out: peak,
    }
}

fn main() {
    let mut cli = Cli::from_env();
    let k = cli.k(8);
    let seed: u64 = cli.get("seed", 42);
    let trials = cli.trials(100);
    let jobs = cli.jobs();
    let json = cli.switch("json");
    cli.finish();

    // The two arms replay the same failure schedule independently, so they
    // can run on separate threads; index order keeps `with` first.
    let mut arms = parallel_map_indexed(jobs, 2, |i| run(k, trials, seed, i == 0));
    let without = arms.pop().expect("two arms");
    let with = arms.pop().expect("two arms");

    let rows = minijson::json!([
        {
            "diagnosis": true,
            "exonerated": with.exonerated,
            "convicted": with.convicted,
            "fallbacks": with.fallbacks,
            "mean_switches_out": with.mean_switches_out,
            "peak_switches_out": with.peak_switches_out,
        },
        {
            "diagnosis": false,
            "exonerated": without.exonerated,
            "convicted": without.convicted,
            "fallbacks": without.fallbacks,
            "mean_switches_out": without.mean_switches_out,
            "peak_switches_out": without.peak_switches_out,
        }
    ]);
    if json {
        println!("{}", minijson::to_string_pretty(&rows).expect("json"));
        return;
    }

    println!(
        "Ablation — offline diagnosis on/off (k={}, {} link failures, one faulty side each, 180 s repair)",
        k, trials
    );
    println!(
        "{:<18} {:>12} {:>11} {:>11} {:>14} {:>14}",
        "configuration", "exonerated", "convicted", "fallbacks", "mean sw out", "peak sw out"
    );
    for (name, o) in [("with diagnosis", &with), ("without", &without)] {
        println!(
            "{:<18} {:>12} {:>11} {:>11} {:>14.2} {:>14}",
            name, o.exonerated, o.convicted, o.fallbacks, o.mean_switches_out, o.peak_switches_out
        );
    }
    println!();
    println!("expected: without diagnosis every link failure convicts two switches,");
    println!("roughly doubling switches out of service and increasing pool-exhaustion");
    println!("fallbacks — the paper's rationale for §4.2's background diagnosis.");
}
