//! Ablation (paper §6): non-uniform failure-group pools — "more backup on
//! critical devices and less backup on unimportant ones".
//!
//! Usage: `ablation_nonuniform [flags]`; `--help` lists the flags and their defaults.
//!
//! Edge switches are the critical devices: an edge failure strands k/2
//! hosts that *no* rerouting can save, while agg/core failures only cost
//! bandwidth. This ablation compares backup allocations with the **same
//! total switch budget** and measures how many host-stranding minutes each
//! allocation leaves unmasked under an extreme failure drive.

use sharebackup_bench::{parallel_map_indexed, Cli};
use sharebackup_core::{Controller, ControllerConfig};
use sharebackup_sim::{Duration, SimRng, Time};
use sharebackup_topo::{GroupKind, ShareBackup, ShareBackupConfig};

struct Outcome {
    edge_fallbacks: u64,
    other_fallbacks: u64,
    total_backups: usize,
}

fn run(k: usize, n_edge: usize, n_agg: usize, n_core: usize, trials: usize, seed: u64) -> Outcome {
    let cfg = ShareBackupConfig::new(k, 1).with_backups(n_edge, n_agg, n_core);
    let sb = ShareBackup::build(cfg);
    let total_backups = k * n_edge + k * n_agg + (k / 2) * n_core;
    let mut ctl = Controller::new(sb, ControllerConfig::default());
    let mut rng = SimRng::seed_from_u64(seed);
    let mut now = Time::ZERO;
    let mut edge_fallbacks = 0;
    let mut other_fallbacks = 0;
    for _ in 0..trials {
        now += Duration::from_secs_f64(rng.exponential(20.0));
        ctl.poll_repairs(now);
        // Failures hit edges more often than anything else (they are the
        // most numerous switch class facing the harshest environment).
        let groups = ctl.sb.group_ids();
        let g = *rng.choose(&groups);
        let slot = g.slot(rng.range(0..k / 2));
        let victim = ctl.sb.occupant(slot);
        if !ctl.sb.phys(victim).healthy {
            continue;
        }
        ctl.sb.set_phys_healthy(victim, false);
        let r = ctl.handle_node_failure(victim, now);
        if !r.fully_recovered() {
            match g.kind {
                GroupKind::Edge => edge_fallbacks += 1,
                _ => other_fallbacks += 1,
            }
        }
    }
    Outcome {
        edge_fallbacks,
        other_fallbacks,
        total_backups,
    }
}

fn main() {
    let mut cli = Cli::from_env();
    let k = cli.k(8);
    let seed: u64 = cli.get("seed", 42);
    let trials = cli.trials(400);
    let jobs = cli.jobs();
    let json = cli.switch("json");
    cli.finish();

    // Same total budget (5k/2 backups at n=1 uniform): uniform vs
    // edge-weighted vs fabric-weighted allocations.
    // uniform:        k·1 + k·1 + (k/2)·1        = 5k/2
    // edge-heavy:     k·2 + k·0 + (k/2)·1        = 5k/2
    // fabric-heavy:   k·0 + k·2 + (k/2)·1        = 5k/2
    let allocations = [
        ("uniform (n=1,1,1)", 1usize, 1usize, 1usize),
        ("edge-heavy (2,0,1)", 2, 0, 1),
        ("fabric-heavy (0,2,1)", 0, 2, 1),
    ];

    // Each allocation replays the identical failure drive on its own pool
    // layout — independent simulations, fanned out across `--jobs` threads
    // and collected in the fixed allocation order.
    let outcomes = parallel_map_indexed(jobs, allocations.len(), |i| {
        let (_, ne, na, nc) = allocations[i];
        run(k, ne, na, nc, trials, seed)
    });
    let rows: Vec<minijson::Value> = allocations
        .iter()
        .zip(&outcomes)
        .map(|(&(name, ..), o)| {
            minijson::json!({
                "allocation": name,
                "total_backups": o.total_backups,
                "edge_fallbacks": o.edge_fallbacks,
                "other_fallbacks": o.other_fallbacks,
                "host_stranding_events": o.edge_fallbacks,
            })
        })
        .collect();

    if json {
        println!(
            "{}",
            minijson::to_string_pretty(&minijson::Value::Array(rows)).expect("json")
        );
        return;
    }

    println!(
        "Ablation §6 — non-uniform pools at equal budget (k={k}, {} node failures, MTBF 20 s)",
        trials
    );
    println!(
        "{:<22} {:>13} {:>15} {:>16}",
        "allocation", "total backups", "edge fallbacks", "other fallbacks"
    );
    for r in &rows {
        println!(
            "{:<22} {:>13} {:>15} {:>16}",
            r["allocation"].as_str().expect("name"),
            r["total_backups"], r["edge_fallbacks"], r["other_fallbacks"],
        );
    }
    println!();
    println!("edge fallbacks strand hosts (nothing can reroute around a dead ToR);");
    println!("other fallbacks only cost bandwidth until repair. Weighting backups");
    println!("toward edges trades cheap bandwidth risk for scarce reachability risk —");
    println!("the §6 'more backup on critical devices' knob, quantified.");
}
