//! Ablation (paper §6): non-uniform failure-group pools — "more backup on
//! critical devices and less backup on unimportant ones".
//!
//! Edge switches are the critical devices: an edge failure strands k/2
//! hosts that *no* rerouting can save, while agg/core failures only cost
//! bandwidth. This ablation compares backup allocations with the **same
//! total switch budget** and measures how many host-stranding minutes each
//! allocation leaves unmasked under an extreme failure drive.

use super::Output;
use crate::report::Format::{Int, Text};
use crate::report::{self, num, Check, Column};
use crate::{parallel_map_indexed, Cli};
use minijson::Value;
use sharebackup_core::{Controller, ControllerConfig};
use sharebackup_sim::{Duration, SimRng, Time};
use sharebackup_topo::{GroupKind, ShareBackup, ShareBackupConfig};
use std::fmt::Write;

/// One allocation's row: its backup budget and the fallbacks by group kind.
fn replay(allocation: Allocation, k: usize, trials: usize, seed: u64) -> Value {
    let (name, n_edge, n_agg, n_core) = allocation;
    let cfg = ShareBackupConfig::new(k, 1).with_backups(n_edge, n_agg, n_core);
    let sb = ShareBackup::build(cfg);
    let total_backups = k * n_edge + k * n_agg + (k / 2) * n_core;
    let mut ctl = Controller::new(sb, ControllerConfig::default());
    let mut rng = SimRng::seed_from_u64(seed);
    let mut now = Time::ZERO;
    let mut edge_fallbacks = 0u64;
    let mut other_fallbacks = 0u64;
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
    minijson::json!({
        "allocation": name,
        "total_backups": total_backups,
        "edge_fallbacks": edge_fallbacks,
        "other_fallbacks": other_fallbacks,
        "host_stranding_events": edge_fallbacks,
    })
}

/// A name and the backups per edge, agg and core group.
type Allocation = (&'static str, usize, usize, usize);

/// Run the harness on `cli`'s flags.
pub fn run(cli: &mut Cli) -> Output {
    let k = cli.k(8);
    let seed: u64 = cli.get("seed", 42);
    let trials = cli.trials(400);
    let jobs = cli.jobs();
    cli.finish();

    // Same total budget (5k/2 backups at n=1 uniform): uniform vs
    // edge-weighted vs fabric-weighted allocations.
    // uniform:        k·1 + k·1 + (k/2)·1        = 5k/2
    // edge-heavy:     k·2 + k·0 + (k/2)·1        = 5k/2
    // fabric-heavy:   k·0 + k·2 + (k/2)·1        = 5k/2
    let allocations: [Allocation; 3] = [
        ("uniform (n=1,1,1)", 1, 1, 1),
        ("edge-heavy (2,0,1)", 2, 0, 1),
        ("fabric-heavy (0,2,1)", 0, 2, 1),
    ];

    // Each allocation replays the identical failure drive on its own pool
    // layout — independent simulations, fanned out across `--jobs` threads
    // and collected in the fixed allocation order.
    let rows = parallel_map_indexed(jobs, allocations.len(), |i| {
        replay(allocations[i], k, trials, seed)
    });
    let mut text = report::header(
        "Ablation §6 — non-uniform pools at equal budget (one node failure per trial, MTBF 20 s)",
        cli,
    );
    text += &report::table(&COLUMNS, &rows);
    text.push('\n');
    let _ = writeln!(
        text,
        "edge fallbacks strand hosts (nothing can reroute around a dead ToR);\n\
         other fallbacks only cost bandwidth until repair."
    );
    let (uniform, edge_heavy) = (&rows[0], &rows[1]);
    let fallbacks = |r: &Value| (num(r, "edge_fallbacks"), num(r, "other_fallbacks"));
    let ((ue, uo), (ee, eo)) = (fallbacks(uniform), fallbacks(edge_heavy));
    let check = Check::new(
        "§6",
        "more backup on critical devices: weighting backups toward edges trades bandwidth risk for reachability risk",
        ee < ue && eo > uo,
        format!("edge-heavy vs uniform: edge fallbacks {ee} vs {ue}, other fallbacks {eo} vs {uo}"),
    );
    Output::new(text, &rows, vec![check])
}

const COLUMNS: [Column; 4] = [
    Column::new("allocation", "allocation", Text),
    Column::new("total backups", "total_backups", Int),
    Column::new("edge fallbacks", "edge_fallbacks", Int),
    Column::new("other fallbacks", "other_fallbacks", Int),
];
