//! Fig. 1(c): CDF of coflow-completion-time slowdown under a single
//! failure, for fat-tree (global optimal rerouting), F10 (local
//! rerouting), and ShareBackup (hardware replacement).
//!
//! Usage: `fig1c_cct [flags]`; `--help` lists the flags and their defaults.
//!
//! With `--trace-out`, each trial's ShareBackup run records telemetry
//! (flowsim solve spans + the controller's recovery span tree) into a
//! per-trial buffer; the buffers are collected in trial order and written
//! as one chrome-trace JSON (track = trial) plus a `<path>.digest` text
//! rendition — both byte-identical at any `--jobs` value. It also writes
//! `<path>.trials`: one line per trial with every system's slowdowns in
//! `{:?}` form, which prints the shortest decimal that parses back to the
//! same `f64`, so two runs' files match iff their results are bit-identical
//! (CI diffs it at `--jobs 1` vs `--jobs 2`).
//!
//! Expected shape (paper §2.2): both rerouting baselines suffer CCT
//! slowdowns of orders of magnitude for the affected tail (a single
//! failure can slow a coflow by several hundred times); ShareBackup stays
//! at ≈1× because the failed switch is replaced within milliseconds and
//! flows keep their original paths. The paper also expects F10's tail to
//! be worse than fat-tree's, because its local detours are longer and
//! congest; the last claim checks that at p99.9 and on the >1.5× count,
//! and prints `[FAIL]` when fat-tree measured worse (at k=16, seed 42 it
//! does on both; see EXPERIMENTS.md).

use super::Output;
use crate::fig1::{run_fig1c_trial_traced, AbstractFailure, Fig1Setup};
use crate::report::Format::{Fixed, Int, Text};
use crate::report::{self, num, Check, Column};
use crate::{parallel_map_indexed, write_trace_files, Cli};
use minijson::Value;
use sharebackup_sim::{Cdf, SimRng};
use sharebackup_topo::{FatTree, FatTreeConfig};

/// Run the harness on `cli`'s flags.
pub fn run(cli: &mut Cli) -> Output {
    let k = cli.k(16);
    let seed: u64 = cli.get("seed", 42);
    let trials = cli.trials(10);
    let mode = cli.choice("mode", &["both", "node", "link"]);
    let jobs = cli.jobs();
    let json = cli.switch("json");
    let trace_out = cli.path("trace-out");
    cli.finish();
    // `None` (both) alternates node and link failures, starting with a node.
    let node_only = match mode {
        "node" => Some(true),
        "link" => Some(false),
        _ => None,
    };
    // Busy-cluster load: congestion is what separates F10's long detours
    // from fat-tree's shortest-path rerouting (paper §2.2).
    let setup = Fig1Setup::paper(k, seed).with_load(6.0);
    let ft = FatTree::build(FatTreeConfig::new(k).with_oversubscription(10.0));

    // Failures come from a single sequential RNG stream, so they are drawn
    // serially up front; the per-trial simulation work (which dwarfs the
    // draws) then fans out across --jobs threads. Results are folded in
    // trial order, keeping the output byte-identical to the serial run.
    let mut rng = SimRng::seed_from_u64(seed).child("fig1c-failures");
    let failures: Vec<AbstractFailure> = (0..trials)
        .map(|trial| {
            if node_only.unwrap_or(trial % 2 == 0) {
                AbstractFailure::sample_node(&mut rng, k)
            } else {
                AbstractFailure::sample_link(&mut rng, k)
            }
        })
        .collect();

    let tracing = trace_out.is_some();
    let outcomes = parallel_map_indexed(jobs, trials, |trial| {
        run_fig1c_trial_traced(&setup, &ft, trial, failures[trial], tracing)
    });

    if let Some(path) = &trace_out {
        let buffers: Vec<(u64, &sharebackup_telemetry::TraceBuffer)> = outcomes
            .iter()
            .enumerate()
            .filter_map(|(trial, t)| {
                let tid = u64::try_from(trial).unwrap_or(u64::MAX);
                t.trace.as_ref().map(|b| (tid, b))
            })
            .collect();
        write_trace_files(path, &buffers);
        let digest: String = outcomes
            .iter()
            .enumerate()
            .map(|(trial, t)| {
                format!(
                    "trial {trial}: ft={:?}/{} f10={:?}/{} sb={:?}/{}\n",
                    t.ft.0, t.ft.1, t.f10.0, t.f10.1, t.sb.0, t.sb.1
                )
            })
            .collect();
        let digest_path = format!("{path}.trials");
        if let Err(e) = std::fs::write(&digest_path, digest) {
            eprintln!("cannot write trial digest {digest_path}: {e}");
            std::process::exit(2);
        }
        eprintln!("trials: {digest_path}");
    }

    let mut sd_ft: Vec<f64> = Vec::new();
    let mut sd_f10: Vec<f64> = Vec::new();
    let mut sd_sb: Vec<f64> = Vec::new();
    let mut stranded = [0usize; 3];

    for t in outcomes {
        let (s, st) = t.ft;
        sd_ft.extend(s);
        stranded[0] += st;
        let (s, st) = t.f10;
        sd_f10.extend(s);
        stranded[1] += st;
        let (s, st) = t.sb;
        sd_sb.extend(s);
        stranded[2] += st;
    }

    let quantiles = [0.5, 0.9, 0.99, 0.999, 1.0];
    let report = |name: &str, sd: &[f64], stranded: usize| -> minijson::Value {
        let cdf = Cdf::from_samples(sd.iter().copied());
        let row: Vec<(f64, f64)> = quantiles
            .iter()
            .map(|&q| (q, if cdf.is_empty() { 0.0 } else { cdf.quantile(q) }))
            .collect();
        let degraded = sd.iter().filter(|&&x| x > 1.5).count();
        minijson::json!({
            "system": name,
            "coflows": sd.len(),
            "stranded": stranded,
            "degraded_over_1p5x": degraded,
            "mean_slowdown": sd.iter().sum::<f64>() / sd.len().max(1) as f64,
            "slowdown_quantiles": row,
        })
    };
    let results = [
        report("fat-tree (global optimal reroute)", &sd_ft, stranded[0]),
        report("F10 (local reroute)", &sd_f10, stranded[1]),
        report("ShareBackup", &sd_sb, stranded[2]),
    ];

    if json {
        return Output::json(&results);
    }
    let mut text = report::header(
        "Fig. 1(c) — CCT slowdown under a single failure (CDF quantiles)",
        cli,
    );
    text += &report::table(&COLUMNS, &results);
    Output::checked(text, claims(&results))
}

const COLUMNS: [Column; 9] = [
    Column::new("system", "system", Text),
    Column::new("coflows", "coflows", Int),
    Column::new(">1.5x", "degraded_over_1p5x", Int),
    Column::new("p50", "slowdown_quantiles.0.1", Fixed(2, "x")),
    Column::new("p90", "slowdown_quantiles.1.1", Fixed(2, "x")),
    Column::new("p99", "slowdown_quantiles.2.1", Fixed(2, "x")),
    Column::new("p99.9", "slowdown_quantiles.3.1", Fixed(2, "x")),
    Column::new("max", "slowdown_quantiles.4.1", Fixed(2, "x")),
    Column::new("stranded", "stranded", Int),
];

/// Rows are fat-tree, F10, ShareBackup, in that order.
fn claims(rows: &[Value]) -> Vec<Check> {
    let (ft, f10, sb) = (&rows[0], &rows[1], &rows[2]);
    let max = |r: &Value| num(r, "slowdown_quantiles.4.1");
    let p999 = |r: &Value| num(r, "slowdown_quantiles.3.1");
    let over = |r: &Value| num(r, "degraded_over_1p5x");
    vec![
        Check::new(
            "§2.2",
            "ShareBackup ≈ 1x everywhere",
            report::approx(max(sb), 1.0),
            format!("max {:.2}x, {} past 1.5x", max(sb), over(sb)),
        ),
        Check::new(
            "§2.2",
            "the rerouting baselines' affected tails reach orders of magnitude (>= 100x)",
            max(ft) >= 100.0 && max(f10) >= 100.0,
            format!("max {:.2}x fat-tree, {:.2}x F10", max(ft), max(f10)),
        ),
        Check::new(
            "§2.2",
            "F10's tail is worse than fat-tree's: its local detours are longer and congest",
            p999(f10) > p999(ft) && over(f10) > over(ft),
            format!(
                "F10 vs fat-tree: p99.9 {:.2}x vs {:.2}x, >1.5x {} vs {}",
                p999(f10),
                p999(ft),
                over(f10),
                over(ft)
            ),
        ),
    ]
}
