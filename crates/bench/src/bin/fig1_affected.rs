//! Fig. 1(a)/(b): percentage of flows and coflows affected by failures.
//!
//! Usage: `fig1_affected [flags]`; `--help` lists the flags and their defaults.
//!
//! Reproduces the paper's §2.2 observation: the coflow-level impact is
//! 3.3×–90× the flow-level impact, and the coflow curve climbs steeply at
//! small failure counts (the paper reports 29.6% of coflows affected by a
//! single node failure and 17% by a single link failure on its trace).

use minijson::Value;
use sharebackup_bench::fig1::{impact_sweep, Fig1Setup};
use sharebackup_bench::report::Format::{Fixed, Int};
use sharebackup_bench::report::{self, num, Check, Column};
use sharebackup_bench::Cli;

fn main() {
    let mut cli = Cli::from_env();
    let k = cli.k(16);
    let seed: u64 = cli.get("seed", 42);
    let trials = cli.trials(20);
    let node_mode = cli.choice("mode", &["node", "link"]) == "node";
    let jobs = cli.jobs();
    let json = cli.switch("json");
    cli.finish();
    let setup = Fig1Setup::paper(k, seed);
    let counts = [1usize, 2, 4, 8, 16, 32];
    let rows: Vec<Value> = impact_sweep(&setup, node_mode, &counts, trials, jobs)
        .into_iter()
        .map(|(c, f, cf)| {
            minijson::json!({
                "failures": c,
                "affected_flows_pct": f * 100.0,
                "affected_coflows_pct": cf * 100.0,
                "amplification": if f > 0.0 { cf / f } else { 0.0 },
            })
        })
        .collect();
    if json {
        report::print_json(&rows);
        return;
    }
    report::print_header(
        &format!(
            "Fig. 1({}) — affected flows/coflows vs. number of {} failures (oversubscription {})",
            if node_mode { "a" } else { "b" },
            if node_mode { "node" } else { "link" },
            setup.oversubscription
        ),
        &cli,
    );
    print!("{}", report::table(&COLUMNS, &rows));
    report::print_claims(&claims(&rows, node_mode));
}

const COLUMNS: [Column; 4] = [
    Column::new("failures", "failures", Int),
    Column::new("flows affected", "affected_flows_pct", Fixed(2, "%")),
    Column::new("coflows affected", "affected_coflows_pct", Fixed(2, "%")),
    Column::new("amplification", "amplification", Fixed(1, "x")),
];

/// The paper's Fig. 1 numbers come from its own trace; these rows come from
/// the synthetic one (EXPERIMENTS.md, Fig. 1).
fn claims(rows: &[Value], node_mode: bool) -> Vec<Check> {
    let amp: Vec<f64> = rows.iter().map(|r| num(r, "amplification")).collect();
    let (lo, hi) = (
        amp.iter().copied().fold(f64::MAX, f64::min),
        amp.iter().copied().fold(0.0, f64::max),
    );
    let single = num(report::row(rows, "failures", 1), "affected_coflows_pct");
    let (claim, paper) = if node_mode {
        ("a single node failure affects ~29.6% of coflows", 29.6)
    } else {
        ("a single link failure affects ~17% of coflows", 17.0)
    };
    vec![
        Check::new(
            "§2.2",
            "coflow impact spans 3.3x-90x the flow impact",
            lo <= 3.3 && hi >= 90.0,
            format!("{lo:.1}x-{hi:.1}x"),
        ),
        Check::new(
            "§2.2",
            claim,
            report::approx(single, paper),
            format!("{single:.2}%"),
        ),
    ]
}
