//! Fig. 1(a)/(b): percentage of flows and coflows affected by failures.
//!
//! Usage: `fig1_affected [flags]`; `--help` lists the flags and their defaults.
//!
//! Reproduces the paper's §2.2 observation: the coflow-level impact is
//! 3.3×–90× the flow-level impact, and the coflow curve climbs steeply at
//! small failure counts (the paper reports 29.6% of coflows affected by a
//! single node failure and 17% by a single link failure on its trace).

use sharebackup_bench::fig1::{impact_sweep, Fig1Setup};
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
    let rows = impact_sweep(&setup, node_mode, &counts, trials, jobs);

    if json {
        let json: Vec<minijson::Value> = rows
            .iter()
            .map(|(c, f, cf)| {
                minijson::json!({
                    "failures": c,
                    "affected_flows_pct": f * 100.0,
                    "affected_coflows_pct": cf * 100.0,
                    "amplification": if *f > 0.0 { cf / f } else { 0.0 },
                })
            })
            .collect();
        println!("{}", minijson::to_string_pretty(&json).expect("json"));
        return;
    }

    println!(
        "Fig. 1({}) — affected flows/coflows vs. number of {} failures",
        if node_mode { "a" } else { "b" },
        if node_mode { "node" } else { "link" }
    );
    println!(
        "k={} oversubscription={} trials={} seed={}",
        k, setup.oversubscription, trials, seed
    );
    println!("{:>9} {:>16} {:>18} {:>15}", "failures", "flows affected", "coflows affected", "amplification");
    for (c, f, cf) in rows {
        println!(
            "{:>9} {:>15.2}% {:>17.2}% {:>14.1}x",
            c,
            f * 100.0,
            cf * 100.0,
            if f > 0.0 { cf / f } else { 0.0 }
        );
    }
    println!();
    println!("paper (its trace): coflow impact 3.3x-90x the flow impact;");
    println!("single node failure affects ~29.6% of coflows, single link ~17%.");
}
