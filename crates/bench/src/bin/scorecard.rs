//! Reproduction scorecard, the results pass: it makes each run of
//! `results/COMMANDS` once, in process, prints whether each committed file
//! reproduces (`results/fig1a.txt: reproduces`, or `differs at line N`),
//! then lists each run's claims in the paper's order. It exits 1 if a file
//! differs or a claim fails.
//!
//! Usage: `scorecard`, from the repository root; it reads no flags.

use sharebackup_bench::{harness, report, results, Cli};
use std::path::Path;

fn main() {
    Cli::from_env().finish();
    let dir = Path::new("results");
    let mut outcomes = results::check(dir);
    let claims = || outcomes.iter().flat_map(|o| &o.claims);
    let passed = claims().filter(|c| c.pass).count();
    let total = claims().count();
    println!("ShareBackup reproduction scorecard — {passed}/{total} claims pass\n");
    let files = || outcomes.iter().flat_map(|o| &o.files);
    for (c, line) in files() {
        let status = line.map_or("reproduces".to_string(), |n| format!("differs at line {n}"));
        println!("{}: {status}", dir.join(&c.file).display());
    }
    let reproduced = files().all(|(_, line)| line.is_none());
    outcomes.sort_by_key(|o| {
        harness::ALL
            .iter()
            .position(|h| h.0 == o.files[0].0.harness)
    });
    for o in outcomes.iter().filter(|o| !o.claims.is_empty()) {
        let files: Vec<&str> = o.files.iter().map(|(c, _)| c.file.as_str()).collect();
        let c = &o.files[0].0;
        let command = format!("{} {}", c.harness, c.args.join(" "));
        let pass = o.claims.iter().filter(|c| c.pass).count();
        println!(
            "\n== {} ({}): {pass}/{} pass",
            files.join(", "),
            command.trim_end(),
            o.claims.len()
        );
        print!("{}", report::claims(&o.claims));
    }
    if passed != total || !reproduced {
        std::process::exit(1);
    }
}
