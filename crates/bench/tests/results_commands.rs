//! `results/COMMANDS`, `harness::ALL` and the results pass agree: every
//! line names a harness (or the scorecard, last) and a committed output,
//! every harness has at least one committed output, a `.json` line shares
//! its text line's run, and the pass names a file that drifted.

use sharebackup_bench::harness;
use sharebackup_bench::results::{self, Command};
use std::path::{Path, PathBuf};

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn committed() -> Vec<Command> {
    let text = std::fs::read_to_string(results_dir().join("COMMANDS")).expect("results/COMMANDS");
    results::commands(&text)
}

#[test]
fn results_commands_cover_every_harness() {
    let results = results_dir();
    let lines = committed();
    for c in &lines {
        let name = &c.harness;
        assert!(
            name == "scorecard" || harness::ALL.iter().any(|&(listed, _)| listed == name),
            "results/COMMANDS names {name}, which is neither in harness::ALL nor the scorecard"
        );
        assert!(
            results.join(&c.file).is_file(),
            "results/COMMANDS names results/{}, which does not exist",
            c.file
        );
    }
    for (name, _) in harness::ALL {
        assert!(
            lines.iter().any(|c| c.harness == name),
            "no results/COMMANDS line runs {name}"
        );
    }
}

#[test]
fn the_scorecard_line_comes_last() {
    // Regenerating the files line by line writes every output before the
    // pass that checks them.
    let lines = committed();
    let last = lines.last().expect("a line");
    assert_eq!(
        (last.file.as_str(), last.harness.as_str()),
        ("scorecard.txt", "scorecard")
    );
    assert_eq!(lines.iter().filter(|c| c.harness == "scorecard").count(), 1);
}

#[test]
fn a_json_line_shares_its_text_line_run() {
    let lines = committed();
    let runs = results::runs(lines.clone());
    let files = |harness: &str, args: &[&str]| -> Vec<(String, bool)> {
        let run = runs
            .iter()
            .find(|r| r[0].harness == harness && r[0].args == args)
            .unwrap_or_else(|| panic!("no run of {harness} {args:?}"));
        run.iter().map(|c| (c.file.clone(), c.json)).collect()
    };
    let pair = |text: &str, json: &str| vec![(text.to_string(), false), (json.to_string(), true)];
    assert_eq!(
        files("fig1c_cct", &["--jobs", "2"]),
        pair("fig1c.txt", "fig1c.json")
    );
    assert_eq!(
        files("recovery_latency", &[]),
        pair("recovery_latency.txt", "recovery_latency.json")
    );
    // Every line but the scorecard's is in exactly one run, with its run's
    // harness and arguments.
    let listed: usize = runs.iter().map(Vec::len).sum();
    assert_eq!(listed, lines.len() - 1);
    for run in &runs {
        assert_ne!(run[0].harness, "scorecard");
        assert!(run
            .iter()
            .all(|c| (&c.harness, &c.args) == (&run[0].harness, &run[0].args)));
    }
}

#[test]
fn the_pass_names_a_file_that_drifted() {
    let dir = std::env::temp_dir().join(format!("sharebackup-results-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    std::fs::write(
        dir.join("COMMANDS"),
        "table2_cost.txt table2_cost\nfig5_cost.txt fig5_cost\n",
    )
    .expect("COMMANDS written");
    for file in ["table2_cost.txt", "fig5_cost.txt"] {
        std::fs::copy(results_dir().join(file), dir.join(file)).expect("copied");
    }
    let flipped = dir.join("table2_cost.txt");
    let mut bytes = std::fs::read(&flipped).expect("readable");
    let at = bytes.len() / 2;
    bytes[at] ^= 1;
    std::fs::write(&flipped, &bytes).expect("written");
    let line = 1 + bytes[..at].iter().filter(|&&b| b == b'\n').count();

    let outcomes = results::check(&dir);
    std::fs::remove_dir_all(&dir).expect("scratch directory removed");
    let statuses: Vec<(&str, Option<usize>)> = outcomes
        .iter()
        .flat_map(|o| &o.files)
        .map(|(c, line)| (c.file.as_str(), *line))
        .collect();
    assert_eq!(
        statuses,
        [("table2_cost.txt", Some(line)), ("fig5_cost.txt", None)]
    );
    assert_eq!(outcomes[0].claims.len(), 3, "the run's claims are kept");
}
