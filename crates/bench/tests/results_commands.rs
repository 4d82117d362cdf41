//! `results/COMMANDS` and `harness::ALL` agree: every line names a harness
//! (or the scorecard) and a committed output, and every harness has at
//! least one committed output, so CI's "Results reproduce" loop covers them
//! all. Reads the files only; runs nothing.

use sharebackup_bench::harness;
use std::path::Path;

/// `(file, harness)` of each line of `results/COMMANDS`, comments and
/// blank lines skipped.
fn commands(results: &Path) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(results.join("COMMANDS")).expect("results/COMMANDS");
    text.lines()
        .filter(|line| !line.trim().is_empty() && !line.starts_with('#'))
        .map(|line| {
            let mut words = line.split_whitespace();
            let file = words.next().expect("a file name");
            let name = words
                .next()
                .unwrap_or_else(|| panic!("no harness in {line:?}"));
            (file.to_string(), name.to_string())
        })
        .collect()
}

#[test]
fn results_commands_cover_every_harness() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let lines = commands(&results);
    for (file, name) in &lines {
        assert!(
            name == "scorecard" || harness::ALL.iter().any(|&(listed, _)| listed == name),
            "results/COMMANDS names {name}, which is neither in harness::ALL nor the scorecard"
        );
        assert!(
            results.join(file).is_file(),
            "results/COMMANDS names results/{file}, which does not exist"
        );
    }
    for (name, _) in harness::ALL {
        assert!(
            lines.iter().any(|(_, named)| named == name),
            "no results/COMMANDS line runs {name}"
        );
    }
}
