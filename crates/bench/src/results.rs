//! The committed outputs under `results/` and the one pass that checks
//! them. `results/COMMANDS` names each file with the harness and arguments
//! that write it, `<file> <harness> [args...]`. `--json` only picks which
//! rendering a file holds, so a `.json` line shares its text line's run.

use crate::{harness, report::Check, Cli};
use std::path::Path;

/// One line of `results/COMMANDS`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Command {
    /// The committed file, relative to `results/`.
    pub file: String,
    /// The binary that writes it.
    pub harness: String,
    /// Its arguments, without `--json`.
    pub args: Vec<String>,
    /// Whether `--json` was among them: the file holds the JSON rendering.
    pub json: bool,
}

/// The lines of a `results/COMMANDS` text, blank lines and `#` comments
/// skipped.
pub fn commands(text: &str) -> Vec<Command> {
    let line = |line: &str| {
        let mut words = line.split_whitespace().map(str::to_string);
        let [file, harness] = [words.next(), words.next()].map(Option::unwrap_or_default);
        let (json, args): (Vec<String>, Vec<String>) = words.partition(|a| a == "--json");
        Command {
            file,
            harness,
            args,
            json: !json.is_empty(),
        }
    };
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(line)
        .collect()
}

/// `commands` grouped into runs, one per distinct harness and arguments, in
/// first-appearance order; the scorecard's line is the pass, not a run.
pub fn runs(commands: Vec<Command>) -> Vec<Vec<Command>> {
    let mut runs: Vec<Vec<Command>> = Vec::new();
    for c in commands.into_iter().filter(|c| c.harness != "scorecard") {
        match runs
            .iter_mut()
            .find(|r| r[0].harness == c.harness && r[0].args == c.args)
        {
            Some(run) => run.push(c),
            None => runs.push(vec![c]),
        }
    }
    runs
}

/// One run of the pass.
#[derive(Debug)]
pub struct Outcome {
    /// The run's lines, each with the first line (from 1) where its
    /// committed file differs; `None` if it reproduces byte for byte.
    pub files: Vec<(Command, Option<usize>)>,
    /// The claims the run's text lists.
    pub claims: Vec<Check>,
}

/// The results pass over directory `dir`: each run of `dir/COMMANDS`, in
/// its order, made once in process, with every file it writes compared
/// against `dir/<file>` (a file that cannot be read differs at line 1).
///
/// # Panics
/// Panics if `dir/COMMANDS` cannot be read or names no harness of
/// [`harness::ALL`].
pub fn check(dir: &Path) -> Vec<Outcome> {
    let listed = dir.join("COMMANDS");
    let text = std::fs::read_to_string(&listed)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", listed.display()));
    let outcome = |run: Vec<Command>| {
        let name = run[0].harness.as_str();
        let (_, harness) = harness::ALL
            .iter()
            .find(|(listed, _)| *listed == name)
            .unwrap_or_else(|| panic!("{} names {name}, not a harness", listed.display()));
        let out = harness(&mut Cli::new(name, run[0].args.clone()));
        let compare = |c: Command| {
            let fresh = if c.json { &out.json } else { &out.text };
            let committed = std::fs::read(dir.join(&c.file)).unwrap_or_default();
            (c, first_difference(&committed, fresh.as_bytes()))
        };
        let files = run.into_iter().map(compare).collect();
        Outcome {
            files,
            claims: out.claims,
        }
    };
    runs(commands(&text)).into_iter().map(outcome).collect()
}

/// The first line (from 1) where `committed` and `fresh` differ, or that
/// one of them lacks; `None` if they are the same bytes.
fn first_difference(committed: &[u8], fresh: &[u8]) -> Option<usize> {
    let lines = |bytes| <[u8]>::split_inclusive(bytes, |&b| b == b'\n');
    let same = lines(committed)
        .zip(lines(fresh))
        .take_while(|(a, b)| a == b)
        .count();
    (committed != fresh).then_some(same + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_first_differing_line_is_named() {
        assert_eq!(first_difference(b"a\nb\n", b"a\nb\n"), None);
        assert_eq!(first_difference(b"a\nb\n", b"a\nc\n"), Some(2));
        assert_eq!(first_difference(b"a\nb\n", b"a\nb"), Some(2));
        assert_eq!(first_difference(b"a\n", b"a\nb\n"), Some(2));
        assert_eq!(first_difference(b"", b"a\n"), Some(1));
    }
}
