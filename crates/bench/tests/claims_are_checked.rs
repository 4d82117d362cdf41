//! Every claim a harness prints is a checked one. The paper's numbers go
//! through `report::Check`, which prints `[PASS]` or `[FAIL]` against the
//! harness's own rows; a free-text `expected: …` or `paper: …` line would
//! state a claim that nothing checks.

use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source dir is readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The format strings of the `print!`/`println!` calls in `text`, up to
/// their first escaped or closing quote.
fn printed_literals(text: &str) -> Vec<&str> {
    text.match_indices("print")
        .filter_map(|(i, _)| {
            let rest = &text[i + "print".len()..];
            let rest = rest.strip_prefix("ln").unwrap_or(rest).strip_prefix("!(")?;
            let literal = rest.trim_start().strip_prefix('"')?;
            literal.split(['"', '\\']).next()
        })
        .collect()
}

#[test]
fn no_harness_prints_an_unchecked_claim() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    rust_files(&src, &mut files);
    assert!(files.len() > 20, "found the harness sources: {files:?}");
    let mut offenders = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("source is readable");
        for literal in printed_literals(&text) {
            if literal.starts_with("expected") || literal.starts_with("paper") {
                offenders.push(format!("{}: \"{literal}\"", file.display()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "free-text claims; state them as report::Check instead: {offenders:#?}"
    );
}

#[test]
fn the_scan_sees_every_print_form() {
    let text = r#"println!("expected: a"); print!(
        "paper b"); eprintln!("c {}", 1); println!(); print!("{x}")"#;
    assert_eq!(
        printed_literals(text),
        ["expected: a", "paper b", "c {}", "{x}"]
    );
}
