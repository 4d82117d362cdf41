//! Every harness binary is the shared `harness::main` over its `harness`
//! module, and `harness::ALL` lists every one, so the scorecard can run
//! every binary's command in process. Reads the sources only; runs nothing.

use sharebackup_bench::harness;
use std::path::Path;

/// `text` without its whitespace, so rustfmt's line breaks do not count.
fn squash(text: &str) -> String {
    text.split_whitespace().collect()
}

/// The whole source of the binary of harness `name`, as rustfmt may break
/// it.
fn thin_main(name: &str) -> String {
    format!(
        "//! The `{name}` harness: `sharebackup_bench::harness::{name}` documents it.\n\
         \n\
         use sharebackup_bench::harness;\n\
         \n\
         fn main() {{\n    harness::main(harness::{name}::run);\n}}\n"
    )
}

#[test]
fn every_harness_binary_is_a_thin_main_listed_in_all() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut bins = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("src/bin is readable") {
        let path = entry.expect("dir entry").path();
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("a UTF-8 file name")
            .to_string();
        if name == "scorecard" {
            continue;
        }
        assert!(
            harness::ALL.iter().any(|&(listed, _)| listed == name),
            "harness::ALL does not list {name}"
        );
        let text = std::fs::read_to_string(&path).expect("source is readable");
        assert_eq!(
            squash(&text),
            squash(&thin_main(&name)),
            "{} is not the thin main",
            path.display()
        );
        bins.push(name);
    }
    bins.sort();
    let mut listed: Vec<&str> = harness::ALL.iter().map(|&(name, _)| name).collect();
    listed.sort_unstable();
    assert_eq!(
        bins, listed,
        "harness::ALL lists a harness without a binary"
    );
}
