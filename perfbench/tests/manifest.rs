//! `BENCHMARK.json` names exactly the metrics the program reports.

use sharebackup_perfbench::measure::{end_to_end, per_layer, Rep};

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory")
}

/// The `"name"` values listed in the manifest's `section` array.
fn names_in(manifest: &str, section: &str) -> Vec<String> {
    let start = manifest
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &manifest[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap_or("")
                .to_string()
        })
        .collect()
}

#[test]
fn manifest_lists_every_reported_metric() {
    let m = manifest();
    let rep = Rep {
        sims: vec![1_000_000],
        ..Rep::default()
    };
    let (e2e, _, _) = end_to_end(std::slice::from_ref(&rep), &[0.5]).expect("end-to-end metrics");
    let e2e: Vec<String> = e2e.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(names_in(&m, "end_to_end"), e2e);
    let layers: Vec<String> = per_layer(std::slice::from_ref(&rep), std::slice::from_ref(&rep))
        .iter()
        .map(|m| m.name.to_string())
        .collect();
    assert_eq!(names_in(&m, "per_layer"), layers);
}
