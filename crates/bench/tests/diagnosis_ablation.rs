//! `ablation_diagnosis` must account for every link failure each arm
//! handled: without diagnosis each convicts both suspects, with it each
//! convicts one and exonerates the other. Both arms must sample switches
//! out of service at every trial's instant, so their means are paired.

use std::process::Command;

#[test]
fn each_arm_convicts_per_handled_link_failure() {
    let out = Command::new(env!("CARGO_BIN_EXE_ablation_diagnosis"))
        .arg("--json")
        .output()
        .expect("the harness starts");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    let rows = minijson::from_str(&text).expect("JSON output");
    let rows = rows.as_array().expect("an array of rows");
    // (link_failures, exonerated, convicted) of the arm with or without diagnosis.
    let arm = |diagnosis: bool| {
        let r = rows
            .iter()
            .find(|r| r["diagnosis"] == minijson::Value::Bool(diagnosis))
            .unwrap_or_else(|| panic!("no diagnosis={diagnosis} row in {text}"));
        let field = |key: &str| r[key].as_i64().unwrap_or_else(|| panic!("no {key} in {r}"));
        (
            field("link_failures"),
            field("exonerated"),
            field("convicted"),
        )
    };
    assert_eq!(rows.len(), 2, "{text}");
    // `--trials` defaults to 100; a skipped trial is still sampled.
    for r in rows {
        assert_eq!(r["samples"].as_i64(), Some(100), "{text}");
    }
    let (failures, exonerated, convicted) = arm(true);
    assert!(failures > 0, "{text}");
    assert_eq!((exonerated, convicted), (failures, failures), "{text}");
    let (failures, exonerated, convicted) = arm(false);
    assert!(failures > 0, "{text}");
    assert_eq!((exonerated, convicted), (0, 2 * failures), "{text}");
}
