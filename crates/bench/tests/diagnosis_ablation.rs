//! `ablation_diagnosis` must account for every link failure each arm
//! handled: without diagnosis each convicts both suspects, with it each
//! convicts one and exonerates the other. The arms are paired: both handle
//! the same link failures, and both sample switches out of service at
//! every trial's instant.

use sharebackup_bench::{harness, Cli};

#[test]
fn each_arm_convicts_per_handled_link_failure() {
    let out = harness::ablation_diagnosis::run(&mut Cli::new("ablation_diagnosis", []));
    let text = out.json;
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
    let (failures_without, exonerated, convicted) = arm(false);
    assert_eq!(
        failures_without, failures,
        "both arms handle the same failures: {text}"
    );
    assert_eq!((exonerated, convicted), (0, 2 * failures), "{text}");
}
