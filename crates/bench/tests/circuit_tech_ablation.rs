//! `ablation_circuit_tech` must show the failure it injects: each failover
//! row finishes later than the no-failure reference and drops more, and the
//! two circuit technologies, whose outages differ by 40 µs, read the same.

use std::process::Command;

#[test]
fn failure_rows_trail_the_reference_and_the_technologies_agree() {
    let out = Command::new(env!("CARGO_BIN_EXE_ablation_circuit_tech"))
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
    // (completion_ms, drops, timeouts) of one row.
    let row = |name: &str| {
        let r = rows
            .iter()
            .find(|r| {
                r["configuration"]
                    .as_str()
                    .is_some_and(|c| c.starts_with(name))
            })
            .unwrap_or_else(|| panic!("no {name} row in {text}"));
        (
            r["completion_ms"].as_f64().expect("completion_ms"),
            r["drops"].as_i64().expect("drops"),
            r["timeouts"].as_i64().expect("timeouts"),
        )
    };
    assert_eq!(rows.len(), 3, "{text}");
    let reference = row("no failure");
    let crosspoint = row("Crosspoint");
    let mems = row("Mems2D");
    for failed in [crosspoint, mems] {
        assert!(failed.0 > reference.0, "{failed:?} vs {reference:?}");
        assert!(failed.1 > reference.1, "{failed:?} vs {reference:?}");
    }
    assert_eq!(crosspoint, mems);
}
