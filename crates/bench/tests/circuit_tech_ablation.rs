//! `recovery_latency`'s two ShareBackup rows are the circuit-technology
//! ablation, and they must show the failure injected: each finishes later
//! than the no-failure reference and drops more, and the two circuit
//! technologies, whose outages differ by 40 µs, read the same.

use sharebackup_bench::{harness, Cli};

#[test]
fn failure_rows_trail_the_reference_and_the_technologies_agree() {
    let out =
        harness::recovery_latency::run(&mut Cli::new("recovery_latency", ["--json".to_string()]));
    let rows = minijson::from_str(&out.text).expect("JSON output");
    let rows = rows.as_array().expect("an array of rows");
    // (completion ms, drops, timeouts) of the row named `scheme`.
    let row = |scheme: &str| {
        let r = rows
            .iter()
            .find(|r| r["scheme"].as_str() == Some(scheme))
            .unwrap_or_else(|| panic!("no {scheme} row in {}", out.text));
        (
            r["packet_sim_completion_ms"]
                .as_f64()
                .expect("packet_sim_completion_ms"),
            r["drops"].as_i64().expect("drops"),
            r["timeouts"].as_i64().expect("timeouts"),
        )
    };
    let reference = row("(no failure reference)");
    let crosspoint = row("ShareBackup (crosspoint)");
    let mems = row("ShareBackup (2D MEMS)");
    for failed in [crosspoint, mems] {
        assert!(failed.0 > reference.0, "{failed:?} vs {reference:?}");
        assert!(failed.1 > reference.1, "{failed:?} vs {reference:?}");
    }
    assert_eq!(crosspoint, mems);
}
