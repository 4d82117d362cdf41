//! Every harness that reads `--mode` rejects a value it does not know: exit
//! status 2 and a one-line message on stderr, before it simulates anything.

use std::process::Command;

fn assert_rejected(bin: &str, mode: &str) {
    let out = Command::new(bin)
        .args(["--mode", mode])
        .output()
        .expect("the harness starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} --mode {mode}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "one-line message: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} --mode {mode} printed results");
}

#[test]
fn unknown_mode_exits_2_with_a_one_line_message() {
    assert_rejected(env!("CARGO_BIN_EXE_fig1c_cct"), "nodes");
    assert_rejected(env!("CARGO_BIN_EXE_longrun_availability"), "hostil");
    assert_rejected(env!("CARGO_BIN_EXE_fig1_affected"), "both");
    assert_rejected(env!("CARGO_BIN_EXE_chaos_availability"), "digest");
}
