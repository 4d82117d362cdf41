//! The command line of every harness: each accepts exactly the flags it
//! reads, and rejects anything else — an unknown flag, a malformed value, an
//! unknown `--mode` — with exit status 2, one line on stderr and nothing on
//! stdout, before it simulates anything. `--help` lists the flags with the
//! defaults the harness runs at.

use std::process::{Command, Output};

/// Every flag some harness reads, with a value to give it (`None`: a
/// switch).
const ALL_FLAGS: [(&str, Option<&str>); 8] = [
    ("k", Some("8")),
    ("n", Some("2")),
    ("seed", Some("7")),
    ("trials", Some("1")),
    ("mode", Some("node")),
    ("jobs", Some("2")),
    ("json", None),
    ("trace-out", Some("t.json")),
];

/// Each harness with the flags it reads, in `--help` order, and their
/// defaults (`None`: no default — a switch or an optional path).
type Flags = &'static [(&'static str, Option<&'static str>)];
const HARNESSES: [(&str, Flags); 16] = [
    (
        env!("CARGO_BIN_EXE_ablation_diagnosis"),
        &[
            ("k", Some("8")),
            ("seed", Some("42")),
            ("trials", Some("100")),
            ("jobs", Some("1")),
            ("json", None),
        ],
    ),
    (
        env!("CARGO_BIN_EXE_ablation_nonuniform"),
        &[
            ("k", Some("8")),
            ("seed", Some("42")),
            ("trials", Some("400")),
            ("jobs", Some("1")),
            ("json", None),
        ],
    ),
    (
        env!("CARGO_BIN_EXE_ablation_pool_size"),
        &[
            ("k", Some("8")),
            ("seed", Some("42")),
            ("trials", Some("300")),
            ("jobs", Some("1")),
            ("json", None),
        ],
    ),
    (
        env!("CARGO_BIN_EXE_capacity"),
        &[
            ("seed", Some("42")),
            ("trials", Some("10000")),
            ("json", None),
        ],
    ),
    (
        env!("CARGO_BIN_EXE_chaos_availability"),
        &[
            ("k", Some("4")),
            ("n", Some("1")),
            ("seed", Some("42")),
            ("trials", Some("3")),
            ("mode", Some("sweep")),
            ("jobs", Some("1")),
            ("json", None),
            ("trace-out", None),
        ],
    ),
    (
        env!("CARGO_BIN_EXE_fig1_affected"),
        &[
            ("k", Some("16")),
            ("seed", Some("42")),
            ("trials", Some("20")),
            ("mode", Some("node")),
            ("jobs", Some("1")),
            ("json", None),
        ],
    ),
    (
        env!("CARGO_BIN_EXE_fig1c_cct"),
        &[
            ("k", Some("16")),
            ("seed", Some("42")),
            ("trials", Some("10")),
            ("mode", Some("both")),
            ("jobs", Some("1")),
            ("json", None),
            ("trace-out", None),
        ],
    ),
    (env!("CARGO_BIN_EXE_fig5_cost"), &[("json", None)]),
    (
        env!("CARGO_BIN_EXE_longrun_availability"),
        &[
            ("k", Some("8")),
            ("n", Some("1")),
            ("seed", Some("42")),
            ("mode", Some("hostile")),
            ("jobs", Some("1")),
            ("json", None),
        ],
    ),
    (env!("CARGO_BIN_EXE_recovery_latency"), &[("json", None)]),
    (
        env!("CARGO_BIN_EXE_recovery_timeline"),
        &[("k", Some("6")), ("json", None), ("trace-out", None)],
    ),
    (env!("CARGO_BIN_EXE_scalability"), &[("json", None)]),
    (env!("CARGO_BIN_EXE_scorecard"), &[("json", None)]),
    (
        env!("CARGO_BIN_EXE_table2_cost"),
        &[("k", Some("48")), ("n", Some("1")), ("json", None)],
    ),
    (
        env!("CARGO_BIN_EXE_table3_properties"),
        &[("k", Some("8")), ("json", None)],
    ),
    (env!("CARGO_BIN_EXE_table_routing_size"), &[("json", None)]),
];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("the harness starts")
}

fn assert_rejected(bin: &str, args: &[&str]) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "one-line message: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} printed results");
}

/// `--help`'s flag lines as `(flag, default)`.
fn help(bin: &str) -> Vec<(String, Option<String>)> {
    let out = run(bin, &["--help"]);
    assert_eq!(out.status.code(), Some(0), "{bin} --help");
    let text = String::from_utf8(out.stdout).expect("utf-8 usage");
    text.lines()
        .skip(1)
        .map(|line| {
            let flag = line.split_whitespace().next().expect("a flag per line");
            let flag = flag.strip_prefix("--").expect("a flag starts with --");
            let default = line.split_once("  default ").map(|(_, d)| d.to_string());
            (flag.to_string(), default)
        })
        .collect()
}

#[test]
fn unknown_mode_exits_2_with_a_one_line_message() {
    assert_rejected(env!("CARGO_BIN_EXE_fig1c_cct"), &["--mode", "nodes"]);
    assert_rejected(
        env!("CARGO_BIN_EXE_longrun_availability"),
        &["--mode", "hostil"],
    );
    assert_rejected(env!("CARGO_BIN_EXE_fig1_affected"), &["--mode", "both"]);
    assert_rejected(
        env!("CARGO_BIN_EXE_chaos_availability"),
        &["--mode", "digest"],
    );
}

#[test]
fn help_lists_exactly_the_flags_each_harness_reads() {
    let mut accepted = 0;
    for (bin, flags) in HARNESSES {
        let expected: Vec<(String, Option<String>)> = flags
            .iter()
            .map(|&(f, d)| (f.to_string(), d.map(str::to_string)))
            .collect();
        assert_eq!(help(bin), expected, "{bin}");
        accepted += flags.len();
    }
    assert_eq!(accepted, 58);
}

#[test]
fn every_flag_a_harness_does_not_read_is_rejected() {
    for (bin, flags) in HARNESSES {
        for (flag, value) in ALL_FLAGS {
            if flags.iter().any(|&(f, _)| f == flag) {
                continue;
            }
            let flag = format!("--{flag}");
            let args: Vec<&str> = std::iter::once(flag.as_str()).chain(value).collect();
            assert_rejected(bin, &args);
        }
        assert_rejected(bin, &["--bogus"]);
        assert_rejected(bin, &["stray"]);
    }
    // Every demo row runs one fixed trial, so demo mode does not read
    // `--trials`.
    let chaos = env!("CARGO_BIN_EXE_chaos_availability");
    assert_rejected(chaos, &["--mode", "demo", "--trials", "5"]);
}

#[test]
fn a_malformed_value_is_rejected_not_panicked_on() {
    for (bin, flags) in HARNESSES {
        for &(flag, _) in flags {
            let flag = format!("--{flag}");
            match flag.as_str() {
                "--json" => assert_rejected(bin, &["--json", "yes"]),
                "--trace-out" => assert_rejected(bin, &["--trace-out"]),
                _ => assert_rejected(bin, &[&flag, "abc"]),
            }
        }
    }
    // Well-formed numbers that `--k`, `--jobs` and `--trials` do not allow.
    let fig1c = env!("CARGO_BIN_EXE_fig1c_cct");
    assert_rejected(fig1c, &["--k", "5"]);
    assert_rejected(fig1c, &["--jobs", "0"]);
    for (bin, flags) in HARNESSES {
        if flags.iter().any(|&(f, _)| f == "trials") {
            assert_rejected(bin, &["--trials", "0"]);
        }
    }
}

#[test]
fn the_listed_defaults_are_the_ones_a_run_uses() {
    // Harnesses that run in well under a second: spelling out every
    // default `--help` lists reproduces the bare run byte for byte.
    for bin in [
        env!("CARGO_BIN_EXE_ablation_diagnosis"),
        env!("CARGO_BIN_EXE_recovery_timeline"),
        env!("CARGO_BIN_EXE_table2_cost"),
        env!("CARGO_BIN_EXE_table3_properties"),
    ] {
        let listed = help(bin);
        let args: Vec<String> = listed
            .iter()
            .filter_map(|(f, d)| d.as_ref().map(|d| [format!("--{f}"), d.clone()]))
            .flatten()
            .collect();
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        assert!(args.len() >= 2, "{bin} lists a default");
        let bare = run(bin, &[]);
        let spelled = run(bin, &args);
        assert!(bare.status.success(), "{bin}");
        assert_eq!(bare.stdout, spelled.stdout, "{bin} {args:?}");
    }
}
