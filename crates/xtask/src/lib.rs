//! Workspace automation tasks: [`trace`] summarizes the chrome-trace JSON
//! that a harness binary writes with `--trace-out`.
#![warn(clippy::expect_used)]

pub mod trace;

/// Entry point for the `xtask` binary: dispatch a subcommand, return the
/// process exit code.
pub fn run(args: Vec<String>) -> i32 {
    match args.first().map(String::as_str) {
        Some("trace") => trace::cli(&args[1..]),
        _ => {
            eprintln!("usage: cargo xtask trace summarize <file.json>");
            2
        }
    }
}
