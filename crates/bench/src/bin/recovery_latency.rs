//! The `recovery_latency` harness: `sharebackup_bench::harness::recovery_latency` documents it.

use sharebackup_bench::{harness, Cli};

fn main() {
    print!(
        "{}",
        harness::recovery_latency::run(&mut Cli::from_env()).text
    );
}
