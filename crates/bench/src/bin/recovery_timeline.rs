//! The `recovery_timeline` harness: `sharebackup_bench::harness::recovery_timeline` documents it.

use sharebackup_bench::{harness, Cli};

fn main() {
    print!(
        "{}",
        harness::recovery_timeline::run(&mut Cli::from_env()).text
    );
}
