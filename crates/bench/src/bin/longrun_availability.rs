//! The `longrun_availability` harness: `sharebackup_bench::harness::longrun_availability` documents it.

use sharebackup_bench::{harness, Cli};

fn main() {
    print!(
        "{}",
        harness::longrun_availability::run(&mut Cli::from_env()).text
    );
}
