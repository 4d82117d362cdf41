//! The `chaos_availability` harness: `sharebackup_bench::harness::chaos_availability` documents it.

use sharebackup_bench::{harness, Cli};

fn main() {
    print!(
        "{}",
        harness::chaos_availability::run(&mut Cli::from_env()).text
    );
}
