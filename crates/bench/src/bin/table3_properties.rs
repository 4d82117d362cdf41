//! The `table3_properties` harness: `sharebackup_bench::harness::table3_properties` documents it.

use sharebackup_bench::{harness, Cli};

fn main() {
    print!(
        "{}",
        harness::table3_properties::run(&mut Cli::from_env()).text
    );
}
