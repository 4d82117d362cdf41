//! The `table_routing_size` harness: `sharebackup_bench::harness::table_routing_size` documents it.

use sharebackup_bench::{harness, Cli};

fn main() {
    print!(
        "{}",
        harness::table_routing_size::run(&mut Cli::from_env()).text
    );
}
