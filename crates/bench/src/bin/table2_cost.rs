//! The `table2_cost` harness: `sharebackup_bench::harness::table2_cost` documents it.

use sharebackup_bench::{harness, Cli};

fn main() {
    print!("{}", harness::table2_cost::run(&mut Cli::from_env()).text);
}
