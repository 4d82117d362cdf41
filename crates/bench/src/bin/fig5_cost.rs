//! The `fig5_cost` harness: `sharebackup_bench::harness::fig5_cost` documents it.

use sharebackup_bench::{harness, Cli};

fn main() {
    print!("{}", harness::fig5_cost::run(&mut Cli::from_env()).text);
}
