//! The `fig1_affected` harness: `sharebackup_bench::harness::fig1_affected` documents it.

use sharebackup_bench::{harness, Cli};

fn main() {
    print!("{}", harness::fig1_affected::run(&mut Cli::from_env()).text);
}
