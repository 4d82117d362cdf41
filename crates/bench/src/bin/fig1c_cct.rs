//! The `fig1c_cct` harness: `sharebackup_bench::harness::fig1c_cct` documents it.

use sharebackup_bench::{harness, Cli};

fn main() {
    print!("{}", harness::fig1c_cct::run(&mut Cli::from_env()).text);
}
