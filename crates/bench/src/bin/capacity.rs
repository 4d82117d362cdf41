//! The `capacity` harness: `sharebackup_bench::harness::capacity` documents it.

use sharebackup_bench::{harness, Cli};

fn main() {
    print!("{}", harness::capacity::run(&mut Cli::from_env()).text);
}
