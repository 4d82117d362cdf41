//! The `scalability` harness: `sharebackup_bench::harness::scalability` documents it.

use sharebackup_bench::{harness, Cli};

fn main() {
    print!("{}", harness::scalability::run(&mut Cli::from_env()).text);
}
