//! The `ablation_pool_size` harness: `sharebackup_bench::harness::ablation_pool_size` documents it.

use sharebackup_bench::{harness, Cli};

fn main() {
    print!(
        "{}",
        harness::ablation_pool_size::run(&mut Cli::from_env()).text
    );
}
