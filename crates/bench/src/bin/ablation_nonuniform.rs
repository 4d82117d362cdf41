//! The `ablation_nonuniform` harness: `sharebackup_bench::harness::ablation_nonuniform` documents it.

use sharebackup_bench::{harness, Cli};

fn main() {
    print!(
        "{}",
        harness::ablation_nonuniform::run(&mut Cli::from_env()).text
    );
}
