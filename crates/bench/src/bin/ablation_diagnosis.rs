//! The `ablation_diagnosis` harness: `sharebackup_bench::harness::ablation_diagnosis` documents it.

use sharebackup_bench::{harness, Cli};

fn main() {
    print!(
        "{}",
        harness::ablation_diagnosis::run(&mut Cli::from_env()).text
    );
}
