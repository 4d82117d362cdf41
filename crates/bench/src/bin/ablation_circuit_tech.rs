//! The `ablation_circuit_tech` harness: `sharebackup_bench::harness::ablation_circuit_tech` documents it.

use sharebackup_bench::{harness, Cli};

fn main() {
    print!(
        "{}",
        harness::ablation_circuit_tech::run(&mut Cli::from_env()).text
    );
}
