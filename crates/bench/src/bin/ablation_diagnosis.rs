//! The `ablation_diagnosis` harness: `sharebackup_bench::harness::ablation_diagnosis` documents it.

use sharebackup_bench::harness;

fn main() {
    harness::main(harness::ablation_diagnosis::run);
}
