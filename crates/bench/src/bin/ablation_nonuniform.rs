//! The `ablation_nonuniform` harness: `sharebackup_bench::harness::ablation_nonuniform` documents it.

use sharebackup_bench::harness;

fn main() {
    harness::main(harness::ablation_nonuniform::run);
}
