//! The `ablation_pool_size` harness: `sharebackup_bench::harness::ablation_pool_size` documents it.

use sharebackup_bench::harness;

fn main() {
    harness::main(harness::ablation_pool_size::run);
}
