//! The `fig5_cost` harness: `sharebackup_bench::harness::fig5_cost` documents it.

use sharebackup_bench::harness;

fn main() {
    harness::main(harness::fig5_cost::run);
}
