//! The `table2_cost` harness: `sharebackup_bench::harness::table2_cost` documents it.

use sharebackup_bench::harness;

fn main() {
    harness::main(harness::table2_cost::run);
}
