//! The `table3_properties` harness: `sharebackup_bench::harness::table3_properties` documents it.

use sharebackup_bench::harness;

fn main() {
    harness::main(harness::table3_properties::run);
}
