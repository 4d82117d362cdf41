//! The `table_routing_size` harness: `sharebackup_bench::harness::table_routing_size` documents it.

use sharebackup_bench::harness;

fn main() {
    harness::main(harness::table_routing_size::run);
}
