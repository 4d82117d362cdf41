//! The `capacity` harness: `sharebackup_bench::harness::capacity` documents it.

use sharebackup_bench::harness;

fn main() {
    harness::main(harness::capacity::run);
}
