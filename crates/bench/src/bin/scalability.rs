//! The `scalability` harness: `sharebackup_bench::harness::scalability` documents it.

use sharebackup_bench::harness;

fn main() {
    harness::main(harness::scalability::run);
}
