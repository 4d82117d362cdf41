//! The `recovery_timeline` harness: `sharebackup_bench::harness::recovery_timeline` documents it.

use sharebackup_bench::harness;

fn main() {
    harness::main(harness::recovery_timeline::run);
}
