//! The `recovery_latency` harness: `sharebackup_bench::harness::recovery_latency` documents it.

use sharebackup_bench::harness;

fn main() {
    harness::main(harness::recovery_latency::run);
}
