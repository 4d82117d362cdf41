//! The `longrun_availability` harness: `sharebackup_bench::harness::longrun_availability` documents it.

use sharebackup_bench::harness;

fn main() {
    harness::main(harness::longrun_availability::run);
}
