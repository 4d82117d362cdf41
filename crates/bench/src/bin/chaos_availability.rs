//! The `chaos_availability` harness: `sharebackup_bench::harness::chaos_availability` documents it.

use sharebackup_bench::harness;

fn main() {
    harness::main(harness::chaos_availability::run);
}
