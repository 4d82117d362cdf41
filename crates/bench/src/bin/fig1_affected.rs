//! The `fig1_affected` harness: `sharebackup_bench::harness::fig1_affected` documents it.

use sharebackup_bench::harness;

fn main() {
    harness::main(harness::fig1_affected::run);
}
