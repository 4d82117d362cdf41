//! The `fig1c_cct` harness: `sharebackup_bench::harness::fig1c_cct` documents it.

use sharebackup_bench::harness;

fn main() {
    harness::main(harness::fig1c_cct::run);
}
