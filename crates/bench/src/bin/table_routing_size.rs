//! §4.3 table-size check: the merged VLAN routing table of an edge failure
//! group has k/2 in-bound + k²/4 out-bound entries and fits commodity TCAM
//! (1056 entries at k=64).
//!
//! Usage: `table_routing_size [flags]`; `--help` lists the flags and their defaults.

use sharebackup_bench::Cli;
use sharebackup_routing::impersonation::GroupTables;

fn main() {
    let mut cli = Cli::from_env();
    let json = cli.switch("json");
    cli.finish();
    let ks = [8usize, 16, 32, 48, 64];

    let rows: Vec<minijson::Value> = ks
        .iter()
        .map(|&k| {
            let gt = GroupTables::build(k);
            let merged = gt.edge_group(0);
            let built = merged.entry_count();
            let formula = GroupTables::edge_entry_count(k);
            assert_eq!(built, formula, "built table must match the formula");
            minijson::json!({
                "k": k,
                "hosts": k * k * k / 4,
                "inbound_entries": merged.inbound.len(),
                "outbound_entries": merged.outbound.len(),
                "total_entries": built,
                "agg_group_entries": gt.agg_group(0).table.entry_count(),
                "core_group_entries": gt.core_group().table.entry_count(),
            })
        })
        .collect();

    if json {
        println!(
            "{}",
            minijson::to_string_pretty(&minijson::Value::Array(rows)).expect("json")
        );
        return;
    }

    println!("§4.3 — merged impersonation-table sizes (entries per switch)");
    println!(
        "{:>4} {:>9} {:>14} {:>15} {:>12} {:>11} {:>11}",
        "k", "hosts", "edge in-bound", "edge out-bound", "edge total", "agg table", "core table"
    );
    for r in &rows {
        println!(
            "{:>4} {:>9} {:>14} {:>15} {:>12} {:>11} {:>11}",
            r["k"], r["hosts"], r["inbound_entries"], r["outbound_entries"],
            r["total_entries"], r["agg_group_entries"], r["core_group_entries"],
        );
    }
    println!();
    println!("paper: 1056 entries for k=64 (over 65k hosts) — within commodity TCAM.");
}
