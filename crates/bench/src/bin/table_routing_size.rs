//! §4.3 table-size check: the merged VLAN routing table of an edge failure
//! group has k/2 in-bound + k²/4 out-bound entries and fits commodity TCAM
//! (1056 entries at k=64).
//!
//! Usage: `table_routing_size [flags]`; `--help` lists the flags and their defaults.

use sharebackup_bench::report::Format::Int;
use sharebackup_bench::report::{self, num, Check, Column};
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
        report::print_json(&rows);
        return;
    }
    report::print_header(
        "§4.3 — merged impersonation-table sizes (entries per switch)",
        &cli,
    );
    print!("{}", report::table(&COLUMNS, &rows));
    let r = report::row(&rows, "k", 64);
    let (entries, hosts) = (num(r, "total_entries"), num(r, "hosts"));
    report::print_claims(&[Check::new(
        "§4.3",
        "1056 entries for k=64 (over 65k hosts), within commodity TCAM",
        entries == 1056.0 && hosts > 65_000.0,
        format!("{entries} entries, {hosts} hosts"),
    )]);
}

const COLUMNS: [Column; 7] = [
    Column::new("k", "k", Int),
    Column::new("hosts", "hosts", Int),
    Column::new("edge in-bound", "inbound_entries", Int),
    Column::new("edge out-bound", "outbound_entries", Int),
    Column::new("edge total", "total_entries", Int),
    Column::new("agg table", "agg_group_entries", Int),
    Column::new("core table", "core_group_entries", Int),
];
