//! Table 2: cost equations of the compared architectures, evaluated at the
//! market prices the paper quotes.
//!
//! Usage: `table2_cost [flags]`; `--help` lists the flags and their defaults.

use sharebackup_bench::Cli;
use sharebackup_cost::model::{
    aspen_additional, fat_tree_cost, one_to_one_additional, sharebackup_additional, Medium,
    Prices,
};

fn main() {
    let mut cli = Cli::from_env();
    let k = cli.k(48);
    let n: usize = cli.get("n", 1);
    let json = cli.switch("json");
    cli.finish();

    let mut rows = Vec::new();
    for medium in [Medium::Electrical, Medium::Optical] {
        let p = Prices::for_medium(medium);
        let base = fat_tree_cost(k, p);
        let sb = sharebackup_additional(k, n, p);
        let aspen = aspen_additional(k, p);
        let one = one_to_one_additional(k, p);
        rows.push(minijson::json!({
            "medium": format!("{medium:?}"),
            "prices": {"a": p.a, "b": p.b, "c": p.c},
            "fat_tree": base.total(),
            "sharebackup_total": base.total() + sb.total(),
            "sharebackup_additional": sb.total(),
            "sharebackup_additional_pct": 100.0 * sb.total() / base.total(),
            "aspen_total": base.total() + aspen.total(),
            "aspen_additional_pct": 100.0 * aspen.total() / base.total(),
            "one_to_one_total": base.total() + one.total(),
            "one_to_one_additional_pct": 100.0 * one.total() / base.total(),
        }));
    }

    if json {
        println!(
            "{}",
            minijson::to_string_pretty(&minijson::Value::Array(rows)).expect("json")
        );
        return;
    }

    println!("Table 2 — architecture costs at k={k}, n={n} (dollars)");
    println!();
    println!("Cost equations:");
    println!("  fat-tree     = (5/4)k^3*b + (k^3/2)*c");
    println!("  ShareBackup  = (3/2)k^2(k/2+n+2)*a + (5/2)k^2n*b + (5/4)k^2n*c + fat-tree");
    println!("  Aspen Tree   = (k^3/2)*b + (k^3/4)*c + fat-tree");
    println!("  1:1 Backup   = (15/4)k^3*b + (3/2)k^3*c + fat-tree");
    println!();
    for r in &rows {
        println!(
            "{} (a=${}, b=${}, c=${}):",
            r["medium"].as_str().expect("medium"),
            r["prices"]["a"],
            r["prices"]["b"],
            r["prices"]["c"]
        );
        println!("  {:<14} ${:>14.0}", "fat-tree", r["fat_tree"].as_f64().expect("v"));
        println!(
            "  {:<14} ${:>14.0}  (+{:.1}% over fat-tree)",
            "ShareBackup",
            r["sharebackup_total"].as_f64().expect("v"),
            r["sharebackup_additional_pct"].as_f64().expect("v")
        );
        println!(
            "  {:<14} ${:>14.0}  (+{:.1}%)",
            "Aspen Tree",
            r["aspen_total"].as_f64().expect("v"),
            r["aspen_additional_pct"].as_f64().expect("v")
        );
        println!(
            "  {:<14} ${:>14.0}  (+{:.1}%)",
            "1:1 Backup",
            r["one_to_one_total"].as_f64().expect("v"),
            r["one_to_one_additional_pct"].as_f64().expect("v")
        );
        println!();
    }
    println!("paper headline (k=48, n=1): ShareBackup adds 6.7% (E-DC) / 13.3% (O-DC);");
    println!("1:1 backup costs 4x fat-tree; Aspen's addition is 6.5x / 3.2x ShareBackup's.");
}
