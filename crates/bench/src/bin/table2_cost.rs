//! Table 2: cost equations of the compared architectures, evaluated at the
//! market prices the paper quotes.
//!
//! Usage: `table2_cost [flags]`; `--help` lists the flags and their defaults.

use minijson::Value;
use sharebackup_bench::report::{self, num, Check};
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
        report::print_json(&rows);
        return;
    }

    report::print_header("Table 2 — architecture costs (dollars)", &cli);
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
    print!("{}", report::claims(&claims(&rows)));
}

/// The paper's headline at k=48, n=1; rows are electrical then optical.
fn claims(rows: &[Value]) -> Vec<Check> {
    let pct = |key: &str| rows.iter().map(|r| num(r, key)).collect::<Vec<f64>>();
    let (sb, aspen) = (
        pct("sharebackup_additional_pct"),
        pct("aspen_additional_pct"),
    );
    let one: Vec<f64> = rows
        .iter()
        .map(|r| num(r, "one_to_one_total") / num(r, "fat_tree"))
        .collect();
    let ratio: Vec<f64> = aspen.iter().zip(&sb).map(|(a, s)| a / s).collect();
    let fmt = |v: &[f64], suffix: &str| format!("{:.1}{suffix} / {:.1}{suffix}", v[0], v[1]);
    vec![
        Check::new(
            "§5.2",
            "k=48, n=1: ShareBackup adds 6.7% (E-DC) / 13.3% (O-DC)",
            fmt(&sb, "%") == "6.7% / 13.3%",
            fmt(&sb, "%"),
        ),
        Check::new(
            "§5.2",
            "1:1 backup costs 4x fat-tree",
            one.iter().all(|&x| (x - 4.0).abs() < 1e-9),
            fmt(&one, "x"),
        ),
        Check::new(
            "§5.2",
            "k=48, n=1: Aspen's addition is 6.5x / 3.2x ShareBackup's",
            fmt(&ratio, "x") == "6.5x / 3.2x",
            fmt(&ratio, "x"),
        ),
    ]
}
