//! Fig. 5: additional cost of ShareBackup, Aspen Tree, and 1:1 backup
//! relative to fat-tree, across network scales, for electrical (E-DC) and
//! optical (O-DC) data centers.
//!
//! Usage: `fig5_cost [flags]`; `--help` lists the flags and their defaults.

use sharebackup_bench::Cli;
use sharebackup_cost::model::{relative_additional, Architecture, Medium};

fn main() {
    let mut cli = Cli::from_env();
    let json = cli.switch("json");
    cli.finish();
    let ks = [8usize, 16, 24, 32, 48, 64];
    let archs: [(&str, Architecture); 4] = [
        ("ShareBackup n=1", Architecture::ShareBackup { n: 1 }),
        ("ShareBackup n=4", Architecture::ShareBackup { n: 4 }),
        ("Aspen Tree", Architecture::AspenTree),
        ("1:1 Backup", Architecture::OneToOneBackup),
    ];

    let mut out = Vec::new();
    for medium in [Medium::Electrical, Medium::Optical] {
        for &(name, arch) in &archs {
            let series: Vec<(usize, f64)> = ks
                .iter()
                .map(|&k| (k, 100.0 * relative_additional(arch, k, medium)))
                .collect();
            out.push(minijson::json!({
                "medium": format!("{medium:?}"),
                "architecture": name,
                "series_pct_of_fattree": series,
            }));
        }
    }

    if json {
        println!(
            "{}",
            minijson::to_string_pretty(&minijson::Value::Array(out)).expect("json")
        );
        return;
    }

    println!("Fig. 5 — additional cost relative to fat-tree (%)");
    for medium in ["Electrical", "Optical"] {
        println!();
        println!("{medium} data center:");
        print!("{:<18}", "architecture");
        for k in ks {
            print!(" {:>9}", format!("k={k}"));
        }
        println!();
        for r in out.iter().filter(|r| r["medium"] == medium) {
            print!("{:<18}", r["architecture"].as_str().expect("name"));
            for point in r["series_pct_of_fattree"].as_array().expect("series") {
                print!(" {:>8.1}%", point[1].as_f64().expect("pct"));
            }
            println!();
        }
    }
    println!();
    println!("expected shape: ShareBackup decreases with k (sharing improves);");
    println!("1:1 = 300% always; Aspen ~40%; ShareBackup n=1 at k=48: 6.7% / 13.3%.");
}
