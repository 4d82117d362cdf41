//! Fig. 5: additional cost of ShareBackup, Aspen Tree, and 1:1 backup
//! relative to fat-tree, across network scales, for electrical (E-DC) and
//! optical (O-DC) data centers.
//!
//! Usage: `fig5_cost [flags]`; `--help` lists the flags and their defaults.

use minijson::Value;
use sharebackup_bench::report::{self, num, Check};
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
        report::print_json(&out);
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
    report::print_claims(&claims(&out));
}

/// The shape of Fig. 5, from its series.
fn claims(rows: &[Value]) -> Vec<Check> {
    // An architecture's series, electrical then optical, as (k, pct) points.
    let series = |arch: &str| -> Vec<Vec<(f64, f64)>> {
        rows.iter()
            .filter(|r| r["architecture"] == arch)
            .map(|r| {
                let points = r["series_pct_of_fattree"].as_array().expect("series");
                points.iter().map(|p| (num(p, "0"), num(p, "1"))).collect()
            })
            .collect()
    };
    let pcts = |arch: &str| -> Vec<f64> { series(arch).concat().iter().map(|p| p.1).collect() };
    let range = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::MAX, f64::min);
        format!("{lo:.1}%-{:.1}%", v.iter().copied().fold(0.0, f64::max))
    };
    let sharebackup = [series("ShareBackup n=1"), series("ShareBackup n=4")].concat();
    let falling = sharebackup
        .iter()
        .filter(|s| s.windows(2).all(|w| w[1].1 < w[0].1))
        .count();
    let (one, aspen) = (pcts("1:1 Backup"), pcts("Aspen Tree"));
    let at48: Vec<String> = series("ShareBackup n=1")
        .concat()
        .iter()
        .filter(|p| p.0 == 48.0)
        .map(|p| format!("{:.1}%", p.1))
        .collect();
    vec![
        Check::new(
            "§5.2",
            "ShareBackup's cost falls with k (sharing improves)",
            falling == sharebackup.len(),
            format!(
                "falls at every step in {falling} of {} series",
                sharebackup.len()
            ),
        ),
        Check::new(
            "§5.2",
            "1:1 backup adds 300% at every k",
            one.iter().all(|&x| (x - 300.0).abs() < 1e-9),
            range(&one),
        ),
        Check::new(
            "§5.2",
            "Aspen Tree adds ~40%",
            aspen.iter().all(|&x| report::approx(x, 40.0)),
            range(&aspen),
        ),
        Check::new(
            "§5.2",
            "ShareBackup n=1 at k=48 adds 6.7% (E-DC) / 13.3% (O-DC)",
            at48 == ["6.7%", "13.3%"],
            at48.join(" / "),
        ),
    ]
}
