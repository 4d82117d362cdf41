//! §5.3: scalability under circuit-switch port limits.
//!
//! Usage: `scalability [flags]`; `--help` lists the flags and their defaults.
//!
//! A ShareBackup circuit switch needs (k/2 + n + 2) ports per side; with
//! 32-port 2D MEMS that caps k at 58 for n=1 (over 48k hosts) or n at 6
//! for k=48 (25% backup ratio). 256-port crosspoint switches are nowhere
//! near binding.

use sharebackup_bench::Cli;
use sharebackup_cost::{CapacityAnalysis, ScalabilityLimits};
use sharebackup_topo::CircuitTech;

fn main() {
    let mut cli = Cli::from_env();
    let json = cli.switch("json");
    cli.finish();
    let mut rows = Vec::new();
    for tech in [CircuitTech::Mems2D, CircuitTech::Crosspoint] {
        let s = ScalabilityLimits::new(tech);
        for n in 1..=6 {
            let k = s.max_k(n);
            let cap = CapacityAnalysis::new(k, n);
            rows.push(minijson::json!({
                "tech": format!("{tech:?}"),
                "port_limit": tech.max_ports(),
                "n": n,
                "max_k": k,
                "hosts": cap.hosts(),
                "backup_ratio_pct": 100.0 * cap.backup_ratio(),
                "ports_needed": ScalabilityLimits::ports_needed(k, n),
            }));
        }
        // And the k=48 view: how much robustness fits.
        rows.push(minijson::json!({
            "tech": format!("{tech:?}"),
            "port_limit": tech.max_ports(),
            "fixed_k": 48,
            "max_n": s.max_n(48),
            "backup_ratio_pct": 100.0 * CapacityAnalysis::new(48, s.max_n(48)).backup_ratio(),
        }));
    }

    if json {
        println!(
            "{}",
            minijson::to_string_pretty(&minijson::Value::Array(rows)).expect("json")
        );
        return;
    }

    println!("§5.3 — scalability under circuit-switch port limits");
    println!(
        "{:>12} {:>11} {:>3} {:>7} {:>9} {:>13} {:>13}",
        "technology", "port limit", "n", "max k", "hosts", "backup ratio", "ports needed"
    );
    for r in rows.iter().filter(|r| r.get("max_k").is_some()) {
        println!(
            "{:>12} {:>11} {:>3} {:>7} {:>9} {:>12.2}% {:>13}",
            r["tech"].as_str().expect("t"),
            r["port_limit"], r["n"], r["max_k"], r["hosts"],
            r["backup_ratio_pct"].as_f64().expect("v"),
            r["ports_needed"],
        );
    }
    println!();
    for r in rows.iter().filter(|r| r.get("fixed_k").is_some()) {
        println!(
            "{} at k=48: n can reach {} (backup ratio {:.1}%)",
            r["tech"].as_str().expect("t"),
            r["max_n"],
            r["backup_ratio_pct"].as_f64().expect("v"),
        );
    }
    println!();
    println!("paper: 32-port MEMS supports k=58 at n=1 (48k+ hosts, 3.45% ratio);");
    println!("n=6 at k=48 (25% ratio).");
}
