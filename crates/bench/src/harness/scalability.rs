//! §5.3: scalability under circuit-switch port limits.
//!
//! A ShareBackup circuit switch needs (k/2 + n + 2) ports per side; with
//! 32-port 2D MEMS that caps k at 58 for n=1 (over 48k hosts) or n at 6
//! for k=48 (25% backup ratio). 256-port crosspoint switches are nowhere
//! near binding.

use super::Output;
use crate::report::Format::{Fixed, Int, Text};
use crate::report::{self, num, Check, Column};
use crate::Cli;
use minijson::Value;
use sharebackup_cost::{CapacityAnalysis, ScalabilityLimits};
use sharebackup_topo::CircuitTech;
use std::fmt::Write;

/// Run the harness on `cli`'s flags.
pub fn run(cli: &mut Cli) -> Output {
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

    let (sweep, fixed_k): (Vec<Value>, Vec<Value>) =
        rows.iter().cloned().partition(|r| r.get("max_k").is_some());
    let mut text = report::header("§5.3 — scalability under circuit-switch port limits", cli);
    text += &report::table(&SWEEP, &sweep);
    text.push('\n');
    for r in &fixed_k {
        let _ = writeln!(
            text,
            "{} at k=48: n can reach {} (backup ratio {:.1}%)",
            r["tech"].as_str().expect("tech"),
            r["max_n"],
            num(r, "backup_ratio_pct"),
        );
    }
    Output::new(text, &rows, claims(&sweep, &fixed_k))
}

const SWEEP: [Column; 7] = [
    Column::new("technology", "tech", Text),
    Column::new("port limit", "port_limit", Int),
    Column::new("n", "n", Int),
    Column::new("max k", "max_k", Int),
    Column::new("hosts", "hosts", Int),
    Column::new("backup ratio", "backup_ratio_pct", Fixed(2, "%")),
    Column::new("ports needed", "ports_needed", Int),
];

fn claims(sweep: &[Value], fixed_k: &[Value]) -> Vec<Check> {
    let mems = sweep
        .iter()
        .find(|r| r["tech"] == "Mems2D" && num(r, "n") == 1.0)
        .expect("the Mems2D n=1 row");
    let (k, hosts, ratio) = (
        num(mems, "max_k"),
        num(mems, "hosts"),
        num(mems, "backup_ratio_pct"),
    );
    let at48 = report::row(fixed_k, "tech", "Mems2D");
    let (n, ratio48) = (num(at48, "max_n"), num(at48, "backup_ratio_pct"));
    vec![
        Check::new(
            "§5.3",
            "32-port MEMS supports k=58 at n=1 (48k+ hosts, 3.45% ratio)",
            k == 58.0 && hosts > 48_000.0 && format!("{ratio:.2}") == "3.45",
            format!("k={k} at n=1, {hosts} hosts, {ratio:.2}% ratio"),
        ),
        Check::new(
            "§5.3",
            "32-port MEMS supports n=6 at k=48 (25% ratio)",
            n == 6.0 && format!("{ratio48:.0}") == "25",
            format!("n={n} at k=48, {ratio48:.2}% ratio"),
        ),
    ]
}
