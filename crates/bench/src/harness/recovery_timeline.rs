//! §4.1 recovery, event by event: the full keep-alive → detection →
//! controller → circuit-reset → ack sequence on the discrete-event engine,
//! for each circuit technology and each failure-group kind.
//!
//! With `--trace-out`, each (technology, failure) case records its engine
//! events and recovery span tree onto its own chrome-trace track.

use super::Output;
use crate::report::{
    self, num, Check, Column,
    Format::{Fixed, Text},
};
use crate::{write_trace_files, Cli};
use minijson::Value;
use sharebackup_core::{simulate_recovery, Controller, ControllerConfig};
use sharebackup_sim::{Duration, Time};
use sharebackup_telemetry::{TraceBuffer, Tracer};
use sharebackup_topo::{CircuitTech, GroupId, ShareBackup, ShareBackupConfig};
use std::fmt::Write;

/// Run the harness on `cli`'s flags.
pub fn run(cli: &mut Cli) -> Output {
    let k = cli.k(6);
    let trace_out = cli.path("trace-out");
    cli.finish();

    let cases = [
        ("edge switch", GroupId::edge(0).slot(0)),
        ("aggregation switch", GroupId::agg(0).slot(0)),
        ("core switch", GroupId::core(0).slot(0)),
    ];

    let mut rows = Vec::new();
    let mut timelines = Vec::new();
    let mut buffers: Vec<TraceBuffer> = Vec::new();
    for tech in [CircuitTech::Crosspoint, CircuitTech::Mems2D] {
        for &(name, slot) in &cases {
            let sb = ShareBackup::build(ShareBackupConfig::new(k, 1).with_tech(tech));
            let mut ctl = Controller::new(sb, ControllerConfig::default());
            let (tracer, sink) = if trace_out.is_some() {
                let (t, s) = Tracer::recording();
                (t, Some(s))
            } else {
                (Tracer::off(), None)
            };
            let tl = simulate_recovery(
                &mut ctl,
                slot,
                Time::from_millis(5),
                Duration::from_micros(321),
                &tracer,
            );
            if let Some(s) = sink {
                buffers.push(s.borrow_mut().take());
            }
            rows.push(minijson::json!({
                "tech": format!("{tech:?}"),
                "failure": name,
                "detection_us": tl.detection_latency().as_secs_f64() * 1e6,
                "repair_us": tl.repair_latency().as_secs_f64() * 1e6,
                "total_us": tl.total_latency().as_secs_f64() * 1e6,
                "events": tl.events.len(),
            }));
            timelines.push(tl);
        }
    }

    if let Some(path) = &trace_out {
        let tracks: Vec<(u64, &TraceBuffer)> = buffers
            .iter()
            .enumerate()
            .map(|(i, b)| (u64::try_from(i).unwrap_or(u64::MAX), b))
            .collect();
        write_trace_files(path, &tracks);
    }

    let mut text = report::header("§4.1 — event-driven recovery timelines (n=1)", cli);
    text += &report::table(&COLUMNS, &rows);

    // Print one full trace as the exhibit.
    let (name, tl) = (cases[1].0, &timelines[1]);
    text.push('\n');
    let _ = writeln!(
        text,
        "full trace — {name}, crosspoint (timestamps relative to the death):"
    );
    // Skip the pre-death keep-alives except the last one.
    let death_pos = tl
        .events
        .iter()
        .position(|(_, e)| matches!(e, sharebackup_core::TimelineEvent::SwitchDied))
        .expect("died");
    for (t, ev) in tl.events.iter().skip(death_pos.saturating_sub(1)) {
        let rel = if *t >= tl.died_at {
            format!("+{}", t.since(tl.died_at))
        } else {
            format!("-{}", tl.died_at.since(*t))
        };
        let _ = writeln!(text, "{rel:>14}  {ev:?}");
    }
    Output::new(text, &rows, claims(&rows))
}

const COLUMNS: [Column; 5] = [
    Column::new("technology", "tech", Text),
    Column::new("failure", "failure", Text),
    Column::new("detection", "detection_us", Fixed(3, " us")),
    Column::new("repair", "repair_us", Fixed(3, " us")),
    Column::new("total", "total_us", Fixed(3, " us")),
];

fn claims(rows: &[Value]) -> Vec<Check> {
    // Command (100 us) + the circuit reset + ack (100 us) + 50 us of
    // controller processing; the resets run in parallel across the group.
    let repair = |tech: &str| 250.0 + if tech == "Mems2D" { 40.0 } else { 0.07 };
    let decomposed = rows
        .iter()
        .filter(|r| (num(r, "repair_us") - repair(r["tech"].as_str().expect("tech"))).abs() < 1e-6)
        .count();
    let dominated = rows
        .iter()
        .filter(|r| num(r, "detection_us") > num(r, "repair_us"))
        .count();
    let most = |key: &str| rows.iter().map(|r| num(r, key)).fold(0.0, f64::max);
    vec![
        Check::new(
            "§4.1",
            "repair = command (100 us) + circuit reset (70 ns / 40 us) + ack (100 us) + 50 us processing",
            decomposed == rows.len(),
            format!("{decomposed} of {} cases", rows.len()),
        ),
        Check::new(
            "§5.3",
            "detection dominates recovery",
            dominated == rows.len(),
            format!(
                "in {dominated} of {} cases; repair at most {:.3} us, detection {:.3} us",
                rows.len(),
                most("repair_us"),
                most("detection_us")
            ),
        ),
    ]
}
