//! `perfbench` — run one benchmark workload and report its metrics.
//!
//! Usage:
//!
//! ```text
//! perfbench --workload fig1c|chaos|packet --seed N --seconds S --trace 0|1 [--record]
//! ```
//!
//! Repeats the workload's fixed run for at least `--seconds` seconds
//! (default [`RUN_SECONDS`]; at least three times), checks every simulation run's outcome, and prints
//! as its last stdout line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` interleaves probed and plain repetitions and reports the
//! per-layer metrics. `--record` writes the seed's reference outcomes to
//! `reference/<workload>-<seed>.txt` instead of measuring; it refuses to
//! replace a reference that exists.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use minijson::Value;
use sharebackup_perfbench::chaos::Chaos;
use sharebackup_perfbench::check::{
    parse_reference, render_reference, verdict, write_new_reference, Outcome,
};
use sharebackup_perfbench::fig1c::Fig1c;
use sharebackup_perfbench::measure::{
    end_to_end, median, per_layer, percentile, repetition, slowest_sims_ms, Metric, Rep,
};
use sharebackup_perfbench::packet::Packet;
use sharebackup_perfbench::workload::{SetupClock, Workload};
use sharebackup_perfbench::{RUN_SECONDS, WORKLOADS};

/// Repetitions measured even when one outlasts `--seconds`.
const MIN_REPS: usize = 3;
/// Standalone set-ups before each repetition. With each repetition's own
/// set-up they are the samples whose median is `setup_s`, spread over the
/// whole run rather than bunched at its start.
const SETUPS_PER_REP: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--record" => args.record = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|(n, _)| *n == args.workload) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            WORKLOADS.map(|(n, _)| n),
            args.workload
        ));
    }
    Ok(args)
}

/// First line of a command's stdout, or `unavailable`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unavailable".to_string())
}

/// Where this machine, toolchain, revision and invocation are recorded.
fn provenance(args: &Args, why: &str) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", args.workload.clone()),
        ("why", why.to_string()),
        ("seed", args.seed.to_string()),
        (
            "args",
            std::env::args().skip(1).collect::<Vec<_>>().join(" "),
        ),
        ("nproc", nproc.to_string()),
        ("rustc", command_line("rustc", &["-V"])),
        (
            "git_describe",
            command_line("git", &["describe", "--always", "--dirty", "--tags"]),
        ),
    ]
}

fn reference_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{workload}-{seed}.txt"))
}

/// Verdicts for every run of every repetition: against the recorded
/// reference when the seed has one, else against the first repetition.
fn check_runs(reps: &[&Rep], reference: Option<&BTreeMap<String, Outcome>>) -> (u64, Vec<String>) {
    let first: BTreeMap<String, Outcome> = reps[0]
        .checked
        .iter()
        .map(|c| (c.label.clone(), c.outcome.clone()))
        .collect();
    let expected = reference.unwrap_or(&first);
    let mut attempted = 0;
    let mut failures = Vec::new();
    for c in reps.iter().flat_map(|r| &r.checked) {
        attempted += 1;
        if let Err(e) = verdict(c, expected.get(&c.label)) {
            failures.push(e);
        }
    }
    (attempted, failures)
}

fn record<W: Workload>(w: &W, header: &[String], path: &std::path::Path) -> Result<(), String> {
    let checked = repetition(w, false).checked;
    if let Some(Err(e)) = checked.iter().map(|c| &c.invariant).find(|v| v.is_err()) {
        return Err(format!("refusing to record: {e}"));
    }
    write_new_reference(path, &render_reference(header, &checked))?;
    println!("recorded {} runs to {}", checked.len(), path.display());
    Ok(())
}

/// Wall seconds of one standalone set-up.
fn setup_secs<W: Workload>(w: &W) -> f64 {
    let t = Instant::now();
    drop(w.prepare(&mut SetupClock::default()));
    t.elapsed().as_secs_f64()
}

/// The result line: `correct`, `attempted`, `failed` and each metric's
/// value and unit.
fn result_line(attempted: u64, failures: usize, metrics: &[Metric]) -> Result<String, String> {
    let metrics = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            (
                m.name.to_string(),
                minijson::json!({ "value": value, "unit": m.unit }),
            )
        })
        .collect();
    let line = minijson::json!({
        "correct": failures == 0,
        "attempted": attempted,
        "failed": failures,
        "metrics": Value::Object(metrics),
    });
    minijson::to_string(&line).map_err(|e| e.to_string())
}

fn measure<W: Workload>(w: &W, args: &Args) -> Result<(), String> {
    let ref_path = reference_path(&args.workload, args.seed);
    let reference = match std::fs::read_to_string(&ref_path) {
        Ok(text) => Some(parse_reference(&text)?),
        Err(_) => None,
    };
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut setups: Vec<f64> = Vec::new();
    let mut plain: Vec<Rep> = Vec::new();
    let mut probed: Vec<Rep> = Vec::new();
    while plain.len() < MIN_REPS || start.elapsed() < budget {
        setups.extend((0..SETUPS_PER_REP).map(|_| setup_secs(w)));
        let rep = repetition(w, false);
        setups.push(rep.setup_ns as f64 / 1e9);
        plain.push(rep);
        if args.trace {
            probed.push(repetition(w, true));
        }
    }
    let all: Vec<&Rep> = plain.iter().chain(&probed).collect();
    let (attempted, failures) = check_runs(&all, reference.as_ref());
    match &reference {
        Some(_) => println!("# reference: {}", ref_path.display()),
        None => println!(
            "# reference: none for seed {}; runs checked for invariants and against the first repetition",
            args.seed
        ),
    }
    for f in failures.iter().take(5) {
        println!("# FAILED: {f}");
    }
    println!(
        "# repetitions: {} plain, {} probed; {} simulation runs per repetition",
        plain.len(),
        probed.len(),
        plain[0].sims.len()
    );
    let fmt = |v: &[f64], digits: usize| -> String {
        v.iter()
            .map(|x| format!("{x:.digits$}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let runs: Vec<f64> = plain.iter().map(|r| r.run_ns as f64 / 1e9).collect();
    println!("# run_s of each plain repetition: {}", fmt(&runs, 3));
    println!(
        "# slowest sim_ms of each plain repetition (sim_tail_ms is their median): {}",
        fmt(&slowest_sims_ms(&plain), 1)
    );
    println!(
        "# setup_s over {} set-ups: p10 {:.6} p50 {:.6} p90 {:.6}",
        setups.len(),
        percentile(&setups, 0.1),
        median(&setups),
        percentile(&setups, 0.9)
    );
    let per_run: Vec<String> = plain[0]
        .checked
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let ms: Vec<f64> = plain.iter().map(|r| r.sims[i] as f64 / 1e6).collect();
            format!("{} {:.1}", c.label, median(&ms))
        })
        .collect();
    println!("# median sim_ms per run: {}", per_run.join(", "));
    let metrics: Vec<Metric> = if args.trace {
        per_layer(&probed, &plain)
    } else {
        end_to_end(&plain, &setups)?
    };
    for m in &metrics {
        println!("# {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(attempted, failures.len(), &metrics)?);
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let why = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .map_or("", |(_, w)| w);
    let prov = provenance(args, why);
    let fields = prov
        .iter()
        .map(|(k, v)| (k.to_string(), Value::from(v)))
        .collect();
    let fields = minijson::to_string(&Value::Object(fields)).map_err(|e| e.to_string())?;
    println!("# provenance: {fields}");
    let header: Vec<String> = prov.iter().map(|(k, v)| format!("{k}: {v}")).collect();
    let seed = args.seed;
    match args.workload.as_str() {
        "fig1c" => dispatch(&Fig1c::new(16, seed, 2), args, &header),
        "chaos" => dispatch(
            &Chaos {
                k: 16,
                seed,
                trials: 4,
            },
            args,
            &header,
        ),
        _ => dispatch(
            &Packet {
                k: 8,
                seed,
                bytes: 2_000_000,
            },
            args,
            &header,
        ),
    }
}

fn dispatch<W: Workload>(w: &W, args: &Args, header: &[String]) -> Result<(), String> {
    if args.record {
        record(w, header, &reference_path(&args.workload, args.seed))
    } else {
        measure(w, args)
    }
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
