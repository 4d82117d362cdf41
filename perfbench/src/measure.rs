//! The measurement loop and the metrics it reports.
//!
//! One *repetition* is the workload's fixed run: set-up, every simulation
//! run, and the outcome derivation. End-to-end metrics come from plain
//! repetitions (no probes); per-layer metrics from probed repetitions
//! interleaved with plain ones, so the probes' overhead is measured too.

use std::time::Instant;

use crate::check::Checked;
use crate::probe::LayerClock;
use crate::workload::{elapsed_ns, Output, SetupClock, Workload};

/// Everything one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall time of the whole fixed run.
    pub run_ns: u64,
    /// Wall time of its set-up.
    pub setup_ns: u64,
    /// Set-up split by layer.
    pub setup: SetupClock,
    /// Wall time of each simulation run.
    pub sims: Vec<u64>,
    /// Layer split folded over the probed flow-level runs.
    pub layers: LayerClock,
    /// Flow-level loop steps (`SimOutcome::events`).
    pub steps: u64,
    /// Controller counters summed over ShareBackup runs:
    /// attempts, replacements, fallbacks, retries, aborts, pool exhausted.
    pub core: [u64; 6],
    /// Packet-level data packets delivered (bytes / MSS).
    pub data_packets: f64,
    /// Packet-level drops, fast retransmits and timeouts.
    pub packet_losses: [u64; 3],
    /// Wall time of the packet-level runs.
    pub packet_ns: u64,
    /// Each simulation run's checkable outcome.
    pub checked: Vec<Checked>,
}

/// Run the workload's fixed run once and measure it.
pub fn repetition<W: Workload>(w: &W, probe: bool) -> Rep {
    let start = Instant::now();
    let mut rep = Rep::default();
    let (jobs, ctx) = w.prepare(&mut rep.setup);
    rep.setup_ns = elapsed_ns(start);
    let mut done = Vec::with_capacity(jobs.len());
    for job in jobs {
        done.push(job.run(probe));
    }
    rep.checked = w.outcomes(&ctx, &mut done);
    rep.run_ns = elapsed_ns(start);
    for d in &done {
        rep.sims.push(d.wall_ns);
        if let Some(l) = &d.layers {
            rep.layers.absorb(l);
        }
        match &d.output {
            Output::Flow { out, world } => {
                rep.steps += out.events;
                if let Some(s) = world.stats() {
                    let add = [
                        s.recovery_attempts,
                        s.replacements,
                        s.fallbacks,
                        s.reconfig_retries,
                        s.reconfig_aborts,
                        s.pool_exhausted,
                    ];
                    for (acc, v) in rep.core.iter_mut().zip(add) {
                        *acc += v;
                    }
                }
            }
            Output::Packet { out, drops } => {
                let mss = f64::from(sharebackup_packet::PacketNetConfig::default().mss);
                rep.data_packets += out.iter().map(|f| f.delivered as f64).sum::<f64>() / mss;
                rep.packet_losses[0] += drops;
                rep.packet_losses[1] += out.iter().map(|f| f.retransmits).sum::<u64>();
                rep.packet_losses[2] += out.iter().map(|f| f.timeouts).sum::<u64>();
                rep.packet_ns += d.wall_ns;
            }
        }
    }
    rep
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// The `q`-quantile of `v` by linear interpolation between order
/// statistics (0 when empty).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The slowest simulation run of each repetition, ms. Its median is
/// `sim_tail_ms`: a statistic per fixed run, so it compares the same
/// simulations however many repetitions fit into a run.
pub fn slowest_sims_ms(reps: &[Rep]) -> Vec<f64> {
    reps.iter()
        .map(|r| r.sims.iter().copied().max().map_or(0.0, ms))
        .collect()
}

/// The end-to-end metrics of plain repetitions and of set-ups (seconds
/// each).
pub fn end_to_end(reps: &[Rep], setup: &[f64]) -> Result<Vec<Metric>, String> {
    let run: Vec<f64> = reps.iter().map(|r| r.run_ns as f64 / 1e9).collect();
    let sims: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.sims.iter().map(|&n| ms(n)))
        .collect();
    let m = |name, value, unit| Metric { name, value, unit };
    Ok(vec![
        m("run_s", median(&run), "s"),
        m("setup_s", median(setup), "s"),
        m("sim_p50_ms", median(&sims), "ms"),
        m("sim_tail_ms", median(&slowest_sims_ms(reps)), "ms"),
        m("peak_rss_mb", peak_rss_mb()?, "MB"),
    ])
}

/// The per-layer metrics of probed repetitions. `plain` supplies the
/// untraced run time the probes' overhead is measured against.
pub fn per_layer(probed: &[Rep], plain: &[Rep]) -> Vec<Metric> {
    // Each metric is the median over repetitions of its per-repetition
    // value.
    let med = |f: &dyn Fn(&Rep) -> f64| median(&probed.iter().map(f).collect::<Vec<_>>());
    let run_probed = med(&|r| r.run_ns as f64);
    let run_plain = median(&plain.iter().map(|r| r.run_ns as f64).collect::<Vec<_>>());
    let route_samples = |r: &Rep| -> Vec<f64> {
        (r.layers.route_call_ns.iter())
            .chain(&r.setup.route_call_ns)
            .map(|&n| n as f64 / 1e3)
            .collect()
    };
    let solve_us = |r: &Rep, q: f64| {
        let s: Vec<f64> = r
            .layers
            .solve_call_ns
            .iter()
            .map(|&n| n as f64 / 1e3)
            .collect();
        percentile(&s, q)
    };
    // Set-up plus every simulation run; the flow-level layers tile their
    // runs exactly (advance is the remainder), so this is the layers' sum.
    let busy = |r: &Rep| r.setup_ns + r.layers.run_ns + r.packet_ns;
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("workload.trace_ms", med(&|r| ms(r.setup.trace_ns)), "ms"),
        m(
            "workload.schedule_ms",
            med(&|r| ms(r.setup.schedule_ns)),
            "ms",
        ),
        m("workload.flows", med(&|r| r.setup.flows as f64), "count"),
        m("topo.build_ms", med(&|r| ms(r.setup.topo_ns)), "ms"),
        m(
            "routing.route_calls",
            med(&|r| (r.layers.route_calls + r.setup.route_call_ns.len() as u64) as f64),
            "count",
        ),
        m(
            "routing.route_ms",
            med(&|r| ms(r.layers.route_ns + r.setup.route_call_ns.iter().sum::<u64>())),
            "ms",
        ),
        m(
            "routing.route_us_p50",
            med(&|r| median(&route_samples(r))),
            "us",
        ),
        m(
            "routing.unroutable",
            med(&|r| r.layers.unroutable as f64),
            "count",
        ),
        m(
            "routing.reroute_calls",
            med(&|r| r.layers.reroute_calls as f64),
            "count",
        ),
        m(
            "routing.reroute_flows",
            med(&|r| r.layers.reroute_flows as f64),
            "count",
        ),
        m(
            "routing.reroute_ms",
            med(&|r| ms(r.layers.reroute_ns)),
            "ms",
        ),
        m("flowsim.steps", med(&|r| r.steps as f64), "count"),
        m("flowsim.solves", med(&|r| r.layers.solves as f64), "count"),
        m("flowsim.solve_ms", med(&|r| ms(r.layers.solve_ns)), "ms"),
        m("flowsim.solve_us_p50", med(&|r| solve_us(r, 0.5)), "us"),
        m("flowsim.solve_us_p99", med(&|r| solve_us(r, 0.99)), "us"),
        m(
            "flowsim.active_per_solve",
            med(&|r| ratio(r.layers.active_sum as f64, r.layers.solves as f64)),
            "count",
        ),
        m(
            "flowsim.rounds_per_solve",
            med(&|r| ratio(r.layers.rounds_sum as f64, r.layers.solves as f64)),
            "count",
        ),
        m(
            "flowsim.touched_per_solve",
            med(&|r| ratio(r.layers.touched_sum as f64, r.layers.solves as f64)),
            "count",
        ),
        m(
            "flowsim.touched_frac",
            med(&|r| ratio(r.layers.touched_sum as f64, r.layers.active_sum as f64)),
            "ratio",
        ),
        m(
            "flowsim.advance_ms",
            med(&|r| ms(r.layers.advance_ns())),
            "ms",
        ),
        m("core.epochs", med(&|r| r.layers.epochs as f64), "count"),
        m("core.epoch_ms", med(&|r| ms(r.layers.epoch_ns)), "ms"),
        m("core.poll_ms", med(&|r| ms(r.layers.poll_ns)), "ms"),
        m(
            "core.recovery_attempts",
            med(&|r| r.core[0] as f64),
            "count",
        ),
        m("core.replacements", med(&|r| r.core[1] as f64), "count"),
        m("core.fallbacks", med(&|r| r.core[2] as f64), "count"),
        m("core.reconfig_retries", med(&|r| r.core[3] as f64), "count"),
        m("core.reconfig_aborts", med(&|r| r.core[4] as f64), "count"),
        m("core.pool_exhausted", med(&|r| r.core[5] as f64), "count"),
        m(
            "core.replacement_ratio",
            med(&|r| ratio(r.core[1] as f64, r.core[0] as f64)),
            "ratio",
        ),
        m("packet.data_packets", med(&|r| r.data_packets), "count"),
        m(
            "packet.packets_per_s",
            med(&|r| ratio(r.data_packets, r.packet_ns as f64 / 1e9)),
            "1/s",
        ),
        m("packet.drops", med(&|r| r.packet_losses[0] as f64), "count"),
        m(
            "packet.retransmits",
            med(&|r| r.packet_losses[1] as f64),
            "count",
        ),
        m(
            "packet.timeouts",
            med(&|r| r.packet_losses[2] as f64),
            "count",
        ),
        m("packet.sim_ms", med(&|r| ms(r.packet_ns)), "ms"),
        m(
            "telemetry.overhead_frac",
            ratio(run_probed - run_plain, run_plain),
            "ratio",
        ),
        m(
            "telemetry.unaccounted_frac",
            med(&|r| ratio(r.run_ns as f64 - busy(r) as f64, r.run_ns as f64)),
            "ratio",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_median_slowest_run_per_repetition() {
        let rep = |sims: &[u64]| Rep {
            sims: sims.to_vec(),
            ..Rep::default()
        };
        let reps = [
            rep(&[1_000_000, 9_000_000, 2_000_000]),
            rep(&[1_000_000, 7_000_000, 2_000_000]),
            rep(&[1_000_000, 8_000_000, 30_000_000]),
        ];
        assert_eq!(slowest_sims_ms(&reps), vec![9.0, 7.0, 30.0]);
        let e2e = end_to_end(&reps, &[0.5]).expect("end-to-end metrics");
        let tail = e2e.iter().find(|m| m.name == "sim_tail_ms").expect("tail");
        assert_eq!(tail.value, 9.0);
    }

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
