//! Wall-clock benchmark of the ShareBackup reproduction.
//!
//! Three workloads, each a fixed run built from a seed:
//!
//! * [`fig1c`] — the paper's Fig. 1(c) trials (max-min solve heavy);
//! * [`chaos`] — ShareBackup under `full-chaos`, paired Stall/Reroute
//!   (routing and controller heavy);
//! * [`packet`] — the §5.3 packet-level failover (no flow-level solve).
//!
//! The layers are measured from outside: [`probe`] wraps the flow-level
//! worlds and attaches a wall-clock telemetry sink, and set-up times each
//! constructor and generator. [`check`] compares every run's outcome with
//! a recorded reference.

pub mod chaos;
pub mod check;
pub mod fig1c;
pub mod measure;
pub mod packet;
pub mod probe;
pub mod workload;

/// Seconds one run measures unless `--seconds` says otherwise; the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 30;

/// Workload name and the one-line reason it exists, as in `BENCHMARK.json`.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "fig1c",
        "Fig. 1(c) at k=16: coflow trickle, ~150 live flows, ~5.5k max-min solves per run; the solve-bound workload an incremental re-solve would move",
    ),
    (
        "chaos",
        "ShareBackup at k=16 under full-chaos, paired Stall/Reroute: waves of ~660 live flows per solve, ~116 epochs; the only real routing and controller work",
    ),
    (
        "packet",
        "Packet-level core failover at k=8 with 128 flows: event engine and Reno only, never max-min; the control where flowsim changes predict no change",
    ),
];
