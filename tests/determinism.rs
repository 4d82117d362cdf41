//! Determinism regression: the simulation must be a pure function of its
//! seeds. Two end-to-end recovery runs built from the same configuration and
//! the same seed must produce byte-identical timeline output, flow
//! completions, and controller counters.
//!
//! This is the regression net behind the clippy determinism rules (README
//! "Linting": no `HashMap`/`HashSet` iteration, no wall-clock reads, no
//! `expect`/`unwrap` in library code): any reintroduced nondeterminism that
//! affects observable behavior shows up here as a diff between the runs.
//! The last test guards the scope of those rules.

#![allow(clippy::cast_possible_truncation)] // bounded rack/salt arithmetic
use std::fmt::Write as _;

use sharebackup::core::scenario::{
    sharebackup_timeline, SbEvent, ShareBackupWorld,
};
use sharebackup::core::{simulate_recovery, Controller, ControllerConfig};
use sharebackup::flowsim::FlowSim;
use sharebackup::sim::{Duration, SimRng, Time};
use sharebackup::telemetry::Tracer;
use sharebackup::topo::{
    FatTree, FatTreeConfig, GroupId, HostAddr, ShareBackup, ShareBackupConfig,
};
use sharebackup::workload::{CoflowTrace, TraceConfig};

const K: usize = 4;
const SEED: u64 = 20170801; // HotNets'17 submission month, any value works

/// One complete seeded end-to-end recovery run, rendered as a transcript:
/// the recovery timeline, every flow's completion instant, per-link bits
/// carried, and the controller's counters.
fn recovery_transcript(seed: u64) -> String {
    let ft_cfg = FatTreeConfig::new(K).with_oversubscription(4.0);
    let ft = FatTree::build(ft_cfg);

    // Seeded workload.
    let trace_cfg =
        TraceConfig::fb_like(K * K / 2, Time::from_secs(20)).with_mean_interarrival_s(1.0);
    let mut rng = SimRng::seed_from_u64(seed);
    let half = K / 2;
    let trace = CoflowTrace::generate(&trace_cfg, &mut rng, |rack, salt| {
        ft.host(HostAddr {
            pod: (rack / half) % K,
            edge: rack % half,
            host: (salt as usize) % half,
        })
    });

    // Detailed single-recovery timeline (detection → circuit reset → acks).
    let sb = ShareBackup::build(ShareBackupConfig::for_fattree(ft_cfg, 1));
    let mut ctl = Controller::new(sb, ControllerConfig::default());
    let slot = GroupId::agg(0).slot(0);
    let timeline = simulate_recovery(
        &mut ctl,
        slot,
        Time::from_secs(1),
        Duration::from_micros(500),
        &Tracer::off(),
    );

    // End-to-end fluid run through a node failure and its repair.
    let sb = ShareBackup::build(ShareBackupConfig::for_fattree(ft_cfg, 1));
    let controller = Controller::new(sb, ControllerConfig::default());
    let mut world = ShareBackupWorld::new(controller, vec![]);
    let victim = world.controller.sb.occupant(GroupId::agg(0).slot(1));
    let (events, times) =
        sharebackup_timeline(&world, &[(Time::from_secs(2), SbEvent::NodeFail(victim))]);
    world.events = events;
    let out = FlowSim::new().run(&mut world, &trace.specs, &times);

    let mut t = String::new();
    let _ = writeln!(t, "== timeline ==");
    t.push_str(&timeline.render());
    let _ = writeln!(t, "recovered_at={:?}", timeline.recovered_at);
    let _ = writeln!(t, "== flows ==");
    for (i, f) in out.flows.iter().enumerate() {
        let _ = writeln!(
            t,
            "flow{i} delivered={:.1} completed={:?} stalled={} rerouted={}",
            f.delivered, f.completed, f.ever_stalled, f.rerouted
        );
    }
    let _ = writeln!(t, "== links ==");
    for (l, bits) in &out.link_bits {
        let _ = writeln!(t, "{l:?} {bits:.3}");
    }
    let _ = writeln!(t, "== controller ==");
    let _ = writeln!(t, "{:?}", world.controller.stats);
    t
}

#[test]
fn seeded_recovery_runs_are_bit_identical() {
    let a = recovery_transcript(SEED);
    let b = recovery_transcript(SEED);
    assert!(!a.is_empty() && a.contains("Recovered"), "transcript has substance");
    assert!(
        a.lines().count() > 20,
        "transcript covers timeline, flows, links, and counters"
    );
    assert_eq!(a, b, "identical seeds must give identical transcripts");
}

#[test]
fn different_seeds_change_the_workload_not_the_recovery() {
    let a = recovery_transcript(SEED);
    let b = recovery_transcript(SEED + 1);
    // The recovery timeline is seed-independent (the failure is injected
    // deterministically)…
    let timeline = |t: &str| {
        t.split("== flows ==").next().map(str::to_owned).unwrap_or_default()
    };
    assert_eq!(timeline(&a), timeline(&b));
    // …while the seeded workload actually differs, proving the transcript
    // is sensitive enough to catch divergence.
    assert_ne!(a, b, "different seeds must change the flow-level transcript");
}

/// The lint scope holds for every crate, including ones added later: each
/// library crate root except `bench` opts into `clippy::expect_used`, and
/// `Cargo.lock` names no registry or git crate, so no ambient RNG such as
/// `rand::thread_rng` can be reached (`clippy.toml` bans the wall clock and
/// hash-ordered collections; randomness needs no entry while this holds).
#[test]
fn lint_scope_covers_every_library_and_no_external_crate() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut roots = vec![root.join("src/lib.rs")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let lib = entry.expect("crates/ entry").path().join("src/lib.rs");
        if lib.exists() && !lib.starts_with(root.join("crates/bench")) {
            roots.push(lib);
        }
    }
    assert!(roots.len() > 10, "found the library crates: {roots:?}");
    for lib in &roots {
        let text = std::fs::read_to_string(lib).expect("crate root is readable");
        assert!(
            text.lines().any(|l| l.trim() == "#![warn(clippy::expect_used)]"),
            "{} must carry `#![warn(clippy::expect_used)]`",
            lib.display()
        );
    }

    let lock = std::fs::read_to_string(root.join("Cargo.lock")).expect("Cargo.lock");
    let external: Vec<&str> =
        lock.lines().filter(|l| l.trim_start().starts_with("source =")).collect();
    assert!(external.is_empty(), "Cargo.lock names external crates: {external:?}");
}
