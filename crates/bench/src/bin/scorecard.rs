//! Reproduction scorecard, the results pass: it makes each run of
//! `results/COMMANDS` once, in process, prints whether each committed file
//! reproduces (`results/fig1a.txt: reproduces`, or `differs at line N`),
//! then lists each run's claims in the paper's order, and eight checks of
//! its own that no harness makes (the §3 inventory, §4.1 node-failure
//! capacity, §4.2 diagnosis, the §5.1 crash and escalation paths, the §2.2
//! trace fingerprint). It exits 1 if a file differs or a claim fails.
//!
//! Usage: `scorecard`, from the repository root; it reads no flags.

#![allow(clippy::cast_possible_truncation)] // bounded rack/salt arithmetic
use sharebackup_bench::report::{self, Check};
use sharebackup_bench::results;
use sharebackup_bench::{harness, Cli};
use sharebackup_core::{
    diagnose, ChaosConfig, Controller, ControllerConfig, FailoverConfig, FailoverPlane,
    FailureReport, RecoveryPhase, Verdict,
};
use sharebackup_flowsim::properties::total_usable_capacity;
use sharebackup_sim::{SimRng, Time};
use sharebackup_topo::{CsId, GroupId, ShareBackup, ShareBackupConfig};
use sharebackup_workload::{CoflowTrace, TraceConfig, TraceShape};
use std::path::Path;

/// The scorecard's own checks: claims no harness prints.
fn checks() -> Vec<Check> {
    let mut out = Vec::new();
    let mut push = |section, claim, measured: String, pass| {
        out.push(Check::new(section, claim, pass, measured))
    };

    // §3: inventory.
    let sb = ShareBackup::build(ShareBackupConfig::new(8, 1));
    push(
        "§3",
        "5k/2 failure groups, 3k²/2 circuit switches",
        format!(
            "{} groups, {} CS at k=8",
            sb.group_ids().len(),
            sb.circuit_switch_count()
        ),
        sb.group_ids().len() == 20 && sb.circuit_switch_count() == 96,
    );
    push(
        "§3",
        "circuit layer realizes exactly the fat-tree",
        format!("{} derived links", sb.derived_links().len()),
        sb.derived_links().len() == sb.slots.net.link_count(),
    );

    // §4.1/§4.3: recovery restores identical topology, preloaded tables.
    let mut ctl = Controller::new(
        ShareBackup::build(ShareBackupConfig::new(8, 1)),
        ControllerConfig::default(),
    );
    let cap_before = total_usable_capacity(&ctl.sb.slots.net);
    let victim = ctl.sb.occupant(GroupId::agg(0).slot(0));
    ctl.sb.set_phys_healthy(victim, false);
    let r = ctl.handle_node_failure(victim, Time::ZERO);
    let cap_after = total_usable_capacity(&ctl.sb.slots.net);
    push(
        "§4.1",
        "replacement restores full capacity (no bandwidth loss)",
        format!("capacity {:.3e} -> {:.3e}", cap_before, cap_after),
        r.fully_recovered() && cap_after == cap_before,
    );
    // §4.2: diagnosis exonerates the innocent side.
    let mut ctl = Controller::new(
        ShareBackup::build(ShareBackupConfig::new(6, 1)),
        ControllerConfig::default(),
    );
    let edge = ctl.sb.occupant(GroupId::edge(0).slot(0));
    let agg = ctl.sb.occupant(GroupId::agg(0).slot(0));
    ctl.sb.set_iface_broken(edge, 3, true);
    ctl.handle_link_failure((edge, 3), (agg, 0), Time::ZERO);
    push(
        "§4.2",
        "link failure: both replaced, diagnosis exonerates innocent side",
        format!(
            "exonerated={} convicted={} agg back in pool={}",
            ctl.stats.exonerations,
            ctl.stats.convictions,
            ctl.sb.spares(GroupId::agg(0)).contains(&agg)
        ),
        ctl.stats.exonerations == 1
            && ctl.stats.convictions == 1
            && ctl.sb.spares(GroupId::agg(0)).contains(&agg),
    );
    // And the physically-executed diagnosis itself:
    let mut sb = ShareBackup::build(ShareBackupConfig::new(6, 1));
    let g = GroupId::agg(1);
    let suspect = sb.occupant(g.slot(0));
    let spare = sb.spares(g)[0];
    sb.replace(g.slot(0), spare);
    let report = diagnose(&mut sb, suspect, 3);
    push(
        "§4.2",
        "healthy offline suspect passes a circuit-executed test",
        format!(
            "{}/{} configs passed",
            report.tests_passed, report.configs_tested
        ),
        report.verdict == Verdict::Healthy,
    );

    // §5.1: controller replication — a lossy control channel retries, and
    // a primary crash between diagnosis and reconfiguration is survived by
    // the elected successor (journal re-driven, counters consistent).
    let mut ctl = Controller::new(
        ShareBackup::build(ShareBackupConfig::new(4, 1)),
        ControllerConfig::default(),
    );
    let mut plane = FailoverPlane::with_chaos(
        FailoverConfig::default(),
        ChaosConfig {
            control_loss_rate: 1.0,
            ..ChaosConfig::off()
        },
        SimRng::seed_from_u64(5).child("scorecard-control"),
    );
    let victim = ctl.sb.occupant(GroupId::agg(0).slot(0));
    ctl.sb.set_phys_healthy(victim, false);
    let t0 = Time::from_secs(1);
    plane.submit(&mut ctl, FailureReport::Node(victim), t0); // every attempt lost
    plane.chaos.control_loss_rate = 0.0; // channel heals...
    plane.force_crash_at(RecoveryPhase::Diagnosed); // ...but the primary dies
    let t1 = t0 + sharebackup_sim::Duration::from_secs(1);
    plane.poll(&mut ctl, t1);
    plane.poll(&mut ctl, t1 + plane.cfg.blackout());
    let done = plane.take_completed();
    ctl.stats.assert_consistent();
    push(
        "§5.1",
        "replicated controller: crash mid-recovery survived by successor",
        format!(
            "elections={} resumed={} retries={} recovered={}",
            ctl.stats.elections,
            ctl.stats.recoveries_resumed,
            ctl.stats.control_retries,
            done.len()
        ),
        done.len() == 1
            && done[0].recovery.fully_recovered()
            && ctl.stats.elections == 1
            && ctl.stats.recoveries_resumed >= 1
            && ctl.stats.control_retries >= 1,
    );

    // §5.1: a failed circuit switch shows up as a burst of link failures
    // through it; past the threshold recovery halts until humans reboot it.
    let mut ctl = Controller::new(
        ShareBackup::build(ShareBackupConfig::new(8, 1)),
        ControllerConfig::default(),
    );
    let cs = CsId::EdgeAgg { pod: 1, m: 0 };
    ctl.sb.set_circuit_switch_up(cs, false);
    let net = &ctl.sb.slots.net;
    let downed = net.link_ids().filter(|&l| !net.link_usable(l)).count();
    ctl.report_cs_suspicion(cs, downed as u32);
    let halted = ctl.is_halted();
    let slot = GroupId::edge(0).slot(0);
    let victim = ctl.sb.occupant(slot);
    ctl.sb.set_phys_healthy(victim, false);
    let pool_before = ctl.sb.spares(slot.group).len();
    let refused = !ctl
        .handle_node_failure(victim, Time::ZERO)
        .fully_recovered();
    let pool_after = ctl.sb.spares(slot.group).len();
    ctl.sb.set_circuit_switch_up(cs, true);
    ctl.resume_after_intervention();
    let resumed = ctl
        .handle_node_failure(victim, Time::from_secs(1))
        .fully_recovered();
    push(
        "§5.1",
        "circuit-switch failure halts recovery until humans intervene",
        format!(
            "downed={downed} escalations={} halted_fallbacks={} pool {pool_before}->{pool_after} \
             recovered after resume={resumed}",
            ctl.stats.escalations, ctl.stats.halted_fallbacks
        ),
        halted
            && ctl.stats.escalations == 1
            && refused
            && ctl.stats.halted_fallbacks == 1
            && pool_after == pool_before
            && resumed,
    );

    // Workload substitution fidelity.
    let cfg = TraceConfig::fb_like(128, Time::from_secs(300));
    let mut rng = SimRng::seed_from_u64(42);
    let trace = CoflowTrace::generate(&cfg, &mut rng, |rack, salt| {
        sharebackup_topo::NodeId((rack as u32) * 8 + (salt % 8) as u32)
    });
    let shape = TraceShape::of(&trace);
    push(
        "§2.2",
        "synthetic trace has the Facebook heavy-tail fingerprint",
        format!(
            "narrow={:.0}% top-decile bytes={:.0}%",
            100.0 * shape.narrow_fraction,
            100.0 * shape.top_decile_byte_share
        ),
        shape.is_heavy_tailed(),
    );

    out
}

fn main() {
    Cli::from_env().finish();
    let dir = Path::new("results");
    let mut outcomes = results::check(dir);
    let own = checks();
    let all = || outcomes.iter().flat_map(|o| &o.claims).chain(&own);
    let passed = all().filter(|c| c.pass).count();
    let total = all().count();
    println!("ShareBackup reproduction scorecard — {passed}/{total} claims pass\n");
    let files = || outcomes.iter().flat_map(|o| &o.files);
    for (c, line) in files() {
        let status = line.map_or("reproduces".to_string(), |n| format!("differs at line {n}"));
        println!("{}: {status}", dir.join(&c.file).display());
    }
    let reproduced = files().all(|(_, line)| line.is_none());
    outcomes.sort_by_key(|o| {
        harness::ALL
            .iter()
            .position(|h| h.0 == o.files[0].0.harness)
    });
    let section = |name: String, checks: &[Check]| {
        let pass = checks.iter().filter(|c| c.pass).count();
        println!("\n== {name}: {pass}/{} pass", checks.len());
        print!("{}", report::claims(checks));
    };
    for o in outcomes.iter().filter(|o| !o.claims.is_empty()) {
        let files: Vec<&str> = o.files.iter().map(|(c, _)| c.file.as_str()).collect();
        let c = &o.files[0].0;
        let command = format!("{} {}", c.harness, c.args.join(" "));
        let name = format!("{} ({})", files.join(", "), command.trim_end());
        section(name, &o.claims);
    }
    section("scorecard".to_string(), &own);
    if passed != total || !reproduced {
        std::process::exit(1);
    }
}
