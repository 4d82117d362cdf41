//! Control-plane integration scenarios: controller failover during
//! recovery and circuit-switch escalation end-to-end.

use sharebackup::core::{
    Controller, ControllerConfig, FailoverConfig, FailoverPlane, FailureReport,
};
use sharebackup::sim::{Duration, Time};
use sharebackup::topo::{CsId, GroupId, ShareBackup, ShareBackupConfig};

#[test]
fn primary_controller_failure_delays_recovery_by_one_election() {
    // The paper §5.1: replicas all receive status reports; a new primary is
    // elected when the current one dies. Model: the data-plane failure and
    // the primary's death coincide; effective recovery latency gains the
    // detection + election blackout.
    let sb = ShareBackup::build(ShareBackupConfig::new(4, 1));
    let mut ctl = Controller::new(sb, ControllerConfig::default());
    let mut plane = FailoverPlane::new(FailoverConfig::default());

    let slot = GroupId::agg(0).slot(0);
    let victim = ctl.sb.occupant(slot);
    ctl.sb.set_phys_healthy(victim, false);

    // Primary dies at the same instant.
    plane
        .crash_replica(&mut ctl, 0, Time::ZERO)
        .expect("replica 0 exists");
    assert_eq!(plane.primary(), Some(1), "replica 1 takes over");
    plane.submit(&mut ctl, FailureReport::Node(victim), Time::ZERO);
    assert!(
        plane.take_completed().is_empty(),
        "nothing recovers mid-election"
    );

    plane.poll(&mut ctl, Time::ZERO + plane.cfg.blackout());
    let done = plane.take_completed();
    assert_eq!(done.len(), 1);
    let recovery = &done[0].recovery;
    assert!(recovery.fully_recovered());
    let dwell = done[0].completed_at.since(done[0].reported_at);
    assert_eq!(dwell, plane.cfg.blackout());
    let effective = dwell + recovery.latency;
    assert!(effective > recovery.latency);
    assert!(
        effective < Duration::from_millis(60),
        "sub-100ms even with failover: {effective}"
    );
}

#[test]
fn total_controller_loss_blocks_recovery_until_restore() {
    let sb = ShareBackup::build(ShareBackupConfig::new(4, 1));
    let mut ctl = Controller::new(sb, ControllerConfig::default());
    let mut plane = FailoverPlane::new(FailoverConfig {
        replicas: 2,
        election_time: Duration::from_millis(10),
        ..FailoverConfig::default()
    });
    plane
        .crash_replica(&mut ctl, 0, Time::ZERO)
        .expect("replica 0 exists");
    plane
        .crash_replica(&mut ctl, 1, Time::ZERO)
        .expect("replica 1 exists");
    assert_eq!(plane.primary(), None);

    // With no primary, the plane must not invoke the controller: the report
    // waits in the journal until a replica is restored.
    let slot = GroupId::core(0).slot(1);
    let victim = ctl.sb.occupant(slot);
    ctl.sb.set_phys_healthy(victim, false);
    plane.submit(
        &mut ctl,
        FailureReport::Node(victim),
        Time::from_millis(500),
    );
    assert!(plane.take_completed().is_empty());
    assert_eq!(plane.pending_count(), 1);
    assert!(!ctl.sb.slots.net.node(ctl.sb.slot_node(slot)).up);

    let restored = Time::from_secs(1);
    plane
        .restore_replica(&mut ctl, 0, restored)
        .expect("replica 0 exists");
    assert_eq!(plane.primary(), Some(0));
    plane.poll(&mut ctl, restored + plane.cfg.election_time);
    let done = plane.take_completed();
    assert_eq!(done.len(), 1);
    assert!(done[0].recovery.fully_recovered());
    assert_eq!(done[0].completed_at, restored + Duration::from_millis(10));
    assert!(ctl.sb.slots.net.node(ctl.sb.slot_node(slot)).up);
}

#[test]
fn circuit_switch_failure_escalates_and_humans_fix_it() {
    // §5.1: a circuit switch failing produces a burst of link-failure
    // reports attributable to it; over the threshold, recovery halts and
    // humans are paged. After intervention (reboot + config re-sync from
    // the controller), recovery resumes.
    let sb = ShareBackup::build(ShareBackupConfig::new(4, 1));
    let mut ctl = Controller::new(sb, ControllerConfig::default());
    let cs = CsId::EdgeAgg { pod: 1, m: 0 };

    // The circuit switch actually dies: its links go down.
    ctl.sb.set_circuit_switch_up(cs, false);
    let e = ctl.sb.slots.edge(1, 0);
    let a = ctl.sb.slots.agg(1, 0);
    let l = ctl.sb.slots.net.link_between(e, a).expect("link");
    assert!(!ctl.sb.slots.net.link_usable(l));

    // Every edge of the pod reports its link through this CS: 2 reports at
    // k=4... push past the threshold of 4.
    let halted = ctl.report_cs_suspicion(cs, 4);
    assert!(halted);
    assert_eq!(ctl.stats.escalations, 1);

    // While halted, an unrelated node failure is not recovered.
    let slot = GroupId::edge(0).slot(0);
    let victim = ctl.sb.occupant(slot);
    ctl.sb.set_phys_healthy(victim, false);
    let r = ctl.handle_node_failure(victim, Time::ZERO);
    assert!(!r.fully_recovered());

    // Humans reboot the circuit switch; it re-syncs configuration; resume.
    ctl.sb.set_circuit_switch_up(cs, true);
    ctl.resume_after_intervention();
    assert!(ctl.sb.slots.net.link_usable(l));
    let spare = ctl.sb.spares(slot.group);
    assert!(!spare.is_empty());
    // Retry the blocked recovery.
    let r = ctl.handle_node_failure(victim, Time::from_secs(1));
    assert!(r.fully_recovered());
}
