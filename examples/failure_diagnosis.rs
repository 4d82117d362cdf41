//! Walkthrough of a link failure and the offline diagnosis pipeline
//! (paper §4.1–§4.2): both suspects replaced instantly, the innocent side
//! exonerated through the side-port ring tests, the faulty side repaired
//! and reborn as a backup.
//!
//! Run with: `cargo run --example failure_diagnosis`

use sharebackup::core::{diagnose, Controller, ControllerConfig, Verdict};
use sharebackup::sim::Time;
use sharebackup::topo::{GroupId, ShareBackup, ShareBackupConfig};

fn main() {
    let k = 6;
    let sb = ShareBackup::build(ShareBackupConfig::new(k, 1));
    let mut controller = Controller::new(sb, ControllerConfig::default());
    let half = k / 2;

    // The link edge(0,0) <-> agg(0,0): the edge-side transceiver dies.
    let edge_slot = GroupId::edge(0).slot(0);
    let agg_slot = GroupId::agg(0).slot(0);
    let edge = controller.sb.occupant(edge_slot);
    let agg = controller.sb.occupant(agg_slot);
    let edge_iface = half; // edge up-port 0 (via CS_{2,0,0})
    let agg_iface = 0; // agg down-port 0 (same circuit switch)
    controller.sb.set_iface_broken(edge, edge_iface, true);
    println!("link E(0,0)<->A(0,0) fails; ground truth: {edge:?} iface {edge_iface} is broken");
    println!("(the controller does not know which side — yet)\n");

    // Fast recovery first (§4.1): both suspect switches are replaced.
    let recovery = controller.handle_link_failure((edge, edge_iface), (agg, agg_iface), Time::ZERO);
    println!("fast recovery ({}):", recovery.latency);
    for (slot, old, new) in &recovery.replaced {
        println!("  {slot:?}: {old:?} -> backup {new:?}");
    }

    // Offline diagnosis (§4.2), already run in the background by the
    // controller; rerun it explicitly to show the three configurations.
    println!("\noffline diagnosis over the circuit-switch side-port ring:");
    for (name, suspect, iface) in [("edge", edge, edge_iface), ("agg", agg, agg_iface)] {
        let configs = controller.sb.diagnosis_configs(suspect, iface);
        println!("  suspect {suspect:?} ({name}) iface {iface}:");
        for (i, cfg) in configs.iter().enumerate() {
            println!(
                "    config {}: connect to {:?} iface {} ({} side-port hop{})",
                i + 1,
                cfg.partner.0,
                cfg.partner.1,
                cfg.side_hops,
                if cfg.side_hops == 1 { "" } else { "s" },
            );
        }
        let report = diagnose(&mut controller.sb, suspect, iface);
        println!(
            "    -> {}/{} tests passed: {:?}",
            report.tests_passed, report.configs_tested, report.verdict
        );
        match report.verdict {
            Verdict::Healthy => println!("    exonerated: returns to the backup pool immediately"),
            _ => println!("    convicted: sent to repair"),
        }
    }

    // The verdicts the controller already acted on:
    println!("\ncontroller bookkeeping:");
    println!(
        "  exonerations={} convictions={} replacements={}",
        controller.stats.exonerations, controller.stats.convictions, controller.stats.replacements
    );
    assert!(controller.sb.spares(agg_slot.group).contains(&agg));
    println!("  {agg:?} is already back in {:?}'s pool", agg_slot.group);

    // Repair completes; the faulty edge switch becomes a backup (§4.2 —
    // nothing ever switches back).
    let due = controller.next_repair_due().expect("repair scheduled");
    controller.poll_repairs(due);
    assert!(controller.sb.spares(edge_slot.group).contains(&edge));
    println!(
        "  after repair at {due:?}, {edge:?} is {:?}'s backup — roles swapped, \
         no switch-back",
        edge_slot.group
    );
}
