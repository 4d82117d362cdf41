//! Quickstart: build a ShareBackup network, kill a switch, watch the
//! controller swap in a backup — and verify the paper's three properties
//! (no bandwidth loss, no path dilation, no upstream repair).
//!
//! Run with: `cargo run --example quickstart`

use sharebackup::core::{Controller, ControllerConfig};
use sharebackup::flowsim::properties::total_usable_capacity;
use sharebackup::routing::{ecmp_path, FlowKey};
use sharebackup::sim::Time;
use sharebackup::topo::{HostAddr, ShareBackup, ShareBackupConfig};

fn main() {
    // A k=8 fat-tree (128 hosts) wrapped in the ShareBackup architecture:
    // every failure group of 4 switches shares 1 backup switch through
    // electrical crosspoint circuit switches.
    let k = 8;
    let network = ShareBackup::build(ShareBackupConfig::new(k, 1));
    println!(
        "built ShareBackup(k={k}, n=1): {} hosts, {} physical switches, {} circuit switches",
        network.slots.hosts().len(),
        network.phys_count(),
        network.circuit_switch_count(),
    );
    let mut controller = Controller::new(network, ControllerConfig::default());

    // A flow between two pods, routed by ECMP over the slot fat-tree.
    let src = controller.sb.slots.host(HostAddr {
        pod: 0,
        edge: 0,
        host: 0,
    });
    let dst = controller.sb.slots.host(HostAddr {
        pod: 5,
        edge: 2,
        host: 1,
    });
    let flow = FlowKey::new(src, dst, 7);
    let path_before = ecmp_path(&controller.sb.slots, &flow);
    println!("flow path: {path_before:?}");

    let capacity_before = total_usable_capacity(&controller.sb.slots.net);

    // The aggregation switch on the flow's path dies.
    let agg_node = path_before[2];
    let slot = controller.sb.node_slot(agg_node).expect("agg slot");
    let victim = controller.sb.occupant(slot);
    controller.sb.set_phys_healthy(victim, false);
    println!(
        "\n!! {victim:?} (occupying {slot:?}) fails — path usable: {}",
        controller.sb.slots.net.path_usable(&path_before)
    );

    // The controller detects it (keep-alive timeout) and recovers: a backup
    // switch from the same failure group takes over the slot by circuit
    // reconfiguration; its routing tables were preloaded (live
    // impersonation, §4.3), so nothing is installed at recovery time.
    let recovery = controller.handle_node_failure(victim, Time::ZERO);
    let (slot, old, new) = recovery.replaced[0];
    println!(
        "controller: replaced {old:?} with backup {new:?} in {slot:?} \
         (latency {} incl. detection)",
        recovery.latency
    );

    // The paper's three properties, checked:
    let path_after = ecmp_path(&controller.sb.slots, &flow);
    let capacity_after = total_usable_capacity(&controller.sb.slots.net);
    assert!(controller.sb.slots.net.path_usable(&path_after));
    assert_eq!(path_after, path_before, "no path dilation, no rerouting");
    assert_eq!(capacity_after, capacity_before, "no bandwidth loss");
    println!("\nafter recovery:");
    println!("  same path, still usable  -> no path dilation, no upstream repair");
    println!("  capacity {capacity_after:.3e} bps == before -> no bandwidth loss");

    // Role swap (§4.2): once repaired, the old switch becomes the group's
    // backup — nothing switches back.
    controller.poll_repairs(controller.next_repair_due().expect("repair pending"));
    assert_eq!(controller.sb.spares(slot.group), vec![victim]);
    println!("  repaired {victim:?} rejoined the pool as the new backup (role swap)");
}
