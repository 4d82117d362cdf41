//! The paper's quantitative claims, pinned as integration tests. Each test
//! cites the section it checks.

use sharebackup::core::{RecoveryLatencyModel, RecoveryScheme};
use sharebackup::cost::model::{relative_additional, Architecture, Medium};
use sharebackup::cost::{CapacityAnalysis, ScalabilityLimits};
use sharebackup::routing::impersonation::GroupTables;
use sharebackup::sim::Duration;
use sharebackup::topo::{CircuitTech, ShareBackup, ShareBackupConfig};

#[test]
fn s3_inventory_formulas() {
    // §3 / §5.2: 5k/2 failure groups, 3k²/2 circuit switches, (k/2+n)·5k/2
    // packet switches.
    for (k, n) in [(4, 1), (6, 1), (8, 2)] {
        let sb = ShareBackup::build(ShareBackupConfig::new(k, n));
        assert_eq!(sb.group_ids().len(), 5 * k / 2);
        assert_eq!(sb.circuit_switch_count(), 3 * k * k / 2);
        assert_eq!(sb.phys_count(), (5 * k / 2) * (k / 2 + n));
    }
}

#[test]
fn s4_3_impersonation_table_fits_tcam() {
    // §4.3: "the table contains 1056 entries for a k=64 fat-tree with over
    // 65k hosts".
    assert_eq!(GroupTables::edge_entry_count(64), 1056);
    assert!(64usize.pow(3) / 4 > 65_000);
    // And the built table matches the closed form at every k.
    for k in [4usize, 8, 16, 32] {
        let gt = GroupTables::build(k);
        assert_eq!(
            gt.edge_group(0).entry_count(),
            GroupTables::edge_entry_count(k)
        );
    }
}

#[test]
fn s5_1_backup_ratio_headroom() {
    // §5.1: k=48, n=1 → ratio 4.17%, >400× the 0.01% failure rate; 27k+
    // hosts.
    let c = CapacityAnalysis::new(48, 1);
    assert!((c.backup_ratio() - 1.0 / 24.0).abs() < 1e-12);
    assert!(c.headroom_over(0.0001) > 400.0);
    assert!(c.hosts() > 27_000);
}

#[test]
fn s5_2_cost_headlines() {
    // §5.2: ShareBackup adds 6.7% (E-DC) / 13.3% (O-DC) at k=48, n=1;
    // 1:1 backup is 4× fat-tree; ShareBackup n=4 still beats Aspen.
    let sb_e = relative_additional(Architecture::ShareBackup { n: 1 }, 48, Medium::Electrical);
    let sb_o = relative_additional(Architecture::ShareBackup { n: 1 }, 48, Medium::Optical);
    assert!((sb_e - 0.067).abs() < 0.001, "{sb_e}");
    assert!((sb_o - 0.133).abs() < 0.001, "{sb_o}");
    assert!(
        (relative_additional(Architecture::OneToOneBackup, 48, Medium::Electrical) - 3.0).abs()
            < 1e-9
    );
    for m in [Medium::Electrical, Medium::Optical] {
        assert!(
            relative_additional(Architecture::ShareBackup { n: 4 }, 48, m)
                < relative_additional(Architecture::AspenTree, 48, m)
        );
    }
}

#[test]
fn s5_3_scalability_limits() {
    // §5.3: 32-port MEMS → k=58 at n=1 (48k+ hosts, 3.45% ratio); n=6 at
    // k=48 (25%).
    let s = ScalabilityLimits::new(CircuitTech::Mems2D);
    assert_eq!(s.max_k(1), 58);
    assert!(s.max_hosts(1) > 48_000);
    assert_eq!(s.max_n(48), 6);
    assert!((CapacityAnalysis::new(48, 6).backup_ratio() - 0.25).abs() < 1e-12);
}

#[test]
fn s5_3_recovery_as_fast_as_local_rerouting() {
    // §5.3: same probing interval as F10/Aspen; circuit resets 70 ns /
    // 40 µs; sub-ms control → total within a whisker of local rerouting.
    let m = RecoveryLatencyModel::default();
    let local = m.total(RecoveryScheme::LocalReroute);
    for tech in [CircuitTech::Crosspoint, CircuitTech::Mems2D] {
        let sb = m.total(RecoveryScheme::ShareBackup(tech));
        assert!(sb <= local, "{tech:?}: {sb} vs local {local}");
        assert!(sb >= m.detection(), "cannot beat detection");
    }
    assert_eq!(
        CircuitTech::Crosspoint.reconfiguration_delay(),
        Duration::from_nanos(70)
    );
    assert_eq!(
        CircuitTech::Mems2D.reconfiguration_delay(),
        Duration::from_micros(40)
    );
}

#[test]
fn s5_2_inventory_formulas_match_the_built_fabric() {
    // The cost model's device counts must describe the topology we actually
    // build: 5k/2·n extra switches, 3k²/2 circuit switches; the cabling
    // audit's switch-cable count equals (total switches)·k.
    use sharebackup::cost::model::sharebackup_inventory;
    use sharebackup::topo::CablingReport;
    for (k, n) in [(4usize, 1usize), (6, 1), (6, 2)] {
        let sb = ShareBackup::build(ShareBackupConfig::new(k, n));
        let (extra_switches, _cables, _cports) = sharebackup_inventory(k, n);
        let fat_tree_switches = 2 * k * (k / 2) + (k / 2) * (k / 2);
        assert_eq!(
            sb.phys_count(),
            fat_tree_switches + extra_switches,
            "k={k} n={n}"
        );
        assert_eq!(sb.circuit_switch_count(), 3 * k * k / 2);
        let bill = CablingReport::of(&sb);
        assert_eq!(bill.switch_cables, sb.phys_count() * k);
        assert_eq!(bill.circuit_switches, sb.circuit_switch_count());
    }
}

#[test]
fn s5_1_link_failure_consumes_one_backup_after_diagnosis() {
    // §5.1: "With failure diagnosis, we can identify the interface at
    // fault, so we consume only one backup switch at the faulty end."
    use sharebackup::core::{Controller, ControllerConfig};
    use sharebackup::sim::Time;
    use sharebackup::topo::GroupId;
    let sb = ShareBackup::build(ShareBackupConfig::new(6, 1));
    let mut ctl = Controller::new(sb, ControllerConfig::default());
    let edge = ctl.sb.occupant(GroupId::edge(0).slot(0));
    let agg = ctl.sb.occupant(GroupId::agg(0).slot(0));
    ctl.sb.set_iface_broken(edge, 3, true);
    ctl.handle_link_failure((edge, 3), (agg, 0), Time::ZERO);
    // Immediately after recovery+diagnosis: the agg side was exonerated and
    // is the agg group's spare again — net backup consumption is 1 (edge).
    assert_eq!(ctl.sb.spares(GroupId::agg(0)), vec![agg]);
    assert!(ctl.sb.spares(GroupId::edge(0)).is_empty());
}
