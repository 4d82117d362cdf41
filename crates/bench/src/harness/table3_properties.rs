//! Table 3: performance characteristics — no bandwidth loss? no path
//! dilation? no upstream repair? — *measured* on simulated failures rather
//! than asserted.
//!
//! Method: fail one agg→core link (the structural position every compared
//! system can recover from), let each system handle it, then measure:
//! usable capacity after handling vs. before, per-flow path-length change,
//! and where each rerouted path first diverges from the original relative
//! to the failure position. Aspen Tree is not measured: it adds hardware
//! this reproduction does not rebuild, and the output names the paper's
//! own characterization of it.

use super::Output;
use crate::report::Format::{Fixed, Int, Text};
use crate::report::{self, num, Check, Column};
use crate::Cli;
use minijson::Value;
use sharebackup_core::{Controller, ControllerConfig};
use sharebackup_flowsim::properties::{total_usable_capacity, upstream_repair};
use sharebackup_routing::{ecmp_path, F10Router, FlowKey, GlobalReroute};
use sharebackup_sim::Time;
use sharebackup_topo::{
    F10Topology, FatTree, FatTreeConfig, GroupId, HostAddr, NodeId, ShareBackup, ShareBackupConfig,
};
use std::fmt::Write;
use std::ops::DerefMut;

/// Index in `path` of the node adjacent (source side) to the failed link
/// `(x, y)`; the divergence point of a *local* repair.
fn failure_position(path: &[NodeId], x: NodeId, y: NodeId) -> Option<usize> {
    path.windows(2)
        .position(|w| (w[0] == x && w[1] == y) || (w[0] == y && w[1] == x))
}

struct Measured {
    bandwidth_loss_pct: f64,
    max_dilation: usize,
    upstream_repairs: usize,
    flows_examined: usize,
}

impl Measured {
    fn row(&self, architecture: &str) -> Value {
        minijson::json!({
            "architecture": architecture,
            "bandwidth_loss_pct": self.bandwidth_loss_pct,
            "max_dilation_hops": self.max_dilation,
            "upstream_repairs": self.upstream_repairs,
            "flows_examined": self.flows_examined,
        })
    }
}

/// Candidate cross-pod flow keys (many ids so ECMP covers every core).
fn candidate_keys(k: usize, host: impl Fn(HostAddr) -> sharebackup_topo::NodeId) -> Vec<FlowKey> {
    let mut keys = Vec::new();
    let mut id = 0u64;
    for s in 0..k {
        for d in 0..k {
            if s == d {
                continue;
            }
            for _ in 0..8 {
                keys.push(FlowKey::new(
                    host(HostAddr {
                        pod: s,
                        edge: 0,
                        host: 0,
                    }),
                    host(HostAddr {
                        pod: d,
                        edge: 1,
                        host: 1,
                    }),
                    id,
                ));
                id += 1;
            }
        }
    }
    keys
}

/// Fail agg(0,0)'s link to core 0 in `tree` and reroute every flow that
/// crossed it with `route`. Pod 0 is type A in both trees, so the link is
/// the same agg uplink in a fat-tree and a downward core link into pod 0
/// in F10.
fn measure_reroute<T: DerefMut<Target = FatTree>>(
    mut tree: T,
    route: fn(&T, &FlowKey) -> Option<Vec<NodeId>>,
) -> Measured {
    let before_cap = total_usable_capacity(&tree.net);
    let keys = candidate_keys(tree.k(), |a| tree.host(a));
    let before: Vec<Vec<_>> = keys.iter().map(|f| ecmp_path(&tree, f)).collect();
    let (fx, fy) = (tree.agg(0, 0), tree.core(0));
    let l = tree.net.link_between(fx, fy).expect("agg-core link");
    tree.net.set_link_up(l, false);
    let after_cap = total_usable_capacity(&tree.net);
    let mut max_dilation = 0usize;
    let mut upstream = 0usize;
    let mut examined = 0usize;
    for (f, b) in keys.iter().zip(&before) {
        if tree.net.path_usable(b) {
            continue; // unaffected flow
        }
        examined += 1;
        let a = route(&tree, f).expect("an agg-core link failure is recoverable");
        max_dilation = max_dilation.max(a.len().saturating_sub(b.len()));
        let failed_at = failure_position(b, fx, fy).expect("affected flow crosses the link");
        if upstream_repair(b, &a, failed_at) {
            upstream += 1;
        }
    }
    Measured {
        bandwidth_loss_pct: 100.0 * (before_cap - after_cap) / before_cap,
        max_dilation,
        upstream_repairs: upstream,
        flows_examined: examined,
    }
}

fn measure_sharebackup(k: usize) -> Measured {
    let sb = ShareBackup::build(ShareBackupConfig::new(k, 1));
    let mut ctl = Controller::new(sb, ControllerConfig::default());
    let before_cap = total_usable_capacity(&ctl.sb.slots.net);
    let keys = {
        let slots = &ctl.sb.slots;
        candidate_keys(k, |a| slots.host(a))
    };
    let before: Vec<Vec<_>> = keys.iter().map(|f| ecmp_path(&ctl.sb.slots, f)).collect();
    // Same structural failure: agg(0,0)'s uplink 0 interface breaks.
    let agg = ctl.sb.occupant(GroupId::agg(0).slot(0));
    let core = ctl.sb.occupant(GroupId::core(0).slot(0));
    ctl.sb.set_iface_broken(agg, k / 2, true);
    let recovery = ctl.handle_link_failure((agg, k / 2), (core, 0), Time::ZERO);
    assert!(recovery.fully_recovered(), "k/2 spares suffice");
    let after_cap = total_usable_capacity(&ctl.sb.slots.net);
    let mut max_dilation = 0usize;
    let mut upstream = 0usize;
    let mut examined = 0usize;
    for (f, b) in keys.iter().zip(&before) {
        // After recovery, the original path must be usable again — measure
        // against the re-routed (identical) path.
        examined += 1;
        let a = ecmp_path(&ctl.sb.slots, f);
        assert!(ctl.sb.slots.net.path_usable(&a), "recovered path usable");
        max_dilation = max_dilation.max(a.len().saturating_sub(b.len()));
        if upstream_repair(b, &a, 2) {
            upstream += 1;
        }
    }
    Measured {
        bandwidth_loss_pct: 100.0 * (before_cap - after_cap) / before_cap,
        max_dilation,
        upstream_repairs: upstream,
        flows_examined: examined,
    }
}

/// Run the harness on `cli`'s flags.
pub fn run(cli: &mut Cli) -> Output {
    let k = cli.k(8);
    cli.finish();

    let rows = [
        measure_sharebackup(k).row("ShareBackup"),
        measure_reroute(&mut FatTree::build(FatTreeConfig::new(k)), |ft, f| {
            GlobalReroute::route(ft, f)
        })
        .row("Fat-tree"),
        measure_reroute(F10Topology::build(FatTreeConfig::new(k)), |f10, f| {
            F10Router::route(f10, f)
        })
        .row("F10"),
    ];
    let mut text = report::header(
        "Table 3 — measured performance characteristics (one agg-core link failure)",
        cli,
    );
    text += &report::table(&COLUMNS, &rows);
    text.push('\n');
    let _ = writeln!(
        text,
        "Aspen Tree is not rebuilt; the paper's Table 3 gives it NO / yes / yes-or-NO."
    );
    let claims = vec![
        claim(
            &rows[0],
            "ShareBackup: no bandwidth loss, no path dilation, no upstream repair (yes/yes/yes)",
            "yes/yes/yes",
        ),
        claim(
            &rows[1],
            "fat-tree (global reroute): NO/yes/NO",
            "NO/yes/NO",
        ),
        claim(&rows[2], "F10 (local reroute): NO/NO/yes", "NO/NO/yes"),
    ];
    Output::new(text, &rows, claims)
}

const COLUMNS: [Column; 5] = [
    Column::new("architecture", "architecture", Text),
    Column::new("bandwidth loss", "bandwidth_loss_pct", Fixed(2, "%")),
    Column::new("path dilation (hops)", "max_dilation_hops", Int),
    Column::new("upstream repairs", "upstream_repairs", Int),
    Column::new("flows examined", "flows_examined", Int),
];

/// One architecture's Table 3 cells, yes/NO for: no bandwidth loss? no path
/// dilation? no upstream repair? — checked against `paper`'s.
fn claim(row: &Value, claim: &'static str, paper: &str) -> Check {
    let loss = num(row, "bandwidth_loss_pct");
    let (dilation, upstream) = (num(row, "max_dilation_hops"), num(row, "upstream_repairs"));
    let yes = |clean: bool| if clean { "yes" } else { "NO" };
    let cells = format!(
        "{}/{}/{}",
        yes(loss == 0.0),
        yes(dilation == 0.0),
        yes(upstream == 0.0)
    );
    let measured = format!(
        "{cells} (loss {loss:.2}%, dilation +{dilation}, upstream repairs {upstream} of {} flows)",
        row["flows_examined"]
    );
    Check::new("Table 3", claim, cells == paper, measured)
}
