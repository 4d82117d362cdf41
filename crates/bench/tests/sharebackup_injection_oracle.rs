//! Oracle for `AbstractFailure::to_sharebackup`.
//!
//! The injection is now the fat-tree event on the logical slot view,
//! phrased against each slot's occupant by `link_sb_event`. The hand-wired
//! mapping it replaced is kept here verbatim, and every failure position at
//! k = 4, 6, 8 (full bisection and 10:1 oversubscribed) must map to the
//! same event.

use sharebackup_bench::fig1::AbstractFailure;
use sharebackup_core::scenario::SbEvent;
use sharebackup_topo::{FatTreeConfig, GroupId, HostAddr, ShareBackup, ShareBackupConfig};

// ---- The replaced mapping (oracle) -----------------------------------------

fn old_to_sharebackup(f: &AbstractFailure, sb: &ShareBackup) -> SbEvent {
    let half = sb.k() / 2;
    match *f {
        AbstractFailure::Edge(p, j) => SbEvent::NodeFail(sb.occupant(GroupId::edge(p).slot(j))),
        AbstractFailure::Agg(p, j) => SbEvent::NodeFail(sb.occupant(GroupId::agg(p).slot(j))),
        AbstractFailure::Core(c) => {
            let u = c % half;
            let j = c / half;
            SbEvent::NodeFail(sb.occupant(GroupId::core(u).slot(j)))
        }
        AbstractFailure::LinkEdgeUp { pod, e, m } => {
            let edge = sb.occupant(GroupId::edge(pod).slot(e));
            let a = (e + m) % half;
            let agg = sb.occupant(GroupId::agg(pod).slot(a));
            // The edge-side interface is the faulty one; the agg side is
            // the innocent far end that diagnosis exonerates.
            SbEvent::LinkFail {
                faulty: (edge, half + m),
                other: (agg, m),
            }
        }
        AbstractFailure::LinkAggUp { pod, a, m } => {
            let agg = sb.occupant(GroupId::agg(pod).slot(a));
            let core = sb.occupant(GroupId::core(m).slot(a));
            SbEvent::LinkFail {
                faulty: (agg, half + m),
                other: (core, pod),
            }
        }
        AbstractFailure::LinkHost { pod, e, h } => {
            // The switch-side interface is at fault (the same physical
            // fault the baselines see as a downed host link); the
            // controller's host-link procedure replaces the switch
            // (§4.2), which fixes it in milliseconds.
            SbEvent::HostLinkFail {
                host: sb.slots.host(HostAddr {
                    pod,
                    edge: e,
                    host: h,
                }),
                switch_side: true,
            }
        }
    }
}

// ---- Equality over every position -----------------------------------------

/// Every failure position of a k-ary fat-tree.
fn positions(k: usize) -> Vec<AbstractFailure> {
    let half = k / 2;
    let mut out = Vec::new();
    for pod in 0..k {
        for j in 0..half {
            out.push(AbstractFailure::Edge(pod, j));
            out.push(AbstractFailure::Agg(pod, j));
        }
    }
    out.extend((0..half * half).map(AbstractFailure::Core));
    for pod in 0..k {
        for x in 0..half {
            for y in 0..half {
                out.push(AbstractFailure::LinkHost { pod, e: x, h: y });
                out.push(AbstractFailure::LinkEdgeUp { pod, e: x, m: y });
                out.push(AbstractFailure::LinkAggUp { pod, a: x, m: y });
            }
        }
    }
    out
}

#[test]
fn to_sharebackup_matches_the_hand_wired_mapping() {
    let mut checked = 0;
    for k in [4, 6, 8] {
        for oversubscription in [1.0, 10.0] {
            let ft = FatTreeConfig::new(k).with_oversubscription(oversubscription);
            let sb = ShareBackup::build(ShareBackupConfig::for_fattree(ft, 1));
            for f in positions(k) {
                assert_eq!(
                    f.to_sharebackup(&sb),
                    old_to_sharebackup(&f, &sb),
                    "k={k} {f:?}"
                );
                checked += 1;
            }
        }
    }
    // (2k·k/2 switches + (k/2)² cores + 3k·(k/2)² links) per k, twice.
    assert_eq!(checked, 2 * (68 + 207 + 464));
}
