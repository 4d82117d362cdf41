//! Reference max-min allocator: the original `BTreeMap`-based progressive
//! filling, retained after the dense [`crate::WaterFiller`] replaced it in
//! the hot path.
//!
//! It is the **differential oracle**: the property suite cross-checks the
//! two independent implementations on random instances at both unit and
//! Gb/s capacity scales, and after every mutation of a long-lived
//! [`crate::WaterFiller`]; agreement between a tree-based and a dense
//! solver is strong evidence neither has an indexing bug.
//!
//! The saturation epsilon here is the *fixed*, capacity-relative one (the
//! increment-scaled epsilon this module's ancestor shipped with was a bug;
//! see [`crate::maxmin`]), so both implementations compute the same
//! allocation.

use std::collections::BTreeMap;

use sharebackup_topo::LinkId;

/// Saturation threshold as a fraction of link capacity; matches
/// [`crate::maxmin`].
const EPS_FRACTION: f64 = 1e-9;

/// Compute max-min fair rates with per-round `BTreeMap` bookkeeping.
///
/// Same contract as [`crate::max_min_rates`]: one rate per flow in bits/s,
/// `f64::INFINITY` for empty link lists. Allocates fresh maps per call and
/// walks them per round — use only as a baseline or oracle.
pub fn max_min_rates_reference(
    flow_links: &[Vec<LinkId>],
    mut capacity: impl FnMut(LinkId) -> f64,
) -> Vec<f64> {
    let n = flow_links.len();
    let mut rate = vec![0.0_f64; n];
    let mut active: Vec<bool> = flow_links.iter().map(|ls| !ls.is_empty()).collect();
    for (i, ls) in flow_links.iter().enumerate() {
        if ls.is_empty() {
            rate[i] = f64::INFINITY;
        }
    }

    // Per-link state: capacity, remaining headroom, and active-flow count.
    let mut cap: BTreeMap<LinkId, f64> = BTreeMap::new();
    let mut headroom: BTreeMap<LinkId, f64> = BTreeMap::new();
    let mut count: BTreeMap<LinkId, u32> = BTreeMap::new();
    for (i, links) in flow_links.iter().enumerate() {
        if !active[i] {
            continue;
        }
        for &l in links {
            let c = *cap.entry(l).or_insert_with(|| capacity(l));
            headroom.entry(l).or_insert(c);
            *count.entry(l).or_insert(0) += 1;
        }
    }

    let mut remaining: usize = active.iter().filter(|&&a| a).count();
    while remaining > 0 {
        // Smallest equal increment any active flow can absorb.
        let mut delta = f64::INFINITY;
        for (l, &c) in &count {
            if c > 0 {
                let share = headroom[l] / f64::from(c);
                if share < delta {
                    delta = share;
                }
            }
        }
        if !delta.is_finite() {
            break; // defensive: no constraining links left
        }
        // Raise every active flow by delta and drain the links.
        for (i, links) in flow_links.iter().enumerate() {
            if !active[i] {
                continue;
            }
            rate[i] += delta;
            for &l in links {
                // Every link of an active flow was seeded in the setup loop.
                if let Some(h) = headroom.get_mut(&l) {
                    *h -= delta;
                }
            }
        }
        // Freeze flows on saturated links (capacity-relative epsilon).
        let saturated: Vec<LinkId> = headroom
            .iter()
            .filter(|(l, &h)| count[l] > 0 && h <= EPS_FRACTION * cap[l])
            .map(|(&l, _)| l)
            .collect();
        let mut frozen_any = false;
        for (i, links) in flow_links.iter().enumerate() {
            if !active[i] {
                continue;
            }
            if links.iter().any(|l| saturated.contains(l)) {
                active[i] = false;
                frozen_any = true;
                remaining -= 1;
                for &l in links {
                    if let Some(c) = count.get_mut(&l) {
                        *c -= 1;
                    }
                }
            }
        }
        if !frozen_any {
            // Numerical safety: freeze everything at current rates rather
            // than loop forever.
            for (i, links) in flow_links.iter().enumerate() {
                if active[i] {
                    active[i] = false;
                    remaining -= 1;
                    for &l in links {
                        if let Some(c) = count.get_mut(&l) {
                            *c -= 1;
                        }
                    }
                }
            }
        }
    }
    rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::max_min_rates;

    fn l(i: u32) -> LinkId {
        LinkId(i)
    }

    #[test]
    fn reference_matches_dense_solver_on_structured_instance() {
        let flows: Vec<Vec<LinkId>> = (0..50)
            .map(|i| vec![l(i % 7), l(7 + (i * 3) % 5), l(12 + (i * 11) % 6)])
            .collect();
        let cap = |link: LinkId| 1e10 * (1.0 + f64::from(link.0 % 5) / 3.0);
        let a = max_min_rates(&flows, cap);
        let b = max_min_rates_reference(&flows, cap);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert!(
                (x - y).abs() <= 1e-6 * x.abs().max(1.0),
                "flow {i}: dense {x} vs reference {y}"
            );
        }
    }

    #[test]
    fn reference_handles_gbps_scale_asymmetric_bottlenecks() {
        // The epsilon fix applies to this implementation too.
        let shared = 6400usize;
        let cap0 = 10_000_000_003.25_f64;
        let flows: Vec<Vec<LinkId>> = (0..shared)
            .map(|_| vec![l(0)])
            .chain([vec![l(1)]])
            .collect();
        let rates =
            max_min_rates_reference(&flows, |link| if link.0 == 0 { cap0 } else { 4e10 });
        assert!(
            (rates[shared] / 4e10 - 1.0).abs() < 1e-6,
            "solo flow got {}, want ~4e10",
            rates[shared]
        );
    }
}
