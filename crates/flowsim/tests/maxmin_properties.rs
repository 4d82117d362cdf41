//! Property-based tests of the max-min fair allocator: feasibility,
//! saturation witness, and the max-min dominance property on random
//! instances, plus a differential check of the incremental
//! [`WaterFiller`] lifecycle against the reference solver and, bit for bit,
//! against a fresh filler's first solve.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use proptest::prelude::*;
use sharebackup_flowsim::{max_min_rates, max_min_rates_reference, SolveStats, WaterFiller};
use sharebackup_topo::LinkId;

/// Random instance: up to 40 flows over up to 12 links, 1-4 links each.
fn instances() -> impl Strategy<Value = (Vec<Vec<LinkId>>, Vec<f64>)> {
    let caps = prop::collection::vec(1.0f64..100.0, 12);
    let flows = prop::collection::vec(prop::collection::btree_set(0u32..12, 1..=4), 1..40);
    (flows, caps).prop_map(|(flows, caps)| {
        let flows = flows
            .into_iter()
            .map(|links| links.into_iter().map(LinkId).collect())
            .collect();
        (flows, caps)
    })
}

/// The same instances at either unit or Gb/s capacity scale. The 1e10
/// scale is where float residue dwarfs any fixed epsilon — an
/// increment-scaled saturation test passes the unit-scale suite and
/// silently corrupts allocations here.
fn scaled_instances() -> impl Strategy<Value = (Vec<Vec<LinkId>>, Vec<f64>)> {
    (instances(), prop::sample::select(vec![1.0f64, 1e10]))
        .prop_map(|((flows, caps), scale)| (flows, caps.into_iter().map(|c| c * scale).collect()))
}

/// Check the two max-min witnesses: feasibility (no link oversubscribed
/// beyond epsilon) and optimality (every flow crosses a saturated link,
/// otherwise its rate could be raised).
fn assert_genuinely_max_min(
    flows: &[Vec<LinkId>],
    caps: &[f64],
    rates: &[f64],
) -> Result<(), String> {
    let mut usage: BTreeMap<LinkId, f64> = BTreeMap::new();
    for (i, links) in flows.iter().enumerate() {
        prop_assert!(rates[i] >= 0.0, "flow {i} has negative rate {}", rates[i]);
        for &l in links {
            *usage.entry(l).or_insert(0.0) += rates[i];
        }
    }
    for (&l, &u) in &usage {
        prop_assert!(
            u <= caps[l.0 as usize] * (1.0 + 1e-6),
            "link {l:?} over capacity: {u} > {}",
            caps[l.0 as usize]
        );
    }
    for (i, links) in flows.iter().enumerate() {
        let blocked = links
            .iter()
            .any(|&l| usage[&l] >= caps[l.0 as usize] * (1.0 - 1e-6));
        prop_assert!(blocked, "flow {i} (rate {}) unbottlenecked", rates[i]);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn allocation_is_feasible((flows, caps) in instances()) {
        let rates = max_min_rates(&flows, |l| caps[l.0 as usize]);
        let mut usage: BTreeMap<LinkId, f64> = BTreeMap::new();
        for (i, links) in flows.iter().enumerate() {
            prop_assert!(rates[i] >= 0.0);
            for &l in links {
                *usage.entry(l).or_insert(0.0) += rates[i];
            }
        }
        for (&l, &u) in &usage {
            prop_assert!(
                u <= caps[l.0 as usize] * (1.0 + 1e-6),
                "link {l:?} over capacity: {u} > {}",
                caps[l.0 as usize]
            );
        }
    }

    #[test]
    fn every_flow_is_bottlenecked((flows, caps) in instances()) {
        // Max-min witness: each flow crosses at least one saturated link
        // (otherwise its rate could be raised, contradicting max-min).
        let rates = max_min_rates(&flows, |l| caps[l.0 as usize]);
        let mut usage: BTreeMap<LinkId, f64> = BTreeMap::new();
        for (i, links) in flows.iter().enumerate() {
            for &l in links {
                *usage.entry(l).or_insert(0.0) += rates[i];
            }
        }
        for (i, links) in flows.iter().enumerate() {
            let blocked = links.iter().any(|&l| {
                usage[&l] >= caps[l.0 as usize] * (1.0 - 1e-6)
            });
            prop_assert!(blocked, "flow {i} (rate {}) unbottlenecked", rates[i]);
        }
    }

    #[test]
    fn bottleneck_sharing_is_fair((flows, caps) in instances()) {
        // On any saturated link, no flow crossing it may have a rate lower
        // than another crossing flow unless the lower one is itself
        // bottlenecked elsewhere at that smaller rate. Weaker checkable
        // form: the minimum rate over the link's flows is >= the fair share
        // the link would give them after removing what *smaller* flows
        // (bottlenecked elsewhere) consume — here we just verify the
        // classic condition: a flow's rate equals the max over its links of
        // the "fair share at saturation" is not violated by more than eps
        // in the downward direction for the link that bottlenecks it.
        let rates = max_min_rates(&flows, |l| caps[l.0 as usize]);
        let mut by_link: BTreeMap<LinkId, Vec<usize>> = BTreeMap::new();
        for (i, links) in flows.iter().enumerate() {
            for &l in links {
                by_link.entry(l).or_default().push(i);
            }
        }
        for (&l, members) in &by_link {
            let usage: f64 = members.iter().map(|&i| rates[i]).sum();
            if usage >= caps[l.0 as usize] * (1.0 - 1e-6) {
                // Saturated link: the largest rate on it must not exceed
                // the equal share among flows at the max (others may be
                // smaller only because they're stuck elsewhere).
                let max_rate = members.iter().map(|&i| rates[i]).fold(0.0, f64::max);
                let smaller_sum: f64 = members
                    .iter()
                    .map(|&i| rates[i])
                    .filter(|&r| r < max_rate * (1.0 - 1e-9))
                    .sum();
                let at_max = members
                    .iter()
                    .filter(|&&i| rates[i] >= max_rate * (1.0 - 1e-9))
                    .count() as f64;
                let share = (caps[l.0 as usize] - smaller_sum) / at_max;
                prop_assert!(
                    max_rate <= share * (1.0 + 1e-6),
                    "link {l:?}: max rate {max_rate} exceeds fair share {share}"
                );
            }
        }
    }

    #[test]
    fn allocation_is_genuinely_max_min_at_both_scales(
        (flows, caps) in scaled_instances()
    ) {
        // The full max-min certificate — feasibility plus a saturated
        // bottleneck for every flow — must hold identically at unit and
        // Gb/s capacity scales.
        let rates = max_min_rates(&flows, |l| caps[l.0 as usize]);
        assert_genuinely_max_min(&flows, &caps, &rates)?;
    }

    #[test]
    fn dense_and_reference_solvers_agree(
        (flows, caps) in scaled_instances()
    ) {
        // Differential oracle: the dense WaterFiller and the tree-based
        // reference are independent implementations of the same
        // construction and must produce the same allocation.
        let dense = max_min_rates(&flows, |l| caps[l.0 as usize]);
        let reference = max_min_rates_reference(&flows, |l| caps[l.0 as usize]);
        for (i, (a, b)) in dense.iter().zip(&reference).enumerate() {
            prop_assert!(
                (a - b).abs() <= 1e-6 * a.abs().max(1.0),
                "flow {i}: dense {a} vs reference {b}"
            );
        }
    }

    #[test]
    fn removal_is_leximin_improving((flows, caps) in instances()) {
        // Pointwise monotonicity is FALSE for max-min (removing a flow can
        // cascade and shrink a third flow) — proptest found the
        // counterexample. The true theorem: the reduced instance's max-min
        // allocation leximin-dominates the old allocation restricted to the
        // surviving flows, because the restriction is feasible for the
        // reduced instance and max-min is leximin-optimal.
        prop_assume!(flows.len() >= 2);
        let rates_with = max_min_rates(&flows, |l| caps[l.0 as usize]);
        let without: Vec<Vec<LinkId>> = flows[..flows.len() - 1].to_vec();
        let rates_without = max_min_rates(&without, |l| caps[l.0 as usize]);
        let mut a: Vec<f64> = rates_without.clone();
        let mut b: Vec<f64> = rates_with[..without.len()].to_vec();
        a.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
        b.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
        // Leximin comparison on ascending-sorted vectors.
        for i in 0..a.len() {
            if (a[i] - b[i]).abs() > 1e-6 * b[i].max(1.0) {
                prop_assert!(
                    a[i] > b[i],
                    "leximin violated at index {i}: {} < {}",
                    a[i],
                    b[i]
                );
                return Ok(()); // strictly better at first difference: done
            }
        }
    }
}

/// One mutation of a [`WaterFiller`]'s flow set or link capacities.
#[derive(Clone, Debug)]
enum Op {
    /// Register a flow over these links (possibly none).
    Add(Vec<u32>),
    /// Remove the `n`-th live flow (modulo the live count).
    Remove(usize),
    /// Stall or resume the `n`-th live flow.
    Stall(usize, bool),
    /// Re-route the `n`-th live flow onto these links.
    SetLinks(usize, Vec<u32>),
    /// Re-intern a link with a new capacity (as a unit-scale value).
    Capacity(u32, f64),
    /// Nothing: the next solve sees no mutation at all.
    Idle,
    /// Stall every running flow on a link, solve with the link empty, then
    /// resume them all so the link refills.
    Refill(u32),
}

/// Random mutation sequences over 12 links, weighted towards arrivals so
/// the flow set grows to a few dozen flows. Half the capacity changes are
/// whole numbers, so exact ties between levels keep turning up.
fn lifecycles() -> impl Strategy<Value = (Vec<Op>, f64)> {
    let op = (
        0u32..10,
        0u32..64,
        prop::collection::btree_set(0u32..12, 0..=4),
        any::<bool>(),
        1.0f64..100.0,
    )
        .prop_map(|(kind, n, links, flag, cap)| {
            let links: Vec<u32> = links.into_iter().collect();
            match kind {
                0..=3 => Op::Add(links),
                4 => Op::Remove(n as usize),
                5 => Op::Stall(n as usize, flag),
                6 => Op::SetLinks(n as usize, links),
                7 => Op::Capacity(n % 12, if flag { cap.round() } else { cap }),
                8 => Op::Idle,
                _ => Op::Refill(n % 12),
            }
        });
    (
        prop::collection::vec(op, 1..60),
        prop::sample::select(vec![1.0f64, 1e10]),
    )
}

/// The test's own record of a flow: its links and whether it is stalled.
struct ModelFlow {
    links: Vec<LinkId>,
    stalled: bool,
}

/// One long-lived [`WaterFiller`] next to the test's model of its flows.
struct Lifecycle {
    /// Capacity unit: 1 or 1e10 bits/s.
    scale: f64,
    caps: Vec<f64>,
    wf: WaterFiller,
    model: BTreeMap<usize, ModelFlow>,
    /// Each model flow's rate bits after the last solve.
    solved: BTreeMap<usize, u64>,
    /// Flows mutated since the last solve.
    mutated: BTreeSet<usize>,
}

impl Lifecycle {
    fn new(scale: f64) -> Lifecycle {
        Lifecycle {
            scale,
            caps: (0..12).map(|l| (1.0 + f64::from(l)) * scale).collect(),
            wf: WaterFiller::new(),
            model: BTreeMap::new(),
            solved: BTreeMap::new(),
            mutated: BTreeSet::new(),
        }
    }

    /// The `n`-th flow of the model (modulo its size).
    fn nth(&self, n: usize) -> Option<usize> {
        self.model.keys().nth(n % self.model.len().max(1)).copied()
    }

    /// The `n`-th flow (modulo their count) of those crossing links in
    /// `region` only.
    fn nth_in(&self, n: usize, region: &Range<u32>) -> Option<usize> {
        let inside: Vec<usize> = self
            .model
            .iter()
            .filter(|(_, f)| !f.links.is_empty() && f.links.iter().all(|l| region.contains(&l.0)))
            .map(|(&fid, _)| fid)
            .collect();
        inside.get(n % inside.len().max(1)).copied()
    }

    fn dense(&mut self, links: &[u32]) -> Vec<u32> {
        links
            .iter()
            .map(|&l| self.wf.link_index(LinkId(l), self.caps[l as usize]))
            .collect()
    }

    fn set_stalled(&mut self, fid: usize, stalled: bool) {
        self.wf.set_stalled(fid, stalled);
        self.mutated.insert(fid);
        if let Some(f) = self.model.get_mut(&fid) {
            f.stalled = stalled;
        }
    }

    /// Apply `op`, then solve and check.
    fn step(&mut self, op: Op) -> Result<(), String> {
        self.apply(op, None)?;
        self.solve_and_check()
    }

    /// Apply `op` without solving. With a `region`, removals, stalls and
    /// re-routes pick among the flows confined to it.
    fn apply(&mut self, op: Op, region: Option<&Range<u32>>) -> Result<(), String> {
        let pick = |life: &Lifecycle, n: usize| match region {
            Some(r) => life.nth_in(n, r),
            None => life.nth(n),
        };
        match op {
            Op::Add(links) => {
                let dense = self.dense(&links);
                let fid = self.wf.add_flow(dense);
                self.mutated.insert(fid);
                prop_assert!(!self.model.contains_key(&fid), "id {fid} handed out twice");
                let links = links.into_iter().map(LinkId).collect();
                self.model.insert(
                    fid,
                    ModelFlow {
                        links,
                        stalled: false,
                    },
                );
            }
            Op::Remove(n) => {
                if let Some(fid) = pick(self, n) {
                    self.wf.remove_flow(fid);
                    self.mutated.insert(fid);
                    self.model.remove(&fid);
                }
            }
            Op::Stall(n, stalled) => {
                if let Some(fid) = pick(self, n) {
                    self.set_stalled(fid, stalled);
                }
            }
            Op::SetLinks(n, links) => {
                if let Some(fid) = pick(self, n) {
                    let dense = self.dense(&links);
                    self.wf.set_links(fid, dense);
                    self.mutated.insert(fid);
                    if let Some(f) = self.model.get_mut(&fid) {
                        f.links = links.into_iter().map(LinkId).collect();
                    }
                }
            }
            Op::Capacity(l, cap) => {
                self.caps[l as usize] = cap * self.scale;
                self.wf.link_index(LinkId(l), self.caps[l as usize]);
            }
            Op::Idle => {}
            Op::Refill(l) => {
                let on_link: Vec<usize> = self
                    .model
                    .iter()
                    .filter(|(_, f)| !f.stalled && f.links.contains(&LinkId(l)))
                    .map(|(&fid, _)| fid)
                    .collect();
                for &fid in &on_link {
                    self.set_stalled(fid, true);
                }
                self.solve_and_check()?;
                for &fid in &on_link {
                    self.set_stalled(fid, false);
                }
            }
        }
        Ok(())
    }

    /// Solve, then hold the long-lived filler to the reference solver
    /// (within 1e-9 relative, plus both max-min witnesses) and to a fresh
    /// filler's first solve (bit for bit), and check that `refrozen()`
    /// names every flow whose rate the solve changed.
    fn solve_and_check(&mut self) -> Result<(), String> {
        let Lifecycle {
            caps,
            wf,
            model,
            solved,
            mutated,
            ..
        } = self;
        wf.solve();

        // `refrozen()` lists running flows with links, once each, and
        // takes in every flow not mutated since the last solve whose rate
        // moved.
        let refrozen: BTreeSet<usize> = wf.refrozen().iter().copied().collect();
        prop_assert_eq!(
            refrozen.len(),
            wf.refrozen().len(),
            "refrozen() repeats a flow"
        );
        for fid in &refrozen {
            let f = model.get(fid);
            prop_assert!(
                f.is_some_and(|f| !f.stalled && !f.links.is_empty()),
                "refrozen flow {} is not running on links",
                fid
            );
        }
        for (fid, f) in model.iter() {
            let rate = wf.rate(*fid).to_bits();
            if !f.stalled && !mutated.contains(fid) && solved.get(fid) != Some(&rate) {
                prop_assert!(
                    refrozen.contains(fid),
                    "flow {} changed rate but is not in refrozen()",
                    fid
                );
            }
        }
        *solved = model
            .keys()
            .map(|&fid| (fid, wf.rate(fid).to_bits()))
            .collect();
        mutated.clear();

        let running: Vec<usize> = model
            .iter()
            .filter(|(_, f)| !f.stalled)
            .map(|(&fid, _)| fid)
            .collect();
        let flows: Vec<Vec<LinkId>> = running.iter().map(|fid| model[fid].links.clone()).collect();
        let want = max_min_rates_reference(&flows, |l| caps[l.0 as usize]);
        for (fid, f) in model.iter() {
            if f.stalled {
                prop_assert_eq!(wf.rate(*fid), 0.0, "stalled flow {} has a rate", fid);
            }
        }
        let mut got = Vec::with_capacity(running.len());
        for (fid, want) in running.iter().zip(&want) {
            let rate = wf.rate(*fid);
            prop_assert!(
                rate == *want || (rate - want).abs() <= 1e-9 * want.abs(),
                "flow {fid}: incremental {rate} vs reference {want}"
            );
            got.push(rate);
        }

        // Warm vs cold: a new filler over the same running flows, interned
        // in a different order, has nothing to replay.
        let mut cold = WaterFiller::new();
        let cold_fids: Vec<usize> = flows
            .iter()
            .map(|links| {
                let dense = links
                    .iter()
                    .map(|&l| cold.link_index(l, caps[l.0 as usize]))
                    .collect();
                cold.add_flow(dense)
            })
            .collect();
        cold.solve();
        for (fid, cold_fid) in running.iter().zip(cold_fids) {
            let (warm, cold) = (wf.rate(*fid), cold.rate(cold_fid));
            prop_assert_eq!(
                warm.to_bits(),
                cold.to_bits(),
                "flow {}: warm {} vs cold {}",
                fid,
                warm,
                cold
            );
        }
        let (warm, cold) = (wf.last_solve_stats(), cold.last_solve_stats());
        prop_assert_eq!(cold.replayed, 0, "a first solve replays nothing");
        let strip = |s: SolveStats| SolveStats {
            flows_touched: 0,
            replayed: 0,
            ..s
        };
        prop_assert_eq!(strip(warm), strip(cold), "warm vs cold solve stats");

        let (flows, got): (Vec<_>, Vec<_>) = flows
            .into_iter()
            .zip(got)
            .filter(|(links, _)| !links.is_empty())
            .unzip();
        assert_genuinely_max_min(&flows, caps, &got)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn incremental_lifecycle_matches_reference((ops, scale) in lifecycles()) {
        // One WaterFiller lives through the whole sequence: arrivals,
        // removals with id recycling, stalls, re-routes, capacity refreshes,
        // idle solves and links that empty and refill. After every solve its
        // rates must match the reference solver run from scratch on the
        // current running set, and equal a fresh filler's bit for bit.
        let mut life = Lifecycle::new(scale);
        for op in ops {
            life.step(op)?;
        }
    }
}

/// The two regions of [`regional_lifecycles`]: no flow crosses both.
const REGIONS: [Range<u32>; 2] = [0..6, 6..12];

/// One mutation confined to `region`: arrivals and re-routes over one to
/// three of its links, removals and stalls of its flows.
fn regional_op(region: Range<u32>) -> impl Strategy<Value = Op> {
    (
        0u32..6,
        0u32..64,
        prop::collection::btree_set(region, 1..=3),
        any::<bool>(),
    )
        .prop_map(|(kind, n, links, flag)| {
            let links: Vec<u32> = links.into_iter().collect();
            match kind {
                0..=2 => Op::Add(links),
                3 => Op::Remove(n as usize),
                4 => Op::Stall(n as usize, flag),
                _ => Op::SetLinks(n as usize, links),
            }
        })
}

/// Sequences of solves, each after one mutation in each region, at unit or
/// Gb/s scale. The regions' batches interleave in level, so a solve must
/// redo batches of both and keep the ones between.
fn regional_lifecycles() -> impl Strategy<Value = (Vec<(Op, Op)>, f64)> {
    (
        prop::collection::vec(
            (
                regional_op(REGIONS[0].clone()),
                regional_op(REGIONS[1].clone()),
            ),
            1..40,
        ),
        prop::sample::select(vec![1.0f64, 1e10]),
    )
}

/// A flow `f` over links 0 and 1 and `others` flows over link 0 alone
/// share link 0; `tied` flows over links 1 and 2 are held by link 2. Link 1
/// has slack to begin with (its capacity exceeds what `f` and the tied
/// flows take), so it saturates in no batch. Removing the others one at a
/// time raises `f`'s rate until link 1's slack is gone and it saturates,
/// capping `f` or the tied flows: a change that reaches them only through
/// a link that never saturated. Noise flows over links 3 to 7 add batches
/// around it. Returns the mutations and the scale.
fn slack_lifecycles() -> impl Strategy<Value = (Vec<Op>, f64)> {
    (
        (
            1.0f64..20.0,
            1usize..6,
            1.0f64..10.0,
            1usize..4,
            0.05f64..0.95,
        ),
        prop::collection::vec(prop::collection::btree_set(0u32..5, 1..=2), 0..6),
        prop::sample::select(vec![1.0f64, 1e10]),
    )
        .prop_map(|((cx, others, cz, tied, slack), noise, scale)| {
            // Link 1's spare capacity over what the tied flows and `f` use
            // at first, as a fraction of what `f` gains once alone on link 0.
            let first = cx / (others + 1) as f64;
            let cy = cz + first + slack * (cx - first);
            let mut ops = vec![
                Op::Capacity(0, cx),
                Op::Capacity(1, cy),
                Op::Capacity(2, cz),
            ];
            ops.push(Op::Add(vec![0, 1]));
            ops.extend((0..others).map(|_| Op::Add(vec![0])));
            ops.extend((0..tied).map(|_| Op::Add(vec![1, 2])));
            ops.extend(
                noise
                    .into_iter()
                    .map(|links| Op::Add(links.into_iter().map(|l| l + 3).collect())),
            );
            // `f` holds the first id, the others the next ones: removing
            // the model's second flow removes one of them each time.
            ops.extend((0..others).map(|_| Op::Remove(1)));
            (ops, scale)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn two_regions_mutated_in_one_solve_match_a_cold_solve(
        (steps, scale) in regional_lifecycles()
    ) {
        // Each solve follows one mutation in each of two regions that share
        // no link; after every solve the long-lived filler must equal a
        // fresh filler bit for bit.
        let mut life = Lifecycle::new(scale);
        for (a, b) in steps {
            life.apply(a, Some(&REGIONS[0]))?;
            life.apply(b, Some(&REGIONS[1]))?;
            life.solve_and_check()?;
        }
    }

    #[test]
    fn rate_rising_through_a_never_saturated_link_matches_a_cold_solve(
        (ops, scale) in slack_lifecycles()
    ) {
        // The change reaches the tied flows only through link 1, which no
        // batch of the log saturated: a walk that follows only saturated
        // links keeps their stale rates.
        let mut life = Lifecycle::new(scale);
        for op in ops {
            life.step(op)?;
        }
    }
}

proptest! {
    // Fewer cases: thousands of flows per instance.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn heavily_shared_gbps_link_stays_max_min(
        shared in 2048usize..6000,
        cap_frac in 0u32..8192,
        solo_cap in 2e10f64..8e10,
    ) {
        // The regime that broke the increment-scaled epsilon: thousands of
        // flows draining one ~10 Gb/s link leave float residue of order
        // count · ulp(capacity) ≈ 1e-2, far above 1e-9 · delta once delta
        // is a per-flow share. A missed saturation fires the freeze-all
        // fallback and pins the solo flow on the other link at the shared
        // flows' tiny rate. The max-min certificate must hold regardless.
        let cap0 = 1e10 + f64::from(cap_frac) / 4.0;
        let flows: Vec<Vec<LinkId>> = (0..shared)
            .map(|_| vec![LinkId(0)])
            .chain([vec![LinkId(1)]])
            .collect();
        let caps = [cap0, solo_cap];
        let rates = max_min_rates(&flows, |l| caps[l.0 as usize]);
        assert_genuinely_max_min(&flows, &caps, &rates)?;
        // In particular the solo flow actually fills its own link.
        prop_assert!(
            (rates[shared] / solo_cap - 1.0).abs() < 1e-6,
            "solo flow got {}, want ~{solo_cap}",
            rates[shared]
        );
    }
}
