//! Progressive-filling max-min fair bandwidth allocation.
//!
//! Given flows with fixed paths (as link-id lists) and link capacities, the
//! allocation raises all rates together until a link saturates, freezes the
//! flows crossing it, and repeats — the classic water-filling construction
//! of the unique max-min fair allocation. This is the steady state that
//! per-flow fair queueing (or long-run TCP with equal RTTs) converges to,
//! and the fluid limit the paper's packet-level final-state measurements
//! correspond to.
//!
//! The solver runs the *level form* of progressive filling (Bertsekas &
//! Gallager, *Data Networks* §6.5). All unfrozen flows sit at one water
//! level `t`. Link `l` saturates at level `t_l = headroom_l / live_l`,
//! where `headroom_l` is its capacity minus the rates already frozen on it
//! and `live_l` counts its unfrozen flows. Freezing a flow at the current
//! level never lowers any `t_l`, so a lazily updated min-heap of levels
//! yields the links in saturation order. Each pop freezes only the flows
//! on the saturating links, at exactly the popped level; the rest of the
//! fabric is not touched.
//!
//! # Warm restart
//!
//! A [`WaterFiller`] keeps its last solve: a *freeze log* of saturation
//! batches in level order (each batch's level, the flows it froze), and a
//! *trail* of `(link, headroom before)` pairs, one per headroom
//! subtraction. Per-link member lists are kept up to date on every
//! mutation. A mutation can only change the filling from some level up
//! (Ros-Giralt et al., "On the Bottleneck Structure of
//! Congestion-Controlled Networks", SIGMETRICS 2020), so each one lowers a
//! *cut*:
//!
//! * a flow that leaves a link set (removal, stall, re-route) cuts at its
//!   old rate — the batch that froze it, and every later one, may change;
//! * a flow that joins a link set (arrival, resume, re-route) cuts at the
//!   first level `L` where one of its links would now saturate:
//!   `cap = Σ_{logged flows on the link} min(r_f, L) + k · L`, with `k`
//!   the link's flows that are not in the log.
//!
//! The next solve keeps every batch whose level lies below the cut minus a
//! margin of `2 · EPS_FRACTION · cap_max` (a new saturation within the
//! gather epsilon of a kept level would have joined its batch). It pops
//! the trail back to the last kept batch, restoring each headroom to the
//! exact float it held, and resumes the heap over only the links that the
//! undone and added flows cross — every link with an unfrozen flow. Kept
//! batches are bit-identical to the ones a solve from scratch would
//! produce: below the cut the same links saturate at the same levels, and
//! a link's headroom is its capacity minus the same sequence of
//! subtractions (within one batch every subtraction is the same level, so
//! their order does not matter). A first solve, or one after a capacity
//! change, is the same path with an empty prefix.
//!
//! Two entry points:
//!
//! * [`max_min_rates`] — one-shot convenience over link-id lists;
//! * [`WaterFiller`] — dense, index-mapped link state for callers that
//!   solve repeatedly over an evolving flow set (the [`crate::FlowSim`]
//!   event loop). Links are interned into dense indices once, per-link
//!   member lists are maintained incrementally as flows arrive, stall,
//!   re-route, and complete, and a solve re-fills only what the mutations
//!   since the last one can reach — no per-event allocation and no tree
//!   lookups in the hot loop.
//!
//! The slower, allocation-heavy round-by-round original lives on in
//! [`crate::maxmin_reference`] as the differential oracle.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap};

use sharebackup_topo::LinkId;

/// Saturation threshold, as a fraction of link *capacity*.
///
/// The epsilon must scale with the capacity, not with the per-round
/// increment: repeatedly draining a ~1e10 bits/s link leaves float residue
/// around `count · ulp(capacity)` ≈ 1e-6, so once round increments get
/// small an increment-scaled epsilon (the old `delta.max(1.0) * 1e-9`)
/// misses the saturation, no flow freezes, and the round-by-round solver's
/// freeze-all safety net silently pins *every* flow at the lowest
/// bottleneck share — a non-max-min allocation that starved unrelated
/// flows by four orders of magnitude at Gb/s scale (see
/// `gbps_scale_asymmetric_bottlenecks`). The level-form solver keeps the
/// same test: at level `t*`, link `l` counts as saturated when its
/// remaining headroom `live_l · (t_l − t*)` is at most
/// `EPS_FRACTION · cap_l`.
const EPS_FRACTION: f64 = 1e-9;

/// Counters describing the most recent [`WaterFiller::solve`] call, for
/// telemetry. Plain data kept by the solver itself (a few integer writes
/// per solve) so the solver stays free of any tracing dependency; callers
/// that record traces read these via
/// [`WaterFiller::last_solve_stats`] after each solve.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Running flows with a non-empty path: the flows the allocation
    /// freezes.
    pub active_flows: u64,
    /// Saturation batches until every flow froze: each batch is one water
    /// level at which one or more links saturate together. Kept batches
    /// count too, so this matches a solve from scratch.
    pub rounds: u64,
    /// Links carrying at least one running flow.
    pub links_used: u64,
    /// Incremental mutations (add/remove/stall/re-route) applied since the
    /// previous solve — the "flows touched per incremental update" signal.
    pub flows_touched: u64,
    /// Flow freezes kept from the previous solve's log instead of
    /// recomputed (`0` on a solve from scratch).
    pub replayed: u64,
}

/// A flow slot in the [`WaterFiller`] registry.
#[derive(Debug, Default)]
struct FlowEntry {
    /// Dense indices of the links the flow traverses.
    links: Vec<u32>,
    /// Contributing demand right now: registered and not stalled (a
    /// removed flow's slot is reset to not running until recycled).
    running: bool,
}

/// One saturation batch of the freeze log.
#[derive(Clone, Copy, Debug)]
struct Batch {
    /// The water level the batch froze its flows at.
    level: f64,
    /// End of the batch's flows in `WaterFiller::order`.
    flows_end: usize,
    /// End of the batch's subtractions in `WaterFiller::trail`.
    trail_end: usize,
}

/// A heap entry: the water level at which `link` saturates, as of the push.
/// The heap holds at most one entry per link; its key may lag below the
/// link's level now (see [`settle`]).
#[derive(Clone, Copy, Debug)]
struct Level {
    t: f64,
    link: u32,
}

impl Ord for Level {
    /// By level alone, reversed, so `BinaryHeap` (a max-heap) pops the
    /// lowest level first. Links tied at one level saturate in one batch,
    /// so the order among them does not matter.
    fn cmp(&self, other: &Self) -> Ordering {
        other.t.total_cmp(&self.t)
    }
}

impl PartialOrd for Level {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Level {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Level {}

/// Check a popped entry against its link's level now. Keys only ever lag
/// below the true level (freezing a flow never lowers a link's level), so
/// the heap is updated lazily: an entry whose link has since risen goes
/// back at the new level, one whose link has no unfrozen flows left is
/// dropped, and only an entry still at its link's level is returned.
fn settle(
    e: Level,
    headroom: &[f64],
    live: &[i32],
    heap: &mut BinaryHeap<Level>,
) -> Option<f64> {
    let l = e.link as usize;
    if live[l] == 0 {
        return None;
    }
    let t = headroom[l] / f64::from(live[l]);
    if t.to_bits() == e.t.to_bits() {
        return Some(t);
    }
    heap.push(Level { t, link: e.link });
    None
}

/// The first water level at which a link saturates once its flows outside
/// the log join it: the least `L` with `Σ_{logged} min(r_f, L) + k · L ≥
/// cap`, where the logged flows are the `frozen` members and `k ≥ 1` the
/// rest. `shares` is scratch.
fn join_level(
    members: &[usize],
    frozen: &[bool],
    rate: &[f64],
    cap: f64,
    shares: &mut Vec<f64>,
) -> f64 {
    shares.clear();
    shares.extend(members.iter().filter(|&&g| frozen[g]).map(|&g| rate[g]));
    shares.sort_unstable_by(f64::total_cmp);
    let mut room = cap;
    let mut n = members.len();
    for &r in shares.iter() {
        let level = room / n as f64;
        if level <= r {
            return level;
        }
        room -= r;
        n -= 1;
    }
    room / n as f64
}

/// Dense, reusable state for repeated max-min solves over an evolving flow
/// set.
///
/// Intern links with [`WaterFiller::link_index`], register flows with
/// [`WaterFiller::add_flow`], then call [`WaterFiller::solve`] and read
/// rates back with [`WaterFiller::rate`]. Between solves, mutate the flow
/// set incrementally ([`WaterFiller::set_links`],
/// [`WaterFiller::set_stalled`], [`WaterFiller::remove_flow`]); each
/// solve keeps the part of the previous one those mutations cannot reach
/// (see the module docs) and allocates nothing once warm.
#[derive(Debug, Default)]
pub struct WaterFiller {
    /// `LinkId` → dense index; persistent across solves.
    index_of: BTreeMap<LinkId, u32>,
    /// Dense index → `LinkId` (inverse of `index_of`).
    link_of: Vec<LinkId>,
    /// Dense index → capacity in bits/s (refreshed on `link_index`).
    capacity: Vec<f64>,
    /// The largest capacity ever interned: bounds the batch gather window
    /// and the cut margin.
    cap_max: f64,
    /// Dense index → the running flows crossing the link, in no order.
    members: Vec<Vec<usize>>,
    /// Links whose member list is non-empty.
    links_used: u64,
    /// Capacity minus the rates the log's batches froze on the link.
    headroom: Vec<f64>,
    /// Running flows on the link minus the log's freezes on it: the
    /// unfrozen-flow count once the log is cut back. Transiently negative
    /// after a frozen flow leaves, until the solve undoes its freeze.
    live: Vec<i32>,
    /// The freeze log: the last solve's batches, in level order.
    log: Vec<Batch>,
    /// Flow ids in the order the log froze them.
    order: Vec<usize>,
    /// `(link, headroom before)` per headroom subtraction, in log order.
    trail: Vec<(u32, f64)>,
    /// Lowest old rate of a frozen flow that left since the last solve.
    cut: f64,
    /// Flows that joined a link set since the last solve (may repeat or be
    /// stale; the solve filters them).
    fresh: Vec<usize>,
    /// Scratch: links to put in the heap when the solve resumes.
    seed: Vec<u32>,
    /// Scratch: per link, whether it is in `seed`.
    seeded: Vec<bool>,
    /// Scratch: logged rates on one link, for the join cut.
    shares: Vec<f64>,
    /// Scratch: min-heap of per-link saturation levels, updated lazily.
    heap: BinaryHeap<Level>,
    /// Scratch: links saturating together at the current level.
    batch: Vec<u32>,
    /// Scratch: entries popped while gathering a batch that did not join it.
    deferred: Vec<Level>,
    /// Flow registry, indexed by the ids `add_flow` hands out.
    flows: Vec<FlowEntry>,
    /// Recycled flow ids.
    free: Vec<usize>,
    /// Per flow id, whether the log froze it and it has not left since.
    frozen: Vec<bool>,
    /// Rates per flow id: frozen flows get their batch's level.
    rate: Vec<f64>,
    /// Running flows with a non-empty path.
    active: u64,
    /// Mutations since the last solve (rolled into `last_stats`).
    touched: u64,
    /// Counters from the most recent solve.
    last_stats: SolveStats,
}

impl WaterFiller {
    /// An empty filler.
    pub fn new() -> WaterFiller {
        WaterFiller {
            cut: f64::INFINITY,
            ..WaterFiller::default()
        }
    }

    /// Intern `link`, returning its dense index. The capacity is recorded,
    /// and refreshed on every call — callers re-intern a link whenever the
    /// environment may have changed it. A changed capacity moves every
    /// level, so the next solve starts from scratch.
    pub fn link_index(&mut self, link: LinkId, capacity_bps: f64) -> u32 {
        self.cap_max = self.cap_max.max(capacity_bps);
        if let Some(&i) = self.index_of.get(&link) {
            let l = i as usize;
            if self.capacity[l].to_bits() != capacity_bps.to_bits() {
                self.rewind(0);
                self.capacity[l] = capacity_bps;
                self.headroom[l] = capacity_bps;
            }
            return i;
        }
        // Bounded by the number of distinct links ever interned.
        #[allow(clippy::cast_possible_truncation)]
        let i = self.link_of.len() as u32;
        self.index_of.insert(link, i);
        self.link_of.push(link);
        self.capacity.push(capacity_bps);
        self.members.push(Vec::new());
        self.headroom.push(capacity_bps);
        self.live.push(0);
        self.seeded.push(false);
        i
    }

    /// The `LinkId` behind a dense index.
    pub fn link_id(&self, index: usize) -> LinkId {
        self.link_of[index]
    }

    /// Number of distinct links interned so far.
    pub fn link_count(&self) -> usize {
        self.link_of.len()
    }

    /// Register a running flow crossing `links` (dense indices from
    /// [`WaterFiller::link_index`]); returns its flow id. Ids of removed
    /// flows are recycled.
    pub fn add_flow(&mut self, links: Vec<u32>) -> usize {
        let fid = match self.free.pop() {
            Some(fid) => fid,
            None => {
                self.flows.push(FlowEntry::default());
                self.rate.push(0.0);
                self.frozen.push(false);
                self.flows.len() - 1
            }
        };
        self.flows[fid] = FlowEntry {
            links,
            running: true,
        };
        self.touched += 1;
        self.join(fid);
        fid
    }

    /// Deregister a completed flow; its id may be recycled.
    pub fn remove_flow(&mut self, fid: usize) {
        if self.flows[fid].running {
            self.leave(fid);
        }
        self.flows[fid] = FlowEntry::default();
        self.rate[fid] = 0.0;
        self.free.push(fid);
        self.touched += 1;
    }

    /// Mark a flow stalled (no route: zero rate, consumes nothing) or
    /// running again. The flow's link list is preserved across the stall.
    pub fn set_stalled(&mut self, fid: usize, stalled: bool) {
        let want_running = !stalled;
        if self.flows[fid].running == want_running {
            return;
        }
        self.touched += 1;
        if want_running {
            self.flows[fid].running = true;
            self.join(fid);
        } else {
            self.leave(fid);
            self.flows[fid].running = false;
            self.rate[fid] = 0.0;
        }
    }

    /// Replace a flow's path. Only a changed path moves anything.
    pub fn set_links(&mut self, fid: usize, links: Vec<u32>) {
        self.touched += 1;
        if self.flows[fid].links == links {
            return;
        }
        if self.flows[fid].running {
            self.leave(fid);
            self.flows[fid].links = links;
            self.join(fid);
        } else {
            self.flows[fid].links = links;
        }
    }

    /// The dense link indices of a flow.
    pub fn links(&self, fid: usize) -> &[u32] {
        &self.flows[fid].links
    }

    /// The rate computed by the last [`WaterFiller::solve`], in bits/s.
    /// Stalled flows get `0.0`; running flows crossing no links get
    /// `f64::INFINITY` (they consume nothing).
    pub fn rate(&self, fid: usize) -> f64 {
        self.rate[fid]
    }

    /// Counters from the most recent [`WaterFiller::solve`].
    pub fn last_solve_stats(&self) -> SolveStats {
        self.last_stats
    }

    /// Running flow `fid` joins the member list of every link on its path.
    fn join(&mut self, fid: usize) {
        let Self {
            flows,
            members,
            links_used,
            live,
            fresh,
            active,
            rate,
            ..
        } = self;
        let links = &flows[fid].links;
        if links.is_empty() {
            rate[fid] = f64::INFINITY;
            return;
        }
        *active += 1;
        fresh.push(fid);
        for &li in links {
            let l = li as usize;
            members[l].push(fid);
            if members[l].len() == 1 {
                *links_used += 1;
            }
            live[l] += 1;
        }
    }

    /// Running flow `fid` leaves the member list of every link on its
    /// path. If the log froze it, the cut drops to its rate.
    fn leave(&mut self, fid: usize) {
        let Self {
            flows,
            members,
            links_used,
            live,
            frozen,
            rate,
            cut,
            active,
            ..
        } = self;
        let links = &flows[fid].links;
        if links.is_empty() {
            return;
        }
        *active -= 1;
        if frozen[fid] {
            frozen[fid] = false;
            *cut = cut.min(rate[fid]);
        }
        for &li in links {
            let l = li as usize;
            let m = &mut members[l];
            #[expect(clippy::expect_used, reason = "a running flow is on its links' lists")]
            let pos = m.iter().position(|&g| g == fid).expect("flow on its link's list");
            m.swap_remove(pos);
            if m.is_empty() {
                *links_used -= 1;
            }
            live[l] -= 1;
        }
    }

    /// Cut the log back to its first `keep` batches: pop the trail,
    /// restoring each headroom it lowered, unfreeze the undone flows, and
    /// queue the links they cross for the heap.
    fn rewind(&mut self, keep: usize) {
        let Self {
            log,
            order,
            trail,
            frozen,
            headroom,
            live,
            seed,
            seeded,
            ..
        } = self;
        let (flows_end, trail_end) = keep
            .checked_sub(1)
            .map_or((0, 0), |last| (log[last].flows_end, log[last].trail_end));
        log.truncate(keep);
        for fid in order.drain(flows_end..) {
            frozen[fid] = false;
        }
        for (li, before) in trail.drain(trail_end..).rev() {
            let l = li as usize;
            headroom[l] = before;
            live[l] += 1;
            if !seeded[l] {
                seeded[l] = true;
                seed.push(li);
            }
        }
    }

    /// Compute max-min fair rates for the current flow set into the
    /// per-flow [`WaterFiller::rate`] slots.
    ///
    /// Keeps the previous solve's batches below the cut the mutations
    /// since then imply, undoes the rest, and resumes progressive filling
    /// from there. Allocation-free once warm: the log, the trail, the
    /// member lists and the heap are all reused.
    pub fn solve(&mut self) {
        // Lower the cut to the first level a joining flow can reach. A
        // link already seeded by a capacity change's full rewind needs no
        // level: the log is empty.
        let Self {
            flows,
            fresh,
            seed,
            seeded,
            members,
            frozen,
            rate,
            capacity,
            shares,
            ..
        } = self;
        let mut cut = std::mem::replace(&mut self.cut, f64::INFINITY);
        for fid in fresh.drain(..) {
            let fe = &flows[fid];
            if !fe.running {
                continue;
            }
            for &li in &fe.links {
                let l = li as usize;
                if !seeded[l] {
                    seeded[l] = true;
                    seed.push(li);
                    cut = cut.min(join_level(&members[l], frozen, rate, capacity[l], shares));
                }
            }
        }
        let bound = cut - 2.0 * EPS_FRACTION * self.cap_max;
        let keep = self.log.partition_point(|b| b.level < bound);
        self.rewind(keep);

        let Self {
            capacity,
            cap_max,
            members,
            headroom,
            live,
            log,
            order,
            trail,
            seed,
            seeded,
            heap,
            batch,
            deferred,
            flows,
            frozen,
            rate,
            ..
        } = self;

        heap.clear();
        for li in seed.drain(..) {
            let l = li as usize;
            seeded[l] = false;
            if live[l] > 0 {
                heap.push(Level {
                    t: headroom[l] / f64::from(live[l]),
                    link: li,
                });
            }
        }

        let replayed = u64::try_from(order.len()).unwrap_or(u64::MAX);
        let mut level = log.last().map_or(0.0, |b| b.level);
        // Once every flow froze, whatever the heap still holds is dead.
        let mut unfrozen = self.active - replayed;
        while unfrozen > 0 {
            let Some(top) = heap.pop() else { break };
            let Some(t) = settle(top, headroom, live, heap) else {
                continue;
            };
            // Levels never fall; the max only absorbs float residue.
            level = level.max(t);
            batch.push(top.link);

            // Gather every further link whose remaining headroom at this
            // level is within epsilon of zero. Its level lies at most
            // EPS_FRACTION · cap / live above, so nothing past
            // EPS_FRACTION · cap_max can qualify.
            let reach = level + EPS_FRACTION * *cap_max;
            while let Some(next) = heap.peek_mut() {
                if next.t > reach {
                    break;
                }
                let e = PeekMut::pop(next);
                let l = e.link as usize;
                if live[l] == 0 {
                    continue;
                }
                let t = headroom[l] / f64::from(live[l]);
                if f64::from(live[l]) * (t - level) <= EPS_FRACTION * capacity[l] {
                    batch.push(e.link);
                } else {
                    deferred.push(Level { t, link: e.link });
                }
            }
            heap.extend(deferred.drain(..));

            // Freeze the batch's flows at this level, logging each
            // subtraction. The other links they cross keep their old,
            // lower heap keys until they surface.
            for li in batch.drain(..) {
                for &fid in &members[li as usize] {
                    if frozen[fid] {
                        continue;
                    }
                    frozen[fid] = true;
                    unfrozen -= 1;
                    rate[fid] = level;
                    order.push(fid);
                    for &mi in &flows[fid].links {
                        let m = mi as usize;
                        trail.push((mi, headroom[m]));
                        headroom[m] -= level;
                        live[m] -= 1;
                    }
                }
            }
            log.push(Batch {
                level,
                flows_end: order.len(),
                trail_end: trail.len(),
            });
        }

        self.last_stats = SolveStats {
            active_flows: self.active,
            rounds: u64::try_from(self.log.len()).unwrap_or(u64::MAX),
            links_used: self.links_used,
            flows_touched: self.touched,
            replayed,
        };
        self.touched = 0;
        #[cfg(feature = "strict-invariants")]
        self.check_allocation();
    }

    /// Re-check the allocation the last solve produced, from the rates
    /// alone: no link carries more than its capacity, and every running
    /// flow with links crosses a saturated link (otherwise its rate could
    /// still rise). Tolerances are relative to capacity, 1e-6 either way.
    /// Also checks the log is complete: every link's flows are frozen.
    #[cfg(feature = "strict-invariants")]
    fn check_allocation(&self) {
        let mut load = vec![0.0_f64; self.link_of.len()];
        let running = || {
            self.flows
                .iter()
                .enumerate()
                .filter(|(_, fe)| fe.running && !fe.links.is_empty())
        };
        for (fid, fe) in running() {
            assert!(self.frozen[fid], "max-min: running flow {fid} left unfrozen");
            for &li in &fe.links {
                load[li as usize] += self.rate[fid];
            }
        }
        for (l, &live) in self.live.iter().enumerate() {
            assert_eq!(live, 0, "max-min: link {:?} has unfrozen flows", self.link_of[l]);
            assert!(
                load[l] <= self.capacity[l] * (1.0 + 1e-6),
                "max-min: link {:?} carries {} over capacity {}",
                self.link_of[l],
                load[l],
                self.capacity[l]
            );
        }
        for (fid, fe) in running() {
            assert!(
                fe.links
                    .iter()
                    .any(|&li| load[li as usize] >= self.capacity[li as usize] * (1.0 - 1e-6)),
                "max-min: flow {fid} at rate {} crosses no saturated link",
                self.rate[fid]
            );
        }
    }
}

/// Compute max-min fair rates.
///
/// * `flow_links[i]` — the links flow `i` traverses (must be non-empty for
///   the flow to receive rate; an empty list gets `f64::INFINITY` since it
///   consumes nothing).
/// * `capacity(l)` — capacity of link `l` in bits/s.
///
/// Returns one rate per flow, in bits/s. One-shot convenience over
/// [`WaterFiller`]; repeated callers should hold a `WaterFiller` and reuse
/// its scratch state instead.
pub fn max_min_rates(
    flow_links: &[Vec<LinkId>],
    mut capacity: impl FnMut(LinkId) -> f64,
) -> Vec<f64> {
    let mut wf = WaterFiller::new();
    let fids: Vec<usize> = flow_links
        .iter()
        .map(|links| {
            let dense: Vec<u32> = links
                .iter()
                .map(|&l| {
                    let cap = capacity(l);
                    wf.link_index(l, cap)
                })
                .collect();
            wf.add_flow(dense)
        })
        .collect();
    wf.solve();
    fids.into_iter().map(|fid| wf.rate(fid)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LinkId {
        LinkId(i)
    }

    #[test]
    fn single_bottleneck_shares_equally() {
        let flows = vec![vec![l(0)], vec![l(0)], vec![l(0)], vec![l(0)]];
        let rates = max_min_rates(&flows, |_| 10.0);
        for r in rates {
            assert!((r - 2.5).abs() < 1e-9);
        }
    }

    #[test]
    fn classic_three_flow_example() {
        // Flow A uses links 0 and 1, flow B uses link 0, flow C uses link 1.
        // cap(0) = 1, cap(1) = 2. Max-min: A = B = 0.5 (link 0 saturates),
        // then C fills link 1 to 1.5.
        let flows = vec![vec![l(0), l(1)], vec![l(0)], vec![l(1)]];
        let rates = max_min_rates(&flows, |l| if l.0 == 0 { 1.0 } else { 2.0 });
        assert!((rates[0] - 0.5).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 0.5).abs() < 1e-9, "{rates:?}");
        assert!((rates[2] - 1.5).abs() < 1e-9, "{rates:?}");

        // Two saturation batches: link 0 at level 0.5, then link 1 at 1.5.
        let mut wf = WaterFiller::new();
        let a = wf.link_index(l(0), 1.0);
        let b = wf.link_index(l(1), 2.0);
        for links in [vec![a, b], vec![a], vec![b]] {
            wf.add_flow(links);
        }
        wf.solve();
        assert_eq!(wf.last_solve_stats().rounds, 2);
        assert_eq!(wf.rate(2), 1.5, "frozen exactly at its level");
    }

    #[test]
    fn disjoint_flows_get_full_capacity() {
        let flows = vec![vec![l(0)], vec![l(1)]];
        let rates = max_min_rates(&flows, |l| (l.0 + 1) as f64);
        assert!((rates[0] - 1.0).abs() < 1e-9);
        assert!((rates[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_path_is_unconstrained() {
        let flows = vec![vec![], vec![l(0)]];
        let rates = max_min_rates(&flows, |_| 5.0);
        assert!(rates[0].is_infinite());
        assert!((rates[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn no_flows_is_fine() {
        let rates = max_min_rates(&[], |_| 1.0);
        assert!(rates.is_empty());
    }

    #[test]
    fn allocation_is_feasible_and_saturating() {
        // Random-ish structured instance: verify feasibility (no link over
        // capacity) and max-min optimality witness (every flow is blocked by
        // some saturated link).
        let flows: Vec<Vec<LinkId>> = (0..20)
            .map(|i| {
                vec![
                    l(i % 5),
                    l(5 + (i * 7) % 3),
                    l(8 + (i * 3) % 4),
                ]
            })
            .collect();
        let cap = |link: LinkId| 1.0 + (link.0 % 4) as f64;
        let rates = max_min_rates(&flows, cap);
        // Feasibility.
        let mut usage: BTreeMap<LinkId, f64> = BTreeMap::new();
        for (i, links) in flows.iter().enumerate() {
            for &link in links {
                *usage.entry(link).or_insert(0.0) += rates[i];
            }
        }
        for (&link, &u) in &usage {
            assert!(u <= cap(link) + 1e-6, "link {link:?} over capacity");
        }
        // Max-min witness: every flow crosses a saturated link.
        for links in &flows {
            let blocked = links
                .iter()
                .any(|link| usage[link] >= cap(*link) - 1e-6);
            assert!(blocked, "flow not blocked by any saturated link");
        }
    }

    #[test]
    fn fair_share_respects_weights_of_path_length() {
        // A long flow crossing two congested links gets the min of its
        // bottleneck shares, not less.
        let flows = vec![
            vec![l(0), l(1)],
            vec![l(0)],
            vec![l(0)],
            vec![l(1)],
        ];
        let rates = max_min_rates(&flows, |_| 3.0);
        // Link 0: three flows → share 1 each; link 1: long flow frozen at 1,
        // flow 3 takes remaining 2.
        assert!((rates[0] - 1.0).abs() < 1e-9);
        assert!((rates[1] - 1.0).abs() < 1e-9);
        assert!((rates[2] - 1.0).abs() < 1e-9);
        assert!((rates[3] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gbps_scale_asymmetric_bottlenecks() {
        // Regression for the increment-scaled saturation epsilon. 6400
        // flows share a ~10 Gb/s link; one solo flow owns a 40 Gb/s link.
        // Draining the shared link leaves float residue around
        // count · ulp(1e10) ≈ 1e-2 — far above the old epsilon of
        // 1e-9 · delta — so no link registered saturated, the freeze-all
        // safety net fired, and the solo flow was pinned at the shared
        // flows' ~1.56 Mb/s share: 25,000× below its true allocation. The
        // capacity-relative epsilon (~10 bits/s here) sees the saturation.
        let shared = 6400usize;
        let cap0 = 10_000_000_003.25_f64;
        let flows: Vec<Vec<LinkId>> = (0..shared)
            .map(|_| vec![l(0)])
            .chain([vec![l(1)]])
            .collect();
        let rates = max_min_rates(&flows, |link| if link.0 == 0 { cap0 } else { 4e10 });
        let fair = cap0 / shared as f64;
        for r in &rates[..shared] {
            assert!(
                (r / fair - 1.0).abs() < 1e-6,
                "shared-link flow got {r}, want ~{fair}"
            );
        }
        assert!(
            (rates[shared] / 4e10 - 1.0).abs() < 1e-6,
            "solo flow got {}, want ~4e10",
            rates[shared]
        );
        // Feasibility at scale: the shared link is not oversubscribed.
        let usage: f64 = rates[..shared].iter().sum();
        assert!(usage <= cap0 * (1.0 + 1e-9), "shared link over capacity");
    }

    #[test]
    fn scratch_reuse_tracks_incremental_changes() {
        // Exercise the WaterFiller lifecycle the simulator relies on:
        // add/solve, stall, re-route, remove, id recycling.
        let mut wf = WaterFiller::new();
        let a = wf.link_index(l(0), 10.0);
        let b = wf.link_index(l(1), 4.0);
        let f0 = wf.add_flow(vec![a, b]);
        let f1 = wf.add_flow(vec![a]);
        wf.solve();
        // Link 1 (cap 4, 1 flow) vs link 0 (cap 10, 2 flows): f0 takes 4,
        // f1 the remaining 6.
        assert!((wf.rate(f0) - 4.0).abs() < 1e-9);
        assert!((wf.rate(f1) - 6.0).abs() < 1e-9);

        // Stall f0: f1 gets the whole of link 0.
        wf.set_stalled(f0, true);
        wf.solve();
        assert_eq!(wf.rate(f0), 0.0);
        assert!((wf.rate(f1) - 10.0).abs() < 1e-9);

        // Resume f0 on a new path avoiding link 1.
        wf.set_stalled(f0, false);
        wf.set_links(f0, vec![a]);
        wf.solve();
        assert!((wf.rate(f0) - 5.0).abs() < 1e-9);
        assert!((wf.rate(f1) - 5.0).abs() < 1e-9);

        // Remove f1; its id is recycled for the next arrival.
        wf.remove_flow(f1);
        let f2 = wf.add_flow(vec![b]);
        assert_eq!(f2, f1);
        wf.solve();
        assert!((wf.rate(f0) - 10.0).abs() < 1e-9);
        assert!((wf.rate(f2) - 4.0).abs() < 1e-9);

        // Capacity refresh on re-intern.
        assert_eq!(wf.link_index(l(1), 8.0), b);
        wf.solve();
        assert!((wf.rate(f2) - 8.0).abs() < 1e-9);
        assert_eq!(wf.link_count(), 2);
        assert_eq!(wf.link_id(a as usize), l(0));
    }

    #[test]
    fn capacity_change_on_an_unused_link_takes_effect() {
        // A link that carries no flow when its capacity changes has nothing
        // in the log to undo, yet the next flow to cross it must see the
        // new capacity, not the headroom the link was left with.
        let mut wf = WaterFiller::new();
        let a = wf.link_index(l(0), 4.0);
        let b = wf.link_index(l(1), 10.0);
        let f0 = wf.add_flow(vec![a, b]);
        let f1 = wf.add_flow(vec![b]);
        wf.solve();
        assert_eq!((wf.rate(f0), wf.rate(f1)), (4.0, 6.0));

        // Link a empties, then changes capacity while unused.
        wf.remove_flow(f0);
        wf.solve();
        assert_eq!(wf.link_index(l(0), 2.0), a);
        wf.solve();
        let f2 = wf.add_flow(vec![a]);
        wf.solve();
        assert_eq!(wf.rate(f2), 2.0);

        // The same for a link no flow has crossed yet.
        let c = wf.link_index(l(2), 7.0);
        assert_eq!(wf.link_index(l(2), 3.0), c);
        let f3 = wf.add_flow(vec![c, b]);
        wf.solve();
        assert_eq!((wf.rate(f3), wf.rate(f1)), (3.0, 7.0));
    }

    #[test]
    fn solve_stats_count_rounds_and_touches() {
        let mut wf = WaterFiller::new();
        let a = wf.link_index(l(0), 1.0);
        let b = wf.link_index(l(1), 2.0);
        let f0 = wf.add_flow(vec![a, b]);
        let _f1 = wf.add_flow(vec![a]);
        let f2 = wf.add_flow(vec![b]);
        wf.solve();
        let s = wf.last_solve_stats();
        // Classic two-round instance: link 0 saturates first, then link 1.
        assert_eq!(s.active_flows, 3);
        assert_eq!(s.rounds, 2);
        assert_eq!(s.links_used, 2);
        assert_eq!(s.flows_touched, 3, "three add_flow calls since last solve");

        // No mutations between solves → zero touched; a stall + reroute +
        // remove → three.
        wf.solve();
        assert_eq!(wf.last_solve_stats().flows_touched, 0);
        wf.set_stalled(f0, true);
        wf.set_stalled(f0, true); // no-op: already stalled, not a touch
        wf.set_links(f0, vec![a]);
        wf.remove_flow(f2);
        wf.solve();
        assert_eq!(wf.last_solve_stats().flows_touched, 3);

        // A round is one saturation batch: links saturating at one level
        // within epsilon count once. One solo flow per link here, so link i
        // saturates at its capacity.
        let rounds_for = |caps: &[f64]| {
            let mut wf = WaterFiller::new();
            for (i, &cap) in (0u32..).zip(caps) {
                let li = wf.link_index(l(i), cap);
                wf.add_flow(vec![li]);
            }
            wf.solve();
            wf.last_solve_stats().rounds
        };
        // Exact tie, and a tie within EPS_FRACTION of capacity: one batch.
        assert_eq!(rounds_for(&[1.0, 1.0]), 1);
        assert_eq!(rounds_for(&[1.0, 1.0 + 1e-10]), 1);
        // Apart by more than epsilon: two batches.
        assert_eq!(rounds_for(&[1.0, 1.0 + 1e-6]), 2);
        // The 1e4 link widens the gather window to 1e-5 above level 1, so
        // the 1 + 1e-6 link is popped with the first batch but fails its
        // own epsilon: it must go back and saturate in a round of its own.
        assert_eq!(rounds_for(&[1.0, 1.0 + 1e-6, 1e4]), 3);
    }

    #[test]
    fn repeated_solves_reuse_scratch() {
        // After one warm-up solve, solving the same flow set again — as is,
        // or after a flow leaves and an identical one takes its recycled
        // id — must not grow any buffer: the log, the trail, the member
        // lists and the heap are reused, and the solve allocates nothing.
        let mut wf = WaterFiller::new();
        let links: Vec<u32> = (0..24)
            .map(|i| wf.link_index(l(i), 1.0 + f64::from(i % 5)))
            .collect();
        let path = |i: usize| {
            vec![
                links[i % 24],
                links[(i * 7 + 3) % 24],
                links[(i * 5 + 11) % 24],
            ]
        };
        for i in 0..60usize {
            wf.add_flow(path(i));
        }
        wf.add_flow(Vec::new());
        let stalled = wf.add_flow(vec![links[0]]);
        wf.set_stalled(stalled, true);
        let capacities = |wf: &WaterFiller| {
            let mut caps = vec![
                wf.headroom.capacity(),
                wf.live.capacity(),
                wf.members.capacity(),
                wf.log.capacity(),
                wf.order.capacity(),
                wf.trail.capacity(),
                wf.fresh.capacity(),
                wf.seed.capacity(),
                wf.seeded.capacity(),
                wf.shares.capacity(),
                wf.heap.capacity(),
                wf.batch.capacity(),
                wf.deferred.capacity(),
                wf.frozen.capacity(),
                wf.rate.capacity(),
            ];
            caps.extend(wf.members.iter().map(Vec::capacity));
            caps
        };
        wf.solve();
        let rates: Vec<f64> = (0..62).map(|fid| wf.rate(fid)).collect();
        // One churn round to warm the join path's scratch.
        wf.remove_flow(7);
        assert_eq!(wf.add_flow(path(7)), 7);
        wf.solve();
        let warm = capacities(&wf);
        for _ in 0..5 {
            wf.solve();
            assert_eq!(capacities(&wf), warm);
            assert_eq!(wf.last_solve_stats().replayed, 60, "nothing changed");
            wf.remove_flow(7);
            assert_eq!(wf.add_flow(path(7)), 7);
            wf.solve();
            assert_eq!(capacities(&wf), warm);
        }
        let again: Vec<f64> = (0..62).map(|fid| wf.rate(fid)).collect();
        assert_eq!(again, rates, "re-solving an unchanged set is idempotent");
    }

    #[test]
    fn stalled_flow_with_no_links_stays_at_zero() {
        // A flow that arrived unroutable: no links, stalled. It must not
        // report the INFINITY of an empty-path *running* flow.
        let mut wf = WaterFiller::new();
        let f = wf.add_flow(Vec::new());
        wf.set_stalled(f, true);
        wf.solve();
        assert_eq!(wf.rate(f), 0.0);
        wf.set_stalled(f, false);
        wf.solve();
        assert!(wf.rate(f).is_infinite());
    }
}
