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
//! # Warm restart: the reach walk
//!
//! A [`WaterFiller`] keeps its last solve as a *freeze log*: the saturation
//! batches in level order, each with its level, the flows it froze and the
//! links that saturated in it. The next solve redoes only the batches its
//! mutations can reach (the bottleneck precedence of Ros-Giralt et al.,
//! "On the Bottleneck Structure of Congestion-Controlled Networks",
//! SIGMETRICS 2020) and keeps every other batch bit for bit.
//!
//! Reach is found while the filling runs, not from the old log: a link that
//! never saturated can still become a bottleneck once a flow's new rate
//! uses up its slack. A link is *dirty* once its chain of headroom
//! subtractions may differ from the log's; only dirty links sit in the
//! heap. A link becomes dirty
//!
//! * when a flow joins it or its capacity changes;
//! * when a flow leaves it, once the water nears the flow's logged rate:
//!   until then the link's level only rose, so it sleeps in the heap at that
//!   rate;
//! * when a flow crossing it freezes at a rate whose bits differ from its
//!   logged rate, or has not frozen by the time the water passes that rate;
//! * when it saturated in a batch the walk reached.
//!
//! The walk merges the log with the heap in level order. A logged batch is
//! *kept* when none of its saturating links is dirty or crossed by a flow of
//! a reached batch still waiting to freeze (each link counts those), and no
//! dirty link saturates within the gather epsilon of its level; its flows
//! keep their rates. Otherwise the batch is *reached*: its links turn dirty
//! and its flows wait to freeze again. One that freezes at its logged rate
//! reaches nothing further. A solve with no mutation keeps every batch, and
//! the batches below the first dirty level pass the same test one by one.
//!
//! Kept and redone batches are bit-identical to a solve from scratch. Within
//! one solve levels never fall, so a link's headroom is its capacity minus
//! its frozen flows' rates in ascending order (equal rates commute). A dirty
//! link re-derives its headroom that way from its member flows when it
//! turns dirty or is read after kept batches, and takes each subtraction of
//! a redone batch as it happens. A first solve is the same walk over an
//! empty log. The walk reads the last solve's log and writes the new one
//! into a second list of batches, and the two swap when it ends; a kept
//! batch moves by its slot id alone.
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
use std::collections::BinaryHeap;

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

/// `WaterFiller::index_of` entry of a `LinkId` not interned yet.
const UNINTERNED: u32 = u32::MAX;

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
    /// Flow freezes kept from the previous solve's log: the flows of every
    /// batch the reach walk did not reach, below the first dirty saturation
    /// or above it (`0` on a solve from scratch).
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

/// One saturation batch of the freeze log, in a slot that keeps its id
/// while the batch is kept, so each logged flow can name its batch. A freed
/// slot keeps its lists' capacity for the next batch it holds.
#[derive(Debug, Default)]
struct Batch {
    /// The water level the batch froze its flows at.
    level: f64,
    /// The lowest link level when the batch began: `level` is the larger of
    /// this and the level before.
    first: f64,
    /// The flows it froze.
    flows: Vec<usize>,
    /// The links that saturated in it.
    sat: Vec<u32>,
    /// The last solve that kept it: its flows froze once the walk read past
    /// it.
    kept: u32,
}

/// Where a flow stands in the current solve's walk. Flows without a mark
/// of this solve are either still waiting for their logged batch (if the
/// log holds them) or joined since the last solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mark {
    /// Frozen in this solve, kept or afresh.
    Done,
    /// Its logged batch was reached, and it waits to freeze again: no batch
    /// with a saturating link it crosses is kept until it does, or the water
    /// passes its logged rate and it turns loose.
    Pending,
    /// Unfrozen, with every link it crosses dirty.
    Loose,
}

/// A heap entry: the water level at which dirty `link` saturates, as of
/// the push; the key may lag below the link's level now (see
/// [`WaterFiller::next_level`]). Or, `asleep`, the level below which a clean
/// link that a flow left cannot matter. The heap holds at most one entry
/// per dirty link, besides sleeping ones.
#[derive(Clone, Copy, Debug)]
struct Level {
    t: f64,
    link: u32,
    asleep: bool,
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
    /// `LinkId.0` → dense index ([`UNINTERNED`] if none yet); persistent
    /// across solves. `LinkId`s are dense (a `Network` numbers its links
    /// from 0), so a flat table beats a tree lookup per path hop.
    index_of: Vec<u32>,
    /// Dense index → `LinkId` (inverse of `index_of`).
    link_of: Vec<LinkId>,
    /// Dense index → capacity in bits/s (refreshed on `link_index`).
    capacity: Vec<f64>,
    /// The largest capacity ever interned: bounds the batch gather window.
    cap_max: f64,
    /// Dense index → the running flows crossing the link, in no order.
    members: Vec<Vec<usize>>,
    /// Links whose member list is non-empty.
    links_used: u64,
    /// Capacity minus the rates frozen on the link so far in the walk. Only
    /// a dirty link's entry is current.
    headroom: Vec<f64>,
    /// A dirty link's member flows not frozen yet in the walk.
    live: Vec<u32>,
    /// Per dirty link, the `ticks` its headroom and live count are
    /// current at: kept batches do not touch them until it is read.
    synced: Vec<u64>,
    /// Batches kept so far, over all solves.
    ticks: u64,
    /// Per link, how many flows crossing it wait to freeze again.
    pending_on: Vec<u32>,
    /// Per link, whether this solve's walk made it dirty.
    dirty: Vec<bool>,
    /// The links made dirty this solve, to clear their flags.
    dirtied: Vec<u32>,
    /// Batch slots; the log's batches and free ones.
    batches: Vec<Batch>,
    /// Free batch slots.
    spare: Vec<u32>,
    /// The freeze log of the last solve, which the next one reads: its
    /// batch slots in level order.
    log: Vec<u32>,
    /// The log the running solve writes; it replaces `log` when the solve
    /// ends.
    next: Vec<u32>,
    /// The index in `log` the walk reads next.
    read: usize,
    /// Flows the last solve froze afresh, in freeze order.
    refrozen: Vec<usize>,
    /// Flows of reached batches, in log order, so by logged rate.
    pending: Vec<usize>,
    /// Flows that joined a link set since the last solve (may repeat or be
    /// stale; the solve filters them).
    fresh: Vec<usize>,
    /// Links a flow left since the last solve, each with the flow's logged
    /// rate, and links whose capacity changed, with `0.0` (as for a flow the
    /// log did not hold); may repeat.
    seed: Vec<(f64, u32)>,
    /// Scratch: frozen rates on one link, for re-deriving its headroom.
    shares: Vec<f64>,
    /// Scratch: min-heap of the dirty links' saturation levels, updated
    /// lazily.
    heap: BinaryHeap<Level>,
    /// Scratch: entries popped while gathering a batch that did not join it.
    deferred: Vec<Level>,
    /// Flow registry, indexed by the ids `add_flow` hands out.
    flows: Vec<FlowEntry>,
    /// Recycled flow ids.
    free: Vec<usize>,
    /// Per flow id, whether the log froze it and it has not left since.
    logged: Vec<bool>,
    /// Per logged flow id, its batch slot.
    batch_of: Vec<u32>,
    /// Per flow id, the solve that last marked it, and how.
    marks: Vec<(u32, Mark)>,
    /// The running solve's number, for `marks` and each batch's `kept`.
    epoch: u32,
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
        WaterFiller::default()
    }

    /// Intern `link`, returning its dense index. The capacity is recorded,
    /// and refreshed on every call — callers re-intern a link whenever the
    /// environment may have changed it. A changed capacity makes the link
    /// dirty in the next solve.
    pub fn link_index(&mut self, link: LinkId, capacity_bps: f64) -> u32 {
        self.cap_max = self.cap_max.max(capacity_bps);
        let id = link.0 as usize;
        let i = self.index_of.get(id).copied().unwrap_or(UNINTERNED);
        if i != UNINTERNED {
            let l = i as usize;
            if self.capacity[l].to_bits() != capacity_bps.to_bits() {
                self.capacity[l] = capacity_bps;
                self.seed.push((0.0, i));
            }
            return i;
        }
        // Bounded by the number of distinct links ever interned.
        #[allow(clippy::cast_possible_truncation)]
        let i = self.link_of.len() as u32;
        if id >= self.index_of.len() {
            self.index_of.resize(id + 1, UNINTERNED);
        }
        self.index_of[id] = i;
        self.link_of.push(link);
        self.capacity.push(capacity_bps);
        self.members.push(Vec::new());
        self.headroom.push(capacity_bps);
        self.live.push(0);
        self.synced.push(0);
        self.pending_on.push(0);
        self.dirty.push(false);
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
                self.logged.push(false);
                self.batch_of.push(0);
                self.marks.push((0, Mark::Done));
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
        if self.flows[fid].links == links {
            return;
        }
        self.touched += 1;
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

    /// The flows the most recent [`WaterFiller::solve`] froze afresh, in
    /// freeze order: the flows of every batch the walk reached or added.
    /// Kept flows hold their rates bit for bit, so these are the only
    /// flows whose rate a solve can change, though they are scattered
    /// through the log. (A mutation sets some rates itself: a removal or a
    /// stall to `0.0`, a running flow with no links to `f64::INFINITY`.)
    pub fn refrozen(&self) -> &[usize] {
        &self.refrozen
    }

    /// Running flow `fid` joins the member list of every link on its path.
    fn join(&mut self, fid: usize) {
        let Self {
            flows,
            members,
            links_used,
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
        }
    }

    /// Running flow `fid` leaves the member list of every link on its
    /// path; the next solve puts those links to sleep at its logged rate.
    fn leave(&mut self, fid: usize) {
        let Self {
            flows,
            members,
            links_used,
            logged,
            seed,
            active,
            rate,
            ..
        } = self;
        let links = &flows[fid].links;
        if links.is_empty() {
            return;
        }
        *active -= 1;
        let r = if logged[fid] { rate[fid] } else { 0.0 };
        logged[fid] = false;
        for &li in links {
            let m = &mut members[li as usize];
            #[expect(clippy::expect_used, reason = "a running flow is on its links' lists")]
            let pos = m
                .iter()
                .position(|&g| g == fid)
                .expect("flow on its link's list");
            m.swap_remove(pos);
            if m.is_empty() {
                *links_used -= 1;
            }
            seed.push((r, li));
        }
    }

    /// Whether flow `g` froze earlier in the running solve: marked so, or
    /// logged in a batch the walk kept.
    fn done(&self, g: usize) -> bool {
        match self.marks[g] {
            (e, mark) if e == self.epoch => mark == Mark::Done,
            _ => self.logged[g] && self.batches[self.batch_of[g] as usize].kept == self.epoch,
        }
    }

    /// Re-derive link `l`'s headroom from the rates its member flows froze
    /// at so far, in ascending order, and count the rest.
    fn derive(&mut self, l: usize) {
        self.synced[l] = self.ticks;
        let mut shares = std::mem::take(&mut self.shares);
        shares.clear();
        let mut live = 0u32;
        for &g in &self.members[l] {
            if self.done(g) {
                shares.push(self.rate[g]);
            } else {
                live += 1;
            }
        }
        shares.sort_unstable_by(f64::total_cmp);
        let mut headroom = self.capacity[l];
        for &r in &shares {
            headroom -= r;
        }
        self.shares = shares;
        self.headroom[l] = headroom;
        self.live[l] = live;
    }

    /// Dirty link `l`'s level now, after the batches kept since it was
    /// last read; `None` once its flows all froze.
    fn level_of(&mut self, l: usize) -> Option<f64> {
        if self.synced[l] != self.ticks {
            self.derive(l);
        }
        (self.live[l] > 0).then(|| self.headroom[l] / f64::from(self.live[l]))
    }

    /// Whether the logged batch in slot `s` can be kept as far as its
    /// saturating links go: none is dirty, and none is crossed by a pending
    /// flow.
    fn clean(&self, s: u32) -> bool {
        self.batches[s as usize]
            .sat
            .iter()
            .all(|&l| !self.dirty[l as usize] && self.pending_on[l as usize] == 0)
    }

    /// Flow `g` starts or stops waiting to freeze again.
    fn set_pending(&mut self, g: usize, on: bool) {
        for &l in &self.flows[g].links {
            let n = &mut self.pending_on[l as usize];
            if on {
                *n += 1;
            } else {
                *n -= 1;
            }
        }
    }

    /// Make link `l` dirty and queue its level.
    fn make_dirty(&mut self, l: usize) {
        if self.dirty[l] {
            return;
        }
        self.dirty[l] = true;
        #[allow(clippy::cast_possible_truncation)]
        self.dirtied.push(l as u32);
        self.derive(l);
        if let Some(t) = self.level_of(l) {
            #[allow(clippy::cast_possible_truncation)]
            self.heap.push(Level {
                t,
                link: l as u32,
                asleep: false,
            });
        }
    }

    /// The lowest dirty link level. Heap keys only ever lag below the true
    /// level (freezing a flow never lowers a link's level), so the top is
    /// re-keyed in place until it holds; a link with no unfrozen flows
    /// left is dropped, and a sleeping one is woken: made dirty, at its
    /// level now. `INFINITY` when no dirty link has unfrozen flows.
    fn next_level(&mut self) -> f64 {
        while let Some(&top) = self.heap.peek() {
            let l = top.link as usize;
            if top.asleep {
                self.heap.pop();
                self.make_dirty(l);
                continue;
            }
            match self.level_of(l) {
                None => {
                    self.heap.pop();
                }
                Some(t) if t.to_bits() == top.t.to_bits() => return t,
                Some(t) => {
                    if let Some(mut e) = self.heap.peek_mut() {
                        e.t = t;
                    }
                }
            }
        }
        f64::INFINITY
    }

    /// The slot of the logged batch the walk reads next.
    fn unread(&self) -> Option<u32> {
        self.log.get(self.read).copied()
    }

    /// Keep the batch in slot `s`, the next unread: its flows hold their
    /// rates, and it moves to the new log. Returns how many flows it froze.
    fn keep(&mut self, s: u32) -> u64 {
        let b = &mut self.batches[s as usize];
        b.kept = self.epoch;
        self.next.push(s);
        self.read += 1;
        self.ticks += 1;
        b.flows.len() as u64
    }

    /// Reach the batch in slot `s`, the next unread, and free the slot: its
    /// saturating links turn dirty, and its flows wait to freeze again.
    fn reach(&mut self, s: u32) {
        let b = s as usize;
        for i in 0..self.batches[b].flows.len() {
            let g = self.batches[b].flows[i];
            // A flow that left, or froze afresh already, waits for nothing.
            if !self.logged[g] || self.marks[g].0 == self.epoch {
                continue;
            }
            self.marks[g] = (self.epoch, Mark::Pending);
            self.set_pending(g, true);
            self.pending.push(g);
        }
        for i in 0..self.batches[b].sat.len() {
            self.make_dirty(self.batches[b].sat[i] as usize);
        }
        self.spare.push(s);
        self.read += 1;
    }

    /// Before a batch at `level`: every pending flow logged below it has
    /// missed its rate, so the links it crosses turn dirty. Returns whether
    /// any did (the heap changed).
    fn overdue(&mut self, head: &mut usize, level: f64) -> bool {
        let mut any = false;
        while let Some(&g) = self.pending.get(*head) {
            if self.rate[g] >= level {
                break;
            }
            *head += 1;
            if self.marks[g] != (self.epoch, Mark::Pending) {
                continue;
            }
            self.marks[g] = (self.epoch, Mark::Loose);
            self.set_pending(g, false);
            any = true;
            for i in 0..self.flows[g].links.len() {
                self.make_dirty(self.flows[g].links[i] as usize);
            }
        }
        any
    }

    /// Freeze flow `g` at `level` into the batch in slot `s`. A pending
    /// flow that freezes at its logged rate changes no link's chain; any
    /// other flow makes every link it crosses dirty.
    fn freeze(&mut self, g: usize, level: f64, s: u32) {
        let pending = self.marks[g] == (self.epoch, Mark::Pending);
        if pending {
            self.set_pending(g, false);
        }
        let same = pending && self.rate[g].to_bits() == level.to_bits();
        self.marks[g] = (self.epoch, Mark::Done);
        self.logged[g] = true;
        self.batch_of[g] = s;
        self.rate[g] = level;
        self.batches[s as usize].flows.push(g);
        self.refrozen.push(g);
        for i in 0..self.flows[g].links.len() {
            let m = self.flows[g].links[i] as usize;
            if self.dirty[m] {
                // A stale link re-derives its state when next read.
                if self.synced[m] == self.ticks {
                    self.headroom[m] -= level;
                    self.live[m] -= 1;
                }
            } else if !same {
                self.make_dirty(m);
            }
        }
    }

    /// Form a batch at `level` from the dirty links: the heap's top, whose
    /// own level is `first`, and every further link whose remaining
    /// headroom at `level` is within epsilon of zero. Freezes their
    /// unfrozen flows and returns how many.
    fn fill(&mut self, level: f64, first: f64) -> u64 {
        let s = self.spare.pop().unwrap_or_else(|| {
            self.batches.push(Batch::default());
            #[allow(clippy::cast_possible_truncation)]
            let s = self.batches.len() as u32 - 1;
            s
        });
        let mut batch = std::mem::take(&mut self.batches[s as usize].sat);
        batch.clear();
        if let Some(top) = self.heap.pop() {
            batch.push(top.link);
        }
        // A gathered link's level lies at most EPS_FRACTION · cap / live
        // above, so nothing past EPS_FRACTION · cap_max can qualify.
        let reach = level + EPS_FRACTION * self.cap_max;
        while self.heap.peek().is_some_and(|e| e.t <= reach) {
            let Some(Level { link, asleep, .. }) = self.heap.pop() else {
                break;
            };
            let l = link as usize;
            if asleep {
                self.make_dirty(l);
                continue;
            }
            let Some(t) = self.level_of(l) else { continue };
            if f64::from(self.live[l]) * (t - level) <= EPS_FRACTION * self.capacity[l] {
                batch.push(link);
            } else {
                self.deferred.push(Level {
                    t,
                    link,
                    asleep: false,
                });
            }
        }
        self.heap.extend(self.deferred.drain(..));

        self.batches[s as usize].flows.clear();
        // The other links the flows cross keep their old, lower heap keys
        // until they surface.
        let mut froze = 0;
        for &li in &batch {
            let l = li as usize;
            for i in 0..self.members[l].len() {
                let g = self.members[l][i];
                if !self.done(g) {
                    self.freeze(g, level, s);
                    froze += 1;
                }
            }
        }
        let b = &mut self.batches[s as usize];
        b.level = level;
        b.first = first;
        b.sat = batch;
        b.kept = 0;
        self.next.push(s);
        froze
    }

    /// Start a solve: a new mark epoch, and the links the mutations since
    /// the last solve touched made dirty or put to sleep.
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.marks.fill((0, Mark::Done));
            for b in &mut self.batches {
                b.kept = 0;
            }
            self.epoch = 1;
        }
        self.heap.clear();
        self.refrozen.clear();
        self.pending.clear();
        let mut fresh = std::mem::take(&mut self.fresh);
        for fid in fresh.drain(..) {
            if self.flows[fid].running {
                for i in 0..self.flows[fid].links.len() {
                    self.make_dirty(self.flows[fid].links[i] as usize);
                }
            }
        }
        self.fresh = fresh;
        // Until the water nears the logged rate of a flow that left a link,
        // the link's level only rose, and it saturated no lower: it sleeps in
        // the heap, clean, until `next_level` or `fill` reaches it. A
        // capacity change wakes first.
        let margin = EPS_FRACTION * self.cap_max;
        for (r, link) in self.seed.drain(..) {
            if !self.dirty[link as usize] {
                self.heap.push(Level {
                    t: r - margin,
                    link,
                    asleep: true,
                });
            }
        }
    }

    /// End a solve: free the batches the walk never read (their flows all
    /// froze afresh), swap the new log in, clear the dirty flags.
    fn end(&mut self) {
        self.spare.extend_from_slice(&self.log[self.read..]);
        std::mem::swap(&mut self.log, &mut self.next);
        self.next.clear();
        self.read = 0;
        for &l in &self.dirtied {
            self.dirty[l as usize] = false;
        }
        self.dirtied.clear();
    }

    /// Compute max-min fair rates for the current flow set into the
    /// per-flow [`WaterFiller::rate`] slots.
    ///
    /// Walks the previous solve's log and the dirty links in level order,
    /// keeping every batch the mutations since then cannot reach and
    /// refilling the rest (see the module docs). Allocation-free once warm:
    /// the log, the member lists and the heap are all reused.
    pub fn solve(&mut self) {
        self.begin();
        // A dirty link this close to a logged level may join its batch.
        let margin = EPS_FRACTION * self.cap_max;
        let mut level = 0.0_f64;
        let mut head = 0usize;
        let mut kept = 0u64;
        // Once every flow froze, whatever is left is dead.
        let mut unfrozen = self.active;
        while unfrozen > 0 {
            // Heap keys lag below their links' levels, so the top key bounds
            // every dirty level: settle it only when it nears the next
            // logged batch.
            let bound = self.heap.peek().map_or(f64::INFINITY, |e| e.t);
            let t = match self.unread() {
                Some(s) if bound > self.batches[s as usize].level + margin => bound,
                _ => self.next_level(),
            };
            // Levels never fall; the max only absorbs float residue.
            let fill_at = level.max(t);
            if let Some(s) = self.unread() {
                let b = &self.batches[s as usize];
                let (logged, first) = (b.level, b.first);
                if fill_at >= first - margin {
                    // The logged batch comes first, or the dirty links
                    // saturate close enough to merge with it. Settling the
                    // heap can have woken one of its links.
                    if t > logged + margin
                        && level.max(first).to_bits() == logged.to_bits()
                        && self.clean(s)
                    {
                        if self.overdue(&mut head, logged) {
                            continue;
                        }
                        let n = self.keep(s);
                        kept += n;
                        unfrozen -= n;
                        level = logged;
                    } else {
                        self.reach(s);
                    }
                    continue;
                }
            }
            if t == f64::INFINITY {
                break;
            }
            if self.overdue(&mut head, fill_at) {
                continue;
            }
            unfrozen -= self.fill(fill_at, t);
            level = fill_at;
        }
        self.end();

        self.last_stats = SolveStats {
            active_flows: self.active,
            rounds: u64::try_from(self.log.len()).unwrap_or(u64::MAX),
            links_used: self.links_used,
            flows_touched: self.touched,
            replayed: kept,
        };
        self.touched = 0;
        #[cfg(feature = "strict-invariants")]
        self.check_allocation();
    }

    /// Re-check the allocation the last solve produced, from the rates
    /// alone: no link carries more than its capacity, and every running
    /// flow with links crosses a saturated link (otherwise its rate could
    /// still rise). Tolerances are relative to capacity, 1e-6 either way.
    /// Also checks the log: it holds every running flow once, in batches of
    /// rising level, and every link saturates at most once. The walk must
    /// leave no link dirty and no flow waiting to freeze again.
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
            assert!(
                self.logged[fid],
                "max-min: running flow {fid} left unfrozen"
            );
            for &li in &fe.links {
                load[li as usize] += self.rate[fid];
            }
        }
        let mut saturated = vec![false; self.link_of.len()];
        let (mut logged, mut level) = (0, 0.0);
        for &s in &self.log {
            let b = &self.batches[s as usize];
            assert!(b.level >= level, "max-min: batch {s} below the one before");
            level = b.level;
            logged += b.flows.len();
            for &g in &b.flows {
                assert_eq!(self.batch_of[g], s, "max-min: flow {g} names another batch");
            }
            for &l in &b.sat {
                assert!(
                    !std::mem::replace(&mut saturated[l as usize], true),
                    "max-min: link {l} saturates twice"
                );
            }
        }
        assert_eq!(
            logged,
            usize::try_from(self.active).unwrap_or(usize::MAX),
            "max-min: the log does not hold every running flow once"
        );
        for (l, &link) in self.link_of.iter().enumerate() {
            assert!(
                !self.dirty[l] && self.pending_on[l] == 0,
                "max-min: link {link:?} left dirty or with flows pending"
            );
            assert!(
                load[l] <= self.capacity[l] * (1.0 + 1e-6),
                "max-min: link {link:?} carries {} over capacity {}",
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
    use std::collections::BTreeMap;

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
            .map(|i| vec![l(i % 5), l(5 + (i * 7) % 3), l(8 + (i * 3) % 4)])
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
            let blocked = links.iter().any(|link| usage[link] >= cap(*link) - 1e-6);
            assert!(blocked, "flow not blocked by any saturated link");
        }
    }

    #[test]
    fn fair_share_respects_weights_of_path_length() {
        // A long flow crossing two congested links gets the min of its
        // bottleneck shares, not less.
        let flows = vec![vec![l(0), l(1)], vec![l(0)], vec![l(0)], vec![l(1)]];
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
        wf.set_links(f0, vec![a]); // no-op: same path, not a touch
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
                wf.synced.capacity(),
                wf.dirty.capacity(),
                wf.dirtied.capacity(),
                wf.members.capacity(),
                wf.batches.capacity(),
                wf.spare.capacity(),
                // The two logs swap each solve.
                wf.log.capacity() + wf.next.capacity(),
                wf.pending_on.capacity(),
                wf.batch_of.capacity(),
                wf.refrozen.capacity(),
                wf.pending.capacity(),
                wf.fresh.capacity(),
                wf.seed.capacity(),
                wf.shares.capacity(),
                wf.heap.capacity(),
                wf.deferred.capacity(),
                wf.logged.capacity(),
                wf.marks.capacity(),
                wf.rate.capacity(),
            ];
            caps.extend(wf.members.iter().map(Vec::capacity));
            caps.extend(wf.batches.iter().map(|b| b.flows.capacity()));
            caps.extend(wf.batches.iter().map(|b| b.sat.capacity()));
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
    fn a_mutation_keeps_the_batches_it_cannot_reach() {
        // Two regions that share no link: four flows on a 1.0 link saturate
        // at 0.25, three on a 30.0 link at 10.0. An arrival in the low
        // region moves its level, but no flow of the high region crosses a
        // link it reaches, so the high batch is kept, not refrozen — even
        // though it lies above every level the arrival changed.
        let mut wf = WaterFiller::new();
        let low = wf.link_index(l(0), 1.0);
        let high = wf.link_index(l(1), 30.0);
        let lows: Vec<usize> = (0..4).map(|_| wf.add_flow(vec![low])).collect();
        let highs: Vec<usize> = (0..3).map(|_| wf.add_flow(vec![high])).collect();
        wf.solve();
        assert_eq!(wf.rate(lows[0]), 0.25);
        assert_eq!(wf.rate(highs[0]), 10.0);

        let arrival = wf.add_flow(vec![low]);
        wf.solve();
        assert_eq!(wf.rate(arrival), 0.2);
        let refrozen: Vec<usize> = wf.refrozen().to_vec();
        for fid in &highs {
            assert!(
                !refrozen.contains(fid),
                "high flow {fid} refrozen: {refrozen:?}"
            );
            assert_eq!(wf.rate(*fid), 10.0);
        }
        assert_eq!(refrozen.len(), 5, "the low region refreezes: {refrozen:?}");
        let stats = wf.last_solve_stats();
        assert_eq!(stats.replayed, 3, "the high batch is kept");
        assert_eq!(stats.rounds, 2);

        // The other way round: a departure from the high region keeps the
        // low batch below it.
        wf.remove_flow(highs[0]);
        wf.solve();
        assert_eq!(wf.rate(highs[1]), 15.0);
        assert_eq!(wf.last_solve_stats().replayed, 5);
        assert_eq!(wf.refrozen().len(), 2);
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
