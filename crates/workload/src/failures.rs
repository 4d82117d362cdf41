//! Failure injection following the paper's failure model.
//!
//! Gill et al. (SIGCOMM'11), which the paper leans on throughout: failures
//! in data centers are *rare* (most devices have >99.99% availability),
//! *transient* (most last only a few minutes), and *independent*. The §2.2
//! study therefore injects exactly one node or link failure per 5-minute
//! trace partition; the capacity analysis (§5.1) sizes the backup pool
//! against the 0.01% failure rate.
//!
//! This module provides both: node and link sampling for single-failure
//! scenarios, and a Poisson failure/repair process for long-running
//! simulations.
//!
//! The chaos extensions deliberately *violate* the Gill et al.
//! independence assumption: [`FailureInjector::burst_process`] injects
//! correlated bursts inside a shared fault domain (a pod sharing a power
//! feed or a firmware rollout wave), and
//! [`FailureInjector::flapping_process`] models links oscillating between
//! up and down with configurable dwell times. [`ChaosProfile`] bundles all
//! three processes behind one knob set whose [`ChaosProfile::quiet`]
//! default is provably inert (no events, no RNG draws).

use sharebackup_sim::{Duration, SimRng, Time};
use sharebackup_topo::{LinkId, Network, NodeId};

/// What failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// A whole switch died.
    Node(NodeId),
    /// A single link died.
    Link(LinkId),
}

/// One failure with its outage window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailureEvent {
    /// What failed.
    pub kind: FailureKind,
    /// When it fails.
    pub at: Time,
    /// How long until repaired.
    pub duration: Duration,
}

impl FailureEvent {
    /// The repair instant.
    pub fn repaired_at(&self) -> Time {
        self.at + self.duration
    }
}

/// One controller-replica crash with its outage window — the control-plane
/// counterpart of [`FailureEvent`], consumed by scenario builders that
/// carry a `sharebackup_core` `FailoverPlane` (mapped to
/// `ControllerCrash`/`ControllerRestore` epoch events).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ControllerCrashEvent {
    /// Which replica crashes (index into the cluster).
    pub replica: usize,
    /// When it crashes.
    pub at: Time,
    /// How long until it is restored.
    pub duration: Duration,
}

impl ControllerCrashEvent {
    /// The restore instant.
    pub fn restored_at(&self) -> Time {
        self.at + self.duration
    }
}

/// Generate a controller-replica crash/restore schedule over `horizon`:
/// exponential inter-arrival between crashes (mean
/// [`ChaosProfile::controller_crash_interarrival`]), a uniformly chosen
/// victim among `replicas`, and an exponential outage with mean
/// [`ChaosProfile::controller_crash_dwell`]. Crashing an already-down
/// replica is deliberately possible — the plane treats it as an idempotent
/// no-op, and that path deserves chaos coverage too.
///
/// All draws come from the `"chaos-controller"` child stream of `rng`, so
/// enabling this component never perturbs the data-plane chaos schedules
/// (and a disabled component — `None` inter-arrival or zero replicas —
/// consumes no randomness at all).
pub fn controller_crash_process(
    rng: &SimRng,
    horizon: Time,
    replicas: usize,
    profile: &ChaosProfile,
) -> Vec<ControllerCrashEvent> {
    let Some(mean_interarrival) = profile.controller_crash_interarrival else {
        return Vec::new();
    };
    if replicas == 0 {
        return Vec::new();
    }
    let mut r = rng.child("chaos-controller");
    let mut events = Vec::new();
    let mut t = 0.0_f64;
    loop {
        t += r.exponential(mean_interarrival.as_secs_f64());
        let at = Time::from_secs_f64(t);
        if at > horizon {
            break;
        }
        let replica = r.range(0..replicas);
        let down = r.exponential(profile.controller_crash_dwell.as_secs_f64());
        events.push(ControllerCrashEvent {
            replica,
            at,
            duration: Duration::from_secs_f64(down),
        });
    }
    events
}

/// Samples failures over a network.
pub struct FailureInjector {
    switches: Vec<NodeId>,
    links: Vec<LinkId>,
}

impl FailureInjector {
    /// Build an injector for `net`. Candidate node failures are switches
    /// (hosts don't "fail" in the paper's model); candidate link failures
    /// are all links, including host links (the paper's §4.2 discusses
    /// host-edge link failures explicitly).
    pub fn new(net: &Network) -> FailureInjector {
        let switches = net
            .node_ids()
            .filter(|&n| net.node(n).kind.is_switch())
            .collect();
        let links = net.link_ids().collect();
        FailureInjector { switches, links }
    }

    /// Number of link candidates.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Sample `count` distinct switch failures.
    pub fn sample_nodes(&self, rng: &mut SimRng, count: usize) -> Vec<NodeId> {
        rng.sample_indices(self.switches.len(), count)
            .into_iter()
            .map(|i| self.switches[i])
            .collect()
    }

    /// Sample `count` distinct link failures.
    pub fn sample_links(&self, rng: &mut SimRng, count: usize) -> Vec<LinkId> {
        rng.sample_indices(self.links.len(), count)
            .into_iter()
            .map(|i| self.links[i])
            .collect()
    }

    /// A Poisson failure process over `horizon`: each event picks a random
    /// element (node with probability `node_fraction`), exponential
    /// inter-arrival with mean `mean_interarrival`, and exponential outage
    /// with mean `mean_duration` (the paper: "a few minutes").
    /// Events are returned sorted by failure time.
    pub fn poisson_process(
        &self,
        rng: &mut SimRng,
        horizon: Time,
        mean_interarrival: Duration,
        mean_duration: Duration,
        node_fraction: f64,
    ) -> Vec<FailureEvent> {
        let mut events = Vec::new();
        let mut t = 0.0_f64;
        loop {
            t += rng.exponential(mean_interarrival.as_secs_f64());
            let at = Time::from_secs_f64(t);
            if at > horizon {
                break;
            }
            let duration =
                Duration::from_secs_f64(rng.exponential(mean_duration.as_secs_f64()));
            let kind = if rng.chance(node_fraction) {
                FailureKind::Node(self.sample_nodes(rng, 1)[0])
            } else {
                FailureKind::Link(self.sample_links(rng, 1)[0])
            };
            events.push(FailureEvent { kind, at, duration });
        }
        events
    }

    /// Group the switch candidates into shared fault domains: one domain
    /// per pod (edge + aggregation switches share the pod's power feed and
    /// rollout wave) plus one domain holding all cores (they share the
    /// spine's infrastructure). Domains are ordered by pod index, cores
    /// last, so the grouping is deterministic.
    pub fn pod_domains(&self, net: &Network) -> Vec<Vec<NodeId>> {
        let mut pods: Vec<(usize, Vec<NodeId>)> = Vec::new();
        let mut cores: Vec<NodeId> = Vec::new();
        for &n in &self.switches {
            match net.node(n).pod {
                Some(p) => {
                    if let Some(entry) = pods.iter_mut().find(|(pod, _)| *pod == p) {
                        entry.1.push(n);
                    } else {
                        pods.push((p, vec![n]));
                    }
                }
                None => cores.push(n),
            }
        }
        pods.sort_by_key(|(p, _)| *p);
        let mut domains: Vec<Vec<NodeId>> = pods.into_iter().map(|(_, d)| d).collect();
        if !cores.is_empty() {
            domains.push(cores);
        }
        domains
    }

    /// A correlated burst process: burst *arrivals* are Poisson with mean
    /// inter-arrival `mean_interarrival`; each burst picks one fault
    /// domain uniformly and takes down several of its switches nearly at
    /// once. The burst size is 1 + Geometric(p) with mean `mean_size`
    /// (truncated to the domain size), victims are distinct, and each
    /// victim's failure instant is jittered uniformly over `spread` (the
    /// skew of a power sag or a staged rollout). Outages are exponential
    /// with mean `mean_duration`. Events come back sorted by failure time.
    #[allow(clippy::too_many_arguments)] // mirrors poisson_process's knobs
    pub fn burst_process(
        &self,
        rng: &mut SimRng,
        domains: &[Vec<NodeId>],
        horizon: Time,
        mean_interarrival: Duration,
        mean_size: f64,
        spread: Duration,
        mean_duration: Duration,
    ) -> Vec<FailureEvent> {
        assert!(!domains.is_empty(), "burst process needs fault domains");
        assert!(mean_size >= 1.0, "a burst has at least one victim");
        // Size = 1 + Geometric(p_more): keep growing while chance(p_more)
        // fires, giving E[size] = 1/(1 - p_more) = mean_size.
        let p_more = 1.0 - 1.0 / mean_size;
        let mut events = Vec::new();
        let mut t = 0.0_f64;
        loop {
            t += rng.exponential(mean_interarrival.as_secs_f64());
            let at = Time::from_secs_f64(t);
            if at > horizon {
                break;
            }
            let domain = rng.choose(domains);
            let mut size = 1usize;
            while size < domain.len() && rng.chance(p_more) {
                size += 1;
            }
            let victims = rng.sample_indices(domain.len(), size);
            for i in victims {
                let offset = Duration::from_secs_f64(
                    rng.f64() * spread.as_secs_f64(),
                );
                let duration = Duration::from_secs_f64(
                    rng.exponential(mean_duration.as_secs_f64()),
                );
                events.push(FailureEvent {
                    kind: FailureKind::Node(domain[i]),
                    at: at + offset,
                    duration,
                });
            }
        }
        events.sort_by_key(|e| e.at);
        events
    }

    /// A link-flapping process: `flappers` distinct links each oscillate
    /// between up (exponential dwell, mean `mean_up_dwell`) and down
    /// (exponential dwell, mean `mean_down_dwell`) until `horizon`. Every
    /// down period becomes one [`FailureEvent`], so a flapping link hits
    /// the controller over and over — the stress case for diagnosis and
    /// pool churn. Events come back sorted by failure time.
    pub fn flapping_process(
        &self,
        rng: &mut SimRng,
        horizon: Time,
        flappers: usize,
        mean_up_dwell: Duration,
        mean_down_dwell: Duration,
    ) -> Vec<FailureEvent> {
        let links = self.sample_links(rng, flappers.min(self.links.len()));
        let mut events = Vec::new();
        for link in links {
            let mut t = 0.0_f64;
            loop {
                t += rng.exponential(mean_up_dwell.as_secs_f64());
                let at = Time::from_secs_f64(t);
                if at > horizon {
                    break;
                }
                let down = rng.exponential(mean_down_dwell.as_secs_f64());
                events.push(FailureEvent {
                    kind: FailureKind::Link(link),
                    at,
                    duration: Duration::from_secs_f64(down),
                });
                t += down;
            }
        }
        events.sort_by_key(|e| e.at);
        events
    }

    /// Generate the full chaos schedule for `profile` over `horizon`.
    ///
    /// Each enabled component draws from its own [`SimRng::child`] stream
    /// (`"chaos-poisson"`, `"chaos-burst"`, `"chaos-flap"`), so turning one
    /// component on or off never perturbs another's draws. A
    /// [`ChaosProfile::quiet`] profile returns no events and consumes no
    /// randomness at all.
    pub fn chaos_process(
        &self,
        rng: &SimRng,
        net: &Network,
        horizon: Time,
        profile: &ChaosProfile,
    ) -> Vec<FailureEvent> {
        let mut events = Vec::new();
        if let Some(mean_interarrival) = profile.poisson_interarrival {
            let mut r = rng.child("chaos-poisson");
            events.extend(self.poisson_process(
                &mut r,
                horizon,
                mean_interarrival,
                profile.mean_duration,
                profile.poisson_node_fraction,
            ));
        }
        if let Some(mean_interarrival) = profile.burst_interarrival {
            let domains = self.pod_domains(net);
            let mut r = rng.child("chaos-burst");
            events.extend(self.burst_process(
                &mut r,
                &domains,
                horizon,
                mean_interarrival,
                profile.mean_burst_size,
                profile.burst_spread,
                profile.mean_duration,
            ));
        }
        if profile.flapping_links > 0 {
            let mut r = rng.child("chaos-flap");
            events.extend(self.flapping_process(
                &mut r,
                horizon,
                profile.flapping_links,
                profile.flap_up_dwell,
                profile.flap_down_dwell,
            ));
        }
        events.sort_by_key(|e| e.at);
        events
    }

    /// Apply a failure to the network state.
    pub fn apply(net: &mut Network, kind: FailureKind) {
        match kind {
            FailureKind::Node(n) => net.set_node_up(n, false),
            FailureKind::Link(l) => net.set_link_up(l, false),
        }
    }

    /// Undo a failure (repair).
    pub fn repair(net: &mut Network, kind: FailureKind) {
        match kind {
            FailureKind::Node(n) => net.set_node_up(n, true),
            FailureKind::Link(l) => net.set_link_up(l, true),
        }
    }
}

/// Knobs for the combined chaos failure schedule, consumed by
/// [`FailureInjector::chaos_process`]. Each component is independently
/// optional; the [`ChaosProfile::quiet`] default disables all of them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosProfile {
    /// Independent (Gill et al.) failures: mean inter-arrival between
    /// events, or `None` to disable the component.
    pub poisson_interarrival: Option<Duration>,
    /// Fraction of independent failures that are node (vs. link) failures.
    pub poisson_node_fraction: f64,
    /// Correlated bursts: mean inter-arrival between bursts, or `None` to
    /// disable the component.
    pub burst_interarrival: Option<Duration>,
    /// Mean victims per burst (1 + Geometric, truncated to domain size).
    pub mean_burst_size: f64,
    /// Window over which a burst's victims go down (uniform jitter).
    pub burst_spread: Duration,
    /// Number of flapping links (0 disables the component).
    pub flapping_links: usize,
    /// Mean up-dwell between a flapping link's outages.
    pub flap_up_dwell: Duration,
    /// Mean down-dwell of each flap outage.
    pub flap_down_dwell: Duration,
    /// Mean outage duration for Poisson and burst failures.
    pub mean_duration: Duration,
    /// Controller-replica crashes: mean inter-arrival between crashes, or
    /// `None` to disable the component (see [`controller_crash_process`]).
    pub controller_crash_interarrival: Option<Duration>,
    /// Mean outage of a crashed controller replica before restore.
    pub controller_crash_dwell: Duration,
}

impl ChaosProfile {
    /// The inert profile: every component disabled, no events generated,
    /// no RNG draws consumed.
    pub fn quiet() -> ChaosProfile {
        ChaosProfile {
            poisson_interarrival: None,
            poisson_node_fraction: 0.5,
            burst_interarrival: None,
            mean_burst_size: 3.0,
            burst_spread: Duration::from_millis(500),
            flapping_links: 0,
            flap_up_dwell: Duration::from_secs(60),
            flap_down_dwell: Duration::from_secs(5),
            mean_duration: Duration::from_secs(180),
            controller_crash_interarrival: None,
            controller_crash_dwell: Duration::from_secs(30),
        }
    }

    /// Whether any component is enabled.
    pub fn is_active(&self) -> bool {
        self.poisson_interarrival.is_some()
            || self.burst_interarrival.is_some()
            || self.flapping_links > 0
            || self.controller_crash_interarrival.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharebackup_topo::{FatTree, FatTreeConfig, NodeKind};

    fn inj() -> (FatTree, FailureInjector) {
        let ft = FatTree::build(FatTreeConfig::new(4));
        let inj = FailureInjector::new(&ft.net);
        (ft, inj)
    }

    #[test]
    fn candidates_counted_correctly() {
        let (_ft, inj) = inj();
        // k=4: 8 edge + 8 agg + 4 core switches, 16 + 32 links.
        assert_eq!(inj.switches.len(), 20);
        assert_eq!(inj.link_count(), 48);
    }

    #[test]
    fn sampled_nodes_are_switches_and_distinct() {
        let (ft, inj) = inj();
        let mut rng = SimRng::seed_from_u64(1);
        let nodes = inj.sample_nodes(&mut rng, 10);
        assert_eq!(nodes.len(), 10);
        let mut d = nodes.clone();
        d.sort();
        d.dedup();
        assert_eq!(d.len(), 10);
        for n in nodes {
            assert_ne!(ft.net.node(n).kind, NodeKind::Host);
        }
    }

    #[test]
    fn apply_and_repair_round_trip() {
        let (mut ft, inj) = inj();
        let mut rng = SimRng::seed_from_u64(2);
        let n = inj.sample_nodes(&mut rng, 1)[0];
        let l = inj.sample_links(&mut rng, 1)[0];
        let ev = FailureEvent {
            kind: FailureKind::Node(n),
            at: Time::from_secs(10),
            duration: Duration::from_secs(120),
        };
        assert_eq!(ev.repaired_at(), Time::from_secs(130));
        FailureInjector::apply(&mut ft.net, ev.kind);
        assert!(!ft.net.node(n).up);
        FailureInjector::repair(&mut ft.net, ev.kind);
        assert!(ft.net.node(n).up);
        FailureInjector::apply(&mut ft.net, FailureKind::Link(l));
        assert!(!ft.net.link_usable(l));
        FailureInjector::repair(&mut ft.net, FailureKind::Link(l));
        assert!(ft.net.link_usable(l));
    }

    #[test]
    fn poisson_process_is_sorted_and_bounded() {
        let (_ft, inj) = inj();
        let mut rng = SimRng::seed_from_u64(3);
        let events = inj.poisson_process(
            &mut rng,
            Time::from_secs(3600),
            Duration::from_secs(60),
            Duration::from_secs(180),
            0.5,
        );
        assert!(events.len() > 20, "one hour at 1/min should yield many");
        for w in events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        assert!(events.iter().all(|e| e.at <= Time::from_secs(3600)));
        let nodes = events
            .iter()
            .filter(|e| matches!(e.kind, FailureKind::Node(_)))
            .count();
        assert!(nodes > 0 && nodes < events.len(), "both kinds appear");
    }

    #[test]
    fn pod_domains_cover_all_switches() {
        let (ft, inj) = inj();
        let domains = inj.pod_domains(&ft.net);
        // k=4: 4 pod domains of 4 switches each, plus one core domain of 4.
        assert_eq!(domains.len(), 5);
        assert!(domains[..4].iter().all(|d| d.len() == 4));
        assert_eq!(domains[4].len(), 4);
        let total: usize = domains.iter().map(Vec::len).sum();
        assert_eq!(total, inj.switches.len());
        let mut all: Vec<_> = domains.concat();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), inj.switches.len());
    }

    #[test]
    fn burst_victims_share_a_domain_and_are_distinct() {
        let (ft, inj) = inj();
        let domains = inj.pod_domains(&ft.net);
        let mut rng = SimRng::seed_from_u64(13);
        let events = inj.burst_process(
            &mut rng,
            &domains,
            Time::from_secs(3600),
            Duration::from_secs(300),
            3.0,
            Duration::from_millis(500),
            Duration::from_secs(120),
        );
        assert!(!events.is_empty(), "an hour at one burst / 5 min");
        for w in events.windows(2) {
            assert!(w[0].at <= w[1].at, "sorted by failure time");
        }
        // Group events into bursts by proximity (spread « inter-arrival)
        // and check every burst's victims live in one domain.
        let domain_of = |n: NodeId| {
            domains
                .iter()
                .position(|d| d.contains(&n))
                .expect("victim is a known switch")
        };
        let mut burst: Vec<NodeId> = Vec::new();
        let mut last = Time::ZERO;
        let check = |burst: &mut Vec<NodeId>| {
            if burst.is_empty() {
                return;
            }
            let d0 = domain_of(burst[0]);
            assert!(burst.iter().all(|&n| domain_of(n) == d0));
            let mut b = burst.clone();
            b.sort();
            b.dedup();
            assert_eq!(b.len(), burst.len(), "victims distinct within burst");
            burst.clear();
        };
        for e in &events {
            let FailureKind::Node(n) = e.kind else {
                panic!("bursts only fail nodes")
            };
            // Intra-burst gaps are bounded by the 0.5 s spread, so any
            // wider gap starts a new burst. (Two bursts *arriving* within
            // 0.6 s of each other would merge here, but with a 300 s mean
            // inter-arrival and this fixed seed that never happens.)
            if e.at > last + Duration::from_millis(600) {
                check(&mut burst);
            }
            burst.push(n);
            last = e.at;
        }
        check(&mut burst);
    }

    #[test]
    fn flapping_repeats_on_same_links_without_overlap() {
        let (_ft, inj) = inj();
        let mut rng = SimRng::seed_from_u64(11);
        let events = inj.flapping_process(
            &mut rng,
            Time::from_secs(3600),
            2,
            Duration::from_secs(60),
            Duration::from_secs(5),
        );
        assert!(events.len() > 20, "two flappers at ~1/min for an hour");
        let mut links: Vec<LinkId> = events
            .iter()
            .map(|e| match e.kind {
                FailureKind::Link(l) => l,
                FailureKind::Node(_) => panic!("flaps are link failures"),
            })
            .collect();
        links.sort();
        links.dedup();
        assert_eq!(links.len(), 2, "all flaps come from the chosen links");
        // Per link, down periods never overlap (up dwell separates them).
        for &link in &links {
            let mut last_repair = Time::ZERO;
            for e in events
                .iter()
                .filter(|e| e.kind == FailureKind::Link(link))
            {
                assert!(e.at >= last_repair, "flap starts after previous repair");
                last_repair = e.repaired_at();
            }
        }
    }

    #[test]
    fn quiet_profile_is_inert() {
        let (ft, inj) = inj();
        let rng = SimRng::seed_from_u64(5);
        let events = inj.chaos_process(
            &rng,
            &ft.net,
            Time::from_secs(86_400),
            &ChaosProfile::quiet(),
        );
        assert!(events.is_empty());
        assert!(!ChaosProfile::quiet().is_active());
    }

    #[test]
    fn chaos_components_are_independent_streams() {
        let (ft, inj) = inj();
        let rng = SimRng::seed_from_u64(9);
        let horizon = Time::from_secs(3600);
        let mut flap_only = ChaosProfile::quiet();
        flap_only.flapping_links = 2;
        let mut both = flap_only;
        both.poisson_interarrival = Some(Duration::from_secs(120));
        let flaps = |events: &[FailureEvent]| {
            events
                .iter()
                .filter(|e| matches!(e.kind, FailureKind::Link(_)))
                .count()
        };
        let a = inj.chaos_process(&rng, &ft.net, horizon, &flap_only);
        let b = inj.chaos_process(&rng, &ft.net, horizon, &both);
        // Enabling the Poisson component must not perturb the flap
        // component's draws: the flap events are identical in both runs.
        let a_only: Vec<_> = a.to_vec();
        let b_flaps: Vec<_> = b
            .iter()
            .copied()
            .filter(|e| matches!(e.kind, FailureKind::Link(_)))
            .collect();
        // The poisson stream also emits link failures, so compare counts
        // conservatively: every flap event of `a` appears in `b`.
        assert!(flaps(&b) >= flaps(&a));
        for e in &a_only {
            assert!(b_flaps.contains(e), "flap schedule preserved: {e:?}");
        }
        assert!(b.len() > a.len(), "poisson component added events");
    }

    #[test]
    fn controller_crash_process_is_deterministic_and_in_range() {
        let profile = ChaosProfile {
            controller_crash_interarrival: Some(Duration::from_secs(40)),
            controller_crash_dwell: Duration::from_secs(20),
            ..ChaosProfile::quiet()
        };
        let rng = SimRng::seed_from_u64(77);
        let horizon = Time::from_secs(600);
        let a = controller_crash_process(&rng, horizon, 3, &profile);
        let b = controller_crash_process(&rng, horizon, 3, &profile);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(!a.is_empty(), "600s at mean 40s yields crashes");
        let mut last = Time::ZERO;
        for ev in &a {
            assert!(ev.replica < 3, "victim within the cluster");
            assert!(ev.at <= horizon);
            assert!(ev.at >= last, "crashes arrive in time order");
            assert!(ev.restored_at() > ev.at, "outage has positive width");
            last = ev.at;
        }
    }

    #[test]
    fn controller_crash_component_is_inert_when_disabled() {
        let rng = SimRng::seed_from_u64(78);
        // Disabled by knob:
        let quiet = ChaosProfile::quiet();
        assert!(controller_crash_process(&rng, Time::from_secs(600), 3, &quiet).is_empty());
        // Disabled by an empty cluster:
        let on = ChaosProfile {
            controller_crash_interarrival: Some(Duration::from_secs(10)),
            ..quiet
        };
        assert!(controller_crash_process(&rng, Time::from_secs(600), 0, &on).is_empty());
        assert!(on.is_active(), "the knob alone activates the profile");
    }

    #[test]
    fn controller_crashes_ride_their_own_stream() {
        // Enabling the data-plane Poisson component must not perturb the
        // controller-crash schedule (and vice versa): both draw from
        // disjoint child streams of the same parent.
        let (ft, inj) = inj();
        let rng = SimRng::seed_from_u64(79);
        let horizon = Time::from_secs(600);
        let ctl_only = ChaosProfile {
            controller_crash_interarrival: Some(Duration::from_secs(60)),
            ..ChaosProfile::quiet()
        };
        let both = ChaosProfile {
            poisson_interarrival: Some(Duration::from_secs(30)),
            ..ctl_only
        };
        let a = controller_crash_process(&rng, horizon, 3, &ctl_only);
        let b = controller_crash_process(&rng, horizon, 3, &both);
        assert_eq!(a, b, "controller schedule ignores data-plane knobs");
        let da = inj.chaos_process(&rng, &ft.net, horizon, &both);
        let db = inj.chaos_process(
            &rng,
            &ft.net,
            horizon,
            &ChaosProfile {
                controller_crash_interarrival: None,
                ..both
            },
        );
        assert_eq!(da, db, "data-plane schedule ignores controller knobs");
    }
}
