//! End-to-end, event-driven recovery timeline (paper §4.1 + §5.3 combined).
//!
//! Where [`crate::latency`] gives the closed-form recovery latency and
//! [`crate::detection`] simulates the keep-alive detector in isolation,
//! this module plays the *whole* §4.1 sequence on the discrete-event
//! engine, microsecond by microsecond:
//!
//! 1. the victim switch keep-alives on its probe phase — until it dies;
//! 2. the controller's scan notices the silence (detection);
//! 3. the controller processes the failure and picks a backup;
//! 4. a reconfiguration command goes out to *each* circuit switch of the
//!    failure group (sub-ms control channel);
//! 5. each circuit switch resets its circuits (70 ns / 40 µs) and acks;
//! 6. when the last ack lands, the data plane is whole again — the
//!    replacement is applied to the topology and verified.
//!
//! The produced [`Timeline`] is both an assertion target (tests pin the
//! latency decomposition) and a human-readable trace (the
//! `recovery_timeline` harness binary prints it).

use sharebackup_sim::{Duration, Engine, Time, World};
use sharebackup_telemetry::{TracedWorld, Tracer};
use sharebackup_topo::{CsId, PhysId, SlotId};

use crate::controller::Controller;
use crate::detection::DetectionConfig;

/// One entry in the recovery timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TimelineEvent {
    /// The victim emitted a keep-alive.
    KeepAlive,
    /// The victim died.
    SwitchDied,
    /// The controller's scan declared the victim dead.
    Detected,
    /// The controller finished processing and chose the backup.
    BackupChosen(PhysId),
    /// A reconfiguration command reached circuit switch `0`.
    CommandArrived(CsId),
    /// Circuit switch finished resetting its circuits.
    CircuitReset(CsId),
    /// The circuit switch's ack reached the controller.
    AckReceived(CsId),
    /// All acks in: the data plane is whole.
    Recovered,
}

/// The recorded timeline of one recovery.
#[derive(Clone, Debug)]
pub struct Timeline {
    /// (instant, event) pairs in occurrence order.
    pub events: Vec<(Time, TimelineEvent)>,
    /// When the victim died.
    pub died_at: Time,
    /// When the controller detected it.
    pub detected_at: Time,
    /// When the last circuit-switch ack arrived.
    pub recovered_at: Time,
}

impl Timeline {
    /// Death → detection.
    pub fn detection_latency(&self) -> Duration {
        self.detected_at.since(self.died_at)
    }

    /// Detection → data plane whole.
    pub fn repair_latency(&self) -> Duration {
        self.recovered_at.since(self.detected_at)
    }

    /// Death → data plane whole.
    pub fn total_latency(&self) -> Duration {
        self.recovered_at.since(self.died_at)
    }

    /// Render as a human-readable trace, timestamps relative to the death.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (t, ev) in &self.events {
            let rel = if *t >= self.died_at {
                format!("+{}", t.since(self.died_at))
            } else {
                format!("-{}", self.died_at.since(*t))
            };
            let _ = writeln!(out, "{rel:>12}  {ev:?}");
        }
        out
    }

    /// Emit this timeline onto `tracer` as a machine-readable span tree:
    /// a parent `recovery` span covering death → data-plane-whole, tiled
    /// by three children — `detection` (death → detected), `diagnosis`
    /// (detected → backup chosen) and `reconfiguration` (chosen →
    /// recovered) — plus a `restored` instant at the recovery time. The
    /// child durations sum exactly to [`Timeline::total_latency`].
    pub fn record_spans(&self, tracer: &Tracer) {
        if !tracer.is_enabled() {
            return;
        }
        let chosen_at = self
            .events
            .iter()
            .find(|(_, e)| matches!(e, TimelineEvent::BackupChosen(_)))
            .map_or(self.detected_at, |(t, _)| *t);
        tracer.span_begin(self.died_at, "recovery", "recovery");
        tracer.span(self.died_at, self.detected_at, "recovery", "detection");
        tracer.span(self.detected_at, chosen_at, "recovery", "diagnosis");
        tracer.span(chosen_at, self.recovered_at, "recovery", "reconfiguration");
        tracer.instant(self.recovered_at, "recovery", "restored");
        tracer.span_end(self.recovered_at);
    }
}

enum Ev {
    KeepAlive,
    Die,
    Scan,
    Processed,
    CmdArrive(usize),
    ResetDone(usize),
    AckArrive(usize),
}

struct TimelineWorld {
    detection: DetectionConfig,
    control_message: Duration,
    processing: Duration,
    reset_delay: Duration,
    cs_ids: Vec<CsId>,
    backup: PhysId,
    alive: bool,
    last_seen: Time,
    died_at: Option<Time>,
    detected_at: Option<Time>,
    acks: usize,
    recovered_at: Option<Time>,
    events: Vec<(Time, TimelineEvent)>,
}

impl World<Ev> for TimelineWorld {
    fn handle(&mut self, engine: &mut Engine<Ev>, now: Time, ev: Ev) {
        match ev {
            Ev::KeepAlive => {
                if self.alive {
                    self.last_seen = now;
                    self.events.push((now, TimelineEvent::KeepAlive));
                    engine.schedule_in(self.detection.probe_interval, Ev::KeepAlive);
                }
            }
            Ev::Die => {
                self.alive = false;
                self.died_at = Some(now);
                self.events.push((now, TimelineEvent::SwitchDied));
            }
            Ev::Scan => {
                if self.detected_at.is_some() {
                    return;
                }
                let silence = now.saturating_since(self.last_seen);
                let limit =
                    self.detection.probe_interval * self.detection.miss_threshold as u64;
                if self.died_at.is_some() && silence > limit {
                    self.detected_at = Some(now);
                    self.events.push((now, TimelineEvent::Detected));
                    engine.schedule_in(self.processing, Ev::Processed);
                } else {
                    engine.schedule_in(self.detection.probe_interval, Ev::Scan);
                }
            }
            Ev::Processed => {
                self.events
                    .push((now, TimelineEvent::BackupChosen(self.backup)));
                // Commands fan out in parallel on the always-on channels.
                for i in 0..self.cs_ids.len() {
                    engine.schedule_in(self.control_message, Ev::CmdArrive(i));
                }
            }
            Ev::CmdArrive(i) => {
                self.events
                    .push((now, TimelineEvent::CommandArrived(self.cs_ids[i])));
                engine.schedule_in(self.reset_delay, Ev::ResetDone(i));
            }
            Ev::ResetDone(i) => {
                self.events
                    .push((now, TimelineEvent::CircuitReset(self.cs_ids[i])));
                engine.schedule_in(self.control_message, Ev::AckArrive(i));
            }
            Ev::AckArrive(i) => {
                self.events
                    .push((now, TimelineEvent::AckReceived(self.cs_ids[i])));
                self.acks += 1;
                if self.acks == self.cs_ids.len() && self.recovered_at.is_none() {
                    self.recovered_at = Some(now);
                    self.events.push((now, TimelineEvent::Recovered));
                }
            }
        }
    }
}

/// The circuit switches that must reconfigure to replace `slot`'s occupant.
fn circuit_switches_for(ctl: &Controller, slot: SlotId) -> Vec<CsId> {
    let k = ctl.sb.k();
    let half = k / 2;
    match slot.group.kind {
        sharebackup_topo::GroupKind::Edge => {
            let pod = slot.group.index;
            (0..half)
                .flat_map(|m| [CsId::HostEdge { pod, m }, CsId::EdgeAgg { pod, m }])
                .collect()
        }
        sharebackup_topo::GroupKind::Agg => {
            let pod = slot.group.index;
            (0..half)
                .flat_map(|m| [CsId::EdgeAgg { pod, m }, CsId::AggCore { pod, u: m }])
                .collect()
        }
        sharebackup_topo::GroupKind::Core => {
            let u = slot.group.index;
            (0..k).map(|pod| CsId::AggCore { pod, u }).collect()
        }
    }
}

/// Play the full §4.1 recovery sequence for the failure of `slot`'s
/// occupant at `die_at`, then apply the replacement to the topology.
///
/// `probe_phase` staggers the victim's keep-alives within the probe
/// interval (hosts and switches are not synchronized in practice).
///
/// Telemetry goes to `tracer` ([`Tracer::off`] records nothing): every
/// engine event is recorded as an instant (plus the `engine.events` counter
/// and the `engine.queue_depth` histogram) via [`TracedWorld`], and the
/// finished timeline is emitted as a recovery span tree via
/// [`Timeline::record_spans`], followed by the controller's counter block
/// ([`crate::ControllerStats::record`]).
///
/// # Panics
/// Panics if the slot's group has no available backup.
pub fn simulate_recovery(
    ctl: &mut Controller,
    slot: SlotId,
    die_at: Time,
    probe_phase: Duration,
    tracer: &Tracer,
) -> Timeline {
    #[expect(
        clippy::expect_used,
        reason = "callers hand in a freshly built fabric with n ≥ 1 spares"
    )]
    let backup = *ctl
        .sb
        .spares(slot.group)
        .first()
        .expect("a backup must be available");
    let cs_ids = circuit_switches_for(ctl, slot);
    let detection = DetectionConfig {
        probe_interval: ctl.cfg.latency.probe_interval,
        miss_threshold: 1,
    };
    let mut engine: Engine<Ev> = Engine::new();
    engine.schedule(Time::ZERO + probe_phase, Ev::KeepAlive);
    engine.schedule(Time::ZERO, Ev::Scan);
    engine.schedule(die_at, Ev::Die);
    let mut world = TimelineWorld {
        detection,
        control_message: ctl.cfg.latency.control_message,
        processing: ctl.cfg.latency.controller_processing,
        reset_delay: ctl.sb.cfg.tech.reconfiguration_delay(),
        cs_ids,
        backup,
        alive: true,
        last_seen: Time::ZERO,
        died_at: None,
        detected_at: None,
        acks: 0,
        recovered_at: None,
        events: Vec::new(),
    };
    {
        let mut traced = TracedWorld::new(&mut world, tracer.clone(), |ev: &Ev| match ev {
            Ev::KeepAlive => "keepalive",
            Ev::Die => "die",
            Ev::Scan => "scan",
            Ev::Processed => "processed",
            Ev::CmdArrive(_) => "cmd-arrive",
            Ev::ResetDone(_) => "reset-done",
            Ev::AckArrive(_) => "ack-arrive",
        });
        engine.run(&mut traced);
    }

    // Apply the replacement the timeline just orchestrated.
    let victim = ctl.sb.occupant(slot);
    ctl.sb.set_phys_healthy(victim, false);
    #[expect(
        clippy::expect_used,
        reason = "the engine runs to quiescence, so the recovery event fired"
    )]
    let recovery = ctl.handle_node_failure(victim, world.recovered_at.expect("recovered"));
    assert!(recovery.fully_recovered(), "backup was available");

    let tl = Timeline {
        events: world.events,
        #[expect(clippy::expect_used, reason = "all three milestones fired during the run")]
        died_at: world.died_at.expect("died"),
        #[expect(clippy::expect_used, reason = "all three milestones fired during the run")]
        detected_at: world.detected_at.expect("detected"),
        #[expect(clippy::expect_used, reason = "all three milestones fired during the run")]
        recovered_at: world.recovered_at.expect("recovered"),
    };
    tl.record_spans(tracer);
    ctl.stats.record(tracer);
    tl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use sharebackup_topo::{CircuitTech, GroupId, ShareBackup, ShareBackupConfig};

    fn controller(tech: CircuitTech) -> Controller {
        Controller::new(
            ShareBackup::build(ShareBackupConfig::new(6, 1).with_tech(tech)),
            ControllerConfig::default(),
        )
    }

    #[test]
    fn timeline_decomposition_is_consistent() {
        let mut ctl = controller(CircuitTech::Crosspoint);
        let slot = GroupId::agg(0).slot(1);
        let tl = simulate_recovery(
            &mut ctl,
            slot,
            Time::from_millis(5),
            Duration::from_micros(137),
            &Tracer::off(),
        );
        assert_eq!(
            tl.total_latency(),
            tl.detection_latency() + tl.repair_latency()
        );
        // Detection within (0, 2] probe intervals (threshold 1).
        let p = ctl.cfg.latency.probe_interval;
        assert!(tl.detection_latency() > Duration::ZERO);
        assert!(tl.detection_latency() <= p * 2);
        // Repair = 2 control messages + processing + reset, all parallel
        // across circuit switches.
        let expect = ctl.cfg.latency.control_message * 2
            + ctl.cfg.latency.controller_processing
            + CircuitTech::Crosspoint.reconfiguration_delay();
        assert_eq!(tl.repair_latency(), expect);
        // The data plane is actually healed afterwards.
        assert!(ctl.sb.slots.net.node(ctl.sb.slot_node(slot)).up);
    }

    #[test]
    fn every_group_circuit_switch_participates() {
        let mut ctl = controller(CircuitTech::Crosspoint);
        let slot = GroupId::edge(2).slot(0);
        let tl = simulate_recovery(
            &mut ctl,
            slot,
            Time::from_millis(3),
            Duration::ZERO,
            &Tracer::off(),
        );
        let acks = tl
            .events
            .iter()
            .filter(|(_, e)| matches!(e, TimelineEvent::AckReceived(_)))
            .count();
        // Edge slot: k/2 CS1 + k/2 CS2 = k circuit switches.
        assert_eq!(acks, 6);
        let resets = tl
            .events
            .iter()
            .filter(|(_, e)| matches!(e, TimelineEvent::CircuitReset(_)))
            .count();
        assert_eq!(resets, 6);
    }

    #[test]
    fn mems_timeline_is_slower_by_the_reset_delta() {
        let mut a = controller(CircuitTech::Crosspoint);
        let mut b = controller(CircuitTech::Mems2D);
        let phase = Duration::from_micros(400);
        let slot = GroupId::core(0).slot(0);
        let t1 = simulate_recovery(&mut a, slot, Time::from_millis(7), phase, &Tracer::off());
        let t2 = simulate_recovery(&mut b, slot, Time::from_millis(7), phase, &Tracer::off());
        assert_eq!(t1.detection_latency(), t2.detection_latency());
        let delta = t2.repair_latency() - t1.repair_latency();
        assert_eq!(
            delta,
            Duration::from_micros(40) - Duration::from_nanos(70)
        );
    }

    #[test]
    fn render_is_chronological_and_complete() {
        let mut ctl = controller(CircuitTech::Crosspoint);
        let tl = simulate_recovery(
            &mut ctl,
            GroupId::agg(1).slot(0),
            Time::from_millis(2),
            Duration::from_micros(10),
            &Tracer::off(),
        );
        for w in tl.events.windows(2) {
            assert!(w[0].0 <= w[1].0, "timeline must be chronological");
        }
        let text = tl.render();
        assert!(text.contains("SwitchDied"));
        assert!(text.contains("Detected"));
        assert!(text.contains("Recovered"));
    }

    /// A hand-built recovery sequence with round numbers, independent of
    /// the engine: death at 1 ms, detection at 2 ms, recovery at 2.3 ms.
    fn synthetic_timeline() -> Timeline {
        let t = Time::from_micros;
        let cs = CsId::HostEdge { pod: 0, m: 1 };
        Timeline {
            events: vec![
                (t(0), TimelineEvent::KeepAlive),
                (t(1000), TimelineEvent::SwitchDied),
                (t(2000), TimelineEvent::Detected),
                (t(2050), TimelineEvent::BackupChosen(PhysId(7))),
                (t(2150), TimelineEvent::CommandArrived(cs)),
                (t(2200), TimelineEvent::CircuitReset(cs)),
                (t(2300), TimelineEvent::AckReceived(cs)),
                (t(2300), TimelineEvent::Recovered),
            ],
            died_at: t(1000),
            detected_at: t(2000),
            recovered_at: t(2300),
        }
    }

    #[test]
    fn synthetic_latencies_decompose_exactly() {
        let tl = synthetic_timeline();
        assert_eq!(tl.detection_latency(), Duration::from_millis(1));
        assert_eq!(tl.repair_latency(), Duration::from_micros(300));
        assert_eq!(
            tl.detection_latency() + tl.repair_latency(),
            tl.total_latency()
        );
    }

    #[test]
    fn render_snapshot_is_stable() {
        let expected = "    -1.000ms  KeepAlive
         +0s  SwitchDied
    +1.000ms  Detected
    +1.050ms  BackupChosen(sw7)
    +1.150ms  CommandArrived(HostEdge { pod: 0, m: 1 })
    +1.200ms  CircuitReset(HostEdge { pod: 0, m: 1 })
    +1.300ms  AckReceived(HostEdge { pod: 0, m: 1 })
    +1.300ms  Recovered
";
        assert_eq!(synthetic_timeline().render(), expected);
    }

    #[test]
    fn record_spans_tile_the_recovery() {
        let (tracer, sink) = sharebackup_telemetry::Tracer::recording();
        let tl = synthetic_timeline();
        tl.record_spans(&tracer);
        let buf = sink.borrow_mut().take();
        let spans = buf.spans();
        assert_eq!(spans.len(), 4);
        let find = |name: &str| {
            spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("span {name}"))
                .clone()
        };
        let rec = find("recovery");
        let det = find("detection");
        let dia = find("diagnosis");
        let cfg = find("reconfiguration");
        assert_eq!(rec.depth, 0);
        assert_eq!((det.depth, dia.depth, cfg.depth), (1, 1, 1));
        assert_eq!(det.begin, rec.begin);
        assert_eq!(det.end, dia.begin);
        assert_eq!(dia.end, cfg.begin);
        assert_eq!(cfg.end, rec.end);
        let sum = det.end.since(det.begin)
            + dia.end.since(dia.begin)
            + cfg.end.since(cfg.begin);
        assert_eq!(sum, tl.total_latency());
    }

    #[test]
    fn traced_simulation_records_engine_instants_and_span_tree() {
        let (tracer, sink) = sharebackup_telemetry::Tracer::recording();
        let mut ctl = controller(CircuitTech::Crosspoint);
        let tl = simulate_recovery(
            &mut ctl,
            GroupId::agg(0).slot(1),
            Time::from_millis(5),
            Duration::from_micros(137),
            &tracer,
        );
        let buf = sink.borrow_mut().take();
        assert!(buf.counters.get("engine.events").copied().unwrap_or(0) > 0);
        let instants = |name: &str| {
            buf.events
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        sharebackup_telemetry::TraceEvent::Mark { name: n, .. } if n == name
                    )
                })
                .count()
        };
        assert_eq!(instants("die"), 1);
        // Agg slot: k/2 CS2 + k/2 CS3 = k circuit switches ack.
        assert_eq!(instants("ack-arrive"), 6);
        let spans = buf.spans();
        let rec = spans
            .iter()
            .find(|s| s.name == "recovery")
            .expect("recovery span");
        assert_eq!(rec.end.since(rec.begin), tl.total_latency());
    }
}
