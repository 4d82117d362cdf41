//! Event-driven replicated control plane (paper §5.1, "Controller
//! failures") — the machinery that keeps recovery going when the recovery
//! machinery's own brain dies.
//!
//! A [`FailoverPlane`] tracks which controller replicas are live and which
//! one is primary, and journals every failure report: switches report to
//! **all** replicas simultaneously (§5.1), so each in-flight recovery is
//! durable state any replica can pick up. The primary can crash at any
//! phase boundary of an in-flight recovery —
//!
//! * after the report is processed but before diagnosis
//!   ([`RecoveryPhase::Reported`]),
//! * between diagnosis and reconfiguration ([`RecoveryPhase::Diagnosed`]),
//! * after reconfiguration executed but before the completion is
//!   acknowledged cluster-wide ([`RecoveryPhase::Executed`])
//!
//! — and the deterministically elected successor (lowest-id live replica)
//! re-drives the journal **idempotently**: a recovery interrupted before
//! execution runs once under the new primary; a recovery interrupted after
//! execution is *reconciled* — the successor re-issues the (idempotent)
//! circuit-switch command batch and completes from the journaled outcome
//! rather than assigning a second backup. No backup is double-assigned and
//! no circuit configuration leaks, and under the `strict-invariants`
//! feature the full structural invariants are re-checked after every
//! transition.
//!
//! Failure detection for the primary itself reuses the §4.1 keep-alive
//! machinery: replicas heartbeat each other on
//! [`FailoverConfig::heartbeat`], so a crash is observed within
//! [`DetectionConfig::worst_case`] and the election completes
//! [`FailoverConfig::election_time`] later ([`simulate_election`] plays the
//! exact sequence on the discrete-event engine; the plane charges the
//! conservative closed-form bound).
//!
//! Replica crashes and restores are **idempotent** and return
//! [`ReplicaOutOfRange`] for ids outside the cluster instead of panicking:
//! failure schedules replay duplicate crash reports, and a duplicate must
//! neither charge a second election nor crash the harness. The paper leaves
//! placement and coordination open (§6); the lowest-id live replica wins
//! every election.
//!
//! The control network is fallible too: failure reports and
//! reconfiguration commands each traverse a lossy/delayed channel
//! ([`ChaosConfig::control_loss_rate`], [`ChaosConfig::control_delay_rate`])
//! with a per-message timeout, bounded deterministic exponential backoff
//! ([`crate::latency::RecoveryLatencyModel::retry_backoff`]) and a retry
//! budget ([`FailoverConfig::max_control_attempts`]). A message that
//! exhausts its budget does **not** drop the failure: the journal entry
//! stays pending with a visible retry time, so every submitted failure is
//! either completed or still accounted for (no silent drops — the
//! property tests pin this trichotomy).
//!
//! Chaos decisions draw from the plane's own `SimRng` stream
//! ([`FailoverPlane::with_chaos`]), never from the controller's: a plane
//! built without a stream performs zero draws, and the wrapped
//! [`Controller`]'s draw sequence is untouched either way, so every
//! pre-existing harness digest stays byte-identical.

use std::collections::BTreeMap;
use std::fmt;

use sharebackup_sim::{Duration, SimRng, Time};
use sharebackup_topo::{NodeId, PhysId};

use crate::chaos::ChaosConfig;
use crate::controller::{Controller, Recovery};
use crate::detection::{simulate_keepalive, DetectionConfig};

/// Error from naming a replica that does not exist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicaOutOfRange {
    /// The offending replica id.
    pub id: usize,
    /// Cluster size (valid ids are `0..replicas`).
    pub replicas: usize,
}

impl fmt::Display for ReplicaOutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replica id {} out of range for a {}-replica cluster",
            self.id, self.replicas
        )
    }
}

impl std::error::Error for ReplicaOutOfRange {}

/// Tuning knobs of the replicated control plane.
#[derive(Clone, Copy, Debug)]
pub struct FailoverConfig {
    /// Cluster size; replica 0 starts as primary.
    pub replicas: usize,
    /// Leader-election delay once a dead primary has been detected.
    pub election_time: Duration,
    /// Replica-to-replica heartbeat parameters (§4.1 keep-alive machinery
    /// applied to the controllers themselves).
    pub heartbeat: DetectionConfig,
    /// Per-attempt timeout before a lost control message is retried.
    pub control_timeout: Duration,
    /// Extra propagation delay charged to a chaos-delayed control message.
    pub control_delay: Duration,
    /// Transmission attempts per control message before the sender gives
    /// up for now (the journal entry stays pending and is retried at the
    /// next poll past its backoff horizon).
    pub max_control_attempts: u32,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            replicas: 3,
            election_time: Duration::from_millis(50),
            heartbeat: DetectionConfig::default(),
            control_timeout: Duration::from_millis(1),
            control_delay: Duration::from_millis(1),
            max_control_attempts: 4,
        }
    }
}

impl FailoverConfig {
    /// The control-plane blackout charged for one primary crash: heartbeat
    /// silence until the crash is detected (worst case) plus the election.
    pub fn blackout(&self) -> Duration {
        self.heartbeat.worst_case() + self.election_time
    }
}

/// One failure report as journaled at every replica. Plain data — this is
/// exactly the state a successor primary needs to re-drive the recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureReport {
    /// A whole-switch failure (keep-alive silence).
    Node(PhysId),
    /// A link failure between two switch interfaces (neighbor probes).
    Link {
        /// The faulty side `(switch, interface)`.
        faulty: (PhysId, usize),
        /// The other suspect `(switch, interface)`.
        other: (PhysId, usize),
    },
    /// A failed host↔edge link, reported by the host.
    HostLink(NodeId),
}

impl FailureReport {
    /// Dispatch this report to the matching [`Controller`] handler.
    fn drive(&self, ctl: &mut Controller, now: Time) -> Recovery {
        match *self {
            FailureReport::Node(p) => ctl.handle_node_failure(p, now),
            FailureReport::Link { faulty, other } => ctl.handle_link_failure(faulty, other, now),
            FailureReport::HostLink(h) => ctl.handle_host_link_failure(h, now),
        }
    }
}

/// How far an in-flight recovery has progressed — the boundaries at which
/// the primary can crash.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryPhase {
    /// Journaled at every replica; the primary has not finished processing
    /// the report.
    Reported,
    /// The primary decided what to do; reconfiguration commands are not
    /// out yet.
    Diagnosed,
    /// Reconfiguration executed; completion not yet acknowledged
    /// cluster-wide.
    Executed,
}

/// One journaled in-flight recovery.
#[derive(Clone, Debug)]
struct InFlight {
    report: FailureReport,
    reported_at: Time,
    phase: RecoveryPhase,
    /// A primary crash interrupted this entry at least once.
    interrupted: bool,
    /// Already counted in `ControllerStats::recoveries_resumed`.
    resumed: bool,
    /// Do not re-drive before this instant (control-channel backoff).
    retry_at: Time,
    /// The outcome of an executed-but-unacknowledged recovery, journaled
    /// so a successor can reconcile instead of re-executing. (In the
    /// paper's model every replica sees network state, so the outcome is
    /// reconstructible; we carry it explicitly.)
    executed: Option<Recovery>,
}

/// A recovery the control plane finished end to end.
#[derive(Clone, Debug)]
pub struct CompletedRecovery {
    /// Journal id (submission order).
    pub id: u64,
    /// When the failure report was submitted to the plane.
    pub reported_at: Time,
    /// When the recovery completed (includes control-plane blackouts,
    /// channel retries and chaos delays). `completed_at - reported_at` is
    /// the end-to-end control-plane dwell; [`Recovery::latency`] remains
    /// the §5.3 data-plane model for the final successful drive.
    pub completed_at: Time,
    /// What the controller did.
    pub recovery: Recovery,
}

/// Introspection view of one still-journaled recovery.
#[derive(Clone, Copy, Debug)]
pub struct PendingRecovery {
    /// Journal id (submission order).
    pub id: u64,
    /// The journaled report.
    pub report: FailureReport,
    /// Submission instant — `now - reported_at` is the visible dwell time
    /// of this unrecovered failure.
    pub reported_at: Time,
    /// Progress at the last interruption.
    pub phase: RecoveryPhase,
    /// Whether a primary crash interrupted it.
    pub interrupted: bool,
}

/// The replicated control plane: replica membership and the primary, the
/// journal of in-flight recoveries, and the fallible control channel.
///
/// The plane does not own the [`Controller`]; every operation borrows it,
/// so the scenario layer keeps routing through the controller's network
/// while the plane decides *when* the controller is allowed to act.
#[derive(Clone, Debug)]
pub struct FailoverPlane {
    /// Plane tuning knobs.
    pub cfg: FailoverConfig,
    /// Control-plane chaos rates (only the `controller_crash_rate`,
    /// `control_loss_rate` and `control_delay_rate` knobs are read here).
    pub chaos: ChaosConfig,
    /// Which replicas are live, by replica id.
    up: Vec<bool>,
    /// The elected primary; `None` while every replica is down.
    primary: Option<usize>,
    rng: Option<SimRng>,
    journal: BTreeMap<u64, InFlight>,
    next_id: u64,
    /// The control plane is electing (or detecting a dead primary) until
    /// this instant; no recovery is driven before it.
    available_at: Time,
    /// One-shot deterministic crash injection for tests and demos: the
    /// primary crashes when the next drive reaches this phase boundary
    /// (consuming the hook, and skipping that boundary's chaos roll).
    crash_at_phase: Option<RecoveryPhase>,
    completed: Vec<CompletedRecovery>,
}

impl FailoverPlane {
    /// A plane without a chaos stream: performs **zero** RNG draws; the
    /// only way the primary crashes is [`FailoverPlane::crash_replica`] or
    /// [`FailoverPlane::force_crash_at`]. Replica 0 starts as primary.
    ///
    /// # Panics
    /// Panics if `cfg.replicas == 0`.
    pub fn new(cfg: FailoverConfig) -> FailoverPlane {
        assert!(cfg.replicas > 0, "need at least one replica");
        FailoverPlane {
            cfg,
            chaos: ChaosConfig::off(),
            up: vec![true; cfg.replicas],
            primary: Some(0),
            rng: None,
            journal: BTreeMap::new(),
            next_id: 0,
            available_at: Time::ZERO,
            crash_at_phase: None,
            completed: Vec::new(),
        }
    }

    /// A plane with control-plane chaos. Pass a dedicated
    /// [`SimRng::child`] stream — never the controller's machinery stream —
    /// so enabling control-plane chaos cannot perturb the recovery
    /// machinery's own draw sequence.
    pub fn with_chaos(cfg: FailoverConfig, chaos: ChaosConfig, rng: SimRng) -> FailoverPlane {
        FailoverPlane {
            chaos,
            rng: Some(rng),
            ..FailoverPlane::new(cfg)
        }
    }

    /// The current primary replica, or `None` while every replica is down.
    pub fn primary(&self) -> Option<usize> {
        self.primary
    }

    /// Whether the plane can drive recoveries at `now`: some replica is
    /// primary and no election is still running.
    pub fn available(&self, now: Time) -> bool {
        self.primary.is_some() && now >= self.available_at
    }

    /// Whether replica `id` is live.
    fn is_up(&self, id: usize) -> Result<bool, ReplicaOutOfRange> {
        self.up.get(id).copied().ok_or(ReplicaOutOfRange {
            id,
            replicas: self.up.len(),
        })
    }

    /// The instant the current blackout (if any) ends. [`Time::ZERO`] if
    /// the plane was never interrupted.
    pub fn available_at(&self) -> Time {
        self.available_at
    }

    /// Arm the one-shot deterministic crash hook: the primary will crash
    /// when the next drive reaches `phase`.
    pub fn force_crash_at(&mut self, phase: RecoveryPhase) {
        self.crash_at_phase = Some(phase);
    }

    /// Journaled recoveries not yet completed.
    pub fn pending_count(&self) -> usize {
        self.journal.len()
    }

    /// Introspection over the journal, in submission order.
    pub fn pending(&self) -> Vec<PendingRecovery> {
        self.journal
            .iter()
            .map(|(&id, e)| PendingRecovery {
                id,
                report: e.report,
                reported_at: e.reported_at,
                phase: e.phase,
                interrupted: e.interrupted,
            })
            .collect()
    }

    /// Drain the recoveries completed since the last call, in completion
    /// order.
    pub fn take_completed(&mut self) -> Vec<CompletedRecovery> {
        std::mem::take(&mut self.completed)
    }

    /// Submit a failure report: journal it at every replica, then try to
    /// drive it (it completes synchronously when the plane is available
    /// and nothing chaotic intervenes — collect results via
    /// [`FailoverPlane::take_completed`]).
    pub fn submit(&mut self, ctl: &mut Controller, report: FailureReport, now: Time) {
        let id = self.next_id;
        self.next_id += 1;
        ctl.stats.control_reports += 1;
        self.journal.insert(
            id,
            InFlight {
                report,
                reported_at: now,
                phase: RecoveryPhase::Reported,
                interrupted: false,
                resumed: false,
                retry_at: now,
                executed: None,
            },
        );
        self.poll(ctl, now);
    }

    /// Drive every journaled recovery that is due at `now`. Cheap no-op
    /// when the journal is empty or the plane is mid-blackout; the
    /// scenario layer calls this from `Environment::on_advance`.
    pub fn poll(&mut self, ctl: &mut Controller, now: Time) {
        if self.journal.is_empty() {
            return;
        }
        let ids: Vec<u64> = self.journal.keys().copied().collect();
        for id in ids {
            // Re-checked per entry: a drive can crash the primary.
            if !self.available(now) {
                break;
            }
            self.drive(ctl, id, now);
        }
    }

    /// Crash a controller replica at `now`. Idempotent (a duplicate crash
    /// of a dead replica is free) and typed-error on out-of-range ids.
    /// Crashing the primary interrupts every journaled recovery and starts
    /// the detection + election blackout.
    pub fn crash_replica(
        &mut self,
        ctl: &mut Controller,
        id: usize,
        now: Time,
    ) -> Result<(), ReplicaOutOfRange> {
        if !self.is_up(id)? {
            return Ok(());
        }
        self.up[id] = false;
        ctl.stats.controller_crashes += 1;
        ctl.tracer.instant(now, "failover", "controller-crash");
        if self.primary == Some(id) {
            for e in self.journal.values_mut() {
                e.interrupted = true;
            }
            self.primary = self.up.iter().position(|&u| u);
            if self.primary.is_some() {
                // Followers observe the heartbeat silence (charged at the
                // conservative closed-form bound), then elect.
                ctl.stats.elections += 1;
                let detected = now + self.cfg.heartbeat.worst_case();
                let elected = detected + self.cfg.election_time;
                ctl.tracer.span(detected, elected, "failover", "election");
                self.available_at = self.available_at.max(elected);
            }
            // Headless cluster: poll() is gated on having a primary until
            // a replica is restored.
        }
        self.check_invariants(ctl);
        Ok(())
    }

    /// Restore a controller replica at `now` (it rejoins as a follower;
    /// if the cluster was headless, an election runs first). Idempotent
    /// and typed-error on out-of-range ids.
    pub fn restore_replica(
        &mut self,
        ctl: &mut Controller,
        id: usize,
        now: Time,
    ) -> Result<(), ReplicaOutOfRange> {
        if self.is_up(id)? {
            return Ok(());
        }
        self.up[id] = true;
        ctl.stats.controller_restores += 1;
        ctl.tracer.instant(now, "failover", "controller-restore");
        if self.primary.is_none() {
            // The restored replica is the only live one: it elects itself.
            self.primary = Some(id);
            ctl.stats.elections += 1;
            let elected = now + self.cfg.election_time;
            ctl.tracer.span(now, elected, "failover", "election");
            self.available_at = self.available_at.max(elected);
        }
        self.check_invariants(ctl);
        Ok(())
    }

    /// One chaos roll on the plane's own stream. A plane without a stream
    /// never draws; with one installed, every opportunity draws exactly
    /// once (even at rate zero) so rate sweeps stay draw-aligned.
    fn roll(&mut self, rate: f64) -> bool {
        match &mut self.rng {
            Some(rng) => rng.chance(rate),
            None => false,
        }
    }

    /// Whether the primary crashes at this phase boundary: the one-shot
    /// [`FailoverPlane::force_crash_at`] hook (which consumes itself and
    /// skips the roll), or a `controller_crash_rate` roll.
    fn crash_due(&mut self, phase: RecoveryPhase) -> bool {
        if self.crash_at_phase == Some(phase) {
            self.crash_at_phase = None;
            return true;
        }
        self.roll(self.chaos.controller_crash_rate)
    }

    /// The chaos-rolled crash of whoever is primary right now.
    fn primary_crashed(&mut self, ctl: &mut Controller, now: Time) {
        if let Some(p) = self.primary {
            // The primary id is in range by construction.
            let _ = self.crash_replica(ctl, p, now);
        }
    }

    /// Transmit one control message (a failure report or a reconfiguration
    /// command batch) over the possibly-lossy control network.
    ///
    /// Returns `Ok(penalty)` on delivery (timeouts + backoffs of lost
    /// attempts, plus any chaos delay) or `Err(penalty)` when the retry
    /// budget is exhausted — the caller keeps the journal entry pending.
    /// Draw-aligned: one loss roll per attempt, one delay roll on delivery.
    fn send_message(&mut self, ctl: &mut Controller, now: Time) -> Result<Duration, Duration> {
        let mut penalty = Duration::ZERO;
        let attempts = self.cfg.max_control_attempts.max(1);
        for attempt in 1..=attempts {
            if self.roll(self.chaos.control_loss_rate) {
                ctl.stats.control_losses += 1;
                penalty += self.cfg.control_timeout + ctl.cfg.latency.retry_backoff(attempt);
                if attempt == attempts {
                    ctl.stats.control_exhausted += 1;
                    ctl.tracer.instant(now, "failover", "control-exhausted");
                    return Err(penalty);
                }
                ctl.stats.control_retries += 1;
                ctl.tracer.instant(now, "failover", "control-retry");
                continue;
            }
            if self.roll(self.chaos.control_delay_rate) {
                ctl.stats.control_delays += 1;
                ctl.tracer.instant(now, "failover", "control-delay");
                penalty += self.cfg.control_delay;
            }
            return Ok(penalty);
        }
        unreachable!("the final attempt either delivers or returns Err")
    }

    /// Park `id` until `at` (its control channel exhausted the budget).
    fn defer(&mut self, id: u64, at: Time) {
        if let Some(e) = self.journal.get_mut(&id) {
            e.retry_at = at;
        }
    }

    fn set_phase(&mut self, id: u64, phase: RecoveryPhase) {
        if let Some(e) = self.journal.get_mut(&id) {
            e.phase = phase;
        }
    }

    /// Drive one journal entry as far as it will go at `now`.
    fn drive(&mut self, ctl: &mut Controller, id: u64, now: Time) {
        let Some(entry) = self.journal.get(&id).cloned() else {
            return;
        };
        if now < entry.retry_at {
            return;
        }
        if entry.interrupted && !entry.resumed {
            ctl.stats.recoveries_resumed += 1;
            ctl.tracer.instant(now, "failover", "recovery-resumed");
            if let Some(e) = self.journal.get_mut(&id) {
                e.resumed = true;
            }
        }
        let mut phase = entry.phase;
        let mut penalty = Duration::ZERO;

        if phase == RecoveryPhase::Reported {
            // The failure report must reach the (possibly new) primary.
            match self.send_message(ctl, now) {
                Ok(p) => penalty += p,
                Err(p) => {
                    self.defer(id, now + p);
                    return;
                }
            }
            if self.crash_due(RecoveryPhase::Reported) {
                self.primary_crashed(ctl, now);
                return;
            }
            phase = RecoveryPhase::Diagnosed;
            self.set_phase(id, phase);
        }

        if phase == RecoveryPhase::Diagnosed {
            // The mid-recovery window: diagnosis decided, commands not out.
            if self.crash_due(RecoveryPhase::Diagnosed) {
                self.primary_crashed(ctl, now);
                return;
            }
        }

        // (Re-)issue the reconfiguration command batch. Re-applying an
        // already-applied circuit configuration is idempotent at the
        // switches, so an Executed entry re-sends without harm.
        match self.send_message(ctl, now) {
            Ok(p) => penalty += p,
            Err(p) => {
                self.defer(id, now + p);
                return;
            }
        }
        let completed_at = now + penalty;

        let recovery = if let Some(done) = entry.executed {
            // Reconciliation: the recovery executed under the crashed
            // primary but was never acknowledged. The successor re-sent
            // the commands above and completes from the journaled outcome
            // — it must NOT run the handler again, which could assign a
            // second backup to an already-recovered slot.
            ctl.tracer
                .span(now, completed_at, "failover", "reconciliation");
            done
        } else {
            let reconciling = entry.interrupted;
            if reconciling {
                ctl.tracer.span_begin(now, "failover", "reconciliation");
            }
            let mut recovery = entry.report.drive(ctl, completed_at);
            if reconciling {
                ctl.tracer.span_end(completed_at);
            }
            recovery.latency += penalty;
            recovery.penalty += penalty;
            self.set_phase(id, RecoveryPhase::Executed);
            if let Some(e) = self.journal.get_mut(&id) {
                e.executed = Some(recovery.clone());
            }
            if self.crash_due(RecoveryPhase::Executed) {
                // Executed but unacknowledged: the successor reconciles.
                self.primary_crashed(ctl, now);
                return;
            }
            recovery
        };

        self.journal.remove(&id);
        self.completed.push(CompletedRecovery {
            id,
            reported_at: entry.reported_at,
            completed_at,
            recovery,
        });
        self.check_invariants(ctl);
    }

    /// Under `strict-invariants`, re-verify structure and counter algebra
    /// after every control-plane transition.
    fn check_invariants(&self, ctl: &Controller) {
        if cfg!(feature = "strict-invariants") {
            ctl.sb.check_invariants();
            ctl.stats.assert_consistent();
        }
    }
}

/// Milestones of one primary-crash → detection → election sequence, played
/// on the discrete-event engine ([`simulate_election`]).
#[derive(Clone, Copy, Debug)]
pub struct ElectionTimeline {
    /// When the primary died.
    pub crashed_at: Time,
    /// When a follower's scan first observed over-limit heartbeat silence.
    pub detected_at: Time,
    /// When the election completed (`detected_at + election_time`).
    pub elected_at: Time,
    /// The follower (by scan index) that detected the crash.
    pub detector: usize,
}

impl ElectionTimeline {
    /// Crash → detection.
    pub fn detection_latency(&self) -> Duration {
        self.detected_at.since(self.crashed_at)
    }

    /// Crash → new primary in charge.
    pub fn total_blackout(&self) -> Duration {
        self.elected_at.since(self.crashed_at)
    }
}

/// Play one primary crash on the discrete-event engine: the primary
/// heartbeats with phase `heartbeat_phase`, each follower scans for
/// silence with its own phase from `follower_phases` (the §4.1 keep-alive
/// detector of [`crate::detection`] turned on the controllers), the
/// primary dies at `crash_at`, and the election completes `election_time`
/// after the first follower detects the silence.
///
/// The plane itself charges the closed-form
/// [`FailoverConfig::blackout`]; this simulation shows that bound is
/// conservative for every phase alignment (see the property tests).
///
/// # Panics
/// Panics if `follower_phases` is empty or any phase is not within one
/// heartbeat period.
pub fn simulate_election(
    heartbeat: DetectionConfig,
    election_time: Duration,
    heartbeat_phase: Duration,
    follower_phases: &[Duration],
    crash_at: Time,
) -> ElectionTimeline {
    assert!(!follower_phases.is_empty(), "need at least one follower");
    let run = simulate_keepalive(heartbeat, heartbeat_phase, follower_phases, crash_at);
    ElectionTimeline {
        crashed_at: run.died_at,
        detected_at: run.detected_at,
        elected_at: run.detected_at + election_time,
        detector: run.scanner,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use sharebackup_topo::{GroupId, ShareBackup, ShareBackupConfig};

    fn controller(k: usize, n: usize) -> Controller {
        Controller::new(
            ShareBackup::build(ShareBackupConfig::new(k, n)),
            ControllerConfig::default(),
        )
    }

    /// Bench a victim and return its report.
    fn kill_one(ctl: &mut Controller) -> FailureReport {
        let slot = GroupId::agg(0).slot(0);
        let victim = ctl.sb.occupant(slot);
        ctl.sb.set_phys_healthy(victim, false);
        FailureReport::Node(victim)
    }

    #[test]
    fn inert_plane_completes_recoveries_synchronously() {
        let mut ctl = controller(4, 1);
        let mut plane = FailoverPlane::new(FailoverConfig::default());
        let report = kill_one(&mut ctl);
        plane.submit(&mut ctl, report, Time::from_secs(1));
        let done = plane.take_completed();
        assert_eq!(done.len(), 1);
        assert!(done[0].recovery.fully_recovered());
        assert_eq!(
            done[0].completed_at,
            Time::from_secs(1),
            "no penalty when inert"
        );
        assert_eq!(plane.pending_count(), 0);
        assert_eq!(ctl.stats.control_reports, 1);
        assert_eq!(ctl.stats.elections, 0);
        assert_eq!(ctl.stats.controller_crashes, 0);
        assert_eq!(ctl.stats.recoveries_resumed, 0);
        ctl.stats.assert_consistent();
    }

    #[test]
    fn crash_between_diagnosis_and_reconfiguration_is_resumed_by_successor() {
        let mut ctl = controller(4, 1);
        let mut plane = FailoverPlane::new(FailoverConfig::default());
        let t0 = Time::from_secs(1);
        plane.force_crash_at(RecoveryPhase::Diagnosed);
        let report = kill_one(&mut ctl);
        plane.submit(&mut ctl, report, t0);

        // The primary died mid-recovery: nothing completed, the entry is
        // journaled at the Diagnosed boundary, and replica 1 took over.
        assert!(plane.take_completed().is_empty());
        let pending = plane.pending();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].phase, RecoveryPhase::Diagnosed);
        assert!(pending[0].interrupted);
        assert_eq!(plane.primary(), Some(1));
        assert_eq!(ctl.stats.controller_crashes, 1);
        assert_eq!(ctl.stats.elections, 1);
        assert_eq!(ctl.stats.replacements, 0, "no backup assigned yet");

        // Mid-blackout: the plane refuses to act.
        let blackout = plane.cfg.blackout();
        plane.poll(&mut ctl, t0 + blackout - Duration::from_nanos(1));
        assert!(plane.take_completed().is_empty());

        // Once elected, the successor re-drives the journal to completion.
        let t1 = t0 + blackout;
        plane.poll(&mut ctl, t1);
        let done = plane.take_completed();
        assert_eq!(done.len(), 1);
        assert!(done[0].recovery.fully_recovered());
        assert_eq!(done[0].recovery.replaced.len(), 1);
        assert_eq!(done[0].completed_at, t1);
        assert_eq!(
            done[0].completed_at.since(done[0].reported_at),
            blackout,
            "dwell equals the control-plane blackout"
        );
        assert_eq!(ctl.stats.recoveries_resumed, 1);
        assert_eq!(ctl.stats.replacements, 1, "exactly one backup assigned");
        ctl.stats.assert_consistent();
    }

    #[test]
    fn crash_after_execution_reconciles_without_double_assignment() {
        let mut ctl = controller(4, 1);
        let mut plane = FailoverPlane::new(FailoverConfig::default());
        let t0 = Time::from_secs(1);
        plane.force_crash_at(RecoveryPhase::Executed);
        let report = kill_one(&mut ctl);
        plane.submit(&mut ctl, report, t0);

        // The recovery executed (one replacement) but was never acked.
        assert!(plane.take_completed().is_empty());
        assert_eq!(ctl.stats.replacements, 1);
        assert_eq!(plane.pending()[0].phase, RecoveryPhase::Executed);

        let t1 = t0 + plane.cfg.blackout();
        plane.poll(&mut ctl, t1);
        let done = plane.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].recovery.replaced.len(), 1);
        assert_eq!(
            ctl.stats.replacements, 1,
            "reconciliation must not assign a second backup"
        );
        assert_eq!(ctl.stats.recoveries_resumed, 1);
        ctl.stats.assert_consistent();
    }

    #[test]
    fn total_loss_blocks_until_restore_with_visible_dwell() {
        let mut ctl = controller(4, 1);
        let mut plane = FailoverPlane::new(FailoverConfig {
            replicas: 2,
            ..FailoverConfig::default()
        });
        let t0 = Time::from_secs(1);
        plane
            .crash_replica(&mut ctl, 0, t0)
            .expect("replica 0 in range");
        plane
            .crash_replica(&mut ctl, 1, t0)
            .expect("replica 1 in range");
        assert_eq!(plane.primary(), None);

        // A failure during the headless window stays journaled — visible,
        // not silently dropped.
        let report = kill_one(&mut ctl);
        let t1 = Time::from_secs(2);
        plane.submit(&mut ctl, report, t1);
        assert!(plane.take_completed().is_empty());
        assert_eq!(plane.pending_count(), 1);
        assert_eq!(ctl.stats.replacements, 0);

        // Restore a replica: it elects itself, and the journal drains
        // after the election.
        let t2 = Time::from_secs(3);
        plane
            .restore_replica(&mut ctl, 0, t2)
            .expect("replica 0 in range");
        assert_eq!(plane.primary(), Some(0));
        let t3 = t2 + plane.cfg.election_time;
        plane.poll(&mut ctl, t3);
        let done = plane.take_completed();
        assert_eq!(done.len(), 1);
        assert!(done[0].recovery.fully_recovered());
        assert_eq!(
            done[0].completed_at.since(done[0].reported_at),
            t3.since(t1),
            "dwell spans the whole headless window"
        );
        assert_eq!(
            ctl.stats.elections, 2,
            "the first crash elected replica 1; the restore elects again"
        );
        ctl.stats.assert_consistent();
    }

    fn two_replica_plane() -> FailoverPlane {
        FailoverPlane::new(FailoverConfig {
            replicas: 2,
            ..FailoverConfig::default()
        })
    }

    #[test]
    fn initial_primary_is_zero() {
        let plane = FailoverPlane::new(FailoverConfig::default());
        assert_eq!(plane.primary(), Some(0));
        assert!(plane.available(Time::ZERO));
        assert_eq!(plane.available_at(), Time::ZERO);
        for id in 0..plane.cfg.replicas {
            assert_eq!(plane.is_up(id), Ok(true));
        }
    }

    #[test]
    fn restored_replica_does_not_usurp() {
        let mut ctl = controller(4, 1);
        let mut plane = two_replica_plane();
        let t0 = Time::from_secs(1);
        plane.crash_replica(&mut ctl, 0, t0).expect("in range");
        assert_eq!(plane.primary(), Some(1));
        // The former primary rejoins as a follower: no usurpation, no
        // election, no new blackout.
        let blackout_end = plane.available_at();
        plane.restore_replica(&mut ctl, 0, t0).expect("in range");
        assert_eq!(plane.primary(), Some(1), "no usurpation on rejoin");
        assert_eq!(plane.is_up(0), Ok(true));
        assert_eq!(ctl.stats.elections, 1);
        assert_eq!(plane.available_at(), blackout_end);
        ctl.stats.assert_consistent();
    }

    #[test]
    fn double_restore_is_idempotent() {
        let mut ctl = controller(4, 1);
        let mut plane = two_replica_plane();
        let t0 = Time::from_secs(1);
        plane.crash_replica(&mut ctl, 0, t0).expect("in range");
        plane.crash_replica(&mut ctl, 1, t0).expect("in range");
        assert_eq!(plane.primary(), None);
        let elections = ctl.stats.elections;
        let t1 = Time::from_secs(2);
        plane.restore_replica(&mut ctl, 0, t1).expect("in range");
        let elected = t1 + plane.cfg.election_time;
        assert_eq!(
            plane.available_at(),
            elected,
            "restoring into a headless plane elects"
        );
        plane
            .restore_replica(&mut ctl, 0, t1)
            .expect("idempotent duplicate");
        assert_eq!(plane.primary(), Some(0));
        assert_eq!(ctl.stats.elections, elections + 1, "no second election");
        assert_eq!(
            ctl.stats.controller_restores, 1,
            "duplicate restore uncounted"
        );
        assert_eq!(plane.available_at(), elected);
        ctl.stats.assert_consistent();
    }

    #[test]
    fn out_of_range_ids_are_typed_errors_not_panics() {
        let mut ctl = controller(4, 1);
        let mut plane = two_replica_plane();
        let t0 = Time::from_secs(1);
        let err = ReplicaOutOfRange { id: 2, replicas: 2 };
        assert_eq!(plane.crash_replica(&mut ctl, 2, t0), Err(err));
        assert_eq!(
            plane.restore_replica(&mut ctl, 9, t0),
            Err(ReplicaOutOfRange { id: 9, replicas: 2 })
        );
        assert_eq!(plane.is_up(2), Err(err));
        assert!(err.to_string().contains("out of range"));
        // Nothing changed.
        assert_eq!(plane.primary(), Some(0));
        assert!(plane.available(t0));
        assert_eq!(ctl.stats.controller_crashes, 0);
        assert_eq!(ctl.stats.controller_restores, 0);
        assert_eq!(ctl.stats.elections, 0);
        ctl.stats.assert_consistent();
    }

    #[test]
    fn double_fail_of_dead_primary_charges_nothing_and_holds_no_election() {
        let mut ctl = controller(4, 1);
        let mut plane = FailoverPlane::new(FailoverConfig::default());
        let t0 = Time::from_secs(1);
        plane.crash_replica(&mut ctl, 0, t0).expect("in range");
        let blackout_end = t0 + plane.cfg.blackout();
        assert_eq!(plane.available_at(), blackout_end);
        assert_eq!(ctl.stats.elections, 1);
        // A duplicate crash report for the already-dead former primary:
        // free, electorally silent, state unchanged.
        let t1 = Time::from_secs(2);
        plane
            .crash_replica(&mut ctl, 0, t1)
            .expect("idempotent duplicate");
        assert_eq!(ctl.stats.elections, 1, "no second election charged");
        assert_eq!(ctl.stats.controller_crashes, 1, "duplicate crash uncounted");
        assert_eq!(plane.available_at(), blackout_end, "no second blackout");
        assert_eq!(plane.primary(), Some(1));
        assert_eq!(plane.is_up(1), Ok(true));
        assert_eq!(plane.is_up(2), Ok(true));
        ctl.stats.assert_consistent();
    }

    #[test]
    fn exhausted_control_channel_keeps_the_failure_journaled() {
        let mut ctl = controller(4, 1);
        let chaos = ChaosConfig {
            control_loss_rate: 1.0,
            ..ChaosConfig::off()
        };
        let mut plane = FailoverPlane::with_chaos(
            FailoverConfig {
                max_control_attempts: 3,
                ..FailoverConfig::default()
            },
            chaos,
            SimRng::seed_from_u64(7).child("control-chaos"),
        );
        let report = kill_one(&mut ctl);
        let t0 = Time::from_secs(1);
        plane.submit(&mut ctl, report, t0);

        // Every attempt lost: 3 losses = 2 retries + 1 exhausted; the
        // failure is still pending with a visible retry horizon.
        assert!(plane.take_completed().is_empty());
        assert_eq!(plane.pending_count(), 1);
        assert_eq!(ctl.stats.control_losses, 3);
        assert_eq!(ctl.stats.control_retries, 2);
        assert_eq!(ctl.stats.control_exhausted, 1);
        ctl.stats.assert_consistent();

        // The channel heals: the next poll past the backoff completes it.
        plane.chaos.control_loss_rate = 0.0;
        let t1 = t0 + Duration::from_secs(1);
        plane.poll(&mut ctl, t1);
        let done = plane.take_completed();
        assert_eq!(done.len(), 1);
        assert!(done[0].recovery.fully_recovered());
        ctl.stats.assert_consistent();
    }

    #[test]
    fn failover_telemetry_traces_elections_retries_and_reconciliation() {
        // The "failover" trace category tells the whole story: the crash
        // instant, the election span, the reconciliation span around the
        // resumed recovery, and one retry mark per lost control message.
        let mut ctl = controller(4, 1);
        let (tracer, sink) = sharebackup_telemetry::Tracer::recording();
        ctl.tracer = tracer;

        let chaos = ChaosConfig {
            control_loss_rate: 1.0,
            ..ChaosConfig::off()
        };
        let mut plane = FailoverPlane::with_chaos(
            FailoverConfig {
                max_control_attempts: 3,
                ..FailoverConfig::default()
            },
            chaos,
            SimRng::seed_from_u64(21).child("control-chaos"),
        );
        let report = kill_one(&mut ctl);
        let t0 = Time::from_secs(1);
        // Act 1: every control attempt lost — retries, then exhaustion.
        plane.submit(&mut ctl, report, t0);
        assert!(plane.take_completed().is_empty());

        // Act 2: the channel heals, but the primary dies at the diagnosis →
        // reconfiguration boundary of the resumed recovery.
        plane.chaos.control_loss_rate = 0.0;
        plane.force_crash_at(RecoveryPhase::Diagnosed);
        let t1 = t0 + Duration::from_secs(1);
        plane.poll(&mut ctl, t1);
        assert!(plane.take_completed().is_empty(), "crashed mid-recovery");

        // Act 3: the successor reconciles and completes.
        let t2 = t1 + plane.cfg.blackout();
        plane.poll(&mut ctl, t2);
        assert_eq!(plane.take_completed().len(), 1);

        let buf = sink.borrow_mut().take();
        let marks = buf.marks_in("failover");
        let count = |what: &str| marks.iter().filter(|(n, _)| n == what).count();
        assert_eq!(count("controller-crash"), 1);
        assert_eq!(
            count("control-retry") as u64,
            ctl.stats.control_retries,
            "one retry mark per counted retry"
        );
        assert!(count("control-retry") > 0, "lossy act really retried");
        assert_eq!(
            count("control-exhausted") as u64,
            ctl.stats.control_exhausted
        );
        assert_eq!(
            count("recovery-resumed") as u64,
            ctl.stats.recoveries_resumed
        );
        let spans = buf.spans_in("failover");
        assert!(
            spans.iter().any(|s| s.name == "election"),
            "election span recorded: {spans:?}"
        );
        let rec = spans
            .iter()
            .find(|s| s.name == "reconciliation")
            .expect("reconciliation span recorded");
        assert_eq!(rec.end, t2, "reconciliation closes at completion");
        assert!(buf.spans_in("chaos").is_empty(), "nothing leaks categories");
        ctl.stats.assert_consistent();
    }

    #[test]
    fn duplicate_report_is_idempotent_at_the_handler() {
        let mut ctl = controller(4, 1);
        let mut plane = FailoverPlane::new(FailoverConfig::default());
        let report = kill_one(&mut ctl);
        plane.submit(&mut ctl, report, Time::from_secs(1));
        // The same failure reported again (e.g. by a second witness).
        plane.submit(&mut ctl, report, Time::from_secs(1));
        let done = plane.take_completed();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].recovery.replaced.len(), 1);
        assert!(
            done[1].recovery.replaced.is_empty(),
            "the duplicate must not assign a second backup"
        );
        assert_eq!(ctl.stats.replacements, 1);
        ctl.stats.assert_consistent();
    }

    #[test]
    fn follower_crash_does_not_interrupt_and_duplicates_are_free() {
        let mut ctl = controller(4, 1);
        let mut plane = FailoverPlane::new(FailoverConfig::default());
        let t0 = Time::from_secs(1);
        plane.crash_replica(&mut ctl, 2, t0).expect("in range");
        plane
            .crash_replica(&mut ctl, 2, t0)
            .expect("idempotent duplicate");
        assert_eq!(ctl.stats.controller_crashes, 1, "duplicate crash uncounted");
        assert_eq!(ctl.stats.elections, 0);
        assert!(plane.available(t0), "follower crash causes no blackout");
        assert!(matches!(
            plane.crash_replica(&mut ctl, 99, t0),
            Err(ReplicaOutOfRange {
                id: 99,
                replicas: 3
            })
        ));
        let report = kill_one(&mut ctl);
        plane.submit(&mut ctl, report, t0);
        assert_eq!(plane.take_completed().len(), 1);
        ctl.stats.assert_consistent();
    }

    #[test]
    fn zero_rate_chaos_plane_matches_inert_plane() {
        // With a stream installed but all rates zero, behavior (and the
        // controller's stats) must match the no-stream plane exactly.
        let run = |plane: &mut FailoverPlane| {
            let mut ctl = controller(4, 1);
            let report = kill_one(&mut ctl);
            plane.submit(&mut ctl, report, Time::from_secs(1));
            let done = plane.take_completed();
            (done.len(), done[0].completed_at, ctl.stats)
        };
        let mut inert = FailoverPlane::new(FailoverConfig::default());
        let mut zeroed = FailoverPlane::with_chaos(
            FailoverConfig::default(),
            ChaosConfig::off(),
            SimRng::seed_from_u64(1).child("control-chaos"),
        );
        assert_eq!(run(&mut inert), run(&mut zeroed));
    }

    #[test]
    fn election_simulation_is_bounded_by_the_closed_form_blackout() {
        let cfg = FailoverConfig::default();
        for hb_us in [0u64, 137, 500, 999] {
            for scan_us in [0u64, 250, 731, 999] {
                let tl = simulate_election(
                    cfg.heartbeat,
                    cfg.election_time,
                    Duration::from_micros(hb_us),
                    &[
                        Duration::from_micros(scan_us),
                        Duration::from_micros((scan_us + 333) % 1000),
                    ],
                    Time::from_micros(4321),
                );
                assert!(
                    tl.detection_latency() <= cfg.heartbeat.worst_case(),
                    "detection {} beyond bound at phases ({hb_us}, {scan_us})",
                    tl.detection_latency()
                );
                assert!(tl.total_blackout() <= cfg.blackout());
                assert_eq!(
                    tl.elected_at.since(tl.detected_at),
                    cfg.election_time,
                    "election runs immediately after detection"
                );
            }
        }
    }

    #[test]
    fn election_simulation_pins_deterministic_arithmetic() {
        // Heartbeats at 0,1,2,... ms; follower scans at 0.5,1.5,... ms;
        // crash at 2.2 ms → last heartbeat 2 ms; scans observe silence
        // 0.5 (≤1), 1.5 (>1) → detected 3.5 ms, elected +50 ms.
        let tl = simulate_election(
            DetectionConfig::default(),
            Duration::from_millis(50),
            Duration::ZERO,
            &[Duration::from_micros(500)],
            Time::from_micros(2200),
        );
        assert_eq!(tl.detected_at, Time::from_micros(3500));
        assert_eq!(tl.detection_latency(), Duration::from_micros(1300));
        assert_eq!(tl.elected_at, Time::from_micros(53_500));
        assert_eq!(tl.detector, 0);
    }

    #[test]
    fn more_followers_detect_no_later() {
        let heartbeat = DetectionConfig::default();
        let one = simulate_election(
            heartbeat,
            Duration::from_millis(50),
            Duration::ZERO,
            &[Duration::from_micros(900)],
            Time::from_micros(2200),
        );
        let two = simulate_election(
            heartbeat,
            Duration::from_millis(50),
            Duration::ZERO,
            &[Duration::from_micros(900), Duration::from_micros(100)],
            Time::from_micros(2200),
        );
        assert!(two.detected_at <= one.detected_at);
        assert_eq!(two.detector, 1, "the better-aligned follower wins");
    }
}
