//! The logically centralized recovery controller (paper §4.1–§4.2).
//!
//! Switches send keep-alives to the controller (node-failure detection) and
//! probe their neighbors F10-style (link-failure detection, reported to the
//! controller). On a failure the controller:
//!
//! 1. allocates an available backup switch in the failed switch's failure
//!    group (for link failures: on *both* sides — fast recovery cannot wait
//!    for diagnosis),
//! 2. reconfigures the group's circuit switches so the backup takes over
//!    the slot (the backup's tables are preloaded, §4.3, so no rules are
//!    installed), and
//! 3. runs offline diagnosis in the background; exonerated suspects return
//!    to the backup pool, convicted ones go to repair. Nothing ever
//!    switches back — roles swap (§4.2).
//!
//! If a group's pool is empty the failure is *not* recovered (the slot
//! stays down until repair) and the event is counted — the paper sizes `n`
//! so this never happens at realistic failure rates (§5.1). A burst of
//! link-failure reports converging on one circuit switch beyond a threshold
//! stops recovery and escalates to human intervention (§5.1).
//!
//! Under a [`ChaosConfig`] (see [`Controller::with_chaos`]) the recovery
//! machinery itself becomes fallible: backups can be dead on arrival
//! (detected at activation, retried with the next pool member), circuit
//! reconfigurations can fail (bounded retries with deterministic backoff,
//! all wasted rounds folded into [`Recovery::penalty`]), and diagnosis can
//! err in either direction. Slots the controller could not recover are
//! tracked in a degraded-slot set so the scenario layer can route around
//! them (or a repair-time retry can fix them, see
//! [`ControllerConfig::retry_exhausted_on_repair`]).

use std::collections::{BTreeMap, BTreeSet};
use std::ops::AddAssign;

use sharebackup_sim::{Duration, SimRng, Time};
use sharebackup_telemetry::Tracer;
use sharebackup_topo::{CsId, NodeId, PhysId, ShareBackup, SlotId};

use crate::chaos::ChaosConfig;
use crate::diagnosis::{diagnose, DiagnosisReport, Verdict};
use crate::latency::{RecoveryLatencyModel, RecoveryScheme};

/// Controller tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ControllerConfig {
    /// The latency model (probe interval, control messages, circuit reset).
    pub latency: RecoveryLatencyModel,
    /// Time for technicians to repair a convicted switch.
    pub switch_repair_time: Duration,
    /// Time to trouble-shoot a host whose NIC is at fault.
    pub host_repair_time: Duration,
    /// Link-failure reports attributable to one circuit switch within the
    /// reporting window before recovery stops and humans are paged (§5.1).
    pub cs_report_threshold: u32,
    /// Whether offline diagnosis (§4.2) runs after link failures. Disabled
    /// only by the diagnosis ablation: without it, both suspects are
    /// convicted and sit out the full repair time.
    pub diagnosis_enabled: bool,
    /// When a repair completes and refills a pool, immediately retry
    /// replacement for slots that were left unrecovered by pool exhaustion
    /// or aborted reconfiguration. Off by default: the baseline harnesses
    /// predate this heal path and their digests must not move.
    pub retry_exhausted_on_repair: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            latency: RecoveryLatencyModel::default(),
            switch_repair_time: Duration::from_secs(180), // "a few minutes"
            host_repair_time: Duration::from_secs(300),
            cs_report_threshold: 4,
            diagnosis_enabled: true,
            retry_exhausted_on_repair: false,
        }
    }
}

/// Counters the controller keeps (reported by the harness).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Node failures handled.
    pub node_failures: u64,
    /// Link failures handled.
    pub link_failures: u64,
    /// Host-link failures handled.
    pub host_link_failures: u64,
    /// Slot replacements performed.
    pub replacements: u64,
    /// Failures left unrecovered because the pool was empty.
    pub fallbacks: u64,
    /// Offline diagnoses run.
    pub diagnoses: u64,
    /// Suspects exonerated (returned straight to the pool).
    pub exonerations: u64,
    /// Suspects convicted (sent to repair).
    pub convictions: u64,
    /// Circuit switches that received reconfiguration requests.
    pub circuit_reconfigs: u64,
    /// Escalations to human intervention.
    pub escalations: u64,
    /// Slot-replacement attempts (every call that either replaced a slot's
    /// occupant or recorded a fallback); see [`ControllerStats::assert_consistent`].
    pub recovery_attempts: u64,
    /// Backups found dead on arrival at activation (chaos).
    pub doa_backups: u64,
    /// Circuit-reconfiguration attempts that failed and were retried
    /// (chaos).
    pub reconfig_retries: u64,
    /// Slots abandoned after exhausting the reconfiguration retry budget
    /// (chaos); each is also counted as a fallback.
    pub reconfig_aborts: u64,
    /// Fallbacks caused by an empty backup pool.
    pub pool_exhausted: u64,
    /// Fallbacks refused because recovery was halted by an escalation.
    pub halted_fallbacks: u64,
    /// Node-failure reports about switches that were actually healthy
    /// (keep-alive loss).
    pub spurious_reports: u64,
    /// Healthy suspects wrongly convicted by diagnosis (chaos).
    pub false_convictions: u64,
    /// Faulty suspects wrongly exonerated by diagnosis (chaos); these
    /// poison the backup pool.
    pub false_exonerations: u64,
    /// Flows the scenario layer routed in degraded (reroute) mode at least
    /// once; maintained by `ShareBackupWorld`, not the controller.
    pub degraded_flows: u64,
    /// Controller replicas crashed (any replica, primary or follower);
    /// maintained by `FailoverPlane`, not the bare controller.
    pub controller_crashes: u64,
    /// Controller replicas restored; maintained by `FailoverPlane`.
    pub controller_restores: u64,
    /// Leader elections held after a crash or a restore (the initial
    /// bootstrap election is excluded); maintained by `FailoverPlane`.
    pub elections: u64,
    /// Failure reports submitted to the replicated control plane;
    /// maintained by `FailoverPlane`.
    pub control_reports: u64,
    /// Journaled recoveries re-driven by a successor primary after the
    /// primary that was processing them crashed; each journal entry is
    /// counted at most once. Maintained by `FailoverPlane`.
    pub recoveries_resumed: u64,
    /// Control-message transmissions lost in the control network (chaos);
    /// maintained by `FailoverPlane`.
    pub control_losses: u64,
    /// Control-message transmissions retried after a loss; maintained by
    /// `FailoverPlane`.
    pub control_retries: u64,
    /// Control messages abandoned after exhausting the per-message retry
    /// budget (the recovery stays journaled and is re-driven later);
    /// maintained by `FailoverPlane`.
    pub control_exhausted: u64,
    /// Delivered control messages that suffered an extra chaos delay;
    /// maintained by `FailoverPlane`.
    pub control_delays: u64,
}

impl ControllerStats {
    /// Verify the counter block's internal accounting: every replacement
    /// attempt either replaced the slot's occupant or was recorded as a
    /// fallback, and every fallback has exactly one recorded cause (empty
    /// pool, halted recovery, or an aborted reconfiguration). Diagnosis
    /// error counts can never exceed the verdicts they flipped.
    ///
    /// # Panics
    /// Panics with the violated equation if the counters are inconsistent.
    pub fn assert_consistent(&self) {
        assert_eq!(
            self.recovery_attempts,
            self.replacements + self.fallbacks,
            "every replacement attempt replaces or falls back"
        );
        assert_eq!(
            self.fallbacks,
            self.pool_exhausted + self.halted_fallbacks + self.reconfig_aborts,
            "every fallback has exactly one recorded cause"
        );
        assert!(
            self.false_convictions <= self.convictions,
            "false convictions are a subset of convictions"
        );
        assert!(
            self.false_exonerations <= self.exonerations,
            "false exonerations are a subset of exonerations"
        );
        assert_eq!(
            self.control_losses,
            self.control_retries + self.control_exhausted,
            "every lost control message is either retried or abandoned"
        );
        assert!(
            self.elections <= self.controller_crashes + self.controller_restores,
            "elections are triggered only by crashes or restores"
        );
        assert!(
            self.recoveries_resumed <= self.control_reports,
            "only journaled reports can be resumed, at most once each"
        );
    }
}

/// The counter list, written once: [`ControllerStats::counters`] (names and
/// values, the `--json` block), [`ControllerStats::record`] (the trace
/// block) and `AddAssign` (summing trials) all derive from it. The
/// destructures are exhaustive, so a new counter does not compile until it
/// is listed here.
macro_rules! counter_list {
    ($($field:ident),+ $(,)?) => {
        impl ControllerStats {
            /// How many counters the block holds.
            pub const COUNT: usize = [$(stringify!($field)),+].len();

            /// Every counter as `(field name, value)`, in list order.
            pub fn counters(&self) -> [(&'static str, u64); Self::COUNT] {
                let ControllerStats { $($field),+ } = *self;
                [$((stringify!($field), $field)),+]
            }

            /// Add every counter to `tracer` as `controller.<field>`, zeros
            /// included, so every trace carries the whole block.
            pub fn record(&self, tracer: &Tracer) {
                let ControllerStats { $($field),+ } = *self;
                $(tracer.add(concat!("controller.", stringify!($field)), $field);)+
            }

            fn counters_mut(&mut self) -> [&mut u64; Self::COUNT] {
                let ControllerStats { $($field),+ } = self;
                [$($field),+]
            }
        }
    };
}

counter_list! {
    node_failures, link_failures, host_link_failures, replacements, fallbacks, diagnoses,
    exonerations, convictions, circuit_reconfigs, escalations, recovery_attempts, doa_backups,
    reconfig_retries, reconfig_aborts, pool_exhausted, halted_fallbacks, spurious_reports,
    false_convictions, false_exonerations, degraded_flows, controller_crashes,
    controller_restores, elections, control_reports, recoveries_resumed, control_losses,
    control_retries, control_exhausted, control_delays,
}

/// Sum two counter blocks field by field (aggregating trials).
impl AddAssign for ControllerStats {
    fn add_assign(&mut self, other: ControllerStats) {
        for (mine, (_, theirs)) in self.counters_mut().into_iter().zip(other.counters()) {
            *mine += theirs;
        }
    }
}

/// What one failure-handling call did.
#[derive(Clone, Debug)]
pub struct Recovery {
    /// Detection + repair latency of this recovery (per the §5.3 model),
    /// *including* [`Recovery::penalty`]; the data plane is whole again
    /// this long after the failure struck.
    pub latency: Duration,
    /// Extra latency charged by chaos: wasted reconfiguration rounds on
    /// dead-on-arrival backups, plus timeout + backoff per failed
    /// reconfiguration attempt. Zero when chaos is off.
    pub penalty: Duration,
    /// Slots whose occupant was replaced: (slot, old, new).
    pub replaced: Vec<(SlotId, PhysId, PhysId)>,
    /// Slots left unrecovered (pool empty, recovery halted, or the
    /// reconfiguration retry budget exhausted).
    pub unrecovered: Vec<SlotId>,
    /// Background diagnoses run (link failures only).
    pub diagnosis: Vec<DiagnosisReport>,
}

impl Recovery {
    /// Whether the data plane was fully restored.
    pub fn fully_recovered(&self) -> bool {
        self.unrecovered.is_empty()
    }
}

/// Pending repair work.
#[derive(Clone, Copy, Debug)]
enum RepairJob {
    Switch(PhysId),
    HostNic(NodeId),
}

/// The ShareBackup recovery controller. Owns the network.
pub struct Controller {
    /// The physical network under control.
    pub sb: ShareBackup,
    /// Tuning knobs.
    pub cfg: ControllerConfig,
    /// Running counters.
    pub stats: ControllerStats,
    /// Telemetry handle. Off by default; harnesses that record traces
    /// install a recording tracer and every failure handled then emits a
    /// backdated detection → diagnosis → reconfiguration span tree whose
    /// durations sum to [`Recovery::latency`].
    pub tracer: Tracer,
    /// Chaos rates for the recovery machinery; inert unless a chaos RNG
    /// stream was installed via [`Controller::with_chaos`].
    pub chaos: ChaosConfig,
    repairs: Vec<(Time, RepairJob)>,
    cs_reports: BTreeMap<CsId, u32>,
    halted: bool,
    chaos_rng: Option<SimRng>,
    degraded_slots: BTreeSet<SlotId>,
}

impl Controller {
    /// A controller over a freshly built network. No chaos: the recovery
    /// machinery is infallible and performs zero RNG draws.
    pub fn new(sb: ShareBackup, cfg: ControllerConfig) -> Controller {
        Controller {
            sb,
            cfg,
            stats: ControllerStats::default(),
            tracer: Tracer::off(),
            chaos: ChaosConfig::off(),
            repairs: Vec::new(),
            cs_reports: BTreeMap::new(),
            halted: false,
            chaos_rng: None,
            degraded_slots: BTreeSet::new(),
        }
    }

    /// A controller whose recovery machinery fails per `chaos`, with all
    /// rolls drawn from `rng` (pass a dedicated [`SimRng::child`] stream so
    /// chaos draws never perturb workload or failure sampling).
    pub fn with_chaos(
        sb: ShareBackup,
        cfg: ControllerConfig,
        chaos: ChaosConfig,
        rng: SimRng,
    ) -> Controller {
        let mut c = Controller::new(sb, cfg);
        c.chaos = chaos;
        c.chaos_rng = Some(rng);
        c
    }

    /// Slots currently left unrecovered (down until repair or a later
    /// replacement retry), in slot order.
    pub fn degraded_slots(&self) -> impl Iterator<Item = SlotId> + '_ {
        self.degraded_slots.iter().copied()
    }

    /// One chaos roll. A controller without a chaos stream never draws;
    /// with a stream installed, every opportunity draws exactly once (even
    /// at rate zero) so that sweeping one rate leaves the other components'
    /// draw sequences aligned.
    fn chaos_roll(&mut self, rate: f64) -> bool {
        match &mut self.chaos_rng {
            Some(rng) => rng.chance(rate),
            None => false,
        }
    }

    /// Whether recovery has been halted pending human intervention.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Clear an escalation after "human intervention" (e.g. the circuit
    /// switch was rebooted and re-synced its configuration from the
    /// controller, §5.1).
    pub fn resume_after_intervention(&mut self) {
        self.halted = false;
        self.cs_reports.clear();
    }

    /// Under `strict-invariants`, re-verify the network's structural
    /// invariants at the end of every controller transition. The topo layer
    /// already checks after each `refresh_state`; this additionally covers
    /// the quiescent state the controller leaves behind (after multi-step
    /// recoveries and batched repairs).
    fn check_invariants(&self) {
        if cfg!(feature = "strict-invariants") {
            self.sb.check_invariants();
            self.stats.assert_consistent();
        }
    }

    /// The recovery latency charged per §5.3.
    fn recovery_latency(&self) -> Duration {
        self.cfg
            .latency
            .total(RecoveryScheme::ShareBackup(self.sb.cfg.tech))
    }

    /// Emit the paper's recovery-phase breakdown as a span tree. `now` is
    /// the instant the data plane is whole again (handlers are invoked at
    /// recovery completion); the phases are backdated from it per the §5.3
    /// model, so detection + diagnosis + reconfiguration sums exactly to
    /// [`Recovery::latency`]:
    ///
    /// ```text
    /// recovery ├ detection        (probe interval)
    ///          ├ diagnosis        (report message + controller processing)
    ///          ├ reconfiguration  (command message + circuit reset)
    ///          └ restored         (instant, at `now`)
    /// ```
    fn record_recovery_breakdown(&self, now: Time) {
        if !self.tracer.is_enabled() {
            return;
        }
        let lat = &self.cfg.latency;
        let detection = lat.detection();
        let diagnosis = lat.control_message + lat.controller_processing;
        let reconfiguration = lat.control_message + self.sb.cfg.tech.reconfiguration_delay();
        // If `now` is earlier than the modeled latency (synthetic tests
        // firing at t=0), Time − Duration saturates at zero and only the
        // backdated boundaries compress; `now` itself is always honored.
        let fail_t = now - (detection + diagnosis + reconfiguration);
        let t = &self.tracer;
        t.span_begin(fail_t, "recovery", "recovery");
        t.span_begin(fail_t, "recovery", "detection");
        t.span_end(fail_t + detection);
        t.span_begin(fail_t + detection, "recovery", "diagnosis");
        t.span_end(fail_t + detection + diagnosis);
        t.span_begin(
            fail_t + detection + diagnosis,
            "recovery",
            "reconfiguration",
        );
        t.span_end(now);
        t.instant(now, "recovery", "restored");
        t.span_end(now);
    }

    /// Record one fallback (slot left unrecovered) with its cause already
    /// counted by the caller.
    fn fall_back(&mut self, slot: SlotId, now: Time, recovery: &mut Recovery) {
        recovery.unrecovered.push(slot);
        self.stats.fallbacks += 1;
        self.degraded_slots.insert(slot);
        self.tracer.instant(now, "chaos", "fallback");
    }

    /// Replace the occupant of `slot` with a backup from its group's pool.
    /// Returns the replacement or records a fallback.
    ///
    /// Under chaos this is a retry loop: a dead-on-arrival backup costs one
    /// wasted reconfiguration round and the next pool member is tried; a
    /// failed reconfiguration attempt costs a timeout plus deterministic
    /// backoff and is retried up to the configured budget. All wasted time
    /// accumulates in [`Recovery::penalty`].
    fn try_replace(&mut self, slot: SlotId, now: Time, recovery: &mut Recovery) {
        self.stats.recovery_attempts += 1;
        if self.halted {
            self.stats.halted_fallbacks += 1;
            self.fall_back(slot, now, recovery);
            return;
        }
        let round = self.cfg.latency.reconfig_round(self.sb.cfg.tech);
        loop {
            let Some(&backup) = self.sb.spares(slot.group).first() else {
                self.stats.pool_exhausted += 1;
                self.fall_back(slot, now, recovery);
                return;
            };
            if self.chaos_roll(self.chaos.doa_rate) {
                // The reconfiguration completed, then the backup never
                // answered a keep-alive: one round wasted, backup to
                // repair, try the next pool member.
                self.stats.doa_backups += 1;
                recovery.penalty += round;
                self.sb.set_phys_healthy(backup, false);
                self.repairs
                    .push((now + self.cfg.switch_repair_time, RepairJob::Switch(backup)));
                self.tracer.instant(now, "chaos", "doa-backup");
                continue;
            }
            // Circuit reconfiguration with a bounded retry budget.
            let mut attempt = 1u32;
            while self.chaos_roll(self.chaos.reconfig_failure_rate) {
                if attempt >= self.chaos.max_reconfig_retries {
                    self.stats.reconfig_aborts += 1;
                    self.fall_back(slot, now, recovery);
                    return;
                }
                self.stats.reconfig_retries += 1;
                recovery.penalty += round + self.cfg.latency.retry_backoff(attempt);
                self.tracer.instant(now, "chaos", "reconfig-retry");
                attempt += 1;
            }
            let old = self.sb.occupant(slot);
            let report = self.sb.replace(slot, backup);
            self.stats.replacements += 1;
            self.stats.circuit_reconfigs += report.circuit_switches_touched as u64;
            recovery.replaced.push((slot, old, backup));
            self.degraded_slots.remove(&slot);
            return;
        }
    }

    /// Handle a detected node (whole-switch) failure.
    ///
    /// The caller must already have injected the ground truth
    /// ([`ShareBackup::set_phys_healthy`]) — the controller *reacts*. A
    /// report about a switch that is actually healthy (keep-alive loss) is
    /// handled the same way — fast recovery cannot wait to distinguish a
    /// lost report from a dead switch — but counted as spurious, and the
    /// evicted healthy switch returns straight to the pool instead of
    /// going to repair.
    pub fn handle_node_failure(&mut self, failed: PhysId, now: Time) -> Recovery {
        self.stats.node_failures += 1;
        self.record_recovery_breakdown(now);
        let mut recovery = Recovery {
            latency: self.recovery_latency(),
            penalty: Duration::ZERO,
            replaced: Vec::new(),
            unrecovered: Vec::new(),
            diagnosis: Vec::new(),
        };
        let spurious = self.sb.phys(failed).healthy;
        if spurious {
            self.stats.spurious_reports += 1;
            self.tracer.instant(now, "chaos", "spurious-report");
        }
        if let Some(slot) = self.sb.slot_of(failed) {
            self.try_replace(slot, now, &mut recovery);
        }
        if !spurious {
            // The dead switch goes to repair; once repaired it joins the
            // pool as a backup (role swap, §4.2). A spuriously-evicted
            // healthy switch is already a spare again — nothing to repair.
            self.repairs
                .push((now + self.cfg.switch_repair_time, RepairJob::Switch(failed)));
        }
        recovery.latency += recovery.penalty;
        self.check_invariants();
        recovery
    }

    /// Handle a detected link failure between two switch interfaces.
    ///
    /// Both suspects are replaced immediately (§4.1); offline diagnosis then
    /// exonerates the healthy side, which returns to the pool, while the
    /// faulty side goes to repair (§4.2).
    pub fn handle_link_failure(
        &mut self,
        a: (PhysId, usize),
        b: (PhysId, usize),
        now: Time,
    ) -> Recovery {
        self.stats.link_failures += 1;
        self.record_recovery_breakdown(now);
        let mut recovery = Recovery {
            latency: self.recovery_latency(),
            penalty: Duration::ZERO,
            replaced: Vec::new(),
            unrecovered: Vec::new(),
            diagnosis: Vec::new(),
        };
        for &(suspect, _iface) in [&a, &b] {
            if let Some(slot) = self.sb.slot_of(suspect) {
                self.try_replace(slot, now, &mut recovery);
            }
        }
        // Offline diagnosis in the background (suspects are offline now).
        for &(suspect, iface) in [&a, &b] {
            let mut report = if self.cfg.diagnosis_enabled {
                self.stats.diagnoses += 1;
                diagnose(&mut self.sb, suspect, iface)
            } else {
                // Ablation arm: no diagnosis — every suspect is convicted.
                crate::diagnosis::DiagnosisReport {
                    suspect,
                    iface,
                    configs_tested: 0,
                    tests_passed: 0,
                    verdict: Verdict::Untestable,
                }
            };
            // Chaos: diagnosis errs. A false conviction benches a healthy
            // switch for a full repair cycle; a false exoneration returns a
            // faulty switch to the pool (its broken interface persists in
            // ground truth, so it will fail again when handed out).
            match report.verdict {
                Verdict::Healthy => {
                    if self.chaos_roll(self.chaos.false_conviction_rate) {
                        self.stats.false_convictions += 1;
                        self.tracer.instant(now, "chaos", "false-conviction");
                        report.verdict = Verdict::Faulty;
                    }
                }
                Verdict::Faulty | Verdict::Untestable => {
                    if self.chaos_roll(self.chaos.false_exoneration_rate) {
                        self.stats.false_exonerations += 1;
                        self.tracer.instant(now, "chaos", "false-exoneration");
                        report.verdict = Verdict::Healthy;
                    }
                }
            }
            match report.verdict {
                Verdict::Healthy => {
                    // Exonerated: already a spare; nothing to repair.
                    self.stats.exonerations += 1;
                }
                Verdict::Faulty | Verdict::Untestable => {
                    self.stats.convictions += 1;
                    // Take it fully out of circulation until repaired.
                    self.sb.set_phys_healthy(suspect, false);
                    self.repairs.push((
                        now + self.cfg.switch_repair_time,
                        RepairJob::Switch(suspect),
                    ));
                }
            }
            recovery.diagnosis.push(report);
        }
        recovery.latency += recovery.penalty;
        self.check_invariants();
        recovery
    }

    /// Handle a failed host↔edge link. Offline diagnosis cannot involve the
    /// host (§4.2), so the switch is assumed faulty and replaced; if the
    /// problem persists (the host NIC is the real culprit) the switch is
    /// redressed and the host trouble-shot.
    pub fn handle_host_link_failure(&mut self, host: NodeId, now: Time) -> Recovery {
        self.stats.host_link_failures += 1;
        self.record_recovery_breakdown(now);
        let mut recovery = Recovery {
            latency: self.recovery_latency(),
            penalty: Duration::ZERO,
            replaced: Vec::new(),
            unrecovered: Vec::new(),
            diagnosis: Vec::new(),
        };
        // The host's edge slot: follow its (single) link.
        let edge_node = {
            let net = &self.sb.slots.net;
            let l = net.incident(host)[0];
            net.link(l).other(host)
        };
        #[expect(
            clippy::expect_used,
            reason = "hosts attach to edge slots by construction"
        )]
        let slot = self
            .sb
            .node_slot(edge_node)
            .expect("host connects to an edge slot");
        let suspect = self.sb.occupant(slot);
        self.try_replace(slot, now, &mut recovery);
        if !recovery.replaced.is_empty() {
            // Did replacing the switch fix the link?
            #[expect(
                clippy::expect_used,
                reason = "the host link was found above via incident()"
            )]
            let link = self
                .sb
                .slots
                .net
                .link_between(host, edge_node)
                .expect("host link");
            if self.sb.slots.net.link_usable(link) {
                // Switch was at fault: repair it.
                self.sb.set_phys_healthy(suspect, false);
                self.repairs.push((
                    now + self.cfg.switch_repair_time,
                    RepairJob::Switch(suspect),
                ));
            } else {
                // "We mark the switch as healthy and trouble-shoot the
                // host." The exonerated switch is already in the pool.
                self.stats.exonerations += 1;
                self.repairs
                    .push((now + self.cfg.host_repair_time, RepairJob::HostNic(host)));
            }
        }
        recovery.latency += recovery.penalty;
        self.check_invariants();
        recovery
    }

    /// Record link-failure reports attributable to circuit switch `cs`. If
    /// they exceed the threshold, recovery halts and humans are paged
    /// (§5.1). Returns whether the controller is (now) halted.
    pub fn report_cs_suspicion(&mut self, cs: CsId, reports: u32) -> bool {
        let count = self.cs_reports.entry(cs).or_insert(0);
        *count += reports;
        if *count >= self.cfg.cs_report_threshold && !self.halted {
            self.halted = true;
            self.stats.escalations += 1;
        }
        self.halted
    }

    /// Complete all repairs due by `now`. Repaired switches rejoin their
    /// group's backup pool; repaired host NICs restore the host link.
    ///
    /// Degraded slots whose own occupant came back are cleared from the
    /// degraded set; with [`ControllerConfig::retry_exhausted_on_repair`]
    /// the controller additionally retries replacement for slots that are
    /// still down now that the pool has refilled.
    pub fn poll_repairs(&mut self, now: Time) -> usize {
        let mut done = 0;
        let mut remaining = Vec::with_capacity(self.repairs.len());
        let jobs = std::mem::take(&mut self.repairs);
        for (due, job) in jobs {
            if due <= now {
                match job {
                    RepairJob::Switch(p) => self.sb.set_phys_healthy(p, true),
                    RepairJob::HostNic(h) => self.sb.set_host_nic_broken(h, false),
                }
                done += 1;
            } else {
                remaining.push((due, job));
            }
        }
        self.repairs = remaining;
        if done > 0 {
            let degraded: Vec<SlotId> = self.degraded_slots.iter().copied().collect();
            for slot in degraded {
                if self.sb.slots.net.node(self.sb.slot_node(slot)).up {
                    // The slot's own occupant was repaired in place.
                    self.degraded_slots.remove(&slot);
                } else if self.cfg.retry_exhausted_on_repair
                    && !self.halted
                    && !self.sb.spares(slot.group).is_empty()
                {
                    let mut retry = Recovery {
                        latency: Duration::ZERO,
                        penalty: Duration::ZERO,
                        replaced: Vec::new(),
                        unrecovered: Vec::new(),
                        diagnosis: Vec::new(),
                    };
                    self.try_replace(slot, now, &mut retry);
                    if !retry.replaced.is_empty() {
                        self.tracer.instant(now, "chaos", "degraded-slot-recovered");
                    }
                }
            }
            self.check_invariants();
        }
        done
    }

    /// Instant of the next pending repair, if any.
    pub fn next_repair_due(&self) -> Option<Time> {
        self.repairs.iter().map(|&(t, _)| t).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharebackup_topo::{GroupId, ShareBackupConfig};

    fn controller(k: usize, n: usize) -> Controller {
        Controller::new(
            ShareBackup::build(ShareBackupConfig::new(k, n)),
            ControllerConfig::default(),
        )
    }

    #[test]
    fn node_failure_recovers_with_one_replacement() {
        let mut c = controller(4, 1);
        let slot = GroupId::agg(1).slot(0);
        let victim = c.sb.occupant(slot);
        c.sb.set_phys_healthy(victim, false);
        let r = c.handle_node_failure(victim, Time::ZERO);
        assert!(r.fully_recovered());
        assert_eq!(r.replaced.len(), 1);
        assert_eq!(r.replaced[0].0, slot);
        assert!(c.sb.slots.net.node(c.sb.slot_node(slot)).up);
        assert!(r.latency < Duration::from_millis(3));
        assert_eq!(c.stats.replacements, 1);
        // Pool is now empty (n=1, victim under repair).
        assert!(c.sb.spares(slot.group).is_empty());
    }

    #[test]
    fn repaired_switch_becomes_backup_role_swap() {
        let mut c = controller(4, 1);
        let slot = GroupId::edge(0).slot(1);
        let victim = c.sb.occupant(slot);
        c.sb.set_phys_healthy(victim, false);
        c.handle_node_failure(victim, Time::ZERO);
        assert_eq!(c.poll_repairs(Time::from_secs(10)), 0, "not due yet");
        let due = c.next_repair_due().expect("repair scheduled");
        assert_eq!(c.poll_repairs(due), 1);
        // The old occupant is back — as a backup, not in its old slot.
        assert_eq!(c.sb.slot_of(victim), None);
        assert_eq!(c.sb.spares(slot.group), vec![victim]);
    }

    #[test]
    fn pool_exhaustion_counts_fallback() {
        let mut c = controller(4, 1);
        let g = GroupId::core(0);
        let v0 = c.sb.occupant(g.slot(0));
        let v1 = c.sb.occupant(g.slot(1));
        c.sb.set_phys_healthy(v0, false);
        let r0 = c.handle_node_failure(v0, Time::ZERO);
        assert!(r0.fully_recovered());
        c.sb.set_phys_healthy(v1, false);
        let r1 = c.handle_node_failure(v1, Time::ZERO);
        assert!(!r1.fully_recovered());
        assert_eq!(c.stats.fallbacks, 1);
        // After repair, the pool refills and the down slot can be fixed by
        // a later failure-handling pass — here we just check the slot is
        // still down.
        assert!(!c.sb.slots.net.node(c.sb.slot_node(g.slot(1))).up);
    }

    #[test]
    fn link_failure_replaces_both_and_diagnosis_exonerates_one() {
        let mut c = controller(6, 1);
        // Break the edge-side interface of the edge(0,0)↔agg(0,0) link.
        let edge_slot = GroupId::edge(0).slot(0);
        let agg_slot = GroupId::agg(0).slot(0);
        let edge_phys = c.sb.occupant(edge_slot);
        let agg_phys = c.sb.occupant(agg_slot);
        // Edge up-port m where (0+m)%3 == 0 → m=0 → iface 3. Agg down-port 0.
        c.sb.set_iface_broken(edge_phys, 3, true);
        let r = c.handle_link_failure((edge_phys, 3), (agg_phys, 0), Time::ZERO);
        assert_eq!(r.replaced.len(), 2, "both suspects replaced");
        assert_eq!(c.stats.diagnoses, 2);
        assert_eq!(c.stats.exonerations, 1);
        assert_eq!(c.stats.convictions, 1);
        // The exonerated agg is immediately a spare again.
        assert!(c.sb.spares(agg_slot.group).contains(&agg_phys));
        // The convicted edge is out until repair.
        assert!(!c.sb.phys(edge_phys).healthy);
        assert!(!c.sb.spares(edge_slot.group).contains(&edge_phys));
        // Data plane fully restored.
        assert!(r.fully_recovered());
        let link =
            c.sb.slots
                .net
                .link_between(c.sb.slots.edge(0, 0), c.sb.slots.agg(0, 0))
                .expect("link");
        assert!(c.sb.slots.net.link_usable(link));
    }

    #[test]
    fn host_link_failure_with_faulty_switch() {
        let mut c = controller(4, 1);
        let slot = GroupId::edge(2).slot(0);
        let edge_phys = c.sb.occupant(slot);
        // Break the edge's host-facing interface 1 → host(2,0,1)'s link.
        c.sb.set_iface_broken(edge_phys, 1, true);
        let host = c.sb.slots.host(sharebackup_topo::HostAddr {
            pod: 2,
            edge: 0,
            host: 1,
        });
        let r = c.handle_host_link_failure(host, Time::ZERO);
        assert_eq!(r.replaced.len(), 1);
        // Replacement fixed it → switch convicted.
        assert!(!c.sb.phys(edge_phys).healthy);
        let edge_node = c.sb.slots.edge(2, 0);
        let l = c.sb.slots.net.link_between(host, edge_node).expect("link");
        assert!(c.sb.slots.net.link_usable(l));
    }

    #[test]
    fn host_link_failure_with_faulty_host_nic() {
        let mut c = controller(4, 1);
        let host = c.sb.slots.host(sharebackup_topo::HostAddr {
            pod: 1,
            edge: 1,
            host: 0,
        });
        c.sb.set_host_nic_broken(host, true);
        let slot = GroupId::edge(1).slot(1);
        let suspect = c.sb.occupant(slot);
        let r = c.handle_host_link_failure(host, Time::ZERO);
        assert_eq!(
            r.replaced.len(),
            1,
            "switch replaced first (assumed faulty)"
        );
        // Replacement did NOT fix it → switch exonerated, host trouble-shot.
        assert!(c.sb.phys(suspect).healthy);
        assert!(c.sb.spares(slot.group).contains(&suspect));
        assert_eq!(c.stats.exonerations, 1);
        // Host repair eventually restores the link.
        let due = c.next_repair_due().expect("host repair scheduled");
        c.poll_repairs(due);
        let edge_node = c.sb.slots.edge(1, 1);
        let l = c.sb.slots.net.link_between(host, edge_node).expect("link");
        assert!(c.sb.slots.net.link_usable(l));
    }

    #[test]
    fn circuit_switch_suspicion_escalates_and_halts() {
        let mut c = controller(4, 1);
        let cs = CsId::EdgeAgg { pod: 0, m: 0 };
        assert!(!c.report_cs_suspicion(cs, 3));
        assert!(c.report_cs_suspicion(cs, 1)); // threshold 4 reached
        assert!(c.is_halted());
        assert_eq!(c.stats.escalations, 1);
        // Halted controller refuses replacements.
        let slot = GroupId::edge(0).slot(0);
        let victim = c.sb.occupant(slot);
        c.sb.set_phys_healthy(victim, false);
        let r = c.handle_node_failure(victim, Time::ZERO);
        assert!(!r.fully_recovered());
        // Human intervention resumes service.
        c.resume_after_intervention();
        assert!(!c.is_halted());
    }

    #[test]
    fn spare_switch_failure_needs_no_replacement() {
        let mut c = controller(4, 2);
        let g = GroupId::agg(3);
        let spare = c.sb.spares(g)[0];
        c.sb.set_phys_healthy(spare, false);
        let r = c.handle_node_failure(spare, Time::ZERO);
        assert!(r.replaced.is_empty());
        assert!(r.fully_recovered());
        assert_eq!(c.sb.spares(g).len(), 1);
    }

    #[test]
    fn recovery_breakdown_spans_sum_to_reported_latency() {
        let mut c = controller(4, 1);
        let (tracer, sink) = Tracer::recording();
        c.tracer = tracer;
        let slot = GroupId::agg(0).slot(0);
        let victim = c.sb.occupant(slot);
        c.sb.set_phys_healthy(victim, false);
        let now = Time::from_secs(30);
        let r = c.handle_node_failure(victim, now);

        let buf = sink.borrow_mut().take();
        let spans = buf.spans();
        let of = |name: &str| {
            spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing span {name}"))
                .clone()
        };
        let (rec, det, dia, cfg) = (
            of("recovery"),
            of("detection"),
            of("diagnosis"),
            of("reconfiguration"),
        );
        // The three phases tile the parent span contiguously...
        assert_eq!(rec.begin, det.begin);
        assert_eq!(det.end, dia.begin);
        assert_eq!(dia.end, cfg.begin);
        assert_eq!(cfg.end, rec.end);
        assert_eq!(rec.end, now, "data plane whole at the handler instant");
        // ...children are nested under the parent...
        assert_eq!(rec.depth, 0);
        for child in [&det, &dia, &cfg] {
            assert_eq!(child.depth, 1);
        }
        // ...and the phase durations sum exactly to Recovery::latency.
        let total = det.end.since(det.begin) + dia.end.since(dia.begin) + cfg.end.since(cfg.begin);
        assert_eq!(total, r.latency);
        // The restored instant marks the end.
        assert!(buf.events.iter().any(|e| matches!(
            e,
            sharebackup_telemetry::TraceEvent::Mark { name, at, .. }
                if name == "restored" && *at == now
        )));
    }

    #[test]
    fn untracked_controller_records_nothing() {
        let mut c = controller(4, 1);
        let victim = c.sb.occupant(GroupId::agg(0).slot(0));
        c.sb.set_phys_healthy(victim, false);
        // Default tracer is off: this must not panic or allocate a buffer.
        assert!(!c.tracer.is_enabled());
        let r = c.handle_node_failure(victim, Time::from_secs(1));
        assert!(r.fully_recovered());
    }

    #[test]
    fn stats_consistency_over_mixed_outcomes() {
        use sharebackup_sim::SimRng;
        // n=1 pools + certain DOA: the first failure burns the single
        // spare (DOA) and falls back pool-exhausted.
        let chaos = crate::chaos::ChaosConfig {
            doa_rate: 1.0,
            ..crate::chaos::ChaosConfig::off()
        };
        let mut c = Controller::with_chaos(
            ShareBackup::build(ShareBackupConfig::new(4, 1)),
            ControllerConfig::default(),
            chaos,
            SimRng::seed_from_u64(1).child("chaos"),
        );
        let slot = GroupId::agg(0).slot(0);
        let victim = c.sb.occupant(slot);
        c.sb.set_phys_healthy(victim, false);
        let r = c.handle_node_failure(victim, Time::ZERO);
        assert!(!r.fully_recovered());
        assert_eq!(c.stats.doa_backups, 1);
        assert_eq!(c.stats.pool_exhausted, 1);
        assert_eq!(c.stats.fallbacks, 1);
        assert_eq!(c.stats.replacements, 0);
        assert!(r.penalty > Duration::ZERO, "wasted round charged");
        assert_eq!(r.latency, c.recovery_latency() + r.penalty);
        // A healthy-pool replacement on another group, then a halted one.
        let slot2 = GroupId::edge(2).slot(0);
        let v2 = c.sb.occupant(slot2);
        c.chaos.doa_rate = 0.0;
        c.sb.set_phys_healthy(v2, false);
        assert!(c.handle_node_failure(v2, Time::ZERO).fully_recovered());
        c.halted = true;
        let slot3 = GroupId::edge(3).slot(0);
        let v3 = c.sb.occupant(slot3);
        c.sb.set_phys_healthy(v3, false);
        assert!(!c.handle_node_failure(v3, Time::ZERO).fully_recovered());
        assert_eq!(c.stats.halted_fallbacks, 1);
        // replacements + fallbacks + halted slots account for everything.
        c.stats.assert_consistent();
        assert_eq!(c.stats.recovery_attempts, 3);
        let degraded: Vec<SlotId> = c.degraded_slots().collect();
        assert_eq!(degraded.len(), 2);
        assert!(degraded.contains(&slot) && degraded.contains(&slot3));
    }

    #[test]
    fn summed_consistent_stats_stay_consistent() {
        use crate::failover::{FailoverConfig, FailoverPlane, FailureReport, RecoveryPhase};

        // Data-plane counters: one replacement, then an empty pool.
        let mut c = controller(4, 1);
        let g = GroupId::agg(0);
        for slot in [g.slot(0), g.slot(1)] {
            let victim = c.sb.occupant(slot);
            c.sb.set_phys_healthy(victim, false);
            c.handle_node_failure(victim, Time::ZERO);
        }
        let a = c.stats;
        a.assert_consistent();
        assert_eq!(a.fallbacks, 1);

        // Control-plane counters: the primary crashes mid-recovery and a
        // successor resumes the journaled report.
        let mut c = controller(4, 1);
        let mut plane = FailoverPlane::new(FailoverConfig::default());
        plane.force_crash_at(RecoveryPhase::Diagnosed);
        let victim = c.sb.occupant(GroupId::edge(1).slot(0));
        c.sb.set_phys_healthy(victim, false);
        plane.submit(&mut c, FailureReport::Node(victim), Time::ZERO);
        plane.poll(&mut c, Time::from_secs(1));
        let b = c.stats;
        b.assert_consistent();
        assert_eq!((b.recoveries_resumed, b.elections), (1, 1));

        let mut sum = a;
        sum += b;
        sum.assert_consistent();
        assert_eq!(
            sum.recovery_attempts,
            a.recovery_attempts + b.recovery_attempts
        );
        assert_eq!(sum.control_reports, b.control_reports);
        assert_eq!(sum.pool_exhausted, a.pool_exhausted);

        // The counter list names each field once, and `AddAssign` is the
        // field-wise sum of `counters()`.
        let names: BTreeSet<&str> = sum.counters().iter().map(|&(name, _)| name).collect();
        assert_eq!(names.len(), ControllerStats::COUNT);
        let parts = a.counters().into_iter().zip(b.counters());
        for ((name, s), ((_, x), (_, y))) in sum.counters().into_iter().zip(parts) {
            assert_eq!(s, x + y, "{name}");
        }
        // `record` traces the same block under `controller.<field>`.
        let (tracer, sink) = Tracer::recording();
        sum.record(&tracer);
        let traced: BTreeMap<&str, u64> = sink.borrow().buffer().counters.clone();
        let listed: BTreeMap<&str, u64> = sum.counters().into_iter().collect();
        assert_eq!(traced.len(), ControllerStats::COUNT);
        for (name, v) in traced {
            let field = name.strip_prefix("controller.").expect("prefixed");
            assert_eq!(listed[field], v, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "every fallback has exactly one recorded cause")]
    fn stats_inconsistency_is_caught() {
        let stats = ControllerStats {
            recovery_attempts: 1,
            fallbacks: 1, // no cause recorded
            ..ControllerStats::default()
        };
        stats.assert_consistent();
    }

    #[test]
    fn doa_backup_retries_next_pool_member() {
        use sharebackup_sim::SimRng;
        // Two spares (n=2), certain DOA for the first pool member: after
        // one roll fires, disable the rate (rates are re-read per roll) so
        // the retry with the second member succeeds. This exercises the
        // retry loop deterministically without depending on seed luck.
        let chaos = crate::chaos::ChaosConfig {
            doa_rate: 1.0,
            ..crate::chaos::ChaosConfig::off()
        };
        let mut c = Controller::with_chaos(
            ShareBackup::build(ShareBackupConfig::new(4, 2)),
            ControllerConfig::default(),
            chaos,
            SimRng::seed_from_u64(2).child("chaos"),
        );
        let slot = GroupId::agg(1).slot(0);
        let victim = c.sb.occupant(slot);
        assert_eq!(c.sb.spares(slot.group).len(), 2);
        c.sb.set_phys_healthy(victim, false);
        // First failure at rate 1.0: the first spare is DOA, and because
        // the rate stays 1.0 the second spare is burned too → fallback.
        let r = c.handle_node_failure(victim, Time::ZERO);
        assert!(!r.fully_recovered());
        assert_eq!(c.stats.doa_backups, 2, "both pool members burned");
        assert_eq!(c.stats.pool_exhausted, 1);
        assert!(c.sb.spares(slot.group).is_empty());
        // Penalty: one wasted round per DOA.
        let round = c.cfg.latency.reconfig_round(c.sb.cfg.tech);
        assert_eq!(r.penalty, round * 2);
        // Both DOA backups went to repair; after repair the pool refills
        // and a fresh failure recovers on the first try at rate 0.
        let due = c
            .next_repair_due()
            .expect("DOA backups scheduled for repair");
        c.poll_repairs(Time::from_secs(3600));
        assert!(due <= Time::from_secs(3600));
        // The repaired victim re-occupies its slot (it was never replaced),
        // so the spares are exactly the two repaired DOA members.
        assert_eq!(c.sb.spares(slot.group).len(), 2);
        assert_eq!(c.degraded_slots().count(), 0, "slot healed in place");
        c.chaos.doa_rate = 0.0;
        let slot2 = slot.group.slot(1);
        let v2 = c.sb.occupant(slot2);
        c.sb.set_phys_healthy(v2, false);
        let r2 = c.handle_node_failure(v2, Time::from_secs(3600));
        assert!(r2.fully_recovered());
        assert_eq!(r2.penalty, Duration::ZERO);
        c.stats.assert_consistent();
    }

    #[test]
    fn reconfig_failures_retry_with_backoff_then_abort() {
        use sharebackup_sim::SimRng;
        let chaos = crate::chaos::ChaosConfig {
            reconfig_failure_rate: 1.0,
            max_reconfig_retries: 3,
            ..crate::chaos::ChaosConfig::off()
        };
        let mut c = Controller::with_chaos(
            ShareBackup::build(ShareBackupConfig::new(4, 1)),
            ControllerConfig::default(),
            chaos,
            SimRng::seed_from_u64(3).child("chaos"),
        );
        let slot = GroupId::core(0).slot(0);
        let victim = c.sb.occupant(slot);
        c.sb.set_phys_healthy(victim, false);
        let r = c.handle_node_failure(victim, Time::ZERO);
        // Certain failure: 2 retries after the first attempt, then abort.
        assert!(!r.fully_recovered());
        assert_eq!(c.stats.reconfig_retries, 2);
        assert_eq!(c.stats.reconfig_aborts, 1);
        assert_eq!(c.stats.fallbacks, 1);
        // Penalty: 2 × (round + backoff), with doubling backoff.
        let lat = &c.cfg.latency;
        let round = lat.reconfig_round(c.sb.cfg.tech);
        let expect = round + lat.retry_backoff(1) + round + lat.retry_backoff(2);
        assert_eq!(r.penalty, expect);
        assert!(lat.retry_backoff(2) == lat.retry_backoff(1) * 2);
        c.stats.assert_consistent();
    }

    #[test]
    fn diagnosis_errors_flip_verdicts_and_poison_pool() {
        use sharebackup_sim::SimRng;
        // Certain false exoneration: the faulty edge switch returns to the
        // pool with its broken interface intact.
        let chaos = crate::chaos::ChaosConfig {
            false_exoneration_rate: 1.0,
            ..crate::chaos::ChaosConfig::off()
        };
        let mut c = Controller::with_chaos(
            ShareBackup::build(ShareBackupConfig::new(6, 1)),
            ControllerConfig::default(),
            chaos,
            SimRng::seed_from_u64(4).child("chaos"),
        );
        let edge_slot = GroupId::edge(0).slot(0);
        let agg_slot = GroupId::agg(0).slot(0);
        let edge_phys = c.sb.occupant(edge_slot);
        let agg_phys = c.sb.occupant(agg_slot);
        c.sb.set_iface_broken(edge_phys, 3, true);
        let r = c.handle_link_failure((edge_phys, 3), (agg_phys, 0), Time::ZERO);
        assert_eq!(r.replaced.len(), 2);
        // The faulty edge was exonerated instead of convicted...
        assert_eq!(c.stats.false_exonerations, 1);
        assert_eq!(c.stats.exonerations, 2);
        assert_eq!(c.stats.convictions, 0);
        // ...so it sits in the pool with a broken interface (poisoned).
        assert!(c.sb.spares(edge_slot.group).contains(&edge_phys));
        assert!(c.sb.phys(edge_phys).healthy);
        c.stats.assert_consistent();

        // Certain false conviction: the innocent far end gets benched.
        let chaos = crate::chaos::ChaosConfig {
            false_conviction_rate: 1.0,
            ..crate::chaos::ChaosConfig::off()
        };
        let mut c = Controller::with_chaos(
            ShareBackup::build(ShareBackupConfig::new(6, 1)),
            ControllerConfig::default(),
            chaos,
            SimRng::seed_from_u64(5).child("chaos"),
        );
        let edge_phys = c.sb.occupant(edge_slot);
        let agg_phys = c.sb.occupant(agg_slot);
        c.sb.set_iface_broken(edge_phys, 3, true);
        let r = c.handle_link_failure((edge_phys, 3), (agg_phys, 0), Time::ZERO);
        assert_eq!(r.replaced.len(), 2);
        // Healthy agg convicted alongside the truly faulty edge.
        assert_eq!(c.stats.false_convictions, 1);
        assert_eq!(c.stats.convictions, 2);
        assert_eq!(c.stats.exonerations, 0);
        assert!(!c.sb.phys(agg_phys).healthy, "innocent switch benched");
        // Both go to repair; after it, both pools refill.
        let due = c.next_repair_due().expect("repairs scheduled");
        c.poll_repairs(due);
        assert!(c.sb.spares(agg_slot.group).contains(&agg_phys));
        c.stats.assert_consistent();
    }

    #[test]
    fn spurious_report_evicts_but_skips_repair() {
        use sharebackup_sim::SimRng;
        let mut c = Controller::with_chaos(
            ShareBackup::build(ShareBackupConfig::new(4, 1)),
            ControllerConfig::default(),
            crate::chaos::ChaosConfig::off(),
            SimRng::seed_from_u64(6).child("chaos"),
        );
        let slot = GroupId::edge(1).slot(0);
        let healthy = c.sb.occupant(slot);
        // No ground-truth injection: the report is a keep-alive loss.
        let r = c.handle_node_failure(healthy, Time::ZERO);
        assert!(r.fully_recovered());
        assert_eq!(c.stats.spurious_reports, 1);
        assert_eq!(
            c.stats.replacements, 1,
            "controller cannot tell, swaps anyway"
        );
        // The evicted healthy switch is instantly a spare again; no repair
        // job was scheduled for it.
        assert!(c.sb.spares(slot.group).contains(&healthy));
        assert_eq!(c.next_repair_due(), None);
        c.stats.assert_consistent();
    }

    #[test]
    fn retry_exhausted_on_repair_heals_degraded_slot() {
        // Pool n=1: two failures in one group exhaust it; when the first
        // victim's repair completes, the opt-in retry fixes the second
        // slot immediately instead of waiting for its own occupant.
        let cfg = ControllerConfig {
            retry_exhausted_on_repair: true,
            ..ControllerConfig::default()
        };
        let mut c = Controller::new(ShareBackup::build(ShareBackupConfig::new(4, 1)), cfg);
        let g = GroupId::core(0);
        let v0 = c.sb.occupant(g.slot(0));
        let v1 = c.sb.occupant(g.slot(1));
        c.sb.set_phys_healthy(v0, false);
        assert!(c.handle_node_failure(v0, Time::ZERO).fully_recovered());
        c.sb.set_phys_healthy(v1, false);
        assert!(!c
            .handle_node_failure(v1, Time::from_secs(1))
            .fully_recovered());
        assert_eq!(c.degraded_slots().count(), 1);
        // v0's repair (scheduled at t=0) refills the pool first.
        let due = c.next_repair_due().expect("repair scheduled");
        c.poll_repairs(due);
        // The degraded slot was re-replaced from the refilled pool.
        assert_eq!(c.degraded_slots().count(), 0);
        assert!(c.sb.slots.net.node(c.sb.slot_node(g.slot(1))).up);
        assert_eq!(c.stats.replacements, 2);
        c.stats.assert_consistent();
    }

    #[test]
    fn latency_depends_on_circuit_technology() {
        use sharebackup_topo::CircuitTech;
        let sb_mems =
            ShareBackup::build(ShareBackupConfig::new(4, 1).with_tech(CircuitTech::Mems2D));
        let mut c_mems = Controller::new(sb_mems, ControllerConfig::default());
        let mut c_xp = controller(4, 1);
        let v1 = c_mems.sb.occupant(GroupId::edge(0).slot(0));
        let v2 = c_xp.sb.occupant(GroupId::edge(0).slot(0));
        c_mems.sb.set_phys_healthy(v1, false);
        c_xp.sb.set_phys_healthy(v2, false);
        let r1 = c_mems.handle_node_failure(v1, Time::ZERO);
        let r2 = c_xp.handle_node_failure(v2, Time::ZERO);
        assert!(r1.latency > r2.latency);
    }
}
