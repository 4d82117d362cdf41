//! Fault injection for the *recovery machinery itself*.
//!
//! The paper assumes the repair path never misbehaves: backups are always
//! healthy, circuit reconfigurations always succeed, diagnosis is always
//! right. [`ChaosConfig`] breaks each of those assumptions independently so
//! the controller's retry/fallback logic can be stress-tested:
//!
//! * **DOA backups** — a pool member turns out dead at activation; the
//!   controller has already spent a reconfiguration round before the
//!   keep-alive silence reveals it, and retries with the next pool member.
//! * **Reconfiguration failures** — a circuit-switch request times out or
//!   fails; the controller retries with deterministic exponential backoff
//!   up to a bound, then gives up on the slot.
//! * **Diagnosis errors** — offline diagnosis (§4.2) convicts a healthy
//!   suspect (shrinking the pool for a full repair cycle) or exonerates a
//!   faulty one (*poisoning* the pool: the bad switch will be handed out as
//!   a backup and fail again in service).
//!
//! Keep-alive loss (spurious failure reports) is modeled at the scenario
//! layer — the controller just has to survive a report about a switch that
//! is actually healthy (see `Controller::handle_node_failure`).
//!
//! The control plane itself can also misbehave (paper §5.1): the primary
//! controller replica can crash at any phase boundary of an in-flight
//! recovery, and control messages (failure reports, reconfiguration
//! commands) traverse a lossy/delayed control network. Those knobs —
//! [`ChaosConfig::controller_crash_rate`], [`ChaosConfig::control_loss_rate`]
//! and [`ChaosConfig::control_delay_rate`] — are evaluated **only** by the
//! replicated control plane in [`crate::failover`], on its own
//! `SimRng::child` stream; a bare `Controller` never reads them, so every
//! pre-existing digest stays byte-identical.
//!
//! All chaos decisions draw from a [`sharebackup_sim::SimRng`] stream the
//! caller passes in (`Controller::with_chaos`); a controller built without
//! one performs **zero** chaos draws and behaves bit-identically to the
//! pre-chaos code.

/// Failure rates for the recovery machinery. All rates are probabilities
/// in `[0, 1]` evaluated per opportunity (per activation, per
/// reconfiguration attempt, per diagnosis).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosConfig {
    /// Probability that a selected backup switch is dead on arrival.
    pub doa_rate: f64,
    /// Probability that one circuit-reconfiguration attempt fails.
    pub reconfig_failure_rate: f64,
    /// Reconfiguration attempts before the controller gives up on the slot
    /// (so `max_reconfig_retries - 1` retries after the first attempt).
    pub max_reconfig_retries: u32,
    /// Probability that diagnosis convicts a healthy suspect.
    pub false_conviction_rate: f64,
    /// Probability that diagnosis exonerates a faulty suspect.
    pub false_exoneration_rate: f64,
    /// Probability that the primary controller replica crashes at a
    /// recovery phase boundary (report processed / diagnosis done /
    /// reconfiguration executed-but-unacked). Evaluated only by
    /// [`crate::failover::FailoverPlane`].
    pub controller_crash_rate: f64,
    /// Probability that one control-message transmission (a failure report
    /// or a reconfiguration command batch) is lost in the control network.
    /// Evaluated only by [`crate::failover::FailoverPlane`].
    pub control_loss_rate: f64,
    /// Probability that a delivered control message suffers an extra
    /// propagation delay (a fixed 1 ms). Evaluated only by
    /// [`crate::failover::FailoverPlane`].
    pub control_delay_rate: f64,
}

impl ChaosConfig {
    /// The inert configuration: every rate zero. A controller carrying it
    /// still draws from its chaos stream (keeping draw alignment across a
    /// rate sweep), but every roll fails and no behavior changes.
    pub fn off() -> ChaosConfig {
        ChaosConfig {
            doa_rate: 0.0,
            reconfig_failure_rate: 0.0,
            max_reconfig_retries: 3,
            false_conviction_rate: 0.0,
            false_exoneration_rate: 0.0,
            controller_crash_rate: 0.0,
            control_loss_rate: 0.0,
            control_delay_rate: 0.0,
        }
    }

    /// Whether any rate is non-zero.
    pub fn is_active(&self) -> bool {
        self.doa_rate > 0.0
            || self.reconfig_failure_rate > 0.0
            || self.false_conviction_rate > 0.0
            || self.false_exoneration_rate > 0.0
            || self.controller_crash_rate > 0.0
            || self.control_loss_rate > 0.0
            || self.control_delay_rate > 0.0
    }
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_inactive() {
        assert!(!ChaosConfig::off().is_active());
        assert_eq!(ChaosConfig::default(), ChaosConfig::off());
    }

    #[test]
    fn any_rate_activates() {
        for f in [
            |c: &mut ChaosConfig| c.doa_rate = 0.1,
            |c: &mut ChaosConfig| c.reconfig_failure_rate = 0.1,
            |c: &mut ChaosConfig| c.false_conviction_rate = 0.1,
            |c: &mut ChaosConfig| c.false_exoneration_rate = 0.1,
            |c: &mut ChaosConfig| c.controller_crash_rate = 0.1,
            |c: &mut ChaosConfig| c.control_loss_rate = 0.1,
            |c: &mut ChaosConfig| c.control_delay_rate = 0.1,
        ] {
            let mut c = ChaosConfig::off();
            f(&mut c);
            assert!(c.is_active());
        }
    }
}
