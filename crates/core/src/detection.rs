//! Event-driven failure detection (paper §4.1): keep-alives and neighbor
//! probes on the discrete-event engine.
//!
//! Two detectors exist in ShareBackup, both adopted from F10's rapid
//! failure detection:
//!
//! * **Node failures** — every switch sends keep-alives to the controller
//!   on a fixed interval; the controller declares a node dead after a run
//!   of missed keep-alives.
//! * **Link failures** — neighboring switches (and hosts) probe each other
//!   on the same interval, testing interface, data link, and forwarding
//!   engine; a switch that misses probes from a neighbor reports the link
//!   to the controller.
//!
//! This module simulates the keep-alive machinery precisely — staggered
//! probe phases, death at an arbitrary instant, a scan loop at the
//! controller — and yields the detection-latency distribution that the
//! closed-form [`crate::latency::RecoveryLatencyModel`] summarizes with its
//! worst-case `probe_interval` term.

use sharebackup_sim::{Duration, Engine, SimRng, Time, World};

/// Parameters of the keep-alive detector.
#[derive(Clone, Copy, Debug)]
pub struct DetectionConfig {
    /// Keep-alive / probe period.
    pub probe_interval: Duration,
    /// Consecutive misses before a device is declared dead.
    pub miss_threshold: u32,
}

impl Default for DetectionConfig {
    fn default() -> Self {
        DetectionConfig {
            probe_interval: Duration::from_millis(1),
            miss_threshold: 1,
        }
    }
}

impl DetectionConfig {
    /// The silence the controller must observe before declaring a device
    /// dead: `miss_threshold` full keep-alive periods.
    pub fn silence_limit(&self) -> Duration {
        self.probe_interval * self.miss_threshold as u64
    }

    /// The scan-alignment term of the worst-case detection latency: the
    /// controller's scan loop runs on the same period as the keep-alives,
    /// so after the silence limit is exceeded, up to one further period
    /// can pass before the next scan observes it.
    pub fn scan_alignment(&self) -> Duration {
        self.probe_interval
    }

    /// The worst-case detection latency: the device dies right after a
    /// keep-alive, the controller needs [`DetectionConfig::silence_limit`]
    /// of silence, **plus** its own [`DetectionConfig::scan_alignment`] —
    /// the scan that finally observes the over-limit silence can trail it
    /// by up to one full period.
    ///
    /// The bound is tight: with the keep-alive and scan phases equal and
    /// death exactly at a keep-alive instant, the simulated latency equals
    /// this value (see the `worst_case_bound_is_tight_and_alignment_term_is_load_bearing`
    /// test, which also proves dropping the alignment term makes the bound
    /// wrong).
    pub fn worst_case(&self) -> Duration {
        self.silence_limit() + self.scan_alignment()
    }
}

enum Ev {
    /// The monitored device emits a keep-alive (if still alive).
    KeepAlive,
    /// The device dies.
    Die,
    /// Scanner `i`'s tick.
    Scan(usize),
}

struct DetectorWorld {
    cfg: DetectionConfig,
    last_seen: Time,
    alive: bool,
    died_at: Option<Time>,
    /// When, and by which scanner, the death was declared.
    detected: Option<(Time, usize)>,
}

impl World<Ev> for DetectorWorld {
    fn handle(&mut self, engine: &mut Engine<Ev>, now: Time, ev: Ev) {
        match ev {
            Ev::KeepAlive => {
                if self.alive {
                    self.last_seen = now;
                    engine.schedule_in(self.cfg.probe_interval, Ev::KeepAlive);
                }
            }
            Ev::Die => {
                self.alive = false;
                self.died_at = Some(now);
            }
            Ev::Scan(i) => {
                if self.detected.is_none() {
                    let silence = now.saturating_since(self.last_seen);
                    if self.died_at.is_some() && silence > self.cfg.silence_limit() {
                        self.detected = Some((now, i));
                        return; // stop scanning
                    }
                    engine.schedule_in(self.cfg.probe_interval, Ev::Scan(i));
                }
            }
        }
    }
}

/// What one keep-alive run observed.
pub(crate) struct KeepAliveRun {
    /// When the monitored device died.
    pub(crate) died_at: Time,
    /// When a scanner first observed over-limit silence.
    pub(crate) detected_at: Time,
    /// Which scanner (by index into the scan phases) observed it.
    pub(crate) scanner: usize,
}

/// Play one keep-alive detection on the discrete-event engine: the device
/// keep-alives with phase `probe_phase`, one scanner per entry of
/// `scan_phases` scans for silence with that phase, and the device dies at
/// `die_at`. Events are scheduled keep-alive, then scans in index order,
/// then death, so same-instant ties resolve in that order.
///
/// # Panics
/// Panics if any phase is not within one probe interval.
pub(crate) fn simulate_keepalive(
    cfg: DetectionConfig,
    probe_phase: Duration,
    scan_phases: &[Duration],
    die_at: Time,
) -> KeepAliveRun {
    assert!(probe_phase < cfg.probe_interval, "phase within one period");
    let mut engine: Engine<Ev> = Engine::new();
    engine.schedule(Time::ZERO + probe_phase, Ev::KeepAlive);
    for (i, &phase) in scan_phases.iter().enumerate() {
        assert!(phase < cfg.probe_interval, "phase within one period");
        engine.schedule(Time::ZERO + phase, Ev::Scan(i));
    }
    engine.schedule(die_at, Ev::Die);
    let mut world = DetectorWorld {
        cfg,
        last_seen: Time::ZERO,
        alive: true,
        died_at: None,
        detected: None,
    };
    engine.run(&mut world);
    #[expect(
        clippy::expect_used,
        reason = "the death event is scheduled up front and always runs"
    )]
    let died_at = world.died_at.expect("death event ran");
    #[expect(
        clippy::expect_used,
        reason = "with a scanner, some scan always observes the silence"
    )]
    let (detected_at, scanner) = world.detected.expect("a scanner detects");
    KeepAliveRun {
        died_at,
        detected_at,
        scanner,
    }
}

/// Simulate one node-failure detection: the switch keep-alives with phase
/// `probe_phase` ∈ [0, interval), the controller scans with phase
/// `scan_phase`, and the switch dies at `die_at`. Returns the latency from
/// death to the controller's declaration.
pub fn simulate_detection(
    cfg: DetectionConfig,
    probe_phase: Duration,
    scan_phase: Duration,
    die_at: Time,
) -> Duration {
    let run = simulate_keepalive(cfg, probe_phase, &[scan_phase], die_at);
    run.detected_at.since(run.died_at)
}

/// The detection-latency distribution over `samples` random probe/scan
/// phases and death instants. Returns latencies in seconds.
pub fn detection_latency_samples(
    cfg: DetectionConfig,
    rng: &mut SimRng,
    samples: usize,
) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let p = cfg.probe_interval.as_secs_f64();
            let probe_phase = Duration::from_secs_f64(rng.f64() * p * 0.999);
            let scan_phase = Duration::from_secs_f64(rng.f64() * p * 0.999);
            let die_at = Time::from_secs_f64(rng.f64() * 10.0 * p + p);
            simulate_detection(cfg, probe_phase, scan_phase, die_at).as_secs_f64()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharebackup_sim::Summary;

    #[test]
    fn detection_is_bounded_by_worst_case() {
        let cfg = DetectionConfig::default();
        let mut rng = SimRng::seed_from_u64(11);
        let samples = detection_latency_samples(cfg, &mut rng, 500);
        let worst = cfg.worst_case().as_secs_f64();
        for &s in &samples {
            assert!(s > 0.0);
            assert!(s <= worst + 1e-9, "sample {s} beyond worst case {worst}");
        }
    }

    #[test]
    fn mean_detection_is_about_one_interval() {
        // With threshold 1 the latency is T + v − u for independent uniform
        // phases u, v ∈ (0, T): mean exactly one period, support (0, 2T).
        let cfg = DetectionConfig::default();
        let mut rng = SimRng::seed_from_u64(12);
        let samples = detection_latency_samples(cfg, &mut rng, 2000);
        let s = Summary::of(&samples).expect("nonempty");
        let period = cfg.probe_interval.as_secs_f64();
        assert!(
            (s.mean - period).abs() < 0.1 * period,
            "mean {} vs period {period}",
            s.mean
        );
        assert!(s.max < 2.0 * period);
        assert!(s.min > 0.0);
    }

    #[test]
    fn higher_threshold_slows_detection() {
        let fast = DetectionConfig::default();
        let slow = DetectionConfig {
            miss_threshold: 3,
            ..fast
        };
        let mut rng = SimRng::seed_from_u64(13);
        let f = detection_latency_samples(fast, &mut rng, 300);
        let mut rng = SimRng::seed_from_u64(13);
        let s = detection_latency_samples(slow, &mut rng, 300);
        let fm: f64 = f.iter().sum::<f64>() / f.len() as f64;
        let sm: f64 = s.iter().sum::<f64>() / s.len() as f64;
        assert!(sm > fm * 2.0, "threshold 3 must be much slower: {sm} vs {fm}");
    }

    #[test]
    fn worst_case_bound_is_tight_and_alignment_term_is_load_bearing() {
        // Tightness: equal keep-alive/scan phases, death one tick after a
        // keep-alive. The scan landing exactly at last_seen + mT observes
        // silence of exactly mT — not over the limit — so declaration
        // waits one further full scan period: the latency reaches
        // silence_limit + scan_alignment − 1 tick, i.e. the worst-case
        // bound is approached to within the clock resolution.
        let tick = Duration::from_nanos(1);
        for miss_threshold in [1u32, 2, 3] {
            let cfg = DetectionConfig {
                miss_threshold,
                ..DetectionConfig::default()
            };
            let lat = simulate_detection(
                cfg,
                Duration::ZERO,
                Duration::ZERO,
                // Keep-alive instants are 0, 1, 2, ... ms (phase 0, T=1ms).
                Time::from_millis(2) + tick,
            );
            assert_eq!(
                lat,
                cfg.worst_case() - tick,
                "bound attained to within one tick at m={miss_threshold}"
            );
            // Load-bearing: a "simplified" bound without the alignment
            // term is violated by this very schedule.
            assert!(lat > cfg.silence_limit(), "silence limit alone is too small");
        }
    }

    #[test]
    fn deterministic_case_pins_arithmetic() {
        // Keep-alives at 0,1,2,... ms; scan at 0.5,1.5,... ms; death at
        // 2.2 ms. Last keep-alive at 2 ms. Scans: 2.5 (silence 0.5 <= 1),
        // 3.5 (silence 1.5 > 1) → detected at 3.5 ms; latency 1.3 ms.
        let cfg = DetectionConfig::default();
        let lat = simulate_detection(
            cfg,
            Duration::ZERO,
            Duration::from_micros(500),
            Time::from_micros(2200),
        );
        assert_eq!(lat, Duration::from_micros(1300));
    }
}
