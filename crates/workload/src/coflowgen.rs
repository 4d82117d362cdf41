//! Synthetic coflow trace generation (Facebook-like shape).
//!
//! Structure follows the Coflow-Benchmark format: each coflow has a set of
//! mapper racks and reducer racks; the shuffle creates one flow from every
//! mapper to every reducer. Widths and sizes are heavy-tailed with
//! parameters chosen to echo the published Facebook distributions: the
//! median coflow is narrow (few flows) and small (megabytes), while the
//! top few percent of coflows carry most bytes and have hundreds of flows.

use sharebackup_flowsim::{Coflow, CoflowId, FlowSpec};
use sharebackup_routing::FlowKey;
use sharebackup_sim::{SimRng, Time};
use sharebackup_topo::NodeId;

/// Parameters of a synthetic coflow trace.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Number of racks (mapped cyclically onto edge switches by the caller's
    /// `rack_to_host` function).
    pub racks: usize,
    /// Trace duration.
    pub duration: Time,
    /// Mean coflow inter-arrival time in seconds (Poisson arrivals).
    pub mean_interarrival_s: f64,
    /// Pareto shape for the mapper/reducer counts (smaller = heavier tail).
    pub width_alpha: f64,
    /// Maximum mappers or reducers per coflow (clamped to `racks`).
    pub max_width: usize,
    /// Pareto scale (bytes) for per-reducer shuffle size.
    pub bytes_scale: f64,
    /// Pareto shape for per-reducer shuffle size.
    pub bytes_alpha: f64,
    /// Cap on per-flow bytes (keeps single giants from dominating runtime).
    pub max_flow_bytes: u64,
}

impl TraceConfig {
    /// A Facebook-like trace scaled to the paper's setting: 150-rack-class
    /// cluster mapped onto a k=16 fat-tree, 5-minute partitions.
    pub fn fb_like(racks: usize, duration: Time) -> TraceConfig {
        TraceConfig {
            racks,
            duration,
            mean_interarrival_s: 3.0,
            width_alpha: 1.1,
            max_width: racks,
            bytes_scale: 4.0e6, // most reducers receive a few MB
            bytes_alpha: 1.3,
            max_flow_bytes: 2_000_000_000,
        }
    }

    /// Adjust the offered load by scaling the arrival rate.
    pub fn with_mean_interarrival_s(mut self, s: f64) -> TraceConfig {
        self.mean_interarrival_s = s;
        self
    }
}

/// A generated trace: flows plus their coflow grouping.
#[derive(Clone, Debug)]
pub struct CoflowTrace {
    /// Flow specifications, ready for the flow-level simulator.
    pub specs: Vec<FlowSpec>,
    /// Coflow grouping over `specs`.
    pub coflows: Vec<Coflow>,
}

impl CoflowTrace {
    /// Generate a trace.
    ///
    /// `rack_to_host(rack, salt)` maps a rack index to a concrete host
    /// `NodeId`; the salt lets the generator spread a rack's flows over the
    /// rack's hosts. The generator guarantees `src != dst` per flow.
    pub fn generate(
        cfg: &TraceConfig,
        rng: &mut SimRng,
        mut rack_to_host: impl FnMut(usize, u64) -> NodeId,
    ) -> CoflowTrace {
        assert!(cfg.racks >= 2, "need at least two racks");
        let mut specs = Vec::new();
        let mut coflows = Vec::new();
        let mut t = 0.0_f64;
        let mut flow_id = 0u64;
        loop {
            t += rng.exponential(cfg.mean_interarrival_s);
            let arrival = Time::from_secs_f64(t);
            if arrival > cfg.duration {
                break;
            }
            let id = CoflowId::from_index(coflows.len());
            let width_cap = cfg.max_width.min(cfg.racks);
            let mappers = Self::heavy_width(rng, cfg.width_alpha, width_cap);
            let reducers = Self::heavy_width(rng, cfg.width_alpha, width_cap);
            let mapper_racks = rng.sample_indices(cfg.racks, mappers);
            let reducer_racks = rng.sample_indices(cfg.racks, reducers);
            // Per-reducer shuffle volume, split evenly over mappers (the
            // Coflow-Benchmark convention).
            let mut members = Vec::with_capacity(mappers * reducers);
            for &r in &reducer_racks {
                let total = rng.pareto(cfg.bytes_scale, cfg.bytes_alpha);
                // Truncating the heavy-tailed sample to whole bytes is the
                // intended rounding; clamp bounds the value either way.
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let per_flow = ((total / mappers as f64) as u64).clamp(1, cfg.max_flow_bytes);
                for &m in &mapper_racks {
                    if m == r {
                        // Same-rack shuffle portion never enters the fabric.
                        continue;
                    }
                    let src = rack_to_host(m, flow_id);
                    let dst = rack_to_host(r, flow_id.wrapping_add(1));
                    if src == dst {
                        flow_id += 1;
                        continue;
                    }
                    members.push(specs.len());
                    specs.push(FlowSpec {
                        key: FlowKey::new(src, dst, flow_id),
                        bytes: per_flow,
                        arrival,
                    });
                    flow_id += 1;
                }
            }
            if members.is_empty() {
                continue; // degenerate coflow (all same-rack); skip
            }
            coflows.push(Coflow { id, flows: members });
        }
        CoflowTrace { specs, coflows }
    }

    /// Heavy-tailed integer width in `[1, cap]`.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    fn heavy_width(rng: &mut SimRng, alpha: f64, cap: usize) -> usize {
        (rng.pareto(1.0, alpha) as usize).clamp(1, cap.max(1))
    }

    /// Number of flows.
    pub fn flow_count(&self) -> usize {
        self.specs.len()
    }

    /// Number of coflows.
    pub fn coflow_count(&self) -> usize {
        self.coflows.len()
    }

    /// Total bytes over all flows.
    pub fn total_bytes(&self) -> u64 {
        self.specs.iter().map(|s| s.bytes).sum()
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    fn gen(seed: u64) -> CoflowTrace {
        let cfg = TraceConfig::fb_like(32, Time::from_secs(300));
        let mut rng = SimRng::seed_from_u64(seed);
        CoflowTrace::generate(&cfg, &mut rng, |rack, salt| {
            NodeId((rack as u32) * 4 + (salt % 4) as u32)
        })
    }

    #[test]
    fn deterministic_per_seed() {
        let a = gen(1);
        let b = gen(1);
        assert_eq!(a.flow_count(), b.flow_count());
        assert_eq!(a.total_bytes(), b.total_bytes());
        let c = gen(2);
        assert!(a.total_bytes() != c.total_bytes() || a.flow_count() != c.flow_count());
    }

    #[test]
    fn arrivals_within_duration_and_sorted_grouping() {
        let t = gen(3);
        assert!(t.coflow_count() > 10, "5 minutes should yield many coflows");
        for s in &t.specs {
            assert!(s.arrival <= Time::from_secs(300));
            assert!(s.bytes >= 1);
            assert_ne!(s.key.src, s.key.dst);
        }
        // Every flow belongs to exactly one coflow.
        let mut seen = vec![false; t.flow_count()];
        for cf in &t.coflows {
            assert!(!cf.flows.is_empty());
            for &i in &cf.flows {
                assert!(!seen[i], "flow in two coflows");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn widths_are_heavy_tailed() {
        let t = gen(4);
        let widths: Vec<usize> = t.coflows.iter().map(|c| c.flows.len()).collect();
        let narrow = widths.iter().filter(|&&w| w <= 4).count();
        let wide = widths.iter().filter(|&&w| w >= 32).count();
        assert!(
            narrow * 2 > widths.len(),
            "most coflows should be narrow: {narrow}/{}",
            widths.len()
        );
        assert!(wide >= 1, "tail should produce some wide coflows");
    }

    #[test]
    fn bytes_are_heavy_tailed() {
        let t = gen(5);
        let mut sizes: Vec<u64> = t
            .coflows
            .iter()
            .map(|c| c.flows.iter().map(|&i| t.specs[i].bytes).sum())
            .collect();
        sizes.sort_unstable();
        let total: u64 = sizes.iter().sum();
        let top10pct: u64 = sizes[sizes.len() * 9 / 10..].iter().sum();
        assert!(
            top10pct as f64 > 0.5 * total as f64,
            "top 10% of coflows should carry most bytes ({top10pct}/{total})"
        );
    }

    #[test]
    fn respects_max_width() {
        let cfg = TraceConfig {
            max_width: 3,
            ..TraceConfig::fb_like(32, Time::from_secs(300))
        };
        let mut rng = SimRng::seed_from_u64(6);
        let t = CoflowTrace::generate(&cfg, &mut rng, |rack, _| NodeId(rack as u32));
        for cf in &t.coflows {
            assert!(cf.flows.len() <= 9, "width cap 3x3 violated");
        }
    }

    #[test]
    #[should_panic(expected = "two racks")]
    fn one_rack_rejected() {
        let cfg = TraceConfig::fb_like(1, Time::from_secs(10));
        let mut rng = SimRng::seed_from_u64(0);
        CoflowTrace::generate(&cfg, &mut rng, |rack, _| NodeId(rack as u32));
    }
}
