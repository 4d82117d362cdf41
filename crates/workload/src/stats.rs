//! Trace-shape statistics: the distributional fingerprint that justifies
//! substituting the Facebook trace with a synthetic one.
//!
//! The published Coflow-Benchmark analyses characterize the workload by:
//! coflow *width* (flows per coflow — most coflows narrow, heavy tail),
//! coflow *size* (total bytes — a few giants carry most bytes), and
//! arrival intensity. [`TraceShape`] extracts exactly those statistics
//! from any [`CoflowTrace`], so a synthetic trace can be compared — number
//! for number — against the real file when it is available (via
//! [`crate::trace_io::BenchmarkTrace`]).

use sharebackup_sim::stats::percentile_sorted;

use crate::coflowgen::CoflowTrace;

/// Distributional fingerprint of a coflow trace.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceShape {
    /// Number of coflows.
    pub coflows: usize,
    /// Number of flows.
    pub flows: usize,
    /// Total bytes.
    pub total_bytes: u64,
    /// Width percentiles (p50, p90, p99, max).
    pub width: [f64; 4],
    /// Coflow-size percentiles in bytes (p50, p90, p99, max).
    pub size: [f64; 4],
    /// Fraction of total bytes carried by the largest 10% of coflows.
    pub top_decile_byte_share: f64,
    /// Fraction of coflows with at most 4 flows ("narrow").
    pub narrow_fraction: f64,
}

impl TraceShape {
    /// Compute the fingerprint of a trace.
    ///
    /// # Panics
    /// Panics on a trace with no coflows.
    pub fn of(trace: &CoflowTrace) -> TraceShape {
        assert!(!trace.coflows.is_empty(), "empty trace");
        let mut widths: Vec<f64> = trace.coflows.iter().map(|c| c.flows.len() as f64).collect();
        widths.sort_by(f64::total_cmp);
        let mut sizes: Vec<f64> = trace
            .coflows
            .iter()
            .map(|c| c.flows.iter().map(|&i| trace.specs[i].bytes).sum::<u64>() as f64)
            .collect();
        sizes.sort_by(f64::total_cmp);
        let total: f64 = sizes.iter().sum();
        let top_decile: f64 = sizes[sizes.len() * 9 / 10..].iter().sum();
        let narrow = widths.iter().filter(|&&w| w <= 4.0).count();
        #[expect(clippy::expect_used, reason = "`of` asserts the trace is non-empty")]
        let pct = |v: &[f64]| {
            [
                percentile_sorted(v, 0.50),
                percentile_sorted(v, 0.90),
                percentile_sorted(v, 0.99),
                *v.last().expect("nonempty"),
            ]
        };
        TraceShape {
            coflows: trace.coflow_count(),
            flows: trace.flow_count(),
            total_bytes: trace.total_bytes(),
            width: pct(&widths),
            size: pct(&sizes),
            top_decile_byte_share: if total > 0.0 { top_decile / total } else { 0.0 },
            narrow_fraction: narrow as f64 / widths.len() as f64,
        }
    }

    /// Whether this trace has the Facebook-like heavy-tail fingerprint the
    /// paper's findings depend on: mostly-narrow coflows with a wide tail,
    /// and bytes concentrated in the top decile.
    pub fn is_heavy_tailed(&self) -> bool {
        self.narrow_fraction >= 0.4
            && self.width[3] >= 8.0 * self.width[0].max(1.0)
            && self.top_decile_byte_share >= 0.5
    }
}

impl std::fmt::Display for TraceShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "coflows={} flows={} bytes={:.2}GB",
            self.coflows,
            self.flows,
            self.total_bytes as f64 / 1e9
        )?;
        writeln!(
            f,
            "width  p50={:.0} p90={:.0} p99={:.0} max={:.0} (narrow≤4: {:.0}%)",
            self.width[0],
            self.width[1],
            self.width[2],
            self.width[3],
            100.0 * self.narrow_fraction
        )?;
        write!(
            f,
            "size   p50={:.1}MB p90={:.1}MB p99={:.1}MB max={:.1}MB (top-10% carry {:.0}% of bytes)",
            self.size[0] / 1e6,
            self.size[1] / 1e6,
            self.size[2] / 1e6,
            self.size[3] / 1e6,
            100.0 * self.top_decile_byte_share
        )
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::coflowgen::TraceConfig;
    use sharebackup_sim::{SimRng, Time};
    use sharebackup_topo::NodeId;

    fn trace() -> CoflowTrace {
        let cfg = TraceConfig::fb_like(64, Time::from_secs(300));
        let mut rng = SimRng::seed_from_u64(5);
        CoflowTrace::generate(&cfg, &mut rng, |rack, salt| {
            NodeId((rack as u32) * 4 + (salt % 4) as u32)
        })
    }

    #[test]
    fn synthetic_trace_has_the_facebook_fingerprint() {
        let shape = TraceShape::of(&trace());
        assert!(shape.is_heavy_tailed(), "{shape}");
        assert!(shape.narrow_fraction > 0.4);
        assert!(shape.top_decile_byte_share > 0.5);
        // Median coflow is small; the max dwarfs it.
        assert!(shape.size[3] > 20.0 * shape.size[0]);
    }

    #[test]
    fn display_is_complete() {
        let shape = TraceShape::of(&trace());
        let text = format!("{shape}");
        assert!(text.contains("coflows="));
        assert!(text.contains("narrow"));
        assert!(text.contains("top-10%"));
    }

    #[test]
    fn uniform_trace_is_not_heavy_tailed() {
        // Hand-build a degenerate trace: every coflow identical.
        use sharebackup_flowsim::{Coflow, CoflowId, FlowSpec};
        use sharebackup_routing::FlowKey;
        let mut specs = Vec::new();
        let mut coflows = Vec::new();
        for c in 0..20u32 {
            let mut members = Vec::new();
            for f in 0..5u64 {
                members.push(specs.len());
                specs.push(FlowSpec {
                    key: FlowKey::new(NodeId(0), NodeId(1), c as u64 * 5 + f),
                    bytes: 1_000_000,
                    arrival: Time::ZERO,
                });
            }
            coflows.push(Coflow {
                id: CoflowId(c),
                flows: members,
            });
        }
        let shape = TraceShape::of(&CoflowTrace { specs, coflows });
        assert!(!shape.is_heavy_tailed());
        assert!((shape.top_decile_byte_share - 0.1).abs() < 1e-9);
    }
}
