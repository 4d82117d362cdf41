//! Reading and writing coflow traces in the Coflow-Benchmark text format.
//!
//! The paper's §2.2 uses the public Facebook trace from
//! `github.com/coflow/coflow-benchmark` (`FB2010-1Hr-150-0.txt`). This
//! module parses that format, so the real trace can be dropped in whenever
//! it is available, and exports synthetic traces in the same format for
//! interchange with other simulators.
//!
//! Format (one line per coflow, after a header line):
//!
//! ```text
//! <num_racks> <num_coflows>
//! <id> <arrival_ms> <M> <m1> <m2> ... <R> <r1:MB> <r2:MB> ...
//! ```
//!
//! where `mX` are mapper rack ids and `rX:MB` are reducer rack ids with the
//! megabytes that reducer shuffles in.

use sharebackup_flowsim::{Coflow, CoflowId, FlowSpec};
use sharebackup_routing::FlowKey;
use sharebackup_sim::Time;
use sharebackup_topo::NodeId;

use crate::coflowgen::CoflowTrace;

/// A parsed Coflow-Benchmark job description (topology-independent).
#[derive(Clone, Debug, PartialEq)]
pub struct BenchmarkCoflow {
    /// Coflow id from the file.
    pub id: u64,
    /// Arrival time in milliseconds.
    pub arrival_ms: u64,
    /// Mapper rack indices.
    pub mappers: Vec<usize>,
    /// (reducer rack, megabytes shuffled into it).
    pub reducers: Vec<(usize, f64)>,
}

/// A parsed trace file.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchmarkTrace {
    /// Number of racks the trace was recorded on.
    pub racks: usize,
    /// The jobs.
    pub coflows: Vec<BenchmarkCoflow>,
}

/// Errors from trace parsing.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The header line is missing or malformed.
    BadHeader,
    /// A coflow line failed to parse (line number, description).
    BadLine(usize, String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHeader => write!(f, "malformed header line"),
            ParseError::BadLine(n, what) => write!(f, "line {n}: {what}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl BenchmarkTrace {
    /// Parse a trace from Coflow-Benchmark text.
    pub fn parse(text: &str) -> Result<BenchmarkTrace, ParseError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or(ParseError::BadHeader)?;
        let mut head = header.split_whitespace();
        let racks: usize = head
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or(ParseError::BadHeader)?;
        let expected: usize = head
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or(ParseError::BadHeader)?;
        let mut coflows = Vec::with_capacity(expected);
        for (lineno, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            let bad = |what: &str| ParseError::BadLine(lineno + 1, what.to_string());
            let mut toks = line.split_whitespace();
            let id: u64 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("missing coflow id"))?;
            let arrival_ms: u64 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("missing arrival time"))?;
            let m: usize = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("missing mapper count"))?;
            let mut mappers = Vec::with_capacity(m);
            for _ in 0..m {
                let rack: usize = toks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad("missing mapper rack"))?;
                mappers.push(rack);
            }
            let r: usize = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("missing reducer count"))?;
            let mut reducers = Vec::with_capacity(r);
            for _ in 0..r {
                let tok = toks.next().ok_or_else(|| bad("missing reducer entry"))?;
                let (rack, mb) = tok
                    .split_once(':')
                    .ok_or_else(|| bad("reducer entry must be rack:MB"))?;
                let rack: usize = rack.parse().map_err(|_| bad("bad reducer rack"))?;
                let mb: f64 = mb.parse().map_err(|_| bad("bad reducer MB"))?;
                reducers.push((rack, mb));
            }
            coflows.push(BenchmarkCoflow {
                id,
                arrival_ms,
                mappers,
                reducers,
            });
        }
        Ok(BenchmarkTrace { racks, coflows })
    }

    /// Serialize to Coflow-Benchmark text.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{} {}", self.racks, self.coflows.len());
        for cf in &self.coflows {
            let _ = write!(out, "{} {} {}", cf.id, cf.arrival_ms, cf.mappers.len());
            for m in &cf.mappers {
                let _ = write!(out, " {m}");
            }
            let _ = write!(out, " {}", cf.reducers.len());
            for (r, mb) in &cf.reducers {
                let _ = write!(out, " {r}:{mb}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Instantiate as a simulable [`CoflowTrace`]: the per-reducer volume is
    /// split evenly across mappers (the benchmark's convention), same-rack
    /// portions are skipped, and racks map to hosts via `rack_to_host`.
    pub fn instantiate(&self, mut rack_to_host: impl FnMut(usize, u64) -> NodeId) -> CoflowTrace {
        let mut specs = Vec::new();
        let mut coflows = Vec::new();
        let mut flow_id = 0u64;
        for (i, cf) in self.coflows.iter().enumerate() {
            let arrival = Time::from_millis(cf.arrival_ms);
            let mut members = Vec::new();
            for &(r_rack, mb) in &cf.reducers {
                // Truncating megabyte sizes to whole bytes is the intended
                // rounding (sub-byte remainders are meaningless here).
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let per_flow = ((mb * 1e6 / cf.mappers.len().max(1) as f64) as u64).max(1);
                for &m_rack in &cf.mappers {
                    if m_rack == r_rack {
                        continue;
                    }
                    let src = rack_to_host(m_rack, flow_id);
                    let dst = rack_to_host(r_rack, flow_id.wrapping_add(1));
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
            if !members.is_empty() {
                coflows.push(Coflow {
                    id: CoflowId::from_index(i),
                    flows: members,
                });
            }
        }
        CoflowTrace { specs, coflows }
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
150 3
1 0 2 10 20 2 30:100 40:50
2 500 1 5 1 5:10
3 1200 3 1 2 3 1 7:30
";

    #[test]
    fn parses_the_benchmark_format() {
        let t = BenchmarkTrace::parse(SAMPLE).expect("parses");
        assert_eq!(t.racks, 150);
        assert_eq!(t.coflows.len(), 3);
        assert_eq!(t.coflows[0].mappers, vec![10, 20]);
        assert_eq!(t.coflows[0].reducers, vec![(30, 100.0), (40, 50.0)]);
        assert_eq!(t.coflows[1].arrival_ms, 500);
    }

    #[test]
    fn round_trips_through_text() {
        let t = BenchmarkTrace::parse(SAMPLE).expect("parses");
        let text = t.to_text();
        let again = BenchmarkTrace::parse(&text).expect("re-parses");
        assert_eq!(t, again);
    }

    #[test]
    fn instantiation_builds_shuffle_flows() {
        let t = BenchmarkTrace::parse(SAMPLE).expect("parses");
        let trace = t.instantiate(|rack, _| NodeId(rack as u32));
        // Coflow 1: 2 mappers × 2 reducers = 4 flows (no same-rack pairs).
        // Coflow 2: mapper rack 5 == reducer rack 5 → all same-rack, skipped.
        // Coflow 3: 3 mappers × 1 reducer = 3 flows.
        assert_eq!(trace.coflow_count(), 2);
        assert_eq!(trace.flow_count(), 7);
        // Per-flow bytes: 100 MB / 2 mappers = 50 MB.
        assert_eq!(trace.specs[0].bytes, 50_000_000);
        assert_eq!(trace.specs[0].arrival, Time::ZERO);
        // Coflow 3's flows carry 10 MB each.
        assert_eq!(trace.specs[4].bytes, 10_000_000);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert_eq!(BenchmarkTrace::parse(""), Err(ParseError::BadHeader));
        assert_eq!(BenchmarkTrace::parse("abc"), Err(ParseError::BadHeader));
        let bad_line = "10 1\n1 0 1 5 1 nonsense\n";
        assert!(matches!(
            BenchmarkTrace::parse(bad_line),
            Err(ParseError::BadLine(2, _))
        ));
    }

    #[test]
    fn synthetic_traces_export_and_reimport() {
        // A generated trace can be exported rack-level and re-imported.
        let t = BenchmarkTrace {
            racks: 8,
            coflows: vec![BenchmarkCoflow {
                id: 7,
                arrival_ms: 42,
                mappers: vec![0, 1],
                reducers: vec![(2, 1.5)],
            }],
        };
        let again = BenchmarkTrace::parse(&t.to_text()).expect("parses");
        assert_eq!(t, again);
        let trace = again.instantiate(|rack, _| NodeId(rack as u32));
        assert_eq!(trace.flow_count(), 2);
        assert_eq!(trace.specs[0].bytes, 750_000);
    }
}
