//! Coflows and Coflow Completion Time (CCT).
//!
//! A coflow (Chowdhury & Stoica, HotNets'12) is the set of flows one
//! application stage produces; the application can proceed only when *all*
//! of them finish, so CCT — "the lifetime of the most long-lived flow in a
//! coflow" (paper §2.2) — is the application-level metric, and the reason a
//! single straggler flow hit by a failure magnifies into orders-of-magnitude
//! application slowdown.

use sharebackup_sim::{Duration, Time};

use crate::sim::{FlowSpec, SimOutcome};

/// Identifier of a coflow within one experiment.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CoflowId(pub u32);

impl CoflowId {
    /// Construct from an arena index, saturating at `u32::MAX` (traces are
    /// bounded far below 4 G coflows).
    pub fn from_index(i: usize) -> CoflowId {
        debug_assert!(u32::try_from(i).is_ok(), "coflow id overflow");
        CoflowId(u32::try_from(i).unwrap_or(u32::MAX))
    }
}

/// A coflow: indices into the experiment's flow list.
#[derive(Clone, Debug)]
pub struct Coflow {
    /// Its id.
    pub id: CoflowId,
    /// Indices of member flows in the `FlowSpec` slice.
    pub flows: Vec<usize>,
}

/// Outcome of one coflow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoflowOutcome {
    /// Arrival of the earliest member flow.
    pub arrival: Time,
    /// Completion of the last member flow, if *all* members completed.
    pub completed: Option<Time>,
}

impl Coflow {
    /// Evaluate this coflow against a simulation outcome.
    ///
    /// # Panics
    /// Panics if the coflow has no flows.
    pub fn outcome(&self, specs: &[FlowSpec], out: &SimOutcome) -> CoflowOutcome {
        assert!(!self.flows.is_empty(), "empty coflow");
        let arrival = self
            .flows
            .iter()
            .map(|&i| specs[i].arrival)
            .min()
            .unwrap_or(Time::ZERO);
        let mut last = Time::ZERO;
        for &i in &self.flows {
            match out.flows[i].completed {
                Some(t) => last = last.max(t),
                None => {
                    return CoflowOutcome {
                        arrival,
                        completed: None,
                    }
                }
            }
        }
        CoflowOutcome {
            arrival,
            completed: Some(last),
        }
    }

    /// Coflow Completion Time under a simulation outcome.
    pub fn cct(&self, specs: &[FlowSpec], out: &SimOutcome) -> Option<Duration> {
        let o = self.outcome(specs, out);
        o.completed.map(|t| t.since(o.arrival))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::FlowOutcome;
    use sharebackup_routing::FlowKey;
    use sharebackup_topo::NodeId;

    fn spec(at: u64) -> FlowSpec {
        FlowSpec {
            key: FlowKey::new(NodeId(0), NodeId(1), 0),
            bytes: 1,
            arrival: Time::from_secs(at),
        }
    }

    fn outcome(completions: &[Option<u64>]) -> SimOutcome {
        SimOutcome {
            flows: completions
                .iter()
                .map(|c| FlowOutcome {
                    completed: c.map(Time::from_secs),
                    delivered: 1,
                    ever_stalled: false,
                    rerouted: false,
                })
                .collect(),
            finished_at: Time::from_secs(100),
            link_bits: Default::default(),
            events: 0,
        }
    }

    #[test]
    fn cct_is_last_flow_minus_first_arrival() {
        let specs = vec![spec(10), spec(12), spec(11)];
        let out = outcome(&[Some(20), Some(35), Some(25)]);
        let cf = Coflow {
            id: CoflowId(0),
            flows: vec![0, 1, 2],
        };
        assert_eq!(cf.cct(&specs, &out), Some(Duration::from_secs(25)));
    }

    #[test]
    fn unfinished_member_means_no_cct() {
        let specs = vec![spec(0), spec(0)];
        let out = outcome(&[Some(5), None]);
        let cf = Coflow {
            id: CoflowId(0),
            flows: vec![0, 1],
        };
        assert_eq!(cf.cct(&specs, &out), None);
        assert_eq!(cf.outcome(&specs, &out).completed, None);
    }

    #[test]
    fn single_flow_coflow() {
        let specs = vec![spec(5)];
        let out = outcome(&[Some(9)]);
        let cf = Coflow {
            id: CoflowId(1),
            flows: vec![0],
        };
        assert_eq!(cf.cct(&specs, &out), Some(Duration::from_secs(4)));
    }
}
