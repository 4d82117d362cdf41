//! The configurable circuit switch: a reconfigurable partial matching.
//!
//! ShareBackup's enabling technology (paper §3, §5.2) is a small circuit
//! switch — an electrical crosspoint switch or a 2D-MEMS optical switch —
//! placed between adjacent layers of packet switches (and between edge
//! switches and hosts). A circuit switch imposes no packet processing; it
//! simply cross-connects pairs of its ports. Reconfiguring a circuit takes
//! 70 ns (crosspoint) or 40 µs (2D MEMS) — datasheet numbers the paper cites
//! for XFabric and optical MEMS respectively.
//!
//! The model here is a symmetric partial matching over ports plus an
//! *attachment* table describing what device is cabled to each port. The
//! ShareBackup builder derives logical (data-plane) links by following
//! port→port circuits between attachments.

use sharebackup_sim::Duration;

use crate::ids::{NodeId, PhysId};

/// Implementation technology of a circuit switch, with datasheet parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CircuitTech {
    /// Electrical crosspoint switch (XFabric): 70 ns reconfiguration,
    /// scales to 256 ports, $3/port.
    Crosspoint,
    /// 2D MEMS optical switch: 40 µs reconfiguration, scales to 32 ports,
    /// $10/port.
    Mems2D,
}

impl CircuitTech {
    /// Time to reset one circuit.
    pub fn reconfiguration_delay(self) -> Duration {
        match self {
            CircuitTech::Crosspoint => Duration::from_nanos(70),
            CircuitTech::Mems2D => Duration::from_micros(40),
        }
    }

    /// Largest commercially plausible port count (paper §5.3).
    pub fn max_ports(self) -> usize {
        match self {
            CircuitTech::Crosspoint => 256,
            CircuitTech::Mems2D => 32,
        }
    }
}

/// A port index on one circuit switch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CsPort(pub usize);

/// What is cabled to a circuit-switch port.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Attachment {
    /// Nothing attached.
    Empty,
    /// Interface `port` of physical packet switch `switch`.
    Switch {
        /// The packet switch.
        switch: PhysId,
        /// The interface index on that switch.
        port: usize,
    },
    /// An end host.
    Host(NodeId),
    /// A side-port cable to port `port` of circuit switch `cs` (the ring
    /// used for offline failure diagnosis, paper §4.2 / Fig. 4).
    Side {
        /// Index of the peer circuit switch within its ring.
        cs: usize,
        /// The peer's side port.
        port: CsPort,
    },
}

/// A circuit switch: attachments plus a symmetric partial matching.
#[derive(Clone, Debug)]
pub struct CircuitSwitch {
    tech: CircuitTech,
    attachments: Vec<Attachment>,
    /// `mate[p] == Some(q)` iff a circuit connects ports p and q (symmetric).
    mate: Vec<Option<usize>>,
    reconfigurations: u64,
    up: bool,
}

impl CircuitSwitch {
    /// A circuit switch with `ports` ports, all empty and unconnected.
    ///
    /// # Panics
    /// Panics if `ports` exceeds the technology's port-count limit.
    pub fn new(tech: CircuitTech, ports: usize) -> CircuitSwitch {
        assert!(
            ports <= tech.max_ports(),
            "{ports} ports exceeds {tech:?} limit of {}",
            tech.max_ports()
        );
        CircuitSwitch {
            tech,
            attachments: vec![Attachment::Empty; ports],
            mate: vec![None; ports],
            reconfigurations: 0,
            up: true,
        }
    }

    /// The implementation technology.
    pub fn tech(&self) -> CircuitTech {
        self.tech
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.attachments.len()
    }

    /// Record what is cabled to `port` (cabling is done once at build time).
    pub fn attach(&mut self, port: CsPort, what: Attachment) {
        self.attachments[port.0] = what;
    }

    /// What is cabled to `port`.
    pub fn attachment(&self, port: CsPort) -> Attachment {
        self.attachments[port.0]
    }

    /// The port currently circuit-connected to `port`, if any.
    pub fn mate(&self, port: CsPort) -> Option<CsPort> {
        self.mate[port.0].map(CsPort)
    }

    /// Establish a circuit between `a` and `b`, severing any existing
    /// circuits on either port. Returns the number of circuit operations
    /// performed (tear-downs plus the set-up), each costing one
    /// [`CircuitTech::reconfiguration_delay`]; in practice a crossbar applies
    /// them simultaneously, so callers charge a single delay per request.
    ///
    /// # Panics
    /// Panics if `a == b`.
    pub fn connect(&mut self, a: CsPort, b: CsPort) -> u32 {
        assert_ne!(a, b, "cannot connect a port to itself");
        let mut ops = 0;
        if self.mate[a.0] == Some(b.0) {
            return 0; // already connected
        }
        if self.mate[a.0].is_some() {
            self.disconnect(a);
            ops += 1;
        }
        if self.mate[b.0].is_some() {
            self.disconnect(b);
            ops += 1;
        }
        self.mate[a.0] = Some(b.0);
        self.mate[b.0] = Some(a.0);
        self.reconfigurations += 1;
        ops + 1
    }

    /// Tear down the circuit on `port`, if any.
    pub fn disconnect(&mut self, port: CsPort) {
        if let Some(q) = self.mate[port.0].take() {
            self.mate[q] = None;
            self.reconfigurations += 1;
        }
    }

    /// Total circuit set-up/tear-down operations performed so far.
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }

    /// Whether the circuit switch is operational. A failed circuit switch
    /// takes down every logical link through it (paper §5.1 handles this by
    /// thresholded human-intervention escalation).
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Mark the switch up or down.
    pub fn set_up(&mut self, up: bool) {
        self.up = up;
    }

    /// All (a, b) circuit pairs with a < b.
    pub fn circuits(&self) -> Vec<(CsPort, CsPort)> {
        self.mate
            .iter()
            .enumerate()
            .filter_map(|(p, &m)| match m {
                Some(q) if p < q => Some((CsPort(p), CsPort(q))),
                _ => None,
            })
            .collect()
    }

    /// Assert that the matching is structurally valid: every circuit is
    /// symmetric (`mate[p] == q ⇒ mate[q] == p`) and no port is connected
    /// to itself. Called after every reconfiguration under the
    /// `strict-invariants` feature.
    ///
    /// # Panics
    /// Panics if the matching is asymmetric or contains a self-circuit.
    pub fn check_matching(&self) {
        for (p, &m) in self.mate.iter().enumerate() {
            if let Some(q) = m {
                assert_ne!(p, q, "self-circuit on port {p}");
                assert_eq!(
                    self.mate[q],
                    Some(p),
                    "asymmetric matching: {p} -> {q} but {q} -> {:?}",
                    self.mate[q]
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tech_parameters_match_paper() {
        assert_eq!(
            CircuitTech::Crosspoint.reconfiguration_delay(),
            Duration::from_nanos(70)
        );
        assert_eq!(
            CircuitTech::Mems2D.reconfiguration_delay(),
            Duration::from_micros(40)
        );
        assert_eq!(CircuitTech::Mems2D.max_ports(), 32);
        assert_eq!(CircuitTech::Crosspoint.max_ports(), 256);
    }

    #[test]
    fn matching_is_symmetric() {
        let mut cs = CircuitSwitch::new(CircuitTech::Crosspoint, 8);
        cs.connect(CsPort(0), CsPort(5));
        assert_eq!(cs.mate(CsPort(0)), Some(CsPort(5)));
        assert_eq!(cs.mate(CsPort(5)), Some(CsPort(0)));
        assert_eq!(cs.mate(CsPort(1)), None);
        assert_eq!(cs.circuits(), vec![(CsPort(0), CsPort(5))]);
    }

    #[test]
    fn reconnect_severs_old_circuits() {
        let mut cs = CircuitSwitch::new(CircuitTech::Crosspoint, 8);
        cs.connect(CsPort(0), CsPort(1));
        cs.connect(CsPort(2), CsPort(3));
        // Rewire 0 to 2: both old circuits must be severed.
        let ops = cs.connect(CsPort(0), CsPort(2));
        assert_eq!(ops, 3);
        assert_eq!(cs.mate(CsPort(0)), Some(CsPort(2)));
        assert_eq!(cs.mate(CsPort(1)), None);
        assert_eq!(cs.mate(CsPort(3)), None);
    }

    #[test]
    fn connecting_already_connected_is_noop() {
        let mut cs = CircuitSwitch::new(CircuitTech::Mems2D, 4);
        cs.connect(CsPort(0), CsPort(1));
        let before = cs.reconfigurations();
        assert_eq!(cs.connect(CsPort(0), CsPort(1)), 0);
        assert_eq!(cs.reconfigurations(), before);
    }

    #[test]
    fn disconnect_is_idempotent() {
        let mut cs = CircuitSwitch::new(CircuitTech::Mems2D, 4);
        cs.connect(CsPort(0), CsPort(1));
        cs.disconnect(CsPort(1));
        assert_eq!(cs.mate(CsPort(0)), None);
        let count = cs.reconfigurations();
        cs.disconnect(CsPort(1));
        assert_eq!(cs.reconfigurations(), count);
    }

    #[test]
    fn attachments_round_trip() {
        let mut cs = CircuitSwitch::new(CircuitTech::Mems2D, 4);
        let att = Attachment::Switch {
            switch: PhysId(3),
            port: 2,
        };
        cs.attach(CsPort(1), att);
        assert_eq!(cs.attachment(CsPort(1)), att);
        assert_eq!(cs.attachment(CsPort(0)), Attachment::Empty);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn port_limit_enforced() {
        CircuitSwitch::new(CircuitTech::Mems2D, 33);
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn self_circuit_rejected() {
        let mut cs = CircuitSwitch::new(CircuitTech::Mems2D, 4);
        cs.connect(CsPort(2), CsPort(2));
    }
}
