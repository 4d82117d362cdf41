//! Table 2: cost equations and market prices.
//!
//! | Architecture | Cost |
//! |---|---|
//! | Fat-tree     | (5/4)k³·b + (k³/2)·c |
//! | ShareBackup  | (3/2)k²(k/2+n+2)·a + (5/2)k²n·b + (5/4)k²n·c + fat-tree |
//! | Aspen Tree   | (k³/2)·b + (k³/4)·c + fat-tree |
//! | 1:1 Backup   | (15/4)k³·b + (3/2)k³·c + fat-tree |
//!
//! with `a` the per-port price of circuit switches ($3 electrical crosspoint
//! / $10 2D-MEMS optical), `b` = $60 per packet-switch port ($3000 for a
//! 48-port 10 Gbps bare-metal switch), and `c` the per-link cabling cost
//! ($81 for 10 m 10 Gbps DAC / $40 for two transceivers plus fiber).

/// Transmission medium deployed in the data center, which selects the
/// circuit-switch technology and cabling prices (paper §5.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Medium {
    /// Copper DAC cables + electrical crosspoint circuit switches (E-DC).
    Electrical,
    /// Optical transceivers/fiber + 2D-MEMS circuit switches (O-DC).
    Optical,
}

/// The per-unit market prices of Table 2, in dollars.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prices {
    /// Per-port cost of circuit switches.
    pub a: f64,
    /// Per-port cost of packet switches.
    pub b: f64,
    /// Cost per link (cable, plus transceivers for optical).
    pub c: f64,
}

impl Prices {
    /// Table 2's prices for the given medium.
    pub fn for_medium(m: Medium) -> Prices {
        match m {
            Medium::Electrical => Prices {
                a: 3.0,
                b: 60.0,
                c: 81.0,
            },
            Medium::Optical => Prices {
                a: 10.0,
                b: 60.0,
                c: 40.0,
            },
        }
    }
}

/// The compared architectures of Table 2 / Fig. 5.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Architecture {
    /// Plain fat-tree (the baseline everything is relative to).
    FatTree,
    /// ShareBackup with `n` backups per failure group.
    ShareBackup {
        /// Backups per failure group.
        n: usize,
    },
    /// Aspen Tree (one extra layer of switches + duplicated links).
    AspenTree,
    /// Full 1:1 backup (every switch duplicated, ports doubled).
    OneToOneBackup,
}

/// A cost decomposed into its Table 2 terms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostBreakdown {
    /// Circuit-switch port cost (`a`-term).
    pub circuit_ports: f64,
    /// Packet-switch port cost (`b`-term).
    pub switch_ports: f64,
    /// Cabling cost (`c`-term).
    pub cables: f64,
}

impl CostBreakdown {
    /// Total dollars.
    pub fn total(&self) -> f64 {
        self.circuit_ports + self.switch_ports + self.cables
    }
}

/// Fat-tree baseline cost: (5/4)k³·b + (k³/2)·c.
pub fn fat_tree_cost(k: usize, p: Prices) -> CostBreakdown {
    let k3 = (k * k * k) as f64;
    CostBreakdown {
        circuit_ports: 0.0,
        switch_ports: 1.25 * k3 * p.b,
        cables: 0.5 * k3 * p.c,
    }
}

/// ShareBackup's *additional* cost over fat-tree:
/// (3/2)k²(k/2+n+2)·a + (5/2)k²n·b + (5/4)k²n·c.
pub fn sharebackup_additional(k: usize, n: usize, p: Prices) -> CostBreakdown {
    let k2 = (k * k) as f64;
    let nf = n as f64;
    CostBreakdown {
        circuit_ports: 1.5 * k2 * (k as f64 / 2.0 + nf + 2.0) * p.a,
        switch_ports: 2.5 * k2 * nf * p.b,
        cables: 1.25 * k2 * nf * p.c,
    }
}

/// Aspen Tree's additional cost over fat-tree: (k³/2)·b + (k³/4)·c.
pub fn aspen_additional(k: usize, p: Prices) -> CostBreakdown {
    let k3 = (k * k * k) as f64;
    CostBreakdown {
        circuit_ports: 0.0,
        switch_ports: 0.5 * k3 * p.b,
        cables: 0.25 * k3 * p.c,
    }
}

/// 1:1 backup's additional cost over fat-tree: (15/4)k³·b + (3/2)k³·c.
pub fn one_to_one_additional(k: usize, p: Prices) -> CostBreakdown {
    let k3 = (k * k * k) as f64;
    CostBreakdown {
        circuit_ports: 0.0,
        switch_ports: 3.75 * k3 * p.b,
        cables: 1.5 * k3 * p.c,
    }
}

/// Fig. 5's y-axis: additional cost relative to fat-tree, as a fraction
/// (0.067 = 6.7%).
pub fn relative_additional(arch: Architecture, k: usize, medium: Medium) -> f64 {
    let p = Prices::for_medium(medium);
    let base = fat_tree_cost(k, p).total();
    let add = match arch {
        Architecture::FatTree => 0.0,
        Architecture::ShareBackup { n } => sharebackup_additional(k, n, p).total(),
        Architecture::AspenTree => aspen_additional(k, p).total(),
        Architecture::OneToOneBackup => one_to_one_additional(k, p).total(),
    };
    add / base
}

/// Device inventory deltas of ShareBackup (§5.2 text): 5k/2·n more packet
/// switches, (5/4)k²·n more cables, (3/2)k²(k/2+n+2) circuit-switch ports.
pub fn sharebackup_inventory(k: usize, n: usize) -> (usize, usize, usize) {
    let switches = 5 * k * n / 2;
    let cables = 5 * k * k * n / 4;
    let circuit_ports = 3 * k * k * (k / 2 + n + 2) / 2;
    (switches, cables, circuit_ports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_to_one_backup_is_four_times_fat_tree() {
        // Paper §5.2: "the cost of 1:1 backup is 4× that of fat-tree"
        // (additional = 3×), for any k and either medium.
        for medium in [Medium::Electrical, Medium::Optical] {
            for k in [8, 16, 48] {
                let rel = relative_additional(Architecture::OneToOneBackup, k, medium);
                assert!((rel - 3.0).abs() < 1e-12, "k={k} {medium:?}: {rel}");
            }
        }
    }

    #[test]
    fn paper_headline_percentages_at_k48_n1() {
        // §5.2: additional cost of ShareBackup at k=48, n=1 is 6.7% (E-DC)
        // and 13.3% (O-DC) of fat-tree.
        let e = relative_additional(Architecture::ShareBackup { n: 1 }, 48, Medium::Electrical);
        assert!((e - 0.067).abs() < 0.001, "E-DC: {e}");
        let o = relative_additional(Architecture::ShareBackup { n: 1 }, 48, Medium::Optical);
        assert!((o - 0.133).abs() < 0.001, "O-DC: {o}");
    }

    #[test]
    fn aspen_costs_6_5x_and_3_2x_sharebackup() {
        // §5.2: "Aspen Tree costs 6.5× and 3.2× as much [additional cost]".
        let sb_e = relative_additional(Architecture::ShareBackup { n: 1 }, 48, Medium::Electrical);
        let asp_e = relative_additional(Architecture::AspenTree, 48, Medium::Electrical);
        assert!((asp_e / sb_e - 6.5).abs() < 0.1, "{}", asp_e / sb_e);
        let sb_o = relative_additional(Architecture::ShareBackup { n: 1 }, 48, Medium::Optical);
        let asp_o = relative_additional(Architecture::AspenTree, 48, Medium::Optical);
        assert!((asp_o / sb_o - 3.2).abs() < 0.1, "{}", asp_o / sb_o);
    }

    #[test]
    fn sharebackup_relative_cost_decreases_with_scale() {
        // Fig. 5: for fixed n the relative additional cost decreases with k
        // (backups shared by more switches).
        let mut last = f64::INFINITY;
        for k in [8, 16, 24, 32, 48, 64] {
            let rel =
                relative_additional(Architecture::ShareBackup { n: 1 }, k, Medium::Electrical);
            assert!(rel < last, "k={k}: {rel} !< {last}");
            last = rel;
        }
    }

    #[test]
    fn sharebackup_n4_still_cheaper_than_aspen_at_k48() {
        // §5.2: "Even if n is increased to 4 … ShareBackup is still cheaper
        // than Aspen Tree."
        for medium in [Medium::Electrical, Medium::Optical] {
            let sb = relative_additional(Architecture::ShareBackup { n: 4 }, 48, medium);
            let asp = relative_additional(Architecture::AspenTree, 48, medium);
            assert!(sb < asp, "{medium:?}: {sb} !< {asp}");
        }
    }

    #[test]
    fn small_k_large_n_can_out_cost_aspen() {
        // §5.2's closing caveat: cases where ShareBackup out-costs Aspen
        // exist (flexibility of buying more robustness). At small k with
        // large n, the switch-port term dominates.
        let sb = relative_additional(Architecture::ShareBackup { n: 8 }, 8, Medium::Electrical);
        let asp = relative_additional(Architecture::AspenTree, 8, Medium::Electrical);
        assert!(sb > asp, "{sb} should exceed {asp}");
    }

    #[test]
    fn inventory_formulas() {
        let (sw, cables, cports) = sharebackup_inventory(48, 1);
        assert_eq!(sw, 120); // 5k/2 groups × 1
        assert_eq!(cables, 2880); // (5/4)k²
        assert_eq!(cports, 3 * 48 * 48 * 27 / 2);
    }

    #[test]
    fn breakdown_totals_are_consistent() {
        let p = Prices::for_medium(Medium::Electrical);
        let b = fat_tree_cost(16, p);
        assert_eq!(b.total(), b.switch_ports + b.cables);
        assert_eq!(b.circuit_ports, 0.0);
        let add = sharebackup_additional(16, 2, p);
        assert!(add.circuit_ports > 0.0);
        assert_eq!(
            relative_additional(Architecture::ShareBackup { n: 2 }, 16, Medium::Electrical),
            add.total() / b.total()
        );
    }

    #[test]
    fn prices_match_table2() {
        let e = Prices::for_medium(Medium::Electrical);
        assert_eq!((e.a, e.b, e.c), (3.0, 60.0, 81.0));
        let o = Prices::for_medium(Medium::Optical);
        assert_eq!((o.a, o.b, o.c), (10.0, 60.0, 40.0));
    }
}
