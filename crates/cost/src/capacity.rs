//! §5.1: capacity to handle failures.
//!
//! A failure group of k/2 switches shares n backups, so ShareBackup rides
//! out n concurrent switch failures per group (and up to k·n link failures
//! rooted at those n switches). The *backup ratio* n/(k/2) is the knob the
//! paper compares against the measured 0.01% switch failure rate.

/// Capacity analysis of a ShareBackup(k, n) deployment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CapacityAnalysis {
    /// Fat-tree parameter.
    pub k: usize,
    /// Backups per failure group.
    pub n: usize,
}

impl CapacityAnalysis {
    /// Construct the analysis for a deployment.
    pub fn new(k: usize, n: usize) -> CapacityAnalysis {
        CapacityAnalysis { k, n }
    }

    /// Backup ratio n/(k/2).
    pub fn backup_ratio(&self) -> f64 {
        self.n as f64 / (self.k as f64 / 2.0)
    }

    /// Concurrent switch failures tolerated per failure group.
    pub fn switch_failures_per_group(&self) -> usize {
        self.n
    }

    /// Maximum link failures recoverable per group when failures root at n
    /// switches (each switch has k interfaces): k·n.
    pub fn link_failures_per_group(&self) -> usize {
        self.k * self.n
    }

    /// Hosts in the underlying fat-tree: k³/4.
    pub fn hosts(&self) -> usize {
        self.k * self.k * self.k / 4
    }

    /// Headroom factor of the backup ratio over a device failure rate
    /// (e.g. 0.0001 for 99.99% availability): the paper's "more than 400×".
    pub fn headroom_over(&self, failure_rate: f64) -> f64 {
        self.backup_ratio() / failure_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_k48_n1_numbers() {
        // §5.1: "let n=1 for a k=48 fat-tree with over 27k hosts, the
        // backup ratio is n/(k/2)=4.17%, which is more than 400× higher
        // than the 0.01% switch failure rate."
        let c = CapacityAnalysis::new(48, 1);
        assert!(c.hosts() > 27_000);
        assert!((c.backup_ratio() - 0.0417).abs() < 0.0001);
        assert!(c.headroom_over(0.0001) > 400.0);
    }

    #[test]
    fn group_counts() {
        let c = CapacityAnalysis::new(16, 2);
        assert_eq!(c.switch_failures_per_group(), 2);
        assert_eq!(c.link_failures_per_group(), 32);
    }

    #[test]
    fn ratio_scales_inversely_with_k() {
        let small = CapacityAnalysis::new(8, 1).backup_ratio();
        let large = CapacityAnalysis::new(64, 1).backup_ratio();
        assert!(small > large);
        assert!((small - 0.25).abs() < 1e-12);
    }
}
