//! Flow identity and the deterministic ECMP hash.

use sharebackup_sim::rng::fnv1a64_words;
use sharebackup_topo::NodeId;

/// splitmix64's avalanche finalizer: every input bit affects every output
/// bit, which removes FNV's small-modulus bias.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Identity of one flow: endpoints plus a flow id standing in for the
/// transport 5-tuple's port numbers.
///
/// The ECMP hash over this key is the only source of path "randomness" in
/// the simulators, and is stable across runs and platforms.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FlowKey {
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Flow identifier (unique per flow within an experiment).
    pub id: u64,
}

impl FlowKey {
    /// Construct a flow key.
    pub fn new(src: NodeId, dst: NodeId, id: u64) -> FlowKey {
        FlowKey { src, dst, id }
    }

    /// The deterministic ECMP hash of this flow.
    ///
    /// FNV-1a alone is visibly biased modulo non-power-of-two bucket counts
    /// when keys are sequential (found by the routing property tests), so a
    /// splitmix64 avalanche finalizer is applied — still fully deterministic
    /// and platform-independent.
    pub fn ecmp_hash(&self) -> u64 {
        splitmix64(fnv1a64_words(&[
            self.src.0 as u64,
            self.dst.0 as u64,
            self.id,
        ]))
    }

    /// Pick one of `n` equal-cost choices.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn pick(&self, n: usize) -> usize {
        assert!(n > 0, "no choices to pick from");
        // The modulo bounds the value below n, which fits in usize.
        #[allow(clippy::cast_possible_truncation)]
        {
            (self.ecmp_hash() % n as u64) as usize
        }
    }

    /// Pick with an extra salt — used when a switch must make a *second*
    /// independent choice for the same flow (e.g. F10 detours).
    pub fn pick_salted(&self, n: usize, salt: u64) -> usize {
        assert!(n > 0, "no choices to pick from");
        let h = splitmix64(fnv1a64_words(&[self.ecmp_hash(), salt]));
        // The modulo bounds the value below n, which fits in usize.
        #[allow(clippy::cast_possible_truncation)]
        {
            (h % n as u64) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_direction_sensitive() {
        let a = FlowKey::new(NodeId(1), NodeId(2), 7);
        let b = FlowKey::new(NodeId(1), NodeId(2), 7);
        let rev = FlowKey::new(NodeId(2), NodeId(1), 7);
        assert_eq!(a.ecmp_hash(), b.ecmp_hash());
        assert_ne!(a.ecmp_hash(), rev.ecmp_hash());
    }

    #[test]
    fn pick_spreads_over_choices() {
        let mut counts = [0usize; 4];
        for id in 0..4000 {
            let f = FlowKey::new(NodeId(1), NodeId(2), id);
            counts[f.pick(4)] += 1;
        }
        for &c in &counts {
            assert!(c > 800, "skewed ECMP spread: {counts:?}");
        }
    }

    #[test]
    fn salted_pick_differs_from_plain() {
        let f = FlowKey::new(NodeId(3), NodeId(9), 1);
        let mut differs = false;
        for salt in 0..8 {
            if f.pick_salted(16, salt) != f.pick(16) {
                differs = true;
            }
        }
        assert!(differs);
    }
}
