//! Property-based tests of the packet simulator: conservation, recovery,
//! and transport invariants over randomized scenarios.

use proptest::prelude::*;

use sharebackup_packet::transport::Receiver;
use sharebackup_packet::{PacketNetConfig, PacketSim, PktEvent, PktFlowSpec};
use sharebackup_sim::{Duration, Time};
use sharebackup_topo::{Network, NodeId, NodeKind};

/// h0 — s0 — s1 — h1 line with configurable middle capacity.
fn line(mid_bps: f64) -> (Network, Vec<NodeId>) {
    let mut net = Network::new();
    let h0 = net.add_node(NodeKind::Host, None, 0);
    let s0 = net.add_node(NodeKind::Edge, None, 0);
    let s1 = net.add_node(NodeKind::Edge, None, 1);
    let h1 = net.add_node(NodeKind::Host, None, 1);
    net.add_link(h0, s0, 1e9);
    net.add_link(s0, s1, mid_bps);
    net.add_link(s1, h1, 1e9);
    (net, vec![h0, s0, s1, h1])
}

/// The receiver's original reassembly, kept verbatim as the oracle: push
/// the range, sort, merge into a fresh `Vec`, then pop the contiguous prefix.
#[derive(Default)]
struct OracleReceiver {
    expected: u64,
    buffered: Vec<(u64, u64)>,
}

impl OracleReceiver {
    fn on_segment(&mut self, seq: u64, len: u32) -> u64 {
        let end = seq + len as u64;
        if end <= self.expected {
            return self.expected; // wholly duplicate
        }
        // Insert/merge the range into the buffer.
        self.buffered.push((seq.max(self.expected), end));
        self.buffered.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.buffered.len());
        for &(s, e) in self.buffered.iter() {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        self.buffered = merged;
        // Advance the cumulative point over any now-contiguous prefix.
        while let Some(&(s, e)) = self.buffered.first() {
            if s <= self.expected {
                self.expected = self.expected.max(e);
                self.buffered.remove(0);
            } else {
                break;
            }
        }
        self.expected
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The in-place receiver returns the oracle's cumulative ACK for every
    /// segment of a random stream: reordered, duplicated, overlapping,
    /// touching and empty segments alike. Starts on a coarse grid over a
    /// small window keep holes, plugs and merges frequent.
    #[test]
    fn receiver_matches_allocating_merge(
        segs in prop::collection::vec((0u64..16, 0u64..4, 0u32..6), 1..100),
    ) {
        let mut got = Receiver::new();
        let mut want = OracleReceiver::default();
        for &(slot, shift, units) in &segs {
            // Everything sits on a 25-byte grid, so ranges often touch;
            // lengths skew short (0..625 bytes, quadratic), so one long
            // segment often spans several buffered ranges.
            let (seq, len) = (slot * 100 + shift * 25, units * units * 25);
            prop_assert_eq!(got.on_segment(seq, len), want.on_segment(seq, len));
            prop_assert_eq!(got.expected(), want.expected);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the transfer size and queue depth, a healthy network
    /// delivers every byte exactly once (cumulative ACK reaches the total).
    #[test]
    fn healthy_network_delivers_everything(
        bytes in 1_000u64..2_000_000,
        queue in 4usize..64,
    ) {
        let (net, n) = line(100e6);
        let cfg = PacketNetConfig {
            queue_packets: queue,
            ..PacketNetConfig::default()
        };
        let (out, _) = PacketSim::new(cfg).run(
            &net,
            &[PktFlowSpec {
                path: vec![n[0], n[1], n[2], n[3]],
                bytes,
                start: Time::ZERO,
            }],
            vec![],
            Time::from_secs(60),
        );
        prop_assert!(out[0].completed.is_some());
        prop_assert_eq!(out[0].delivered, bytes);
    }

    /// A transient outage of any duration, placed anywhere in the transfer,
    /// never corrupts delivery: after repair, the flow finishes with every
    /// byte accounted for.
    #[test]
    fn transient_outage_is_always_survivable(
        fail_ms in 1u64..100,
        outage_ms in 1u64..500,
    ) {
        let (net, n) = line(100e6);
        let l = net.link_between(n[1], n[2]).expect("middle");
        let bytes = 2_000_000u64; // ~160 ms at 100 Mbps
        let events = vec![
            (Time::from_millis(fail_ms), PktEvent::FailLink(l)),
            (
                Time::from_millis(fail_ms + outage_ms),
                PktEvent::RepairLink(l),
            ),
        ];
        let (out, _) = PacketSim::new(PacketNetConfig::default()).run(
            &net,
            &[PktFlowSpec {
                path: vec![n[0], n[1], n[2], n[3]],
                bytes,
                start: Time::ZERO,
            }],
            events,
            Time::from_secs(120),
        );
        prop_assert!(out[0].completed.is_some(), "must finish after repair");
        prop_assert_eq!(out[0].delivered, bytes);
        // Completion cannot precede the repair unless the transfer finished
        // before the failure hit.
        let t = out[0].completed.expect("completed");
        if t > Time::from_millis(fail_ms) {
            // The flow was still running at failure time: either it was
            // effectively done (all data past the failed link) or it ends
            // after the repair.
            prop_assert!(
                t >= Time::from_millis(fail_ms + outage_ms)
                    || t <= Time::from_millis(fail_ms + 20),
                "completion {t:?} inside the outage window"
            );
        }
    }

    /// Two flows over the same bottleneck always deliver fully, and their
    /// total service time is bounded below by the serialized optimum.
    #[test]
    fn sharing_conserves_work(bytes in 100_000u64..1_000_000) {
        let (mut net, n) = line(100e6);
        let h2 = net.add_node(NodeKind::Host, None, 2);
        let h3 = net.add_node(NodeKind::Host, None, 3);
        net.add_link(h2, n[1], 1e9);
        net.add_link(n[2], h3, 1e9);
        let flows = vec![
            PktFlowSpec {
                path: vec![n[0], n[1], n[2], n[3]],
                bytes,
                start: Time::ZERO,
            },
            PktFlowSpec {
                path: vec![h2, n[1], n[2], h3],
                bytes,
                start: Time::ZERO,
            },
        ];
        let (out, _) = PacketSim::new(PacketNetConfig::default()).run(
            &net,
            &flows,
            vec![],
            Time::from_secs(120),
        );
        for o in &out {
            prop_assert!(o.completed.is_some());
            prop_assert_eq!(o.delivered, bytes);
        }
        // The bottleneck can carry at most 100 Mbps of goodput: finishing
        // both transfers cannot beat the fluid bound.
        let bound = Duration::from_secs_f64((2 * bytes) as f64 * 8.0 / 100e6);
        let last = out
            .iter()
            .map(|o| o.completed.expect("done"))
            .max()
            .expect("two flows");
        prop_assert!(
            last >= Time::ZERO + bound.mul_f64(0.95),
            "finished faster than physics allows: {last:?} < {bound}"
        );
    }
}
