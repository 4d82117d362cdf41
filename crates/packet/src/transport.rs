//! A Reno-like window-based transport, as a pure state machine.
//!
//! One instance drives one flow's sender. The network simulator calls
//! [`RenoFlow::on_ack`] / [`RenoFlow::on_rto`] / [`RenoFlow::sends_into`]
//! and owns all timing; this module owns only the congestion-control state:
//!
//! * slow start (cwnd += 1 MSS per ACK) until `ssthresh`;
//! * congestion avoidance (cwnd += MSS²/cwnd per ACK);
//! * fast retransmit on 3 duplicate ACKs, halving the window;
//! * RTO: window back to 1 MSS, go-back-N from the last cumulative ACK.
//!
//! Sequence numbers are byte offsets; ACKs are cumulative.

/// Sender-side Reno state for one flow.
#[derive(Clone, Debug)]
pub struct RenoFlow {
    /// Total bytes to transfer.
    pub total_bytes: u64,
    /// Maximum segment size in bytes.
    pub mss: u32,
    /// Highest byte sent + 1 (next fresh byte to send).
    next_seq: u64,
    /// Cumulative bytes acknowledged.
    acked: u64,
    /// Congestion window, bytes (float for smooth CA growth).
    cwnd: f64,
    /// Slow-start threshold, bytes.
    ssthresh: f64,
    dupacks: u32,
    /// Retransmissions queued by fast retransmit, drained by `sends_into`.
    pending_rtx: Vec<(u64, u32)>,
    /// Monotone counter invalidating stale RTO timers.
    rto_generation: u64,
    /// Consecutive RTOs without progress (drives exponential backoff).
    backoff: u32,
    retransmits: u64,
    timeouts: u64,
}

impl RenoFlow {
    /// A fresh sender for `total_bytes` with the given MSS.
    ///
    /// # Panics
    /// Panics if `mss == 0`.
    pub fn new(total_bytes: u64, mss: u32) -> RenoFlow {
        assert!(mss > 0, "mss must be positive");
        RenoFlow {
            total_bytes,
            mss,
            next_seq: 0,
            acked: 0,
            cwnd: mss as f64 * 2.0,
            ssthresh: f64::INFINITY,
            dupacks: 0,
            pending_rtx: Vec::new(),
            rto_generation: 0,
            backoff: 0,
            retransmits: 0,
            timeouts: 0,
        }
    }

    /// Whether every byte has been acknowledged.
    pub fn finished(&self) -> bool {
        self.acked >= self.total_bytes
    }

    /// Fast retransmissions performed.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// RTO events taken.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Current RTO-timer generation; an expiring timer with a stale
    /// generation must be ignored.
    pub fn rto_generation(&self) -> u64 {
        self.rto_generation
    }

    fn in_flight(&self) -> u64 {
        self.next_seq.saturating_sub(self.acked)
    }

    /// Appends the segments the window currently permits to `out`, as
    /// `(seq, len)` pairs. Pending retransmissions drain first; then fresh
    /// data up to the window. Call after construction, after ACKs, and
    /// after RTOs; the caller turns them into packets. The buffer is the
    /// caller's, so a simulator reuses one allocation for every send burst.
    pub fn sends_into(&mut self, out: &mut Vec<(u64, u32)>) {
        out.append(&mut self.pending_rtx);
        while !self.finished()
            && self.next_seq < self.total_bytes
            && (self.in_flight() + self.mss as u64) as f64 <= self.cwnd.max(self.mss as f64)
        {
            let len = self
                .mss
                .min(u32::try_from(self.total_bytes - self.next_seq).unwrap_or(u32::MAX));
            out.push((self.next_seq, len));
            self.next_seq += len as u64;
        }
    }

    /// Process a cumulative ACK for byte `ack` (first unreceived byte at
    /// the receiver). Returns `true` on a *fast retransmit* trigger; the
    /// retransmitted segment is queued and will come out of the next
    /// [`RenoFlow::sends_into`].
    pub fn on_ack(&mut self, ack: u64) -> bool {
        if ack > self.acked {
            // Fresh ACK: progress resets the RTO backoff.
            let newly = ack - self.acked;
            self.acked = ack;
            self.dupacks = 0;
            self.backoff = 0;
            self.rto_generation += 1;
            if self.cwnd < self.ssthresh {
                // Slow start: one MSS per ACK (approximately per-segment).
                self.cwnd += self.mss as f64 * (newly as f64 / self.mss as f64).min(2.0);
            } else {
                // Congestion avoidance: MSS²/cwnd per ACK.
                self.cwnd += (self.mss as f64 * self.mss as f64) / self.cwnd;
            }
            if self.next_seq < self.acked {
                self.next_seq = self.acked;
            }
            false
        } else {
            // Duplicate ACK.
            self.dupacks += 1;
            if self.dupacks == 3 {
                // Fast retransmit: halve the window and resend only the
                // missing segment (the receiver buffers out-of-order data).
                self.ssthresh = (self.cwnd / 2.0).max(2.0 * self.mss as f64);
                self.cwnd = self.ssthresh;
                let len = self
                    .mss
                    .min(u32::try_from(self.total_bytes - self.acked).unwrap_or(u32::MAX));
                self.pending_rtx.push((self.acked, len));
                self.dupacks = 0;
                self.retransmits += 1;
                self.rto_generation += 1;
                true
            } else {
                false
            }
        }
    }

    /// Process a retransmission timeout: collapse to one MSS and go back to
    /// the last cumulative ACK. Consecutive timeouts without progress raise
    /// the backoff level.
    pub fn on_rto(&mut self) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0 * self.mss as f64);
        self.cwnd = self.mss as f64;
        self.next_seq = self.acked;
        self.pending_rtx.clear();
        self.dupacks = 0;
        self.backoff = (self.backoff + 1).min(8);
        self.timeouts += 1;
        self.rto_generation += 1;
    }

    /// The multiplier the caller applies to the base RTO when re-arming the
    /// timer: 2^backoff, capped at 256× (classic exponential backoff; it
    /// keeps a flow stranded by a long outage from firing timers at full
    /// rate for the whole outage).
    pub fn rto_multiplier(&self) -> u32 {
        1u32 << self.backoff
    }
}

/// Receiver-side state: cumulative reassembly with out-of-order buffering
/// (so a single fast-retransmitted segment plugs the hole and the
/// cumulative ACK jumps past everything already buffered).
#[derive(Clone, Debug, Default)]
pub struct Receiver {
    expected: u64,
    /// Buffered out-of-order ranges, disjoint and sorted: (start, end).
    buffered: Vec<(u64, u64)>,
}

impl Receiver {
    /// A fresh receiver.
    pub fn new() -> Receiver {
        Receiver::default()
    }

    /// Process an arriving segment; returns the cumulative ACK to send.
    /// Out-of-order segments are buffered; duplicate ACKs signal the hole.
    pub fn on_segment(&mut self, seq: u64, len: u32) -> u64 {
        let end = seq + len as u64;
        if len == 0 || end <= self.expected {
            return self.expected; // empty or wholly duplicate
        }
        if seq <= self.expected && self.buffered.is_empty() {
            self.expected = end; // in order, nothing to plug
            return end;
        }
        // Merge [start, end) with every buffered range it overlaps or
        // touches: those from the first ending at or after `start` to the
        // last starting at or before `end`.
        let start = seq.max(self.expected);
        let lo = self.buffered.partition_point(|&(_, e)| e < start);
        let hi = lo + self.buffered[lo..].partition_point(|&(s, _)| s <= end);
        if lo == hi {
            self.buffered.insert(lo, (start, end));
        } else {
            let merged = (
                start.min(self.buffered[lo].0),
                end.max(self.buffered[hi - 1].1),
            );
            self.buffered[lo] = merged;
            self.buffered.drain(lo + 1..hi);
        }
        // Ranges are disjoint and never touch, and every one but the new
        // range starts past `expected`: at most the first becomes contiguous.
        if let Some(&(s, e)) = self.buffered.first() {
            if s <= self.expected {
                self.expected = e;
                self.buffered.remove(0);
            }
        }
        self.expected
    }

    /// First byte not yet received in order.
    pub fn expected(&self) -> u64 {
        self.expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take_sends(f: &mut RenoFlow) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        f.sends_into(&mut out);
        out
    }

    #[test]
    fn slow_start_doubles_window() {
        let mut f = RenoFlow::new(1_000_000, 1000);
        let w0 = f.cwnd;
        let sends = take_sends(&mut f);
        assert_eq!(sends.len(), 2, "initial window = 2 MSS");
        // ACK both segments: window grows by ~1 MSS per ACK.
        f.on_ack(1000);
        f.on_ack(2000);
        assert!(f.cwnd >= w0 + 1900.0, "{}", f.cwnd);
    }

    #[test]
    fn sends_respect_window_and_total() {
        let mut f = RenoFlow::new(2500, 1000);
        let sends = take_sends(&mut f);
        // 2 MSS window → segments (0,1000) and (1000,1000).
        assert_eq!(sends, vec![(0, 1000), (1000, 1000)]);
        assert!(take_sends(&mut f).is_empty(), "window exhausted");
        f.on_ack(2000);
        let sends = take_sends(&mut f);
        assert_eq!(sends, vec![(2000, 500)], "runt final segment");
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit() {
        let mut f = RenoFlow::new(100_000, 1000);
        for _ in 0..10 {
            take_sends(&mut f);
            let a = f.acked + 1000;
            f.on_ack(a);
        }
        let w = f.cwnd;
        take_sends(&mut f);
        assert!(!f.on_ack(f.acked));
        assert!(!f.on_ack(f.acked));
        assert!(f.on_ack(f.acked), "third dupack retransmits");
        assert!(f.cwnd <= w / 2.0 + 1.0);
        assert_eq!(f.retransmits(), 1);
        // The queued retransmission targets the hole, once.
        let sends = take_sends(&mut f);
        assert_eq!(sends[0], (f.acked, 1000));
        assert!(!take_sends(&mut f).iter().any(|&(s, _)| s == f.acked));
    }

    #[test]
    fn rto_collapses_window() {
        let mut f = RenoFlow::new(100_000, 1000);
        for _ in 0..8 {
            take_sends(&mut f);
            let a = f.acked + 1000;
            f.on_ack(a);
        }
        take_sends(&mut f);
        let gen = f.rto_generation();
        f.on_rto();
        assert_eq!(f.cwnd, 1000.0);
        assert_eq!(f.timeouts(), 1);
        assert!(f.rto_generation() > gen);
        let sends = take_sends(&mut f);
        assert_eq!(sends.len(), 1, "one MSS window after RTO");
        assert_eq!(sends[0].0, f.acked);
    }

    #[test]
    fn rto_backoff_grows_and_resets_on_progress() {
        let mut f = RenoFlow::new(100_000, 1000);
        assert_eq!(f.rto_multiplier(), 1);
        take_sends(&mut f);
        f.on_rto();
        assert_eq!(f.rto_multiplier(), 2);
        f.on_rto();
        f.on_rto();
        assert_eq!(f.rto_multiplier(), 8);
        // Backoff is capped at 2^8.
        for _ in 0..20 {
            f.on_rto();
        }
        assert_eq!(f.rto_multiplier(), 256);
        // Progress resets it.
        take_sends(&mut f);
        f.on_ack(1000);
        assert_eq!(f.rto_multiplier(), 1);
    }

    #[test]
    fn finishes_exactly_at_total() {
        let mut f = RenoFlow::new(1500, 1000);
        let sends = take_sends(&mut f);
        assert_eq!(sends, vec![(0, 1000), (1000, 500)]);
        f.on_ack(1500);
        assert!(f.finished());
        assert!(take_sends(&mut f).is_empty());
    }

    #[test]
    fn receiver_buffers_out_of_order_and_jumps_on_fill() {
        let mut r = Receiver::new();
        assert_eq!(r.on_segment(0, 1000), 1000);
        // Out of order: hole at 1000, later data buffered.
        assert_eq!(r.on_segment(2000, 1000), 1000);
        assert_eq!(r.on_segment(3000, 1000), 1000);
        // Hole filled: cumulative ACK jumps past the buffered data.
        assert_eq!(r.on_segment(1000, 1000), 4000);
        // Duplicates are harmless.
        assert_eq!(r.on_segment(2000, 1000), 4000);
    }

    #[test]
    fn receiver_merges_overlapping_ranges() {
        let mut r = Receiver::new();
        assert_eq!(r.on_segment(500, 1000), 0);
        assert_eq!(r.on_segment(1200, 1000), 0);
        assert_eq!(r.on_segment(0, 600), 2200);
    }
}
