//! The discrete-event engine: a time-ordered event queue and a run loop.
//!
//! The engine is generic over the event payload type `E`, so each simulator in
//! the workspace (flow-level, packet-level, control plane) defines its own
//! event enum and a [`World`] that reacts to it.
//!
//! Ties at the same instant are broken by scheduling order (FIFO), which makes
//! runs fully deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{Duration, Time};

/// The behaviour driven by the engine: a state machine that receives events.
pub trait World<E> {
    /// Handle `event` occurring at instant `now`. New events may be scheduled
    /// on `engine`; they must not be scheduled in the past.
    fn handle(&mut self, engine: &mut Engine<E>, now: Time, event: E);
}

/// Blanket impl so closures `FnMut(&mut Engine<E>, Time, E)` are worlds too.
impl<E, F: FnMut(&mut Engine<E>, Time, E)> World<E> for F {
    fn handle(&mut self, engine: &mut Engine<E>, now: Time, event: E) {
        self(engine, now, event)
    }
}

/// A reserved position in the delivery order: an instant plus the FIFO
/// sequence number that breaks ties at that instant.
///
/// [`Engine::reserve_in`] hands one out without queueing anything;
/// [`Engine::schedule_slot`] later queues an event under it, and the event is
/// delivered exactly where it would have been had it been scheduled at
/// reservation time. Slots order as the engine delivers: by instant, then by
/// sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Slot {
    at: Time,
    seq: u64,
}

impl Slot {
    /// The sequence number reserved with it, unique within one engine.
    pub fn seq(self) -> u64 {
        self.seq
    }
}

struct Entry<E> {
    slot: Slot,
    event: E,
}

// BinaryHeap is a max-heap; invert ordering to pop the earliest event first.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.slot.cmp(&self.slot)
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.slot == other.slot
    }
}
impl<E> Eq for Entry<E> {}

/// A discrete-event simulation engine.
///
/// Holds the pending-event queue and the virtual clock. See the crate-level
/// example for typical use.
pub struct Engine<E> {
    queue: BinaryHeap<Entry<E>>,
    now: Time,
    seq: u64,
    processed: u64,
    horizon: Time,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// A fresh engine with the clock at [`Time::ZERO`] and no horizon.
    pub fn new() -> Self {
        Engine {
            queue: BinaryHeap::new(),
            now: Time::ZERO,
            seq: 0,
            processed: 0,
            horizon: Time::MAX,
        }
    }

    /// Stop delivering events scheduled strictly after `horizon`.
    ///
    /// Events beyond the horizon stay in the queue (so statistics about
    /// unfinished work remain available) but [`run`](Engine::run) returns once
    /// the next event would exceed it, with the clock advanced to the horizon.
    pub fn set_horizon(&mut self, horizon: Time) {
        self.horizon = horizon;
    }

    /// The current virtual instant.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `event` at absolute instant `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current instant — scheduling into the past
    /// is always a simulation bug.
    pub fn schedule(&mut self, at: Time, event: E) {
        let slot = self.reserve(at);
        self.schedule_slot(slot, event);
    }

    /// Schedule `event` to occur `delay` after the current instant.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Reserve the position an event scheduled `delay` from now would take —
    /// the instant and the next FIFO sequence number — without queueing
    /// anything. Queue an event there later with
    /// [`schedule_slot`](Engine::schedule_slot), or never.
    pub fn reserve_in(&mut self, delay: Duration) -> Slot {
        self.reserve(self.now + delay)
    }

    /// Queue `event` under a slot reserved by
    /// [`reserve_in`](Engine::reserve_in). It is delivered exactly where an
    /// event scheduled at reservation time would have been: before every
    /// later-reserved event due at the same instant.
    ///
    /// # Panics
    /// Panics if the slot's instant is before the current instant.
    pub fn schedule_slot(&mut self, slot: Slot, event: E) {
        assert!(
            slot.at >= self.now,
            "event scheduled in the past: {:?} < {:?}",
            slot.at,
            self.now
        );
        self.queue.push(Entry { slot, event });
    }

    fn reserve(&mut self, at: Time) -> Slot {
        let seq = self.seq;
        self.seq += 1;
        Slot { at, seq }
    }

    /// Remove and return the earliest pending event, advancing the clock.
    ///
    /// Returns `None` when the queue is empty or the next event lies beyond
    /// the horizon (in which case the clock advances to the horizon).
    pub fn pop(&mut self) -> Option<(Time, E)> {
        match self.queue.peek() {
            None => None,
            Some(head) if head.slot.at > self.horizon => {
                self.now = self.horizon;
                None
            }
            Some(_) => {
                #[expect(clippy::expect_used, reason = "peek() just returned Some on this queue")]
                let entry = self.queue.pop().expect("peeked entry vanished");
                // Time monotonicity: the queue must never yield an event
                // earlier than the current instant. A hard assert under
                // `strict-invariants`, a debug assert otherwise.
                #[cfg(feature = "strict-invariants")]
                assert!(entry.slot.at >= self.now, "queue yielded a past event");
                #[cfg(not(feature = "strict-invariants"))]
                debug_assert!(entry.slot.at >= self.now, "queue yielded a past event");
                self.now = entry.slot.at;
                self.processed += 1;
                Some((entry.slot.at, entry.event))
            }
        }
    }

    /// Run `world` until the queue drains or the horizon is reached.
    pub fn run(&mut self, world: &mut impl World<E>) {
        while let Some((at, event)) = self.pop() {
            world.handle(self, at, event);
        }
    }

    /// Run until at most `limit` more events have been delivered. Returns the
    /// number actually delivered (less than `limit` iff the queue drained or
    /// the horizon was reached).
    pub fn run_steps(&mut self, world: &mut impl World<E>, limit: u64) -> u64 {
        let mut delivered = 0;
        while delivered < limit {
            match self.pop() {
                Some((at, event)) => {
                    world.handle(self, at, event);
                    delivered += 1;
                }
                None => break,
            }
        }
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        A(u32),
        Stop,
    }

    #[test]
    fn delivers_in_time_order() {
        let mut engine: Engine<Ev> = Engine::new();
        engine.schedule(Time::from_secs(3), Ev::A(3));
        engine.schedule(Time::from_secs(1), Ev::A(1));
        engine.schedule(Time::from_secs(2), Ev::A(2));
        let mut seen = Vec::new();
        engine.run(&mut |_: &mut Engine<Ev>, now: Time, ev: Ev| {
            if let Ev::A(n) = ev {
                seen.push((now.as_nanos() / 1_000_000_000, n));
            }
        });
        assert_eq!(seen, vec![(1, 1), (2, 2), (3, 3)]);
        assert_eq!(engine.events_processed(), 3);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut engine: Engine<Ev> = Engine::new();
        for n in 0..100 {
            engine.schedule(Time::from_secs(1), Ev::A(n));
        }
        let mut seen = Vec::new();
        engine.run(&mut |_: &mut Engine<Ev>, _now, ev: Ev| {
            if let Ev::A(n) = ev {
                seen.push(n);
            }
        });
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn horizon_stops_delivery_and_advances_clock() {
        let mut engine: Engine<Ev> = Engine::new();
        engine.schedule(Time::from_secs(1), Ev::A(1));
        engine.schedule(Time::from_secs(10), Ev::A(10));
        engine.set_horizon(Time::from_secs(5));
        let mut seen = Vec::new();
        engine.run(&mut |_: &mut Engine<Ev>, _now, ev: Ev| {
            if let Ev::A(n) = ev {
                seen.push(n);
            }
        });
        assert_eq!(seen, vec![1]);
        assert_eq!(engine.now(), Time::from_secs(5));
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    fn event_exactly_at_horizon_is_delivered() {
        let mut engine: Engine<Ev> = Engine::new();
        engine.set_horizon(Time::from_secs(5));
        engine.schedule(Time::from_secs(5), Ev::A(5));
        let mut seen = 0;
        engine.run(&mut |_: &mut Engine<Ev>, _now, _ev: Ev| seen += 1);
        assert_eq!(seen, 1);
    }

    #[test]
    fn handler_can_reschedule() {
        let mut engine: Engine<Ev> = Engine::new();
        engine.schedule(Time::ZERO, Ev::A(5));
        let mut count = 0;
        engine.run(&mut |e: &mut Engine<Ev>, _now, ev: Ev| match ev {
            Ev::A(0) => e.schedule_in(Duration::from_secs(1), Ev::Stop),
            Ev::A(n) => {
                count += 1;
                e.schedule_in(Duration::from_secs(1), Ev::A(n - 1));
            }
            Ev::Stop => {}
        });
        assert_eq!(count, 5);
        assert_eq!(engine.now(), Time::from_secs(6));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut engine: Engine<Ev> = Engine::new();
        engine.schedule(Time::from_secs(2), Ev::Stop);
        engine.run(&mut |e: &mut Engine<Ev>, _now, _ev: Ev| {
            e.schedule(Time::from_secs(1), Ev::Stop);
        });
    }

    #[test]
    fn reserved_slots_deliver_in_reservation_order() {
        let mut engine: Engine<Ev> = Engine::new();
        let a = engine.reserve_in(Duration::from_secs(1));
        engine.schedule(Time::from_secs(1), Ev::A(1));
        let c = engine.reserve_in(Duration::from_secs(1));
        engine.schedule(Time::from_secs(1), Ev::A(3));
        assert!(a < c && a.seq() < c.seq());
        // Queued in the opposite order, and after the plain events.
        engine.schedule_slot(c, Ev::A(2));
        engine.schedule_slot(a, Ev::A(0));
        let mut seen = Vec::new();
        engine.run(&mut |_: &mut Engine<Ev>, _now, ev: Ev| {
            if let Ev::A(n) = ev {
                seen.push(n);
            }
        });
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn unqueued_reservation_leaves_no_event() {
        let mut engine: Engine<Ev> = Engine::new();
        let _ = engine.reserve_in(Duration::from_secs(1));
        assert_eq!(engine.pending(), 0);
        engine.run(&mut |_: &mut Engine<Ev>, _now, _ev: Ev| {});
        assert_eq!(engine.events_processed(), 0);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_a_slot_in_the_past_panics() {
        let mut engine: Engine<Ev> = Engine::new();
        let early = engine.reserve_in(Duration::from_secs(1));
        engine.schedule(Time::from_secs(2), Ev::Stop);
        engine.run(&mut |e: &mut Engine<Ev>, _now, _ev: Ev| {
            e.schedule_slot(early, Ev::Stop);
        });
    }

    #[test]
    fn run_steps_limits_delivery() {
        let mut engine: Engine<Ev> = Engine::new();
        for n in 0..10 {
            engine.schedule(Time::from_secs(n as u64), Ev::A(n));
        }
        let delivered = engine.run_steps(&mut |_: &mut Engine<Ev>, _now, _ev: Ev| {}, 4);
        assert_eq!(delivered, 4);
        assert_eq!(engine.pending(), 6);
        let rest = engine.run_steps(&mut |_: &mut Engine<Ev>, _now, _ev: Ev| {}, 100);
        assert_eq!(rest, 6);
    }
}
