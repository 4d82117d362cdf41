//! Property-based tests of the simulation engine and statistics helpers.

use proptest::prelude::*;

use sharebackup_sim::{Cdf, Duration, Engine, LaneId, SimRng, Summary, Time};

/// How the lane-vs-heap test queues one event.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `schedule_on` the lane of the `k`-th delay of the case (modulo their
    /// number), through the handle kept since that delay was first used or,
    /// if `fresh`, through a second handle asked for now; the all-heap
    /// engine calls `schedule_in` instead.
    Fixed(usize, bool),
    /// `schedule` at `now + t` ns.
    At(u64),
    /// `schedule_in` `t` ns.
    In(u64),
    /// `reserve_in` `t` ns; the event is queued under the slot after the
    /// rest of its batch, reserved slots in reverse order.
    Reserved(u64),
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..4, 0usize..4, 0u64..20, any::<bool>()).prop_map(|(kind, k, t, fresh)| match kind {
        0 => Op::Fixed(k, fresh),
        1 => Op::At(t),
        2 => Op::In(t),
        _ => Op::Reserved(t),
    })
}

/// A root event (index, `None`) or the `j`-th child a root's handler
/// scheduled (index, `Some(j)`).
type Ev = (usize, Option<usize>);

/// The lane engine's handle for each delay of the case, taken the first time
/// the delay is used, at the top level or inside a handler (a lane created
/// mid-run); `None` runs the all-heap engine.
type Handles = Option<Vec<Option<LaneId>>>;

fn queue(
    engine: &mut Engine<Ev>,
    handles: &mut Handles,
    delays: &[u64],
    batch: impl Iterator<Item = (Op, Ev)>,
) {
    let mut reserved = Vec::new();
    for (op, ev) in batch {
        match op {
            Op::Fixed(k, fresh) => {
                let k = k % delays.len();
                let delay = Duration::from_nanos(delays[k]);
                match handles {
                    None => engine.schedule_in(delay, ev),
                    Some(handles) => {
                        let kept = *handles[k].get_or_insert_with(|| engine.lane(delay));
                        let lane = if fresh { engine.lane(delay) } else { kept };
                        assert_eq!(lane, kept, "two handles for one delay differ");
                        engine.schedule_on(lane, ev);
                    }
                }
            }
            Op::At(t) => engine.schedule(engine.now() + Duration::from_nanos(t), ev),
            Op::In(t) => engine.schedule_in(Duration::from_nanos(t), ev),
            Op::Reserved(t) => reserved.push((engine.reserve_in(Duration::from_nanos(t)), ev)),
        }
    }
    for (slot, ev) in reserved.into_iter().rev() {
        engine.schedule_slot(slot, ev);
    }
}

/// Queue every root, run to `horizon` with each root's handler queueing its
/// children, and return the delivered `(now, event)` sequence, the events
/// processed, the events left pending and the final clock.
fn run_ops(
    lanes: bool,
    delays: &[u64],
    roots: &[(Op, Vec<Op>)],
    horizon: u64,
) -> (Vec<(Time, Ev)>, u64, usize, Time) {
    let mut engine: Engine<Ev> = Engine::new();
    engine.set_horizon(Time::from_nanos(horizon));
    let mut handles: Handles = lanes.then(|| vec![None; delays.len()]);
    queue(
        &mut engine,
        &mut handles,
        delays,
        roots
            .iter()
            .enumerate()
            .map(|(i, (op, _))| (*op, (i, None))),
    );
    let mut seen = Vec::new();
    engine.run(&mut |e: &mut Engine<Ev>, now: Time, ev: Ev| {
        seen.push((now, ev));
        if ev.1.is_none() {
            let children = roots[ev.0].1.iter().enumerate();
            queue(
                e,
                &mut handles,
                delays,
                children.map(|(j, op)| (*op, (ev.0, Some(j)))),
            );
        }
    });
    (
        seen,
        engine.events_processed(),
        engine.pending(),
        engine.now(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Events always come out in (time, insertion) order, regardless of the
    /// insertion order, and the clock matches each event's timestamp.
    #[test]
    fn engine_delivery_is_time_then_fifo(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut engine: Engine<(u64, usize)> = Engine::new();
        for (seq, &t) in times.iter().enumerate() {
            engine.schedule(Time::from_nanos(t), (t, seq));
        }
        let mut seen: Vec<(u64, u64, usize)> = Vec::new();
        engine.run(&mut |_: &mut Engine<(u64, usize)>, now: Time, ev: (u64, usize)| {
            seen.push((now.as_nanos(), ev.0, ev.1));
        });
        for &(now, t, _) in &seen {
            prop_assert_eq!(now, t, "clock must equal the event timestamp");
        }
        // Sorted by (time, insertion sequence).
        for w in seen.windows(2) {
            prop_assert!(w[0].1 < w[1].1 || (w[0].1 == w[1].1 && w[0].2 < w[1].2));
        }
        prop_assert_eq!(seen.len(), times.len());
    }

    /// Events queued under reserved slots, in any order, are delivered
    /// exactly as if each had been scheduled when its slot was reserved.
    #[test]
    fn reserved_slots_match_scheduling_at_reservation(
        ops in prop::collection::vec((0u64..50, any::<bool>(), any::<u64>()), 1..100),
    ) {
        let mut direct: Engine<usize> = Engine::new();
        let mut slotted: Engine<usize> = Engine::new();
        let mut reserved = Vec::new();
        for (i, &(t, reserve, key)) in ops.iter().enumerate() {
            direct.schedule_in(Duration::from_nanos(t), i);
            if reserve {
                reserved.push((key, slotted.reserve_in(Duration::from_nanos(t)), i));
            } else {
                slotted.schedule_in(Duration::from_nanos(t), i);
            }
        }
        // Queue the reserved events in an order unrelated to reservation.
        reserved.sort_unstable();
        for (_, slot, i) in reserved {
            slotted.schedule_slot(slot, i);
        }
        let mut want = Vec::new();
        direct.run(&mut |_: &mut Engine<usize>, now: Time, i: usize| want.push((now, i)));
        let mut got = Vec::new();
        slotted.run(&mut |_: &mut Engine<usize>, now: Time, i: usize| got.push((now, i)));
        prop_assert_eq!(got, want);
    }

    /// Fixed-delay lanes deliver exactly what an all-heap engine delivers:
    /// the same `(now, event)` sequence, mixed with `schedule`,
    /// `schedule_in` and reserved slots, at the top level and from inside
    /// handlers, up to any horizon. Lanes are created on first use, often
    /// mid-run; they drain and refill as roots and their children pop; and
    /// a delay is reached through a second handle as often as through the
    /// first.
    #[test]
    fn fixed_delay_lanes_match_an_all_heap_engine(
        delays in prop::collection::btree_set(0u64..20, 1..=4),
        roots in prop::collection::vec((op(), prop::collection::vec(op(), 0..4)), 1..60),
        horizon in 0u64..80,
    ) {
        let delays: Vec<u64> = delays.into_iter().collect();
        let heap = run_ops(false, &delays, &roots, horizon);
        let lanes = run_ops(true, &delays, &roots, horizon);
        prop_assert_eq!(lanes, heap);
    }

    /// The horizon never lets a later event through and always advances the
    /// clock exactly to the horizon when one is pending beyond it.
    #[test]
    fn horizon_is_exact(times in prop::collection::vec(0u64..1000, 1..100), h in 0u64..1000) {
        let mut engine: Engine<u64> = Engine::new();
        for &t in &times {
            engine.schedule(Time::from_nanos(t), t);
        }
        engine.set_horizon(Time::from_nanos(h));
        let mut max_seen = None;
        engine.run(&mut |_: &mut Engine<u64>, _now: Time, ev: u64| {
            max_seen = Some(max_seen.unwrap_or(0).max(ev));
        });
        if let Some(m) = max_seen {
            prop_assert!(m <= h);
        }
        let beyond = times.iter().filter(|&&t| t > h).count();
        prop_assert_eq!(engine.pending(), beyond);
    }

    /// Summary invariants: min ≤ p50 ≤ p90 ≤ p99 ≤ max and min ≤ mean ≤ max.
    #[test]
    fn summary_is_ordered(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Summary::of(&samples).expect("nonempty");
        prop_assert!(s.min <= s.p50 + 1e-9);
        prop_assert!(s.p50 <= s.p90 + 1e-9);
        prop_assert!(s.p90 <= s.p99 + 1e-9);
        prop_assert!(s.p99 <= s.max + 1e-9);
        prop_assert!(s.min <= s.mean + 1e-9 && s.mean <= s.max + 1e-9);
    }

    /// CDF: fraction_at_most is monotone and hits 0/1 at the extremes.
    #[test]
    fn cdf_is_monotone(samples in prop::collection::vec(0f64..100.0, 1..100)) {
        let cdf = Cdf::from_samples(samples.iter().copied());
        let mut last = 0.0;
        for i in 0..=100 {
            let f = cdf.fraction_at_most(i as f64);
            prop_assert!(f >= last - 1e-12);
            last = f;
        }
        prop_assert_eq!(cdf.fraction_at_most(-1.0), 0.0);
        prop_assert_eq!(cdf.fraction_at_most(101.0), 1.0);
        // Quantile is within sample range.
        let q = cdf.quantile(0.5);
        prop_assert!(q >= cdf.quantile(0.0) && q <= cdf.quantile(1.0));
    }

    /// Seeded RNG streams are reproducible and children independent.
    #[test]
    fn rng_reproducibility(seed in any::<u64>()) {
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.u64(), b.u64());
        }
        let r1 = SimRng::seed_from_u64(seed);
        let mut c1 = r1.child("x");
        let r2 = SimRng::seed_from_u64(seed);
        let mut c2 = r2.child("x");
        for _ in 0..8 {
            prop_assert_eq!(c1.u64(), c2.u64());
        }
    }
}
