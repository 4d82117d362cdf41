#![warn(missing_docs)]
#![warn(clippy::expect_used)]
//! # sharebackup-sim
//!
//! A small, deterministic discrete-event simulation engine.
//!
//! Everything in the ShareBackup reproduction — the flow-level simulator, the
//! packet-level simulator, and the control plane — runs on this engine. The
//! design goals follow the smoltcp philosophy: simplicity and robustness over
//! cleverness, with no async runtime (a discrete-event simulator is CPU-bound;
//! an async runtime would add nothing but nondeterminism).
//!
//! Key guarantees:
//!
//! * **Virtual time** is a `u64` count of nanoseconds ([`Time`]). There is no
//!   wall-clock anywhere in the simulation.
//! * **Determinism**: events scheduled for the same instant are delivered in
//!   the order they were scheduled (a monotone sequence number breaks ties),
//!   and all randomness flows through explicitly seeded [`SimRng`]s. Two runs
//!   with the same seed produce byte-identical results.
//!
//! ## Example
//!
//! ```
//! use sharebackup_sim::{Duration, Engine, Time, World};
//!
//! enum Ev { Ping(u32) }
//!
//! struct Counter { pings: u32 }
//! impl World<Ev> for Counter {
//!     fn handle(&mut self, engine: &mut Engine<Ev>, now: Time, ev: Ev) {
//!         let Ev::Ping(n) = ev;
//!         self.pings += 1;
//!         if n > 0 {
//!             engine.schedule_in(Duration::from_millis(1), Ev::Ping(n - 1));
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new();
//! engine.schedule(Time::ZERO, Ev::Ping(3));
//! let mut world = Counter { pings: 0 };
//! engine.run(&mut world);
//! assert_eq!(world.pings, 4);
//! assert_eq!(engine.now(), Time::from_millis(3));
//! ```

pub mod engine;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{Engine, LaneId, Slot, World};
pub use rng::SimRng;
pub use stats::{Cdf, Summary};
pub use time::{Duration, Time};
