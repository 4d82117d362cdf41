//! The [`Sink`] receiver trait and the cheaply cloneable [`Tracer`]
//! handle that instrumented code holds.
//!
//! Instrumentation sites call through a [`Tracer`]. A disabled tracer
//! ([`Tracer::off`], the default) carries no sink at all, so every
//! operation is a single `Option` discriminant check that the optimizer
//! folds away — hot loops can stay instrumented unconditionally.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use sharebackup_sim::Time;

use crate::buffer::MemSink;

/// Receiver for telemetry events. All timestamps are virtual [`Time`]
/// values from the simulation clock — never wall-clock readings, which
/// would break run-to-run determinism (DESIGN.md §7).
///
/// Spans nest per sink: `span_end` closes the most recently opened span,
/// exactly like the chrome-trace `B`/`E` event pairing the exporter emits.
pub trait Sink {
    /// Open a span named `name` (category `cat`) at virtual time `at`.
    fn span_begin(&mut self, at: Time, cat: &'static str, name: &str);
    /// Close the most recently opened span at virtual time `at`.
    fn span_end(&mut self, at: Time);
    /// Record a zero-duration instant event.
    fn instant(&mut self, at: Time, cat: &'static str, name: &str);
    /// Add `delta` to the monotonic counter `counter`.
    fn add(&mut self, counter: &'static str, delta: u64);
    /// Record `value` into the log-bucketed histogram `hist`.
    fn record(&mut self, hist: &'static str, value: u64);
}

/// Cloneable handle to an optional [`Sink`]. Clones share the same sink,
/// so one recording can be fed from several instrumented layers (engine,
/// flow simulator, controller) of the same trial.
///
/// `Tracer` deliberately holds an `Rc`, not an `Arc`: a trace buffer
/// belongs to exactly one trial, and parallel trial harnesses create one
/// tracer *inside* each worker and ship only the plain-data
/// [`crate::TraceBuffer`] across threads (DESIGN.md §7.1).
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Rc<RefCell<dyn Sink>>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Tracer {
    /// A disabled tracer: every operation is a no-op costing one branch.
    pub fn off() -> Tracer {
        Tracer { sink: None }
    }

    /// A tracer recording into a fresh in-memory buffer. Returns the
    /// tracer plus a handle to the sink; call [`MemSink::take`] on the
    /// handle after the instrumented run to extract the buffer.
    pub fn recording() -> (Tracer, Rc<RefCell<MemSink>>) {
        let sink = Rc::new(RefCell::new(MemSink::new()));
        (Tracer::from_sink(sink.clone()), sink)
    }

    /// A tracer feeding an arbitrary shared sink.
    pub fn from_sink(sink: Rc<RefCell<dyn Sink>>) -> Tracer {
        Tracer { sink: Some(sink) }
    }

    /// Whether events are being recorded. Instrumentation that must do
    /// work *before* emitting (formatting a name, gathering stats) should
    /// guard on this; plain emit calls need not bother.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Open a span at virtual time `at`.
    #[inline]
    pub fn span_begin(&self, at: Time, cat: &'static str, name: &str) {
        if let Some(s) = &self.sink {
            s.borrow_mut().span_begin(at, cat, name);
        }
    }

    /// Close the most recently opened span at virtual time `at`.
    #[inline]
    pub fn span_end(&self, at: Time) {
        if let Some(s) = &self.sink {
            s.borrow_mut().span_end(at);
        }
    }

    /// Record a complete span `[from, to]` in one call.
    #[inline]
    pub fn span(&self, from: Time, to: Time, cat: &'static str, name: &str) {
        if let Some(s) = &self.sink {
            let mut s = s.borrow_mut();
            s.span_begin(from, cat, name);
            s.span_end(to);
        }
    }

    /// Record a zero-duration instant event.
    #[inline]
    pub fn instant(&self, at: Time, cat: &'static str, name: &str) {
        if let Some(s) = &self.sink {
            s.borrow_mut().instant(at, cat, name);
        }
    }

    /// Add `delta` to the monotonic counter `counter`.
    #[inline]
    pub fn add(&self, counter: &'static str, delta: u64) {
        if let Some(s) = &self.sink {
            s.borrow_mut().add(counter, delta);
        }
    }

    /// Record `value` into the log-bucketed histogram `hist`.
    #[inline]
    pub fn record(&self, hist: &'static str, value: u64) {
        if let Some(s) = &self.sink {
            s.borrow_mut().record(hist, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_is_disabled_and_inert() {
        let t = Tracer::off();
        assert!(!t.is_enabled());
        // No sink: these must all be no-ops, not panics.
        t.span_begin(Time::ZERO, "x", "y");
        t.span_end(Time::from_secs(1));
        t.instant(Time::ZERO, "x", "y");
        t.add("c", 1);
        t.record("h", 42);
    }

    #[test]
    fn default_tracer_is_off() {
        assert!(!Tracer::default().is_enabled());
    }

    #[test]
    fn clones_share_the_same_sink() {
        let (t, sink) = Tracer::recording();
        let t2 = t.clone();
        t.add("c", 1);
        t2.add("c", 2);
        let buf = sink.borrow_mut().take();
        assert_eq!(buf.counters.get("c"), Some(&3));
    }

    #[test]
    fn recording_tracer_captures_span_tree() {
        let (t, sink) = Tracer::recording();
        assert!(t.is_enabled());
        t.span_begin(Time::ZERO, "cat", "outer");
        t.span(Time::from_millis(1), Time::from_millis(2), "cat", "inner");
        t.span_end(Time::from_millis(3));
        let buf = sink.borrow_mut().take();
        let spans = buf.spans();
        assert_eq!(spans.len(), 2);
        // spans() reports in begin order: outer first.
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[0].end.since(spans[0].begin), Time::from_millis(3).since(Time::ZERO));
    }
}
