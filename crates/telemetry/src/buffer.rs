//! In-memory recording: [`TraceEvent`], [`TraceBuffer`], and the
//! [`MemSink`] that accumulates one trial's telemetry.
//!
//! A `TraceBuffer` is plain owned data (`Send`), so parallel trial
//! harnesses record into per-worker sinks and ship the buffers back for
//! trial-ordered merging — the step that keeps `--jobs N` output
//! byte-identical (DESIGN.md §7.1).

use std::collections::BTreeMap;

use sharebackup_sim::Time;

use crate::hist::LogHistogram;
use crate::sink::Sink;

/// One recorded event, in emission order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A span opened at `at`.
    Begin {
        /// Virtual open time.
        at: Time,
        /// Category (fixed at the instrumentation site).
        cat: &'static str,
        /// Span name.
        name: String,
    },
    /// The most recently opened span closed at `at`.
    End {
        /// Virtual close time.
        at: Time,
    },
    /// A zero-duration ("instant") event at `at`. Named `Mark` (after
    /// `performance.mark`) so the identifier can't be confused with the
    /// wall-clock type the ambient-rng lint bans from this crate.
    Mark {
        /// Virtual time of the event.
        at: Time,
        /// Category (fixed at the instrumentation site).
        cat: &'static str,
        /// Event name.
        name: String,
    },
}

/// A completed span reconstructed from a buffer's `Begin`/`End` pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Category.
    pub cat: &'static str,
    /// Name.
    pub name: String,
    /// Open time.
    pub begin: Time,
    /// Close time.
    pub end: Time,
    /// Nesting depth at open (0 = top level).
    pub depth: usize,
}

/// One trial's worth of recorded telemetry: the event stream plus final
/// counter values and histograms. Plain data — `Send`, `Clone`, ordered
/// maps only, so every export of the same buffer is byte-identical.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceBuffer {
    /// Span/instant events in emission order.
    pub events: Vec<TraceEvent>,
    /// Final monotonic counter values.
    pub counters: BTreeMap<&'static str, u64>,
    /// Log-bucketed histograms by name.
    pub hists: BTreeMap<&'static str, LogHistogram>,
}

impl TraceBuffer {
    /// Reconstruct completed spans (in `Begin` order) by matching each
    /// `End` to the innermost open `Begin`. Unclosed spans are omitted.
    pub fn spans(&self) -> Vec<Span> {
        let mut out: Vec<Span> = Vec::new();
        // Stack of indices into `out` for spans still open.
        let mut open: Vec<usize> = Vec::new();
        for ev in &self.events {
            match ev {
                TraceEvent::Begin { at, cat, name } => {
                    open.push(out.len());
                    out.push(Span {
                        cat,
                        name: name.clone(),
                        begin: *at,
                        end: *at,
                        depth: open.len() - 1,
                    });
                }
                TraceEvent::End { at } => {
                    if let Some(i) = open.pop() {
                        out[i].end = *at;
                    }
                }
                TraceEvent::Mark { .. } => {}
            }
        }
        // Drop spans never closed.
        for &i in open.iter().rev() {
            out.remove(i);
        }
        out
    }

    /// Completed spans restricted to category `cat`, in `Begin` order.
    /// Depths are still measured against the full stream (a filtered span
    /// nested inside another category keeps its true depth).
    pub fn spans_in(&self, cat: &str) -> Vec<Span> {
        self.spans().into_iter().filter(|s| s.cat == cat).collect()
    }

    /// Instant ("mark") events restricted to category `cat`, as
    /// `(name, at)` pairs in emission order.
    pub fn marks_in(&self, cat: &str) -> Vec<(String, Time)> {
        self.events
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::Mark { at, cat: c, name } if *c == cat => Some((name.clone(), *at)),
                _ => None,
            })
            .collect()
    }

    /// The latest timestamp appearing in the event stream, or
    /// [`Time::ZERO`] if there are no events.
    pub fn last_event_time(&self) -> Time {
        self.events
            .iter()
            .map(|ev| match ev {
                TraceEvent::Begin { at, .. }
                | TraceEvent::End { at }
                | TraceEvent::Mark { at, .. } => *at,
            })
            .max()
            .unwrap_or(Time::ZERO)
    }
}

/// A [`Sink`] that records into a [`TraceBuffer`].
#[derive(Debug, Default)]
pub struct MemSink {
    buf: TraceBuffer,
    depth: usize,
}

impl MemSink {
    /// An empty sink.
    pub fn new() -> MemSink {
        MemSink::default()
    }

    /// Extract the recorded buffer, leaving the sink empty (and resetting
    /// span depth). Usable through the `Rc<RefCell<MemSink>>` handle even
    /// while instrumented structures still hold tracer clones.
    pub fn take(&mut self) -> TraceBuffer {
        self.depth = 0;
        std::mem::take(&mut self.buf)
    }

    /// Read-only view of the buffer recorded so far.
    pub fn buffer(&self) -> &TraceBuffer {
        &self.buf
    }
}

impl Sink for MemSink {
    fn span_begin(&mut self, at: Time, cat: &'static str, name: &str) {
        self.depth += 1;
        self.buf.events.push(TraceEvent::Begin {
            at,
            cat,
            name: name.to_string(),
        });
    }

    fn span_end(&mut self, at: Time) {
        // An unmatched end would corrupt every later pairing; drop it.
        if self.depth == 0 {
            return;
        }
        self.depth -= 1;
        self.buf.events.push(TraceEvent::End { at });
    }

    fn instant(&mut self, at: Time, cat: &'static str, name: &str) {
        self.buf.events.push(TraceEvent::Mark {
            at,
            cat,
            name: name.to_string(),
        });
    }

    fn add(&mut self, counter: &'static str, delta: u64) {
        *self.buf.counters.entry(counter).or_insert(0) += delta;
    }

    fn record(&mut self, hist: &'static str, value: u64) {
        self.buf.hists.entry(hist).or_default().record(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_match_ends_to_innermost_begin() {
        let mut s = MemSink::new();
        s.span_begin(Time::from_secs(1), "a", "outer");
        s.span_begin(Time::from_secs(2), "a", "inner");
        s.span_end(Time::from_secs(3));
        s.span_end(Time::from_secs(4));
        let spans = s.take().spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (
                spans[0].name.as_str(),
                spans[0].begin,
                spans[0].end,
                spans[0].depth
            ),
            ("outer", Time::from_secs(1), Time::from_secs(4), 0)
        );
        assert_eq!(
            (
                spans[1].name.as_str(),
                spans[1].begin,
                spans[1].end,
                spans[1].depth
            ),
            ("inner", Time::from_secs(2), Time::from_secs(3), 1)
        );
    }

    #[test]
    fn unmatched_end_is_dropped_and_unclosed_begin_omitted() {
        let mut s = MemSink::new();
        s.span_end(Time::from_secs(9)); // stray end: ignored
        s.span_begin(Time::from_secs(1), "a", "closed");
        s.span_end(Time::from_secs(2));
        s.span_begin(Time::from_secs(3), "a", "dangling");
        assert_eq!(s.depth, 1);
        let spans = s.take().spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "closed");
    }

    #[test]
    fn counters_accumulate_and_histograms_bucket() {
        let mut s = MemSink::new();
        s.add("x", 2);
        s.add("x", 3);
        s.record("h", 7);
        s.record("h", 9);
        let buf = s.take();
        assert_eq!(buf.counters.get("x"), Some(&5));
        let h = buf.hists.get("h").expect("recorded");
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(7));
        assert_eq!(h.max(), Some(9));
    }

    #[test]
    fn take_resets_the_sink() {
        let mut s = MemSink::new();
        s.add("x", 1);
        s.span_begin(Time::ZERO, "a", "open");
        let first = s.take();
        assert_eq!(first.events.len(), 1);
        assert_eq!(s.depth, 0);
        assert_eq!(s.take(), TraceBuffer::default());
    }

    #[test]
    fn category_filters_select_spans_and_marks() {
        let mut s = MemSink::new();
        s.span_begin(Time::from_secs(1), "failover", "election");
        s.instant(Time::from_secs(2), "failover", "control-retry");
        s.instant(Time::from_secs(2), "chaos", "flow-degraded");
        s.span_end(Time::from_secs(3));
        s.span_begin(Time::from_secs(4), "chaos", "burst");
        s.span_end(Time::from_secs(5));
        let buf = s.take();
        let f = buf.spans_in("failover");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].name, "election");
        assert_eq!(buf.spans_in("chaos").len(), 1);
        assert_eq!(
            buf.marks_in("failover"),
            vec![("control-retry".to_string(), Time::from_secs(2))]
        );
        assert!(buf.marks_in("nope").is_empty());
    }

    #[test]
    fn last_event_time_tracks_maximum() {
        let mut s = MemSink::new();
        assert_eq!(s.buffer().last_event_time(), Time::ZERO);
        s.instant(Time::from_secs(5), "a", "late");
        s.instant(Time::from_secs(2), "a", "early");
        assert_eq!(s.buffer().last_event_time(), Time::from_secs(5));
    }
}
