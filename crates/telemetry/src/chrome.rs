//! Chrome-trace (Trace Event Format) export, loadable in `ui.perfetto.dev`
//! or `chrome://tracing`.
//!
//! Virtual nanoseconds map to trace microseconds (the format's native
//! unit), so a 1 ms virtual span renders as 1 ms. Buffers are emitted in
//! the order given — callers pass trial-ordered slices, which is what
//! keeps the file byte-identical across `--jobs N` (DESIGN.md §7.1).

use minijson::{json, Value};
use sharebackup_sim::Time;

use crate::buffer::{TraceBuffer, TraceEvent};

/// Trace-format timestamp (µs) for a virtual instant.
pub(crate) fn ts_us(at: Time) -> f64 {
    // Exact for all sim times below 2^53 ns (~104 virtual days); division
    // by 1000 is the ns→µs unit change the trace format expects.
    #[allow(clippy::cast_precision_loss)]
    let ns = at.as_nanos() as f64;
    ns / 1000.0
}

/// Render `buffers` — one `(track id, buffer)` pair per trial/case — as a
/// chrome-trace JSON document. Spans become `B`/`E` pairs, instants `i`
/// events, counters one `C` sample at the buffer's last event time, and
/// histograms one `C` sample per summary statistic. Each buffer gets its
/// own `tid` track, named via a `thread_name` metadata event.
pub fn chrome_trace(buffers: &[(u64, &TraceBuffer)]) -> String {
    let mut events: Vec<Value> = Vec::new();
    for &(tid, buf) in buffers {
        events.push(json!({
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "name": "thread_name",
            "args": { "name": format!("trial {tid}") },
        }));
        for ev in &buf.events {
            events.push(match ev {
                TraceEvent::Begin { at, cat, name } => json!({
                    "ph": "B",
                    "ts": ts_us(*at),
                    "pid": 0,
                    "tid": tid,
                    "cat": *cat,
                    "name": name.as_str(),
                }),
                TraceEvent::End { at } => json!({
                    "ph": "E",
                    "ts": ts_us(*at),
                    "pid": 0,
                    "tid": tid,
                }),
                TraceEvent::Mark { at, cat, name } => json!({
                    "ph": "i",
                    "ts": ts_us(*at),
                    "pid": 0,
                    "tid": tid,
                    "cat": *cat,
                    "name": name.as_str(),
                    "s": "t",
                }),
            });
        }
        let end = ts_us(buf.last_event_time());
        for (name, value) in &buf.counters {
            events.push(json!({
                "ph": "C",
                "ts": end,
                "pid": 0,
                "tid": tid,
                "cat": "counter",
                "name": *name,
                "args": { "value": *value },
            }));
        }
        for (name, h) in &buf.hists {
            events.push(json!({
                "ph": "C",
                "ts": end,
                "pid": 0,
                "tid": tid,
                "cat": "histogram",
                "name": *name,
                "args": {
                    "count": h.count(),
                    "min": h.min().unwrap_or(0),
                    "p50": h.quantile(0.50).unwrap_or(0),
                    "p90": h.quantile(0.90).unwrap_or(0),
                    "p99": h.quantile(0.99).unwrap_or(0),
                    "max": h.max().unwrap_or(0),
                },
            }));
        }
    }
    let doc = json!({
        "displayTimeUnit": "ms",
        "traceEvents": events,
    });
    #[expect(clippy::expect_used, reason = "minijson serialization never fails")]
    let mut s = minijson::to_string(&doc).expect("trace json is finite");
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{Sink, Tracer};

    fn sample_buffer() -> TraceBuffer {
        let (t, sink) = Tracer::recording();
        t.span_begin(Time::from_millis(1), "recovery", "recovery");
        t.span(Time::from_millis(1), Time::from_millis(2), "recovery", "detection");
        t.instant(Time::from_millis(3), "recovery", "restored");
        t.span_end(Time::from_millis(3));
        t.add("engine.events", 4);
        sink.borrow_mut().record("flowsim.solve.rounds", 3);
        let buf = sink.borrow_mut().take();
        buf
    }

    #[test]
    fn exports_well_formed_trace_events() {
        let buf = sample_buffer();
        let s = chrome_trace(&[(0, &buf)]);
        let doc = minijson::from_str(&s).expect("valid json");
        let events = doc["traceEvents"].as_array().expect("array");
        // metadata + 2 B + 2 E + 1 i + 1 counter C + 1 histogram C = 8
        assert_eq!(events.len(), 8);
        assert_eq!(events[0]["ph"], "M");
        assert_eq!(events[1]["ph"], "B");
        assert_eq!(events[1]["name"], "recovery");
        // 1 ms virtual → 1000 µs trace time.
        assert_eq!(events[1]["ts"], 1000.0);
        let counter = events
            .iter()
            .find(|e| e["ph"] == "C" && e["name"] == "engine.events")
            .expect("counter event");
        assert_eq!(counter["args"]["value"], 4);
    }

    #[test]
    fn output_is_deterministic_and_track_ordered() {
        let buf = sample_buffer();
        let a = chrome_trace(&[(0, &buf), (1, &buf)]);
        let b = chrome_trace(&[(0, &buf), (1, &buf)]);
        assert_eq!(a, b);
        // Track ids appear in the order given, not sorted by content.
        let doc = minijson::from_str(&a).expect("valid json");
        let events = doc["traceEvents"].as_array().expect("array");
        let first_tid = events[0]["tid"].as_i64().expect("tid");
        assert_eq!(first_tid, 0);
    }

    #[test]
    fn empty_input_still_yields_a_document() {
        let s = chrome_trace(&[]);
        let doc = minijson::from_str(&s).expect("valid json");
        assert_eq!(doc["traceEvents"].as_array().map(<[Value]>::len), Some(0));
    }
}
