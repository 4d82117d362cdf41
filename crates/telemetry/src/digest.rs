//! Deterministic plain-text digest of trace buffers.
//!
//! A human-skimmable (and CI-diffable) rendering: per track, the
//! span/instant event stream with virtual timestamps and nesting
//! indentation, followed by sorted counter and histogram tables; then one
//! closing summary over all tracks, the per-phase duration table.
//! Byte-identical for identical buffers — the companion to the
//! chrome-trace exporter when a JSON viewer is overkill.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use sharebackup_sim::Summary;

use crate::buffer::{TraceBuffer, TraceEvent};
use crate::chrome::ts_us;

/// Render `buffers` — one `(track id, buffer)` pair per trial/case — as a
/// text digest. Track ids are emitted in the order given.
///
/// When any track holds a span or an instant, the digest ends with an
/// `== summary` section: a header line (`N span name(s) over M track(s)`,
/// plus a note on spans never closed), then one row per span name — count,
/// mean, p50, p90, p99 and max of its durations in microseconds, the chrome
/// trace's unit and arithmetic — and one row per instant name with its
/// count. Spans pair per track ([`TraceBuffer::spans`]); a track counts
/// once it holds a span or an instant.
pub fn text_digest(buffers: &[(u64, &TraceBuffer)]) -> String {
    let mut out = String::new();
    for &(tid, buf) in buffers {
        let _ = writeln!(out, "== trace {tid}");
        let mut depth = 0usize;
        for ev in &buf.events {
            match ev {
                TraceEvent::Begin { at, cat, name } => {
                    let _ = writeln!(out, "{:>14}  {}B {cat}/{name}", at.to_string(), "  ".repeat(depth));
                    depth += 1;
                }
                TraceEvent::End { at } => {
                    depth = depth.saturating_sub(1);
                    let _ = writeln!(out, "{:>14}  {}E", at.to_string(), "  ".repeat(depth));
                }
                TraceEvent::Mark { at, cat, name } => {
                    let _ = writeln!(out, "{:>14}  {}i {cat}/{name}", at.to_string(), "  ".repeat(depth));
                }
            }
        }
        if !buf.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, v) in &buf.counters {
                let _ = writeln!(out, "  {name} = {v}");
            }
        }
        if !buf.hists.is_empty() {
            let _ = writeln!(out, "histograms:");
            for (name, h) in &buf.hists {
                let _ = writeln!(out, "  {name}: {h}");
            }
        }
    }
    summary(&mut out, buffers);
    out
}

/// Append the `== summary` section [`text_digest`] describes.
fn summary(out: &mut String, buffers: &[(u64, &TraceBuffer)]) {
    let mut durations: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut instants: BTreeMap<&str, u64> = BTreeMap::new();
    let mut tracks: BTreeSet<u64> = BTreeSet::new();
    let mut unclosed = 0;
    for &(tid, buf) in buffers {
        let mut begins = 0;
        for ev in &buf.events {
            match ev {
                TraceEvent::Begin { .. } => begins += 1,
                TraceEvent::Mark { name, .. } => *instants.entry(name.as_str()).or_insert(0) += 1,
                TraceEvent::End { .. } => continue,
            }
            tracks.insert(tid);
        }
        let spans = buf.spans();
        unclosed += begins - spans.len();
        for s in spans {
            durations
                .entry(s.name)
                .or_default()
                .push(ts_us(s.end) - ts_us(s.begin));
        }
    }
    if tracks.is_empty() {
        return;
    }
    let _ = write!(
        out,
        "== summary\n{} span name(s) over {} track(s)",
        durations.len(),
        tracks.len()
    );
    if unclosed > 0 {
        let _ = write!(out, " ({unclosed} unclosed span(s) ignored)");
    }
    let _ = writeln!(
        out,
        "\n{:<28} {:>7} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "span (us)", "count", "mean", "p50", "p90", "p99", "max"
    );
    for (name, samples) in &durations {
        if let Some(s) = Summary::of(samples) {
            let _ = writeln!(
                out,
                "{name:<28} {:>7} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
                s.count, s.mean, s.p50, s.p90, s.p99, s.max
            );
        }
    }
    if !instants.is_empty() {
        let _ = writeln!(out, "\n{:<28} {:>7}", "instant", "count");
        for (name, n) in &instants {
            let _ = writeln!(out, "{name:<28} {n:>7}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Tracer;
    use sharebackup_sim::Time;

    #[test]
    fn digest_shows_nesting_counters_and_histograms() {
        let (t, sink) = Tracer::recording();
        t.span_begin(Time::from_millis(30), "recovery", "recovery");
        t.span(Time::from_millis(30), Time::from_millis(31), "recovery", "detection");
        t.span_end(Time::from_millis(31));
        t.add("engine.events", 7);
        t.record("flowsim.solve.rounds", 2);
        let buf = sink.borrow_mut().take();
        let d = text_digest(&[(3, &buf)]);
        assert!(d.starts_with("== trace 3\n"), "{d}");
        assert!(d.contains("B recovery/recovery"), "{d}");
        // The nested span is indented one level deeper.
        assert!(d.contains("  B recovery/detection"), "{d}");
        assert!(d.contains("engine.events = 7"), "{d}");
        assert!(d.contains("flowsim.solve.rounds: count=1"), "{d}");
    }

    #[test]
    fn digest_is_deterministic() {
        let (t, sink) = Tracer::recording();
        t.instant(Time::from_secs(1), "a", "x");
        t.add("z", 1);
        t.add("a", 1);
        let buf = sink.borrow_mut().take();
        let a = text_digest(&[(0, &buf)]);
        let b = text_digest(&[(0, &buf)]);
        assert_eq!(a, b);
        // Counters print in sorted (BTreeMap) order.
        let ia = a.find("  a = 1").expect("counter a");
        let iz = a.find("  z = 1").expect("counter z");
        assert!(ia < iz);
    }

    /// The `== summary` section of `digest`, if any.
    fn summary_of(digest: &str) -> Option<&str> {
        digest.find("== summary\n").map(|i| &digest[i..])
    }

    #[test]
    fn summary_pairs_spans_per_track_with_per_name_stats() {
        let (t, sink) = Tracer::recording();
        t.span_begin(Time::from_millis(1), "recovery", "recovery");
        t.span(Time::from_millis(1), Time::from_millis(2), "recovery", "detection");
        t.instant(Time::from_millis(3), "recovery", "restored");
        t.span_end(Time::from_millis(3));
        let first = sink.borrow_mut().take();
        // The second track's span overlaps the first track's in time; each
        // still pairs within its own track.
        t.span_begin(Time::ZERO, "recovery", "detection");
        t.instant(Time::from_millis(1), "recovery", "restored");
        t.instant(Time::from_millis(2), "engine", "epoch");
        t.span_end(Time::from_millis(4));
        let second = sink.borrow_mut().take();
        let d = text_digest(&[(0, &first), (1, &second)]);
        assert_eq!(
            summary_of(&d),
            Some(
                "== summary
2 span name(s) over 2 track(s)
span (us)                      count         mean          p50          p90          p99          max
detection                          2     2500.000     2500.000     3700.000     3970.000     4000.000
recovery                           1     2000.000     2000.000     2000.000     2000.000     2000.000

instant                        count
epoch                              1
restored                           2
"
            ),
            "{d}"
        );
        // The summary closes the digest, after every track's section.
        assert!(d.find("== trace 1").expect("track 1") < d.find("== summary").expect("summary"));
    }

    #[test]
    fn summary_counts_tracks_by_their_spans_and_instants() {
        let (t, sink) = Tracer::recording();
        t.instant(Time::from_micros(5), "chaos", "burst");
        let marks_only = sink.borrow_mut().take();
        t.add("engine.events", 3);
        let counters_only = sink.borrow_mut().take();
        let d = text_digest(&[(0, &marks_only), (1, &counters_only), (0, &marks_only)]);
        assert_eq!(
            summary_of(&d),
            Some(
                "== summary
0 span name(s) over 1 track(s)
span (us)                      count         mean          p50          p90          p99          max

instant                        count
burst                              2
"
            ),
            "{d}"
        );
        // Counters alone make no summary.
        assert_eq!(summary_of(&text_digest(&[(1, &counters_only)])), None);
    }

    #[test]
    fn summary_notes_unclosed_spans_and_ignores_them() {
        let (t, sink) = Tracer::recording();
        t.span(Time::ZERO, Time::from_nanos(1), "a", "closed");
        t.span_begin(Time::from_secs(1), "a", "dangling");
        let buf = sink.borrow_mut().take();
        let d = text_digest(&[(7, &buf)]);
        let summary = summary_of(&d).expect("summary");
        assert!(
            summary.starts_with(
                "== summary\n1 span name(s) over 1 track(s) (1 unclosed span(s) ignored)\n"
            ),
            "{summary}"
        );
        // One nanosecond is 0.001 trace microseconds.
        assert!(
            summary.contains("\nclosed                             1        0.001"),
            "{summary}"
        );
        assert!(!summary.contains("dangling"), "{summary}");
    }

    #[test]
    fn empty_buffers_render_header_only() {
        let buf = TraceBuffer::default();
        assert_eq!(text_digest(&[(0, &buf)]), "== trace 0\n");
        assert_eq!(text_digest(&[]), "");
    }
}
