//! Trace-file output shared by the harness binaries' `--trace-out` flag.
//!
//! Two files per run: the chrome-trace JSON at the requested path (open it
//! in <https://ui.perfetto.dev>) and a deterministic text digest at
//! `<path>.digest` (greppable, byte-diffable in CI), which closes with the
//! per-span latency summary over all tracks. Buffers are passed in
//! trial order, so the output is byte-identical at any `--jobs` value.

use sharebackup_telemetry::{chrome_trace, text_digest, TraceBuffer};

/// Write the chrome-trace JSON to `path` and the text digest to
/// `<path>.digest`, then note both on stderr.
///
/// # Panics
/// Exits the process with an error message if either file cannot be
/// written.
pub fn write_trace_files(path: &str, buffers: &[(u64, &TraceBuffer)]) {
    let json = chrome_trace(buffers);
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write trace file {path}: {e}");
        std::process::exit(2);
    }
    let digest_path = format!("{path}.digest");
    let digest = text_digest(buffers);
    if let Err(e) = std::fs::write(&digest_path, &digest) {
        eprintln!("cannot write trace digest {digest_path}: {e}");
        std::process::exit(2);
    }
    eprintln!(
        "trace: {path} ({} bytes, load in ui.perfetto.dev) + {digest_path}",
        json.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharebackup_sim::Time;
    use sharebackup_telemetry::Tracer;

    #[test]
    fn writes_both_files() {
        let (tracer, sink) = Tracer::recording();
        tracer.span(
            Time::from_micros(1),
            Time::from_micros(5),
            "test",
            "span",
        );
        let buf = sink.borrow_mut().take();
        let dir = std::env::temp_dir().join("sharebackup-trace-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("out.json");
        let path = path.to_str().expect("utf-8 tmp path");
        write_trace_files(path, &[(0, &buf)]);
        let json = std::fs::read_to_string(path).expect("json written");
        assert!(json.contains("traceEvents"));
        let digest = std::fs::read_to_string(format!("{path}.digest")).expect("digest");
        assert!(digest.contains("== trace 0"));
    }
}
