//! Output correctness: checkable outcomes of simulation runs and the
//! recorded references they are compared against.
//!
//! Integer outcomes (completed flows, coflows, stranded counts, controller
//! counters) must match exactly; float outcomes (slowdown quantiles,
//! completion times) must match to [`FLOAT_REL_TOL`] relative.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Relative tolerance for float outcomes.
pub const FLOAT_REL_TOL: f64 = 1e-9;

/// The checkable summary of one simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// Exact-match integers, by name.
    pub ints: Vec<(String, u64)>,
    /// Tolerance-match floats, by name.
    pub floats: Vec<(String, f64)>,
}

impl Outcome {
    /// Append an integer outcome.
    pub fn int(&mut self, name: &str, v: u64) {
        self.ints.push((name.to_string(), v));
    }

    /// Append a float outcome.
    pub fn float(&mut self, name: &str, v: f64) {
        self.floats.push((name.to_string(), v));
    }

    /// Compare against `expected`; the error names the first mismatch.
    pub fn check(&self, expected: &Outcome) -> Result<(), String> {
        let names = |o: &Outcome| -> Vec<String> {
            let mut v: Vec<String> = o.ints.iter().map(|(n, _)| n.clone()).collect();
            v.extend(o.floats.iter().map(|(n, _)| n.clone()));
            v
        };
        if names(self) != names(expected) {
            return Err(format!(
                "outcome fields differ: {:?} vs expected {:?}",
                names(self),
                names(expected)
            ));
        }
        for ((name, a), (_, e)) in self.ints.iter().zip(&expected.ints) {
            if a != e {
                return Err(format!("{name} = {a}, expected {e}"));
            }
        }
        for ((name, a), (_, e)) in self.floats.iter().zip(&expected.floats) {
            let scale = a.abs().max(e.abs());
            if (a - e).abs() > FLOAT_REL_TOL * scale || a.is_nan() != e.is_nan() {
                return Err(format!("{name} = {a:?}, expected {e:?}"));
            }
        }
        Ok(())
    }
}

/// One simulation run's outcome plus the invariants it must satisfy on
/// any seed.
#[derive(Clone, Debug)]
pub struct Checked {
    /// Stable run label within the fixed run, e.g. `trial1/ft-fail`.
    pub label: String,
    /// The checkable outcome.
    pub outcome: Outcome,
    /// `Err` names a violated seed-independent invariant.
    pub invariant: Result<(), String>,
}

/// Recorded outcomes of a fixed run, by run label.
pub type Reference = BTreeMap<String, Outcome>;

/// Render `runs` as a reference file. `header` lines become `#` comments.
pub fn render_reference(header: &[String], runs: &[Checked]) -> String {
    let mut s = String::new();
    for h in header {
        let _ = writeln!(s, "# {h}");
    }
    for r in runs {
        for (n, v) in &r.outcome.ints {
            let _ = writeln!(s, "{} {n} int {v}", r.label);
        }
        for (n, v) in &r.outcome.floats {
            let _ = writeln!(s, "{} {n} float {v:?}", r.label);
        }
    }
    s
}

/// Write a reference file that does not exist yet. An existing reference
/// is never replaced: a re-record would turn the check into a comparison
/// of the program with itself, so it must be removed by hand first.
pub fn write_new_reference(path: &std::path::Path, text: &str) -> Result<(), String> {
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(path)
        .map_err(|e| match e.kind() {
            std::io::ErrorKind::AlreadyExists => format!(
                "{} exists; remove it first to re-record it",
                path.display()
            ),
            _ => format!("cannot create {}: {e}", path.display()),
        })?;
    file.write_all(text.as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Parse a reference file written by [`render_reference`].
pub fn parse_reference(text: &str) -> Result<Reference, String> {
    let mut refs = Reference::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("reference line {}: {line:?}", i + 1);
        let f: Vec<&str> = line.split_whitespace().collect();
        let [label, name, kind, value] = f.as_slice() else {
            return Err(bad());
        };
        let o = refs.entry((*label).to_string()).or_default();
        match *kind {
            "int" => o.int(name, value.parse().map_err(|_| bad())?),
            "float" => o.float(name, value.parse().map_err(|_| bad())?),
            _ => return Err(bad()),
        }
    }
    Ok(refs)
}

/// Check one run against the reference (or, without one, against the
/// first repetition's outcome) and against its invariants.
pub fn verdict(run: &Checked, expected: Option<&Outcome>) -> Result<(), String> {
    run.invariant.clone()?;
    match expected {
        Some(e) => run.outcome.check(e),
        None => Err(format!("no reference outcome for run {}", run.label)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checked {
        let mut o = Outcome::default();
        o.int("completed_flows", 1234);
        o.float("slowdown_p99", 12.345_678_901_234);
        Checked {
            label: "trial0/ft-fail".into(),
            outcome: o,
            invariant: Ok(()),
        }
    }

    #[test]
    fn reference_round_trips_exactly() {
        let run = sample();
        let text = render_reference(&["seed 42".into()], std::slice::from_ref(&run));
        let refs = parse_reference(&text).expect("parses");
        assert_eq!(refs["trial0/ft-fail"], run.outcome);
        assert!(verdict(&run, refs.get("trial0/ft-fail")).is_ok());
    }

    #[test]
    fn perturbed_outcomes_fail() {
        let run = sample();
        let mut int_off = run.clone();
        int_off.outcome.ints[0].1 += 1;
        assert!(verdict(&int_off, Some(&run.outcome)).is_err());

        let mut float_off = run.clone();
        float_off.outcome.floats[0].1 *= 1.0 + 1e-8;
        assert!(verdict(&float_off, Some(&run.outcome)).is_err());

        // Within tolerance: float noise far below 1e-9 relative passes.
        let mut float_close = run.clone();
        float_close.outcome.floats[0].1 *= 1.0 + 1e-12;
        assert!(verdict(&float_close, Some(&run.outcome)).is_ok());

        let mut broken = run.clone();
        broken.invariant = Err("baseline left flows unfinished".into());
        assert!(verdict(&broken, Some(&run.outcome)).is_err());

        assert!(
            verdict(&run, None).is_err(),
            "a missing reference is a failure"
        );
    }
}
