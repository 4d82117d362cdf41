//! The one place a harness's text output is rendered.
//!
//! A harness builds its rows once, as the [`Value`] objects `--json` prints.
//! The text output is read off the same rows: a title, the
//! [`Cli::stamp`] line, a [`table`] declared as [`Column`]s, then the
//! paper's claims as [`Check`]s computed from the rows.
//!
//! ```text
//! §4.3 — merged impersonation-table sizes (entries per switch)
//!  k  hosts  edge total
//!  8    128          20
//! 64  65536        1056
//!
//! [PASS] §4.3  1056 entries for k=64 (over 65k hosts), within commodity TCAM
//!             measured: 1056 entries, 65536 hosts
//! ```

use crate::Cli;
use minijson::Value;

/// How a [`Column`] renders its cell.
#[derive(Clone, Copy, Debug)]
pub enum Format {
    /// The string itself, left-aligned (any other value as JSON text).
    Text,
    /// An integer, right-aligned.
    Int,
    /// A number with this many decimals, then a suffix (`""`, `"%"`, `"x"`,
    /// `" ms"`), right-aligned.
    Fixed(usize, &'static str),
}

/// One table column: its header, where its value sits in the row, and how
/// the value is printed. Its width is the widest of its header and cells.
#[derive(Clone, Copy, Debug)]
pub struct Column {
    header: &'static str,
    path: &'static str,
    format: Format,
}

impl Column {
    /// The column headed `header` showing the row's member at `path`: a key,
    /// or keys and array indices joined by dots (`slowdown_quantiles.3.1`).
    pub const fn new(header: &'static str, path: &'static str, format: Format) -> Column {
        Column {
            header,
            path,
            format,
        }
    }

    fn cell(&self, row: &Value) -> String {
        let v = at(row, self.path);
        match self.format {
            Format::Text => v.as_str().map_or_else(|| v.to_string(), str::to_string),
            Format::Int => v
                .as_i64()
                .unwrap_or_else(|| panic!("column {:?} holds {v}, not an integer", self.path))
                .to_string(),
            Format::Fixed(decimals, suffix) => {
                format!("{:.decimals$}{suffix}", num(row, self.path))
            }
        }
    }
}

/// The member of `row` at `path` (see [`Column::new`]).
///
/// # Panics
/// Panics if the row has no such member: a harness asked for a value it
/// did not build.
fn at<'a>(row: &'a Value, path: &str) -> &'a Value {
    path.split('.').fold(row, |v, step| {
        let next = match step.parse::<usize>() {
            Ok(i) => v.as_array().and_then(|items| items.get(i)),
            Err(_) => v.get(step),
        };
        next.unwrap_or_else(|| panic!("row has no {path:?}: {row}"))
    })
}

/// The number at `path` in `row`.
///
/// # Panics
/// Panics if the member is missing or not a number.
pub fn num(row: &Value, path: &str) -> f64 {
    let v = at(row, path);
    v.as_f64()
        .unwrap_or_else(|| panic!("{path:?} holds {v}, not a number"))
}

/// The first row whose `key` member equals `value`.
///
/// # Panics
/// Panics if no row matches.
pub fn row<'a>(rows: &'a [Value], key: &str, value: impl Into<Value>) -> &'a Value {
    let value = value.into();
    rows.iter()
        .find(|r| r.get(key) == Some(&value))
        .unwrap_or_else(|| panic!("no row with {key} = {value}"))
}

/// Whether `measured` matches a figure the paper gives as `~paper`: within
/// 10% of it. Every `~` claim reads the same way.
pub fn approx(measured: f64, paper: f64) -> bool {
    (measured - paper).abs() <= 0.1 * paper.abs()
}

/// `rows` as a text table: a header line, then one line per row. Text
/// columns are left-aligned and number columns right-aligned; columns are
/// two spaces apart and lines carry no trailing space.
pub fn table(columns: &[Column], rows: &[Value]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| columns.iter().map(|c| c.cell(r)).collect())
        .collect();
    let headers: Vec<String> = columns.iter().map(|c| c.header.to_string()).collect();
    let widths: Vec<usize> = (0..columns.len())
        .map(|i| {
            cells
                .iter()
                .chain([&headers])
                .map(|line| line[i].chars().count())
                .max()
                .unwrap_or(0)
        })
        .collect();
    let mut out = String::new();
    for line in [&headers].into_iter().chain(&cells) {
        let padded: Vec<String> = line
            .iter()
            .zip(columns.iter().zip(&widths))
            .map(|(text, (c, &w))| match c.format {
                Format::Text => format!("{text:<w$}"),
                Format::Int | Format::Fixed(..) => format!("{text:>w$}"),
            })
            .collect();
        out.push_str(padded.join("  ").trim_end());
        out.push('\n');
    }
    out
}

/// One claim of the paper, checked against what a harness measured.
#[derive(Clone, Debug)]
pub struct Check {
    /// Where the paper makes it (`§5.1`, `Table 3`).
    pub section: &'static str,
    /// The claim, in the paper's numbers.
    pub claim: &'static str,
    /// What was measured, in the same terms.
    pub measured: String,
    /// Whether the measurement bears the claim out.
    pub pass: bool,
}

impl Check {
    /// The claim `claim` of `section`; `pass` says whether `measured` bears
    /// it out.
    pub fn new(section: &'static str, claim: &'static str, pass: bool, measured: String) -> Check {
        Check {
            section,
            claim,
            measured,
            pass,
        }
    }
}

/// The checks as text, two lines each: `[PASS] §x claim`, then the
/// measurement. A failing claim reads `[FAIL]`; none is left out.
pub fn claims(checks: &[Check]) -> String {
    checks
        .iter()
        .map(|c| {
            format!(
                "[{}] {:<5} {}\n            measured: {}\n",
                if c.pass { "PASS" } else { "FAIL" },
                c.section,
                c.claim,
                c.measured
            )
        })
        .collect()
}

/// A harness's first lines: the title, then the `args:` stamp when the
/// harness read a flag that shapes its rows.
pub fn header(title: &str, cli: &Cli) -> String {
    match cli.stamp() {
        Some(stamp) => format!("{title}\n{stamp}\n"),
        None => format!("{title}\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minijson::json;
    use Format::{Fixed, Int, Text};

    #[test]
    fn widths_come_from_the_header_and_the_cells() {
        let rows = [json!({"k": 8}), json!({"k": 123_456})];
        assert_eq!(
            table(&[Column::new("k", "k", Int)], &rows),
            "     k\n     8\n123456\n"
        );
        assert_eq!(
            table(&[Column::new("entries", "k", Int)], &rows[..1]),
            "entries\n      8\n"
        );
    }

    #[test]
    fn text_is_left_aligned_beside_right_aligned_numbers() {
        let rows = [
            json!({"system": "F10", "n": 3, "q": [[0.5, 1.0]]}),
            json!({"system": "ShareBackup", "n": 12, "q": [[0.5, 2.25]]}),
        ];
        let cols = [
            Column::new("system", "system", Text),
            Column::new("n", "n", Int),
            Column::new("p50", "q.0.1", Fixed(2, "")),
        ];
        assert_eq!(
            table(&cols, &rows),
            "system        n   p50\nF10           3  1.00\nShareBackup  12  2.25\n"
        );
    }

    #[test]
    fn a_suffix_follows_the_decimals() {
        let rows = [json!({"r": 4.166_666, "t": 1250.07, "s": 15.0})];
        let cols = [
            Column::new("ratio", "r", Fixed(2, "%")),
            Column::new("total", "t", Fixed(0, " us")),
            Column::new("slowdown", "s", Fixed(1, "x")),
        ];
        assert_eq!(
            table(&cols, &rows),
            "ratio    total  slowdown\n4.17%  1250 us     15.0x\n"
        );
    }

    #[test]
    fn claims_print_pass_and_fail_in_the_scorecard_format() {
        let checks = [
            Check::new("§5.1", "4.17% backup ratio", true, "4.17%".to_string()),
            Check::new(
                "Fig. 1",
                "F10's tail is worse",
                false,
                "p99.9 1x vs 2x".to_string(),
            ),
        ];
        assert_eq!(
            claims(&checks),
            "[PASS] §5.1  4.17% backup ratio
            measured: 4.17%
[FAIL] Fig. 1 F10's tail is worse
            measured: p99.9 1x vs 2x
"
        );
    }

    #[test]
    fn rows_are_found_by_key_and_read_by_path() {
        let rows = [
            json!({"k": 8, "q": [1, 2.5]}),
            json!({"k": 48, "q": [3, 4.5]}),
        ];
        assert_eq!(num(row(&rows, "k", 48), "q.1"), 4.5);
        assert_eq!(at(&rows[0], "q.0"), &Value::from(1));
    }
}
