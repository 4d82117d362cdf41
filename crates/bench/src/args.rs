//! Command-line flags of the harness binaries.
//!
//! A binary declares each flag by reading it, with its default in the same
//! call: `cli.k(16)`, `cli.trials(10)`, `cli.get("seed", 42)`,
//! `cli.choice("mode", &["node", "link"])` (the first choice is the
//! default), `cli.switch("json")`, `cli.path("trace-out")`. It then calls
//! [`Cli::finish`] before it simulates anything, and [`Cli::stamp`] names
//! in its output the values it ran with. `finish` exits with status
//! 2 and one line on stderr for a flag the binary did not read, a malformed
//! value or a stray argument, and answers `--help` (exit 0) with a usage
//! built from the same calls, so the listed defaults are the ones in use.
//! No external parser dependency: the flags are few and simple.

use std::fmt::Display;
use std::str::FromStr;

/// The command line of one harness binary, read flag by flag.
#[derive(Debug)]
pub struct Cli {
    bin: String,
    /// Each `--flag [value]` given, in command-line order.
    given: Vec<(String, Option<String>)>,
    /// The first argument that is neither a flag nor a flag's value.
    stray: Option<String>,
    /// The flags read so far, in reading order.
    declared: Vec<Flag>,
    /// The first malformed value met by a read.
    malformed: Option<String>,
}

/// One flag a binary reads, as `--help` lists it.
#[derive(Debug)]
struct Flag {
    name: &'static str,
    /// Value placeholder (`<u64>`, `node|link`), empty for a switch.
    arg: String,
    default: Option<String>,
}

/// Flags that never change a harness's rows, so [`Cli::stamp`] leaves
/// them out: worker threads and where the output goes.
const UNSTAMPED: [&str; 3] = ["jobs", "json", "trace-out"];

impl Cli {
    /// The process's own command line; the binary's name comes from
    /// `argv[0]`.
    pub fn from_env() -> Cli {
        let mut argv = std::env::args();
        let bin = argv
            .next()
            .as_deref()
            .map(std::path::Path::new)
            .and_then(std::path::Path::file_name)
            .map_or_else(
                || "harness".to_string(),
                |b| b.to_string_lossy().into_owned(),
            );
        Cli::new(&bin, argv)
    }

    /// A command line `argv` (without the program name) for binary `bin`.
    /// A token starting with `--` (or `-h`) is a flag; the token after it
    /// is its value unless it is itself a flag.
    pub fn new(bin: &str, argv: impl IntoIterator<Item = String>) -> Cli {
        let mut given: Vec<(String, Option<String>)> = Vec::new();
        let mut stray = None;
        for token in argv {
            if token == "-h" {
                given.push(("help".to_string(), None));
            } else if let Some(name) = token.strip_prefix("--") {
                given.push((name.to_string(), None));
            } else if let Some((_, value @ None)) = given.last_mut() {
                *value = Some(token);
            } else {
                stray.get_or_insert(token);
            }
        }
        Cli {
            bin: bin.to_string(),
            given,
            stray,
            declared: Vec::new(),
            malformed: None,
        }
    }

    /// `--<name> <value>`, parsed as `T`; `default` when absent.
    pub fn get<T: FromStr + Display>(&mut self, name: &'static str, default: T) -> T {
        let ty = std::any::type_name::<T>();
        self.value(
            name,
            default,
            &format!("<{ty}>"),
            &format!("a {ty}"),
            |_| true,
        )
    }

    /// `--k`, the fat-tree parameter: an even integer of at least 4.
    pub fn k(&mut self, default: usize) -> usize {
        self.value("k", default, "<even>", "an even integer >= 4", |&k| {
            k >= 4 && k.is_multiple_of(2)
        })
    }

    /// `--jobs`, worker threads for independent trials (default 1 = serial).
    /// Results are byte-identical at any value; see DESIGN.md on the
    /// determinism contract.
    pub fn jobs(&mut self) -> usize {
        self.value("jobs", 1, "<threads>", "an integer >= 1", |&j| j >= 1)
    }

    /// `--trials`, independent trials per configuration: an integer of at
    /// least 1.
    pub fn trials(&mut self, default: usize) -> usize {
        self.value("trials", default, "<usize>", "an integer >= 1", |&t| t >= 1)
    }

    /// Take back the read of `--<name>`, for a flag the mode chosen after
    /// it does not use: [`Cli::finish`] then rejects it like any flag the
    /// binary did not read, and `--help` leaves it out.
    pub fn unread(&mut self, name: &str) {
        self.declared.retain(|f| f.name != name);
    }

    /// `--<name> <choice>`, one of `choices`; the first when absent.
    ///
    /// # Panics
    /// Panics if `choices` is empty.
    pub fn choice(&mut self, name: &'static str, choices: &[&'static str]) -> &'static str {
        let default = choices[0];
        self.declare(name, choices.join("|"), Some(default.to_string()));
        let Some(raw) = self.raw(name) else {
            return default;
        };
        choices
            .iter()
            .copied()
            .find(|&c| c == raw)
            .unwrap_or_else(|| {
                self.malform(format!(
                    "--{name} wants {}, got {raw:?}",
                    choices.join(" or ")
                ));
                default
            })
    }

    /// `--<name>`, a flag without a value: whether it was given.
    pub fn switch(&mut self, name: &'static str) -> bool {
        self.declare(name, String::new(), None);
        match self.last(name) {
            None => false,
            Some(None) => true,
            Some(Some(value)) => {
                let problem = format!("--{name} takes no value, got {value:?}");
                self.malform(problem);
                true
            }
        }
    }

    /// `--<name> <path>`, an optional output path.
    pub fn path(&mut self, name: &'static str) -> Option<String> {
        self.declare(name, "<path>".to_string(), None);
        self.raw(name)
    }

    /// Check the command line against the flags read: on `--help` print the
    /// usage and exit 0; on an unread flag, a malformed value or a stray
    /// argument print one line to stderr and exit 2. Returns only if the
    /// binary should run.
    pub fn finish(&self) {
        match self.verdict() {
            Ok(()) => {}
            Err((0, usage)) => {
                print!("{usage}");
                std::process::exit(0);
            }
            Err((code, problem)) => {
                eprintln!("{problem}");
                std::process::exit(code);
            }
        }
    }

    /// One `args: --k 16 --seed 42 --trials 10 --mode both` line: every
    /// flag read that has a value, in reading order, with the value given or
    /// else the default. `--jobs`, `--json` and `--trace-out` never change
    /// the rows and are left out; `None` if no flag is left.
    pub fn stamp(&self) -> Option<String> {
        let flags: Vec<String> = self
            .declared
            .iter()
            .filter(|f| !UNSTAMPED.contains(&f.name))
            .filter_map(|f| {
                let value = self.last(f.name).flatten().or(f.default.as_deref())?;
                Some(format!("--{} {value}", f.name))
            })
            .collect();
        (!flags.is_empty()).then(|| format!("args: {}", flags.join(" ")))
    }

    /// What [`Cli::finish`] does: `Ok` to run, else the exit status and the
    /// text to print (the usage for status 0, the one-line problem for 2).
    fn verdict(&self) -> Result<(), (i32, String)> {
        if self.last("help").is_some() {
            return Err((0, self.usage()));
        }
        let unread = self
            .given
            .iter()
            .find(|(name, _)| !self.declared.iter().any(|f| f.name == name))
            .map(|(name, _)| format!("unknown flag --{name}"));
        let stray = self
            .stray
            .as_ref()
            .map(|s| format!("unexpected argument {s:?}"));
        match unread.or_else(|| self.malformed.clone()).or(stray) {
            None => Ok(()),
            Some(problem) => {
                let flags: Vec<String> = self
                    .declared
                    .iter()
                    .map(|f| format!("--{}", f.name))
                    .collect();
                Err((
                    2,
                    format!(
                        "{}: {problem}; flags: {} (--help lists defaults)",
                        self.bin,
                        flags.join(" ")
                    ),
                ))
            }
        }
    }

    /// The `--help` text: one line per flag read, with its default.
    fn usage(&self) -> String {
        let lines: Vec<(String, &Option<String>)> = self
            .declared
            .iter()
            .map(|f| {
                (
                    format!("--{} {}", f.name, f.arg).trim_end().to_string(),
                    &f.default,
                )
            })
            .collect();
        let width = lines.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        let mut out = format!("usage: {} [flags]\n", self.bin);
        for (line, default) in lines {
            match default {
                Some(d) => out.push_str(&format!("  {line:<width$}  default {d}\n")),
                None => out.push_str(&format!("  {line}\n")),
            }
        }
        out
    }

    fn value<T: FromStr + Display>(
        &mut self,
        name: &'static str,
        default: T,
        arg: &str,
        wants: &str,
        ok: impl Fn(&T) -> bool,
    ) -> T {
        self.declare(name, arg.to_string(), Some(default.to_string()));
        let Some(raw) = self.raw(name) else {
            return default;
        };
        match raw.parse::<T>() {
            Ok(v) if ok(&v) => v,
            _ => {
                self.malform(format!("--{name} wants {wants}, got {raw:?}"));
                default
            }
        }
    }

    fn declare(&mut self, name: &'static str, arg: String, default: Option<String>) {
        self.declared.push(Flag { name, arg, default });
    }

    /// The value of the last `--<name>` given, if any (repeating a flag
    /// overrides it). A flag given without a value is malformed.
    fn raw(&mut self, name: &str) -> Option<String> {
        match self.last(name) {
            None => None,
            Some(None) => {
                self.malform(format!("--{name} needs a value"));
                None
            }
            Some(Some(value)) => Some(value.to_string()),
        }
    }

    fn last(&self, name: &str) -> Option<Option<&str>> {
        self.given
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_deref())
    }

    fn malform(&mut self, problem: String) {
        self.malformed.get_or_insert(problem);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(argv: &[&str]) -> Cli {
        Cli::new("demo", argv.iter().map(|s| s.to_string()))
    }

    /// The flag set of a typical harness, read in its order.
    fn read(c: &mut Cli) -> (usize, u64, &'static str, usize, bool, Option<String>) {
        (
            c.k(16),
            c.get("seed", 42),
            c.choice("mode", &["both", "node", "link"]),
            c.jobs(),
            c.switch("json"),
            c.path("trace-out"),
        )
    }

    #[test]
    fn defaults_are_sane() {
        let mut c = cli(&[]);
        assert_eq!(read(&mut c), (16, 42, "both", 1, false, None));
        assert_eq!(c.verdict(), Ok(()));
    }

    #[test]
    fn given_values_override_defaults_and_the_last_repeat_wins() {
        let mut c = cli(&[
            "--k",
            "4",
            "--json",
            "--mode",
            "link",
            "--seed",
            "1",
            "--seed",
            "7",
            "--jobs",
            "2",
            "--trace-out",
            "t.json",
        ]);
        let got = read(&mut c);
        assert_eq!(got, (4, 7, "link", 2, true, Some("t.json".to_string())));
        assert_eq!(c.verdict(), Ok(()));
    }

    #[test]
    fn an_unread_flag_is_rejected_with_the_flag_list() {
        let mut c = cli(&["--n", "3"]);
        read(&mut c);
        let (code, line) = c.verdict().expect_err("rejected");
        assert_eq!(code, 2);
        assert_eq!(
            line,
            "demo: unknown flag --n; flags: --k --seed --mode --jobs --json --trace-out \
             (--help lists defaults)"
        );
    }

    #[test]
    fn malformed_values_are_rejected_not_panicked_on() {
        for (argv, problem) in [
            (
                &["--k", "abc"][..],
                "--k wants an even integer >= 4, got \"abc\"",
            ),
            (&["--k", "5"], "--k wants an even integer >= 4, got \"5\""),
            (&["--jobs", "0"], "--jobs wants an integer >= 1, got \"0\""),
            (
                &["--trials", "0"],
                "--trials wants an integer >= 1, got \"0\"",
            ),
            (&["--seed", "-1"], "--seed wants a u64, got \"-1\""),
            (
                &["--mode", "nodes"],
                "--mode wants both or node or link, got \"nodes\"",
            ),
            (&["--json", "yes"], "--json takes no value, got \"yes\""),
            (&["--trace-out"], "--trace-out needs a value"),
            (&["--k", "--json"], "--k needs a value"),
            (&["stray"], "unexpected argument \"stray\""),
        ] {
            let mut c = cli(argv);
            read(&mut c);
            c.trials(10);
            let (code, line) = c.verdict().expect_err("rejected");
            assert_eq!(code, 2, "{argv:?}");
            assert!(
                line.starts_with(&format!("demo: {problem}; flags: ")),
                "{argv:?}: {line}"
            );
        }
    }

    #[test]
    fn unread_takes_back_a_read_flag() {
        let parse = |argv: &[&str]| {
            let mut c = cli(argv);
            c.trials(3);
            if c.choice("mode", &["sweep", "demo"]) == "demo" {
                c.unread("trials");
            }
            c.verdict()
        };
        assert_eq!(parse(&["--mode", "sweep", "--trials", "2"]), Ok(()));
        assert_eq!(
            parse(&["--mode", "demo", "--trials", "2"]),
            Err((
                2,
                "demo: unknown flag --trials; flags: --mode (--help lists defaults)".to_string()
            ))
        );
        assert_eq!(
            parse(&["--help"]),
            Err((
                0,
                "usage: demo [flags]\n  --trials <usize>   default 3\n  --mode sweep|demo  default sweep\n"
                    .to_string()
            ))
        );
        assert_eq!(
            parse(&["--mode", "demo", "--help"]),
            Err((
                0,
                "usage: demo [flags]\n  --mode sweep|demo  default sweep\n".to_string()
            ))
        );
    }

    #[test]
    fn the_stamp_names_every_value_but_not_the_job_count() {
        let stamp = |argv: &[&str]| {
            let mut c = cli(argv);
            read(&mut c);
            c.trials(10);
            c.stamp()
        };
        let full = "args: --k 16 --seed 7 --mode both --trials 10";
        assert_eq!(
            stamp(&["--seed", "7", "--jobs", "1"]).as_deref(),
            Some(full)
        );
        assert_eq!(
            stamp(&[
                "--jobs",
                "2",
                "--seed",
                "7",
                "--json",
                "--trace-out",
                "t.json"
            ])
            .as_deref(),
            Some(full)
        );
        assert_eq!(
            stamp(&["--mode", "link", "--k", "4"]).as_deref(),
            Some("args: --k 4 --seed 42 --mode link --trials 10")
        );
        let mut bare = cli(&["--json"]);
        bare.jobs();
        bare.switch("json");
        assert_eq!(bare.stamp(), None);
    }

    #[test]
    fn help_lists_every_flag_read_with_its_default() {
        let mut c = cli(&["--help", "--bogus"]);
        read(&mut c);
        let (code, usage) = c.verdict().expect_err("help");
        assert_eq!(code, 0);
        assert_eq!(
            usage,
            "usage: demo [flags]
  --k <even>             default 16
  --seed <u64>           default 42
  --mode both|node|link  default both
  --jobs <threads>       default 1
  --json
  --trace-out <path>
"
        );
        let mut short = cli(&["-h"]);
        short.switch("json");
        assert_eq!(
            short.verdict(),
            Err((0, "usage: demo [flags]\n  --json\n".to_string()))
        );
    }
}
