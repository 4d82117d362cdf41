//! The harnesses, one module per binary in `src/bin/`.
//!
//! A harness's `run` reads its flags from a [`Cli`], calls [`Cli::finish`],
//! builds its rows and returns an [`Output`]: the text its binary prints
//! (the `--json` rows, or the title, table and claims of [`report`]) and
//! the claims that text lists. Its binary prints `text` and nothing else;
//! the scorecard runs every harness in [`ALL`] at its defaults and lists
//! their claims, so each claim is computed by one piece of code.
//!
//! Writing to a `String` cannot fail, so the harnesses drop the
//! `fmt::Result` of their `write!`/`writeln!` calls.

use crate::report::{self, Check};
use crate::Cli;
use minijson::Value;

pub mod ablation_diagnosis;
pub mod ablation_nonuniform;
pub mod ablation_pool_size;
pub mod capacity;
pub mod chaos_availability;
pub mod fig1_affected;
pub mod fig1c_cct;
pub mod fig5_cost;
pub mod longrun_availability;
pub mod recovery_latency;
pub mod recovery_timeline;
pub mod scalability;
pub mod table2_cost;
pub mod table3_properties;
pub mod table_routing_size;

/// What one harness run prints, and the paper's claims it checked.
pub struct Output {
    /// The binary's whole stdout.
    pub text: String,
    /// The claims `text` lists, in its order; none with `--json`.
    pub claims: Vec<Check>,
}

impl Output {
    /// The `--json` output: `rows` as one pretty-printed array.
    pub fn json(rows: &[Value]) -> Output {
        Output {
            text: report::json(rows),
            claims: Vec::new(),
        }
    }

    /// `text`, then a blank line and `claims` in the scorecard's format.
    pub fn checked(mut text: String, claims: Vec<Check>) -> Output {
        text.push('\n');
        text.push_str(&report::claims(&claims));
        Output { text, claims }
    }
}

/// A harness's `run`: its command line in, what its binary prints out.
pub type Run = fn(&mut Cli) -> Output;

/// Every harness by binary name, in the paper's order (§2 to §5, then the
/// runs beyond it). The scorecard lists their claims in this order.
pub const ALL: [(&str, Run); 15] = [
    ("fig1_affected", fig1_affected::run),
    ("fig1c_cct", fig1c_cct::run),
    ("table2_cost", table2_cost::run),
    ("fig5_cost", fig5_cost::run),
    ("table3_properties", table3_properties::run),
    ("table_routing_size", table_routing_size::run),
    ("capacity", capacity::run),
    ("recovery_latency", recovery_latency::run),
    ("scalability", scalability::run),
    ("recovery_timeline", recovery_timeline::run),
    ("longrun_availability", longrun_availability::run),
    ("ablation_pool_size", ablation_pool_size::run),
    ("ablation_diagnosis", ablation_diagnosis::run),
    ("ablation_nonuniform", ablation_nonuniform::run),
    ("chaos_availability", chaos_availability::run),
];
