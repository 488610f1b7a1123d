//! `bench` — the experiment library behind every figure/theorem reproduction, and the
//! `klex` scenario CLI.
//!
//! Each experiment E1–E15 is a function in [`experiments`] returning a titled list of
//! [`analysis::ExperimentRow`]s; `klex experiment <e1..e15 | all>` runs them and prints each
//! markdown table (plus JSON lines when `--json` is passed).  [`runner`] and [`serve`] carry
//! `klex run` and the `klex serve` daemon, [`fuzz`] the cross-engine differential campaign.
//!
//! Scale knobs: every experiment accepts a [`Scale`] so the same code serves quick smoke runs
//! (`Scale::quick()`, used in tests and CI) and the fuller runs (`Scale::full()`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fuzz;
pub mod history;
pub mod runner;
pub mod serve;
pub mod support;

pub use support::Scale;

use analysis::ExperimentRow;

/// A titled experiment result, ready to render.
pub struct ExperimentReport {
    /// Experiment identifier and description (e.g. `"E2 — Figure 2: deadlock of the naive protocol"`).
    pub title: String,
    /// One row per scenario/parameter point.
    pub rows: Vec<ExperimentRow>,
}

impl ExperimentReport {
    /// Renders the report as a markdown table.
    pub fn to_markdown(&self) -> String {
        analysis::render_markdown_table(&self.title, &self.rows)
    }

    /// Renders the report as JSON lines.
    pub fn to_jsonl(&self) -> String {
        analysis::harness::render_jsonl(&self.rows)
    }
}
