//! # hotspot-bench
//!
//! The experiment harness: one binary per paper table/figure (under
//! `src/bin/exp_*`), the `perf_baseline`, `sweep_worker` and
//! `manifest_check` tools, and this shared library — CLI options, the
//! standard dataset preparation pipeline (simulate → filter → impute →
//! score), and TSV report printing.
//!
//! Every experiment binary prints a self-describing TSV block to
//! stdout so `EXPERIMENTS.md` can quote results verbatim. All
//! binaries accept `--sectors`, `--weeks`, `--seed`, `--trees`,
//! `--train-days`, `--t-step`, `--imputer {ffill|mean|ae}`, and
//! `--full` (paper-scale grid; expect hours of runtime on a laptop).
//! Observability flags ride along on every binary too: `--log-level`
//! tunes the stderr logger, `--metrics-out` streams JSONL log/metric
//! events, and `--manifest` writes the per-run JSON manifest (see
//! [`harness::Experiment`]).

pub mod experiments;
pub mod harness;
pub mod options;
pub mod prepare;
pub mod report;

pub use harness::Experiment;
pub use options::{ImputerChoice, RunOptions};
pub use prepare::{prepare, Prepared};
pub use report::{print_header, print_row, print_section};
