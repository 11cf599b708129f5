//! # netsession-bench
//!
//! The experiment harness: the `paper` driver, which renders every
//! table/figure of the paper from one simulated month (the [`paper`]
//! table; see DESIGN.md's per-experiment index), ablation binaries, and
//! the `perfbench` / `scale` performance harnesses.
//!
//! `paper`, `chaos` and the `ablate_*` binaries accept `--scale <peers>`,
//! `--downloads <n>` and `--seed <s>` to trade fidelity for runtime, and
//! print the same rows/series the paper reports.

pub mod explain;
pub mod paper;
pub mod profile_lint;
pub mod runner;
pub mod trend;
pub mod ts_lint;

pub use runner::{run_default, ExperimentArgs};
