//! # netsession-bench
//!
//! The experiment harness: the `paper` driver, which renders every
//! table/figure of the paper, the chaos campaign and the ablations from
//! one table of simulated months (the [`paper`] table; see DESIGN.md's
//! per-experiment index), and the `perfbench` / `scale` performance
//! harnesses.
//!
//! `paper` accepts `--scale <peers>`, `--downloads <n>` and `--seed <s>`
//! to trade fidelity for runtime, and prints the same rows/series the
//! paper reports.

pub mod explain;
pub mod paper;
pub mod runner;
pub mod schema;
pub mod trend;
