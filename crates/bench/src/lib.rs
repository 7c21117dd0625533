//! # sthsl-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! ST-HSL paper's evaluation (see DESIGN.md §5 for the experiment index).
//!
//! One binary, `run_all`, drives a table of experiments:
//!
//! | Id | Paper artifact |
//! |---|---|
//! | `audit` | static graph audit of every model (runs first; an error stops the run) |
//! | `datasets` | Table II + Figures 1–2 (data statistics) |
//! | `table3` | Table III (main comparison, 16 models × 2 cities) |
//! | `table4` | Table IV (SSL ablations) |
//! | `fig4` | Figure 4 (per-region error maps) |
//! | `fig5` | Figure 5 (multi-view encoder ablations) |
//! | `fig6` | Figure 6 (robustness vs crime density) |
//! | `fig7` | Figure 7 (hyperparameter studies) |
//! | `fig8` | Figure 8 (hyperedge case study) |
//! | `table5` | Table V (per-epoch training cost) |
//! | `analysis` | Section III-F (hard-negative gradients) |
//!
//! It accepts `--scale quick|medium|paper`, `--city nyc|chi|both`,
//! `--seed N` and any subset of the ids (default: all, in the order above),
//! and rejects anything else. Each city's dataset is built once and each
//! (city, model config) an experiment reads is fitted once, so Table III's
//! fits also serve Tables IV–V and Figures 4–6 and 8. Results print as
//! paper-style rows and are written to `results/*.csv`.

mod driver;
mod experiments;
mod harness;
mod report;
mod scale;

pub use driver::run;
pub use scale::{City, Scale};
