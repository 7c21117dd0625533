//! Regenerates every table and figure into `results/`:
//! `run_all [--scale quick|medium|paper] [--city nyc|chi|both] [--seed N] [ID...]`
//! with experiment ids `audit datasets table3 table4 fig4 fig5 fig6 fig7
//! fig8 table5 analysis` (default: all, in that order).

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    match sthsl_bench::run(&argv, Path::new("results")) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
