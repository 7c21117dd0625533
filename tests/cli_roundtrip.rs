//! The 6×6 CLI round trip, pinned bit for bit: `simulate → train --epochs 3
//! --threads 1 → predict` through `sthsl::cli::run` in a fresh directory,
//! then FNV-1a digests of the trained `model.bin` and of `forecast.csv`.
//! A kernel change that moves any f32 operation or its order changes one of
//! them; the oracle tests in `sthsl-tensor` and `parallel_equivalence`
//! usually name the kernel. A change meant to alter the bits re-pins both
//! from this test's failure message and names the reason.

use std::fs;
use std::path::PathBuf;

use sthsl::faults::fnv1a;

/// FNV-1a of the 3-epoch `model.bin` (SHA-256 prefix `bab37ccd`), since
/// dropout draws keyed masks.
const MODEL_FNV: u64 = 0xb9cd_41d7_8852_adcf;
/// FNV-1a of its `forecast.csv` (SHA-256 prefix `cb50ed09`).
const FORECAST_FNV: u64 = 0x7b71_b87b_6137_fbf4;

/// A directory of its own under the system temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let dir = std::env::temp_dir().join(format!("sthsl_cli_roundtrip_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.0).ok();
    }
}

/// `sthsl <args> --rows 6 --cols 6 --days 120`.
fn run(args: &[&str]) {
    let grid = ["--rows", "6", "--cols", "6", "--days", "120"];
    let argv: Vec<String> =
        ["sthsl"].iter().chain(args).chain(&grid).map(|s| (*s).to_string()).collect();
    sthsl::cli::run(&argv).unwrap_or_else(|e| panic!("{}: {e}", argv.join(" ")));
}

#[test]
fn six_by_six_simulate_train_predict_keeps_its_bits() {
    let dir = Scratch::new();
    let (csv, model, forecast) =
        (dir.path("crimes.csv"), dir.path("model.bin"), dir.path("forecast.csv"));
    run(&["simulate", "--out", &csv]);
    run(&["train", "--data", &csv, "--model", &model, "--epochs", "3", "--threads", "1"]);
    run(&["predict", "--data", &csv, "--model", &model, "--out", &forecast]);
    let digest = |path: &str| fnv1a(&fs::read(path).unwrap());
    let got = (digest(&model), digest(&forecast));
    assert_eq!(
        got,
        (MODEL_FNV, FORECAST_FNV),
        "6x6 CLI round trip drifted: model.bin fnv1a={:#018x}, forecast.csv fnv1a={:#018x}",
        got.0,
        got.1
    );
}
