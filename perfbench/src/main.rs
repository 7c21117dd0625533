//! The ST-HSL benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train|serve-miss|serve-hit|all --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` a run measures the workload's end-to-end metrics; with
//! `--trace 1` it measures the per-layer metrics instead (see `trace.rs`).
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--workload all` runs the
//! three workloads one after another, each in its own process.
//! `--size tiny` shrinks every input for the benchmark's own tests.

mod calib;
mod report;
mod serve;
mod setup;
mod trace;
mod train;

use report::Report;
use setup::Size;

const WORKLOADS: [&str; 3] = ["train", "serve-miss", "serve-hit"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, size: Size::Quick };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--size" => {
                parsed.size = match value()?.as_str() {
                    "quick" => Size::Quick,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("--size takes quick or tiny, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(parsed)
}

fn provenance(args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "[{}] provenance seed={} git_commit={} available_cores={cores} pool_threads={} \
         load_generator_threads={} build_profile={profile} size={:?} trace={} \
         client=closed-loop,1-connection",
        args.workload,
        args.seed,
        report::git_commit(),
        sthsl_parallel::num_threads(),
        usize::from(args.trace || args.workload.starts_with("serve")),
        args.size,
        u8::from(args.trace),
    )
}

/// `--workload all`: each workload in a child process, so peak memory is
/// per workload; the children's output passes through.
fn run_all(raw: &[String]) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    let mut code = 0;
    for workload in WORKLOADS {
        // A later `--workload` overrides the earlier `all`.
        let status =
            std::process::Command::new(&exe).args(raw).args(["--workload", workload]).status();
        match status {
            Ok(status) if status.success() => {}
            Ok(status) => code = status.code().unwrap_or(1),
            Err(e) => {
                eprintln!("perfbench: {workload}: {e}");
                code = 2;
            }
        }
    }
    code
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        std::process::exit(run_all(&raw));
    }
    // The tensor pool is pinned to one thread; the serve workloads add the
    // client thread that generates the load.
    sthsl_parallel::set_num_threads(1);
    let report: Report = if args.trace {
        trace::run(args.size, args.seed)
    } else {
        match args.workload.as_str() {
            "train" => train::run(args.size, args.seed, args.seconds),
            "serve-miss" => serve::run(serve::Kind::Miss, args.size, args.seed, args.seconds),
            _ => serve::run(serve::Kind::Hit, args.size, args.seed, args.seconds),
        }
    };
    println!("{}", provenance(&args));
    print!("{}", report.summary(&args.workload));
    println!("{}", report.json_line());
}
