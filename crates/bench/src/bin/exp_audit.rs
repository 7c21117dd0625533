//! Statically certifies the training graph of every model at the chosen
//! scale before any experiment spends compute on it: shape consistency,
//! gradient flow into every parameter, no dead compute and value ranges
//! (overflow and NaN poles), with the tape's total output bytes from the
//! cost model, per model. Fails (non-zero exit) if any graph carries an
//! error-level finding, so `run_all` stops before burning hours on a
//! miswired model.

use sthsl_baselines::all_auditable;
use sthsl_bench::{parse_args, write_csv, MarkdownTable, TimingManifest};
use sthsl_core::StHsl;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args();
    let mut man = TimingManifest::for_args("exp_audit", &args)?;
    let mut table = MarkdownTable::new(&["Model", "Nodes", "Params", "Tape KiB", "Errors"]);
    let mut failing: Vec<String> = Vec::new();
    // Graph structure depends only on dataset dimensions, which both cities
    // share at a given scale — one city certifies the fleet.
    let city = args.cities[0];
    let (_, data) = args.scale.build_dataset(city, args.seed)?;
    man.section("build_dataset");

    let sthsl = StHsl::new(args.scale.sthsl_config(args.seed), &data)?;
    let mut reports = vec![sthsl.graph_audit(&data)?];
    for model in all_auditable(&args.scale.baseline_config(args.seed), &data)? {
        reports.push(model.graph_audit(&data)?);
    }
    man.section("graph_audits");

    for report in &reports {
        let errors = report.errors().count();
        if errors > 0 {
            failing.push(report.model.clone());
            eprintln!("{}", report.render());
        }
        table.add_row(vec![
            report.model.clone(),
            report.node_count.to_string(),
            report.param_count.to_string(),
            format!("{:.1}", report.cost.as_ref().map_or(0, |c| c.total_out_bytes) as f64 / 1024.0),
            errors.to_string(),
        ]);
    }

    println!("\n== Graph audit (scale {:?}): {} model graphs ==\n", args.scale, reports.len());
    println!("{}", table.render());
    write_csv("graph_audit.csv", &table)?;
    // Close the manifest before the verdict so a failing audit still leaves
    // its timing evidence behind.
    man.finish()?;
    if failing.is_empty() {
        println!("all graphs certified clean");
        Ok(())
    } else {
        Err(format!("graph audit failed for: {}", failing.join(", ")).into())
    }
}
