//! Regenerates Table III: the main comparison — ST-HSL vs all 15 baselines
//! on both cities, MAE and masked MAPE per crime category, averaged over all
//! test days.

#![expect(
    clippy::disallowed_types,
    reason = "R5: reports wall-clock fit time per model; outside the kernel crates"
)]

use sthsl_baselines::all_baselines;
use sthsl_bench::{evaluate_model, parse_args, write_csv, MarkdownTable, TimingManifest};
use sthsl_core::StHsl;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args();
    let mut man = TimingManifest::for_args("exp_table3", &args)?;
    for &city in &args.cities {
        let (_, data) = args.scale.build_dataset(city, args.seed)?;
        man.section(&format!("{}_build_dataset", city.name()));
        let cats = data.category_names.clone();
        println!(
            "\n== Table III ({}, scale {:?}): {} regions, {} days, window {} ==\n",
            city.name(),
            args.scale,
            data.num_regions(),
            data.num_days(),
            data.config.window
        );
        let mut header: Vec<String> = vec!["Model".into()];
        for cat in &cats {
            header.push(format!("{cat} MAE"));
            header.push(format!("{cat} MAPE"));
        }
        let header_refs: Vec<&str> = header.iter().map(std::string::String::as_str).collect();
        let mut table = MarkdownTable::new(&header_refs);

        let mut models = all_baselines(&args.scale.baseline_config(args.seed), &data)?;
        models.push(Box::new(StHsl::new(args.scale.sthsl_config(args.seed), &data)?));

        for model in &mut models {
            let t0 = std::time::Instant::now();
            let run = evaluate_model(model.as_mut(), &data)?;
            let mut row = vec![run.name.clone()];
            for ci in 0..cats.len() {
                row.push(format!("{:.4}", run.eval.mae(ci)));
                row.push(format!("{:.4}", run.eval.mape(ci)));
            }
            table.add_row(row);
            man.section(&format!("{}_{}", city.name(), run.name));
            eprintln!(
                "  {} done in {:.1}s (train {:.1}s)",
                run.name,
                t0.elapsed().as_secs_f64(),
                run.fit.train_seconds
            );
        }
        println!("{}", table.render());
        write_csv(&format!("table3_{}.csv", city.name().to_lowercase()), &table)?;
    }
    man.finish()?;
    Ok(())
}
