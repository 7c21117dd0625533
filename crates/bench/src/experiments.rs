//! The experiment table: one entry per paper table or figure, each naming
//! the fits it reads and rendering its CSVs from them.

use std::path::Path;

use sthsl_autograd::Graph;
use sthsl_baselines::all_auditable;
use sthsl_core::contrastive::{contrastive_loss, hard_negative_weight};
use sthsl_core::{Ablation, StHsl, StHslConfig};
use sthsl_data::metrics::{density_bucket, density_degrees, DensityBucket};
use sthsl_data::synth::FUNCTION_NAMES;
use sthsl_data::CrimeDataset;
use sthsl_tensor::Tensor;

use crate::driver::{CityRuns, Context, DriverResult, Experiment, Need, Run};
use crate::report::{write_csv, MarkdownTable};
use crate::scale::{City, Scale};

/// Every experiment, in the order the driver runs them. `audit` is first, so
/// a miswired graph stops the run before any fit.
pub const EXPERIMENTS: [Experiment; 11] = [
    Experiment { id: "audit", needs: |_| Vec::new(), render: audit },
    Experiment { id: "datasets", needs: |_| Vec::new(), render: datasets },
    Experiment { id: "table3", needs: table3_needs, render: table3 },
    Experiment { id: "table4", needs: |cx| variant_needs(cx, &Ablation::TABLE4), render: table4 },
    Experiment { id: "fig4", needs: |cx| baseline_needs(cx, &FIG4_BASELINES), render: fig4 },
    Experiment { id: "fig5", needs: |cx| variant_needs(cx, &Ablation::FIG5), render: fig5 },
    Experiment { id: "fig6", needs: |cx| baseline_needs(cx, &FIG6_BASELINES), render: fig6 },
    Experiment {
        id: "fig7",
        needs: |cx| fig7_points(cx).into_iter().map(|(_, _, cfg)| Need::StHsl(cfg)).collect(),
        render: fig7,
    },
    Experiment { id: "fig8", needs: |cx| vec![Need::StHsl(cx.sthsl_config())], render: fig8 },
    Experiment { id: "table5", needs: table3_needs, render: table5 },
    Experiment { id: "analysis", needs: |_| Vec::new(), render: analysis },
];

/// Fig. 4's baselines; ST-HSL follows them.
const FIG4_BASELINES: [&str; 2] = ["GMAN", "STSHN"];
/// Fig. 6's baselines; ST-HSL follows them.
const FIG6_BASELINES: [&str; 4] = ["STGCN", "GMAN", "DeepCrime", "STSHN"];

fn csv_name(prefix: &str, city: City) -> String {
    format!("{prefix}_{}.csv", city.name().to_lowercase())
}

/// Print `table` under its file name, then write it as `out/name`.
fn show(out: &Path, name: &str, table: &MarkdownTable) -> std::io::Result<()> {
    println!("\n== {name} ==\n\n{}", table.render());
    write_csv(out, name, table)
}

/// Statically certifies the training graph of every model at the chosen
/// scale before any experiment spends compute on it: shape consistency,
/// gradient flow into every parameter, no dead compute and value ranges,
/// with the tape's total output bytes from the cost model. Fails if any
/// graph carries an error-level finding.
fn audit(cx: &Context, out: &Path) -> DriverResult<()> {
    // Graph structure depends only on dataset dimensions, which both cities
    // share at a given scale, so one city certifies the fleet.
    let data = &cx.cities[0].data;
    let mut reports = vec![StHsl::new(cx.sthsl_config(), data)?.graph_audit(data)?];
    for model in all_auditable(&cx.scale.baseline_config(cx.seed), data)? {
        reports.push(model.graph_audit(data)?);
    }
    let mut table = MarkdownTable::new(&["Model", "Nodes", "Params", "Tape KiB", "Errors"]);
    let mut failing: Vec<String> = Vec::new();
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
    show(out, "graph_audit.csv", &table)?;
    if failing.is_empty() {
        println!("all graphs certified clean");
        Ok(())
    } else {
        Err(format!("graph audit failed for: {}", failing.join(", ")).into())
    }
}

/// Table II (dataset statistics), Figure 1 (density-degree distribution) and
/// Figure 2 (skewed region-count distribution).
fn datasets(cx: &Context, out: &Path) -> DriverResult<()> {
    let mut t2 = MarkdownTable::new(&["City", "Regions", "Days", "Category", "Cases"]);
    let mut fig1 = MarkdownTable::new(&[
        "City",
        DensityBucket::VerySparse.label(),
        DensityBucket::Sparse.label(),
        DensityBucket::Dense.label(),
        DensityBucket::VeryDense.label(),
    ]);
    let mut fig2 = MarkdownTable::new(&["City", "Category", "RegionRank", "Cases"]);
    for CityRuns { city, synth, data, .. } in &cx.cities {
        for (ci, name) in synth.category_names.iter().enumerate() {
            t2.add_row(vec![
                city.name().into(),
                synth.num_regions().to_string(),
                synth.num_days().to_string(),
                name.clone(),
                format!("{:.0}", synth.total_cases(ci)),
            ]);
        }
        // Figure 1: histogram of region density degrees. All-zero regions
        // belong to no bucket (the intervals are half-open above zero) and
        // are left out of the histogram.
        let mut counts = [0usize; 4];
        for &d in &density_degrees(&data.tensor)? {
            let Some(b) = density_bucket(d) else { continue };
            counts[DensityBucket::all().iter().position(|x| *x == b).expect("bucket")] += 1;
        }
        let mut row = vec![city.name().to_string()];
        row.extend(counts.iter().map(ToString::to_string));
        fig1.add_row(row);
        // Figure 2: sorted per-region totals (power-law curve) per category.
        for (ci, name) in synth.category_names.iter().enumerate() {
            let mut totals = synth.region_totals(ci);
            totals.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
            for (rank, total) in totals.iter().enumerate() {
                fig2.add_row(vec![
                    city.name().into(),
                    name.clone(),
                    rank.to_string(),
                    format!("{total:.0}"),
                ]);
            }
        }
    }
    show(out, "table2_datasets.csv", &t2)?;
    show(out, "fig1_density.csv", &fig1)?;
    write_csv(out, "fig2_skew.csv", &fig2)?;
    Ok(())
}

fn table3_needs(cx: &Context) -> Vec<Need> {
    vec![Need::Baselines, Need::StHsl(cx.sthsl_config())]
}

/// Table III: the main comparison, ST-HSL against all 15 baselines, MAE and
/// masked MAPE per crime category over the test days.
fn table3(cx: &Context, out: &Path) -> DriverResult<()> {
    for runs in &cx.cities {
        let data = &runs.data;
        let mut header = vec!["Model".to_string()];
        for cat in &data.category_names {
            header.push(format!("{cat} MAE"));
            header.push(format!("{cat} MAPE"));
        }
        let mut table = MarkdownTable::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
        let (_, sthsl) = runs.sthsl(&cx.sthsl_config());
        for run in runs.baselines().chain([sthsl]) {
            let mut row = vec![run.name.clone()];
            for ci in 0..data.num_categories() {
                row.push(format!("{:.4}", run.eval.mae(ci)));
                row.push(format!("{:.4}", run.eval.mape(ci)));
            }
            table.add_row(row);
        }
        show(out, &csv_name("table3", runs.city), &table)?;
    }
    Ok(())
}

/// The labelled variants `rows`, then the full model. Two labels of one
/// variant ("w/o Local", "w/o ConL") name one config, so one fit.
fn variants(cx: &Context, rows: &[(&'static str, Ablation)]) -> Vec<(&'static str, StHslConfig)> {
    rows.iter()
        .chain([&("ST-HSL", Ablation::Full)])
        .map(|&(name, a)| (name, cx.sthsl_config().with_ablation(a)))
        .collect()
}

fn variant_needs(cx: &Context, rows: &[(&'static str, Ablation)]) -> Vec<Need> {
    variants(cx, rows).into_iter().map(|(_, cfg)| Need::StHsl(cfg)).collect()
}

/// Table IV: ablation of the hypergraph dual-stage self-supervised learning
/// paradigm against the full ST-HSL, MAE per category.
fn table4(cx: &Context, out: &Path) -> DriverResult<()> {
    for runs in &cx.cities {
        let cats = &runs.data.category_names;
        let mut header = vec!["Model".to_string()];
        header.extend(cats.iter().map(|c| format!("{c} MAE")));
        let mut table = MarkdownTable::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
        for (name, cfg) in variants(cx, &Ablation::TABLE4) {
            let (_, run) = runs.sthsl(&cfg);
            let mut row = vec![name.to_string()];
            row.extend((0..cats.len()).map(|ci| format!("{:.4}", run.eval.mae(ci))));
            table.add_row(row);
        }
        show(out, &csv_name("table4", runs.city), &table)?;
    }
    Ok(())
}

/// The named baselines' runs, then the default ST-HSL's.
fn baseline_rows<'a>(cx: &Context, runs: &'a CityRuns, names: &[&str]) -> Vec<&'a Run> {
    let mut rows: Vec<&Run> = names.iter().map(|name| runs.baseline(name)).collect();
    rows.push(runs.sthsl(&cx.sthsl_config()).1);
    rows
}

fn baseline_needs(cx: &Context, names: &[&'static str]) -> Vec<Need> {
    let mut needs: Vec<Need> = names.iter().map(|&name| Need::Baseline(name)).collect();
    needs.push(Need::StHsl(cx.sthsl_config()));
    needs
}

/// Figure 4: per-region prediction-error (MAPE) maps over the urban grid, one
/// CSV row per (model, region) with its grid coordinates.
fn fig4(cx: &Context, out: &Path) -> DriverResult<()> {
    for runs in &cx.cities {
        let cols = runs.data.cols;
        let mut table = MarkdownTable::new(&["Model", "Region", "Row", "Col", "MAPE", "MAE"]);
        let mut summary = MarkdownTable::new(&["Model", "Mean region MAPE", "Worst region MAPE"]);
        for run in baseline_rows(cx, runs, &FIG4_BASELINES) {
            let regions = &run.regions;
            let mut worst = 0.0f64;
            let mut sum = 0.0f64;
            for ri in 0..regions.num_regions() {
                let mape = regions.mape(ri);
                worst = worst.max(mape);
                sum += mape;
                table.add_row(vec![
                    run.name.clone(),
                    ri.to_string(),
                    (ri / cols).to_string(),
                    (ri % cols).to_string(),
                    format!("{mape:.4}"),
                    format!("{:.4}", regions.mae(ri)),
                ]);
            }
            summary.add_row(vec![
                run.name.clone(),
                format!("{:.4}", sum / regions.num_regions() as f64),
                format!("{worst:.4}"),
            ]);
        }
        write_csv(out, &csv_name("fig4_map", runs.city), &table)?;
        show(out, &csv_name("fig4_summary", runs.city), &summary)?;
    }
    Ok(())
}

/// Figure 5: ablation of the multi-view spatial-temporal convolution encoder
/// against the full ST-HSL, in MAE and MAPE.
fn fig5(cx: &Context, out: &Path) -> DriverResult<()> {
    for runs in &cx.cities {
        let mut table = MarkdownTable::new(&["Variant", "MAE", "MAPE"]);
        for (name, cfg) in variants(cx, &Ablation::FIG5) {
            let (_, run) = runs.sthsl(&cfg);
            table.add_row(vec![
                name.to_string(),
                format!("{:.4}", run.eval.mae_overall()),
                format!("{:.4}", run.eval.mape_overall()),
            ]);
        }
        show(out, &csv_name("fig5", runs.city), &table)?;
    }
    Ok(())
}

fn bucket_regions(data: &CrimeDataset, bucket: DensityBucket) -> DriverResult<Vec<usize>> {
    Ok(density_degrees(&data.tensor)?
        .iter()
        .enumerate()
        .filter(|(_, &d)| density_bucket(d) == Some(bucket))
        .map(|(i, _)| i)
        .collect())
}

/// Figure 6: robustness to data sparsity, MAE/MAPE over the regions whose
/// density degree falls in (0, 0.25] and in (0.25, 0.5].
fn fig6(cx: &Context, out: &Path) -> DriverResult<()> {
    for runs in &cx.cities {
        let sparse = bucket_regions(&runs.data, DensityBucket::VerySparse)?;
        let mid = bucket_regions(&runs.data, DensityBucket::Sparse)?;
        let mut table = MarkdownTable::new(&[
            "Model",
            "(0,0.25] MAE",
            "(0,0.25] MAPE",
            "(0.25,0.5] MAE",
            "(0.25,0.5] MAPE",
        ]);
        for run in baseline_rows(cx, runs, &FIG6_BASELINES) {
            let r = &run.regions;
            table.add_row(vec![
                run.name.clone(),
                format!("{:.4}", r.mae_of(&sparse)),
                format!("{:.4}", r.mape_of(&sparse)),
                format!("{:.4}", r.mae_of(&mid)),
                format!("{:.4}", r.mape_of(&mid)),
            ]);
        }
        show(out, &csv_name("fig6", runs.city), &table)?;
    }
    Ok(())
}

/// One Figure 7 sweep: the parameter's label, its values and its setter.
type Sweep = (&'static str, [usize; 4], fn(&mut StHslConfig, usize));

/// Figure 7's sweep points: embedding dimensionality d, hyperedge count H
/// (halved at quick scale, so the largest setting stays proportionate to the
/// smaller city), convolution kernel and batch size, one at a time from the
/// default config. Every point trains at most 8 epochs: the sweep only needs
/// each parameter's trend.
fn fig7_points(cx: &Context) -> Vec<(&'static str, usize, StHslConfig)> {
    let hyperedges = match cx.scale {
        Scale::Quick => [16, 32, 64, 128],
        _ => [32, 64, 128, 256],
    };
    let sweeps: [Sweep; 4] = [
        ("d", [4, 8, 16, 32], |cfg, v| cfg.d = v),
        ("hyperedges", hyperedges, |cfg, v| cfg.num_hyperedges = v),
        ("kernel", [3, 5, 7, 9], |cfg, v| cfg.kernel = v),
        ("batch", [4, 8, 16, 32], |cfg, v| cfg.batch_size = v),
    ];
    let mut points = Vec::new();
    for (param, values, set) in sweeps {
        for v in values {
            let mut cfg = cx.sthsl_config();
            cfg.epochs = cfg.epochs.min(8);
            set(&mut cfg, v);
            points.push((param, v, cfg));
        }
    }
    points
}

/// Figure 7: ST-HSL's hyperparameter sensitivity.
fn fig7(cx: &Context, out: &Path) -> DriverResult<()> {
    for runs in &cx.cities {
        let mut table = MarkdownTable::new(&["Parameter", "Value", "MAE", "MAPE"]);
        for (param, v, cfg) in fig7_points(cx) {
            let (_, run) = runs.sthsl(&cfg);
            table.add_row(vec![
                param.into(),
                v.to_string(),
                format!("{:.4}", run.eval.mae_overall()),
                format!("{:.4}", run.eval.mape_overall()),
            ]);
        }
        show(out, &csv_name("fig7", runs.city), &table)?;
    }
    Ok(())
}

/// Figure 8 (case study): the hyperedge ↔ region relevance ST-HSL learned.
/// For a sample of hyperedges it lists the top-3 regions with their crime
/// statistics, and checks them against the simulator's latent ground truth:
/// regions grouped under one hyperedge should share an urban function.
fn fig8(cx: &Context, out: &Path) -> DriverResult<()> {
    for runs in &cx.cities {
        let (model, _) = runs.sthsl(&cx.sthsl_config());
        let CityRuns { city, synth, data, .. } = runs;
        let mut table = MarkdownTable::new(&[
            "Hyperedge",
            "Rank",
            "Region",
            "Grid (row,col)",
            "Relevance",
            "Region function (simulator truth)",
            "Mean daily crimes",
        ]);
        // Sample 8 hyperedges, mirroring the paper's e22/e29/e53 selection.
        let num_h = model.config().num_hyperedges;
        let sample: Vec<usize> = (0..8).map(|i| (i * num_h / 8) % num_h).collect();
        let mut same_function_pairs = 0usize;
        let mut total_pairs = 0usize;
        for &h in &sample {
            let top = model.top_regions_for_hyperedge(h, 3)?;
            for (rank, (region, score)) in top.iter().enumerate() {
                let func = synth.region_function[*region];
                let mean_daily: f64 = synth.tensor.slice_axis(0, *region, 1)?.mean_all().into();
                table.add_row(vec![
                    format!("e{h}"),
                    (rank + 1).to_string(),
                    region.to_string(),
                    format!("({},{})", region / data.cols, region % data.cols),
                    format!("{score:.4}"),
                    FUNCTION_NAMES[func].into(),
                    format!("{:.3}", mean_daily * data.num_categories() as f64),
                ]);
            }
            // Ground-truth check: how often do the top-3 share a function?
            for i in 0..top.len() {
                for j in i + 1..top.len() {
                    total_pairs += 1;
                    if synth.region_function[top[i].0] == synth.region_function[top[j].0] {
                        same_function_pairs += 1;
                    }
                }
            }
        }
        show(out, &csv_name("fig8", *city), &table)?;
        let agree = same_function_pairs as f64 / total_pairs.max(1) as f64;
        // Chance level: probability two random regions share a function.
        let mut counts = vec![0usize; FUNCTION_NAMES.len()];
        for &f in &synth.region_function {
            counts[f] += 1;
        }
        let n = synth.region_function.len() as f64;
        let chance: f64 = counts.iter().map(|&c| (c as f64 / n).powi(2)).sum();
        println!(
            "Top-3 same-function agreement: {:.1}% (chance level {:.1}%)\n",
            agree * 100.0,
            chance * 100.0
        );
    }
    Ok(())
}

/// Table V's rows: each model's seconds per epoch, one column per city,
/// keyed by city (`-` where the city did not run), rows in first-seen order.
fn cost_table(costs: &[(City, String, f64)]) -> MarkdownTable {
    let columns = [City::Nyc, City::Chicago];
    let mut table = MarkdownTable::new(&["Model", "NYC s/epoch", "CHI s/epoch"]);
    let mut names: Vec<&str> = Vec::new();
    for (_, name, _) in costs {
        if !names.contains(&name.as_str()) {
            names.push(name);
        }
    }
    for name in names {
        let mut row = vec![name.to_string()];
        row.extend(columns.iter().map(|&col| {
            costs
                .iter()
                .find(|(city, n, _)| *city == col && n == name)
                .map_or("-".into(), |(_, _, s)| format!("{s:.3}"))
        }));
        table.add_row(row);
    }
    table
}

/// Table V: wall-clock seconds per training epoch for every model, read from
/// Table III's fits. Absolute numbers reflect the machine that runs the
/// driver, not the paper's GTX 1080 Ti; the relative ordering is the
/// comparable quantity.
fn table5(cx: &Context, out: &Path) -> DriverResult<()> {
    let mut costs = Vec::new();
    for runs in &cx.cities {
        let (_, sthsl) = runs.sthsl(&cx.sthsl_config());
        for run in runs.baselines().chain([sthsl]) {
            costs.push((runs.city, run.name.clone(), run.fit.seconds_per_epoch));
        }
    }
    show(out, "table5_cost.csv", &cost_table(&costs))?;
    Ok(())
}

/// Measured gradient norm on a negative with controlled similarity `s`.
fn measured_grad_norm(s: f32, tau: f32) -> DriverResult<f32> {
    let d = 8;
    // Anchor along e0; negative at angle acos(s); a far filler region.
    let mut rows = vec![0.0f32; 3 * d];
    rows[0] = 1.0; // anchor
    rows[d] = s;
    rows[d + 1] = (1.0 - s * s).max(0.0).sqrt(); // negative
    rows[2 * d + 2] = 1.0; // orthogonal filler
    let t = Tensor::from_vec(rows, &[3, 1, d])?;
    let g = Graph::new();
    let local = g.leaf(t.clone());
    let global = g.constant(t);
    let loss = contrastive_loss(&g, local, global, tau)?;
    let grads = g.backward(loss)?;
    let gl = grads.get(local).ok_or("no gradient reached the local view")?;
    Ok((0..d).map(|j| gl.at(&[1, 0, j]).powi(2)).sum::<f32>().sqrt())
}

/// The paper's in-depth analysis (Section III-F, Eqs. 11–12): the contrastive
/// gradient norm on a negative grows with its similarity `s` to the anchor as
/// `√(1−s²)·exp(s/τ)`, so hard negatives receive larger gradients. Prints the
/// curve next to norms measured through the autograd stack, and their
/// correlation. No dataset or seed: it sweeps a closed-form similarity grid.
fn analysis(_: &Context, out: &Path) -> DriverResult<()> {
    let tau = 0.5f32;
    let mut table =
        MarkdownTable::new(&["similarity s", "theory √(1−s²)·e^{s/τ}", "measured ‖∂L/∂neg‖"]);
    let mut theory = Vec::new();
    let mut measured = Vec::new();
    for i in 0..=18 {
        let s = -0.9 + i as f32 * 0.1;
        let w = hard_negative_weight(s, tau);
        let m = measured_grad_norm(s, tau)?;
        theory.push(f64::from(w));
        measured.push(f64::from(m));
        table.add_row(vec![format!("{s:+.1}"), format!("{w:.4}"), format!("{m:.6}")]);
    }
    show(out, "analysis_eq12.csv", &table)?;
    // Pearson correlation between theory and measurement.
    let n = theory.len() as f64;
    let (mt, mm) = (theory.iter().sum::<f64>() / n, measured.iter().sum::<f64>() / n);
    let cov: f64 = theory.iter().zip(&measured).map(|(a, b)| (a - mt) * (b - mm)).sum();
    let (vt, vm): (f64, f64) = (
        theory.iter().map(|a| (a - mt).powi(2)).sum(),
        measured.iter().map(|b| (b - mm).powi(2)).sum(),
    );
    let corr = cov / (vt.sqrt() * vm.sqrt()).max(1e-12);
    println!("Pearson correlation theory↔measured: {corr:.4}");
    println!("(The paper's claim holds when the correlation is strongly positive:");
    println!(" harder negatives — larger s — receive larger gradients, up to the s→1 collapse.)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_columns_are_keyed_by_city() {
        let costs = vec![
            (City::Chicago, "HA".to_string(), 0.25),
            (City::Chicago, "ST-HSL".to_string(), 3.5),
        ];
        assert_eq!(
            cost_table(&costs).to_csv(),
            "Model,NYC s/epoch,CHI s/epoch\nHA,-,0.250\nST-HSL,-,3.500\n"
        );
    }

    #[test]
    fn fig7_default_points_share_one_config() {
        let cx = Context { scale: Scale::Quick, seed: 7, cities: Vec::new() };
        let points = fig7_points(&cx);
        assert_eq!(points.len(), 16);
        let mut distinct: Vec<&StHslConfig> = Vec::new();
        for (_, _, cfg) in &points {
            if !distinct.contains(&cfg) {
                distinct.push(cfg);
            }
        }
        // d=16, H=64, kernel=3 and batch=4 are each the default point.
        assert_eq!(distinct.len(), 13);
    }

    /// Table IV and Fig. 5 label 11 rows (ten variants and ST-HSL), and
    /// "w/o Local" and "w/o ConL" are one variant, so they need 10 fits.
    #[test]
    fn table4_and_fig5_need_ten_fits_for_eleven_labels() {
        let cx = Context { scale: Scale::Quick, seed: 7, cities: Vec::new() };
        let mut labels: Vec<&str> = Vec::new();
        for (name, _) in
            variants(&cx, &Ablation::TABLE4).into_iter().chain(variants(&cx, &Ablation::FIG5))
        {
            if !labels.contains(&name) {
                labels.push(name);
            }
        }
        assert_eq!(labels.len(), 11);
        let mut fits: Vec<StHslConfig> = Vec::new();
        for exp in EXPERIMENTS.iter().filter(|e| ["table4", "fig5"].contains(&e.id)) {
            for need in (exp.needs)(&cx) {
                let Need::StHsl(cfg) = need else { panic!("{}: {need:?}", exp.id) };
                if !fits.contains(&cfg) {
                    fits.push(cfg);
                }
            }
        }
        assert_eq!(fits.len(), 10);
    }
}
