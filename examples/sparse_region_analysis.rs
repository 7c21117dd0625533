//! Sparse-region robustness analysis (the paper's Fig. 6 workflow as a
//! library user would run it): bucket regions by crime-sequence density,
//! train ST-HSL with and without its self-supervision, and show the gap on
//! the sparsest regions — the situation the SSL machinery exists for.
//!
//! ```sh
//! cargo run --release --example sparse_region_analysis
//! ```

use sthsl::data::metrics::{density_bucket, density_degrees, DensityBucket};
use sthsl::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(8, 8, 240))?;
    let data = CrimeDataset::from_city(
        &city,
        DatasetConfig { window: 14, val_days: 10, train_fraction: 7.0 / 8.0 },
    )?;

    // Density-degree census (Fig. 1 for this simulated city).
    let dens = density_degrees(&data.tensor)?;
    println!("Region density-degree census:");
    for bucket in DensityBucket::all() {
        let n = dens.iter().filter(|&&d| density_bucket(d) == Some(bucket)).count();
        println!("  {:<14} {:>3} regions", bucket.label(), n);
    }

    // Train the full model and the no-SSL ablation.
    let mut full = StHsl::new(StHslConfig::quick(), &data)?;
    full.fit(&data)?;
    let mut no_ssl = StHsl::new(StHslConfig::quick().with_ablation(Ablation::NoGlobal), &data)?;
    no_ssl.fit(&data)?;

    // Per-region MAE on the test period, bucketed.
    let eval_regions = |model: &StHsl| -> Result<Vec<(f64, usize)>, Box<dyn std::error::Error>> {
        let mut acc = vec![(0.0f64, 0usize); 4];
        for day in data.target_days(Split::Test) {
            let s = data.sample(day)?;
            let pred = model.predict(&data, &s.input)?;
            for (ri, &density) in dens.iter().enumerate() {
                // All-zero regions carry no masked entries anyway; skip them.
                let Some(b) = density_bucket(density) else { continue };
                let bi = DensityBucket::all().iter().position(|x| *x == b).expect("bucket");
                for ci in 0..data.num_categories() {
                    let t = s.target.at(&[ri, ci]);
                    if t > 0.0 {
                        acc[bi].0 += f64::from((pred.at(&[ri, ci]) - t).abs());
                        acc[bi].1 += 1;
                    }
                }
            }
        }
        Ok(acc)
    };

    let full_acc = eval_regions(&full)?;
    let ablate_acc = eval_regions(&no_ssl)?;
    println!("\nMasked MAE by region density bucket:");
    println!("{:<14} {:>12} {:>12}", "Bucket", "ST-HSL", "w/o Global");
    for (i, bucket) in DensityBucket::all().iter().enumerate() {
        let f = if full_acc[i].1 > 0 { full_acc[i].0 / full_acc[i].1 as f64 } else { 0.0 };
        let a = if ablate_acc[i].1 > 0 { ablate_acc[i].0 / ablate_acc[i].1 as f64 } else { 0.0 };
        println!("{:<14} {:>12.4} {:>12.4}", bucket.label(), f, a);
    }
    println!(
        "\nExpected shape (paper Fig. 6): the full model's advantage is largest \
         in the sparsest buckets, where supervision signals are scarcest."
    );
    Ok(())
}
