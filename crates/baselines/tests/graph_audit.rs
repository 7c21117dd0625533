//! Every neural baseline's training graph must statically certify: shapes
//! consistent, every parameter grad-reachable, no dead compute, every value
//! interval bounded and no structural defects. This is the fleet-wide
//! guarantee `--graph-audit` exposes on the CLI.

use sthsl_baselines::{all_auditable, BaselineConfig};
use sthsl_data::{CrimeDataset, DatasetConfig, SynthCity, SynthConfig};

fn tiny_dataset() -> CrimeDataset {
    let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(4, 4, 80)).unwrap();
    CrimeDataset::from_city(
        &city,
        DatasetConfig { window: 7, val_days: 5, train_fraction: 7.0 / 8.0 },
    )
    .unwrap()
}

#[test]
fn every_neural_baseline_certifies_clean() {
    let data = tiny_dataset();
    let models = all_auditable(&BaselineConfig::tiny(), &data).unwrap();
    assert_eq!(models.len(), 13, "all thirteen neural baselines are auditable");
    for model in &models {
        let report = model.graph_audit(&data).unwrap();
        assert!(!report.has_errors(), "{} must audit clean:\n{}", model.name(), report.render());
        assert_eq!(
            report.reachable_params,
            report.param_count,
            "{}: every parameter must be reachable from the loss:\n{}",
            model.name(),
            report.render()
        );
        assert!(report.param_count > 0, "{}: audit saw no parameters", model.name());
        // The invariant that lets the range pass stand alone as graphcheck's
        // NaN and overflow analysis: every node gets a finite interval.
        let ranges = report.ranges.as_ref().expect("range pass must run");
        assert_eq!(
            ranges.bounded,
            ranges.total,
            "{}: every interval must be bounded:\n{}",
            model.name(),
            report.render()
        );
    }
}

#[test]
fn audited_models_report_distinct_names() {
    let data = tiny_dataset();
    let models = all_auditable(&BaselineConfig::tiny(), &data).unwrap();
    let mut names: Vec<String> = models.iter().map(|m| m.name()).collect();
    names.sort();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "duplicate model names in the audit registry");
}
