//! # sthsl-baselines
//!
//! From-scratch reimplementations of the 15 spatial-temporal forecasting
//! baselines the ST-HSL paper evaluates against (Table III), plus a
//! historical-average sanity baseline. Every model implements
//! [`sthsl_data::Predictor`] over the same windowed next-day task and is
//! driven by the same experiment harness — so the comparison isolates
//! architecture exactly as the paper's evaluation does. The 13 neural
//! baselines are each a [`Neural`] wrapper around a model-specific
//! [`Network`] and train through the same `sthsl_core::TrainLoop` as ST-HSL;
//! ARIMA, SVR and HA keep their own fits. Documented simplifications per
//! model live in DESIGN.md §4.
//!
//! | Paper baseline | Module |
//! |---|---|
//! | ARIMA | [`arima`] |
//! | SVM (SVR) | [`svr`] |
//! | ST-ResNet | [`st_resnet`] |
//! | DCRNN | [`dcrnn`] |
//! | STGCN | [`stgcn`] |
//! | GWN (Graph WaveNet) | [`gwn`] |
//! | GMAN | [`gman`] |
//! | AGCRN | [`agcrn`] |
//! | MTGNN | [`mtgnn`] |
//! | DMSTGCN | [`dmstgcn`] |
//! | ST-MetaNet | [`st_metanet`] |
//! | STDN | [`stdn`] |
//! | DeepCrime | [`deepcrime`] |
//! | STtrans | [`sttrans`] |
//! | STSHN | [`stshn`] |
//! | (extra) HA | [`ha`] |

pub mod agcrn;
pub mod arima;
pub mod common;
pub mod dcrnn;
pub mod deepcrime;
pub mod dmstgcn;
pub mod gman;
pub mod gwn;
pub mod ha;
pub mod mtgnn;
pub mod st_metanet;
pub mod st_resnet;
pub mod stdn;
pub mod stgcn;
pub mod stshn;
pub mod sttrans;
pub mod svr;

pub use common::{BaselineConfig, Network, Neural};

use sthsl_core::Trainable;
use sthsl_data::{CrimeDataset, Predictor, Result};

/// Instantiate every baseline for a dataset, in the paper's Table III order:
/// ARIMA and SVR, then [`all_auditable`]'s neural models.
pub fn all_baselines(cfg: &BaselineConfig, data: &CrimeDataset) -> Result<Vec<Box<dyn Predictor>>> {
    let mut models: Vec<Box<dyn Predictor>> =
        vec![Box::new(arima::Arima::new(cfg.clone())), Box::new(svr::Svr::new(cfg.clone()))];
    models.extend(all_auditable(cfg, data)?.into_iter().map(|m| m as Box<dyn Predictor>));
    Ok(models)
}

/// Instantiate every *neural* baseline behind its [`Trainable`] interface
/// (which carries the graph audit), in Table III order. ARIMA, SVR and HA
/// fit closed-form / iterative estimators without recording a graph, so they
/// have nothing to audit.
pub fn all_auditable(cfg: &BaselineConfig, data: &CrimeDataset) -> Result<Vec<Box<dyn Trainable>>> {
    Ok(vec![
        Box::new(st_resnet::StResNet::new(cfg.clone(), data)?),
        Box::new(dcrnn::Dcrnn::new(cfg.clone(), data)?),
        Box::new(stgcn::Stgcn::new(cfg.clone(), data)?),
        Box::new(gwn::GraphWaveNet::new(cfg.clone(), data)?),
        Box::new(sttrans::StTrans::new(cfg.clone(), data)?),
        Box::new(deepcrime::DeepCrime::new(cfg.clone(), data)?),
        Box::new(stdn::Stdn::new(cfg.clone(), data)?),
        Box::new(st_metanet::StMetaNet::new(cfg.clone(), data)?),
        Box::new(gman::Gman::new(cfg.clone(), data)?),
        Box::new(agcrn::Agcrn::new(cfg.clone(), data)?),
        Box::new(mtgnn::Mtgnn::new(cfg.clone(), data)?),
        Box::new(stshn::Stshn::new(cfg.clone(), data)?),
        Box::new(dmstgcn::Dmstgcn::new(cfg.clone(), data)?),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sthsl_data::{DatasetConfig, SynthCity, SynthConfig};

    #[test]
    fn registry_builds_all_fifteen() {
        let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(4, 4, 80)).unwrap();
        let data = CrimeDataset::from_city(
            &city,
            DatasetConfig { window: 7, val_days: 5, train_fraction: 7.0 / 8.0 },
        )
        .unwrap();
        let models = all_baselines(&BaselineConfig::tiny(), &data).unwrap();
        assert_eq!(models.len(), 15);
        let names: Vec<String> = models.iter().map(|m| m.name()).collect();
        assert_eq!(names[..2], ["ARIMA", "SVM"]);
        let neural: Vec<String> = all_auditable(&BaselineConfig::tiny(), &data)
            .unwrap()
            .iter()
            .map(|m| m.name())
            .collect();
        assert_eq!(names[2..], neural[..]);
        assert!(names.contains(&"STSHN".to_string()));
        // No duplicate names.
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }
}
