//! Model hyperparameters and ablation switches.

/// Which components are active. The full model enables everything; each
/// Table IV / Figure 5 variant disables one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ablation {
    /// Spatial 3×3 aggregation in the local encoder ("w/o S-Conv" when off:
    /// the kernel collapses to 1×1).
    pub spatial_conv: bool,
    /// Cross-category mixing in the local convolutions ("w/o C-Conv" when
    /// off: convolutions become category-diagonal).
    pub category_conv: bool,
    /// Local temporal convolution stack, Eq. 3 ("w/o T-Conv").
    pub temporal_conv: bool,
    /// The whole multi-view local encoder, Eqs. 2–3 ("w/o Local").
    pub local_encoder: bool,
    /// Hypergraph propagation, Eq. 4 ("w/o Hyper": the global branch reads
    /// raw embeddings).
    pub hypergraph: bool,
    /// Global temporal convolutions, Eq. 5 ("w/o GlobalTem").
    pub global_temporal: bool,
    /// Hypergraph infomax objective, Eq. 7 ("w/o Infomax").
    pub infomax: bool,
    /// Cross-view contrastive objective, Eq. 8 ("w/o ConL").
    pub contrastive: bool,
    /// The entire global branch ("w/o Global": prediction from the local
    /// encoder; infomax and contrastive necessarily off).
    pub global_branch: bool,
    /// Replace the contrastive coupling with an explicit local+global fusion
    /// layer ("Fusion w/o ConL").
    pub fusion: bool,
}

impl Default for Ablation {
    fn default() -> Self {
        Ablation::full()
    }
}

impl Ablation {
    /// The complete ST-HSL model.
    pub fn full() -> Self {
        Ablation {
            spatial_conv: true,
            category_conv: true,
            temporal_conv: true,
            local_encoder: true,
            hypergraph: true,
            global_temporal: true,
            infomax: true,
            contrastive: true,
            global_branch: true,
            fusion: false,
        }
    }

    /// "w/o S-Conv" (Fig. 5).
    pub fn without_spatial_conv() -> Self {
        Ablation { spatial_conv: false, ..Ablation::full() }
    }

    /// "w/o C-Conv" (Fig. 5).
    pub fn without_category_conv() -> Self {
        Ablation { category_conv: false, ..Ablation::full() }
    }

    /// "w/o T-Conv" (Fig. 5).
    pub fn without_temporal_conv() -> Self {
        Ablation { temporal_conv: false, ..Ablation::full() }
    }

    /// "w/o Local" (Fig. 5).
    pub fn without_local() -> Self {
        Ablation { local_encoder: false, ..Ablation::full() }
    }

    /// "w/o Hyper" (Table IV).
    pub fn without_hypergraph() -> Self {
        Ablation { hypergraph: false, ..Ablation::full() }
    }

    /// "w/o GlobalTem" (Table IV).
    pub fn without_global_temporal() -> Self {
        Ablation { global_temporal: false, ..Ablation::full() }
    }

    /// "w/o Infomax" (Table IV).
    pub fn without_infomax() -> Self {
        Ablation { infomax: false, ..Ablation::full() }
    }

    /// "w/o ConL" (Table IV).
    pub fn without_contrastive() -> Self {
        Ablation { contrastive: false, ..Ablation::full() }
    }

    /// "w/o Global" (Table IV): local-only prediction, no SSL.
    pub fn without_global() -> Self {
        Ablation { global_branch: false, infomax: false, contrastive: false, ..Ablation::full() }
    }

    /// "Fusion w/o ConL" (Table IV): fusion layer instead of contrastive.
    pub fn fusion_without_contrastive() -> Self {
        Ablation { fusion: true, contrastive: false, ..Ablation::full() }
    }

    /// Whether the training loss reads the local view: through the
    /// prediction head ("w/o Global" or fusion) or through the cross-view
    /// contrastive term, which needs a local encoder to contrast. Where it
    /// does not ("w/o ConL", "w/o Local"), the loss pass does not record the
    /// view and the local parameters are expected to stay detached.
    pub fn loss_reads_local_view(&self) -> bool {
        !self.global_branch || self.fusion || (self.contrastive && self.local_encoder)
    }

    /// All named Table IV / Fig 5 variants with their paper labels.
    pub fn named_variants() -> Vec<(&'static str, Ablation)> {
        vec![
            ("w/o S-Conv", Ablation::without_spatial_conv()),
            ("w/o C-Conv", Ablation::without_category_conv()),
            ("w/o T-Conv", Ablation::without_temporal_conv()),
            ("w/o Local", Ablation::without_local()),
            ("w/o Hyper", Ablation::without_hypergraph()),
            ("w/o GlobalTem", Ablation::without_global_temporal()),
            ("w/o Infomax", Ablation::without_infomax()),
            ("w/o ConL", Ablation::without_contrastive()),
            ("w/o Global", Ablation::without_global()),
            ("Fusion w/o ConL", Ablation::fusion_without_contrastive()),
        ]
    }
}

/// ST-HSL hyperparameters. Defaults follow the paper's reported settings
/// (d = 16, H = 128 hyperedges, kernel 3, two local conv layers, four global
/// temporal layers, Adam lr 1e-3).
#[derive(Debug, Clone, PartialEq)]
pub struct StHslConfig {
    /// Embedding dimensionality `d`.
    pub d: usize,
    /// Number of hyperedges `H`.
    pub num_hyperedges: usize,
    /// Convolution kernel size (spatial and temporal).
    pub kernel: usize,
    /// Local conv layers per view (paper: 2).
    pub local_layers: usize,
    /// Global temporal conv layers (paper: 4).
    pub global_temporal_layers: usize,
    /// Dropout rate δ.
    pub dropout: f32,
    /// InfoNCE temperature τ.
    pub tau: f32,
    /// Infomax loss weight λ1.
    pub lambda1: f32,
    /// Contrastive loss weight λ2.
    pub lambda2: f32,
    /// Weight-decay λ3 (applied as coupled decay in Adam).
    pub lambda3: f32,
    /// Learning rate η.
    pub lr: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Samples per gradient step.
    pub batch_size: usize,
    /// Optional cap on batches per epoch (keeps quick runs quick).
    pub max_batches_per_epoch: Option<usize>,
    /// Learn a distinct hypergraph per window position (the paper's
    /// time-evolving `H_t`); `false` shares one structure.
    pub time_dependent_hypergraph: bool,
    /// Has no effect: hypergraph propagation is always dense. Nothing reads
    /// this field; it is deleted with the next benchmark change.
    pub sparse_propagation: bool,
    /// RNG seed for parameter init and dropout.
    pub seed: u64,
    /// Component switches for ablation studies.
    pub ablation: Ablation,
}

impl Default for StHslConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl StHslConfig {
    /// The paper's published configuration.
    pub fn paper() -> Self {
        StHslConfig {
            d: 16,
            num_hyperedges: 128,
            kernel: 3,
            local_layers: 2,
            global_temporal_layers: 4,
            dropout: 0.2,
            tau: 0.5,
            lambda1: 0.1,
            lambda2: 0.1,
            lambda3: 1e-4,
            lr: 1e-3,
            epochs: 30,
            batch_size: 8,
            max_batches_per_epoch: None,
            time_dependent_hypergraph: true,
            sparse_propagation: false,
            seed: 7,
            ablation: Ablation::full(),
        }
    }

    /// A reduced configuration for CPU-budgeted runs and tests: smaller
    /// embedding, fewer hyperedges and epochs, SSL weights re-tuned for the
    /// shorter schedule. Architecture unchanged.
    pub fn quick() -> Self {
        StHslConfig {
            d: 16,
            num_hyperedges: 64,
            epochs: 18,
            batch_size: 4,
            max_batches_per_epoch: Some(12),
            lambda2: 0.03,
            ..Self::paper()
        }
    }

    /// Builder-style ablation override.
    pub fn with_ablation(mut self, ablation: Ablation) -> Self {
        self.ablation = ablation;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_ablation_enables_everything() {
        let a = Ablation::full();
        assert!(a.spatial_conv && a.category_conv && a.temporal_conv);
        assert!(a.local_encoder && a.hypergraph && a.global_temporal);
        assert!(a.infomax && a.contrastive && a.global_branch);
        assert!(!a.fusion);
    }

    #[test]
    fn without_global_disables_ssl() {
        let a = Ablation::without_global();
        assert!(!a.global_branch && !a.infomax && !a.contrastive);
    }

    #[test]
    fn named_variants_cover_tables() {
        let v = Ablation::named_variants();
        assert_eq!(v.len(), 10);
        let names: Vec<_> = v.iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"w/o Hyper"));
        assert!(names.contains(&"Fusion w/o ConL"));
    }

    #[test]
    fn paper_config_matches_published_settings() {
        let c = StHslConfig::paper();
        assert_eq!(c.d, 16);
        assert_eq!(c.num_hyperedges, 128);
        assert_eq!(c.kernel, 3);
        assert_eq!(c.local_layers, 2);
        assert_eq!(c.global_temporal_layers, 4);
        assert!((c.lr - 1e-3).abs() < 1e-9);
    }
}
