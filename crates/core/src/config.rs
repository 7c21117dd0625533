//! Model hyperparameters and the paper's model variants.

/// One of the paper's model variants (Table IV, Fig. 5): the full ST-HSL or
/// one ablation of it. Each value is one distinct training program;
/// [`Ablation::FIG5`] and [`Ablation::TABLE4`] give the paper's labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Ablation {
    /// The complete ST-HSL model.
    #[default]
    Full,
    /// "w/o S-Conv": the local spatial kernel collapses to 1×1.
    NoSpatialConv,
    /// "w/o C-Conv": the local convolutions become category-diagonal.
    NoCategoryConv,
    /// "w/o T-Conv": no local temporal convolution stack (Eq. 3).
    NoTemporalConv,
    /// "w/o Local" (Fig. 5) and "w/o ConL" (Table IV), one program: the
    /// head reads the global view Γ (Eq. 9), so without the cross-view
    /// contrastive term (Eq. 8) the local encoder reaches nothing, and
    /// without the local encoder there is nothing to contrast. Either way
    /// the loss trains the global branch with infomax alone.
    NoLocal,
    /// "w/o Hyper": the global branch reads the raw embeddings, and infomax,
    /// which discriminates hypergraph summaries, is off with it.
    NoHypergraph,
    /// "w/o GlobalTem": no global temporal convolutions (Eq. 5).
    NoGlobalTemporal,
    /// "w/o Infomax": no hypergraph infomax objective (Eq. 7).
    NoInfomax,
    /// "w/o Global": the head reads the local view; no global branch and
    /// so no self-supervision.
    NoGlobal,
    /// "Fusion w/o ConL": an explicit local+global fusion head replaces the
    /// contrastive coupling.
    Fusion,
}

/// Which view the prediction head (Eq. 9) reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Head {
    /// The pooled global view Γ.
    Global,
    /// The pooled local view ("w/o Global").
    Local,
    /// Both views concatenated ("Fusion w/o ConL").
    Fusion,
}

/// What one variant records, and which parameter-name prefixes it detaches
/// from the training loss and from the forecast.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Parts {
    /// The local encoder's full k×k spatial kernel (else centre-only).
    pub spatial_conv: bool,
    /// Cross-category mixing in the local convolutions (else diagonal).
    pub category_conv: bool,
    /// The local temporal convolution stack.
    pub temporal_conv: bool,
    /// The loss pass records the local view.
    pub local_in_loss: bool,
    /// Hypergraph propagation, Eq. 4.
    pub hypergraph: bool,
    /// Global temporal convolutions, Eq. 5.
    pub global_temporal: bool,
    /// Hypergraph infomax, Eqs. 6–7.
    pub infomax: bool,
    /// Cross-view contrastive term, Eq. 8.
    pub contrastive: bool,
    /// What the head reads.
    pub head: Head,
    /// Prefixes of the parameters the training loss does not reach.
    pub train_detached: &'static [&'static str],
    /// Prefixes of the parameters the forecast does not reach.
    pub serve_detached: &'static [&'static str],
}

impl Parts {
    const FULL: Parts = Parts {
        spatial_conv: true,
        category_conv: true,
        temporal_conv: true,
        local_in_loss: true,
        hypergraph: true,
        global_temporal: true,
        infomax: true,
        contrastive: true,
        head: Head::Global,
        train_detached: &[],
        // Infomax feeds only its loss; the head reads Γ alone.
        serve_detached: &["infomax.", "local."],
    };
}

impl Ablation {
    /// Every variant, the full model first.
    pub const ALL: [Ablation; 10] = [
        Ablation::Full,
        Ablation::NoSpatialConv,
        Ablation::NoCategoryConv,
        Ablation::NoTemporalConv,
        Ablation::NoLocal,
        Ablation::NoHypergraph,
        Ablation::NoGlobalTemporal,
        Ablation::NoInfomax,
        Ablation::NoGlobal,
        Ablation::Fusion,
    ];

    /// Fig. 5's multi-view encoder variants, in paper order.
    pub const FIG5: [(&'static str, Ablation); 4] = [
        ("w/o S-Conv", Ablation::NoSpatialConv),
        ("w/o C-Conv", Ablation::NoCategoryConv),
        ("w/o T-Conv", Ablation::NoTemporalConv),
        ("w/o Local", Ablation::NoLocal),
    ];

    /// Table IV's self-supervision variants, in paper order.
    pub const TABLE4: [(&'static str, Ablation); 6] = [
        ("w/o Hyper", Ablation::NoHypergraph),
        ("w/o GlobalTem", Ablation::NoGlobalTemporal),
        ("w/o Infomax", Ablation::NoInfomax),
        ("w/o ConL", Ablation::NoLocal),
        ("w/o Global", Ablation::NoGlobal),
        ("Fusion w/o ConL", Ablation::Fusion),
    ];

    /// The one place each variant's parts are decided.
    pub(crate) fn parts(self) -> Parts {
        let full = Parts::FULL;
        match self {
            Ablation::Full => full,
            Ablation::NoSpatialConv => Parts { spatial_conv: false, ..full },
            Ablation::NoCategoryConv => Parts { category_conv: false, ..full },
            Ablation::NoTemporalConv => {
                Parts { temporal_conv: false, train_detached: &["local.temporal"], ..full }
            }
            Ablation::NoLocal => Parts {
                local_in_loss: false,
                contrastive: false,
                train_detached: &["local."],
                ..full
            },
            Ablation::NoHypergraph => Parts {
                hypergraph: false,
                infomax: false,
                train_detached: &["hypergraph.", "infomax."],
                serve_detached: &["hypergraph.", "infomax.", "local."],
                ..full
            },
            Ablation::NoGlobalTemporal => Parts {
                global_temporal: false,
                train_detached: &["global_temporal."],
                serve_detached: &["global_temporal.", "infomax.", "local."],
                ..full
            },
            Ablation::NoInfomax => Parts { infomax: false, train_detached: &["infomax."], ..full },
            Ablation::NoGlobal => Parts {
                hypergraph: false,
                global_temporal: false,
                infomax: false,
                contrastive: false,
                head: Head::Local,
                train_detached: &["global_temporal.", "hypergraph.", "infomax."],
                serve_detached: &["global_temporal.", "hypergraph.", "infomax."],
                ..full
            },
            Ablation::Fusion => Parts {
                contrastive: false,
                head: Head::Fusion,
                serve_detached: &["infomax."],
                ..full
            },
        }
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
    /// The model variant (the full model or one ablation).
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
            ablation: Ablation::Full,
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

    /// Builder-style variant override.
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
        let p = Ablation::default().parts();
        assert!(p.spatial_conv && p.category_conv && p.temporal_conv && p.local_in_loss);
        assert!(p.hypergraph && p.global_temporal && p.infomax && p.contrastive);
        assert_eq!(p.head, Head::Global);
        assert!(p.train_detached.is_empty());
    }

    #[test]
    fn without_global_disables_ssl() {
        let p = Ablation::NoGlobal.parts();
        assert!(!p.hypergraph && !p.global_temporal && !p.infomax && !p.contrastive);
        assert_eq!(p.head, Head::Local);
        assert!(p.local_in_loss);
    }

    /// The labelled rows name every variant but the full model, and the two
    /// labels of one program ("w/o Local", "w/o ConL") share its value.
    #[test]
    fn named_variants_cover_tables() {
        let rows: Vec<_> = Ablation::FIG5.iter().chain(&Ablation::TABLE4).collect();
        assert_eq!(rows.len(), 10);
        for ab in &Ablation::ALL[1..] {
            assert!(rows.iter().any(|(_, a)| a == ab), "{ab:?} has no label");
        }
        let no_local: Vec<_> =
            rows.iter().filter(|(_, a)| *a == Ablation::NoLocal).map(|(n, _)| *n).collect();
        assert_eq!(no_local, ["w/o Local", "w/o ConL"]);
    }

    /// Whatever the loss reads of the local view, the loss pass records it:
    /// the contrastive term or the head.
    #[test]
    fn loss_records_the_local_view_exactly_when_it_reads_it() {
        for ab in Ablation::ALL {
            let p = ab.parts();
            assert_eq!(p.local_in_loss, p.contrastive || p.head != Head::Global, "{ab:?}");
            assert!(p.hypergraph || !p.infomax, "{ab:?}: infomax without a hypergraph");
        }
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
