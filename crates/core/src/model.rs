//! The assembled ST-HSL model (paper Fig. 3, Alg. 1) and its
//! [`Predictor`] implementation.

use crate::config::{Head, StHslConfig};
use crate::contrastive::contrastive_loss;
use crate::embedding::CrimeEmbedding;
use crate::global_temporal::GlobalTemporal;
use crate::hypergraph::HypergraphEncoder;
use crate::infomax::{corruption_permutation, InfomaxHead};
use crate::local::LocalEncoder;
use crate::predict::PredictionHead;
use crate::trainer::{self, Schedule, Trainable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sthsl_autograd::{Checkpoint, Graph, ParamStore, ParamVars, Var};
use sthsl_data::predictor::sanitize_counts;
use sthsl_data::{CrimeDataset, FitReport, Predictor, Split};
use sthsl_graphcheck::{AuditOptions, AuditReport};
use sthsl_tensor::{Result, Tensor, TensorError};

/// One audit-ready sample graph: `(graph, loss, named parameter vars)`, as
/// built by [`StHsl::audit_artifacts`] for [`sthsl_graphcheck::audit`].
pub type AuditGraph = (Graph, Var, Vec<(String, Var)>);

/// The Spatial-Temporal Hypergraph Self-Supervised Learning model.
pub struct StHsl {
    pub(crate) cfg: StHslConfig,
    pub(crate) store: ParamStore,
    embedding: CrimeEmbedding,
    local: LocalEncoder,
    hypergraph: HypergraphEncoder,
    global_temporal: GlobalTemporal,
    infomax: InfomaxHead,
    head: PredictionHead,
    rows: usize,
    cols: usize,
    num_categories: usize,
    window: usize,
}

/// What one forward pass records besides the prediction.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Pass<'a> {
    /// Loss-building (training and validation): the local view and every
    /// self-supervised term the ablation enables. `corrupt_perm`, a region
    /// permutation, also enables the infomax corruption branch (training
    /// only).
    Loss { corrupt_perm: Option<&'a [usize]> },
    /// Inference: only ancestors of the prediction.
    Predict,
}

/// Variables produced by one forward pass that the training objective needs.
pub(crate) struct ForwardArtifacts {
    /// Predicted counts `[R, C]`.
    pub pred: Var,
    /// Infomax loss (Eq. 7, mean-normalised), when active.
    pub infomax_loss: Option<Var>,
    /// Contrastive loss (Eq. 8), when active.
    pub contrastive_loss: Option<Var>,
}

impl StHsl {
    /// Build the model for a dataset's dimensions.
    pub fn new(cfg: StHslConfig, data: &CrimeDataset) -> Result<Self> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let (rows, cols) = (data.rows, data.cols);
        let c = data.num_categories();
        let window = data.config.window;
        let embedding = CrimeEmbedding::new(&mut store, c, cfg.d, &mut rng);
        let local = LocalEncoder::new(&mut store, &cfg, rows, cols, c, &mut rng);
        let hypergraph = HypergraphEncoder::new(
            &mut store,
            cfg.num_hyperedges,
            rows * cols * c,
            window,
            cfg.time_dependent_hypergraph,
            false,
            &mut rng,
        );
        let global_temporal = GlobalTemporal::new(&mut store, &cfg, &mut rng);
        let infomax = InfomaxHead::new(&mut store, cfg.d, &mut rng);
        let head_in = if cfg.ablation.parts().head == Head::Fusion { 2 * cfg.d } else { cfg.d };
        let head = PredictionHead::new(&mut store, head_in, &mut rng);
        Ok(StHsl {
            cfg,
            store,
            embedding,
            local,
            hypergraph,
            global_temporal,
            infomax,
            head,
            rows,
            cols,
            num_categories: c,
            window,
        })
    }

    /// Model configuration.
    pub fn config(&self) -> &StHslConfig {
        &self.cfg
    }

    /// Total scalar parameter count.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// One forward pass over a z-scored window `[R, Tw, C]`; `pass` picks
    /// what is recorded besides the prediction.
    pub(crate) fn forward(
        &self,
        g: &Graph,
        pv: &ParamVars,
        zscored: &Tensor,
        pass: Pass<'_>,
    ) -> Result<ForwardArtifacts> {
        let parts = self.cfg.ablation.parts();
        let (r, tw, c) = (self.rows * self.cols, zscored.shape()[1], self.num_categories);
        if zscored.shape() != [r, tw, c] {
            return Err(TensorError::Invalid(format!(
                "StHsl::forward: window shape {:?}, expected [{r}, {tw}, {c}]",
                zscored.shape()
            )));
        }
        if tw != self.window {
            return Err(TensorError::Invalid(format!(
                "StHsl::forward: window length {tw} != configured {}",
                self.window
            )));
        }
        let d = self.cfg.d;

        // (1) Embedding layer, Eq. 1.
        let e = self.embedding.forward(g, pv, zscored)?; // [R,Tw,C,d]

        // (2) Local multi-view encoder, Eqs. 2–3 (handles its own ablations).
        // A loss-building pass records it here, ahead of the global branch,
        // so that its dropout nodes take the sample's first mask keys, and
        // only if the loss reads it. Inference records it at the head (step
        // 5), and only if the head reads it (fusion or "w/o Global");
        // otherwise it would feed nothing but the contrastive loss.
        let local_view = || -> Result<Var> {
            let h_local = self.local.forward(g, pv, e)?; // [R,Tw,C,d]
            g.mean_axis(h_local, 1) // [R,C,d]
        };
        let (local_pooled, corrupt_perm) = match pass {
            Pass::Loss { corrupt_perm } => {
                (parts.local_in_loss.then(&local_view).transpose()?, corrupt_perm)
            }
            Pass::Predict => (None, None),
        };
        let head_local = || local_pooled.map_or_else(&local_view, Ok);

        // (3) Global branch. Following Fig. 3, this is a *parallel* view: the
        // hypergraph reads the raw embeddings E (Eq. 4's notation), so the
        // local and global encoders are independent and the cross-view
        // contrastive objective genuinely transfers knowledge between them.
        let mut infomax_loss = None;
        let mut contrastive = None;
        let pred = if parts.head == Head::Local {
            // "w/o Global": local-only prediction.
            self.head.forward(g, pv, head_local()?)?
        } else {
            // Flatten to hypergraph node layout: [Tw, R·C, d].
            let flat = |x: Var| -> Result<Var> {
                let p = g.permute(x, &[1, 0, 2, 3])?; // [Tw,R,C,d]
                g.reshape(p, &[tw, r * c, d])
            };
            let e_flat = flat(e)?;
            let gamma_r = if parts.hypergraph {
                // Eq. 4, plus a residual connection: raw hypergraph mixing
                // collapses node embeddings towards a global average at
                // initialisation (every node reads the same hyperedge hubs),
                // which destroys per-region magnitude information. The
                // residual mirrors the paper's Eq. 2–3 pattern and keeps the
                // global branch trainable.
                let mixed = self.hypergraph.forward(g, pv, e_flat)?;
                g.add(mixed, e_flat)?
            } else {
                e_flat
            };
            let gamma_t = if parts.global_temporal {
                self.global_temporal.forward(g, pv, gamma_r)? // Eq. 5
            } else {
                gamma_r
            };
            let global_pooled_flat = g.mean_axis(gamma_t, 0)?; // [RC, d]
            let global_pooled = g.reshape(global_pooled_flat, &[r, c, d])?;

            // (4a) Hypergraph infomax, Eqs. 6–7.
            if let Some(perm) = corrupt_perm.filter(|_| parts.infomax) {
                let e_cor = g.index_select(e, 0, perm)?;
                let e_cor_flat = flat(e_cor)?;
                let mixed_cor = self.hypergraph.forward(g, pv, e_cor_flat)?;
                let gamma_cor = g.add(mixed_cor, e_cor_flat)?;
                infomax_loss = Some(self.infomax.loss(g, pv, gamma_r, gamma_cor, r, c)?);
            }

            // (4b) Cross-view contrastive, Eq. 8.
            if let Some(local) = local_pooled.filter(|_| parts.contrastive) {
                contrastive = Some(contrastive_loss(g, local, global_pooled, self.cfg.tau)?);
            }

            // (5) Prediction, Eq. 9.
            if parts.head == Head::Fusion {
                let fused = g.concat(&[head_local()?, global_pooled], 2)?;
                self.head.forward(g, pv, fused)?
            } else {
                self.head.forward(g, pv, global_pooled)?
            }
        };

        Ok(ForwardArtifacts { pred, infomax_loss, contrastive_loss: contrastive })
    }

    /// Joint training loss for one sample (Eq. 10, with the squared error
    /// mean-normalised so λ1/λ2 are scale-free; λ3 is realised as Adam
    /// weight decay).
    pub(crate) fn sample_loss(
        &self,
        g: &Graph,
        pv: &ParamVars,
        zscored: &Tensor,
        target: &Tensor,
        corrupt_perm: Option<&[usize]>,
    ) -> Result<Var> {
        let art = self.forward(g, pv, zscored, Pass::Loss { corrupt_perm })?;
        let t = g.constant(target.clone());
        let mut loss = g.mse(art.pred, t)?;
        if let Some(li) = art.infomax_loss {
            let li = g.scale(li, self.cfg.lambda1);
            loss = g.add(loss, li)?;
        }
        if let Some(lc) = art.contrastive_loss {
            let lc = g.scale(lc, self.cfg.lambda2);
            loss = g.add(loss, lc)?;
        }
        Ok(loss)
    }

    /// Hyperedge→(region, category) relevance scores `[H, R·C]` averaged over
    /// the window — the quantity visualised in the paper's Fig. 8.
    pub fn hyperedge_relevance(&self) -> Result<Tensor> {
        self.hypergraph.relevance(&self.store)
    }

    /// Top-k most relevant regions for a hyperedge (scores summed over
    /// categories), as `(region, score)` pairs sorted descending.
    pub fn top_regions_for_hyperedge(
        &self,
        hyperedge: usize,
        k: usize,
    ) -> Result<Vec<(usize, f32)>> {
        let rel = self.hyperedge_relevance()?;
        let h = rel.shape()[0];
        if hyperedge >= h {
            return Err(TensorError::IndexOutOfRange { index: hyperedge, len: h });
        }
        let r = self.rows * self.cols;
        let c = self.num_categories;
        let mut scores: Vec<(usize, f32)> = (0..r)
            .map(|ri| {
                let s: f32 = (0..c).map(|ci| rel.at(&[hyperedge, ri * c + ci])).sum();
                (ri, s)
            })
            .collect();
        scores.sort_by(|a, b| b.1.total_cmp(&a.1));
        scores.truncate(k);
        Ok(scores)
    }

    /// Grid dimensions `(rows, cols)`.
    pub fn grid(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Snapshot the current parameters as a fresh checkpoint artifact
    /// ([`Checkpoint::of_params`] with the config seed). This is the one
    /// persisted form of a trained model: save it with [`Checkpoint::save`],
    /// load it with [`Checkpoint::load`] and hand the parameters to
    /// [`Self::install_params`]. `sthsl train` writes its `--model` file and
    /// `best.params` this way, and `sthsl serve` scans directories of them.
    pub fn export_checkpoint(&self) -> Checkpoint {
        Checkpoint::of_params(self.store.clone(), self.cfg.seed)
    }

    /// Named parameter table `(name, shape)` in registration order — the
    /// contract a checkpoint's [`ParamStore`] must match before it can be
    /// installed into this model.
    pub fn param_table(&self) -> Vec<(String, Vec<usize>)> {
        self.store
            .ids()
            .map(|id| (self.store.name(id).to_string(), self.store.get(id).shape().to_vec()))
            .collect()
    }

    /// Install parameter values from another store (e.g. a checkpoint-v2
    /// artifact), cross-checking every name and shape *before* mutating
    /// anything. On disagreement the model is left untouched and the error
    /// names the first offending parameter with both shapes — this is the
    /// startup gate `sthsl serve` relies on to reject a checkpoint trained
    /// under a different model config before the first request arrives.
    pub fn install_params(&mut self, source: &ParamStore) -> Result<()> {
        self.store.copy_values_from(source).map_err(TensorError::Invalid)
    }

    /// Batched inference: predict every window in `windows` on a single
    /// graph with a single parameter injection. Each prediction is
    /// bit-identical to a standalone [`Predictor::predict`] call — the same
    /// op sequence runs over the same values — while amortising the graph
    /// and injection setup across the batch. Like every inference entry
    /// point, it records only ancestors of the predictions. This is the
    /// micro-batch entry point the serving layer drains requests through.
    pub fn predict_batch(&self, data: &CrimeDataset, windows: &[&Tensor]) -> Result<Vec<Tensor>> {
        let g = Graph::new();
        let pv = self.store.inject(&g);
        windows
            .iter()
            .map(|window| {
                let z = data.zscore(window);
                let art = self.forward(&g, &pv, &z, Pass::Predict)?;
                Ok(sanitize_counts(g.value(art.pred).as_ref().clone()))
            })
            .collect()
    }

    /// Build the exact training-mode graph the static analyzer inspects: one
    /// `Self::sample_loss` on the first training day with the infomax
    /// corruption branch active, plus every named parameter `Var`.
    ///
    /// Returns `(graph, loss, named params)`. The graph is *not* executed
    /// backward — it exists so [`Graph::export_tape`] can hand the analyzer a
    /// faithful projection of what training would run.
    pub fn audit_artifacts(&self, data: &CrimeDataset) -> Result<AuditGraph> {
        let g = Graph::training(self.cfg.seed);
        let (loss, params) = self.record_training_graph(&g, data)?;
        Ok((g, loss, params))
    }

    /// Record one training-mode forward pass onto a caller-provided graph —
    /// the same graph [`Self::audit_artifacts`] analyzes. The caller owns the
    /// graph, so an `sthsl_autograd::TapeObserver` attached beforehand sees
    /// every forward op as it is recorded (and every backward op if
    /// [`Graph::backward`] is then run on the returned loss).
    ///
    /// Returns `(loss, named params)`.
    pub fn record_training_graph(
        &self,
        g: &Graph,
        data: &CrimeDataset,
    ) -> Result<(Var, Vec<(String, Var)>)> {
        let pv = self.store.inject(g);
        let day = *data.target_days(Split::Train).first().ok_or_else(|| {
            TensorError::Invalid("graph audit: dataset has no training days".into())
        })?;
        let sample = data.sample(day)?;
        let z = data.zscore(&sample.input);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let perm = corruption_permutation(data.num_regions(), &mut rng);
        let loss = self.sample_loss(g, &pv, &z, &sample.target, Some(&perm))?;
        Ok((loss, self.store.named_vars(&pv)))
    }

    /// Parameter-name prefixes the model's [`crate::config::Ablation`] is
    /// *expected* to detach from the loss. The graph audit downgrades
    /// grad-flow findings under these prefixes from Error to Info, so only
    /// genuinely unintended detachment fails the pre-flight.
    pub fn expected_inactive_prefixes(&self) -> Vec<String> {
        self.cfg.ablation.parts().train_detached.iter().map(ToString::to_string).collect()
    }

    /// Run the full static audit (structure, grad-flow, value ranges,
    /// static cost model) over the graph this model builds for training. Does not
    /// execute forward or backward beyond the single tape-recording pass.
    pub fn graph_audit(&self, data: &CrimeDataset) -> Result<AuditReport> {
        let (g, loss, params) = self.audit_artifacts(data)?;
        let spec = g.export_tape();
        let indexed: Vec<(String, usize)> =
            params.iter().map(|(n, v)| (n.clone(), v.index())).collect();
        let opts = AuditOptions { allow_unreachable: self.expected_inactive_prefixes() };
        Ok(sthsl_graphcheck::audit("ST-HSL", &spec, loss.index(), &indexed, &opts))
    }

    /// Build the inference-mode (serving) graph: one forward pass to the
    /// predicted counts on the first training day, recording only the
    /// prediction's ancestors — no corruption branch, no dropout nodes, no
    /// loss terms and no local view the head does not read. Returns
    /// `(graph, root, named params)` where `root` is a scalar `sum_all`
    /// probe over the prediction — the audit passes want a scalar root, and
    /// everything the prediction needs is an ancestor of the probe.
    pub fn serving_artifacts(&self, data: &CrimeDataset) -> Result<AuditGraph> {
        let g = Graph::new();
        let pv = self.store.inject(&g);
        let day = *data.target_days(Split::Train).first().ok_or_else(|| {
            TensorError::Invalid("serving graph: dataset has no training days".into())
        })?;
        let sample = data.sample(day)?;
        let z = data.zscore(&sample.input);
        let art = self.forward(&g, &pv, &z, Pass::Predict)?;
        let root = g.sum_all(art.pred);
        Ok((g, root, self.store.named_vars(&pv)))
    }

    /// Parameter-name prefixes that legitimately do not reach the serving
    /// output: everything that exists only for the self-supervised losses,
    /// and the variant's detached parameters.
    pub fn expected_serving_inactive_prefixes(&self) -> Vec<String> {
        self.cfg.ablation.parts().serve_detached.iter().map(ToString::to_string).collect()
    }

    /// Train with the full fault-tolerant runtime: checkpointing, resume,
    /// divergence self-healing and early stopping per `opts`, with `hooks`
    /// observing the loop. [`Predictor::fit`] is the no-frills equivalent.
    pub fn fit_with(
        &mut self,
        data: &CrimeDataset,
        opts: crate::trainer::TrainOptions,
        hooks: &mut dyn crate::trainer::TrainHooks,
    ) -> Result<crate::trainer::TrainOutcome> {
        crate::trainer::TrainLoop::new(opts).run(self, data, hooks)
    }
}

impl Predictor for StHsl {
    fn name(&self) -> String {
        "ST-HSL".into()
    }

    fn fit(&mut self, data: &CrimeDataset) -> Result<FitReport> {
        trainer::train(self, data)
    }

    fn predict(&self, data: &CrimeDataset, window: &Tensor) -> Result<Tensor> {
        let g = Graph::new();
        let pv = self.store.inject(&g);
        let z = data.zscore(window);
        let art = self.forward(&g, &pv, &z, Pass::Predict)?;
        Ok(sanitize_counts(g.value(art.pred).as_ref().clone()))
    }
}

impl Trainable for StHsl {
    fn params(&self) -> &ParamStore {
        &self.store
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// λ3 (Eq. 10) is realised as Adam weight decay `2·λ3`.
    fn schedule(&self) -> Schedule {
        Schedule {
            epochs: self.cfg.epochs,
            batch_size: self.cfg.batch_size,
            max_batches_per_epoch: self.cfg.max_batches_per_epoch,
            lr: self.cfg.lr,
            weight_decay: 2.0 * self.cfg.lambda3,
            seed: self.cfg.seed,
        }
    }

    /// Draws the infomax corruption permutation from `corrupt`, one per
    /// sample, then records the joint objective (Eq. 10) via `sample_loss`.
    fn loss(
        &self,
        g: &Graph,
        pv: &ParamVars,
        zscored: &Tensor,
        target: &Tensor,
        corrupt: Option<&mut StdRng>,
    ) -> Result<Var> {
        let perm = corrupt.map(|rng| corruption_permutation(self.rows * self.cols, rng));
        self.sample_loss(g, pv, zscored, target, perm.as_deref())
    }

    fn graph_audit(&self, data: &CrimeDataset) -> Result<AuditReport> {
        StHsl::graph_audit(self, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Ablation;
    use sthsl_data::{DatasetConfig, SynthCity, SynthConfig};

    fn tiny_dataset() -> CrimeDataset {
        let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(4, 4, 80)).unwrap();
        CrimeDataset::from_city(
            &city,
            DatasetConfig { window: 7, val_days: 5, train_fraction: 7.0 / 8.0 },
        )
        .unwrap()
    }

    fn tiny_cfg() -> StHslConfig {
        StHslConfig {
            d: 4,
            num_hyperedges: 6,
            epochs: 2,
            batch_size: 2,
            max_batches_per_epoch: Some(3),
            ..StHslConfig::quick()
        }
    }

    /// Op nodes recorded on `g` that are not ancestors of `root`, as
    /// `%index name`.
    fn ops_off_the_path(g: &Graph, root: Var) -> Vec<String> {
        let spec = g.export_tape();
        let mut needed = vec![false; spec.nodes.len()];
        needed[root.index()] = true;
        for i in (0..spec.nodes.len()).rev() {
            if needed[i] {
                for &p in &spec.nodes[i].parents {
                    needed[p] = true;
                }
            }
        }
        spec.nodes
            .iter()
            .enumerate()
            .filter(|(i, node)| !needed[*i] && !node.kind.is_input())
            .map(|(i, node)| format!("%{i} {}", node.kind.name()))
            .collect()
    }

    #[test]
    fn forward_produces_predictions_and_losses() {
        let data = tiny_dataset();
        let model = StHsl::new(tiny_cfg(), &data).unwrap();
        let g = Graph::training(1);
        let pv = model.store.inject(&g);
        let sample = data.sample(20).unwrap();
        let z = data.zscore(&sample.input);
        let perm: Vec<usize> = (0..16).rev().collect();
        let art = model.forward(&g, &pv, &z, Pass::Loss { corrupt_perm: Some(&perm) }).unwrap();
        assert_eq!(g.shape_of(art.pred).unwrap(), vec![16, 4]);
        assert!(art.infomax_loss.is_some());
        assert!(art.contrastive_loss.is_some());
        let li = g.value(art.infomax_loss.unwrap()).item().unwrap();
        let lc = g.value(art.contrastive_loss.unwrap()).item().unwrap();
        assert!(li.is_finite() && li > 0.0);
        assert!(lc.is_finite() && lc > 0.0);
    }

    #[test]
    fn forward_rejects_wrong_window() {
        let data = tiny_dataset();
        let model = StHsl::new(tiny_cfg(), &data).unwrap();
        let g = Graph::new();
        let pv = model.store.inject(&g);
        let bad = Tensor::zeros(&[16, 5, 4]); // wrong Tw
        assert!(model.forward(&g, &pv, &bad, Pass::Predict).is_err());
        let bad2 = Tensor::zeros(&[9, 7, 4]); // wrong R
        assert!(model.forward(&g, &pv, &bad2, Pass::Predict).is_err());
    }

    #[test]
    fn ablations_change_artifact_presence() {
        let data = tiny_dataset();
        // w/o Global → no SSL artifacts.
        let cfg = tiny_cfg().with_ablation(Ablation::NoGlobal);
        let model = StHsl::new(cfg, &data).unwrap();
        let g = Graph::training(1);
        let pv = model.store.inject(&g);
        let sample = data.sample(20).unwrap();
        let z = data.zscore(&sample.input);
        let perm: Vec<usize> = (0..16).collect();
        let art = model.forward(&g, &pv, &z, Pass::Loss { corrupt_perm: Some(&perm) }).unwrap();
        assert!(art.infomax_loss.is_none());
        assert!(art.contrastive_loss.is_none());
        assert_eq!(g.shape_of(art.pred).unwrap(), vec![16, 4]);
    }

    #[test]
    fn fusion_head_consumes_both_views() {
        let data = tiny_dataset();
        let cfg = tiny_cfg().with_ablation(Ablation::Fusion);
        let model = StHsl::new(cfg, &data).unwrap();
        let g = Graph::new();
        let pv = model.store.inject(&g);
        let sample = data.sample(20).unwrap();
        let z = data.zscore(&sample.input);
        let art = model.forward(&g, &pv, &z, Pass::Loss { corrupt_perm: None }).unwrap();
        assert_eq!(g.shape_of(art.pred).unwrap(), vec![16, 4]);
        assert!(art.contrastive_loss.is_none());
    }

    #[test]
    fn every_named_ablation_runs_forward() {
        let data = tiny_dataset();
        for ab in Ablation::ALL {
            let cfg = tiny_cfg().with_ablation(ab);
            let model = StHsl::new(cfg, &data).unwrap();
            let g = Graph::training(2);
            let pv = model.store.inject(&g);
            let sample = data.sample(15).unwrap();
            let z = data.zscore(&sample.input);
            let perm: Vec<usize> = (0..16).rev().collect();
            let loss = model
                .sample_loss(&g, &pv, &z, &sample.target, Some(&perm))
                .unwrap_or_else(|e| panic!("{ab:?}: {e}"));
            let v = g.value(loss).item().unwrap();
            assert!(v.is_finite(), "{ab:?}: non-finite loss");
            // Every recorded op reaches the loss: "w/o Local" does not
            // record the local view its loss never reads.
            assert_eq!(ops_off_the_path(&g, loss), Vec::<String>::new(), "{ab:?}");
        }
    }

    #[test]
    fn predict_sanitizes_output() {
        let data = tiny_dataset();
        let model = StHsl::new(tiny_cfg(), &data).unwrap();
        let sample = data.sample(20).unwrap();
        let pred = model.predict(&data, &sample.input).unwrap();
        assert_eq!(pred.shape(), &[16, 4]);
        assert!(pred.data().iter().all(|&v| v >= 0.0 && v.is_finite()));
    }

    #[test]
    fn save_restore_preserves_predictions() {
        let data = tiny_dataset();
        let model = StHsl::new(tiny_cfg(), &data).unwrap();
        let sample = data.sample(20).unwrap();
        let before = model.predict(&data, &sample.input).unwrap();
        let mut path = std::env::temp_dir();
        path.push(format!("sthsl_model_{}.bin", std::process::id()));
        model.export_checkpoint().save(&path).unwrap();
        // A fresh model with a different seed predicts differently…
        let mut other = StHsl::new(tiny_cfg().with_seed(999), &data).unwrap();
        let fresh = other.predict(&data, &sample.input).unwrap();
        assert_ne!(fresh.data(), before.data());
        // …until we install the saved parameters.
        let loaded = sthsl_autograd::Checkpoint::load(&path).unwrap();
        other.install_params(&loaded.params).unwrap();
        let restored = other.predict(&data, &sample.input).unwrap();
        assert_eq!(restored.data(), before.data());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn inference_records_only_the_forecasts_ancestors_and_keeps_its_bits() {
        let data = tiny_dataset();
        let s20 = data.sample(20).unwrap();
        let s25 = data.sample(25).unwrap();
        for ab in Ablation::ALL {
            let model = StHsl::new(tiny_cfg().with_ablation(ab), &data).unwrap();

            // Forecast bits equal the prediction of the loss-building pass.
            let reference = |input: &Tensor| {
                let g = Graph::new();
                let pv = model.store.inject(&g);
                let z = data.zscore(input);
                let art = model.forward(&g, &pv, &z, Pass::Loss { corrupt_perm: None }).unwrap();
                sanitize_counts(g.value(art.pred).as_ref().clone())
            };
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let (want20, want25) = (bits(&reference(&s20.input)), bits(&reference(&s25.input)));
            assert_eq!(bits(&model.predict(&data, &s20.input).unwrap()), want20, "{ab:?}");
            let batch = model.predict_batch(&data, &[&s20.input, &s25.input]).unwrap();
            assert_eq!(bits(&batch[0]), want20, "{ab:?}: batch[0]");
            assert_eq!(bits(&batch[1]), want25, "{ab:?}: batch[1]");

            // Every op node on the serving tape is an ancestor of the root.
            let (g, root, _) = model.serving_artifacts(&data).unwrap();
            assert_eq!(ops_off_the_path(&g, root), Vec::<String>::new(), "{ab:?}");
            let spec = g.export_tape();

            // Without fusion the head reads only the global view: no local
            // convolution and no contrastive node is recorded. The conv1d
            // nodes left are the global temporal layers (Eq. 5).
            let parts = ab.parts();
            if parts.head == Head::Global {
                let count = |op: &str| spec.nodes.iter().filter(|n| n.kind.name() == op).count();
                let global_convs =
                    if parts.global_temporal { model.cfg.global_temporal_layers } else { 0 };
                assert_eq!(count("conv2d"), 0, "{ab:?}");
                assert_eq!(count("info_nce_diag"), 0, "{ab:?}");
                assert_eq!(count("conv1d"), global_convs, "{ab:?}");
            }
        }
    }

    #[test]
    fn install_params_rejects_mismatched_config() {
        let data = tiny_dataset();
        let mut model = StHsl::new(tiny_cfg(), &data).unwrap();
        // A model built with a different embedding width has same-named
        // params with different shapes.
        let other = StHsl::new(StHslConfig { d: 8, ..tiny_cfg() }, &data).unwrap();
        let err = model.install_params(&other.store).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("model config expects"), "unexpected error: {msg}");
        // Matching config installs and reproduces the source's predictions.
        let donor = StHsl::new(tiny_cfg().with_seed(7), &data).unwrap();
        model.install_params(&donor.store).unwrap();
        let sample = data.sample(20).unwrap();
        let a = model.predict(&data, &sample.input).unwrap();
        let b = donor.predict(&data, &sample.input).unwrap();
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn release_mode_shape_guards_are_typed_errors() {
        let data = tiny_dataset();
        let model = StHsl::new(tiny_cfg(), &data).unwrap();
        let g = Graph::new();
        let pv = model.store.inject(&g);
        // Wrong category count reaches the embedding guard even in release
        // builds (this used to be a debug_assert that compiled away).
        let bad = Tensor::zeros(&[16, 7, 5]);
        let Err(err) = model.forward(&g, &pv, &bad, Pass::Predict) else {
            panic!("mis-shaped window accepted")
        };
        assert!(err.to_string().contains("16"), "untyped error: {err}");
    }

    #[test]
    fn top_regions_for_hyperedge_sorted() {
        let data = tiny_dataset();
        let model = StHsl::new(tiny_cfg(), &data).unwrap();
        let top = model.top_regions_for_hyperedge(0, 3).unwrap();
        assert_eq!(top.len(), 3);
        assert!(top[0].1 >= top[1].1 && top[1].1 >= top[2].1);
        assert!(model.top_regions_for_hyperedge(999, 3).is_err());
    }

    /// At quick width the training tape keeps exactly two permutes: the
    /// node-layout flattenings of E and of its corruption for the global
    /// branch. The convs read their layouts through views and the
    /// hypergraph's second hop reads its incidence transposed, so neither
    /// adds a copy.
    #[test]
    fn training_tape_keeps_only_the_two_node_layout_permutes() {
        use sthsl_autograd::OpKind;
        let data = tiny_dataset();
        let model = StHsl::new(StHslConfig::quick(), &data).unwrap();
        let (g, _, _) = model.audit_artifacts(&data).unwrap();
        let tape = g.export_tape();
        let permutes: Vec<_> =
            tape.nodes.iter().filter(|n| matches!(n.kind, OpKind::Permute { .. })).collect();
        assert_eq!(permutes.len(), 2, "{permutes:?}");
        let flatten = OpKind::Permute { perm: vec![1, 0, 2, 3] };
        assert!(permutes.iter().all(|p| p.kind == flatten), "{permutes:?}");
        // E itself (the embedding's broadcast product) and its corruption,
        // a region shuffle of E.
        let (e, corrupt) = (permutes[0].parents[0], &tape.nodes[permutes[1].parents[0]]);
        assert_eq!(tape.nodes[e].kind, OpKind::Mul);
        assert!(matches!(corrupt.kind, OpKind::IndexSelect { axis: 0, .. }), "{corrupt:?}");
        assert_eq!(corrupt.parents, [e]);
    }
}
