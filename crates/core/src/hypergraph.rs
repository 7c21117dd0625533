//! Hypergraph global dependency modelling (paper Eq. 4).
//!
//! A learnable incidence structure `H_t ∈ R^{H×RC}` connects every
//! (region, category) node to `H` hyperedges. Message passing is
//! `Γ_t = σ(H_tᵀ · σ(H_t · E_t))`: node features are aggregated into
//! hyperedge "hub" representations and broadcast back, giving every region a
//! city-wide receptive field in two hops. With
//! `time_dependent_hypergraph`, a distinct `H_t` is learned per window
//! position, capturing the paper's time-evolving global connectivity.

use rand::Rng;
use sthsl_autograd::{Graph, ParamId, ParamStore, ParamVars, Var};
use sthsl_tensor::{Result, Tensor};

/// Learnable region↔hyperedge encoder.
pub struct HypergraphEncoder {
    /// `[Tw, H, RC]` when time-dependent, else `[H, RC]`.
    hyp: ParamId,
    num_hyperedges: usize,
    num_nodes: usize,
    window: usize,
    time_dependent: bool,
}

impl HypergraphEncoder {
    /// Register the hypergraph structure for `num_nodes = R·C` nodes.
    ///
    /// `_sparse_propagation` has no effect: propagation is always dense. The
    /// argument is deleted with the next benchmark change.
    pub fn new(
        store: &mut ParamStore,
        num_hyperedges: usize,
        num_nodes: usize,
        window: usize,
        time_dependent: bool,
        _sparse_propagation: bool,
        rng: &mut impl Rng,
    ) -> Self {
        let shape: Vec<usize> = if time_dependent {
            vec![window, num_hyperedges, num_nodes]
        } else {
            vec![num_hyperedges, num_nodes]
        };
        // Small init keeps the two-hop propagation well-conditioned.
        let hyp = store.register("hypergraph.h", Tensor::rand_normal(&shape, 0.0, 0.05, rng));
        HypergraphEncoder { hyp, num_hyperedges, num_nodes, window, time_dependent }
    }

    /// Propagate: `E: [Tw, RC, d] → Γ^{(R)}: [Tw, RC, d]`.
    pub fn forward(&self, g: &Graph, pv: &ParamVars, e: Var) -> Result<Var> {
        let shape = g.shape_of(e)?;
        crate::guard::expect_rank("hypergraph.h", &shape, 3)?;
        crate::guard::expect_dim("hypergraph.h", &shape, 0, self.window)?;
        crate::guard::expect_dim("hypergraph.h", &shape, 1, self.num_nodes)?;
        let tw = shape[0];
        let h_struct = if self.time_dependent {
            pv.var(self.hyp) // already [Tw, H, RC]
        } else {
            // Broadcast the shared structure across the window.
            let hv = pv.var(self.hyp);
            let per_t: Vec<Var> = vec![hv; tw];
            g.stack(&per_t)? // [Tw, H, RC]; gradient accumulates over t
        };
        // Node → hyperedge: [Tw,H,RC]·[Tw,RC,d] → [Tw,H,d].
        let hubs = g.batched_matmul(h_struct, e)?;
        let hubs = g.leaky_relu(hubs, 0.1);
        // Hyperedge → node: [Tw,H,RC]ᵀ·[Tw,H,d] → [Tw,RC,d], the incidence
        // read transposed in place.
        let out = g.batched_transpose_matmul(h_struct, hubs)?;
        Ok(g.leaky_relu(out, 0.1))
    }

    /// The raw incidence parameter (for regularisation bookkeeping).
    pub fn structure(&self, pv: &ParamVars) -> Var {
        pv.var(self.hyp)
    }

    /// Hyperedge→node relevance scores for interpretation (Fig. 8): the
    /// absolute incidence weights, averaged over the window when
    /// time-dependent, as an `[H, RC]` tensor.
    pub fn relevance(&self, store: &ParamStore) -> Result<Tensor> {
        let raw = store.get(self.hyp);
        let abs = raw.map(f32::abs);
        if self.time_dependent {
            abs.mean_axis(0)
        } else {
            Ok(abs)
        }
    }

    /// Relevance at a specific window position (`[H, RC]`); falls back to the
    /// shared structure when not time-dependent.
    pub fn relevance_at(&self, store: &ParamStore, t: usize) -> Result<Tensor> {
        let raw = store.get(self.hyp);
        if self.time_dependent {
            let slice = raw.slice_axis(0, t.min(self.window - 1), 1)?;
            Ok(slice.reshape(&[self.num_hyperedges, self.num_nodes])?.map(f32::abs))
        } else {
            Ok(raw.map(f32::abs))
        }
    }

    /// Number of hyperedges.
    pub fn num_hyperedges(&self) -> usize {
        self.num_hyperedges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn setup(time_dependent: bool) -> (ParamStore, HypergraphEncoder) {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let enc = HypergraphEncoder::new(&mut store, 4, 6, 3, time_dependent, false, &mut rng);
        (store, enc)
    }

    #[test]
    fn forward_shapes_both_modes() {
        for td in [false, true] {
            let (store, enc) = setup(td);
            let g = Graph::new();
            let pv = store.inject(&g);
            let mut rng = StdRng::seed_from_u64(6);
            let e = g.constant(Tensor::rand_normal(&[3, 6, 2], 0.0, 1.0, &mut rng));
            let out = enc.forward(&g, &pv, e).unwrap();
            assert_eq!(g.shape_of(out).unwrap(), vec![3, 6, 2]);
        }
    }

    #[test]
    fn propagation_is_global() {
        // Perturbing node 0 should (generically) change node 5's output —
        // the whole point of hyperedge hubs.
        let (store, enc) = setup(false);
        let run = |bump: f32| {
            let g = Graph::new();
            let pv = store.inject(&g);
            let mut rng = StdRng::seed_from_u64(7);
            let mut x = Tensor::rand_normal(&[3, 6, 2], 0.0, 1.0, &mut rng);
            x.data_mut()[0] += bump;
            let e = g.constant(x);
            let out = enc.forward(&g, &pv, e).unwrap();
            g.value(out).as_ref().clone()
        };
        let a = run(0.0);
        let b = run(5.0);
        // Node 5 of window position 0: flat offset 5*2.
        let off = 5 * 2;
        assert!(
            (a.data()[off] - b.data()[off]).abs() > 1e-7,
            "hypergraph did not propagate globally"
        );
    }

    #[test]
    fn shared_structure_grad_accumulates_over_window() {
        let (store, enc) = setup(false);
        let g = Graph::new();
        let pv = store.inject(&g);
        let e = g.constant(Tensor::ones(&[3, 6, 2]));
        let out = enc.forward(&g, &pv, e).unwrap();
        let sq = g.square(out);
        let loss = g.sum_all(sq);
        let grads = g.backward(loss).unwrap();
        let gh = grads.get(enc.structure(&pv)).unwrap();
        assert_eq!(gh.shape(), &[4, 6]);
        assert!(gh.data().iter().any(|&v| v.abs() > 0.0));
    }

    #[test]
    fn relevance_shapes() {
        let (store, enc) = setup(true);
        let rel = enc.relevance(&store).unwrap();
        assert_eq!(rel.shape(), &[4, 6]);
        assert!(rel.data().iter().all(|&v| v >= 0.0));
        let rel_t = enc.relevance_at(&store, 1).unwrap();
        assert_eq!(rel_t.shape(), &[4, 6]);
        // Out-of-range t clamps instead of erroring.
        assert!(enc.relevance_at(&store, 99).is_ok());
    }

    #[test]
    fn time_dependent_structures_differ_across_t() {
        let (store, enc) = setup(true);
        let a = enc.relevance_at(&store, 0).unwrap();
        let b = enc.relevance_at(&store, 2).unwrap();
        assert_ne!(a.data(), b.data());
    }
}
