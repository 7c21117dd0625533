//! Differentiable matrix products.

use crate::graph::{Graph, Var};
use crate::tape::OpKind;
use sthsl_tensor::Result;

impl Graph {
    /// 2-D matrix product `[m,k] · [k,n] → [m,n]`.
    pub fn matmul(&self, a: Var, b: Var) -> Result<Var> {
        let (av, bv) = (self.value(a), self.value(b));
        let out = av.matmul(&bv)?;
        Ok(self.op(
            OpKind::Matmul,
            out,
            vec![a, b],
            Box::new(|g, p, _| {
                Ok(vec![Some(g.matmul_transpose(&p[1])?), Some(p[0].transpose_matmul(g)?)])
            }),
        ))
    }

    /// Batched matrix product `[b,m,k] · [b,k,n] → [b,m,n]`.
    pub fn batched_matmul(&self, a: Var, b: Var) -> Result<Var> {
        let (av, bv) = (self.value(a), self.value(b));
        let out = av.batched_matmul(&bv)?;
        Ok(self.op(
            OpKind::BatchedMatmul { lhs_transposed: false },
            out,
            vec![a, b],
            Box::new(|g, p, _| {
                Ok(vec![
                    Some(g.batched_matmul_transpose(&p[1])?),
                    Some(p[0].batched_transpose_matmul(g)?),
                ])
            }),
        ))
    }

    /// Batched product with transposed lhs matrices,
    /// `[b,k,m]ᵀ · [b,k,n] → [b,m,n]`, the lhs read in place. For
    /// `y = aᵀ·c`: `grad_c = a·G`, a plain product, and `grad_a = c·Gᵀ`.
    /// These are the bits of `permute(a) → batched_matmul` for finite
    /// values; `grad_a` skips a term on a zero element of `c` where that
    /// pair skipped it on a zero of `G`, which differs only where the other
    /// factor is non-finite (`0·∞` is NaN).
    pub fn batched_transpose_matmul(&self, a: Var, c: Var) -> Result<Var> {
        let (av, cv) = (self.value(a), self.value(c));
        let out = av.batched_transpose_matmul(&cv)?;
        Ok(self.op(
            OpKind::BatchedMatmul { lhs_transposed: true },
            out,
            vec![a, c],
            Box::new(|g, p, _| {
                Ok(vec![Some(p[1].batched_matmul_transpose(g)?), Some(p[0].batched_matmul(g)?)])
            }),
        ))
    }

    /// 2-D transpose.
    pub fn transpose2d(&self, x: Var) -> Result<Var> {
        let out = self.value(x).transpose2d()?;
        Ok(self.op(
            OpKind::Transpose2d,
            out,
            vec![x],
            Box::new(|g, _, _| Ok(vec![Some(g.transpose2d()?)])),
        ))
    }
}

#[cfg(test)]
mod tests {
    use crate::gradcheck::gradcheck;
    use crate::graph::{Graph, Var};
    use rand::{rngs::StdRng, SeedableRng};
    use sthsl_tensor::{Result, Tensor};

    #[test]
    fn matmul_grads() {
        let mut rng = StdRng::seed_from_u64(1);
        gradcheck(
            &[
                Tensor::rand_normal(&[3, 4], 0.0, 1.0, &mut rng),
                Tensor::rand_normal(&[4, 2], 0.0, 1.0, &mut rng),
            ],
            |g, vars| {
                let y = g.matmul(vars[0], vars[1])?;
                Ok(g.sum_all(y))
            },
        );
    }

    #[test]
    fn batched_matmul_grads() {
        let mut rng = StdRng::seed_from_u64(2);
        gradcheck(
            &[
                Tensor::rand_normal(&[2, 3, 4], 0.0, 1.0, &mut rng),
                Tensor::rand_normal(&[2, 4, 2], 0.0, 1.0, &mut rng),
            ],
            |g, vars| {
                let y = g.batched_matmul(vars[0], vars[1])?;
                Ok(g.sum_all(y))
            },
        );
        // Wider than one 16-lane register tile, with exact zeros in the lhs
        // and a weighted loss so every output column gets its own gradient.
        let mut lhs = Tensor::rand_normal(&[2, 3, 5], 0.0, 1.0, &mut rng);
        lhs.data_mut().iter_mut().step_by(3).for_each(|v| *v = 0.0);
        let weights = Tensor::rand_normal(&[2, 3, 21], 0.0, 1.0, &mut rng);
        gradcheck(&[lhs, Tensor::rand_normal(&[2, 5, 21], 0.0, 1.0, &mut rng)], |g, vars| {
            let y = g.batched_matmul(vars[0], vars[1])?;
            let w = g.constant(weights.clone());
            let wy = g.mul(y, w)?;
            Ok(g.sum_all(wy))
        });
    }

    /// A normal tensor with every `every`-th element exactly zero.
    fn sparse(rng: &mut StdRng, shape: &[usize], every: usize) -> Tensor {
        let mut t = Tensor::rand_normal(shape, 0.0, 1.0, rng);
        t.data_mut().iter_mut().step_by(every).for_each(|v| *v = 0.0);
        t
    }

    /// Gradients of `sum(product(a, b) ⊙ upstream)`: exactly `upstream`
    /// reaches the product node, so its backward sees that gradient bit for
    /// bit.
    fn product_grads(
        a: &Tensor,
        b: &Tensor,
        upstream: &Tensor,
        product: impl Fn(&Graph, Var, Var) -> Result<Var>,
    ) -> (Tensor, Tensor) {
        let g = Graph::new();
        let (av, bv) = (g.leaf(a.clone()), g.leaf(b.clone()));
        let y = product(&g, av, bv).unwrap();
        let weighted = g.mul(y, g.constant(upstream.clone())).unwrap();
        let grads = g.backward(g.sum_all(weighted)).unwrap();
        (grads.get(av).unwrap().clone(), grads.get(bv).unwrap().clone())
    }

    fn assert_same_bits(label: &str, got: &Tensor, want: &Tensor) {
        assert_eq!(got.shape(), want.shape(), "{label}");
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{label}");
    }

    #[test]
    fn batched_transpose_matmul_grads() {
        let mut rng = StdRng::seed_from_u64(7);
        // `[b,k,m]ᵀ · [b,k,n]` with m < k and n past one register tile, a
        // weighted loss so every output element has its own gradient.
        let weights = Tensor::rand_normal(&[2, 3, 19], 0.0, 1.0, &mut rng);
        gradcheck(
            &[
                sparse(&mut rng, &[2, 5, 3], 4),
                Tensor::rand_normal(&[2, 5, 19], 0.0, 1.0, &mut rng),
            ],
            |g, vars| {
                let y = g.batched_transpose_matmul(vars[0], vars[1])?;
                let wy = g.mul(y, g.constant(weights.clone()))?;
                Ok(g.sum_all(wy))
            },
        );
    }

    /// The transposed-lhs op against the permuted copy it replaces: the
    /// hypergraph's hop 2, `Hᵀ·hubs`, at its shape and at one with m > k,
    /// with zeros in every operand and in the upstream gradient. On finite
    /// values the output and both gradients match bit for bit.
    #[test]
    fn batched_transpose_matmul_equals_permute_then_product() {
        let mut rng = StdRng::seed_from_u64(9);
        for (tw, edges, nodes, d) in [(3, 20, 72, 16), (2, 9, 4, 21)] {
            let h = sparse(&mut rng, &[tw, edges, nodes], 6);
            let hubs = sparse(&mut rng, &[tw, edges, d], 4);
            let gy = sparse(&mut rng, &[tw, nodes, d], 3);
            let (ga, gb) = product_grads(&h, &hubs, &gy, Graph::batched_transpose_matmul);
            let (want_ga, want_gb) = product_grads(&h, &hubs, &gy, |g, a, b| {
                let at = g.permute(a, &[0, 2, 1])?;
                g.batched_matmul(at, b)
            });
            let label = format!("[{tw},{edges},{nodes}]ᵀ·[{tw},{edges},{d}]");
            assert_same_bits(&format!("{label} grad_a"), &ga, &want_ga);
            assert_same_bits(&format!("{label} grad_b"), &gb, &want_gb);
            let y = h.batched_transpose_matmul(&hubs).unwrap();
            let want = h.permute(&[0, 2, 1]).unwrap().batched_matmul(&hubs).unwrap();
            assert_same_bits(&format!("{label} forward"), &y, &want);
        }
    }

    /// [`sparse`] plus, when `special`, NaN, +∞ and −∞ at every 5th element
    /// from the 3rd on. No row length below is a multiple of 5, so every row
    /// and column holds one, and each zero of one factor meets a non-finite
    /// value in the other.
    fn operand(rng: &mut StdRng, shape: &[usize], every: usize, special: bool) -> Tensor {
        let mut t = sparse(rng, shape, every);
        if special {
            let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY].into_iter().cycle();
            t.data_mut().iter_mut().skip(2).step_by(5).zip(specials).for_each(|(v, s)| *v = s);
        }
        t
    }

    /// The backward products that read an operand transposed in place
    /// against the expressions they replaced, which copied it first with
    /// `permute` or `transpose2d`. The shapes are the hypergraph's (incidence
    /// `[Tw, H, RC]`, embeddings `[Tw, RC, d]`, hop 1 then hop 2) and one
    /// whose every product has a row count that is not a multiple of the
    /// kernel's 4-row tile; zeros sit in every operand and upstream
    /// gradient, on finite values and then with NaN and ±∞ in the factor
    /// opposite each zero. Every gradient matches bit for bit.
    #[test]
    fn transposed_lhs_backward_equals_permuted_copy_formula() {
        let mut rng = StdRng::seed_from_u64(6);
        let swap = [0, 2, 1];
        for special in [false, true] {
            for (tw, edges, nodes, d) in [(3, 20, 72, 16), (2, 9, 7, 21)] {
                let mut op = |shape: &[usize], every| operand(&mut rng, shape, every, special);
                let h = op(&[tw, edges, nodes], 6);
                let e = op(&[tw, nodes, d], 5);
                let hubs = op(&[tw, edges, d], 4);
                let (g_hubs, g_out) = (op(&[tw, edges, d], 3), op(&[tw, nodes, d], 3));
                let ht = h.permute(&swap).unwrap();
                let tag = format!("[{tw},{edges},{nodes},{d}] special={special}");
                // `Graph::batched_matmul`: grad_a was `G·permute(B)`.
                for (hop, a, b, gy) in [("hop 1", &h, &e, &g_hubs), ("hop 2", &ht, &hubs, &g_out)] {
                    let (ga, gb) = product_grads(a, b, gy, Graph::batched_matmul);
                    let want_ga = gy.batched_matmul(&b.permute(&swap).unwrap()).unwrap();
                    let want_gb = a.permute(&swap).unwrap().batched_matmul(gy).unwrap();
                    assert_same_bits(&format!("{hop} {tag} grad_a"), &ga, &want_ga);
                    assert_same_bits(&format!("{hop} {tag} grad_b"), &gb, &want_gb);
                }
                // `Graph::batched_transpose_matmul`: grad_a was `C·permute(G)`.
                let (ga, gc) = product_grads(&h, &hubs, &g_out, Graph::batched_transpose_matmul);
                let want_ga = hubs.batched_matmul(&g_out.permute(&swap).unwrap()).unwrap();
                assert_same_bits(&format!("Hᵀ·hubs {tag} grad_a"), &ga, &want_ga);
                assert_same_bits(
                    &format!("Hᵀ·hubs {tag} grad_c"),
                    &gc,
                    &h.batched_matmul(&g_out).unwrap(),
                );
                // `Graph::matmul`: grad_a was `G·transpose2d(B)`.
                let (a, b) = (op(&[edges, nodes], 6), op(&[nodes, d], 5));
                let gy = op(&[edges, d], 3);
                let (ga, gb) = product_grads(&a, &b, &gy, Graph::matmul);
                let want_ga = gy.matmul(&b.transpose2d().unwrap()).unwrap();
                assert_same_bits(&format!("2-D {tag} grad_a"), &ga, &want_ga);
                let want_gb = a.transpose2d().unwrap().matmul(&gy).unwrap();
                assert_same_bits(&format!("2-D {tag} grad_b"), &gb, &want_gb);
            }
        }
    }

    #[test]
    fn transpose_grads() {
        let mut rng = StdRng::seed_from_u64(3);
        gradcheck(&[Tensor::rand_normal(&[3, 5], 0.0, 1.0, &mut rng)], |g, vars| {
            let t = g.transpose2d(vars[0])?;
            let sq = g.square(t);
            Ok(g.sum_all(sq))
        });
    }

    #[test]
    fn chained_matmul_hypergraph_shape() {
        // The hypergraph propagation pattern: σ(Hᵀ σ(H · E)).
        let mut rng = StdRng::seed_from_u64(4);
        gradcheck(
            &[
                Tensor::rand_normal(&[3, 6], 0.0, 0.5, &mut rng), // H: hyperedges × nodes
                Tensor::rand_normal(&[6, 2], 0.0, 0.5, &mut rng), // E: nodes × d
            ],
            |g, vars| {
                let he = g.matmul(vars[0], vars[1])?;
                let he = g.leaky_relu(he, 0.1);
                let ht = g.transpose2d(vars[0])?;
                let out = g.matmul(ht, he)?;
                let out = g.leaky_relu(out, 0.1);
                Ok(g.sum_all(out))
            },
        );
    }
}
