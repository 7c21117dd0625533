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
                let ga = g.matmul(&p[1].transpose2d()?)?;
                let gb = p[0].transpose2d()?.matmul(g)?;
                Ok(vec![Some(ga), Some(gb)])
            }),
        ))
    }

    /// Batched matrix product `[b,m,k] · [b,k,n] → [b,m,n]`.
    pub fn batched_matmul(&self, a: Var, b: Var) -> Result<Var> {
        let (av, bv) = (self.value(a), self.value(b));
        let out = av.batched_matmul(&bv)?;
        Ok(self.op(
            OpKind::BatchedMatmul,
            out,
            vec![a, b],
            Box::new(|g, p, _| {
                let bt = p[1].permute(&[0, 2, 1])?;
                let at = p[0].permute(&[0, 2, 1])?;
                Ok(vec![Some(g.batched_matmul(&bt)?), Some(at.batched_matmul(g)?)])
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
    use rand::{rngs::StdRng, SeedableRng};
    use sthsl_tensor::Tensor;

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
