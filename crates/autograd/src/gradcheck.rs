//! Finite-difference gradient verification used throughout the test suite.

use crate::graph::{Graph, Var};
use sthsl_tensor::{Result, Tensor};

/// Check analytic gradients of `f` against central finite differences.
///
/// `f` receives a fresh graph and one leaf `Var` per input tensor and must
/// return a scalar loss variable. Panics (with coordinates) on mismatch, so it
/// is intended for `#[test]` bodies.
///
/// Uses f64-friendly tolerances adapted to f32 arithmetic: the check passes
/// when `|analytic − numeric| ≤ atol + rtol·|numeric|`.
pub fn gradcheck(inputs: &[Tensor], f: impl Fn(&Graph, &[Var]) -> Result<Var>) {
    gradcheck_tol(inputs, 1e-2, 2e-2, f);
}

/// [`gradcheck`] with explicit absolute/relative tolerances.
pub fn gradcheck_tol(
    inputs: &[Tensor],
    atol: f32,
    rtol: f32,
    f: impl Fn(&Graph, &[Var]) -> Result<Var>,
) {
    let failure = try_gradcheck_tol(inputs, atol, rtol, f).err();
    assert!(failure.is_none(), "{}", failure.unwrap_or_default());
}

/// Fallible core of [`gradcheck_tol`]: the first failure — a fallible
/// forward/backward pass, a missing or mis-shaped gradient, or a mismatch
/// against the finite difference — comes back as an error message instead of
/// a panic, so non-test callers can route it through their own reporting.
pub fn try_gradcheck_tol(
    inputs: &[Tensor],
    atol: f32,
    rtol: f32,
    f: impl Fn(&Graph, &[Var]) -> Result<Var>,
) -> std::result::Result<(), String> {
    // Analytic pass.
    let g = Graph::new();
    let vars: Vec<Var> = inputs.iter().map(|t| g.leaf(t.clone())).collect();
    let loss = f(&g, &vars).map_err(|e| format!("forward pass failed: {e}"))?;
    let grads = g.backward(loss).map_err(|e| format!("backward pass failed: {e}"))?;

    let eval = |perturbed: &[Tensor]| -> std::result::Result<f32, String> {
        let g = Graph::new();
        let vars: Vec<Var> = perturbed.iter().map(|t| g.leaf(t.clone())).collect();
        let loss = f(&g, &vars).map_err(|e| format!("forward pass failed: {e}"))?;
        g.value(loss).item().map_err(|e| format!("loss must be scalar: {e}"))
    };

    let eps = 1e-2f32;
    for (vi, input) in inputs.iter().enumerate() {
        let Some(analytic) = grads.get(vars[vi]) else {
            return Err(format!("no gradient flowed to input {vi}"));
        };
        if analytic.shape() != input.shape() {
            return Err(format!(
                "gradient shape mismatch at input {vi}: gradient {:?} vs input {:?}",
                analytic.shape(),
                input.shape()
            ));
        }
        for i in 0..input.len() {
            let mut plus = inputs.to_vec();
            plus[vi].data_mut()[i] += eps;
            let mut minus = inputs.to_vec();
            minus[vi].data_mut()[i] -= eps;
            let numeric = (eval(&plus)? - eval(&minus)?) / (2.0 * eps);
            let a = analytic.data()[i];
            let tol = atol + rtol * numeric.abs();
            if (a - numeric).abs() > tol {
                return Err(format!(
                    "gradient mismatch at input {vi}, flat index {i}: analytic {a}, numeric {numeric} (tol {tol})"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradcheck_accepts_correct_gradient() {
        gradcheck(&[Tensor::from_vec(vec![1.0, -0.5], &[2]).unwrap()], |g, vars| {
            let sq = g.square(vars[0]);
            Ok(g.sum_all(sq))
        });
    }

    #[test]
    #[should_panic(expected = "gradient mismatch")]
    fn gradcheck_rejects_wrong_gradient() {
        // A deliberately wrong op: forward x², backward claims 3x². The kind
        // is only a label; the wrong closure is what gradcheck must catch.
        gradcheck(&[Tensor::from_vec(vec![2.0], &[1]).unwrap()], |g, vars| {
            let xv = g.value(vars[0]);
            let out = xv.map(|v| v * v);
            let bad = g.op(
                crate::tape::OpKind::Square,
                out,
                vec![vars[0]],
                Box::new(|grad, p, _| {
                    Ok(vec![Some(grad.zip_map(&p[0], |gv, xv| gv * 3.0 * xv * xv)?)])
                }),
            );
            Ok(g.sum_all(bad))
        });
    }
}
