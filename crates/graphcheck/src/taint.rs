//! NaN-hazard taint: a sign/positivity abstract interpretation of the tape.
//!
//! Each node gets a value from the three-point lattice `Pos ⊑ NonNeg ⊑ Any`
//! ("every element provably > 0", "provably >= 0", "unknown"). Transfer
//! functions mirror the kernels: `exp`/`sigmoid`/`softmax` produce `Pos`,
//! `square` produces `NonNeg`, arithmetic combines operand facts, and shape
//! ops pass facts through. The hazard checks then fire on exactly the ops
//! that can mint a NaN from finite inputs:
//!
//! * `ln_eps(x)` — unless `x` is `Pos`, or `NonNeg` with `eps > 0`;
//! * `sqrt_eps(x)` — unless `x` is at least `NonNeg` (with any `eps >= 0`);
//! * `div(a, b)` — unless the denominator `b` is `Pos`.
//!
//! A hazard is a **Warning** (the values might still be safe at runtime),
//! reported with the producer chain of the unproven operand so the guard —
//! usually a missing `+ eps`, `softmax`, or `square` — is obvious.

use sthsl_autograd::{OpKind, TapeSpec};

use crate::chain::{node_desc, producer_chain};
use crate::report::{Diagnostic, Pass, Severity};

/// Positivity fact for every element of a node's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Sign {
    /// Provably `> 0` elementwise.
    Pos,
    /// Provably `>= 0` elementwise.
    NonNeg,
    /// No positivity fact.
    Any,
}

impl Sign {
    fn at_least_nonneg(self) -> bool {
        matches!(self, Sign::Pos | Sign::NonNeg)
    }

    /// Lattice join: the weakest fact that covers both.
    fn join(self, other: Sign) -> Sign {
        self.max(other)
    }
}

/// Run the taint pass, appending hazard warnings to `diags`. Returns the
/// per-node sign facts (exposed for tests and future passes).
pub fn analyze(
    spec: &TapeSpec,
    shapes: &[Option<Vec<usize>>],
    diags: &mut Vec<Diagnostic>,
) -> Vec<Sign> {
    let mut signs: Vec<Sign> = Vec::with_capacity(spec.nodes.len());
    for (i, node) in spec.nodes.iter().enumerate() {
        let sign_of = |p: usize| signs[p];
        let sign = transfer(&node.kind, &node.parents, shapes, &sign_of);
        check_hazard(spec, i, &signs, diags);
        signs.push(sign);
    }
    signs
}

/// Emit a warning if node `i` is a hazard op whose guard is unproven.
fn check_hazard(spec: &TapeSpec, i: usize, signs: &[Sign], diags: &mut Vec<Diagnostic>) {
    let node = &spec.nodes[i];
    let (operand, why) = match &node.kind {
        OpKind::LnEps { eps } => {
            let Some(&x) = node.parents.first() else { return };
            let safe = signs[x] == Sign::Pos || (signs[x] == Sign::NonNeg && *eps > 0.0);
            if safe {
                return;
            }
            (x, format!("argument of ln_eps(eps={eps:e}) is not provably positive"))
        }
        OpKind::SqrtEps { eps } => {
            let Some(&x) = node.parents.first() else { return };
            if signs[x].at_least_nonneg() {
                return;
            }
            (x, format!("argument of sqrt_eps(eps={eps:e}) is not provably non-negative"))
        }
        OpKind::Div => {
            let Some(&d) = node.parents.get(1) else { return };
            if signs[d] == Sign::Pos {
                return;
            }
            (d, "denominator is not provably positive".to_string())
        }
        _ => return,
    };
    diags.push(Diagnostic {
        pass: Pass::NanTaint,
        severity: Severity::Warning,
        node: Some(i),
        msg: format!(
            "{}: {why} (operand %{operand} = {}); chain: {}",
            node.kind.name(),
            node_desc(spec, operand),
            producer_chain(spec, operand)
        ),
    });
}

/// Abstract transfer function: output sign from operand signs.
///
/// Float attribute tests use `> 0.0` / `>= 0.0` branch ordering rather than
/// equality so the rules stay total over NaN attributes (which fall through
/// to the conservative `Any` arm).
fn transfer(
    kind: &OpKind,
    parents: &[usize],
    shapes: &[Option<Vec<usize>>],
    sign_of: &dyn Fn(usize) -> Sign,
) -> Sign {
    let p = |k: usize| parents.get(k).map_or(Sign::Any, |&x| sign_of(x));
    match kind {
        OpKind::Leaf | OpKind::Constant | OpKind::Opaque { .. } => Sign::Any,

        // Strictly positive ranges.
        OpKind::Exp | OpKind::Sigmoid | OpKind::SoftmaxLastdim | OpKind::Softplus => Sign::Pos,

        OpKind::Square => {
            if p(0) == Sign::Pos {
                Sign::Pos
            } else {
                Sign::NonNeg
            }
        }

        // InfoNCE loss: logsumexp over a row always >= its diagonal term.
        OpKind::InfoNceDiag => Sign::NonNeg,

        // Odd monotone: preserves the sign facts we track.
        OpKind::Tanh => match p(0) {
            Sign::Pos => Sign::Pos,
            Sign::NonNeg => Sign::NonNeg,
            Sign::Any => Sign::Any,
        },

        // Zeroing ops demote Pos to NonNeg.
        OpKind::Dropout { .. } => p(0).join(Sign::NonNeg),

        OpKind::LeakyRelu { alpha } => {
            if *alpha > 0.0 {
                p(0) // negative inputs stay negative (scaled): sign preserved
            } else if *alpha >= 0.0 {
                // Plain ReLU: clamps to >= 0 regardless of the input, and
                // passes strictly-positive inputs through unchanged.
                if p(0) == Sign::Pos {
                    Sign::Pos
                } else {
                    Sign::NonNeg
                }
            } else {
                Sign::Any
            }
        }

        OpKind::Add => match (p(0), p(1)) {
            (Sign::Pos, s) | (s, Sign::Pos) if s.at_least_nonneg() => Sign::Pos,
            (Sign::NonNeg, Sign::NonNeg) => Sign::NonNeg,
            _ => Sign::Any,
        },

        OpKind::AddScalar { s } => {
            if *s > 0.0 {
                if p(0).at_least_nonneg() {
                    Sign::Pos
                } else {
                    Sign::Any
                }
            } else if *s >= 0.0 {
                p(0)
            } else {
                Sign::Any
            }
        }

        OpKind::Mul => match (p(0), p(1)) {
            (Sign::Pos, Sign::Pos) => Sign::Pos,
            (a, b) if a.at_least_nonneg() && b.at_least_nonneg() => Sign::NonNeg,
            _ => Sign::Any,
        },

        OpKind::Div => match (p(0), p(1)) {
            (Sign::Pos, Sign::Pos) => Sign::Pos,
            (Sign::NonNeg, Sign::Pos) => Sign::NonNeg,
            _ => Sign::Any,
        },

        OpKind::Scale { s } => {
            if *s > 0.0 {
                p(0)
            } else if *s >= 0.0 {
                Sign::NonNeg // scale by zero: all zeros
            } else {
                Sign::Any
            }
        }

        OpKind::SqrtEps { eps } => match p(0) {
            s if s.at_least_nonneg() => {
                if *eps > 0.0 {
                    Sign::Pos
                } else {
                    s
                }
            }
            _ => Sign::Any, // hazard reported separately
        },

        // ln can be negative even on safe inputs.
        OpKind::LnEps { .. } | OpKind::LogSoftmaxLastdim | OpKind::Sub => Sign::Any,

        // Shape-only ops carry facts through unchanged.
        OpKind::Reshape { .. }
        | OpKind::Permute { .. }
        | OpKind::SliceAxis { .. }
        | OpKind::IndexSelect { .. }
        | OpKind::Transpose2d => p(0),

        // Padding inserts zeros.
        OpKind::PadAxis { before, after, .. } => {
            if before + after > 0 {
                p(0).join(Sign::NonNeg)
            } else {
                p(0)
            }
        }

        OpKind::Concat { .. } => parents.iter().map(|&x| sign_of(x)).fold(Sign::Pos, Sign::join),

        // Reductions of positives stay positive only when the reduced extent
        // is provably non-empty; otherwise an empty sum yields exactly zero.
        OpKind::SumAll | OpKind::MeanAll => {
            let known_nonempty = parents
                .first()
                .and_then(|&x| shapes.get(x))
                .and_then(|s| s.as_ref())
                .is_some_and(|s| s.iter().product::<usize>() >= 1);
            reduce_sign(p(0), known_nonempty)
        }

        OpKind::SumAxis { axis } | OpKind::MeanAxis { axis } => {
            let known_nonempty = parents
                .first()
                .and_then(|&x| shapes.get(x))
                .and_then(|s| s.as_ref())
                .is_some_and(|s| s.get(*axis).copied().unwrap_or(0) >= 1);
            reduce_sign(p(0), known_nonempty)
        }

        // Sum of pairwise products: positive when both factors are, with a
        // provably non-empty inner extent (k >= 1 is guaranteed by shape
        // checks, but stay conservative when shapes are unknown).
        OpKind::Matmul | OpKind::BatchedMatmul => {
            let inner_known = parents
                .first()
                .and_then(|&x| shapes.get(x))
                .and_then(|s| s.as_ref())
                .is_some_and(|s| s.last().copied().unwrap_or(0) >= 1);
            match (p(0), p(1)) {
                (Sign::Pos, Sign::Pos) if inner_known => Sign::Pos,
                (a, b) if a.at_least_nonneg() && b.at_least_nonneg() => Sign::NonNeg,
                _ => Sign::Any,
            }
        }

        // Signed kernels: no facts survive.
        OpKind::Conv2d { .. } | OpKind::Conv1d { .. } => Sign::Any,
    }
}

fn reduce_sign(operand: Sign, known_nonempty: bool) -> Sign {
    match operand {
        Sign::Pos => {
            if known_nonempty {
                Sign::Pos
            } else {
                Sign::NonNeg
            }
        }
        Sign::NonNeg => Sign::NonNeg,
        Sign::Any => Sign::Any,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(spec: &TapeSpec) -> (Vec<Sign>, Vec<Diagnostic>) {
        let mut diags = vec![];
        let shapes = crate::shape::analyze(spec, &mut diags).shapes;
        assert!(diags.is_empty(), "fixture should be shape-clean: {diags:?}");
        let signs = analyze(spec, &shapes, &mut diags);
        (signs, diags)
    }

    #[test]
    fn unguarded_ln_on_a_leaf_is_a_hazard() {
        let mut spec = TapeSpec::new();
        let w = spec.leaf("w", &[4]);
        let l = spec.push(OpKind::LnEps { eps: 1e-8 }, &[w]);
        let (signs, diags) = run(&spec);
        assert_eq!(signs[w], Sign::Any);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].node, Some(l));
        assert!(diags[0].msg.contains("ln_eps"));
        assert!(diags[0].msg.contains("chain:"));
    }

    #[test]
    fn post_softmax_ln_is_safe() {
        let mut spec = TapeSpec::new();
        let w = spec.leaf("w", &[2, 4]);
        let sm = spec.push(OpKind::SoftmaxLastdim, &[w]);
        let _l = spec.push(OpKind::LnEps { eps: 1e-8 }, &[sm]);
        let (signs, diags) = run(&spec);
        assert_eq!(signs[sm], Sign::Pos);
        assert!(diags.is_empty());
    }

    #[test]
    fn l2_normalize_pattern_is_proven_safe() {
        // x / sqrt(sum(x^2, axis=-1, keepdim) + eps) — the analyzer must
        // prove the denominator Pos: square -> NonNeg, sum_axis -> NonNeg,
        // sqrt_eps(eps>0) -> Pos.
        let mut spec = TapeSpec::new();
        let x = spec.leaf("x", &[3, 8]);
        let sq = spec.push(OpKind::Square, &[x]);
        let s = spec.push(OpKind::SumAxis { axis: 1 }, &[sq]);
        let keep = spec.push(OpKind::Reshape { shape: vec![3, 1] }, &[s]);
        let norm = spec.push(OpKind::SqrtEps { eps: 1e-8 }, &[keep]);
        let _out = spec.push(OpKind::Div, &[x, norm]);
        let (signs, diags) = run(&spec);
        assert_eq!(signs[sq], Sign::NonNeg);
        assert_eq!(signs[norm], Sign::Pos);
        assert!(diags.is_empty(), "expected no hazards, got {diags:?}");
    }

    #[test]
    fn division_by_unproven_denominator_warns_with_chain() {
        let mut spec = TapeSpec::new();
        let a = spec.leaf("a", &[4]);
        let b = spec.leaf("b", &[4]);
        let m = spec.push(OpKind::Mul, &[b, b]); // NonNeg, not Pos
        let d = spec.push(OpKind::Div, &[a, m]);
        let (_signs, diags) = run(&spec);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].node, Some(d));
        assert!(diags[0].msg.contains("denominator is not provably positive"));
        assert!(diags[0].msg.contains(&format!("%{m}")));
    }

    #[test]
    fn relu_and_add_scalar_build_positivity() {
        let mut spec = TapeSpec::new();
        let w = spec.leaf("w", &[4]);
        let r = spec.push(OpKind::LeakyRelu { alpha: 0.0 }, &[w]);
        let shifted = spec.push(OpKind::AddScalar { s: 1e-6 }, &[r]);
        let _d = spec.push(OpKind::Div, &[w, shifted]);
        let (signs, diags) = run(&spec);
        assert_eq!(signs[r], Sign::NonNeg);
        assert_eq!(signs[shifted], Sign::Pos);
        assert!(diags.is_empty());
    }

    #[test]
    fn leaky_relu_preserves_but_does_not_create_facts() {
        let mut spec = TapeSpec::new();
        let w = spec.leaf("w", &[4]);
        let lr = spec.push(OpKind::LeakyRelu { alpha: 0.1 }, &[w]);
        let e = spec.push(OpKind::Exp, &[w]);
        let lr2 = spec.push(OpKind::LeakyRelu { alpha: 0.1 }, &[e]);
        let (signs, _) = run(&spec);
        assert_eq!(signs[lr], Sign::Any);
        assert_eq!(signs[lr2], Sign::Pos);
    }
}
