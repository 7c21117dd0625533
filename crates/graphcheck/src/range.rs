//! Interval-domain value-range analysis: abstract interpretation of the tape
//! over `[lo, hi] ⊂ f64` boxes, seeded from the declared input ranges the
//! tape export stamps on every input node.
//!
//! The pass proves, per op, that no finite inputs inside the declared ranges
//! can produce an overflow (`±inf`) or mint a NaN — the blocking failure
//! classes — and reports with the full producer chain when a range cannot
//! exclude a pole: `ln(≤ 0)`, `x / 0`, `sqrt(< 0)`.
//!
//! Soundness over f32 execution: transfer functions are evaluated in exact
//! f64 arithmetic on the interval endpoints and then **widened outward** by a
//! relative slack proportional to the op's sequential accumulation length
//! (`(L + 8)·ε_f32`), which dominates the classic `n·ε` worst-case rounding
//! of an `n`-term f32 chain. Two cross-checks keep the analyzer itself
//! honest:
//!
//! * every exported node carries its *observed* runtime `(min, max)`; an
//!   observed value escaping the predicted interval is reported as an
//!   analyzer soundness error, so every audited tape is also a test of the
//!   transfer functions;
//! * the sign-taint lattice ([`crate::taint`]) is compared against the
//!   intervals — a node proven `Pos` whose interval sits at or below zero is
//!   a contradiction between the two abstract domains.
//!
//! One relational refinement is applied on top of the non-relational domain:
//! the **normalized-quotient pattern** `x / sqrt(reduce(x²) + eps)` (l2
//! normalisation, LayerNorm) is bounded by `1` (sum-reduce) or `√m`
//! (mean-reduce over `m` elements) — facts an interval domain cannot see
//! because numerator and denominator are correlated, but which the paper's
//! contrastive branch depends on to stay finite.

use sthsl_autograd::{OpKind, TapeSpec};

use crate::chain::producer_chain;
use crate::report::{Diagnostic, Pass, Severity};
use crate::taint::Sign;

const EPS32: f64 = f32::EPSILON as f64;
/// Absolute outward slack covering subnormal rounding at zero.
const TINY: f64 = 1e-30;
/// Largest magnitude a bound may reach before the op is reported as a
/// potential f32 overflow.
const F32_MAX: f64 = f32::MAX as f64;

/// A closed interval with finite endpoints, `lo <= hi`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    pub lo: f64,
    pub hi: f64,
}

impl Interval {
    fn hull(a: Interval, b: Interval) -> Interval {
        Interval { lo: a.lo.min(b.lo), hi: a.hi.max(b.hi) }
    }

    fn contains_zero(self) -> bool {
        self.lo <= 0.0 && self.hi >= 0.0
    }

    /// Largest magnitude the interval admits.
    pub fn abs_max(self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }
}

/// Per-tape result of the range pass.
#[derive(Debug, Clone, Default)]
pub struct RangeSummary {
    /// Intervals per node (`None` = unknown: unranged input, opaque op, or
    /// poisoned by an upstream finding).
    pub intervals: Vec<Option<Interval>>,
    /// Nodes with a bounded interval.
    pub bounded: usize,
    /// Total nodes.
    pub total: usize,
    /// Largest bound magnitude across all proven intervals.
    pub max_abs_bound: f64,
}

/// Run the range pass. `signs` are the taint facts (for the cross-domain
/// check) and `own_extents` the per-op sequential accumulation lengths (for
/// rounding-aware widening).
pub fn analyze(
    spec: &TapeSpec,
    shapes: &[Option<Vec<usize>>],
    signs: &[Sign],
    own_extents: &[u64],
    diags: &mut Vec<Diagnostic>,
) -> RangeSummary {
    let n = spec.nodes.len();
    let mut iv: Vec<Option<Interval>> = Vec::with_capacity(n);
    for i in 0..n {
        let node = &spec.nodes[i];
        let raw = if node.kind.is_input() {
            input_interval(spec, i, diags)
        } else {
            transfer(spec, shapes, &iv, i, diags)
        };
        let finished = raw.and_then(|(lo, hi)| {
            let slack = (own_extents.get(i).copied().unwrap_or(1) as f64 + 8.0) * EPS32;
            let lo = lo - lo.abs() * slack - TINY;
            let hi = hi + hi.abs() * slack + TINY;
            if !lo.is_finite() || !hi.is_finite() || hi > F32_MAX || lo < -F32_MAX {
                diags.push(Diagnostic {
                    pass: Pass::ValueRange,
                    severity: Severity::Error,
                    node: Some(i),
                    msg: format!(
                        "{}: value bound reaches {:.3e} — exceeds f32 range, may overflow to \
                         ±inf; chain: {}",
                        node.kind.name(),
                        if hi.abs() >= lo.abs() { hi } else { lo },
                        producer_chain(spec, i)
                    ),
                });
                None
            } else {
                Some(Interval { lo, hi })
            }
        });
        if let Some(interval) = finished {
            cross_check(spec, i, interval, signs, diags);
        }
        iv.push(finished);
    }

    let bounded = iv.iter().flatten().count();
    let max_abs_bound = iv.iter().flatten().map(|v| v.abs_max()).fold(0.0f64, f64::max);
    RangeSummary { intervals: iv, bounded, total: n, max_abs_bound }
}

/// Declared range of an input node. NaN / ±inf in the declared range are
/// blocking errors — training from poisoned inputs cannot be proven safe.
fn input_interval(spec: &TapeSpec, i: usize, diags: &mut Vec<Diagnostic>) -> Option<(f64, f64)> {
    let node = &spec.nodes[i];
    let (lo, hi) = node.value_range?;
    if lo.is_nan() || hi.is_nan() {
        diags.push(Diagnostic {
            pass: Pass::ValueRange,
            severity: Severity::Error,
            node: Some(i),
            msg: format!(
                "input {} contains NaN; every downstream op is poisoned",
                crate::chain::node_desc(spec, i)
            ),
        });
        return None;
    }
    if lo.is_infinite() || hi.is_infinite() {
        diags.push(Diagnostic {
            pass: Pass::ValueRange,
            severity: Severity::Error,
            node: Some(i),
            msg: format!(
                "input {} contains ±inf; every downstream op is poisoned",
                crate::chain::node_desc(spec, i)
            ),
        });
        return None;
    }
    Some((f64::from(lo), f64::from(hi)))
}

/// Analyzer self-checks: observed runtime range must lie inside the predicted
/// interval, and the interval must not contradict the sign-taint lattice.
fn cross_check(
    spec: &TapeSpec,
    i: usize,
    interval: Interval,
    signs: &[Sign],
    diags: &mut Vec<Diagnostic>,
) {
    let node = &spec.nodes[i];
    if !node.kind.is_input() {
        if let Some((mn, mx)) = node.value_range {
            if mn.is_nan() {
                diags.push(Diagnostic {
                    pass: Pass::ValueRange,
                    severity: Severity::Error,
                    node: Some(i),
                    msg: format!(
                        "{}: runtime value contains NaN although the predicted interval \
                         [{:.3e}, {:.3e}] is NaN-free — analyzer soundness violation",
                        node.kind.name(),
                        interval.lo,
                        interval.hi
                    ),
                });
            } else if f64::from(mn) < interval.lo || f64::from(mx) > interval.hi {
                diags.push(Diagnostic {
                    pass: Pass::ValueRange,
                    severity: Severity::Error,
                    node: Some(i),
                    msg: format!(
                        "{}: observed runtime range [{mn:.3e}, {mx:.3e}] escapes the predicted \
                         interval [{:.3e}, {:.3e}] — analyzer soundness violation",
                        node.kind.name(),
                        interval.lo,
                        interval.hi
                    ),
                });
            }
        }
    }
    match signs.get(i) {
        Some(Sign::Pos) if interval.hi <= 0.0 => diags.push(Diagnostic {
            pass: Pass::ValueRange,
            severity: Severity::Error,
            node: Some(i),
            msg: format!(
                "{}: sign-taint proves Pos but the interval [{:.3e}, {:.3e}] sits at or below \
                 zero — the abstract domains contradict each other",
                node.kind.name(),
                interval.lo,
                interval.hi
            ),
        }),
        Some(Sign::NonNeg) if interval.hi < 0.0 => diags.push(Diagnostic {
            pass: Pass::ValueRange,
            severity: Severity::Error,
            node: Some(i),
            msg: format!(
                "{}: sign-taint proves NonNeg but the interval [{:.3e}, {:.3e}] is strictly \
                 negative — the abstract domains contradict each other",
                node.kind.name(),
                interval.lo,
                interval.hi
            ),
        }),
        _ => {}
    }
}

/// Report a pole the interval cannot exclude. Blocking: these are exactly the
/// ops that mint NaN/inf from finite inputs.
fn pole(spec: &TapeSpec, i: usize, operand: usize, why: String, diags: &mut Vec<Diagnostic>) {
    diags.push(Diagnostic {
        pass: Pass::ValueRange,
        severity: Severity::Error,
        node: Some(i),
        msg: format!(
            "{}: {why}; chain: {}",
            spec.nodes[i].kind.name(),
            producer_chain(spec, operand)
        ),
    });
}

/// Interval transfer for op node `i`. Returns the raw (pre-widening) bound,
/// or `None` when unknown (unknown operands, opaque ops, or after reporting a
/// pole — downstream nodes then stay unknown instead of cascading errors).
#[allow(clippy::too_many_lines)]
fn transfer(
    spec: &TapeSpec,
    shapes: &[Option<Vec<usize>>],
    iv: &[Option<Interval>],
    i: usize,
    diags: &mut Vec<Diagnostic>,
) -> Option<(f64, f64)> {
    let node = &spec.nodes[i];
    let parents = &node.parents;
    let p = |k: usize| parents.get(k).and_then(|&x| iv.get(x).copied().flatten());
    let extent = |k: usize, axis: usize| -> Option<usize> {
        parents
            .get(k)
            .and_then(|&x| shapes.get(x))
            .and_then(|s| s.as_ref())
            .and_then(|s| s.get(axis).copied())
    };
    let numel_of = |k: usize| -> Option<usize> {
        parents
            .get(k)
            .and_then(|&x| shapes.get(x))
            .and_then(|s| s.as_ref())
            .map(|s| s.iter().product())
    };

    match &node.kind {
        OpKind::Leaf | OpKind::Constant | OpKind::Opaque { .. } => None,

        OpKind::Add => {
            let (a, b) = (p(0)?, p(1)?);
            Some((a.lo + b.lo, a.hi + b.hi))
        }
        OpKind::Sub => {
            let (a, b) = (p(0)?, p(1)?);
            Some((a.lo - b.hi, a.hi - b.lo))
        }
        OpKind::Mul => {
            let (a, b) = (p(0)?, p(1)?);
            Some(product_bounds(a, b))
        }
        OpKind::Div => {
            let a = p(0);
            let b = p(1);
            // Relational refinement first: x / sqrt(reduce(x²) + eps) is
            // bounded regardless of how wide x's own interval is.
            if let Some(bound) = normalized_quotient_bound(spec, shapes, i) {
                let q = match (a, b) {
                    (Some(a), Some(b)) if !b.contains_zero() => {
                        let (lo, hi) = quotient_bounds(a, b);
                        (lo.max(-bound), hi.min(bound))
                    }
                    _ => (-bound, bound),
                };
                return Some(q);
            }
            let b = b?;
            if b.contains_zero() {
                pole(
                    spec,
                    i,
                    parents[1],
                    format!(
                        "denominator range [{:.3e}, {:.3e}] cannot exclude 0 (x/0 mints ±inf/NaN)",
                        b.lo, b.hi
                    ),
                    diags,
                );
                return None;
            }
            let a = a?;
            Some(quotient_bounds(a, b))
        }
        OpKind::Scale { s } => {
            let a = p(0)?;
            let s = f64::from(*s);
            if s.is_nan() {
                return None;
            }
            let (x, y) = (a.lo * s, a.hi * s);
            Some((x.min(y), x.max(y)))
        }
        OpKind::AddScalar { s } => {
            let a = p(0)?;
            let s = f64::from(*s);
            if s.is_nan() {
                return None;
            }
            Some((a.lo + s, a.hi + s))
        }
        OpKind::Square => {
            let a = p(0)?;
            Some(if a.lo >= 0.0 {
                (a.lo * a.lo, a.hi * a.hi)
            } else if a.hi <= 0.0 {
                (a.hi * a.hi, a.lo * a.lo)
            } else {
                (0.0, (a.lo * a.lo).max(a.hi * a.hi))
            })
        }
        OpKind::LeakyRelu { alpha } => {
            let a = p(0)?;
            let alpha = f64::from(*alpha);
            if alpha.is_nan() {
                return None;
            }
            let f = |x: f64| if x > 0.0 { x } else { alpha * x };
            let (fl, fh) = (f(a.lo), f(a.hi));
            if alpha >= 0.0 {
                // Monotone.
                Some((fl.min(fh), fl.max(fh)))
            } else {
                let lo = fl.min(fh).min(0.0);
                let hi = fl.max(fh).max(0.0);
                Some((lo, hi))
            }
        }
        OpKind::Sigmoid => {
            let a = p(0)?;
            Some((sigmoid(a.lo).max(0.0), sigmoid(a.hi).min(1.0)))
        }
        OpKind::Tanh => {
            let a = p(0)?;
            Some((a.lo.tanh().max(-1.0), a.hi.tanh().min(1.0)))
        }
        OpKind::Exp => {
            let a = p(0)?;
            Some((a.lo.exp(), a.hi.exp()))
        }
        OpKind::LnEps { eps } => {
            let a = p(0)?;
            let eps = f64::from(*eps);
            if a.lo + eps <= 0.0 {
                pole(
                    spec,
                    i,
                    parents[0],
                    format!(
                        "argument range [{:.3e}, {:.3e}] + eps={eps:e} cannot exclude ln(<= 0)",
                        a.lo, a.hi
                    ),
                    diags,
                );
                return None;
            }
            Some(((a.lo + eps).ln(), (a.hi + eps).ln()))
        }
        OpKind::SqrtEps { eps } => {
            let a = p(0)?;
            let eps = f64::from(*eps);
            if a.lo + eps < 0.0 {
                pole(
                    spec,
                    i,
                    parents[0],
                    format!(
                        "argument range [{:.3e}, {:.3e}] + eps={eps:e} cannot exclude sqrt(< 0)",
                        a.lo, a.hi
                    ),
                    diags,
                );
                return None;
            }
            Some(((a.lo + eps).max(0.0).sqrt(), (a.hi + eps).sqrt()))
        }
        OpKind::Softplus => {
            let a = p(0)?;
            Some((softplus(a.lo).max(0.0), softplus(a.hi)))
        }
        OpKind::Dropout { p: rate } => {
            let a = p(0)?;
            let keep = 1.0 - f64::from(*rate);
            // `partial_cmp`: a NaN keep-probability must also bail out.
            if keep.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return None;
            }
            // Inverted dropout: each element is 0 or x/keep.
            Some(((a.lo / keep).min(0.0), (a.hi / keep).max(0.0)))
        }
        // Pure data movement: the value set is a subset of the input's.
        OpKind::Reshape { .. }
        | OpKind::Permute { .. }
        | OpKind::SliceAxis { .. }
        | OpKind::IndexSelect { .. }
        | OpKind::Transpose2d => {
            let a = p(0)?;
            Some((a.lo, a.hi))
        }
        OpKind::PadAxis { before, after, .. } => {
            let a = p(0)?;
            if before + after > 0 {
                Some((a.lo.min(0.0), a.hi.max(0.0)))
            } else {
                Some((a.lo, a.hi))
            }
        }
        OpKind::Concat { .. } => {
            let mut acc: Option<Interval> = None;
            for &x in parents {
                let v = iv.get(x).copied().flatten()?;
                acc = Some(match acc {
                    Some(cur) => Interval::hull(cur, v),
                    None => v,
                });
            }
            acc.map(|v| (v.lo, v.hi))
        }
        OpKind::Matmul | OpKind::BatchedMatmul => {
            let (a, b) = (p(0)?, p(1)?);
            let k = parents
                .first()
                .and_then(|&x| shapes.get(x))
                .and_then(|s| s.as_ref())
                .and_then(|s| s.last().copied())? as f64;
            let (pl, ph) = product_bounds(a, b);
            Some((k * pl, k * ph))
        }
        OpKind::SumAll => {
            let a = p(0)?;
            let n = numel_of(0)? as f64;
            Some((n * a.lo.min(0.0), n * a.hi.max(0.0)))
        }
        OpKind::MeanAll => {
            let a = p(0)?;
            Some((a.lo.min(0.0), a.hi.max(0.0)))
        }
        OpKind::SumAxis { axis } => {
            let a = p(0)?;
            let m = extent(0, *axis)? as f64;
            Some((m * a.lo.min(0.0), m * a.hi.max(0.0)))
        }
        OpKind::MeanAxis { .. } => {
            let a = p(0)?;
            Some((a.lo.min(0.0), a.hi.max(0.0)))
        }
        OpKind::SoftmaxLastdim => {
            let _ = p(0)?;
            Some((0.0, 1.0))
        }
        OpKind::LogSoftmaxLastdim => {
            let a = p(0)?;
            let m = parents
                .first()
                .and_then(|&x| shapes.get(x))
                .and_then(|s| s.as_ref())
                .and_then(|s| s.last().copied())
                .unwrap_or(1)
                .max(1) as f64;
            Some((a.lo - a.hi - m.ln(), 0.0))
        }
        OpKind::InfoNceDiag => {
            let a = p(0)?;
            let n = extent(0, 0).unwrap_or(1).max(1) as f64;
            Some((0.0, n.ln() + (a.hi - a.lo)))
        }
        // Conv: each output accumulates <= footprint products of x and w
        // (zero-padding may drop terms), plus the bias.
        OpKind::Conv2d { has_bias, .. } | OpKind::Conv1d { has_bias, .. } => {
            let (x, w) = (p(0)?, p(1)?);
            let wshape = parents.get(1).and_then(|&v| shapes.get(v)).and_then(|s| s.as_ref())?;
            let footprint: usize = wshape.iter().skip(1).product();
            let (pl, ph) = product_bounds(x, w);
            let mut lo = footprint as f64 * pl.min(0.0);
            let mut hi = footprint as f64 * ph.max(0.0);
            if *has_bias {
                let b = p(2)?;
                lo += b.lo;
                hi += b.hi;
            }
            Some((lo, hi))
        }
    }
}

/// Exact min/max of `a·b` over two intervals.
fn product_bounds(a: Interval, b: Interval) -> (f64, f64) {
    let c = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi];
    (
        c.iter().copied().fold(f64::INFINITY, f64::min),
        c.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    )
}

/// Exact min/max of `a/b` over two intervals, `0 ∉ b`.
fn quotient_bounds(a: Interval, b: Interval) -> (f64, f64) {
    let c = [a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi];
    (
        c.iter().copied().fold(f64::INFINITY, f64::min),
        c.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    )
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Stable softplus matching the kernel: `max(x,0) + ln(1 + e^(-|x|))`.
fn softplus(x: f64) -> f64 {
    x.max(0.0) + (-x.abs()).exp().ln_1p()
}

/// Detect `div(x, sqrt_eps(R(reduce(square(x))) , eps > 0))` where `R` is a
/// chain of reshapes and the denominator's shape is the numerator's with the
/// reduced axis collapsed to 1 (keepdim semantics — this is what aligns each
/// element with the group whose norm divides it, making the bound sound).
/// Returns the rounding-widened magnitude bound: `1` for sum-reduce, `√m`
/// for mean-reduce over `m` elements.
fn normalized_quotient_bound(
    spec: &TapeSpec,
    shapes: &[Option<Vec<usize>>],
    div_idx: usize,
) -> Option<f64> {
    let node = &spec.nodes[div_idx];
    let [num, den] = node.parents.as_slice() else { return None };
    let den_node = &spec.nodes[*den];
    let OpKind::SqrtEps { eps } = den_node.kind else { return None };
    // `partial_cmp`: a NaN eps must also disqualify the refinement.
    if eps.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return None;
    }
    let mut cur = *den_node.parents.first()?;
    while matches!(spec.nodes[cur].kind, OpKind::Reshape { .. }) {
        cur = *spec.nodes[cur].parents.first()?;
    }
    let reduce = &spec.nodes[cur];
    let (is_mean, axis) = match reduce.kind {
        OpKind::SumAxis { axis } => (false, Some(axis)),
        OpKind::MeanAxis { axis } => (true, Some(axis)),
        OpKind::SumAll => (false, None),
        OpKind::MeanAll => (true, None),
        _ => return None,
    };
    let sq = *reduce.parents.first()?;
    if spec.nodes[sq].kind != OpKind::Square {
        return None;
    }
    if *spec.nodes[sq].parents.first()? != *num {
        return None;
    }
    let num_shape = shapes.get(*num)?.as_ref()?;
    let den_shape = shapes.get(*den)?.as_ref()?;
    let m = match axis {
        Some(k) => {
            let mut expect = num_shape.clone();
            *expect.get_mut(k)? = 1;
            if *den_shape != expect {
                return None;
            }
            num_shape[k].max(1)
        }
        None => {
            if !den_shape.iter().all(|&d| d == 1) {
                return None;
            }
            num_shape.iter().product::<usize>().max(1)
        }
    };
    let bound = if is_mean { (m as f64).sqrt() } else { 1.0 };
    // Widen for the f32 rounding of the m-term sum inside the norm.
    Some(bound * (1.0 + (m as f64 + 8.0) * EPS32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Severity;

    fn run(spec: &TapeSpec) -> (RangeSummary, Vec<Diagnostic>) {
        let mut diags = vec![];
        let shapes = crate::shape::analyze(spec, &mut diags).shapes;
        assert!(diags.is_empty(), "fixture should be shape-clean: {diags:?}");
        let signs = crate::taint::analyze(spec, &shapes, &mut diags);
        let own = crate::fperror::own_extents(spec, &shapes);
        let info = analyze(spec, &shapes, &signs, &own, &mut diags);
        let range_diags = diags.into_iter().filter(|d| d.pass == Pass::ValueRange).collect();
        (info, range_diags)
    }

    #[test]
    fn unranged_inputs_stay_unknown_without_findings() {
        let mut spec = TapeSpec::new();
        let w = spec.leaf("w", &[4]);
        let d = spec.push(OpKind::Div, &[w, w]);
        let _loss = spec.push(OpKind::SumAll, &[d]);
        let (info, diags) = run(&spec);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(info.bounded, 0);
    }

    #[test]
    fn ranged_division_through_zero_is_a_pole_error() {
        let mut spec = TapeSpec::new();
        let a = spec.leaf_ranged("a", &[4], 1.0, 2.0);
        let b = spec.leaf_ranged("b", &[4], -1.0, 1.0);
        let d = spec.push(OpKind::Div, &[a, b]);
        let _loss = spec.push(OpKind::SumAll, &[d]);
        let (_, diags) = run(&spec);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].node, Some(d));
        assert!(diags[0].msg.contains("cannot exclude 0"), "{}", diags[0].msg);
        assert!(diags[0].msg.contains("chain:"));
    }

    #[test]
    fn exp_overflow_is_caught() {
        let mut spec = TapeSpec::new();
        let a = spec.leaf_ranged("a", &[4], 0.0, 200.0);
        let e = spec.push(OpKind::Exp, &[a]);
        let _loss = spec.push(OpKind::SumAll, &[e]);
        let (_, diags) = run(&spec);
        assert!(
            diags.iter().any(|d| d.severity == Severity::Error
                && d.node == Some(e)
                && d.msg.contains("exceeds f32 range")),
            "{diags:?}"
        );
    }

    #[test]
    fn nan_input_is_blocking() {
        let mut spec = TapeSpec::new();
        let a = spec.leaf_ranged("a", &[4], f32::NAN, f32::NAN);
        let _s = spec.push(OpKind::Square, &[a]);
        let (_, diags) = run(&spec);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].msg.contains("contains NaN"));
    }

    #[test]
    fn sigmoid_and_tanh_are_bounded_regardless_of_input_width() {
        let mut spec = TapeSpec::new();
        let a = spec.leaf_ranged("a", &[4], -1e30, 1e30);
        let s = spec.push(OpKind::Sigmoid, &[a]);
        let t = spec.push(OpKind::Tanh, &[a]);
        let m = spec.push(OpKind::Mul, &[s, t]);
        let _loss = spec.push(OpKind::SumAll, &[m]);
        let (info, diags) = run(&spec);
        assert!(diags.is_empty(), "{diags:?}");
        let sv = info.intervals[s].unwrap();
        assert!(sv.lo >= -1e-9 && sv.hi <= 1.0 + 1e-4, "{sv:?}");
        let mv = info.intervals[m].unwrap();
        assert!(mv.abs_max() <= 1.0 + 1e-4, "{mv:?}");
    }

    #[test]
    fn l2_normalize_refinement_bounds_the_quotient() {
        // Without the relational refinement the quotient bound would be
        // |x| / sqrt(eps) = 1e3 * 1e4 = 1e7; with it, ~1.
        let mut spec = TapeSpec::new();
        let x = spec.leaf_ranged("x", &[6, 8], -1e3, 1e3);
        let sq = spec.push(OpKind::Square, &[x]);
        let s = spec.push(OpKind::SumAxis { axis: 1 }, &[sq]);
        let keep = spec.push(OpKind::Reshape { shape: vec![6, 1] }, &[s]);
        let norm = spec.push(OpKind::SqrtEps { eps: 1e-8 }, &[keep]);
        let d = spec.push(OpKind::Div, &[x, norm]);
        let _loss = spec.push(OpKind::MeanAll, &[d]);
        let (info, diags) = run(&spec);
        assert!(diags.is_empty(), "{diags:?}");
        let dv = info.intervals[d].unwrap();
        assert!(dv.abs_max() <= 1.001, "refined bound should be ~1, got {dv:?}");
    }

    #[test]
    fn layernorm_mean_refinement_bounds_by_sqrt_m() {
        let mut spec = TapeSpec::new();
        let x = spec.leaf_ranged("x", &[5, 16], -100.0, 100.0);
        let mu = spec.push(OpKind::MeanAxis { axis: 1 }, &[x]);
        let muk = spec.push(OpKind::Reshape { shape: vec![5, 1] }, &[mu]);
        let centered = spec.push(OpKind::Sub, &[x, muk]);
        let sq = spec.push(OpKind::Square, &[centered]);
        let var = spec.push(OpKind::MeanAxis { axis: 1 }, &[sq]);
        let vk = spec.push(OpKind::Reshape { shape: vec![5, 1] }, &[var]);
        let std = spec.push(OpKind::SqrtEps { eps: 1e-5 }, &[vk]);
        let out = spec.push(OpKind::Div, &[centered, std]);
        let _loss = spec.push(OpKind::MeanAll, &[out]);
        let (info, diags) = run(&spec);
        assert!(diags.is_empty(), "{diags:?}");
        let ov = info.intervals[out].unwrap();
        assert!(ov.abs_max() <= 4.001, "sqrt(16) = 4 bound, got {ov:?}");
    }

    #[test]
    fn observed_range_escaping_prediction_is_a_soundness_error() {
        let mut spec = TapeSpec::new();
        let a = spec.leaf_ranged("a", &[4], 0.0, 1.0);
        let s = spec.push(OpKind::Square, &[a]);
        // Claim the runtime saw 9.0 — outside [0, 1]².
        spec.nodes[s].runtime_shape = Some(vec![4]);
        spec.nodes[s].value_range = Some((0.0, 9.0));
        let _loss = spec.push(OpKind::SumAll, &[s]);
        let (_, diags) = run(&spec);
        assert!(
            diags.iter().any(|d| d.msg.contains("escapes the predicted interval")),
            "{diags:?}"
        );
    }
}
