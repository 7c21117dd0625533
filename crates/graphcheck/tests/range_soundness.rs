//! Property test for the interval pass: *soundness over real execution*.
//!
//! For fuzzed inputs drawn inside their declared ranges, every runtime
//! intermediate the graph actually computes must lie inside the interval the
//! analyzer predicted for that node — across sparse-input densities (the
//! paper's crime tensors are ~99% and ~79% zeros) and across thread counts
//! (partitioning must change neither the values nor the proofs). The audit's
//! built-in observed-vs-predicted cross-check fires on the exported tape; on
//! top of that this test walks the live graph and compares every element of
//! every forward value directly, so a widening bug cannot hide behind the
//! export's min/max summary.

use sthsl_autograd::{Graph, Var};
use sthsl_graphcheck::{audit, AuditOptions, Pass};
use sthsl_tensor::Tensor;

/// Deterministic xorshift so the fuzz corpus is reproducible without a rand
/// dependency.
struct XorShift(u64);

impl XorShift {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform in `[lo, hi]`, zeroed with probability `1 - density`.
    fn sparse(&mut self, lo: f32, hi: f32, density: f32) -> f32 {
        if self.unit() >= density {
            0.0
        } else {
            lo + (hi - lo) * self.unit()
        }
    }
}

fn sparse_tensor(rng: &mut XorShift, shape: &[usize], lo: f32, hi: f32, density: f32) -> Tensor {
    let n: usize = shape.iter().product();
    let data: Vec<f32> = (0..n).map(|_| rng.sparse(lo, hi, density)).collect();
    Tensor::from_vec(data, shape).unwrap()
}

/// Build a representative op mix on a training-mode graph: hypergraph
/// propagation over sparse inputs, leaky-relu, l2 normalization (the
/// relational-refinement pattern), dropout (rng), bounded activations and a
/// full-reduce loss.
/// Returns the loss and every recorded `Var` worth checking.
fn build(g: &Graph, rng: &mut XorShift, density: f32) -> (Var, Vec<Var>) {
    let x = g.named_leaf("x", sparse_tensor(rng, &[16, 24], -2.0, 2.0, density));
    let h = g.named_leaf("hypergraph.h", sparse_tensor(rng, &[12, 16], -1.0, 1.0, density));
    let hubs = g.matmul(h, x).unwrap();
    let act = g.leaky_relu(hubs, 0.1);
    let norm = g.l2_normalize_lastdim(act, 1e-8).unwrap();
    let drop = g.dropout(norm, 0.2).unwrap();
    let sig = g.sigmoid(drop);
    let t = g.tanh(act);
    let mix = g.mul(sig, t).unwrap();
    let loss = g.sum_all(mix);
    (loss, vec![x, h, hubs, act, norm, drop, sig, t, mix, loss])
}

#[test]
fn runtime_values_stay_inside_predicted_intervals() {
    for &density in &[0.01f32, 0.21] {
        for &threads in &[1usize, 4] {
            sthsl_parallel::set_num_threads(threads);
            for trial in 0..8u64 {
                let seed = 0x5eed_0000 + trial * 7919 + (density * 100.0) as u64;
                let mut rng = XorShift(seed | 1);
                let g = Graph::training(seed);
                let (loss, vars) = build(&g, &mut rng, density);

                let spec = g.export_tape();
                let params = vec![("hypergraph.h".to_string(), vars[1].index())];
                let r = audit("fuzz", &spec, loss.index(), &params, &AuditOptions::default());
                assert!(
                    !r.has_errors(),
                    "density {density} threads {threads} trial {trial}:\n{}",
                    r.render()
                );
                let ranges = r.ranges.as_ref().expect("range pass must run");

                // Direct element-level soundness: every value of every
                // recorded var inside its predicted interval.
                for v in &vars {
                    let iv = ranges.intervals[v.index()].unwrap_or_else(|| {
                        panic!(
                            "density {density} threads {threads} trial {trial}: \
                             %{} has no interval",
                            v.index()
                        )
                    });
                    let value = g.value(*v);
                    for &elem in value.data() {
                        assert!(
                            f64::from(elem) >= iv.lo && f64::from(elem) <= iv.hi,
                            "density {density} threads {threads} trial {trial}: \
                             %{} value {elem} escapes [{}, {}]",
                            v.index(),
                            iv.lo,
                            iv.hi
                        );
                    }
                }
            }
        }
    }
    sthsl_parallel::set_num_threads(0);
}

/// The determinism certificate is not just structural: the same seed must
/// produce bit-identical forward values at 1 and 4 threads.
#[test]
fn certified_tape_is_bit_identical_across_thread_counts() {
    for &density in &[0.01f32, 0.21] {
        let mut collected: Vec<Vec<Vec<f32>>> = Vec::new();
        for &threads in &[1usize, 4] {
            sthsl_parallel::set_num_threads(threads);
            let mut rng = XorShift(0xabcd_ef01);
            let g = Graph::training(42);
            let (loss, vars) = build(&g, &mut rng, density);
            let spec = g.export_tape();
            let params = vec![("hypergraph.h".to_string(), vars[1].index())];
            let r = audit("bits", &spec, loss.index(), &params, &AuditOptions::default());
            let det = r.determinism.as_ref().expect("determinism pass must run");
            assert!(det.certified_clean(), "{}", r.render());
            assert!(r.diagnostics.iter().all(|d| d.pass != Pass::Determinism), "{}", r.render());
            collected.push(vars.iter().map(|v| g.value(*v).data().to_vec()).collect());
        }
        sthsl_parallel::set_num_threads(0);
        let (a, b) = (&collected[0], &collected[1]);
        for (i, (va, vb)) in a.iter().zip(b).enumerate() {
            assert!(
                va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits()),
                "density {density}: var #{i} differs between 1 and 4 threads"
            );
        }
    }
}
