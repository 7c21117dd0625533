//! Serial/parallel equivalence suite for the multi-threaded tensor kernels
//! and for the models that run on them.
//!
//! The determinism contract (DESIGN.md, "Threading model") has two halves:
//!
//! 1. **Partition-parallel kernels** (matmul, conv, elementwise, softmax, axis
//!    reductions, region scoring) assign each output element to exactly one
//!    thread and keep the serial accumulation order, so their results must be
//!    **bit-identical** at every thread count.
//! 2. **Reassociated reductions** (`sum_all`, `dot`, `sq_norm`, `mean_std`)
//!    sum fixed-size blocks whose layout does not depend on the thread count,
//!    so they too must be bit-identical across thread counts — and within
//!    normal f32 rounding of a linear serial sum.
//!
//! Every kernel test fuzzes shapes with a fixed seed and compares results
//! across thread counts {1, 2, 4, 8}, plus a run-to-run determinism check.
//! The pinned digests are checked at every vector level the kernels dispatch
//! to on this CPU (SSE2, and AVX2 where detected). A last test trains ST-HSL
//! and every neural baseline at 1 and 4 threads and compares parameter bits.

#![expect(
    clippy::disallowed_types,
    reason = "R2: a test harness; its locks serialise tests that set the process-global thread count and SIMD level"
)]

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Mutex;
use sthsl::parallel::{num_threads, set_num_threads};
use sthsl::prelude::{
    all_auditable, BaselineConfig, CrimeDataset, DatasetConfig, NoHooks, StHsl, StHslConfig,
    SynthCity, SynthConfig, TrainLoop, TrainOptions,
};
use sthsl::tensor::ops::conv::Pad1d;
use sthsl::tensor::simd::at_each_level;
use sthsl::tensor::Tensor;

/// Thread counts every kernel is exercised at.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// All tests in this binary mutate the process-global thread count, so they
/// serialise on this lock (poison is harmless: the config is reset on entry).
fn config_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Run `f` once per thread count and assert every result's bits match the
/// single-threaded run. `label` names the kernel in failure messages.
fn assert_bitwise_across_thread_counts(label: &str, f: impl Fn() -> Vec<f32>) {
    let _guard = config_lock();
    set_num_threads(1);
    let reference = f();
    // Run-to-run determinism at the same thread count.
    assert_eq!(reference, f(), "{label}: not deterministic at 1 thread");
    for &t in &THREAD_COUNTS[1..] {
        set_num_threads(t);
        let got = f();
        assert_eq!(reference.len(), got.len(), "{label}: length changed at {t} threads");
        for (i, (a, b)) in reference.iter().zip(&got).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{label}: element {i} differs at {t} threads: {a:?} vs {b:?}"
            );
        }
        assert_eq!(got, f(), "{label}: not deterministic at {t} threads");
    }
    set_num_threads(0); // back to the environment-resolved default
}

/// A standard-normal tensor with every `every`-th element exactly zero.
fn sparse_normal(rng: &mut StdRng, shape: &[usize], every: usize) -> Tensor {
    let mut t = Tensor::rand_normal(shape, 0.0, 1.0, rng);
    t.data_mut().iter_mut().step_by(every).for_each(|v| *v = 0.0);
    t
}

#[test]
fn matmul_bit_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..12 {
        let (m, k, n) =
            (rng.gen_range(1usize..40), rng.gen_range(1usize..300), rng.gen_range(1usize..40));
        let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
        assert_bitwise_across_thread_counts(&format!("matmul {m}x{k}x{n}"), || {
            a.matmul(&b).unwrap().into_vec()
        });
        let at = Tensor::rand_normal(&[k, m], 0.0, 1.0, &mut rng);
        assert_bitwise_across_thread_counts(&format!("transpose_matmul {k}x{m}x{n}"), || {
            at.transpose_matmul(&b).unwrap().into_vec()
        });
    }
}

#[test]
fn batched_matmul_and_matvec_bit_identical() {
    let mut rng = StdRng::seed_from_u64(12);
    for _ in 0..8 {
        let (ba, m, k, n) = (
            rng.gen_range(1usize..6),
            rng.gen_range(1usize..20),
            rng.gen_range(1usize..64),
            rng.gen_range(1usize..80),
        );
        let every = rng.gen_range(2usize..9);
        let a = sparse_normal(&mut rng, &[ba, m, k], every);
        let b = Tensor::rand_normal(&[ba, k, n], 0.0, 1.0, &mut rng);
        assert_bitwise_across_thread_counts(&format!("batched_matmul {ba}x{m}x{k}x{n}"), || {
            a.batched_matmul(&b).unwrap().into_vec()
        });
        let at = sparse_normal(&mut rng, &[ba, k, m], every);
        assert_bitwise_across_thread_counts(
            &format!("batched_transpose_matmul {ba}x{k}x{m}x{n}"),
            || at.batched_transpose_matmul(&b).unwrap().into_vec(),
        );
        let mat = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
        let v = Tensor::rand_normal(&[k], 0.0, 1.0, &mut rng);
        assert_bitwise_across_thread_counts(&format!("matvec {m}x{k}"), || {
            mat.matvec(&v).unwrap().into_vec()
        });
        assert_bitwise_across_thread_counts(&format!("transpose2d {m}x{k}"), || {
            mat.transpose2d().unwrap().into_vec()
        });
    }
}

#[test]
fn conv2d_forward_and_grads_bit_identical() {
    let mut rng = StdRng::seed_from_u64(13);
    for _ in 0..6 {
        let (b, cin, cout) =
            (rng.gen_range(1usize..4), rng.gen_range(1usize..4), rng.gen_range(1usize..5));
        let (h, w, kh, kw) = (
            rng.gen_range(4usize..10),
            rng.gen_range(4usize..10),
            rng.gen_range(1usize..4),
            rng.gen_range(1usize..4),
        );
        let x = Tensor::rand_normal(&[b, cin, h, w], 0.0, 1.0, &mut rng);
        let wt = Tensor::rand_normal(&[cout, cin, kh, kw], 0.0, 0.5, &mut rng);
        let bias = Tensor::rand_normal(&[cout], 0.0, 0.5, &mut rng);
        let pad = (kh / 2, kw / 2);
        let label = format!("conv2d b{b} {cin}->{cout} {h}x{w} k{kh}x{kw}");
        let y = x.conv2d(&wt, Some(&bias), pad).unwrap();
        assert_bitwise_across_thread_counts(&label, || {
            x.conv2d(&wt, Some(&bias), pad).unwrap().into_vec()
        });
        let go = Tensor::rand_normal(y.shape(), 0.0, 1.0, &mut rng);
        assert_bitwise_across_thread_counts(&format!("{label} grad_input"), || {
            Tensor::conv2d_grad_input(&go, &wt, x.shape(), pad).unwrap().into_vec()
        });
        assert_bitwise_across_thread_counts(&format!("{label} grad_weight"), || {
            Tensor::conv2d_grad_weight(&go, &x, wt.shape(), pad).unwrap().into_vec()
        });
    }
}

#[test]
fn conv1d_forward_and_grads_bit_identical() {
    let mut rng = StdRng::seed_from_u64(14);
    for _ in 0..6 {
        let (b, cin, cout, l, k) = (
            rng.gen_range(1usize..4),
            rng.gen_range(1usize..4),
            rng.gen_range(1usize..5),
            rng.gen_range(6usize..24),
            rng.gen_range(1usize..4),
        );
        let dilation = rng.gen_range(1usize..3);
        let x = Tensor::rand_normal(&[b, cin, l], 0.0, 1.0, &mut rng);
        let wt = Tensor::rand_normal(&[cout, cin, k], 0.0, 0.5, &mut rng);
        let pad = Pad1d::causal(k, dilation);
        let label = format!("conv1d b{b} {cin}->{cout} l{l} k{k} d{dilation}");
        let y = x.conv1d(&wt, None, pad, dilation).unwrap();
        assert_bitwise_across_thread_counts(&label, || {
            x.conv1d(&wt, None, pad, dilation).unwrap().into_vec()
        });
        let go = Tensor::rand_normal(y.shape(), 0.0, 1.0, &mut rng);
        assert_bitwise_across_thread_counts(&format!("{label} grad_input"), || {
            Tensor::conv1d_grad_input(&go, &wt, x.shape(), pad, dilation).unwrap().into_vec()
        });
        assert_bitwise_across_thread_counts(&format!("{label} grad_weight"), || {
            Tensor::conv1d_grad_weight(&go, &x, wt.shape(), pad, dilation).unwrap().into_vec()
        });
    }
}

/// FNV-1a over the bit patterns of `v`.
fn bits_digest(v: &[f32]) -> u64 {
    fnv1a(v.iter().map(|x| x.to_bits()))
}

/// FNV-1a over the little-endian bytes of `bits`.
fn fnv1a(bits: impl IntoIterator<Item = u32>) -> u64 {
    bits.into_iter()
        .flat_map(u32::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// `f` is bit-identical across thread counts and its bits hash to `want`,
/// at every vector level the kernels dispatch to on this CPU.
fn assert_pinned_digest(label: &str, want: u64, f: &dyn Fn() -> Vec<f32>) {
    // The level `at_each_level` holds is process-global: one caller at a time.
    static LEVEL_LOCK: Mutex<()> = Mutex::new(());
    let _guard = LEVEL_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    at_each_level(|level| {
        let label = format!("{label} [{level}]");
        assert_bitwise_across_thread_counts(&label, f);
        assert_eq!(bits_digest(&f()), want, "{label}: bits differ from the pinned digest");
    });
}

/// One fixed case per conv kernel and for `permute`, pinned to digests of
/// the direct-loop kernels' output bits: the vectorized kernels must give
/// every element the same operations in the same order (DESIGN.md §6b).
/// The case clips padding on every side (an even kernel, an output plane
/// larger than the input, asymmetric dilated 1-D padding) and holds exact
/// zeros in `grad_out` and the weights plus a `-0.0` bias. The seeded
/// oracle property test in `sthsl-tensor` covers many more shapes.
#[test]
fn conv_and_permute_bits_match_pinned_direct_loop_digests() {
    let mut rng = StdRng::seed_from_u64(16);
    let mut sparse = |shape: &[usize], every: usize| sparse_normal(&mut rng, shape, every);
    let check = assert_pinned_digest;

    let x = sparse(&[2, 3, 5, 7], 11);
    let wt = sparse(&[4, 3, 4, 3], 5);
    let mut bias = sparse(&[4], 4);
    bias.data_mut()[0] = -0.0;
    let pad = (2, 1);
    let go = sparse(&[2, 4, 6, 7], 3);
    check("conv2d", 0x62a4_525a_d47f_dcff, &|| x.conv2d(&wt, Some(&bias), pad).unwrap().into_vec());
    check("conv2d grad_input", 0x6c84_c9d6_7c68_5b0f, &|| {
        Tensor::conv2d_grad_input(&go, &wt, x.shape(), pad).unwrap().into_vec()
    });
    check("conv2d grad_weight", 0x8167_e134_8dbe_84c2, &|| {
        Tensor::conv2d_grad_weight(&go, &x, wt.shape(), pad).unwrap().into_vec()
    });

    let x = sparse(&[2, 3, 9], 7);
    let wt = sparse(&[2, 3, 3], 4);
    let (pad, dilation) = (Pad1d { left: 3, right: 1 }, 2);
    let mut bias = sparse(&[2], 2);
    bias.data_mut()[1] = -0.0;
    let go = sparse(&[2, 2, 9], 3);
    check("conv1d", 0x5cd8_0b59_0468_9ce2, &|| {
        x.conv1d(&wt, Some(&bias), pad, dilation).unwrap().into_vec()
    });
    check("conv1d grad_input", 0xc853_2816_b95e_6b62, &|| {
        Tensor::conv1d_grad_input(&go, &wt, x.shape(), pad, dilation).unwrap().into_vec()
    });
    check("conv1d grad_weight", 0xa0a8_6113_7291_3a15, &|| {
        Tensor::conv1d_grad_weight(&go, &x, wt.shape(), pad, dilation).unwrap().into_vec()
    });

    let t = sparse(&[2, 3, 1, 4, 5], 6);
    check("permute", 0xc3c7_91ad_a9c6_91db, &|| t.permute(&[3, 1, 4, 0, 2]).unwrap().into_vec());
}

/// A conv's forward, input gradient and weight gradient, the last two
/// called as `(grad_out, weight or input, input or weight shape)`.
type ConvFn<'a> = &'a dyn Fn(&Tensor, &Tensor, &Tensor) -> Tensor;
type ConvGradFn<'a> = &'a dyn Fn(&Tensor, &Tensor, &[usize]) -> Tensor;

/// A conv at one of the model's shapes, pinned to `[fwd, grad_input,
/// grad_weight]` digests of the direct-loop kernels' output bits. The input,
/// the weights and `grad_out` hold exact zeros, and the bias a `-0.0`.
fn check_model_conv(
    rng: &mut StdRng,
    name: &str,
    [x_shape, w_shape]: [&[usize]; 2],
    (conv, grad_input, grad_weight): (ConvFn, ConvGradFn, ConvGradFn),
    digests: [u64; 3],
) {
    let x = sparse_normal(rng, x_shape, 9);
    let wt = sparse_normal(rng, w_shape, 5);
    let mut bias = sparse_normal(rng, &w_shape[..1], 3);
    bias.data_mut()[0] = -0.0;
    let go = sparse_normal(rng, conv(&x, &wt, &bias).shape(), 4);
    let check = assert_pinned_digest;
    check(&format!("{name} fwd"), digests[0], &|| conv(&x, &wt, &bias).into_vec());
    check(&format!("{name} grad_input"), digests[1], &|| grad_input(&go, &wt, x_shape).into_vec());
    check(&format!("{name} grad_weight"), digests[2], &|| grad_weight(&go, &x, w_shape).into_vec());
}

/// The model's three conv shapes (paper Eqs. 2–3 and 5: the local
/// category-mixing conv2d over the 8×8 grid, the local temporal conv1d and
/// the single-channel global temporal conv1d over a 14-day window). Their
/// batches span many 16-lane panels and, at 2–8 threads, bands that split
/// inside a panel, so these pin the batch-lane kernels against the direct
/// loops where the seeded small-batch cases cannot.
#[test]
fn model_conv_shapes_match_pinned_direct_loop_digests() {
    let mut rng = StdRng::seed_from_u64(20);
    let pad2 = (1, 1);
    check_model_conv(
        &mut rng,
        "local conv2d",
        [&[224, 4, 8, 8], &[4, 4, 3, 3]],
        (
            &|x, w, b| x.conv2d(w, Some(b), pad2).unwrap(),
            &|go, w, shape| Tensor::conv2d_grad_input(go, w, shape, pad2).unwrap(),
            &|go, x, shape| Tensor::conv2d_grad_weight(go, x, shape, pad2).unwrap(),
        ),
        [0xb822_1c1a_b6f8_4849, 0x0014_5fc3_61d7_06f3, 0x9f1b_1772_8f5f_6e9a],
    );
    let pad1 = Pad1d::same(3);
    let conv1d: (ConvFn, ConvGradFn, ConvGradFn) = (
        &|x, w, b| x.conv1d(w, Some(b), pad1, 1).unwrap(),
        &|go, w, shape| Tensor::conv1d_grad_input(go, w, shape, pad1, 1).unwrap(),
        &|go, x, shape| Tensor::conv1d_grad_weight(go, x, shape, pad1, 1).unwrap(),
    );
    check_model_conv(
        &mut rng,
        "local conv1d",
        [&[1024, 4, 14], &[4, 4, 3]],
        conv1d,
        [0x9f99_a616_5509_dcdd, 0xd646_ac55_e7e3_df25, 0x6f24_58b1_6ed1_7955],
    );
    check_model_conv(
        &mut rng,
        "global conv1d",
        [&[4096, 1, 14], &[1, 1, 3]],
        conv1d,
        [0x53f7_d461_8332_308a, 0xa9e4_9e58_c1ec_860d, 0xb443_9e56_c5b9_3dc6],
    );
}

/// The hypergraph hops (paper Eq. 4) on a small window, pinned to digests
/// of the cache-blocked row-axpy kernel's output bits: the register-tiled
/// kernel, and its transposed-lhs reads in the backward products, must give
/// every element the same operations in the same order (DESIGN.md §6b).
/// The incidence tensor, the embeddings and the gradients hold exact zeros,
/// and one hyperedge has no members at all. The reference digests of the
/// transposed products are those of an explicit `permute` followed by
/// `batched_matmul` (or `transpose2d` then `matmul`).
#[test]
fn hypergraph_matmuls_match_pinned_row_axpy_digests() {
    let mut rng = StdRng::seed_from_u64(18);
    let (tw, edges, nodes, d) = (3, 24, 72, 16);
    let mut h = sparse_normal(&mut rng, &[tw, edges, nodes], 7);
    h.data_mut()[nodes..2 * nodes].fill(0.0);
    let e = sparse_normal(&mut rng, &[tw, nodes, d], 5);
    let hubs = sparse_normal(&mut rng, &[tw, edges, d], 4);
    let g_hubs = sparse_normal(&mut rng, &[tw, edges, d], 3);
    let g_out = sparse_normal(&mut rng, &[tw, nodes, d], 3);
    let ht = h.permute(&[0, 2, 1]).unwrap();
    let et = e.permute(&[0, 2, 1]).unwrap();
    let check = assert_pinned_digest;

    check("hop 1", 0x614a_4630_9462_4fae, &|| h.batched_matmul(&e).unwrap().into_vec());
    check("hop 2", 0x7332_8a05_c0af_bec2, &|| ht.batched_matmul(&hubs).unwrap().into_vec());
    check("hop 1 grad_a", 0xeaa4_7849_fd93_fa4e, &|| {
        g_hubs.batched_matmul(&et).unwrap().into_vec()
    });
    check("hop 1 grad_b", 0xd896_738c_91ab_ee99, &|| {
        h.batched_transpose_matmul(&g_hubs).unwrap().into_vec()
    });
    check("hop 2 grad_b", 0xc240_4807_385c_b22a, &|| {
        ht.batched_transpose_matmul(&g_out).unwrap().into_vec()
    });

    let h2 = Tensor::from_vec(h.data()[..edges * nodes].to_vec(), &[edges, nodes]).unwrap();
    let g2 = Tensor::from_vec(g_hubs.data()[..edges * d].to_vec(), &[edges, d]).unwrap();
    check("2-D grad_b", 0x96c3_fa18_aedf_ffd5, &|| h2.transpose_matmul(&g2).unwrap().into_vec());
}

/// `a · b` and its two reduced gradients pinned to `[fwd, grad_a, grad_b]`.
fn check_broadcast_mul(rng: &mut StdRng, name: &str, shapes: [&[usize]; 2], digests: [u64; 3]) {
    let [a_shape, b_shape] = shapes;
    let mut a = sparse_normal(rng, a_shape, 9);
    a.data_mut()[1] = -0.0;
    let b = sparse_normal(rng, b_shape, 5);
    let g = sparse_normal(rng, a.mul(&b).unwrap().shape(), 3);
    assert_pinned_digest(&format!("{name} mul"), digests[0], &|| a.mul(&b).unwrap().into_vec());
    assert_pinned_digest(&format!("{name} grad_a"), digests[1], &|| {
        g.mul(&b).unwrap().reduce_to_shape(a_shape).unwrap().into_vec()
    });
    assert_pinned_digest(&format!("{name} grad_b"), digests[2], &|| {
        g.mul(&a).unwrap().reduce_to_shape(b_shape).unwrap().into_vec()
    });
}

/// The model's broadcast products, pinned to digests of the per-element
/// odometer loops' output bits: the row-wise `zip_map` and
/// `reduce_to_shape` must give every element the same operands, and every
/// reduced element its terms in the same order (DESIGN.md §6b). The
/// embedding product is `z ⊗ e_c` (paper Eq. 1, a column times a row); the
/// infomax one scores every region against the per-window summary
/// (Eqs. 6–7). Backward is `g·b` and `g·a`, each reduced to its operand's
/// shape, then the infomax score's `sum_axis(3)` and its adjoint.
#[test]
fn broadcast_muls_match_pinned_odometer_digests() {
    let mut rng = StdRng::seed_from_u64(19);
    let check = assert_pinned_digest;
    check_broadcast_mul(
        &mut rng,
        "embedding",
        [&[64, 14, 4, 1], &[4, 16]],
        [0x1e6a_546e_cfdc_bbfb, 0x1f6c_55df_5281_63e6, 0x6e6d_f2cc_d057_dfaf],
    );
    check_broadcast_mul(
        &mut rng,
        "infomax",
        [&[14, 64, 4, 16], &[14, 1, 4, 16]],
        [0x5ef4_3e8a_2e9b_eea6, 0xb8be_241c_e26a_d199, 0xfefb_e16d_6d8f_69d4],
    );
    let score = sparse_normal(&mut rng, &[14, 64, 4, 16], 6);
    check("infomax sum_axis", 0x6750_cff4_d962_a952, &|| score.sum_axis(3).unwrap().into_vec());
    let g_score = sparse_normal(&mut rng, &[14, 64, 4], 4);
    check("infomax repeat_axis", 0xcf1f_308b_308c_df45, &|| {
        g_score.repeat_axis(3, 16).unwrap().into_vec()
    });
}

#[test]
fn elementwise_ops_bit_identical_above_cutoff() {
    let mut rng = StdRng::seed_from_u64(15);
    // Both below (serial path) and well above the fan-out cutoff.
    for &n in &[100usize, 50_000] {
        let a = Tensor::rand_normal(&[n], 0.0, 2.0, &mut rng);
        let b = Tensor::rand_normal(&[n], 0.0, 2.0, &mut rng);
        assert_bitwise_across_thread_counts(&format!("map n={n}"), || {
            a.map(|v| v.tanh() * 3.0 + 1.0).into_vec()
        });
        assert_bitwise_across_thread_counts(&format!("zip_map n={n}"), || {
            a.zip_map(&b, |x, y| x * y + x).unwrap().into_vec()
        });
        assert_bitwise_across_thread_counts(&format!("axpy n={n}"), || {
            let mut acc = a.clone();
            acc.axpy(0.37, &b).unwrap();
            acc.into_vec()
        });
        assert_bitwise_across_thread_counts(&format!("map_inplace n={n}"), || {
            let mut acc = a.clone();
            acc.map_inplace(|v| v * 0.5 - 2.0);
            acc.into_vec()
        });
    }
}

#[test]
fn softmax_and_axis_reductions_bit_identical() {
    let mut rng = StdRng::seed_from_u64(16);
    for _ in 0..6 {
        let (d0, d1, d2) =
            (rng.gen_range(1usize..12), rng.gen_range(1usize..12), rng.gen_range(1usize..12));
        let t = Tensor::rand_normal(&[d0, d1, d2], 0.0, 3.0, &mut rng);
        assert_bitwise_across_thread_counts(&format!("softmax {d0}x{d1}x{d2}"), || {
            t.softmax_lastdim().unwrap().into_vec()
        });
        for axis in 0..3 {
            assert_bitwise_across_thread_counts(&format!("sum_axis{axis} {d0}x{d1}x{d2}"), || {
                t.sum_axis(axis).unwrap().into_vec()
            });
            assert_bitwise_across_thread_counts(&format!("mean_axis{axis} {d0}x{d1}x{d2}"), || {
                t.mean_axis(axis).unwrap().into_vec()
            });
        }
    }
}

#[test]
fn reassociated_reductions_are_thread_count_invariant_and_near_serial() {
    let mut rng = StdRng::seed_from_u64(17);
    // Sizes straddling the REDUCE_BLOCK boundary (4096) and well past it.
    for &n in &[1000usize, 4096, 4097, 60_000] {
        let a = Tensor::rand_normal(&[n], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[n], 0.0, 1.0, &mut rng);
        // Bit-invariance across thread counts (the partitioning is fixed).
        assert_bitwise_across_thread_counts(&format!("sum_all n={n}"), || vec![a.sum_all()]);
        assert_bitwise_across_thread_counts(&format!("dot n={n}"), || vec![a.dot(&b).unwrap()]);
        assert_bitwise_across_thread_counts(&format!("sq_norm n={n}"), || vec![a.sq_norm()]);
        assert_bitwise_across_thread_counts(&format!("mean_std n={n}"), || {
            let (m, s) = a.mean_std();
            vec![m, s]
        });
        // Near-equality with a strictly linear f64 reference: the blocked f32
        // sum may differ by rounding, but the *relative* error of the blocked
        // association vs the serial association is far below 1e-10 when both
        // are measured against the exact (f64) sum.
        let exact: f64 = a.data().iter().map(|&v| f64::from(v)).sum();
        let serial: f32 = a.data().iter().sum();
        let blocked = a.sum_all();
        let scale: f64 = a.data().iter().map(|&v| f64::from(v).abs()).sum::<f64>().max(1.0);
        let blocked_err = (f64::from(blocked) - exact).abs() / scale;
        let serial_err = (f64::from(serial) - exact).abs() / scale;
        assert!(
            blocked_err <= serial_err + 1e-10,
            "blocked sum is less accurate than serial beyond tolerance: \
             blocked {blocked_err:e} vs serial {serial_err:e} (n={n})"
        );
    }
}

#[test]
fn thread_count_config_round_trips() {
    let _guard = config_lock();
    set_num_threads(3);
    assert_eq!(num_threads(), 3);
    set_num_threads(0);
    assert!(num_threads() >= 1);
}

/// FNV-1a digests of each model's parameter bits after the 1-thread run of
/// [`every_neural_model_trains_bit_identically_at_1_and_4_threads`], in
/// training order. A kernel change that moves any trained bit fails here.
/// ST-HSL's entry changed when dropout moved to keyed masks; no baseline
/// uses dropout.
const TRAINED_DIGESTS: [(&str, u64); 14] = [
    ("ST-HSL", 0xc22c_73ff_d6b3_2a6b),
    ("ST-ResNet", 0x6253_ffca_e815_43b0),
    ("DCRNN", 0x84f5_a7d4_53ee_20d9),
    ("STGCN", 0xc5bd_800f_80e4_abb4),
    ("GWN", 0xad23_7633_1ad2_669e),
    ("STtrans", 0xdef5_1107_185b_f624),
    ("DeepCrime", 0x00d6_2bc1_6a82_053c),
    ("STDN", 0x89c8_97f6_8664_2409),
    ("ST-MetaNet", 0xc39b_747e_35b7_e423),
    ("GMAN", 0xdefe_b037_8207_4c30),
    ("AGCRN", 0x50c5_4e54_49b8_ae8c),
    ("MTGNN", 0xdded_8004_c5d1_71b4),
    ("STSHN", 0x9b84_7e5c_dfaa_6084),
    ("DMSTGCN", 0x3631_4b53_b4d1_565c),
];

/// The model-level gate: ST-HSL and every neural baseline, trained end to end
/// by the one `TrainLoop`, must finish with the same parameter bits at 1 and
/// at 4 threads, and the 1-thread bits must hash to [`TRAINED_DIGESTS`]. The
/// kernel tests above fuzz shapes; this one runs the shapes the models
/// actually build, on a grid large enough (64 regions) that their matmuls
/// split into several bands.
#[test]
fn every_neural_model_trains_bit_identically_at_1_and_4_threads() {
    let _guard = config_lock();
    let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(8, 8, 100)).unwrap();
    let data = CrimeDataset::from_city(
        &city,
        DatasetConfig { window: 8, val_days: 6, train_fraction: 7.0 / 8.0 },
    )
    .unwrap();
    // Quick-scale widths (d = 16, 64 hyperedges): on this grid, at d = 4
    // with 6 hyperedges no ST-HSL matmul is large enough to split into bands.
    let sthsl_cfg = StHslConfig {
        epochs: 2,
        batch_size: 2,
        max_batches_per_epoch: Some(3),
        ..StHslConfig::quick()
    };
    let trained_bits = |threads: usize| -> Vec<(String, Vec<u32>)> {
        set_num_threads(threads);
        let mut models = all_auditable(&BaselineConfig::tiny(), &data).unwrap();
        models.insert(0, Box::new(StHsl::new(sthsl_cfg.clone(), &data).unwrap()));
        models
            .iter_mut()
            .map(|model| {
                TrainLoop::new(TrainOptions::resilient())
                    .run(&mut **model, &data, &mut NoHooks)
                    .unwrap();
                let params = model.params();
                let bits = params
                    .ids()
                    .flat_map(|id| params.get(id).data().iter().map(|v| v.to_bits()))
                    .collect();
                (model.name(), bits)
            })
            .collect()
    };
    let serial = trained_bits(1);
    let threaded = trained_bits(4);
    set_num_threads(0);
    assert_eq!(serial.len(), 14, "ST-HSL and the 13 neural baselines");
    let digests: Vec<(&str, u64)> =
        serial.iter().map(|(name, bits)| (name.as_str(), fnv1a(bits.iter().copied()))).collect();
    assert_eq!(
        digests, TRAINED_DIGESTS,
        "1-thread trained parameters differ from the pinned digests; a kernel moved a bit"
    );
    let differing: Vec<&str> = serial
        .iter()
        .zip(&threaded)
        .filter(|((_, want), (_, got))| want != got)
        .map(|((name, _), _)| name.as_str())
        .collect();
    assert!(
        differing.is_empty(),
        "parameters trained at 4 threads differ from 1 thread for: {}",
        differing.join(", ")
    );
}
