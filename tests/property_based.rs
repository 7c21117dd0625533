//! Cross-crate property-based tests (proptest): invariants of the tensor
//! algebra, metrics, simulator calibration and the z-score pipeline under
//! randomly generated inputs.

use proptest::prelude::*;
use sthsl::prelude::*;
use sthsl::tensor::broadcast_shapes;

fn tensor_strategy(max: usize) -> impl Strategy<Value = Tensor> {
    (1usize..=max, 1usize..=max).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-50.0f32..50.0, r * c)
            .prop_map(move |v| Tensor::from_vec(v, &[r, c]).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn broadcast_is_commutative_in_shape((a, b) in (1usize..5, 1usize..5)) {
        let s1 = broadcast_shapes(&[a, 1], &[1, b]).unwrap();
        let s2 = broadcast_shapes(&[1, b], &[a, 1]).unwrap();
        prop_assert_eq!(s1, s2);
    }

    #[test]
    fn add_commutes(t in tensor_strategy(6)) {
        let u = t.map(|v| v * 0.5 + 1.0);
        let ab = t.add(&u).unwrap();
        let ba = u.add(&t).unwrap();
        prop_assert_eq!(ab.data(), ba.data());
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in tensor_strategy(4), // [m, k]
    ) {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let b = Tensor::full(&[k, 3], 0.5);
        let c = Tensor::full(&[k, 3], -0.25);
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        let _ = m;
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn mae_is_zero_iff_identical(t in tensor_strategy(6)) {
        prop_assert!(sthsl::data::mae(&t, &t).unwrap().abs() < 1e-12);
        let shifted = t.add_scalar(1.0);
        prop_assert!((sthsl::data::mae(&t, &shifted).unwrap() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn mae_symmetry_and_triangle_bound(t in tensor_strategy(5)) {
        let u = t.map(|v| v * 0.3 - 2.0);
        let fwd = sthsl::data::mae(&t, &u).unwrap();
        let bwd = sthsl::data::mae(&u, &t).unwrap();
        prop_assert!((fwd - bwd).abs() < 1e-9);
        // MAE(t, u) ≤ MAE(t, w) + MAE(w, u) for any w.
        let w = t.map(|v| v.abs().sqrt());
        let via = sthsl::data::mae(&t, &w).unwrap() + sthsl::data::mae(&w, &u).unwrap();
        prop_assert!(fwd <= via + 1e-5);
    }

    #[test]
    fn density_degrees_bounded(seed in 0u64..1000) {
        let mut cfg = SynthConfig::nyc_like().scaled(4, 4, 40);
        cfg.seed = seed;
        let city = SynthCity::generate(&cfg).unwrap();
        let d = sthsl::data::density_degrees(&city.tensor).unwrap();
        prop_assert!(d.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn simulator_counts_scale_with_targets(mult in 1.0f64..4.0) {
        let base = SynthConfig::nyc_like().scaled(4, 4, 60);
        let mut boosted = base.clone();
        for c in &mut boosted.categories {
            c.target_total *= mult;
        }
        let a = SynthCity::generate(&base).unwrap();
        let b = SynthCity::generate(&boosted).unwrap();
        let ta: f64 = (0..4).map(|c| a.total_cases(c)).sum();
        let tb: f64 = (0..4).map(|c| b.total_cases(c)).sum();
        // Poisson noise allows slack, but the ratio must track `mult`.
        prop_assert!(tb > ta * (mult * 0.55), "ratio {} vs mult {}", tb / ta, mult);
        prop_assert!(tb < ta * (mult * 1.8));
    }

    #[test]
    fn zscore_roundtrip(seed in 0u64..500) {
        let mut cfg = SynthConfig::nyc_like().scaled(4, 4, 80);
        cfg.seed = seed;
        let city = SynthCity::generate(&cfg).unwrap();
        let data = CrimeDataset::from_city(
            &city,
            DatasetConfig { window: 7, val_days: 5, train_fraction: 7.0 / 8.0 },
        ).unwrap();
        let sample = data.sample(30).unwrap();
        let z = data.zscore(&sample.input);
        let back = data.un_zscore(&z);
        for (a, b) in back.data().iter().zip(sample.input.data()) {
            prop_assert!((a - b).abs() < 1e-2);
        }
    }
}
