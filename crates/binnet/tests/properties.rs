//! Property-based tests for the BNN substrate.

use binnet::{softmax, softmax_cross_entropy, Adam, BinaryLinear, Matrix, Optimizer};
use testkit::prelude::*;

fn arb_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_flat(r, c, data).unwrap())
    })
}

proptest! {
    #[test]
    fn softmax_rows_are_distributions(m in arb_matrix(5, 6)) {
        let p = softmax(&m);
        for r in 0..p.rows() {
            let sum: f32 = p.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row {r} sums to {sum}");
            prop_assert!(p.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn softmax_preserves_argmax(m in arb_matrix(4, 5)) {
        let p = softmax(&m);
        for r in 0..m.rows() {
            let argmax = |row: &[f32]| {
                row.iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap())
                    .map(|(i, _)| i)
                    .unwrap()
            };
            prop_assert_eq!(argmax(m.row(r)), argmax(p.row(r)));
        }
    }

    #[test]
    fn cross_entropy_is_nonnegative(m in arb_matrix(4, 4), label_seed in any::<u8>()) {
        let labels: Vec<usize> = (0..m.rows())
            .map(|r| (label_seed as usize + r) % m.cols())
            .collect();
        let (loss, grad) = softmax_cross_entropy(&m, &labels).unwrap();
        prop_assert!(loss >= 0.0);
        // the gradient over a row sums to zero (softmax minus one-hot)
        for r in 0..grad.rows() {
            let sum: f32 = grad.row(r).iter().sum();
            prop_assert!(sum.abs() < 1e-5, "row {r} gradient sums to {sum}");
        }
    }

    #[test]
    fn matmul_distributes_over_scaling(a in arb_matrix(3, 4), factor in -3.0f32..3.0) {
        let n = a.cols();
        let b = Matrix::from_flat(n, 2, (0..n * 2).map(|i| i as f32 * 0.5 - 2.0).collect()).unwrap();
        let mut a_scaled = a.clone();
        a_scaled.scale(factor);
        let mut product_scaled = a.matmul(&b).unwrap();
        product_scaled.scale(factor);
        let direct = a_scaled.matmul(&b).unwrap();
        for (x, y) in direct.as_slice().iter().zip(product_scaled.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_matmul_agrees_with_naive(a in arb_matrix(4, 3)) {
        let g = Matrix::from_flat(a.rows(), 2, (0..a.rows() * 2).map(|i| i as f32).collect()).unwrap();
        let fast = a.transpose_matmul(&g).unwrap();
        let slow = a.transposed().matmul(&g).unwrap();
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn optimizers_step_against_the_gradient_sign(lr in 0.001f32..0.5, w0 in -5.0f32..5.0) {
        // On f(w) = (w - 1)² the update direction must oppose the gradient.
        // (Adam's first step has magnitude ≈ lr regardless of |g|, so it may
        // overshoot the optimum — only the sign is a universal property.)
        let mut w = vec![w0];
        let g = [2.0 * (w0 - 1.0)];
        Adam::new(lr).step(&mut w, &g).unwrap();
        if g[0].abs() > 1e-4 {
            let step = w[0] - w0;
            prop_assert!(
                step * g[0] < 0.0,
                "step {step} should oppose gradient {}",
                g[0]
            );
        }
    }

    #[test]
    fn binary_layer_logits_are_bounded_by_d(d in 1usize..64, seed in any::<u64>()) {
        let layer = BinaryLinear::new(d, 3, seed);
        let x = Matrix::from_flat(1, d, vec![1.0; d]).unwrap().pack_bipolar().unwrap();
        let mut logits = Matrix::zeros(1, 3);
        layer.forward_packed_into(&x, &mut logits);
        for j in 0..3 {
            prop_assert!(logits.get(0, j).abs() <= d as f32);
        }
    }
}

// Regression cases preserved from the retired `.proptest-regressions` file:
// inputs that once falsified a property, pinned here explicitly so they run
// on every invocation rather than depending on an opaque seed database.

/// `matmul_distributes_over_scaling` once failed on the degenerate 1×1 zero
/// matrix with `factor = 0.0` (−0.0 vs 0.0 comparisons).
#[test]
fn regression_scaling_zero_matrix_zero_factor() {
    let a = Matrix::from_flat(1, 1, vec![0.0]).unwrap();
    let factor = 0.0f32;
    let b = Matrix::from_flat(1, 2, vec![-2.0, -1.5]).unwrap();
    let mut a_scaled = a.clone();
    a_scaled.scale(factor);
    let mut product_scaled = a.matmul(&b).unwrap();
    product_scaled.scale(factor);
    let direct = a_scaled.matmul(&b).unwrap();
    for (x, y) in direct.as_slice().iter().zip(product_scaled.as_slice()) {
        assert!((x - y).abs() < 1e-3, "{x} vs {y}");
    }
}

/// `optimizers_step_against_the_gradient_sign` once failed near
/// `lr = 0.3330914, w0 = 0.9511101` (large lr, tiny gradient).
#[test]
fn regression_optimizer_sign_large_lr_near_optimum() {
    let (lr, w0) = (0.333_091_4_f32, 0.951_110_1_f32);
    let mut w = vec![w0];
    let g = [2.0 * (w0 - 1.0)];
    Adam::new(lr).step(&mut w, &g).unwrap();
    if g[0].abs() > 1e-4 {
        let step = w[0] - w0;
        assert!(step * g[0] < 0.0, "step {step} should oppose gradient {}", g[0]);
    }
}
