//! Parity suite: the bit-packed XNOR/popcount kernels must be **exactly**
//! equal to the dense `f32` reference products — `assert_eq!` on whole
//! matrices, never an epsilon — across property-generated shapes, dropout
//! masks, and thread counts. The gradient product is class-major (`K×D`),
//! so it is compared with the dense `Xᵀ·G` transposed.

use binnet::{
    packed_matmul, packed_matmul_masked, packed_transpose_matmul, BinaryLinear, Dropout, Matrix,
    PackedMatrix,
};
#[cfg(target_arch = "x86_64")]
use hdc::kernels::KernelTier;
use testkit::prelude::*;
use threadpool::ThreadPool;

/// A random bipolar matrix (entries exactly ±1.0).
fn arb_sign_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        collection::vec(any::<bool>(), r * c).prop_map(move |bits| {
            let data = bits.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
            Matrix::from_flat(r, c, data).unwrap()
        })
    })
}

/// A random real matrix with awkward magnitudes (gradient stand-in).
fn arb_grad(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    collection::vec(-100.0f32..100.0, rows * cols)
        .prop_map(move |data| Matrix::from_flat(rows, cols, data).unwrap())
}

proptest! {
    #[test]
    fn packed_forward_equals_dense_forward(
        x in arb_sign_matrix(6, 200),
        seed in any::<u64>(),
        threads in 1usize..=4,
    ) {
        let d = x.cols();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let w = binnet::layer::random_sign_matrix(d, 3, &mut rng);
        let expect = x.matmul(&w).unwrap();

        let px = x.pack_bipolar().expect("bipolar by construction");
        let pw = PackedMatrix::from_sign_columns(&w);
        let got = packed_matmul(&px, &pw, &ThreadPool::new(threads)).unwrap();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn masked_forward_equals_dense_on_zeroed_columns(
        x in arb_sign_matrix(5, 150),
        rate in 0.05f32..0.9,
        seed in any::<u64>(),
        threads in 1usize..=4,
    ) {
        let d = x.cols();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let w = binnet::layer::random_sign_matrix(d, 4, &mut rng);
        let mut dropout = Dropout::new(rate, seed ^ 0xD0).unwrap();
        let mask = dropout.sample_mask(d).expect("rate > 0");

        // dense reference: zero the dropped columns UNSCALED, then multiply
        let mut x_ref = x.clone();
        mask.apply_to_matrix(&mut x_ref);
        let expect = x_ref.matmul(&w).unwrap();

        let px = x.pack_bipolar().unwrap();
        let pw = PackedMatrix::from_sign_columns(&w);
        let got = packed_matmul_masked(&px, &pw, &mask, &ThreadPool::new(threads)).unwrap();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn threaded_transpose_matmul_is_bit_identical(
        x in arb_sign_matrix(6, 120),
        seed in any::<u64>(),
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let g_strategy_sub = (0..x.rows() * 3)
            .map(|_| rng.random_range(-50.0f32..50.0))
            .collect::<Vec<f32>>();
        let g = Matrix::from_flat(x.rows(), 3, g_strategy_sub).unwrap();
        let seq = x.transpose_matmul(&g).unwrap();
        for threads in [2, 3, 5] {
            let pooled = x.transpose_matmul_pooled(&g, &ThreadPool::new(threads)).unwrap();
            prop_assert_eq!(&pooled, &seq, "threads={}", threads);
        }
    }

    #[test]
    fn packed_backward_equals_dense_backward(
        x in arb_sign_matrix(5, 140),
        g in arb_grad(5, 3),
        rate in 0.0f32..0.8,
        seed in any::<u64>(),
        threads in 1usize..=4,
    ) {
        // align the generated gradient's batch size with x
        let rows = x.rows();
        let mut gd = Matrix::zeros(rows, g.cols());
        for r in 0..rows {
            gd.row_mut(r).copy_from_slice(g.row(r.min(g.rows() - 1)));
        }
        let px = x.pack_bipolar().unwrap();
        let pool = ThreadPool::new(threads);

        let mut dropout = Dropout::new(rate, seed ^ 0xB4).unwrap();
        let mask = dropout.sample_mask(x.cols());
        let mut x_ref = x.clone();
        if let Some(m) = &mask {
            m.apply_to_matrix(&mut x_ref);
        }
        let expect = x_ref.transpose_matmul(&gd).unwrap().transposed();
        let got = packed_transpose_matmul(&px, &gd, mask.as_ref(), &pool).unwrap();
        prop_assert_eq!(got, expect);
    }
}

#[test]
fn layer_forward_logits_have_integer_values_up_to_dim() {
    // every packed logit is an exact integer with |v| ≤ D and D-parity
    let d = 1000;
    let mut rng = Xoshiro256pp::seed_from_u64(3);
    let layer = BinaryLinear::new(d, 4, 7);
    let x = binnet::layer::random_sign_matrix(8, d, &mut rng);
    let mut logits = Matrix::zeros(8, 4);
    layer.forward_packed_into(&x.pack_bipolar().unwrap(), &mut logits);
    for &v in logits.as_slice() {
        assert_eq!(v, v.trunc(), "logit {v} must be an integer");
        assert!(v.abs() <= d as f32);
        assert_eq!((v.abs() as usize) % 2, d % 2, "logit parity must match D");
    }
}

#[test]
fn scale_once_ordering_matches_packed_dropout_semantics() {
    // The trainer scales integer logits once; verify that equals the packed
    // masked product scaled once — NOT inverted dropout applied per element
    // before the product (which would round differently in general).
    let d = 96;
    let mut rng = Xoshiro256pp::seed_from_u64(9);
    let x = binnet::layer::random_sign_matrix(4, d, &mut rng);
    let w = binnet::layer::random_sign_matrix(d, 2, &mut rng);
    let mut dropout = Dropout::new(0.25, 17).unwrap();
    let mask = dropout.sample_mask(d).unwrap();

    let mut x_ref = x.clone();
    mask.apply_to_matrix(&mut x_ref);
    let mut expect = x_ref.matmul(&w).unwrap();
    expect.scale(mask.scale());

    let px = x.pack_bipolar().unwrap();
    let pw = PackedMatrix::from_sign_columns(&w);
    let mut got = packed_matmul_masked(&px, &pw, &mask, &ThreadPool::new(2)).unwrap();
    got.scale(mask.scale());
    assert_eq!(got, expect);
}

#[test]
fn blocked_backward_matches_dense_at_dims_crossing_cache_blocks() {
    // The gradient kernel walks D in cache-sized blocks (TILE_F32S/K dims
    // per block). Dims chosen to land below, on, and well past block
    // boundaries for small K must still be exactly equal to the dense
    // reference, at every thread count.
    let mut rng = Xoshiro256pp::seed_from_u64(21);
    for (d, k) in [(2048, 3), (4096, 1), (4100, 5), (8200, 2)] {
        let batch = 3;
        let x = binnet::layer::random_sign_matrix(batch, d, &mut rng);
        let g_data: Vec<f32> = (0..batch * k).map(|_| rng.random_range(-50.0f32..50.0)).collect();
        let g = Matrix::from_flat(batch, k, g_data).unwrap();
        let expect = x.transpose_matmul(&g).unwrap().transposed();
        let px = x.pack_bipolar().unwrap();
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let got = packed_transpose_matmul(&px, &g, None, &pool).unwrap();
            assert_eq!(got, expect, "d={d} k={k} threads={threads}");
        }
    }
}

#[test]
fn into_variants_match_allocating_variants_and_reuse_buffers() {
    let mut rng = Xoshiro256pp::seed_from_u64(22);
    let (batch, d, k) = (5, 300, 4);
    let x = binnet::layer::random_sign_matrix(batch, d, &mut rng);
    let w = binnet::layer::random_sign_matrix(d, k, &mut rng);
    let g_data: Vec<f32> = (0..batch * k).map(|_| rng.random_range(-10.0f32..10.0)).collect();
    let g = Matrix::from_flat(batch, k, g_data).unwrap();
    let px = x.pack_bipolar().unwrap();
    let pw = PackedMatrix::from_sign_columns(&w);
    let mut dropout = Dropout::new(0.3, 23).unwrap();
    let mask = dropout.sample_mask(d).unwrap();

    // the raw `_into` kernels take pre-shaped buffers (the layer wrappers
    // own the reshape) and are reused across thread counts below
    let mut fwd = Matrix::zeros(batch, k);
    let mut bwd = Matrix::zeros(k, d);
    for threads in [1, 2, 4] {
        let pool = ThreadPool::new(threads);

        binnet::packed_matmul_into(&px, &pw, &pool, &mut fwd).unwrap();
        assert_eq!(fwd, binnet::packed_matmul(&px, &pw, &pool).unwrap());
        let fwd_ptr = fwd.as_slice().as_ptr();

        binnet::packed_matmul_masked_into(&px, &pw, &mask, &pool, &mut fwd).unwrap();
        assert_eq!(fwd, binnet::packed_matmul_masked(&px, &pw, &mask, &pool).unwrap());
        assert_eq!(fwd_ptr, fwd.as_slice().as_ptr(), "same shape must not reallocate");

        binnet::packed_transpose_matmul_into(&px, &g, Some(&mask), &pool, &mut bwd).unwrap();
        assert_eq!(
            bwd,
            packed_transpose_matmul(&px, &g, Some(&mask), &pool).unwrap()
        );
    }
}

#[test]
fn blocked_forward_matches_dense_at_batches_crossing_query_blocks() {
    // The forward kernel walks batch rows in blocks of QUERY_BLOCK (64)
    // queries, weight-outer inside a block. Batch sizes below, on, and past
    // the block boundary — and past it again after thread chunking splits
    // the batch — must be exactly equal to the dense reference.
    let mut rng = Xoshiro256pp::seed_from_u64(23);
    let (d, k) = (300, 3);
    let w = binnet::layer::random_sign_matrix(d, k, &mut rng);
    let pw = PackedMatrix::from_sign_columns(&w);
    for batch in [1usize, 7, 63, 64, 65, 128, 130] {
        let x = binnet::layer::random_sign_matrix(batch, d, &mut rng);
        let expect = x.matmul(&w).unwrap();
        let px = x.pack_bipolar().unwrap();
        let mut dropout = Dropout::new(0.4, batch as u64).unwrap();
        let mask = dropout.sample_mask(d).unwrap();
        let mut x_ref = x.clone();
        mask.apply_to_matrix(&mut x_ref);
        let expect_masked = x_ref.matmul(&w).unwrap();
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let got = packed_matmul(&px, &pw, &pool).unwrap();
            assert_eq!(got, expect, "batch={batch} threads={threads}");
            let got_masked = packed_matmul_masked(&px, &pw, &mask, &pool).unwrap();
            assert_eq!(got_masked, expect_masked, "masked batch={batch} threads={threads}");
        }
    }
}

#[test]
fn layer_forward_is_blocked_identically_to_dense_for_large_batches() {
    // End-to-end through BinaryLinear: a batch wider than one query block
    // still produces dense-exact logits from the layer's packed path. The
    // dense reference multiplies by the layer's signs as a D×K ±1 matrix.
    let mut rng = Xoshiro256pp::seed_from_u64(24);
    let (batch, d, k) = (97, 257, 5);
    let x = binnet::layer::random_sign_matrix(batch, d, &mut rng);
    let layer = BinaryLinear::new(d, k, 77).with_threads(2);
    let mut dense_weights = layer.latent().transposed();
    dense_weights.map_inplace(|l| if l >= 0.0 { 1.0 } else { -1.0 });
    let expect = x.matmul(&dense_weights).unwrap();
    let mut got = Matrix::zeros(1, 1);
    layer.forward_packed_into(&x.pack_bipolar().unwrap(), &mut got);
    assert_eq!(got, expect);
}

// ---------------------------------------------------------------------------
// Kernel tiers: on the AVX2 and AVX-512 tiers the gradient product must
// equal the scalar reference bit for bit (compared as `to_bits`, so `+0.0`
// vs `-0.0` would count). The fused optimizer step's tier diff lives in
// `layer::tests`.
// ---------------------------------------------------------------------------

/// The SIMD tiers this CPU runs.
#[cfg(target_arch = "x86_64")]
fn simd_tiers() -> Vec<KernelTier> {
    [KernelTier::Avx2, KernelTier::Avx512]
        .into_iter()
        .filter(|tier| tier.available())
        .collect()
}

/// Gradient entries that stress the float path: subnormals of both signs,
/// `±0.0`, magnitudes large enough that some sums overflow to `±∞`, and
/// ordinary softmax-sized values.
#[cfg(target_arch = "x86_64")]
fn awkward_gradient(rows: usize, cols: usize, rng: &mut Xoshiro256pp) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| {
            let sign = if rng.random::<bool>() { 1.0f32 } else { -1.0 };
            sign * match rng.random_range(0u32..5) {
                0 => f32::from_bits(rng.random_range(1u32..0x0080_0000)), // subnormal
                1 => 0.0,
                2 => rng.random_range(1e36f32..3e38),
                3 => rng.random_range(1e-38f32..1e-30),
                _ => rng.random_range(0.0f32..1.0),
            }
        })
        .collect();
    Matrix::from_flat(rows, cols, data).unwrap()
}

#[cfg(target_arch = "x86_64")]
fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_gradient_matches_scalar_bit_for_bit() {
    use binnet::packed::packed_transpose_matmul_into_on;

    let tiers = simd_tiers();
    if tiers.is_empty() {
        eprintln!("skipping: no AVX2 on this host");
        return;
    }
    let mut rng = Xoshiro256pp::seed_from_u64(0x7AE5);
    let pools = [1, 3, 4].map(ThreadPool::new);
    for d in [1usize, 7, 8, 9, 63, 64, 65, 257, 10_000] {
        for batch in [1usize, 63, 64, 65, 200] {
            let x = binnet::layer::random_sign_matrix(batch, d, &mut rng);
            let px = x.pack_bipolar().unwrap();
            let mask = Dropout::new(0.5, d as u64 ^ batch as u64)
                .unwrap()
                .sample_mask(d)
                .unwrap();
            for k in [1usize, 3, 4, 5, 10, 26] {
                let g = awkward_gradient(batch, k, &mut rng);
                for mask in [None, Some(&mask)] {
                    // NaN-filled outputs: every element must be written. The
                    // scalar tier is thread-invariant (the dense-reference
                    // tests above pin it), so one reference serves every
                    // SIMD tier and pool width.
                    let nan = Matrix::from_flat(k, d, vec![f32::NAN; d * k]).unwrap();
                    let mut scalar = nan.clone();
                    packed_transpose_matmul_into_on(
                        KernelTier::Scalar,
                        &px,
                        &g,
                        mask,
                        &pools[0],
                        &mut scalar,
                    )
                    .unwrap();
                    let expect = bits(&scalar);
                    for (&tier, pool) in
                        tiers.iter().flat_map(|t| pools.iter().map(move |p| (t, p)))
                    {
                        let mut simd = nan.clone();
                        packed_transpose_matmul_into_on(tier, &px, &g, mask, pool, &mut simd)
                            .unwrap();
                        assert!(
                            bits(&simd) == expect,
                            "tier={} d={d} batch={batch} k={k} masked={} threads={}",
                            tier.name(),
                            mask.is_some(),
                            pool.threads()
                        );
                    }
                }
            }
        }
    }
}
