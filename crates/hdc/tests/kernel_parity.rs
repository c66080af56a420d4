//! Differential kernel-parity suite: every SIMD tier (AVX2 and AVX-512)
//! must agree with the scalar reference **bit-for-bit** on every kernel
//! entry point.
//!
//! All kernels compute exact integer popcounts — no floating point — so
//! SIMD-vs-scalar equality is `==`, never an epsilon. The property tests
//! generate widths straddling every word (64-bit) and lane (256-bit)
//! boundary plus the Harley–Seal block boundary (1024 bits / 16 vectors),
//! random tail words, and degenerate masks; the explicit regression cases
//! pin the boundary widths (D ∈ {1, 63, 64, 65, 255, 256, 257, 511, 512,
//! 513, 575, 576, 577, 1024, 10000}) and, for the 8-word registers of the
//! AVX-512 tier, every tail length 0–7.
//!
//! A tier the host lacks is skipped (there is nothing to diff), but the
//! scalar self-consistency and dispatch tests still run.

use hdc::kernels;
use hdc::{BinaryHv, Dim};
use testkit::prelude::*;
use testkit::Xoshiro256pp;

/// Widths (in bits) straddling word, lane, Harley–Seal block and 8-word
/// (512-bit) register boundaries.
const BOUNDARY_DIMS: &[usize] = &[
    1, 63, 64, 65, 255, 256, 257, 511, 512, 513, 575, 576, 577, 1023, 1024, 1025, 4096, 10_000,
];

/// The forced popcount entry points of one SIMD tier.
struct SimdTier {
    name: &'static str,
    popcount: fn(&[u64]) -> usize,
    hamming: fn(&[u64], &[u64]) -> usize,
    masked_hamming: fn(&[u64], &[u64], &[u64]) -> usize,
}

/// The SIMD tiers this host runs, each with its forced entry points.
fn simd_tiers() -> Vec<SimdTier> {
    #[allow(unused_mut)]
    let mut tiers = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if kernels::avx2_available() {
            tiers.push(SimdTier {
                name: "avx2",
                popcount: kernels::popcount_words_avx2,
                hamming: kernels::hamming_words_avx2,
                masked_hamming: kernels::masked_hamming_words_avx2,
            });
        }
        if kernels::avx512_available() {
            tiers.push(SimdTier {
                name: "avx512",
                popcount: kernels::popcount_words_avx512,
                hamming: kernels::hamming_words_avx512,
                masked_hamming: kernels::masked_hamming_words_avx512,
            });
        }
    }
    tiers
}

/// Asserts that every SIMD tier matches the scalar reference on one operand
/// triple.
fn assert_tiers_match_scalar(a: &[u64], b: &[u64], m: &[u64], context: &str) {
    for t in simd_tiers() {
        let name = t.name;
        assert_eq!(
            (t.popcount)(a),
            kernels::popcount_words_scalar(a),
            "{name} popcount {context}"
        );
        assert_eq!(
            (t.hamming)(a, b),
            kernels::hamming_words_scalar(a, b),
            "{name} hamming {context}"
        );
        assert_eq!(
            (t.masked_hamming)(a, b, m),
            kernels::masked_hamming_words_scalar(a, b, m),
            "{name} masked {context}"
        );
    }
}

fn hv(dim: usize, seed: u64) -> BinaryHv {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    BinaryHv::random(Dim::new(dim), &mut rng)
}

/// Word lengths worth probing: 0..4 words (pure scalar tail), 4..64 words
/// (leftover vectors), and ≥64 words (full Harley–Seal blocks + remainder).
fn arb_len() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..=5, 14usize..=18, 60usize..=68, 120usize..=130]
}

fn arb_words() -> impl Strategy<Value = Vec<u64>> {
    arb_len().prop_flat_map(|n| collection::vec(any::<u64>(), n))
}

fn arb_word_pair() -> impl Strategy<Value = (Vec<u64>, Vec<u64>)> {
    arb_len().prop_flat_map(|n| {
        (
            collection::vec(any::<u64>(), n),
            collection::vec(any::<u64>(), n),
        )
    })
}

fn arb_word_triple() -> impl Strategy<Value = (Vec<u64>, Vec<u64>, Vec<u64>)> {
    arb_len().prop_flat_map(|n| {
        (
            collection::vec(any::<u64>(), n),
            collection::vec(any::<u64>(), n),
            collection::vec(any::<u64>(), n),
        )
    })
}

proptest! {
    #[test]
    fn popcount_simd_matches_scalar(words in arb_words()) {
        for t in simd_tiers() {
            prop_assert_eq!((t.popcount)(&words), kernels::popcount_words_scalar(&words));
        }
    }

    #[test]
    fn hamming_simd_matches_scalar(pair in arb_word_pair()) {
        let (a, b) = pair;
        for t in simd_tiers() {
            prop_assert_eq!((t.hamming)(&a, &b), kernels::hamming_words_scalar(&a, &b));
        }
    }

    #[test]
    fn masked_hamming_simd_matches_scalar(triple in arb_word_triple()) {
        let (a, b, m) = triple;
        for t in simd_tiers() {
            prop_assert_eq!(
                (t.masked_hamming)(&a, &b, &m),
                kernels::masked_hamming_words_scalar(&a, &b, &m)
            );
        }
    }

    #[test]
    fn degenerate_masks_simd_matches_scalar(pair in arb_word_pair()) {
        let (a, b) = pair;
        let zeros = vec![0u64; a.len()];
        let ones = vec![u64::MAX; a.len()];
        for t in simd_tiers() {
            prop_assert_eq!((t.masked_hamming)(&a, &b, &zeros), 0);
            prop_assert_eq!(
                (t.masked_hamming)(&a, &b, &ones),
                kernels::hamming_words_scalar(&a, &b)
            );
        }
    }
}

proptest! {
    // Tier-independent: whatever tier this process dispatches to (set
    // LEHDC_KERNEL to pin it — check.sh runs the suite under each), the
    // public entry points must equal the scalar reference.
    #[test]
    fn dispatched_kernels_match_scalar(triple in arb_word_triple()) {
        let (a, b, m) = triple;
        prop_assert_eq!(
            kernels::popcount_words(&a),
            kernels::popcount_words_scalar(&a)
        );
        prop_assert_eq!(
            kernels::hamming_words(&a, &b),
            kernels::hamming_words_scalar(&a, &b)
        );
        prop_assert_eq!(
            kernels::masked_hamming_words(&a, &b, &m),
            kernels::masked_hamming_words_scalar(&a, &b, &m)
        );
    }

    // The fused XNOR-dot and its masked variant are derived from hamming;
    // pin the arithmetic identity against a per-bit reference.
    #[test]
    fn dot_words_matches_per_bit_reference(d in 1usize..=300, s1 in any::<u64>(), s2 in any::<u64>()) {
        let a = hv(d, s1);
        let b = hv(d, s2);
        let expect: i64 = (0..d).map(|i| i64::from(a.bipolar(i) * b.bipolar(i))).sum();
        prop_assert_eq!(kernels::dot_words(d, a.as_words(), b.as_words()), expect);
    }

    #[test]
    fn blocked_argmax_matches_per_query(
        d in 1usize..=200,
        n_rows in 1usize..=9,
        n_queries in 0usize..=40,
        block in 1usize..=48,
        seed in any::<u64>()
    ) {
        let dim = Dim::new(d);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        // small D and few rows make ties common — exactly what the
        // determinism claim is about
        let rows: Vec<BinaryHv> = (0..n_rows).map(|_| BinaryHv::random(dim, &mut rng)).collect();
        let queries: Vec<BinaryHv> = (0..n_queries).map(|_| BinaryHv::random(dim, &mut rng)).collect();
        let row_words: Vec<&[u64]> = rows.iter().map(BinaryHv::as_words).collect();
        let query_words: Vec<&[u64]> = queries.iter().map(BinaryHv::as_words).collect();
        let expect: Vec<usize> = queries
            .iter()
            .map(|q| kernels::argmax_dot(q.as_words(), row_words.iter().copied()).unwrap())
            .collect();
        let mut got = vec![usize::MAX; queries.len()];
        kernels::argmax_dot_blocked_into(&query_words, &row_words, block, &mut got);
        prop_assert_eq!(got, expect);
    }
}

// ---------------------------------------------------------------------------
// Explicit regression cases: the boundary widths from the issue, plus edge
// cases the generators reach only rarely.
// ---------------------------------------------------------------------------

#[test]
fn boundary_widths_simd_matches_scalar() {
    for &d in BOUNDARY_DIMS {
        let a = hv(d, 2 * d as u64);
        let b = hv(d, 2 * d as u64 + 1);
        let mask = BinaryHv::from_fn(Dim::new(d), |i| i % 3 != 0);
        assert_tiers_match_scalar(
            a.as_words(),
            b.as_words(),
            mask.as_words(),
            &format!("d={d}"),
        );
    }
}

#[test]
fn random_tail_words_simd_matches_scalar() {
    // Raw word slices whose last word is fully random (no zero tail bits):
    // the kernels must count whatever is there, identically.
    let mut rng = Xoshiro256pp::seed_from_u64(0xBEEF);
    for n in [1usize, 2, 3, 4, 5, 7, 8, 15, 16, 17, 63, 64, 65, 157] {
        let a: Vec<u64> = (0..n).map(|_| rng.random::<u64>()).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.random::<u64>()).collect();
        let m: Vec<u64> = (0..n).map(|_| rng.random::<u64>()).collect();
        assert_tiers_match_scalar(&a, &b, &m, &format!("n={n}"));
    }
}

#[test]
fn every_register_tail_length_matches_scalar() {
    // Raw slices of 0–32 words: every count of words left over after whole
    // 8-word registers (0–7), four times over, each under random, all-zero
    // and all-one masks.
    let mut rng = Xoshiro256pp::seed_from_u64(0x0512);
    for n in 0..=32usize {
        let a: Vec<u64> = (0..n).map(|_| rng.random::<u64>()).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.random::<u64>()).collect();
        let m: Vec<u64> = (0..n).map(|_| rng.random::<u64>()).collect();
        for mask in [m, vec![0; n], vec![u64::MAX; n]] {
            assert_tiers_match_scalar(&a, &b, &mask, &format!("n={n} tail={}", n % 8));
        }
    }
}

#[test]
fn empty_slices_count_zero_on_every_tier() {
    assert_eq!(kernels::popcount_words(&[]), 0);
    assert_eq!(kernels::popcount_words_scalar(&[]), 0);
    assert_eq!(kernels::hamming_words(&[], &[]), 0);
    assert_eq!(kernels::masked_hamming_words(&[], &[], &[]), 0);
    for t in simd_tiers() {
        assert_eq!((t.popcount)(&[]), 0, "{}", t.name);
        assert_eq!((t.hamming)(&[], &[]), 0, "{}", t.name);
        assert_eq!((t.masked_hamming)(&[], &[], &[]), 0, "{}", t.name);
    }
}

#[test]
fn kept_zero_mask_yields_zero_dot() {
    let d = 257;
    let a = hv(d, 1);
    let b = hv(d, 2);
    let zeros = BinaryHv::zeros(Dim::new(d));
    assert_eq!(
        kernels::masked_dot_words(0, a.as_words(), b.as_words(), zeros.as_words()),
        0
    );
    assert_eq!(
        kernels::masked_hamming_words(a.as_words(), b.as_words(), zeros.as_words()),
        0
    );
}

#[test]
fn saturated_popcounts_stay_exact_integers_below_2_pow_24() {
    // Worst case near the paper's D: a vector against its negation has
    // hamming = D and dot = −D. The logit magnitude D = 10,000 < 2²⁴, so the
    // f32 the packed products hand out is exactly the integer — the property
    // the whole bit-identical claim rests on.
    let d = 10_000;
    let a = hv(d, 77);
    let neg = a.negated();
    let h = kernels::hamming_words(a.as_words(), neg.as_words());
    assert_eq!(h, d, "negation disagrees everywhere");
    let dot = kernels::dot_words(d, a.as_words(), neg.as_words());
    assert_eq!(dot, -(d as i64));
    assert_eq!((dot as f32) as i64, dot, "logit is exact in f32");
    let all = kernels::popcount_words(
        BinaryHv::ones(Dim::new(d)).as_words(),
    );
    assert_eq!(all, d);
    assert!((d as i64) < (1 << 24));
}

#[test]
fn active_tier_honors_env_override() {
    // This process may have been launched with LEHDC_KERNEL set (check.sh
    // runs the suite under every value and unset); whatever was requested
    // must be what dispatch resolved to, and unset must pick the highest
    // tier the CPU runs.
    use kernels::KernelTier::{Avx2, Avx512, Scalar};
    let best = if kernels::avx512_available() {
        Avx512
    } else if kernels::avx2_available() {
        Avx2
    } else {
        Scalar
    };
    let tier = kernels::active_tier();
    match std::env::var(kernels::KERNEL_ENV).ok().as_deref() {
        Some("scalar") => assert_eq!(tier, Scalar),
        Some("avx2") => assert_eq!(tier, best.min(Avx2), "avx2, or the scalar fallback"),
        _ => assert_eq!(tier, best, "auto-detection picks the highest available tier"),
    }
}
