//! Parity suite for the bit-sliced carry-save [`Accumulator`].
//!
//! Proves three independent equivalences:
//!
//! 1. **Representation parity** — bit-sliced vertical counters agree with a
//!    plain horizontal `u32`-counter reference across boundary widths,
//!    odd/even counts (ties), and any chunked-merge order.
//! 2. **Tier parity** — the AVX2 carry-save, carry-save tree and compare
//!    kernels are bit-identical to their always-compiled scalar references
//!    (run when the CPU has AVX2; `scripts/check.sh` additionally runs the
//!    whole suite on every kernel tier; the AVX-512 tier runs these AVX2
//!    bodies), and the grouped adds
//!    equal the per-input ripple and the `u32` reference.
//! 3. **Golden pins** — encoder outputs and the `sgn(0)` tie-break RNG
//!    stream are byte-identical to the pre-bit-slicing seed encoder, pinned
//!    as literal words captured from that implementation.

use hdc::kernels;
use hdc::{Accumulator, BinaryHv, Dim, Encode, NgramEncoder, RecordEncoder};
use testkit::{Rng, Xoshiro256pp};

/// Boundary dimensionalities: single word, word edges, multi-word edges, a
/// ragged prime, and the paper's D = 10000.
const WIDTHS: &[usize] = &[1, 63, 64, 65, 127, 128, 129, 517, 4096, 10000];

/// The horizontal reference: one `u32` counter per dimension, incremented a
/// bit at a time — the representation the bit-sliced planes replaced.
struct RefAccumulator {
    ones: Vec<u32>,
    n: u32,
    dim: Dim,
}

impl RefAccumulator {
    fn new(dim: Dim) -> Self {
        RefAccumulator {
            ones: vec![0; dim.get()],
            n: 0,
            dim,
        }
    }

    fn add(&mut self, hv: &BinaryHv) {
        for (i, one) in self.ones.iter_mut().enumerate() {
            *one += u32::from(hv.get(i));
        }
        self.n += 1;
    }

    fn sum(&self, i: usize) -> i64 {
        2 * i64::from(self.ones[i]) - i64::from(self.n)
    }

    fn threshold<R: Rng + ?Sized>(&self, rng: &mut R) -> BinaryHv {
        BinaryHv::from_fn(self.dim, |i| match self.sum(i).cmp(&0) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => rng.random::<bool>(),
        })
    }
}

fn random_hvs(d: Dim, count: usize, seed: u64) -> Vec<BinaryHv> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..count).map(|_| BinaryHv::random(d, &mut rng)).collect()
}

#[test]
fn bitsliced_matches_u32_reference_across_widths_and_parities() {
    for &d in WIDTHS {
        let dim = Dim::new(d);
        // Odd n (no ties possible) and even n (ties guaranteed somewhere).
        for n in [1usize, 2, 6, 7] {
            let hvs = random_hvs(dim, n, 0xACC0 + d as u64 + n as u64);
            let mut fast = Accumulator::new(dim);
            let mut reference = RefAccumulator::new(dim);
            for hv in &hvs {
                fast.add(hv);
                reference.add(hv);
            }
            for i in 0..d {
                assert_eq!(fast.sum(i), reference.sum(i), "D={d} n={n} dim {i}");
            }
            let mut rng_a = Xoshiro256pp::seed_from_u64(1);
            let mut rng_b = rng_a.clone();
            assert_eq!(
                fast.threshold(&mut rng_a),
                reference.threshold(&mut rng_b),
                "threshold D={d} n={n}"
            );
            // Identical draw counts in identical order: streams stay aligned.
            assert_eq!(
                rng_a.random::<u64>(),
                rng_b.random::<u64>(),
                "tie RNG stream D={d} n={n}"
            );
            assert_eq!(
                fast.threshold_deterministic(),
                BinaryHv::from_fn(dim, |i| reference.sum(i) >= 0),
                "deterministic threshold D={d} n={n}"
            );
        }
    }
}

#[test]
fn add_bound_matches_u32_reference_on_materialized_binds() {
    for &d in &[1usize, 64, 65, 517] {
        let dim = Dim::new(d);
        let hvs = random_hvs(dim, 12, 0xB1AD + d as u64);
        let mut fused = Accumulator::new(dim);
        let mut reference = RefAccumulator::new(dim);
        for pair in hvs.chunks(2) {
            fused.add_bound(pair[0].as_words(), pair[1].as_words());
            reference.add(&pair[0].bind(&pair[1]));
        }
        for i in 0..d {
            assert_eq!(fused.sum(i), reference.sum(i), "D={d} dim {i}");
        }
        assert_eq!(
            fused.threshold_deterministic(),
            BinaryHv::from_fn(dim, |i| reference.sum(i) >= 0),
            "D={d}"
        );
    }
}

/// Batch sizes straddling the carry-save tree's group of 8.
const GROUPED_NS: &[usize] = &[0, 1, 7, 8, 9, 15, 16, 17, 784];

/// Dimensions for the grouped adds: single word, word edges, a ragged
/// multi-word tail, and the paper's D = 10000.
const GROUPED_WIDTHS: &[usize] = &[1, 63, 64, 65, 517, 10000];

/// Call boundaries for feeding `0..n` to the grouped adds: one call, and
/// uneven consecutive calls whose groups straddle the call boundaries.
fn call_splits(n: usize) -> [Vec<usize>; 2] {
    [vec![0, n], vec![0, n / 3, (n / 3 + 9).min(n), n]]
}

/// Asserts that the grouped, per-input ripple and `u32` reference bundles
/// agree: counters, thresholds under one seed, and the next draw after the
/// threshold (a misaligned tie-break stream shows there).
fn assert_bundles_agree(grouped: &Accumulator, ripple: &Accumulator, reference: &RefAccumulator) {
    let dim = reference.dim;
    let tag = format!("D={} n={}", dim.get(), reference.n);
    assert_eq!(grouped, ripple, "grouped vs ripple counters {tag}");
    assert_eq!(grouped.len(), reference.n as usize, "count {tag}");
    let mut counts = vec![0u32; dim.get()];
    grouped.counts_into(&mut counts);
    assert_eq!(counts, reference.ones, "grouped vs u32 counters {tag}");
    let mut rng_g = Xoshiro256pp::seed_from_u64(0x7135);
    let mut rng_r = rng_g.clone();
    let mut rng_u = rng_g.clone();
    let t_grouped = grouped.threshold(&mut rng_g);
    assert_eq!(
        t_grouped,
        ripple.threshold(&mut rng_r),
        "threshold vs ripple {tag}"
    );
    assert_eq!(
        t_grouped,
        reference.threshold(&mut rng_u),
        "threshold vs u32 {tag}"
    );
    let next = rng_g.random::<u64>();
    assert_eq!(
        next,
        rng_r.random::<u64>(),
        "tie RNG stream vs ripple {tag}"
    );
    assert_eq!(next, rng_u.random::<u64>(), "tie RNG stream vs u32 {tag}");
}

#[test]
fn grouped_adds_match_ripple_and_u32_reference() {
    for &d in GROUPED_WIDTHS {
        let dim = Dim::new(d);
        for &n in GROUPED_NS {
            let hvs = random_hvs(dim, n + 3, 0x6A0 + (d * 1000 + n) as u64);
            // Three single adds first, so the grouped calls land on an
            // accumulator that already holds planes.
            let (seed, batch) = hvs.split_at(3);
            let mut ripple = Accumulator::new(dim);
            let mut reference = RefAccumulator::new(dim);
            for hv in &hvs {
                ripple.add(hv);
                reference.add(hv);
            }
            let refs: Vec<&BinaryHv> = batch.iter().collect();
            for calls in call_splits(n) {
                let mut grouped = Accumulator::new(dim);
                for hv in seed {
                    grouped.add(hv);
                }
                for call in calls.windows(2) {
                    grouped.add_many(&refs[call[0]..call[1]]);
                }
                assert_bundles_agree(&grouped, &ripple, &reference);
            }
        }
    }
}

#[test]
fn grouped_bound_adds_match_ripple_and_u32_reference() {
    for &d in GROUPED_WIDTHS {
        let dim = Dim::new(d);
        for &n in GROUPED_NS {
            let hvs = random_hvs(dim, 2 * n + 6, 0xB06D + (d * 1000 + n) as u64);
            let pairs: Vec<(&[u64], &[u64])> = hvs
                .chunks(2)
                .map(|p| (p[0].as_words(), p[1].as_words()))
                .collect();
            let (seed, batch) = pairs.split_at(3);
            let mut ripple = Accumulator::new(dim);
            let mut reference = RefAccumulator::new(dim);
            for (i, &(a, b)) in pairs.iter().enumerate() {
                ripple.add_bound(a, b);
                reference.add(&hvs[2 * i].bind(&hvs[2 * i + 1]));
            }
            for calls in call_splits(n) {
                let mut grouped = Accumulator::new(dim);
                for &(a, b) in seed {
                    grouped.add_bound(a, b);
                }
                for call in calls.windows(2) {
                    grouped.add_bound_many(&batch[call[0]..call[1]]);
                }
                assert_bundles_agree(&grouped, &ripple, &reference);
            }
        }
    }
}

#[test]
#[should_panic(expected = "dimension mismatch in add_many")]
fn add_many_rejects_dim_mismatch() {
    let hvs = random_hvs(Dim::new(65), 8, 1);
    let refs: Vec<&BinaryHv> = hvs.iter().collect();
    Accumulator::new(Dim::new(64)).add_many(&refs);
}

#[test]
fn merge_is_invariant_to_chunking_and_order() {
    let dim = Dim::new(517);
    let hvs = random_hvs(dim, 23, 0x3A6E);
    let mut sequential = Accumulator::new(dim);
    for hv in &hvs {
        sequential.add(hv);
    }
    // Several chunkings, including empty and single-element chunks, merged
    // forwards, backwards, and as a nested tree.
    let chunkings: &[&[usize]] = &[&[23], &[1, 22], &[7, 0, 9, 7], &[11, 12], &[2; 11]];
    for bounds in chunkings {
        let mut parts = Vec::new();
        let mut start = 0;
        for &len in bounds.iter() {
            let mut part = Accumulator::new(dim);
            for hv in &hvs[start..start + len] {
                part.add(hv);
            }
            parts.push(part);
            start += len;
        }
        if start < 23 {
            let mut part = Accumulator::new(dim);
            for hv in &hvs[start..] {
                part.add(hv);
            }
            parts.push(part);
        }
        let mut forward = Accumulator::new(dim);
        for part in &parts {
            forward.merge(part);
        }
        assert_eq!(forward, sequential, "forward merge {bounds:?}");

        let mut backward = Accumulator::new(dim);
        for part in parts.iter().rev() {
            backward.merge(part);
        }
        assert_eq!(backward, sequential, "backward merge {bounds:?}");

        // Nested tree: fold pairs together before the final merge.
        while parts.len() > 1 {
            let right = parts.pop().unwrap();
            parts.last_mut().unwrap().merge(&right);
        }
        assert_eq!(parts[0], sequential, "tree merge {bounds:?}");
    }
}

// ---------------------------------------------------------------------------
// Tier parity: AVX2 kernels vs the scalar references
// ---------------------------------------------------------------------------

fn random_words(len: usize, rng: &mut Xoshiro256pp) -> Vec<u64> {
    (0..len).map(|_| rng.random::<u64>()).collect()
}

/// Word counts covering the AVX2 4-word block plus every scalar-tail length.
const WORD_LENS: &[usize] = &[1, 2, 3, 4, 5, 7, 8, 9, 16, 157];

#[test]
fn csa_step_kernels_agree_across_tiers() {
    if !hdc::avx2_available() {
        eprintln!("skipping: CPU lacks AVX2");
        return;
    }
    let mut rng = Xoshiro256pp::seed_from_u64(0x51A5);
    for &len in WORD_LENS {
        let plane0 = random_words(len, &mut rng);
        let carry0 = random_words(len, &mut rng);
        let input = random_words(len, &mut rng);
        let other = random_words(len, &mut rng);

        let (mut ps, mut cs) = (plane0.clone(), carry0.clone());
        let (mut pv, mut cv) = (plane0.clone(), carry0.clone());
        assert_eq!(
            kernels::csa_step_words_scalar(&mut ps, &mut cs),
            kernels::csa_step_words_avx2(&mut pv, &mut cv),
            "csa_step OR len={len}"
        );
        assert_eq!((ps, cs), (pv, cv), "csa_step state len={len}");

        let (mut ps, mut cs) = (plane0.clone(), carry0.clone());
        let (mut pv, mut cv) = (plane0.clone(), carry0.clone());
        assert_eq!(
            kernels::csa_input_step_words_scalar(&mut ps, &input, &mut cs),
            kernels::csa_input_step_words_avx2(&mut pv, &input, &mut cv),
            "csa_input_step OR len={len}"
        );
        assert_eq!((ps, cs), (pv, cv), "csa_input_step state len={len}");

        let (mut ps, mut cs) = (plane0.clone(), carry0.clone());
        let (mut pv, mut cv) = (plane0.clone(), carry0.clone());
        assert_eq!(
            kernels::csa_bind_step_words_scalar(&mut ps, &input, &other, &mut cs),
            kernels::csa_bind_step_words_avx2(&mut pv, &input, &other, &mut cv),
            "csa_bind_step OR len={len}"
        );
        assert_eq!((ps, cs), (pv, cv), "csa_bind_step state len={len}");
    }
}

/// Checks the tree's counter identity bit by bit: the low counter bits
/// plus the inputs equal the new low bits plus eight times the carry.
fn assert_tree_adds(before: &[u64], after: &[u64], carry: &[u64], inputs: &[Vec<u64>], tag: &str) {
    let words = carry.len();
    let plane =
        |p: &[u64], k: usize, w: usize, b: usize| u32::from((p[k * words + w] >> b) & 1 == 1);
    for w in 0..words {
        for b in 0..64 {
            let low = |p: &[u64]| plane(p, 0, w, b) + 2 * plane(p, 1, w, b) + 4 * plane(p, 2, w, b);
            let added: u32 = inputs.iter().map(|x| u32::from((x[w] >> b) & 1 == 1)).sum();
            let eights = u32::from((carry[w] >> b) & 1 == 1);
            assert_eq!(
                low(before) + added,
                low(after) + 8 * eights,
                "{tag} word {w} bit {b}"
            );
        }
    }
}

#[test]
fn tree8_kernels_agree_across_tiers_and_with_the_counter_sum() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x78EE);
    for &len in WORD_LENS {
        for last_mask in [u64::MAX, (1u64 << 17) - 1, 1] {
            let tag = format!("words={len} mask={last_mask:#x}");
            let low0 = random_words(3 * len, &mut rng);
            let a: Vec<Vec<u64>> = (0..8).map(|_| random_words(len, &mut rng)).collect();
            let b: Vec<Vec<u64>> = (0..8).map(|_| random_words(len, &mut rng)).collect();
            let inputs: [&[u64]; 8] = std::array::from_fn(|i| a[i].as_slice());
            let pairs: [(&[u64], &[u64]); 8] =
                std::array::from_fn(|i| (a[i].as_slice(), b[i].as_slice()));
            let bound: Vec<Vec<u64>> = (0..8)
                .map(|i| {
                    let mut x: Vec<u64> = a[i].iter().zip(&b[i]).map(|(p, q)| !(p ^ q)).collect();
                    x[len - 1] &= last_mask;
                    x
                })
                .collect();

            // Stale carry contents must be overwritten.
            let (mut low_s, mut carry_s) = (low0.clone(), vec![u64::MAX; len]);
            let or_s = kernels::csa_tree8_words_scalar(&mut low_s, &mut carry_s, &inputs);
            assert_tree_adds(&low0, &low_s, &carry_s, &a, &format!("plain {tag}"));
            assert_eq!(or_s, carry_s.iter().fold(0, |o, c| o | c), "plain OR {tag}");

            let (mut bound_s, mut bcarry_s) = (low0.clone(), vec![u64::MAX; len]);
            let bor_s = kernels::csa_tree8_bind_words_scalar(
                &mut bound_s,
                &mut bcarry_s,
                &pairs,
                last_mask,
            );
            assert_tree_adds(&low0, &bound_s, &bcarry_s, &bound, &format!("bind {tag}"));
            assert_eq!(
                bor_s,
                bcarry_s.iter().fold(0, |o, c| o | c),
                "bind OR {tag}"
            );

            if hdc::avx2_available() {
                let (mut low_v, mut carry_v) = (low0.clone(), vec![u64::MAX; len]);
                let or_v = kernels::csa_tree8_words_avx2(&mut low_v, &mut carry_v, &inputs);
                assert_eq!(
                    (or_s, &low_s, &carry_s),
                    (or_v, &low_v, &carry_v),
                    "plain {tag}"
                );
                let (mut bound_v, mut bcarry_v) = (low0.clone(), vec![u64::MAX; len]);
                let bor_v = kernels::csa_tree8_bind_words_avx2(
                    &mut bound_v,
                    &mut bcarry_v,
                    &pairs,
                    last_mask,
                );
                assert_eq!(
                    (bor_s, &bound_s, &bcarry_s),
                    (bor_v, &bound_v, &bcarry_v),
                    "bind {tag}"
                );
            }
        }
    }
}

#[test]
fn bitsliced_cmp_kernels_agree_across_tiers() {
    if !hdc::avx2_available() {
        eprintln!("skipping: CPU lacks AVX2");
        return;
    }
    let mut rng = Xoshiro256pp::seed_from_u64(0xC323);
    for &words in WORD_LENS {
        for n_planes in [0usize, 1, 2, 3, 5, 9] {
            let planes = random_words(n_planes * words, &mut rng);
            // k values straddling every interesting regime: zero, mid-range,
            // the short-circuit guard (k >= 2^planes), and huge.
            for k in [0u64, 1, 2, 5, 1 << n_planes, u64::MAX / 3] {
                let mask = random_words(words, &mut rng);
                let mut gt_s = vec![0u64; words];
                let mut eq_s = mask.clone();
                kernels::bitsliced_cmp_words_scalar(&planes, words, k, &mut gt_s, &mut eq_s);
                let mut gt_v = vec![0u64; words];
                let mut eq_v = mask.clone();
                kernels::bitsliced_cmp_words_avx2(&planes, words, k, &mut gt_v, &mut eq_v);
                assert_eq!(
                    (gt_s, eq_s),
                    (gt_v, eq_v),
                    "bitsliced_cmp words={words} planes={n_planes} k={k}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Golden pins: encoder outputs byte-identical to the seed encoder
// ---------------------------------------------------------------------------

fn sample(n: usize, phase: f32) -> Vec<f32> {
    (0..n)
        .map(|i| 0.5 + 0.5 * ((i as f32 * 0.7 + phase).sin()))
        .collect()
}

/// FNV-1a over packed words, for pinning wide vectors compactly.
fn fold(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in words {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Captured from the horizontal-counter seed encoder (pre bit-slicing):
/// `RecordEncoder` D=517, 37 features, 16 levels, seed 42, `sample(37, 0.4)`.
const GOLDEN_RECORD_517: [u64; 9] = [
    0xca8dc0bf556d9e28,
    0x71be1961b5d80a06,
    0x99142bae72a10dff,
    0x7c9e85ef1c3442ee,
    0xf54f07615b110c9d,
    0xd413e41fc1f44b15,
    0x7cbe2c4966d9369d,
    0x70956b5977f98ac6,
    0x000000000000001d,
];

/// Same provenance: D=130, 6 features (even count — ties taken), 8 levels,
/// seed 3, `sample(6, 2.0)`.
const GOLDEN_RECORD_130: [u64; 3] = [
    0xce6ecd8db72e824d,
    0x9b94454af955293b,
    0x0000000000000001,
];

/// Same provenance: `NgramEncoder` D=257, 9 features, window 4, 8 levels,
/// seed 11, `sample(9, 0.9)`.
const GOLDEN_NGRAM_257: [u64; 5] = [
    0xbc455a5c735fa342,
    0x291e47aac3510397,
    0xb570b6459933081d,
    0x2f47dee1d35c0445,
    0x0000000000000000,
];

#[test]
fn record_encoder_matches_seed_golden_vectors() {
    let enc = RecordEncoder::builder(Dim::new(517), 37)
        .levels(16)
        .seed(42)
        .build()
        .unwrap();
    let hv = enc.encode(&sample(37, 0.4)).unwrap();
    assert_eq!(hv.as_words(), GOLDEN_RECORD_517, "D=517 golden");

    // Even feature count: the tie-break RNG stream itself is under test.
    let enc = RecordEncoder::builder(Dim::new(130), 6)
        .levels(8)
        .seed(3)
        .build()
        .unwrap();
    let hv = enc.encode(&sample(6, 2.0)).unwrap();
    assert_eq!(hv.as_words(), GOLDEN_RECORD_130, "D=130 tie golden");

    // Paper-scale shape, pinned by count + fold hash.
    let enc = RecordEncoder::builder(Dim::new(10_000), 784)
        .levels(32)
        .seed(7)
        .build()
        .unwrap();
    let hv = enc.encode(&sample(784, 1.3)).unwrap();
    assert_eq!(hv.count_ones(), 5002, "D=10000 ones");
    assert_eq!(fold(hv.as_words()), 0x6ca7d3650dfbc65b, "D=10000 fold");
}

#[test]
fn ngram_encoder_matches_seed_golden_vectors() {
    let enc = NgramEncoder::new(Dim::new(257), 9, 4, 8, (0.0, 1.0), 11).unwrap();
    let hv = enc.encode(&sample(9, 0.9)).unwrap();
    assert_eq!(hv.as_words(), GOLDEN_NGRAM_257, "D=257 golden");

    let enc = NgramEncoder::new(Dim::new(1024), 12, 3, 8, (0.0, 1.0), 7).unwrap();
    let hv = enc.encode(&sample(12, 0.3)).unwrap();
    assert_eq!(hv.count_ones(), 520, "D=1024 ones");
    assert_eq!(fold(hv.as_words()), 0xc758ada4e9141768, "D=1024 fold");
}

#[test]
fn golden_vectors_hold_across_threads_and_chunkings() {
    let enc = RecordEncoder::builder(Dim::new(517), 37)
        .levels(16)
        .seed(42)
        .build()
        .unwrap();
    let x = sample(37, 0.4);
    for threads in [1usize, 2, 4] {
        // Corpus path: three copies of the row, chunked across workers.
        let flat: Vec<f32> = x.iter().chain(&x).chain(&x).copied().collect();
        for hv in enc.encode_all(&flat, threads).unwrap() {
            assert_eq!(hv.as_words(), GOLDEN_RECORD_517, "encode_all t={threads}");
        }
    }
}
