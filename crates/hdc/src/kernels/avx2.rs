//! AVX2 Harley–Seal popcount kernels — the explicit-SIMD tier behind the
//! dispatch in [`kernels`](crate::kernels).
//!
//! Every kernel here computes the *same exact integer* as its scalar
//! counterpart; there is no floating point anywhere, so SIMD-vs-scalar
//! equality is bit-for-bit, not approximate. The differential parity suite
//! (`tests/kernel_parity.rs`) enforces this across widths straddling every
//! word and lane boundary.
//!
//! # Strategy
//!
//! Bulk words are processed 256 bits (4 × `u64`) at a time. Blocks of 16
//! vectors run through a Harley–Seal carry-save adder (CSA) tree: fifteen
//! CSAs compress 16 one-bit-per-position inputs plus the running `ones`/
//! `twos`/`fours`/`eights` accumulators into a single `sixteens` vector,
//! whose population count is added (weight 16) to a per-lane running total.
//! Only one real byte-popcount per 16 loaded vectors is paid; the rest is
//! cheap XOR/AND/OR. The byte popcount itself is the classic `vpshufb`
//! nibble LUT (`_mm256_shuffle_epi8` against a 16-entry table) reduced with
//! `_mm256_sad_epu8` into four 64-bit lane sums.
//!
//! Leftover whole vectors (fewer than 16) are popcounted directly, and any
//! trailing words (fewer than 4) fall back to `u64::count_ones` — so the
//! kernels accept every slice length, including empty.
//!
//! The XOR of `hamming` and the XOR+AND of the masked variant are fused into
//! the load stage of the same CSA tree, which is what makes the XNOR-dot
//! (`dot = D − 2·hamming`) a single fused pass over the operands.
//!
//! The bundling kernels `csa_tree8_*` cut the same tree to 8 inputs and
//! point it at the accumulator's bit-planes: planes 0–2 are the running
//! `ones`/`twos`/`fours`, and the `eights` vector is stored as the carry the
//! accumulator ripples up from plane 3.
//!
//! Everything in this module requires AVX2 at runtime: the public functions
//! are `unsafe fn` with `#[target_feature(enable = "avx2")]`, and the safe
//! wrappers in [`kernels`](crate::kernels) check [`available`] first.

use core::arch::x86_64::{
    __m256i, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256, _mm256_andnot_si256,
    _mm256_extract_epi64, _mm256_loadu_si256, _mm256_or_si256, _mm256_sad_epu8, _mm256_set1_epi8,
    _mm256_setr_epi8, _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_slli_epi64,
    _mm256_srli_epi32, _mm256_storeu_si256, _mm256_xor_si256,
};

/// Whether the running CPU supports these kernels.
#[must_use]
pub fn available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// `u64` words per 256-bit vector.
const WORDS_PER_VEC: usize = 4;

/// Vectors per Harley–Seal block (the CSA tree compresses 16 at a time).
const VECS_PER_BLOCK: usize = 16;

/// Unaligned 256-bit load of four packed words.
#[inline(always)]
unsafe fn load(ptr: *const u64) -> __m256i {
    unsafe { _mm256_loadu_si256(ptr.cast()) }
}

/// Carry-save adder: compresses three one-bit-per-position inputs into a
/// carry (weight 2) and a sum (weight 1), four gate ops per 256 positions.
#[inline(always)]
unsafe fn csa(a: __m256i, b: __m256i, c: __m256i) -> (__m256i, __m256i) {
    unsafe {
        let u = _mm256_xor_si256(a, b);
        let carry = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
        let sum = _mm256_xor_si256(u, c);
        (carry, sum)
    }
}

/// Population count of a 256-bit vector as four 64-bit lane sums: `vpshufb`
/// nibble LUT, byte add, then `vpsadbw` against zero to widen bytes to lanes.
#[inline(always)]
unsafe fn pop_lanes(v: __m256i) -> __m256i {
    unsafe {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, //
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi32::<4>(v), low_mask);
        let bytes = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_sad_epu8(bytes, _mm256_setzero_si256())
    }
}

/// Sum of the four 64-bit lanes of an accumulator vector.
#[inline(always)]
unsafe fn lane_sum(v: __m256i) -> usize {
    unsafe {
        (_mm256_extract_epi64::<0>(v)
            + _mm256_extract_epi64::<1>(v)
            + _mm256_extract_epi64::<2>(v)
            + _mm256_extract_epi64::<3>(v)) as usize
    }
}

/// The shared Harley–Seal driver: counts the set bits of the `n_words`-word
/// virtual stream defined by `vec_at` (vector `v` covers words
/// `[4v, 4v+4)`) and `word_at` (single trailing words).
///
/// The two accessors must describe the same stream; the callers build them
/// from the same operand pointers (plain load, XOR of two loads, or masked
/// XOR of three). `#[inline(always)]` guarantees the closures and this body
/// dissolve into the `#[target_feature]` callers, so the intrinsics compile
/// under AVX2 codegen.
#[inline(always)]
unsafe fn popcount_stream<V, W>(n_words: usize, vec_at: V, word_at: W) -> usize
where
    V: Fn(usize) -> __m256i,
    W: Fn(usize) -> u64,
{
    unsafe {
        let n_vecs = n_words / WORDS_PER_VEC;
        let mut total = _mm256_setzero_si256();
        let mut ones = _mm256_setzero_si256();
        let mut twos = _mm256_setzero_si256();
        let mut fours = _mm256_setzero_si256();
        let mut eights = _mm256_setzero_si256();
        let mut v = 0;
        while v + VECS_PER_BLOCK <= n_vecs {
            let (twos_a, o1) = csa(ones, vec_at(v), vec_at(v + 1));
            let (twos_b, o2) = csa(o1, vec_at(v + 2), vec_at(v + 3));
            let (fours_a, t1) = csa(twos, twos_a, twos_b);
            let (twos_c, o3) = csa(o2, vec_at(v + 4), vec_at(v + 5));
            let (twos_d, o4) = csa(o3, vec_at(v + 6), vec_at(v + 7));
            let (fours_b, t2) = csa(t1, twos_c, twos_d);
            let (eights_a, f1) = csa(fours, fours_a, fours_b);
            let (twos_e, o5) = csa(o4, vec_at(v + 8), vec_at(v + 9));
            let (twos_f, o6) = csa(o5, vec_at(v + 10), vec_at(v + 11));
            let (fours_c, t3) = csa(t2, twos_e, twos_f);
            let (twos_g, o7) = csa(o6, vec_at(v + 12), vec_at(v + 13));
            let (twos_h, o8) = csa(o7, vec_at(v + 14), vec_at(v + 15));
            let (fours_d, t4) = csa(t3, twos_g, twos_h);
            let (eights_b, f2) = csa(f1, fours_c, fours_d);
            let (sixteens, e1) = csa(eights, eights_a, eights_b);
            ones = o8;
            twos = t4;
            fours = f2;
            eights = e1;
            total = _mm256_add_epi64(total, pop_lanes(sixteens));
            v += VECS_PER_BLOCK;
        }
        // Weigh the block total and drain the partial accumulators:
        // count = 16·Σpc(sixteens) + 8·pc(eights) + 4·pc(fours) + 2·pc(twos) + pc(ones).
        total = _mm256_slli_epi64::<4>(total);
        total = _mm256_add_epi64(total, _mm256_slli_epi64::<3>(pop_lanes(eights)));
        total = _mm256_add_epi64(total, _mm256_slli_epi64::<2>(pop_lanes(fours)));
        total = _mm256_add_epi64(total, _mm256_slli_epi64::<1>(pop_lanes(twos)));
        total = _mm256_add_epi64(total, pop_lanes(ones));
        while v < n_vecs {
            total = _mm256_add_epi64(total, pop_lanes(vec_at(v)));
            v += 1;
        }
        let mut sum = lane_sum(total);
        for i in (n_vecs * WORDS_PER_VEC)..n_words {
            sum += word_at(i).count_ones() as usize;
        }
        sum
    }
}

/// Unaligned 256-bit store of four packed words.
#[inline(always)]
unsafe fn store(ptr: *mut u64, v: __m256i) {
    unsafe { _mm256_storeu_si256(ptr.cast(), v) }
}

/// OR of the four 64-bit lanes of a vector.
#[inline(always)]
unsafe fn lane_or(v: __m256i) -> u64 {
    unsafe {
        (_mm256_extract_epi64::<0>(v)
            | _mm256_extract_epi64::<1>(v)
            | _mm256_extract_epi64::<2>(v)
            | _mm256_extract_epi64::<3>(v)) as u64
    }
}

/// AVX2 tier of [`csa_step_words`](crate::kernels::csa_step_words):
/// `t = plane AND carry; plane ^= carry; carry = t`, four words per lane op,
/// returning the OR of the outgoing carry.
///
/// # Safety
///
/// The CPU must support AVX2 (check [`available`]).
#[target_feature(enable = "avx2")]
pub unsafe fn csa_step_words(plane: &mut [u64], carry: &mut [u64]) -> u64 {
    debug_assert_eq!(plane.len(), carry.len(), "plane and carry must match");
    let n = plane.len().min(carry.len());
    let n_vecs = n / WORDS_PER_VEC;
    let (pp, pc) = (plane.as_mut_ptr(), carry.as_mut_ptr());
    unsafe {
        let mut orv = _mm256_setzero_si256();
        for v in 0..n_vecs {
            let o = v * WORDS_PER_VEC;
            let p = load(pp.add(o));
            let c = load(pc.add(o));
            let t = _mm256_and_si256(p, c);
            store(pp.add(o), _mm256_xor_si256(p, c));
            store(pc.add(o), t);
            orv = _mm256_or_si256(orv, t);
        }
        let mut or = lane_or(orv);
        for i in (n_vecs * WORDS_PER_VEC)..n {
            let t = *pp.add(i) & *pc.add(i);
            *pp.add(i) ^= *pc.add(i);
            *pc.add(i) = t;
            or |= t;
        }
        or
    }
}

/// AVX2 tier of
/// [`csa_input_step_words`](crate::kernels::csa_input_step_words):
/// `carry = plane AND input; plane ^= input`, returning the OR of the
/// outgoing carry.
///
/// # Safety
///
/// The CPU must support AVX2 (check [`available`]).
#[target_feature(enable = "avx2")]
pub unsafe fn csa_input_step_words(plane: &mut [u64], input: &[u64], carry: &mut [u64]) -> u64 {
    debug_assert_eq!(plane.len(), input.len(), "plane and input must match");
    debug_assert_eq!(plane.len(), carry.len(), "plane and carry must match");
    let n = plane.len().min(input.len()).min(carry.len());
    let n_vecs = n / WORDS_PER_VEC;
    let (pp, px, pc) = (plane.as_mut_ptr(), input.as_ptr(), carry.as_mut_ptr());
    unsafe {
        let mut orv = _mm256_setzero_si256();
        for v in 0..n_vecs {
            let o = v * WORDS_PER_VEC;
            let p = load(pp.add(o));
            let x = load(px.add(o));
            let t = _mm256_and_si256(p, x);
            store(pp.add(o), _mm256_xor_si256(p, x));
            store(pc.add(o), t);
            orv = _mm256_or_si256(orv, t);
        }
        let mut or = lane_or(orv);
        for i in (n_vecs * WORDS_PER_VEC)..n {
            let x = *px.add(i);
            let t = *pp.add(i) & x;
            *pp.add(i) ^= x;
            *pc.add(i) = t;
            or |= t;
        }
        or
    }
}

/// AVX2 tier of
/// [`csa_bind_step_words`](crate::kernels::csa_bind_step_words): the XNOR
/// bind is fused into the ladder entry, mirroring how `hamming` fuses its
/// XOR into the popcount load stage.
///
/// # Safety
///
/// The CPU must support AVX2 (check [`available`]).
#[target_feature(enable = "avx2")]
pub unsafe fn csa_bind_step_words(
    plane: &mut [u64],
    a: &[u64],
    b: &[u64],
    carry: &mut [u64],
) -> u64 {
    debug_assert_eq!(a.len(), b.len(), "operand slices must match");
    debug_assert_eq!(plane.len(), a.len(), "plane and operands must match");
    debug_assert_eq!(plane.len(), carry.len(), "plane and carry must match");
    let n = plane.len().min(a.len()).min(b.len()).min(carry.len());
    let n_vecs = n / WORDS_PER_VEC;
    let (pp, pa, pb, pc) = (
        plane.as_mut_ptr(),
        a.as_ptr(),
        b.as_ptr(),
        carry.as_mut_ptr(),
    );
    unsafe {
        let ones = _mm256_set1_epi8(-1);
        let mut orv = _mm256_setzero_si256();
        for v in 0..n_vecs {
            let o = v * WORDS_PER_VEC;
            let bound = _mm256_xor_si256(
                _mm256_xor_si256(load(pa.add(o)), load(pb.add(o))),
                ones,
            );
            let p = load(pp.add(o));
            let t = _mm256_and_si256(p, bound);
            store(pp.add(o), _mm256_xor_si256(p, bound));
            store(pc.add(o), t);
            orv = _mm256_or_si256(orv, t);
        }
        let mut or = lane_or(orv);
        for i in (n_vecs * WORDS_PER_VEC)..n {
            let bound = !(*pa.add(i) ^ *pb.add(i));
            let t = *pp.add(i) & bound;
            *pp.add(i) ^= bound;
            *pc.add(i) = t;
            or |= t;
        }
        or
    }
}

/// The shared 8-input carry-save tree driver: `vec_at(i, o)` loads words
/// `[o, o+4)` of input `i` and `word_at(i, w)` loads its word `w`. Four words
/// at a time go through the same seven-CSA tree as the popcount blocks, with
/// planes 0–2 as the running `ones`/`twos`/`fours` and the `eights` stored
/// as the outgoing carry. The last word always takes the scalar per-word
/// tree, where each input is ANDed with `last_mask`.
///
/// # Safety
///
/// The CPU must support AVX2, and both accessors must be valid for every
/// input `i < 8` and every word below `W = carry.len()` (the callers check
/// that each input spans `W` words). `low` is checked here.
#[inline(always)]
unsafe fn tree8_stream<V, W>(
    low: &mut [u64],
    carry: &mut [u64],
    last_mask: u64,
    vec_at: V,
    word_at: W,
) -> u64
where
    V: Fn(usize, usize) -> __m256i,
    W: Fn(usize, usize) -> u64,
{
    let words = carry.len();
    let (ones, twos, fours) = super::split_low_planes(low, words);
    let n_vecs = words.saturating_sub(1) / WORDS_PER_VEC;
    let (p1, p2, p4, pc) = (
        ones.as_mut_ptr(),
        twos.as_mut_ptr(),
        fours.as_mut_ptr(),
        carry.as_mut_ptr(),
    );
    unsafe {
        let mut orv = _mm256_setzero_si256();
        for v in 0..n_vecs {
            let o = v * WORDS_PER_VEC;
            let (twos_a, o1) = csa(load(p1.add(o)), vec_at(0, o), vec_at(1, o));
            let (twos_b, o2) = csa(o1, vec_at(2, o), vec_at(3, o));
            let (fours_a, t1) = csa(load(p2.add(o)), twos_a, twos_b);
            let (twos_c, o3) = csa(o2, vec_at(4, o), vec_at(5, o));
            let (twos_d, o4) = csa(o3, vec_at(6, o), vec_at(7, o));
            let (fours_b, t2) = csa(t1, twos_c, twos_d);
            let (eights, f1) = csa(load(p4.add(o)), fours_a, fours_b);
            store(p1.add(o), o4);
            store(p2.add(o), t2);
            store(p4.add(o), f1);
            store(pc.add(o), eights);
            orv = _mm256_or_si256(orv, eights);
        }
        let mut or = lane_or(orv);
        for w in (n_vecs * WORDS_PER_VEC)..words {
            let mask = if w + 1 == words { last_mask } else { u64::MAX };
            let eights =
                super::tree8_word(&mut *p1.add(w), &mut *p2.add(w), &mut *p4.add(w), |i| {
                    word_at(i, w) & mask
                });
            *pc.add(w) = eights;
            or |= eights;
        }
        or
    }
}

/// AVX2 tier of [`csa_tree8_words`](crate::kernels::csa_tree8_words).
///
/// # Safety
///
/// The CPU must support AVX2 (check [`available`]).
///
/// # Panics
///
/// Panics if `low` is not `3·W` words or an input is not `W` words.
#[target_feature(enable = "avx2")]
pub unsafe fn csa_tree8_words(
    low: &mut [u64],
    carry: &mut [u64],
    inputs: &[&[u64]; super::TREE_INPUTS],
) -> u64 {
    let words = carry.len();
    assert!(
        inputs.iter().all(|s| s.len() == words),
        "inputs must span the plane words"
    );
    let px = inputs.map(<[u64]>::as_ptr);
    // SAFETY: AVX2 is the caller's contract; every input spans the `W`
    // words the driver reads, checked above.
    unsafe {
        tree8_stream(
            low,
            carry,
            u64::MAX,
            |i, o| load(px[i].add(o)),
            |i, w| *px[i].add(w),
        )
    }
}

/// AVX2 tier of
/// [`csa_tree8_bind_words`](crate::kernels::csa_tree8_bind_words): the XNOR
/// bind is fused into the tree's loads.
///
/// # Safety
///
/// The CPU must support AVX2 (check [`available`]).
///
/// # Panics
///
/// Panics if `low` is not `3·W` words or an operand is not `W` words.
#[target_feature(enable = "avx2")]
pub unsafe fn csa_tree8_bind_words(
    low: &mut [u64],
    carry: &mut [u64],
    pairs: &[(&[u64], &[u64]); super::TREE_INPUTS],
    last_mask: u64,
) -> u64 {
    let words = carry.len();
    assert!(
        pairs
            .iter()
            .all(|(a, b)| a.len() == words && b.len() == words),
        "operands must span the plane words"
    );
    let pa = pairs.map(|(a, _)| a.as_ptr());
    let pb = pairs.map(|(_, b)| b.as_ptr());
    // SAFETY: AVX2 is the caller's contract; every operand spans the `W`
    // words the driver reads, checked above.
    unsafe {
        let all_ones = _mm256_set1_epi8(-1);
        tree8_stream(
            low,
            carry,
            last_mask,
            |i, o| {
                let x = _mm256_xor_si256(load(pa[i].add(o)), load(pb[i].add(o)));
                _mm256_xor_si256(x, all_ones)
            },
            |i, w| !(*pa[i].add(w) ^ *pb[i].add(w)),
        )
    }
}

/// AVX2 tier of
/// [`bitsliced_cmp_words`](crate::kernels::bitsliced_cmp_words): the
/// MSB-first compare ladder runs with `gt`/`eq` held in registers per
/// 4-word block while the planes stream through strided loads.
///
/// # Safety
///
/// The CPU must support AVX2 (check [`available`]).
#[target_feature(enable = "avx2")]
pub unsafe fn bitsliced_cmp_words(
    planes: &[u64],
    words: usize,
    k: u64,
    gt: &mut [u64],
    eq: &mut [u64],
) {
    let n_planes = if words == 0 { 0 } else { planes.len() / words };
    debug_assert_eq!(planes.len(), n_planes * words, "planes must be rectangular");
    debug_assert_eq!(gt.len(), words, "gt must span the dimension words");
    debug_assert_eq!(eq.len(), words, "eq must span the dimension words");
    if n_planes < 64 && (k >> n_planes) != 0 {
        gt.fill(0);
        eq.fill(0);
        return;
    }
    let n_vecs = words / WORDS_PER_VEC;
    let (pg, pe, ppl) = (gt.as_mut_ptr(), eq.as_mut_ptr(), planes.as_ptr());
    unsafe {
        for v in 0..n_vecs {
            let o = v * WORDS_PER_VEC;
            let mut g = load(pg.add(o));
            let mut e = load(pe.add(o));
            for p in (0..n_planes).rev() {
                let pl = load(ppl.add(p * words + o));
                if (k >> p) & 1 == 1 {
                    e = _mm256_and_si256(e, pl);
                } else {
                    g = _mm256_or_si256(g, _mm256_and_si256(e, pl));
                    e = _mm256_andnot_si256(pl, e);
                }
            }
            store(pg.add(o), g);
            store(pe.add(o), e);
        }
        for w in (n_vecs * WORDS_PER_VEC)..words {
            let mut g = *pg.add(w);
            let mut e = *pe.add(w);
            for p in (0..n_planes).rev() {
                let pl = *ppl.add(p * words + w);
                if (k >> p) & 1 == 1 {
                    e &= pl;
                } else {
                    g |= e & pl;
                    e &= !pl;
                }
            }
            *pg.add(w) = g;
            *pe.add(w) = e;
        }
    }
}

/// AVX2 tier of [`popcount_words`](crate::kernels::popcount_words).
///
/// # Safety
///
/// The CPU must support AVX2 (check [`available`]).
#[target_feature(enable = "avx2")]
#[must_use]
pub unsafe fn popcount_words(a: &[u64]) -> usize {
    let p = a.as_ptr();
    unsafe {
        popcount_stream(
            a.len(),
            |v| load(p.add(v * WORDS_PER_VEC)),
            |i| *p.add(i),
        )
    }
}

/// AVX2 tier of [`hamming_words`](crate::kernels::hamming_words): the XOR is
/// fused into the CSA tree's load stage.
///
/// # Safety
///
/// The CPU must support AVX2 (check [`available`]).
#[target_feature(enable = "avx2")]
#[must_use]
pub unsafe fn hamming_words(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len(), "word slices must have equal length");
    let n = a.len().min(b.len());
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    unsafe {
        popcount_stream(
            n,
            |v| {
                let o = v * WORDS_PER_VEC;
                _mm256_xor_si256(load(pa.add(o)), load(pb.add(o)))
            },
            |i| *pa.add(i) ^ *pb.add(i),
        )
    }
}

/// AVX2 tier of
/// [`masked_hamming_words`](crate::kernels::masked_hamming_words): XOR and
/// mask AND both fused into the CSA tree's load stage.
///
/// # Safety
///
/// The CPU must support AVX2 (check [`available`]).
#[target_feature(enable = "avx2")]
#[must_use]
pub unsafe fn masked_hamming_words(a: &[u64], b: &[u64], mask: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len(), "word slices must have equal length");
    debug_assert_eq!(a.len(), mask.len(), "mask must match the word slices");
    let n = a.len().min(b.len()).min(mask.len());
    let (pa, pb, pm) = (a.as_ptr(), b.as_ptr(), mask.as_ptr());
    unsafe {
        popcount_stream(
            n,
            |v| {
                let o = v * WORDS_PER_VEC;
                _mm256_and_si256(
                    _mm256_xor_si256(load(pa.add(o)), load(pb.add(o))),
                    load(pm.add(o)),
                )
            },
            |i| (*pa.add(i) ^ *pb.add(i)) & *pm.add(i),
        )
    }
}
