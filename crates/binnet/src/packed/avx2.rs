//! AVX2 bodies of the LeHDC training kernels: the packed gradient product
//! `Gᵀ·X` behind
//! [`packed_transpose_matmul_into`](super::packed_transpose_matmul_into)
//! on the AVX2 tier (the AVX-512 tier has a 16-lane body of its own, in the
//! `avx512` module), and the fused Adam + sign-repack step behind
//! [`BinaryLinear::apply_gradient_fused`](crate::BinaryLinear::apply_gradient_fused)
//! on both vector tiers.
//!
//! # Gradient product
//!
//! The kernel walks the nonzero terms of `G` (the class-pair term lists of
//! `GradTerms`), so its cost follows their number rather than `B·K`. It
//! vectorizes across **8 adjacent output dims**, never across the summed
//! batch: one 256-bit register holds `out[k][d₀..d₀+8]` for one class `k`,
//! and a pool chunk's dims are worked through [`GROUPS`] registers (32
//! dims) at a time:
//!
//! 1. Every live batch row (one with at least one term) gets [`GROUPS`]
//!    sign vectors for the chunk: each byte of its packed bits expanded to
//!    the `f32` sign bit in the lanes whose input bit is 1. They go into a
//!    stack buffer shared by every class pair. The first pair's walk builds
//!    the vectors of the rows it lists as it adds them; the few live rows
//!    it does not list are built before the walks.
//! 2. For each pair of classes, two sets of registers start at `+0.0`, and
//!    for each of the pair's terms `(b, −g₀, −g₁)` (the term lists hold
//!    the entries negated), in ascending `b`, the row's sign vectors are
//!    loaded once and
//!
//!    ```text
//!    acc₀[j] += broadcast(−g₀) XOR sign[b][j]
//!    acc₁[j] += broadcast(−g₁) XOR sign[b][j]
//!    ```
//!
//!    which adds `+g` where the input bit is 1 and `−g` where it is 0.
//! 3. Each register is stored into its class row under the dropout
//!    keep-mask, so dropped dims become `+0.0`.
//!
//! The sign buffer holds [`BLOCK_ROWS`] rows (16 KB, an L1-sized block). A
//! batch with more live rows takes several blocks per chunk: the partial
//! sums wait in the output row between blocks, and only the last block's
//! store applies the keep-mask.
//!
//! Each lane performs the scalar reference's operations on its own output
//! element, minus `±0.0` terms: it starts at `+0.0` and adds the same
//! nonzero sign-flipped terms in the same ascending-`b` order (negation by
//! sign-bit XOR is exact). The scalar path zeroes a dropped dim's terms
//! instead of its sum, but a sum of `+0.0` terms is `+0.0` too, and the
//! `binnet::packed` module doc shows why adding or skipping a `±0.0` term
//! never changes a bit. So the result is bit-identical to the scalar tier;
//! `tests/packed_parity.rs` diffs the two in one process.
//!
//! # Fused optimizer step
//!
//! Latents, gradient and Adam moments are class-major, like the packed
//! weight rows, so the 64 coordinates of one weight word are adjacent in
//! every buffer. Each group of 8 runs [`AdamStep::update`] lane-wise —
//! the same IEEE operations in the same order, with no FMA — and packs its
//! 8 sign bits with one `cmp_ge(l, 0)` + `movemask`. The one operation it
//! leaves out is a division by a bias correction that has rounded to
//! exactly 1.0, which returns its operand bit for bit. Two traps keep the
//! tiers bit-identical:
//!
//! - `f32::clamp` lets a NaN gradient through. `max`/`min` return their
//!   *second* operand when either input is NaN, so the clip is
//!   `min(hi, max(lo, g))` with the gradient second.
//! - `l >= 0.0` packs `−0.0` to 1 and NaN to 0. An ordered `_CMP_GE_OQ`
//!   compare does the same; reading the raw sign bit would get `−0.0`
//!   wrong.
//!
//! Fewer than 8 coordinates left at the end of a word (a class row whose
//! `D` is not a multiple of 8) take the scalar code. `tests/fused_step.rs`
//! pins both tiers against the scalar `Adam::step` on NaN, infinite,
//! subnormal and signed-zero values.

use core::arch::x86_64::{
    __m256, __m256i, _mm256_add_ps, _mm256_and_ps, _mm256_and_si256, _mm256_castsi256_ps,
    _mm256_cmp_ps, _mm256_div_ps, _mm256_loadu_ps, _mm256_max_ps, _mm256_min_ps,
    _mm256_movemask_ps, _mm256_mul_ps, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32,
    _mm256_setzero_ps, _mm256_sllv_epi32, _mm256_sqrt_ps, _mm256_srai_epi32, _mm256_storeu_ps,
    _mm256_sub_ps, _mm256_xor_ps, _CMP_GE_OQ,
};
use std::ops::Range;

use super::{row_blocks, step_word_scalar, word_spans, FusedChunk, Operands, PairOut, Term};
use crate::optim::AdamStep;

/// Output dims per register.
pub(super) const LANES: usize = 8;

/// Registers per class in a chunk of output dims (32 dims). A pair's two
/// sets of accumulators, one term's sign vectors and its two broadcasts
/// take 14 of the 16 `ymm` registers.
const GROUPS: usize = 4;

/// Live batch rows per block of the sign buffer
/// (`BLOCK_ROWS · GROUPS` vectors of 32 bytes: 16 KB).
const BLOCK_ROWS: usize = 128;

/// Moves bit `j` of `bits` to bit 31 of lane `j` (garbage below it); with
/// `bits` a packed word shifted right by `d₀`, lane `j` gets dim `d₀ + j`.
///
/// # Safety
///
/// The CPU must support AVX2 (this helper is inlined into
/// [`gradient_dims`]).
#[inline(always)]
unsafe fn to_lane_tops(bits: u32) -> __m256i {
    // Shifting lane j left by 31 − j moves bit j to the top; the higher
    // bits of the broadcast word fall off the end.
    // SAFETY: AVX2 is available (caller contract).
    unsafe {
        let shifts = _mm256_setr_epi32(31, 30, 29, 28, 27, 26, 25, 24);
        _mm256_sllv_epi32(_mm256_set1_epi32(bits as i32), shifts)
    }
}

/// Writes the gradient of the 8-aligned dims `dims` into `rows`, where
/// `rows[c][dim - first]` is class `c`'s output for `dim`.
///
/// # Safety
///
/// The CPU must support AVX2. Every slice access is bounds-checked; for a
/// correct result `dims.start` and `dims.len()` must be multiples of
/// [`LANES`] and `rows` must hold the `K` class rows.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn gradient_dims(
    op: Operands<'_>,
    dims: Range<usize>,
    first: usize,
    rows: &mut [&mut [f32]],
) {
    debug_assert!(dims.start.is_multiple_of(LANES) && dims.len().is_multiple_of(LANES));
    debug_assert_eq!(rows.len(), op.k);
    let mut signs = [_mm256_setzero_ps(); BLOCK_ROWS * GROUPS];
    let full_end = dims.start + dims.len() / (LANES * GROUPS) * (LANES * GROUPS);
    for d0 in (dims.start..full_end).step_by(LANES * GROUPS) {
        // SAFETY: this function runs with AVX2 enabled.
        unsafe { chunk::<GROUPS>(op, d0, first, rows, &mut signs) };
    }
    for d0 in (full_end..dims.end).step_by(LANES) {
        // SAFETY: as above.
        unsafe { chunk::<1>(op, d0, first, rows, &mut signs) };
    }
}

/// Writes the gradient of the `G · 8` dims from `d0` on, for every class,
/// with `signs` as the sign buffer.
///
/// # Safety
///
/// The CPU must support AVX2 (this helper is inlined into
/// [`gradient_dims`]).
#[inline(always)]
unsafe fn chunk<const G: usize>(
    op: Operands<'_>,
    d0: usize,
    first: usize,
    rows: &mut [&mut [f32]],
    signs: &mut [__m256; BLOCK_ROWS * GROUPS],
) {
    let live = op.terms.live();
    let at = d0 - first;
    // SAFETY: AVX2 is available (caller contract), which is all that
    // `to_lane_tops`, `row_signs` and `walk` require.
    unsafe {
        let keep: [__m256; G] = std::array::from_fn(|j| {
            let tops = to_lane_tops(op.keep_from(d0 + j * LANES) as u32);
            _mm256_castsi256_ps(_mm256_srai_epi32(tops, 31))
        });
        for block in row_blocks(live.len(), BLOCK_ROWS) {
            let signs = &mut signs[..block.len() * G];
            for &slot in op.terms.unlisted(block.clone()) {
                let at_slot = (slot as usize - block.start) * G;
                signs[at_slot..at_slot + G].copy_from_slice(&row_signs::<G>(op, live, slot, d0));
            }
            let last = block.end == live.len();
            for (p, pair) in rows.chunks_mut(2).enumerate() {
                let terms = op.terms.pair_terms(p, block.clone());
                let out = PairOut {
                    rows: pair,
                    at,
                    keep: &keep,
                    first: block.start == 0,
                    last,
                };
                if p == 0 {
                    walk::<G, true>(op, d0, terms, signs, block.start, out);
                } else {
                    walk::<G, false>(op, d0, terms, signs, block.start, out);
                }
            }
        }
    }
}

/// The `G` sign vectors of live row `slot` for the dims from `d0` on: the
/// `f32` sign bit in each lane whose input bit is 1.
///
/// # Safety
///
/// The CPU must support AVX2 (this helper is inlined into
/// [`gradient_dims`]).
#[inline(always)]
unsafe fn row_signs<const G: usize>(
    op: Operands<'_>,
    live: &[u32],
    slot: u32,
    d0: usize,
) -> [__m256; G] {
    let bytes = &op.row_bytes(live[slot as usize] as usize)[d0 / 8..][..G];
    // SAFETY: AVX2 is available (caller contract).
    unsafe {
        let mut s = [_mm256_setzero_ps(); G];
        for (s, &bits) in s.iter_mut().zip(bytes) {
            let tops = to_lane_tops(u32::from(bits));
            *s = _mm256_castsi256_ps(_mm256_and_si256(tops, _mm256_set1_epi32(i32::MIN)));
        }
        s
    }
}

/// Adds a class pair's `terms` (one block's) into two sets of `G`
/// registers and stores them into `out`. `signs` holds `G` sign vectors
/// per live row of the block that starts at live-row rank `first_slot`;
/// with `BUILD`, the walk builds the vectors of each row it lists and
/// stores them there for the other pairs, so the stores overlap its adds.
/// The accumulators stay in registers from the first term to the store.
///
/// # Safety
///
/// The CPU must support AVX2 (this helper is inlined into
/// [`gradient_dims`]).
#[inline(always)]
unsafe fn walk<const G: usize, const BUILD: bool>(
    op: Operands<'_>,
    d0: usize,
    terms: &[Term],
    signs: &mut [__m256],
    first_slot: usize,
    out: PairOut<'_, '_, __m256, G>,
) {
    // SAFETY: AVX2 is available (caller contract); every load and
    // store covers one bounds-checked 8-lane sub-slice.
    unsafe {
        let live = op.terms.live();
        let mut acc = [[_mm256_setzero_ps(); G]; 2];
        if !out.first {
            for (acc, row) in acc.iter_mut().zip(out.rows.iter()) {
                let sums: &[f32] = &row[out.at..out.at + G * LANES];
                for (a, sums) in acc.iter_mut().zip(sums.chunks_exact(LANES)) {
                    *a = _mm256_loadu_ps(sums.as_ptr());
                }
            }
        }
        for t in terms {
            let at_slot = (t.slot as usize - first_slot) * G;
            let s: [__m256; G] = if BUILD {
                let s = row_signs::<G>(op, live, t.slot, d0);
                signs[at_slot..at_slot + G].copy_from_slice(&s);
                s
            } else {
                signs[at_slot..at_slot + G]
                    .try_into()
                    .expect("G sign vectors")
            };
            for (acc, &neg_g) in acc.iter_mut().zip(&t.neg_g) {
                // `(−g) XOR s`: `+g` where the input bit is 1, `−g` where 0.
                let neg_g = _mm256_set1_ps(neg_g);
                for (a, &s) in acc.iter_mut().zip(&s) {
                    *a = _mm256_add_ps(*a, _mm256_xor_ps(neg_g, s));
                }
            }
        }
        for (acc, row) in acc.iter().zip(out.rows.iter_mut()) {
            let sums: &mut [f32] = &mut row[out.at..out.at + G * LANES];
            for ((&a, &keep), sums) in acc.iter().zip(out.keep).zip(sums.chunks_exact_mut(LANES)) {
                let a = if out.last { _mm256_and_ps(a, keep) } else { a };
                _mm256_storeu_ps(sums.as_mut_ptr(), a);
            }
        }
    }
}

/// The constants of one Adam step, broadcast to every lane.
struct StepLanes {
    lr: __m256,
    beta1: __m256,
    one_minus_beta1: __m256,
    beta2: __m256,
    one_minus_beta2: __m256,
    eps: __m256,
    weight_decay: __m256,
    bc1: __m256,
    bc2: __m256,
    lo: __m256,
    hi: __m256,
    /// Whether `bc1` (`bc2`) has rounded to exactly 1.0, so its division
    /// is skipped.
    bc1_is_one: bool,
    bc2_is_one: bool,
}

/// AVX2 tier of [`fused_step_on`](super::fused_step_on): each word of the
/// chunk is updated and packed 8 coordinates at a time.
///
/// # Safety
///
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn fused_step(d: usize, wpr: usize, chunk: FusedChunk<'_>) {
    let FusedChunk {
        words,
        packed,
        latent,
        grad,
        adam,
    } = chunk;
    let s = adam.step;
    let lanes = StepLanes {
        lr: _mm256_set1_ps(s.lr),
        beta1: _mm256_set1_ps(s.beta1),
        one_minus_beta1: _mm256_set1_ps(1.0 - s.beta1),
        beta2: _mm256_set1_ps(s.beta2),
        one_minus_beta2: _mm256_set1_ps(1.0 - s.beta2),
        eps: _mm256_set1_ps(s.eps),
        weight_decay: _mm256_set1_ps(s.weight_decay),
        bc1: _mm256_set1_ps(s.bc1),
        bc2: _mm256_set1_ps(s.bc2),
        lo: _mm256_set1_ps(-s.clip),
        hi: _mm256_set1_ps(s.clip),
        bc1_is_one: s.bc1 == 1.0,
        bc2_is_one: s.bc2 == 1.0,
    };
    for (out, r) in packed.iter_mut().zip(word_spans(d, wpr, words)) {
        // SAFETY: this function runs with AVX2 enabled.
        *out = unsafe {
            step_word(
                &lanes,
                s,
                &mut latent[r.clone()],
                &grad[r.clone()],
                &mut adam.m[r.clone()],
                &mut adam.v[r],
            )
        };
    }
}

/// Updates up to 64 coordinates and returns their sign bits, as
/// [`step_word_scalar`] does.
///
/// # Safety
///
/// The CPU must support AVX2 (this helper is inlined into [`fused_step`]).
#[inline(always)]
unsafe fn step_word(
    c: &StepLanes,
    step: AdamStep,
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
) -> u64 {
    let n = p.len();
    let body = n - n % LANES;
    let mut word = 0u64;
    for j in (0..body).step_by(LANES) {
        let at = j..j + LANES;
        // SAFETY: AVX2 is available (caller contract), and every load and
        // store covers one bounds-checked 8-lane sub-slice.
        unsafe {
            let pj = _mm256_loadu_ps(p[at.clone()].as_ptr());
            let gr = _mm256_loadu_ps(g[at.clone()].as_ptr());
            let mj = _mm256_loadu_ps(m[at.clone()].as_ptr());
            let vj = _mm256_loadu_ps(v[at.clone()].as_ptr());
            // The gradient is the second operand of both, so a NaN passes
            // through as it does `f32::clamp`.
            let gr = _mm256_min_ps(c.hi, _mm256_max_ps(c.lo, gr));
            let gv = _mm256_add_ps(gr, _mm256_mul_ps(c.weight_decay, pj));
            let mj = _mm256_add_ps(
                _mm256_mul_ps(c.beta1, mj),
                _mm256_mul_ps(c.one_minus_beta1, gv),
            );
            let vj = _mm256_add_ps(
                _mm256_mul_ps(c.beta2, vj),
                _mm256_mul_ps(_mm256_mul_ps(c.one_minus_beta2, gv), gv),
            );
            // `x / 1.0` returns `x` bit for bit unless `x` is a signalling
            // NaN, and the moments are sums, never one. So once a bias
            // correction has rounded to 1.0 (`bc1` at t = 165, `bc2` at
            // t = 17,321) its division is skipped.
            let m_hat = if c.bc1_is_one {
                mj
            } else {
                _mm256_div_ps(mj, c.bc1)
            };
            let v_hat = if c.bc2_is_one {
                vj
            } else {
                _mm256_div_ps(vj, c.bc2)
            };
            let denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), c.eps);
            let pj = _mm256_sub_ps(pj, _mm256_div_ps(_mm256_mul_ps(c.lr, m_hat), denom));
            _mm256_storeu_ps(p[at.clone()].as_mut_ptr(), pj);
            _mm256_storeu_ps(m[at.clone()].as_mut_ptr(), mj);
            _mm256_storeu_ps(v[at].as_mut_ptr(), vj);
            let signs = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(pj, _mm256_setzero_ps()));
            word |= u64::from(signs as u8) << j;
        }
    }
    if body < n {
        let (p, g, m, v) = (&mut p[body..], &g[body..], &mut m[body..], &mut v[body..]);
        word |= step_word_scalar(step, p, g, m, v) << body;
    }
    word
}
