//! AVX-512 tier of the packed gradient product `Gᵀ·X` behind
//! [`packed_transpose_matmul_into`](super::packed_transpose_matmul_into).
//! The fused optimizer step has no AVX-512 body and runs its AVX2 one on
//! this tier.
//!
//! The kernel walks the nonzero terms of `G` (the class-pair term lists of
//! `GradTerms`), so its cost follows their number rather than `B·K`. It
//! puts **16 adjacent output dims** in each `zmm` register and works
//! through a pool chunk's dims [`GROUPS`] registers (128 dims) at a time:
//!
//! 1. Every live batch row (one with at least one term) gets [`GROUPS`]
//!    sign vectors for the chunk, each holding the `f32` sign bit in the
//!    lanes whose input bit is 1, built from the packed bits with one
//!    zero-masking move per register. They go into a stack buffer shared
//!    by every class pair. The first pair's walk builds the vectors of the
//!    rows it lists as it adds them, so their stores overlap its adds; the
//!    few live rows it does not list are built before the walks.
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
//!    keep-mask, with a zero-masking move, so dropped dims become `+0.0`.
//!
//! The sign buffer holds [`BLOCK_ROWS`] rows (32 KB, within the 48 KB L1
//! of the hosts this tier targets), so a batch of 64 is one block. A batch
//! with more live rows takes several blocks per chunk: the partial sums
//! wait in the output row between blocks, and only the last block's store
//! applies the keep-mask.
//!
//! Each lane runs the scalar reference's computation of its own output
//! element, minus `±0.0` terms: it starts at `+0.0` and adds the same
//! nonzero sign-flipped terms in the same ascending-`b` order, plus the
//! `±0.0` partner of a pair term whose other class is nonzero. The
//! `binnet::packed` module doc shows why adding or skipping a `±0.0` term
//! never changes a bit, so the result is bit-identical to the scalar and
//! AVX2 tiers; `tests/packed_parity.rs` diffs the tiers in one process.

use core::arch::x86_64::{
    __m512i, __mmask16, _mm512_add_ps, _mm512_castps_si512, _mm512_castsi512_ps, _mm512_loadu_ps,
    _mm512_maskz_mov_epi32, _mm512_maskz_mov_ps, _mm512_set1_epi32, _mm512_set1_ps,
    _mm512_setzero_ps, _mm512_setzero_si512, _mm512_storeu_ps, _mm512_xor_si512,
};
use std::ops::Range;

use super::{row_blocks, Operands, PairOut, Term};

/// Output dims per register.
pub(super) const LANES: usize = 16;

/// Registers per class in a chunk of output dims. A pair's two sets of
/// accumulators and one term's sign vectors take 24 of the 32 `zmm`
/// registers.
const GROUPS: usize = 8;

/// Live batch rows per block of the sign buffer
/// (`BLOCK_ROWS · GROUPS` vectors of 64 bytes: 32 KB).
const BLOCK_ROWS: usize = 64;

/// Writes the gradient of the 16-aligned dims `dims` into `rows`, where
/// `rows[c][dim - first]` is class `c`'s output for `dim`.
///
/// # Safety
///
/// The CPU must support AVX-512F. Every slice access is bounds-checked; for
/// a correct result `dims.start` and `dims.len()` must be multiples of
/// [`LANES`] and `rows` must hold the `K` class rows.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn gradient_dims(
    op: Operands<'_>,
    dims: Range<usize>,
    first: usize,
    rows: &mut [&mut [f32]],
) {
    debug_assert!(dims.start.is_multiple_of(LANES) && dims.len().is_multiple_of(LANES));
    debug_assert_eq!(rows.len(), op.k);
    let mut signs = [_mm512_setzero_si512(); BLOCK_ROWS * GROUPS];
    let full_end = dims.start + dims.len() / (LANES * GROUPS) * (LANES * GROUPS);
    for d0 in (dims.start..full_end).step_by(LANES * GROUPS) {
        // SAFETY: this function runs with AVX-512F enabled.
        unsafe { chunk::<GROUPS>(op, d0, first, rows, &mut signs) };
    }
    for d0 in (full_end..dims.end).step_by(LANES) {
        // SAFETY: as above.
        unsafe { chunk::<1>(op, d0, first, rows, &mut signs) };
    }
}

/// Writes the gradient of the `G · 16` dims from `d0` on, for every class,
/// with `signs` as the sign buffer.
///
/// # Safety
///
/// The CPU must support AVX-512F (this helper is inlined into
/// [`gradient_dims`]).
#[inline(always)]
unsafe fn chunk<const G: usize>(
    op: Operands<'_>,
    d0: usize,
    first: usize,
    rows: &mut [&mut [f32]],
    signs: &mut [__m512i; BLOCK_ROWS * GROUPS],
) {
    let live = op.terms.live();
    let keep: [__mmask16; G] = std::array::from_fn(|j| op.keep_from(d0 + j * LANES) as u16);
    let at = d0 - first;
    // SAFETY: AVX-512F is available (caller contract), which is all that
    // `row_signs` and `walk` require.
    unsafe {
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

/// Adds a class pair's `terms` (one block's) into two sets of `G`
/// registers and stores them into `out`. `signs` holds `G` sign vectors
/// per live row of the block that starts at live-row rank `first_slot`;
/// with `BUILD`, the walk builds the vectors of each row it lists and
/// stores them there for the other pairs, so the stores overlap its adds.
/// The accumulators stay in registers from the first term to the store.
///
/// # Safety
///
/// The CPU must support AVX-512F (this helper is inlined into
/// [`gradient_dims`]).
#[inline(always)]
unsafe fn walk<const G: usize, const BUILD: bool>(
    op: Operands<'_>,
    d0: usize,
    terms: &[Term],
    signs: &mut [__m512i],
    first_slot: usize,
    out: PairOut<'_, '_, __mmask16, G>,
) {
    // SAFETY: AVX-512F is available (caller contract); every load and
    // store covers one bounds-checked 16-lane sub-slice.
    unsafe {
        let live = op.terms.live();
        let mut acc = [[_mm512_setzero_ps(); G]; 2];
        if !out.first {
            for (acc, row) in acc.iter_mut().zip(out.rows.iter()) {
                let sums: &[f32] = &row[out.at..out.at + G * LANES];
                for (a, sums) in acc.iter_mut().zip(sums.chunks_exact(LANES)) {
                    *a = _mm512_loadu_ps(sums.as_ptr());
                }
            }
        }
        for t in terms {
            let at_slot = (t.slot as usize - first_slot) * G;
            let s: [__m512i; G] = if BUILD {
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
                let neg_g = _mm512_castps_si512(_mm512_set1_ps(neg_g));
                for (a, &s) in acc.iter_mut().zip(&s) {
                    *a = _mm512_add_ps(*a, _mm512_castsi512_ps(_mm512_xor_si512(neg_g, s)));
                }
            }
        }
        for (acc, row) in acc.iter().zip(out.rows.iter_mut()) {
            let sums: &mut [f32] = &mut row[out.at..out.at + G * LANES];
            for ((&a, &keep), sums) in acc.iter().zip(out.keep).zip(sums.chunks_exact_mut(LANES)) {
                let a = if out.last {
                    _mm512_maskz_mov_ps(keep, a)
                } else {
                    a
                };
                _mm512_storeu_ps(sums.as_mut_ptr(), a);
            }
        }
    }
}

/// The `G` sign vectors of live row `slot` for the dims from `d0` on: the
/// `f32` sign bit in each lane whose input bit is 1.
///
/// # Safety
///
/// The CPU must support AVX-512F (this helper is inlined into
/// [`gradient_dims`]).
#[inline(always)]
unsafe fn row_signs<const G: usize>(
    op: Operands<'_>,
    live: &[u32],
    slot: u32,
    d0: usize,
) -> [__m512i; G] {
    let bytes = &op.row_bytes(live[slot as usize] as usize)[d0 / 8..][..G * 2];
    // SAFETY: AVX-512F is available (caller contract).
    unsafe {
        let mut s = [_mm512_setzero_si512(); G];
        for (s, bits) in s.iter_mut().zip(bytes.chunks_exact(2)) {
            let bits = u16::from_le_bytes([bits[0], bits[1]]);
            *s = _mm512_maskz_mov_epi32(bits, _mm512_set1_epi32(i32::MIN));
        }
        s
    }
}
