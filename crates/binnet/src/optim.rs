//! The first-order optimizer of LeHDC training: Adam with L2 weight decay.
//!
//! The paper (Sec. 4) selects **Adam** following ref \[15\] ("How Do Adam and
//! Training Strategies Help BNNs Optimization?") and applies an L2 penalty
//! `λ/2‖C_nb‖²` on the latent weights (Eq. 10), which appears here as a
//! coupled `λ·w` term added to the gradient.

use std::ops::Range;

use crate::error::BinnetError;

/// A first-order optimizer over a flat parameter buffer.
///
/// Implementations are stateful (moment estimates are kept per
/// coordinate) and must be used with a fixed parameter length.
pub trait Optimizer {
    /// Applies one update step: `params ← params − f(grads, state)`.
    ///
    /// # Errors
    ///
    /// Returns [`BinnetError::ShapeMismatch`] if `params` and `grads` have
    /// different lengths or the length changed between calls.
    fn step(&mut self, params: &mut [f32], grads: &[f32]) -> Result<(), BinnetError>;

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used by LR schedulers).
    fn set_learning_rate(&mut self, lr: f32);
}

fn check_lengths(
    op: &'static str,
    params: &[f32],
    grads: &[f32],
    state_len: usize,
) -> Result<(), BinnetError> {
    if params.len() != grads.len() || (state_len != 0 && state_len != params.len()) {
        return Err(BinnetError::ShapeMismatch {
            op,
            left: (params.len(), 1),
            right: (grads.len(), 1),
        });
    }
    Ok(())
}

/// The Adam optimizer (Kingma & Ba) with bias correction and L2 weight
/// decay, the configuration the paper adopts for LeHDC training.
///
/// # Examples
///
/// ```
/// use binnet::{Adam, Optimizer};
///
/// # fn main() -> Result<(), binnet::BinnetError> {
/// let mut opt = Adam::new(0.001).weight_decay(0.03);
/// let mut w = vec![0.5f32; 4];
/// opt.step(&mut w, &[0.1, -0.1, 0.2, 0.0])?;
/// assert_ne!(w[0], 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Creates Adam with learning rate `lr` and the standard
    /// `β₁ = 0.9, β₂ = 0.999, ε = 1e-8`.
    #[must_use]
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Sets the moment coefficients (default `0.9, 0.999`).
    #[must_use]
    pub fn betas(mut self, beta1: f32, beta2: f32) -> Self {
        self.beta1 = beta1;
        self.beta2 = beta2;
        self
    }

    /// Sets the L2 weight decay coefficient `λ` (default 0) — the Eq. 10
    /// penalty, applied as `grad += λ·w`.
    #[must_use]
    pub fn weight_decay(mut self, lambda: f32) -> Self {
        self.weight_decay = lambda;
        self
    }

    /// The L2 weight decay coefficient.
    #[must_use]
    pub fn weight_decay_coefficient(&self) -> f32 {
        self.weight_decay
    }

    /// Number of steps taken so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Starts one step over `len` parameters split at `ranges`, which must
    /// partition `0..len` in ascending order (e.g. [`threadpool::chunk_ranges`]):
    /// counts the step, fixes its bias corrections, and hands out each
    /// range's moment slices.
    ///
    /// Every coordinate's update reads and writes only that coordinate's
    /// state, so applying the chunks in any order, on any threads, is
    /// bit-identical to one unchunked [`Optimizer::step`] on a gradient
    /// clamped into `[-grad_clip, grad_clip]` first.
    ///
    /// # Errors
    ///
    /// Returns [`BinnetError::ShapeMismatch`] if `len` disagrees with
    /// existing optimizer state, or [`BinnetError::InvalidConfig`] if
    /// `ranges` is not an ascending partition of `0..len` or `grad_clip` is
    /// negative or NaN. A failed call does not count a step.
    pub(crate) fn begin_step(
        &mut self,
        len: usize,
        ranges: &[Range<usize>],
        grad_clip: Option<f32>,
    ) -> Result<Vec<AdamChunk<'_>>, BinnetError> {
        if !self.m.is_empty() && self.m.len() != len {
            return Err(BinnetError::ShapeMismatch {
                op: "adam_step",
                left: (len, 1),
                right: (self.m.len(), 1),
            });
        }
        check_partition(ranges, len)?;
        // `f32::clamp` panics on these bounds; refusing them here keeps
        // every kernel tier failing the same way.
        let clip = grad_clip.unwrap_or(f32::INFINITY);
        if clip.is_nan() || clip < 0.0 {
            return Err(BinnetError::InvalidConfig(format!(
                "gradient clip must be non-negative, got {clip}"
            )));
        }
        if self.m.is_empty() {
            self.m = vec![0.0; len];
            self.v = vec![0.0; len];
        }
        self.t += 1;
        let step = AdamStep {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            weight_decay: self.weight_decay,
            bc1: 1.0 - self.beta1.powi(self.t.min(1_000_000) as i32),
            bc2: 1.0 - self.beta2.powi(self.t.min(1_000_000) as i32),
            clip,
        };
        let m_parts = split_state(&mut self.m, ranges);
        let v_parts = split_state(&mut self.v, ranges);
        Ok(m_parts
            .into_iter()
            .zip(v_parts)
            .map(|(m, v)| AdamChunk { step, m, v })
            .collect())
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) -> Result<(), BinnetError> {
        check_lengths("adam_step", params, grads, self.m.len())?;
        let len = params.len();
        for mut chunk in self.begin_step(len, &threadpool::chunk_ranges(len, 1), None)? {
            chunk.apply(params, grads);
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

fn check_partition(ranges: &[Range<usize>], len: usize) -> Result<(), BinnetError> {
    let mut offset = 0;
    for r in ranges {
        if r.start != offset || r.end < r.start {
            return Err(BinnetError::InvalidConfig(format!(
                "chunk ranges must partition 0..{len} in ascending order"
            )));
        }
        offset = r.end;
    }
    if offset != len {
        return Err(BinnetError::InvalidConfig(format!(
            "chunk ranges cover 0..{offset}, expected 0..{len}"
        )));
    }
    Ok(())
}

/// Splits `state` at the boundaries of `ranges` (assumed validated).
fn split_state<'a>(mut state: &'a mut [f32], ranges: &[Range<usize>]) -> Vec<&'a mut [f32]> {
    let mut parts = Vec::with_capacity(ranges.len());
    for r in ranges {
        let (head, tail) = state.split_at_mut(r.len());
        parts.push(head);
        state = tail;
    }
    parts
}

/// The constants of one Adam step, shared by all of its chunks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdamStep {
    pub(crate) lr: f32,
    pub(crate) beta1: f32,
    pub(crate) beta2: f32,
    pub(crate) eps: f32,
    pub(crate) weight_decay: f32,
    /// Bias corrections `1 − β₁ᵗ` and `1 − β₂ᵗ`.
    pub(crate) bc1: f32,
    pub(crate) bc2: f32,
    /// Symmetric gradient clip bound; `+∞` clamps nothing.
    pub(crate) clip: f32,
}

impl AdamStep {
    /// Updates one coordinate. The AVX2 fused step repeats these IEEE
    /// operations lane by lane in this order, so keep them in sync.
    #[inline(always)]
    pub(crate) fn update(&self, p: &mut f32, grad: f32, m: &mut f32, v: &mut f32) {
        let g = grad.clamp(-self.clip, self.clip) + self.weight_decay * *p;
        *m = self.beta1 * *m + (1.0 - self.beta1) * g;
        *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
        let m_hat = *m / self.bc1;
        let v_hat = *v / self.bc2;
        *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
    }
}

/// One coordinate chunk of an Adam step (see [`Adam::begin_step`]): the
/// step's constants plus this chunk's moment slices.
#[derive(Debug)]
pub(crate) struct AdamChunk<'a> {
    pub(crate) step: AdamStep,
    pub(crate) m: &'a mut [f32],
    pub(crate) v: &'a mut [f32],
}

impl AdamChunk<'_> {
    /// Updates `params` from `grads` over this chunk's coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ from the chunk's coordinate count.
    pub(crate) fn apply(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "chunk slice lengths must match");
        assert_eq!(params.len(), self.m.len(), "chunk state length must match");
        let step = self.step;
        for (i, p) in params.iter_mut().enumerate() {
            step.update(p, grads[i], &mut self.m[i], &mut self.v[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_descent<O: Optimizer>(mut opt: O, steps: usize) -> f32 {
        // minimize f(w) = w² starting from w = 5; grad = 2w
        let mut w = vec![5.0f32];
        for _ in 0..steps {
            let g = [2.0 * w[0]];
            opt.step(&mut w, &g).unwrap();
        }
        w[0]
    }

    #[test]
    fn adam_descends_a_quadratic() {
        let w = quadratic_descent(Adam::new(0.3), 200);
        assert!(w.abs() < 1e-2, "adam left w at {w}");
    }

    #[test]
    fn weight_decay_shrinks_idle_weights() {
        // With zero gradient, decay must pull weights toward 0.
        let mut opt = Adam::new(0.01).weight_decay(0.5);
        let mut w = vec![1.0f32];
        for _ in 0..50 {
            opt.step(&mut w, &[0.0]).unwrap();
        }
        assert!(w[0] < 1.0);
    }

    #[test]
    fn step_rejects_length_mismatch() {
        let mut opt = Adam::new(0.1);
        let mut w = vec![0.0; 3];
        assert!(opt.step(&mut w, &[0.0; 2]).is_err());
        // establish state at length 3, then change length
        opt.step(&mut w, &[0.0; 3]).unwrap();
        let mut w2 = vec![0.0; 4];
        assert!(opt.step(&mut w2, &[0.0; 4]).is_err());
    }

    #[test]
    fn learning_rate_is_adjustable() {
        let mut opt = Adam::new(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.05);
        assert_eq!(opt.learning_rate(), 0.05);
    }

    #[test]
    fn adam_counts_steps() {
        let mut opt = Adam::new(0.1);
        let mut w = vec![1.0f32];
        opt.step(&mut w, &[1.0]).unwrap();
        opt.step(&mut w, &[1.0]).unwrap();
        assert_eq!(opt.steps(), 2);
    }

    /// Runs chunked steps over `partitions` chunks and asserts the
    /// parameters stay bit-identical to the unchunked reference each step.
    fn assert_chunked_matches_reference(opt: Adam, partitions: usize, grad_clip: Option<f32>) {
        let (mut reference, mut chunked) = (opt.clone(), opt);
        let len = 37;
        let mut w_ref: Vec<f32> = (0..len).map(|i| (i as f32 - 20.0) * 0.21).collect();
        let mut w_chk = w_ref.clone();
        for step in 0..5 {
            let grads: Vec<f32> = (0..len)
                .map(|i| ((i + step) as f32 * 0.73 - 13.0) * 0.11)
                .collect();
            let mut clipped = grads.clone();
            if let Some(c) = grad_clip {
                for g in &mut clipped {
                    *g = g.clamp(-c, c);
                }
            }
            reference.step(&mut w_ref, &clipped).unwrap();
            let ranges = threadpool::chunk_ranges(len, partitions);
            let chunks = chunked.begin_step(len, &ranges, grad_clip).unwrap();
            for (mut chunk, r) in chunks.into_iter().zip(&ranges) {
                chunk.apply(&mut w_chk[r.clone()], &grads[r.clone()]);
            }
            assert_eq!(w_ref, w_chk, "partitions={partitions} step={step}");
        }
    }

    #[test]
    fn chunked_adam_is_bit_identical_to_step() {
        for partitions in [1usize, 2, 5] {
            assert_chunked_matches_reference(Adam::new(0.07).weight_decay(0.03), partitions, None);
        }
    }

    #[test]
    fn chunked_adam_clips_like_a_pre_clamped_gradient() {
        assert_chunked_matches_reference(Adam::new(0.07).weight_decay(0.03), 3, Some(0.5));
    }

    #[test]
    fn begin_step_validates_partition_and_length() {
        let mut opt = Adam::new(0.1);
        // not a partition: gap
        assert!(opt.begin_step(10, &[0..4, 5..10], None).is_err());
        // not a partition: short
        assert!(opt.begin_step(10, &[0..4], None).is_err());
        // a clip bound `f32::clamp` would refuse
        assert!(opt.begin_step(10, &[0..4, 4..10], Some(-1.0)).is_err());
        assert!(opt.begin_step(10, &[0..4, 4..10], Some(f32::NAN)).is_err());
        // good partition establishes state at length 10
        assert!(opt.begin_step(10, &[0..4, 4..10], Some(0.0)).is_ok());
        // changing the length afterwards is a shape error
        assert!(opt.begin_step(12, &[0..12], None).is_err());
        assert_eq!(opt.steps(), 1, "failed begin_step must not count a step");
    }
}
