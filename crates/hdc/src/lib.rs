#![warn(missing_docs)]

//! Hyperdimensional computing (HDC) substrate.
//!
//! This crate provides the algebra that every HDC classifier in the LeHDC
//! reproduction stands on:
//!
//! - [`BinaryHv`]: a bit-packed bipolar hypervector in `{-1, +1}^D`
//!   (bit `1` ≡ `+1`, bit `0` ≡ `-1`), with XNOR binding, popcount Hamming
//!   distance, and rotation permutation.
//! - [`RealHv`]: a real-valued hypervector used for non-binary HDC models and
//!   for the non-binary "shadow" class hypervectors of retraining strategies.
//! - [`Accumulator`]: a per-dimension counter used to bundle many binary
//!   hypervectors and threshold them back to a [`BinaryHv`] (the `sgn(Σ ...)`
//!   of the paper's Eqs. 1 and 2).
//! - [`PositionMemory`] / [`LevelMemory`]: the item memories of record-based
//!   encoding — orthogonal per-feature hypervectors, and correlated
//!   per-value hypervectors whose Hamming distance grows linearly with the
//!   value gap.
//! - [`RecordEncoder`] / [`NgramEncoder`]: the paper's Eq. 1 record-based
//!   encoder and the classical N-gram alternative, both implementing the
//!   [`Encode`] trait with parallel corpus encoding.
//!
//! # Example
//!
//! Encode two nearby feature vectors and observe that their hypervectors are
//! much closer to each other than to an unrelated one:
//!
//! ```
//! use hdc::{Dim, RecordEncoder, Encode};
//!
//! # fn main() -> Result<(), hdc::HdcError> {
//! let encoder = RecordEncoder::builder(Dim::new(2048), 16)
//!     .levels(32)
//!     .seed(7)
//!     .build()?;
//!
//! let a: Vec<f32> = (0..16).map(|i| i as f32 / 16.0).collect();
//! let mut b = a.clone();
//! b[3] += 0.05; // a small perturbation
//! let c: Vec<f32> = (0..16).map(|i| 1.0 - i as f32 / 16.0).collect();
//!
//! let (ha, hb, hc) = (encoder.encode(&a)?, encoder.encode(&b)?, encoder.encode(&c)?);
//! assert!(ha.normalized_hamming(&hb) < ha.normalized_hamming(&hc));
//! # Ok(())
//! # }
//! ```

pub mod accum;
pub mod bitvec;
pub mod dim;
pub mod encoder;
pub mod error;
pub mod item_memory;
pub mod kernels;
pub mod permutation;
pub mod quantize;
pub mod realhv;
pub mod rng;
pub mod similarity;

pub use accum::Accumulator;
pub use bitvec::BinaryHv;
pub use dim::Dim;
pub use encoder::{Encode, EncodeScratch, NgramEncoder, RecordEncoder, RecordEncoderBuilder};
pub use error::HdcError;
pub use item_memory::{LevelMemory, PositionMemory};
pub use kernels::{
    active_tier, avx2_available, avx512_available, dot_words, hamming_words, masked_dot_words,
    masked_hamming_words, KernelTier,
};
pub use permutation::Permutation;
pub use quantize::Quantizer;
pub use realhv::RealHv;
pub use similarity::{cosine_from_hamming, hamming_from_cosine};
