#![warn(missing_docs)]

//! Minimal binary-neural-network training substrate.
//!
//! LeHDC (DAC 2022) trains an HDC classifier by viewing it as a wide
//! single-layer **binary** neural network. Mainstream Rust ML frameworks do
//! not support custom binary layers with latent real weights, so this crate
//! implements the required machinery from scratch:
//!
//! - [`Matrix`]: a plain row-major `f32` matrix with the three products the
//!   trainer needs (`X·W`, `Xᵀ·G`, and scaling helpers).
//! - [`PackedMatrix`] and the [`packed`] products: bit-packed XNOR/popcount
//!   kernels that compute the same forward and gradient products
//!   **bit-identically** at ~64× the storage density, with optional
//!   thread-pool fan-out and dropout as a bit mask ([`DropMask`]).
//! - [`BinaryLinear`]: a fully connected layer whose *latent* weights are
//!   real and whose *effective* weights are their sign (`sgn(0) = +1`),
//!   trained with the straight-through estimator — exactly the scheme of the
//!   paper's Eq. 8. It trains on packed bipolar batches, keeps its latents
//!   class-major like its packed weight rows, and fuses the Adam step with
//!   the repack.
//! - [`softmax_cross_entropy`]: the fused loss/gradient of the paper's
//!   Eq. 9.
//! - the [`Adam`] optimizer with L2 weight decay (Eq. 10).
//! - [`Dropout`] on the layer input, and [`PlateauDecay`] — the paper decays
//!   the learning rate "if the training loss increasing is detected".
//! - [`BatchSampler`]: deterministic shuffled mini-batches.
//!
//! # Example
//!
//! Train a single binary layer on a linearly separable toy problem, on the
//! packed, buffer-reusing path the LeHDC trainer runs:
//!
//! ```
//! use binnet::{Adam, BinaryLinear, Matrix, softmax_cross_entropy_into};
//!
//! # fn main() -> Result<(), binnet::BinnetError> {
//! let d = 16; // input width
//! let k = 2;  // classes
//! let mut layer = BinaryLinear::new(d, k, 7);
//! let mut opt = Adam::new(0.05);
//!
//! // class 0 → all +1 inputs, class 1 → all −1 inputs
//! let x = Matrix::from_rows(&[vec![1.0; d], vec![-1.0; d]])?
//!     .pack_bipolar()
//!     .expect("bipolar batch");
//! let labels = [0usize, 1];
//! let mut logits = Matrix::zeros(2, k);
//! let mut dlogits = Matrix::zeros(2, k);
//! let mut grad = Matrix::zeros(k, d); // class-major latent gradient
//! for _ in 0..20 {
//!     layer.forward_packed_into(&x, &mut logits);
//!     softmax_cross_entropy_into(&logits, &labels, &mut dlogits)?;
//!     layer.backward_packed_into(&x, None, &dlogits, &mut grad);
//!     layer.apply_gradient_fused(&grad, &mut opt, None);
//! }
//! layer.forward_packed_into(&x, &mut logits);
//! assert!(logits.get(0, 0) > logits.get(0, 1));
//! assert!(logits.get(1, 1) > logits.get(1, 0));
//! # Ok(())
//! # }
//! ```

pub mod batch;
pub mod dropout;
pub mod error;
pub mod layer;
pub mod loss;
pub mod matrix;
pub mod metrics;
pub mod optim;
pub mod packed;
pub mod scheduler;

pub use batch::BatchSampler;
pub use dropout::{DropMask, Dropout};
pub use error::BinnetError;
pub use layer::{BinaryLinear, DenseLinear};
pub use loss::{accuracy_from_logits, softmax, softmax_cross_entropy, softmax_cross_entropy_into};
pub use matrix::Matrix;
pub use metrics::{accuracy, ConfusionMatrix};
pub use optim::{Adam, Optimizer};
pub use packed::{
    packed_matmul, packed_matmul_into, packed_matmul_masked, packed_matmul_masked_into,
    packed_transpose_matmul, packed_transpose_matmul_into, PackedMatrix,
};
pub use scheduler::{PlateauDecay, StepDecay};
