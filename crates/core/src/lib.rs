#![warn(missing_docs)]

//! # LeHDC: learning-based hyperdimensional computing classifier
//!
//! A from-scratch Rust implementation of **LeHDC** (Duan, Liu, Ren, Xu —
//! DAC 2022) together with every HDC training strategy the paper compares
//! against:
//!
//! | Strategy | Paper role | Module |
//! |---|---|---|
//! | Baseline bundling (Eq. 2) | Table 1 row 1 | [`baseline`] |
//! | Multi-model / SearcHD \[8\] | Table 1 row 2 | [`multimodel`] |
//! | Retraining / QuantHD \[4\] (Eq. 3) | Table 1 row 3 | [`retrain`] |
//! | Enhanced retraining (Sec. 3.3) | Fig. 3 | [`enhanced`] |
//! | Adaptive retraining / AdaptHD \[6\] | Sec. 3.2 discussion | [`adaptive`] |
//! | **LeHDC** (equivalent-BNN training) | Table 1 row 4 | [`lehdc_trainer`] |
//! | Non-binary HDC | Sec. 3.1 remark | [`nonbinary`] |
//!
//! All strategies produce the same artifact — an [`HdcModel`] holding one
//! binary class hypervector per class — so inference cost is identical
//! across strategies, which is the paper's "zero inference overhead" claim
//! made structural.
//!
//! # Quickstart
//!
//! ```
//! use hdc_datasets::BenchmarkProfile;
//! use lehdc::{Pipeline, Strategy};
//!
//! # fn main() -> Result<(), lehdc::LehdcError> {
//! let data = BenchmarkProfile::pamap().quick().generate(7)?;
//! let pipeline = Pipeline::builder(&data)
//!     .dim(hdc::Dim::new(1024))
//!     .seed(42)
//!     .build()?;
//! let baseline = pipeline.run(Strategy::Baseline)?;
//! let learned = pipeline.run(Strategy::lehdc_quick())?;
//! assert!(learned.test_accuracy >= baseline.test_accuracy);
//! # Ok(())
//! # }
//! ```

pub mod adaptive;
pub mod baseline;
pub mod encoded;
pub mod engine;
pub mod enhanced;
pub mod error;
pub mod format;
pub mod history;
pub mod io;
pub mod lehdc_trainer;
pub mod model;
pub mod multimodel;
pub mod nonbinary;
pub mod pipeline;
pub mod retrain;

#[cfg(test)]
pub(crate) mod test_util;

pub use adaptive::AdaptiveConfig;
pub use encoded::EncodedDataset;
pub use engine::{Classifier, EpochEngine, VoteLedger};
pub use error::LehdcError;
pub use history::{EpochRecord, EpochTiming, TrainingHistory};
pub use lehdc_trainer::{EarlyStopping, LehdcConfig};
pub use lehdc_trainer::train_lehdc;
pub use model::{project_dims, HdcModel, NonBinaryModel};
pub use multimodel::MultiModelConfig;
pub use pipeline::{Outcome, Pipeline, PipelineBuilder, Strategy};
pub use retrain::RetrainConfig;
