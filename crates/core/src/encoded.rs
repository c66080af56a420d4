//! An encoded corpus: the hypervectors every training strategy consumes.

use binnet::{Matrix, PackedMatrix};
use hdc::{BinaryHv, Dim, Encode};
use hdc_datasets::Dataset;
use threadpool::ThreadPool;

use crate::engine::EpochEngine;
use crate::error::LehdcError;

/// A dataset after hypervector encoding: one [`BinaryHv`] per sample, plus
/// labels. Encoding happens once per dataset and is shared across all
/// training strategies — the paper's point that LeHDC changes *training
/// only*, never the encoder.
///
/// # Examples
///
/// ```
/// use hdc::{Dim, RecordEncoder};
/// use hdc_datasets::BenchmarkProfile;
/// use lehdc::{EncodedDataset, EpochEngine};
///
/// # fn main() -> Result<(), lehdc::LehdcError> {
/// let data = BenchmarkProfile::pamap().quick().generate(3)?;
/// let encoder = RecordEncoder::builder(Dim::new(512), data.train.n_features())
///     .seed(1)
///     .build()?;
/// let encoded = EncodedDataset::encode(&data.train, &encoder, &EpochEngine::new(2))?;
/// assert_eq!(encoded.len(), data.train.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EncodedDataset {
    hvs: Vec<BinaryHv>,
    labels: Vec<usize>,
    n_classes: usize,
    dim: Dim,
}

impl EncodedDataset {
    /// Encodes a dataset with the given encoder on `engine`'s pool.
    ///
    /// Rows are chunked across workers and each worker reuses one encode
    /// scratch (bit-sliced bundle accumulator) for its whole chunk, so the
    /// corpus pass allocates nothing per sample beyond the output
    /// hypervectors. Per-dimension vote counts are exact integers and each
    /// sample's tie-break stream is self-seeded, so the assembled dataset is
    /// bit-identical at any thread count or chunking. The engine's recorder
    /// gets an `encode/corpus_ns` span, an `encode/samples_per_sec` gauge
    /// and one `encode` event.
    ///
    /// # Errors
    ///
    /// Returns [`LehdcError::Hdc`] if the dataset's feature count does not
    /// match the encoder.
    pub fn encode<E: Encode>(
        dataset: &Dataset,
        encoder: &E,
        engine: &EpochEngine,
    ) -> Result<Self, LehdcError> {
        let hvs =
            encoder.encode_all_recorded(dataset.features(), engine.threads(), engine.recorder())?;
        Ok(EncodedDataset {
            hvs,
            labels: dataset.labels().to_vec(),
            n_classes: dataset.n_classes(),
            dim: encoder.dim(),
        })
    }

    /// Wraps pre-encoded hypervectors.
    ///
    /// # Errors
    ///
    /// Returns [`LehdcError::InvalidConfig`] if the corpus is empty, the
    /// lengths disagree, dimensions are inconsistent, or a label is out of
    /// range.
    pub fn from_parts(
        hvs: Vec<BinaryHv>,
        labels: Vec<usize>,
        n_classes: usize,
    ) -> Result<Self, LehdcError> {
        let first = hvs.first().ok_or_else(|| {
            LehdcError::InvalidConfig("encoded dataset must not be empty".into())
        })?;
        let dim = first.dim();
        if hvs.len() != labels.len() {
            return Err(LehdcError::InvalidConfig(format!(
                "{} hypervectors but {} labels",
                hvs.len(),
                labels.len()
            )));
        }
        if hvs.iter().any(|h| h.dim() != dim) {
            return Err(LehdcError::InvalidConfig(
                "hypervector dimensions disagree".into(),
            ));
        }
        if let Some(&bad) = labels.iter().find(|&&y| y >= n_classes) {
            return Err(LehdcError::InvalidConfig(format!(
                "label {bad} out of range for {n_classes} classes"
            )));
        }
        Ok(EncodedDataset {
            hvs,
            labels,
            n_classes,
            dim,
        })
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.hvs.len()
    }

    /// Whether the corpus is empty (never true once constructed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hvs.is_empty()
    }

    /// The hypervector dimensionality `D`.
    #[must_use]
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// Number of classes `K`.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The encoded hypervectors in sample order.
    #[must_use]
    pub fn hvs(&self) -> &[BinaryHv] {
        &self.hvs
    }

    /// The labels in sample order.
    #[must_use]
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Sample `i` as `(hypervector, label)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn sample(&self, i: usize) -> (&BinaryHv, usize) {
        (&self.hvs[i], self.labels[i])
    }

    /// Assembles a dense bipolar batch matrix (`indices.len() × D`) for the
    /// dense trainer, with matching labels.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or any index is out of range.
    #[must_use]
    pub fn batch(&self, indices: &[usize]) -> (Matrix, Vec<usize>) {
        assert!(!indices.is_empty(), "batch must not be empty");
        let d = self.dim.get();
        let mut m = Matrix::zeros(indices.len(), d);
        for (row, &i) in m.as_mut_slice().chunks_exact_mut(d).zip(indices) {
            self.hvs[i].write_bipolar_f32(row);
        }
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        (m, labels)
    }

    /// Assembles a **bit-packed** batch (`indices.len() × D`) for the packed
    /// XNOR/popcount trainer path into caller-owned buffers, with matching
    /// labels.
    ///
    /// Hypervectors are already bit-packed, so this is a word copy — no
    /// `BinaryHv → f32` expansion per epoch, unlike [`batch`](Self::batch) —
    /// fanned out over `pool` in disjoint contiguous row ranges, so the
    /// result is bit-identical at any worker count. Nothing is allocated
    /// once the buffers have their steady capacity: this is the batch
    /// assembly of the LeHDC trainer's zero-alloc hot loop.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or any index is out of range.
    pub fn packed_batch_pooled_into(
        &self,
        indices: &[usize],
        pool: &ThreadPool,
        x: &mut PackedMatrix,
        labels: &mut Vec<usize>,
    ) {
        assert!(!indices.is_empty(), "batch must not be empty");
        x.refill_word_rows_pooled(
            self.dim.get(),
            indices.len(),
            |r| self.hvs[indices[r]].as_words(),
            pool,
        )
        .expect("hypervector words always match their dimension");
        labels.clear();
        labels.extend(indices.iter().map(|&i| self.labels[i]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::rng::rng_for;
    use hdc::RecordEncoder;

    fn tiny_encoded() -> EncodedDataset {
        let mut rng = rng_for(1, 1);
        let hvs: Vec<BinaryHv> = (0..4)
            .map(|_| BinaryHv::random(Dim::new(128), &mut rng))
            .collect();
        EncodedDataset::from_parts(hvs, vec![0, 1, 0, 1], 2).unwrap()
    }

    #[test]
    fn from_parts_validates() {
        let mut rng = rng_for(2, 2);
        let a = BinaryHv::random(Dim::new(64), &mut rng);
        let b = BinaryHv::random(Dim::new(65), &mut rng);
        assert!(EncodedDataset::from_parts(vec![], vec![], 2).is_err());
        assert!(EncodedDataset::from_parts(vec![a.clone()], vec![0, 1], 2).is_err());
        assert!(EncodedDataset::from_parts(vec![a.clone(), b], vec![0, 1], 2).is_err());
        assert!(EncodedDataset::from_parts(vec![a], vec![5], 2).is_err());
    }

    #[test]
    fn accessors_agree() {
        let e = tiny_encoded();
        assert_eq!(e.len(), 4);
        assert!(!e.is_empty());
        assert_eq!(e.dim(), Dim::new(128));
        assert_eq!(e.n_classes(), 2);
        let (hv, y) = e.sample(2);
        assert_eq!(y, 0);
        assert_eq!(hv.dim(), Dim::new(128));
    }

    #[test]
    fn batch_matches_bipolar_values() {
        let e = tiny_encoded();
        let (m, labels) = e.batch(&[3, 0]);
        assert_eq!((m.rows(), m.cols()), (2, 128));
        assert_eq!(labels, vec![1, 0]);
        for j in 0..128 {
            assert_eq!(m.get(0, j), e.hvs()[3].bipolar(j) as f32);
            assert_eq!(m.get(1, j), e.hvs()[0].bipolar(j) as f32);
        }
    }

    #[test]
    fn packed_batch_matches_dense_batch() {
        let e = tiny_encoded();
        let (dense, dense_labels) = e.batch(&[3, 0, 2]);
        let mut packed = PackedMatrix::empty();
        let mut labels = Vec::new();
        e.packed_batch_pooled_into(&[3, 0, 2], &ThreadPool::new(1), &mut packed, &mut labels);
        assert_eq!(dense_labels, labels);
        assert_eq!((packed.rows(), packed.cols()), (3, 128));
        assert_eq!(packed.to_bipolar_matrix(), dense);
        // word-level copy: rows are the hypervectors' own words
        assert_eq!(packed.row_words(0), e.hvs()[3].as_words());
    }

    #[test]
    fn pooled_batches_match_sequential_batches() {
        let e = tiny_encoded();
        let indices = [3usize, 0, 2, 1, 2];
        let mut packed = PackedMatrix::empty();
        let mut labels = Vec::new();
        e.packed_batch_pooled_into(&indices, &ThreadPool::new(1), &mut packed, &mut labels);
        for threads in [2, 4] {
            let pool = ThreadPool::new(threads);
            let mut pp = PackedMatrix::empty();
            let mut pl = Vec::new();
            e.packed_batch_pooled_into(&indices, &pool, &mut pp, &mut pl);
            assert_eq!(pp, packed, "packed threads={threads}");
            assert_eq!(pl, labels);
        }
    }

    #[test]
    fn packed_batch_into_matches_allocating_variant_and_reuses_buffers() {
        let e = tiny_encoded();
        let pool = ThreadPool::new(2);
        let allocating = |indices: &[usize]| {
            let m = PackedMatrix::from_word_rows(
                e.dim().get(),
                indices.iter().map(|&i| e.hvs()[i].as_words()),
            )
            .unwrap();
            let labels: Vec<usize> = indices.iter().map(|&i| e.labels()[i]).collect();
            (m, labels)
        };
        let mut x = PackedMatrix::empty();
        let mut labels = Vec::new();
        e.packed_batch_pooled_into(&[3, 0, 2], &pool, &mut x, &mut labels);
        let ptr = x.row_words(0).as_ptr();
        let (expect, expect_labels) = allocating(&[3, 0, 2]);
        assert_eq!(x, expect);
        assert_eq!(labels, expect_labels);
        // refilling with a batch of equal or smaller footprint reuses memory
        e.packed_batch_pooled_into(&[1, 2], &pool, &mut x, &mut labels);
        assert_eq!(ptr, x.row_words(0).as_ptr(), "refill must not reallocate");
        let (expect, expect_labels) = allocating(&[1, 2]);
        assert_eq!(x, expect);
        assert_eq!(labels, expect_labels);
    }

    #[test]
    fn encode_is_bit_identical_across_thread_counts() {
        let data = hdc_datasets::BenchmarkProfile::pamap()
            .with_features(16)
            .with_samples(24, 10)
            .generate(5)
            .unwrap();
        let enc = RecordEncoder::builder(Dim::new(517), 16).seed(9).build().unwrap();
        let reference = EncodedDataset::encode(&data.train, &enc, &EpochEngine::default()).unwrap();
        for threads in [2, 4] {
            let parallel =
                EncodedDataset::encode(&data.train, &enc, &EpochEngine::new(threads)).unwrap();
            assert_eq!(parallel.hvs(), reference.hvs(), "threads={threads}");
            assert_eq!(parallel.labels(), reference.labels());
        }
    }

    #[test]
    fn encode_matches_dataset_shape() {
        let data = hdc_datasets::BenchmarkProfile::pamap()
            .with_features(16)
            .with_samples(20, 10)
            .generate(5)
            .unwrap();
        let enc = RecordEncoder::builder(Dim::new(256), 16).seed(3).build().unwrap();
        let encoded = EncodedDataset::encode(&data.train, &enc, &EpochEngine::new(2)).unwrap();
        assert_eq!(encoded.len(), 20);
        assert_eq!(encoded.labels(), data.train.labels());
        assert_eq!(encoded.n_classes(), 5);
    }
}
