//! Baseline binary HDC training: bundle-and-sign (paper Eq. 2).

use hdc::rng::rng_for;
use hdc::{Accumulator, BinaryHv, RealHv};
use threadpool::ThreadPool;

use crate::encoded::EncodedDataset;
use crate::engine::EpochEngine;
use crate::error::LehdcError;
use crate::model::HdcModel;

/// Trains the baseline binary HDC classifier: each class hypervector is the
/// majority vote over its samples, `c_k = sgn(Σ_{H ∈ Ω_k} H)`, with
/// `sgn(0)` ties broken randomly from `seed`.
///
/// This is the weakest strategy in the paper's Table 1 and the reference
/// every improvement is measured against.
///
/// The per-class bundling fans out over `engine`'s pool: each chunk
/// bundles its samples into per-class bit-sliced accumulators and the
/// partials merge in chunk order. Counts are exact integers, so the merged
/// accumulators — and the thresholded model, whose tie-break RNG stream
/// depends only on the final counters — are bit-identical at any thread
/// count.
///
/// # Errors
///
/// Returns [`LehdcError::InvalidConfig`] if some class has no samples (its
/// hypervector would be all ties — a meaningless classifier).
///
/// # Examples
///
/// ```
/// use hdc::{Dim, RecordEncoder};
/// use hdc_datasets::BenchmarkProfile;
/// use lehdc::{baseline::train_baseline, EncodedDataset, EpochEngine};
///
/// # fn main() -> Result<(), lehdc::LehdcError> {
/// let data = BenchmarkProfile::pamap().quick().generate(1)?;
/// let enc = RecordEncoder::builder(Dim::new(1024), data.train.n_features())
///     .seed(1)
///     .build()?;
/// let engine = EpochEngine::new(2);
/// let train = EncodedDataset::encode(&data.train, &enc, &engine)?;
/// let model = train_baseline(&train, 7, &engine)?;
/// assert!(model.accuracy(train.hvs(), train.labels()) > 1.0 / 5.0);
/// # Ok(())
/// # }
/// ```
pub fn train_baseline(
    train: &EncodedDataset,
    seed: u64,
    engine: &EpochEngine,
) -> Result<HdcModel, LehdcError> {
    let accumulators = class_accumulators_pooled(train, &all_samples(train), engine.pool())?;
    let mut rng = rng_for(seed, 0xBA5E);
    let class_hvs = accumulators
        .iter()
        .map(|acc| acc.threshold(&mut rng))
        .collect();
    HdcModel::new(class_hvs)
}

/// Every sample index of `train`, in order.
fn all_samples(train: &EncodedDataset) -> Vec<usize> {
    (0..train.len()).collect()
}

/// Bundles the samples at `indices` into one exact bit-sliced
/// [`Accumulator`] per class, chunked across the pool and merged in chunk
/// order. Within a chunk each class buffers up to [`Accumulator::GROUP`]
/// samples and adds a full buffer with one carry-save tree
/// ([`Accumulator::add_many`]); counts are exact, so the grouping changes
/// no counter.
///
/// # Errors
///
/// Returns [`LehdcError::InvalidConfig`] if some class has no sample among
/// `indices`.
pub(crate) fn class_accumulators_pooled(
    train: &EncodedDataset,
    indices: &[usize],
    pool: ThreadPool,
) -> Result<Vec<Accumulator>, LehdcError> {
    let k = train.n_classes();
    let parts = pool.run_chunks(indices.len(), |range| {
        let mut accs: Vec<Accumulator> = (0..k).map(|_| Accumulator::new(train.dim())).collect();
        let mut pending: Vec<Vec<&BinaryHv>> = (0..k)
            .map(|_| Vec::with_capacity(Accumulator::GROUP))
            .collect();
        for &i in &indices[range] {
            let (hv, label) = train.sample(i);
            pending[label].push(hv);
            if pending[label].len() == Accumulator::GROUP {
                accs[label].add_many(&pending[label]);
                pending[label].clear();
            }
        }
        for (acc, rest) in accs.iter_mut().zip(&pending) {
            acc.add_many(rest);
        }
        accs
    });
    let mut accumulators: Vec<Accumulator> = (0..k).map(|_| Accumulator::new(train.dim())).collect();
    for part in &parts {
        for (acc, partial) in accumulators.iter_mut().zip(part) {
            acc.merge(partial);
        }
    }
    if let Some(empty) = accumulators.iter().position(Accumulator::is_empty) {
        return Err(LehdcError::InvalidConfig(format!(
            "class {empty} has no training samples"
        )));
    }
    Ok(accumulators)
}

/// Accumulates the *non-binary* class hypervectors (the raw bipolar sums of
/// Eq. 2 before `sgn`) — the initialization the retraining strategies
/// fine-tune (QuantHD keeps exactly these as its non-binary model) — on
/// `engine`'s pool, via per-chunk bit-sliced accumulators.
///
/// The per-dimension sums are integers with magnitude below `2²⁴` for any
/// realistic corpus, so converting the exact counters to `f32` yields
/// bit-identical values to the sequential `±1.0` accumulation at any thread
/// count.
///
/// # Errors
///
/// Returns [`LehdcError::InvalidConfig`] if some class has no samples.
pub fn accumulate_class_sums(
    train: &EncodedDataset,
    engine: &EpochEngine,
) -> Result<Vec<RealHv>, LehdcError> {
    let accumulators = class_accumulators_pooled(train, &all_samples(train), engine.pool())?;
    Ok(bipolar_sums(&accumulators))
}

/// The bipolar sums `2·ones − n` of each accumulator as `f32`.
///
/// Every partial sum of `n` `±1.0` terms is an integer of magnitude at most
/// `n`, so for `n < 2²⁴` the sequential `f32` accumulation never rounds and
/// these values equal it bit for bit (a zero sum is `+0.0` both ways).
pub(crate) fn bipolar_sums(accumulators: &[Accumulator]) -> Vec<RealHv> {
    accumulators
        .iter()
        .map(|acc| {
            let mut counts = vec![0u32; acc.dim().get()];
            acc.counts_into(&mut counts);
            let n = acc.len() as i64;
            RealHv::from_values(
                counts
                    .iter()
                    .map(|&c| (2 * i64::from(c) - n) as f32)
                    .collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::rng::rng_for;
    use testkit::Rng;
    use hdc::{BinaryHv, Dim};

    /// Builds an encoded corpus of noisy copies of per-class prototypes.
    fn clustered_corpus(
        k: usize,
        per_class: usize,
        d: usize,
        flip: usize,
        seed: u64,
    ) -> (EncodedDataset, Vec<BinaryHv>) {
        let mut rng = rng_for(seed, 0);
        let dim = Dim::new(d);
        let protos: Vec<BinaryHv> = (0..k).map(|_| BinaryHv::random(dim, &mut rng)).collect();
        let mut hvs = Vec::new();
        let mut labels = Vec::new();
        for (c, proto) in protos.iter().enumerate() {
            for _ in 0..per_class {
                let mut hv = proto.clone();
                for _ in 0..flip {
                    hv.flip(rng.random_range(0..d));
                }
                hvs.push(hv);
                labels.push(c);
            }
        }
        (
            EncodedDataset::from_parts(hvs, labels, k).unwrap(),
            protos,
        )
    }

    #[test]
    fn baseline_recovers_cluster_prototypes() {
        let (train, protos) = clustered_corpus(4, 15, 2048, 200, 1);
        let model = train_baseline(&train, 3, &EpochEngine::default()).unwrap();
        for (c, proto) in protos.iter().enumerate() {
            let h = model.class_hvs()[c].normalized_hamming(proto);
            assert!(h < 0.1, "class {c} hypervector is {h} from its prototype");
        }
        assert!(model.accuracy(train.hvs(), train.labels()) > 0.95);
    }

    #[test]
    fn baseline_rejects_empty_classes() {
        let mut rng = rng_for(5, 5);
        let hvs = vec![BinaryHv::random(Dim::new(64), &mut rng)];
        // declared 2 classes, only class 0 has data
        let train = EncodedDataset::from_parts(hvs, vec![0], 2).unwrap();
        assert!(train_baseline(&train, 0, &EpochEngine::default()).is_err());
        assert!(accumulate_class_sums(&train, &EpochEngine::default()).is_err());
    }

    #[test]
    fn class_sums_binarize_to_the_baseline_model() {
        let (train, _) = clustered_corpus(3, 9, 512, 50, 7); // odd count → no ties
        let model = train_baseline(&train, 0, &EpochEngine::default()).unwrap();
        let sums = accumulate_class_sums(&train, &EpochEngine::default()).unwrap();
        for (c, sum) in sums.iter().enumerate() {
            assert_eq!(
                &sum.sign(),
                &model.class_hvs()[c],
                "sum sign must equal the baseline hypervector for class {c}"
            );
        }
    }

    #[test]
    fn pooled_accumulation_matches_serial_at_any_thread_count() {
        let (train, _) = clustered_corpus(3, 11, 517, 40, 4);
        let serial_sums = accumulate_class_sums(&train, &EpochEngine::default()).unwrap();
        let serial_model = train_baseline(&train, 9, &EpochEngine::default()).unwrap();
        for threads in [2, 4] {
            let engine = EpochEngine::new(threads);
            assert_eq!(
                accumulate_class_sums(&train, &engine).unwrap(),
                serial_sums,
                "sums threads={threads}"
            );
            assert_eq!(
                train_baseline(&train, 9, &engine).unwrap(),
                serial_model,
                "model threads={threads}"
            );
        }
        // The grouped class sums equal one `Accumulator::add` per sample,
        // with class sizes (11, 29) that leave a remainder after the groups
        // of 8, whole or split across chunks.
        for (k, per_class) in [(3, 11), (4, 29)] {
            let (train, _) = clustered_corpus(k, per_class, 517, 40, 5);
            let mut per_sample: Vec<Accumulator> =
                (0..k).map(|_| Accumulator::new(train.dim())).collect();
            for i in 0..train.len() {
                let (hv, label) = train.sample(i);
                per_sample[label].add(hv);
            }
            for threads in [1, 2, 4] {
                let pool = ThreadPool::new(threads);
                assert_eq!(
                    class_accumulators_pooled(&train, &all_samples(&train), pool).unwrap(),
                    per_sample,
                    "class sums k={k} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn tie_breaking_differs_by_seed_but_content_agrees() {
        // Even per-class counts with opposite vectors force ties everywhere.
        let dim = Dim::new(256);
        let mut rng = rng_for(9, 9);
        let a = BinaryHv::random(dim, &mut rng);
        let train = EncodedDataset::from_parts(
            vec![a.clone(), a.negated(), a.clone(), a.negated()],
            vec![0, 0, 1, 1],
            2,
        )
        .unwrap();
        let m1 = train_baseline(&train, 1, &EpochEngine::default()).unwrap();
        let m2 = train_baseline(&train, 2, &EpochEngine::default()).unwrap();
        assert_ne!(m1.class_hvs()[0], m2.class_hvs()[0]);
        let m1_again = train_baseline(&train, 1, &EpochEngine::default()).unwrap();
        assert_eq!(m1, m1_again, "same seed reproduces");
    }
}
