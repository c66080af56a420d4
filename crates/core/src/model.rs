//! The HDC classifier models produced by every training strategy.

use hdc::{BinaryHv, Dim, RealHv};

use crate::engine::{Classifier, EpochEngine};
use crate::error::LehdcError;

/// A binary HDC classifier: one class hypervector per class, classifying by
/// minimum Hamming distance (equivalently maximum `En(x)ᵀc_k`, paper Eq. 6).
///
/// Every training strategy in this crate — baseline, retraining, enhanced,
/// adaptive, multi-model (after collapse), and LeHDC — produces this same
/// type, so inference latency and storage are identical across strategies.
///
/// # Examples
///
/// ```
/// use hdc::{BinaryHv, Dim};
/// use lehdc::HdcModel;
///
/// # fn main() -> Result<(), lehdc::LehdcError> {
/// let d = Dim::new(512);
/// let mut rng = testkit::Xoshiro256pp::seed_from_u64(1);
/// let c0 = BinaryHv::random(d, &mut rng);
/// let c1 = BinaryHv::random(d, &mut rng);
/// let model = HdcModel::new(vec![c0.clone(), c1])?;
/// assert_eq!(model.classify(&c0), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HdcModel {
    class_hvs: Vec<BinaryHv>,
    dim: Dim,
}

impl HdcModel {
    /// Creates a model from one hypervector per class.
    ///
    /// # Errors
    ///
    /// Returns [`LehdcError::InvalidConfig`] if no class hypervectors are
    /// given or their dimensions disagree.
    pub fn new(class_hvs: Vec<BinaryHv>) -> Result<Self, LehdcError> {
        let first = class_hvs
            .first()
            .ok_or_else(|| LehdcError::InvalidConfig("model needs at least one class".into()))?;
        let dim = first.dim();
        if let Some(bad) = class_hvs.iter().find(|hv| hv.dim() != dim) {
            return Err(LehdcError::InvalidConfig(format!(
                "class hypervector dimensions disagree: {} vs {}",
                dim,
                bad.dim()
            )));
        }
        Ok(HdcModel { class_hvs, dim })
    }

    /// The hypervector dimensionality `D`.
    #[must_use]
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// Number of classes `K`.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.class_hvs.len()
    }

    /// The class hypervectors in class order.
    #[must_use]
    pub fn class_hvs(&self) -> &[BinaryHv] {
        &self.class_hvs
    }

    /// Recomputes class `k`'s hypervector as `real.sign()` in place and
    /// returns the Hamming distance between the old and new rows (the
    /// class's contribution to the retraining flip-fraction signal).
    ///
    /// The retraining strategies call this for exactly the classes whose
    /// non-binary hypervector changed in an iteration; classes left
    /// untouched keep bit-identical rows (an unchanged `RealHv` has an
    /// unchanged sign), so re-signing only the touched set produces the
    /// same model as a full rebinarize.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range or `real`'s dimension differs from the
    /// model's.
    pub fn resign_class(&mut self, k: usize, real: &RealHv) -> usize {
        assert_eq!(
            real.dim(),
            self.dim,
            "class hypervector dimension must match the model"
        );
        let new = real.sign();
        let flipped = self.class_hvs[k].hamming(&new);
        self.class_hvs[k] = new;
        flipped
    }

    /// The similarity scores `En(x)ᵀ c_k` for every class (higher = more
    /// similar).
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the model's.
    #[must_use]
    pub fn similarities(&self, query: &BinaryHv) -> Vec<i64> {
        self.class_hvs.iter().map(|c| query.dot(c)).collect()
    }

    /// Classifies a query hypervector: the class with the smallest Hamming
    /// distance (paper Eq. 4). Ties resolve to the lowest class index.
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the model's.
    #[must_use]
    pub fn classify(&self, query: &BinaryHv) -> usize {
        assert_eq!(
            query.dim(),
            self.dim,
            "query dimension must match the model"
        );
        hdc::kernels::argmax_dot(query.as_words(), self.class_hvs.iter().map(BinaryHv::as_words))
            .expect("model has at least one class")
    }

    /// Query-blocked batch classification on `threads` pool workers with
    /// an explicit block size: [`EpochEngine::classify_epoch`] on
    /// [`EpochEngine::with_block`]. Each packed class hypervector is
    /// streamed once against a block of `block` queries instead of once per
    /// query, so at the paper's `D = 10,000` the class set stays
    /// cache-resident while a whole block is scored.
    ///
    /// The argmax scan keeps the first minimum-distance class, so the
    /// predictions are bit-identical to per-query [`HdcModel::classify`] for
    /// every block size, thread count, and kernel tier (see
    /// `hdc::kernels::argmax_dot_blocked_into`).
    ///
    /// # Panics
    ///
    /// Panics if `block` is zero or any query dimension differs from the
    /// model's.
    #[must_use]
    pub fn classify_all_blocked(
        &self,
        queries: &[BinaryHv],
        block: usize,
        threads: usize,
    ) -> Vec<usize> {
        EpochEngine::with_block(threads, block).classify_epoch(self, queries)
    }

    /// Classifies and reports the **margin**: the cosine-similarity gap
    /// between the winning class and the runner-up, in `[0, 2]`.
    ///
    /// The paper's Sec. 3.2 limitation ② is exactly about small margins —
    /// "the sample is very close to the classification border" — so exposing
    /// the margin lets callers flag low-confidence predictions. A model with
    /// a single class reports the maximum margin `2.0`.
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the model's.
    ///
    /// # Examples
    ///
    /// ```
    /// # use hdc::{BinaryHv, Dim};
    /// # fn main() -> Result<(), lehdc::LehdcError> {
    /// # let mut rng = testkit::Xoshiro256pp::seed_from_u64(3);
    /// # let c0 = BinaryHv::random(Dim::new(512), &mut rng);
    /// # let c1 = BinaryHv::random(Dim::new(512), &mut rng);
    /// let model = lehdc::HdcModel::new(vec![c0.clone(), c1])?;
    /// let (class, margin) = model.classify_with_margin(&c0);
    /// assert_eq!(class, 0);
    /// assert!(margin > 0.5); // an exact class hypervector is far from the border
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn classify_with_margin(&self, query: &BinaryHv) -> (usize, f64) {
        let sims = self.similarities(query);
        let mut best = (i64::MIN, 0usize);
        let mut second = i64::MIN;
        for (k, &dot) in sims.iter().enumerate() {
            if dot > best.0 {
                second = best.0;
                best = (dot, k);
            } else if dot > second {
                second = dot;
            }
        }
        let margin = if second == i64::MIN {
            2.0
        } else {
            (best.0 - second) as f64 / self.dim.get() as f64
        };
        (best.1, margin)
    }

    /// Shrinks the model to its first `new_dim` dimensions.
    ///
    /// Because HDC spreads information evenly across dimensions, truncation
    /// trades accuracy for storage along the same curve as training at a
    /// smaller `D` (paper Fig. 6) — without retraining. Queries must be
    /// encoded with a correspondingly truncated encoder.
    ///
    /// # Errors
    ///
    /// This method is infallible for `new_dim <= D`.
    ///
    /// # Panics
    ///
    /// Panics if `new_dim > D`.
    #[must_use]
    pub fn truncated(&self, new_dim: Dim) -> HdcModel {
        HdcModel {
            class_hvs: self.class_hvs.iter().map(|hv| hv.truncated(new_dim)).collect(),
            dim: new_dim,
        }
    }

    /// Distills the model to `d_out` dimensions by class-margin
    /// contribution, returning the shrunken model plus the (strictly
    /// increasing) kept dimension indices.
    ///
    /// A dimension contributes to the margin of a class pair exactly when
    /// the two class hypervectors disagree there, so selection greedily
    /// balances pairwise separation: repeatedly find the class pair with
    /// the fewest separating dimensions kept so far and keep that pair's
    /// next (lowest-index) unkept separating dimension. Every pick credits
    /// every pair it separates, so well-separated pairs stop attracting
    /// picks early and the weakest margin is always the one being grown —
    /// the distilled model degrades its *worst* class pair as slowly as
    /// possible, unlike prefix [`HdcModel::truncated`], which keeps
    /// dimensions blindly. Deterministic: ties resolve to the lowest pair
    /// index and lowest dimension.
    ///
    /// # Errors
    ///
    /// Returns [`LehdcError::InvalidConfig`] if `d_out` is zero or exceeds
    /// the model dimension.
    pub fn distill(&self, d_out: usize) -> Result<(HdcModel, Vec<u32>), LehdcError> {
        let d = self.dim.get();
        if d_out == 0 || d_out > d {
            return Err(LehdcError::InvalidConfig(format!(
                "distill target {d_out} must be in 1..={d}"
            )));
        }
        let k = self.class_hvs.len();
        let pairs: Vec<(usize, usize)> = (0..k)
            .flat_map(|i| (i + 1..k).map(move |j| (i, j)))
            .collect();
        // Per pair: the ascending list of dimensions where the two class
        // hypervectors disagree (its margin-contributing dimensions).
        let mut separating: Vec<Vec<u32>> = vec![Vec::new(); pairs.len()];
        for dim_idx in 0..d {
            for (p, &(i, j)) in pairs.iter().enumerate() {
                if self.class_hvs[i].get(dim_idx) != self.class_hvs[j].get(dim_idx) {
                    separating[p].push(dim_idx as u32);
                }
            }
        }
        let mut cursor = vec![0usize; pairs.len()];
        let mut kept_count = vec![0u32; pairs.len()];
        let mut kept = vec![false; d];
        let mut chosen: Vec<u32> = Vec::with_capacity(d_out);
        while chosen.len() < d_out {
            let mut weakest: Option<usize> = None;
            for p in 0..pairs.len() {
                while cursor[p] < separating[p].len()
                    && kept[separating[p][cursor[p]] as usize]
                {
                    cursor[p] += 1;
                }
                if cursor[p] < separating[p].len()
                    && weakest.map_or(true, |w| kept_count[p] < kept_count[w])
                {
                    weakest = Some(p);
                }
            }
            let Some(p) = weakest else {
                break; // no remaining dimension separates any pair
            };
            let dim_idx = separating[p][cursor[p]] as usize;
            kept[dim_idx] = true;
            chosen.push(dim_idx as u32);
            for (q, &(i, j)) in pairs.iter().enumerate() {
                if self.class_hvs[i].get(dim_idx) != self.class_hvs[j].get(dim_idx) {
                    kept_count[q] += 1;
                }
            }
        }
        // Single-class models and fully separated remainders pad with the
        // lowest-index unkept dimensions.
        for dim_idx in 0..d {
            if chosen.len() == d_out {
                break;
            }
            if !kept[dim_idx] {
                kept[dim_idx] = true;
                chosen.push(dim_idx as u32);
            }
        }
        chosen.sort_unstable();
        let class_hvs: Vec<BinaryHv> = self
            .class_hvs
            .iter()
            .map(|hv| project_dims(hv, &chosen))
            .collect();
        Ok((HdcModel::new(class_hvs)?, chosen))
    }

    /// Accuracy on encoded samples with known labels, on a one-thread
    /// [`EpochEngine`].
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or are empty.
    #[must_use]
    pub fn accuracy(&self, queries: &[BinaryHv], labels: &[usize]) -> f64 {
        self.accuracy_threaded(queries, labels, 1)
    }

    /// [`EpochEngine::accuracy`] on a `threads`-worker engine. The
    /// correct-count sum is exact (integer) and the blocked predictions are
    /// identical to per-query classification, so the result is identical
    /// at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or are empty.
    #[must_use]
    pub fn accuracy_threaded(&self, queries: &[BinaryHv], labels: &[usize], threads: usize) -> f64 {
        EpochEngine::new(threads).accuracy(self, queries, labels)
    }
}

impl Classifier for HdcModel {
    fn dim(&self) -> Dim {
        self.dim
    }

    fn classify_into(&self, queries: &[BinaryHv], out: &mut [usize], block: usize) {
        hdc::kernels::argmax_dot_blocked_into(queries, &self.class_hvs, block, out);
    }
}

/// Projects a hypervector onto a dimension subset: output bit `j` is input
/// bit `dims[j]`. The companion to [`HdcModel::distill`] — queries encoded
/// at the full dimension are projected through the model's selection
/// before classification. [`BinaryHv::project_into`] is the in-place form.
///
/// # Panics
///
/// Panics if `dims` is empty, not strictly increasing (every selection
/// [`HdcModel::distill`] returns is), or any index is out of range.
#[must_use]
pub fn project_dims(hv: &BinaryHv, dims: &[u32]) -> BinaryHv {
    let mut out = BinaryHv::zeros(Dim::new(dims.len()));
    hv.project_into(dims, &mut out);
    out
}

/// A non-binary HDC classifier: real-valued class hypervectors with cosine
/// similarity (paper Sec. 3.1 remark: equivalent to a single-layer
/// perceptron).
///
/// # Examples
///
/// ```
/// use hdc::{BinaryHv, Dim, RealHv};
/// use lehdc::NonBinaryModel;
///
/// # fn main() -> Result<(), lehdc::LehdcError> {
/// let d = Dim::new(256);
/// let mut rng = testkit::Xoshiro256pp::seed_from_u64(2);
/// let proto = BinaryHv::random(d, &mut rng);
/// let other = BinaryHv::random(d, &mut rng);
/// let model = NonBinaryModel::new(vec![
///     RealHv::from_binary(&proto),
///     RealHv::from_binary(&other),
/// ])?;
/// assert_eq!(model.classify(&proto), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NonBinaryModel {
    class_hvs: Vec<RealHv>,
    dim: Dim,
}

impl NonBinaryModel {
    /// Creates a model from one real hypervector per class.
    ///
    /// # Errors
    ///
    /// Returns [`LehdcError::InvalidConfig`] if no class hypervectors are
    /// given or their dimensions disagree.
    pub fn new(class_hvs: Vec<RealHv>) -> Result<Self, LehdcError> {
        let first = class_hvs
            .first()
            .ok_or_else(|| LehdcError::InvalidConfig("model needs at least one class".into()))?;
        let dim = first.dim();
        if let Some(bad) = class_hvs.iter().find(|hv| hv.dim() != dim) {
            return Err(LehdcError::InvalidConfig(format!(
                "class hypervector dimensions disagree: {} vs {}",
                dim,
                bad.dim()
            )));
        }
        Ok(NonBinaryModel { class_hvs, dim })
    }

    /// The hypervector dimensionality `D`.
    #[must_use]
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// Number of classes `K`.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.class_hvs.len()
    }

    /// The class hypervectors in class order.
    #[must_use]
    pub fn class_hvs(&self) -> &[RealHv] {
        &self.class_hvs
    }

    /// Classifies by maximum cosine similarity.
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the model's.
    #[must_use]
    pub fn classify(&self, query: &BinaryHv) -> usize {
        let mut best = (f64::NEG_INFINITY, 0usize);
        for (k, c) in self.class_hvs.iter().enumerate() {
            let cos = c.cosine_binary(query);
            if cos > best.0 {
                best = (cos, k);
            }
        }
        best.1
    }

    /// Accuracy on encoded samples with known labels, on a one-thread
    /// [`EpochEngine`] (see [`EpochEngine::accuracy`] for any other).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or are empty.
    #[must_use]
    pub fn accuracy(&self, queries: &[BinaryHv], labels: &[usize]) -> f64 {
        EpochEngine::default().accuracy(self, queries, labels)
    }

    /// Binarizes into an [`HdcModel`] via `sgn` (paper Eq. 8 convention).
    ///
    /// # Errors
    ///
    /// Propagates [`LehdcError::InvalidConfig`] (cannot occur for a valid
    /// model).
    pub fn to_binary(&self) -> Result<HdcModel, LehdcError> {
        HdcModel::new(self.class_hvs.iter().map(RealHv::sign).collect())
    }
}

/// Each pool chunk runs the per-query cosine scan of
/// [`NonBinaryModel::classify`]; there is no block to tile.
impl Classifier for NonBinaryModel {
    fn dim(&self) -> Dim {
        self.dim
    }

    fn classify_into(&self, queries: &[BinaryHv], out: &mut [usize], _block: usize) {
        for (query, pred) in queries.iter().zip(out) {
            *pred = self.classify(query);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::Rng;
    use hdc::rng::rng_for;

    fn random_model(k: usize, d: usize) -> (HdcModel, Vec<BinaryHv>) {
        let mut rng = rng_for(3, 1);
        let hvs: Vec<BinaryHv> = (0..k)
            .map(|_| BinaryHv::random(Dim::new(d), &mut rng))
            .collect();
        (HdcModel::new(hvs.clone()).unwrap(), hvs)
    }

    #[test]
    fn distill_selects_margin_dims_deterministically() {
        let (model, hvs) = random_model(4, 500);
        let (small, sel) = model.distill(120).unwrap();
        assert_eq!(small.dim(), Dim::new(120));
        assert_eq!(sel.len(), 120);
        assert!(sel.windows(2).all(|w| w[0] < w[1]), "selection must be sorted");
        assert!(sel.iter().all(|&d| (d as usize) < 500));
        // The shrunken class rows are exact projections of the originals.
        for (k, hv) in hvs.iter().enumerate() {
            assert_eq!(small.class_hvs()[k], project_dims(hv, &sel));
        }
        // Deterministic across calls.
        let (again, sel2) = model.distill(120).unwrap();
        assert_eq!(sel, sel2);
        assert_eq!(small, again);
        // Every kept dimension separates at least one class pair when
        // enough separating dims exist (random hvs at D=500 always do).
        for &d in &sel {
            let d = d as usize;
            assert!(
                (0..4).any(|i| (i + 1..4).any(|j| hvs[i].get(d) != hvs[j].get(d))),
                "dim {d} separates no pair"
            );
        }
    }

    #[test]
    fn distill_full_width_is_identity() {
        let (model, _) = random_model(3, 130);
        let (same, sel) = model.distill(130).unwrap();
        assert_eq!(same, model);
        assert_eq!(sel, (0..130u32).collect::<Vec<_>>());
    }

    #[test]
    fn distill_validates_target_and_pads_single_class() {
        let (model, _) = random_model(2, 64);
        assert!(model.distill(0).is_err());
        assert!(model.distill(65).is_err());
        // A single-class model has no pairs: padding keeps the lowest dims.
        let mut rng = rng_for(4, 4);
        let one = HdcModel::new(vec![BinaryHv::random(Dim::new(96), &mut rng)]).unwrap();
        let (small, sel) = one.distill(10).unwrap();
        assert_eq!(sel, (0..10u32).collect::<Vec<_>>());
        assert_eq!(small.dim(), Dim::new(10));
    }

    #[test]
    fn distill_beats_prefix_truncation_on_weak_pairs() {
        // Two nearly identical classes (weak pair) whose few separating
        // dims all sit at the high end: prefix truncation throws them away,
        // distillation keeps them first.
        let d = Dim::new(256);
        let base = BinaryHv::from_fn(d, |i| i % 2 == 0);
        let mut near = base.clone();
        for i in 250..256 {
            near.flip(i);
        }
        let model = HdcModel::new(vec![base.clone(), near.clone()]).unwrap();
        let (small, sel) = model.distill(6).unwrap();
        assert_eq!(sel, vec![250, 251, 252, 253, 254, 255]);
        assert_ne!(small.class_hvs()[0], small.class_hvs()[1]);
        // Prefix truncation at the same width cannot tell the classes apart.
        let truncated = model.truncated(Dim::new(6));
        assert_eq!(truncated.class_hvs()[0], truncated.class_hvs()[1]);
    }

    #[test]
    fn construction_validates() {
        assert!(HdcModel::new(vec![]).is_err());
        let mut rng = rng_for(0, 0);
        let a = BinaryHv::random(Dim::new(64), &mut rng);
        let b = BinaryHv::random(Dim::new(65), &mut rng);
        assert!(HdcModel::new(vec![a, b]).is_err());
        assert!(NonBinaryModel::new(vec![]).is_err());
    }

    #[test]
    fn classify_recovers_exact_class_hvs() {
        let (model, hvs) = random_model(5, 1024);
        for (k, hv) in hvs.iter().enumerate() {
            assert_eq!(model.classify(hv), k);
        }
    }

    #[test]
    fn classify_tolerates_noise() {
        let (model, hvs) = random_model(4, 2048);
        let mut rng = rng_for(9, 9);
        for (k, hv) in hvs.iter().enumerate() {
            let mut noisy = hv.clone();
            for _ in 0..400 {
                // flip ~20% of bits
                noisy.flip(rng.random_range(0..2048usize));
            }
            assert_eq!(model.classify(&noisy), k);
        }
    }

    #[test]
    fn similarities_match_dot_products() {
        let (model, hvs) = random_model(3, 256);
        let sims = model.similarities(&hvs[1]);
        assert_eq!(sims[1], 256);
        assert_eq!(sims.len(), 3);
        assert!(sims[0] < 256 && sims[2] < 256);
    }

    #[test]
    fn accuracy_is_fraction_correct() {
        let (model, hvs) = random_model(2, 512);
        let acc = model.accuracy(&[hvs[0].clone(), hvs[1].clone()], &[0, 0]);
        assert!((acc - 0.5).abs() < 1e-12);
        assert_eq!(EpochEngine::default().classify_epoch(&model, &hvs), vec![0, 1]);
    }

    #[test]
    fn threaded_classification_matches_sequential() {
        let (model, _) = random_model(3, 512);
        let mut rng = rng_for(13, 4);
        let queries: Vec<BinaryHv> = (0..25)
            .map(|_| BinaryHv::random(Dim::new(512), &mut rng))
            .collect();
        let labels: Vec<usize> = (0..25).map(|i| i % 3).collect();
        let seq: Vec<usize> = queries.iter().map(|q| model.classify(q)).collect();
        let acc = model.accuracy(&queries, &labels);
        for threads in [2, 4, 7] {
            let engine = EpochEngine::new(threads);
            assert_eq!(engine.classify_epoch(&model, &queries), seq);
            assert_eq!(model.accuracy_threaded(&queries, &labels, threads), acc);
        }
    }

    #[test]
    fn margin_is_small_near_the_border_and_large_at_prototypes() {
        let (model, hvs) = random_model(2, 2048);
        // exact prototype → large margin
        let (class, margin) = model.classify_with_margin(&hvs[0]);
        assert_eq!(class, 0);
        assert!(margin > 0.5, "prototype margin {margin}");
        // a vector equidistant from both class hvs → tiny margin
        let mut border = hvs[0].clone();
        let mut flipped = 0;
        for i in 0..2048 {
            if hvs[0].get(i) != hvs[1].get(i) {
                // flip half of the disagreeing bits toward class 1
                if flipped % 2 == 0 {
                    border.flip(i);
                }
                flipped += 1;
            }
        }
        let (_, border_margin) = model.classify_with_margin(&border);
        assert!(
            border_margin < 0.01,
            "border margin {border_margin} should be near zero"
        );
    }

    #[test]
    fn single_class_margin_is_maximal() {
        let (model, hvs) = random_model(1, 64);
        assert_eq!(model.classify_with_margin(&hvs[0]), (0, 2.0));
    }

    #[test]
    fn truncated_model_still_classifies_truncated_queries() {
        let (model, hvs) = random_model(4, 4096);
        let small = model.truncated(Dim::new(1024));
        assert_eq!(small.dim(), Dim::new(1024));
        assert_eq!(small.n_classes(), 4);
        for (k, hv) in hvs.iter().enumerate() {
            let q = hv.truncated(Dim::new(1024));
            assert_eq!(small.classify(&q), k, "class {k} after truncation");
        }
    }

    #[test]
    fn nonbinary_matches_binary_when_weights_are_bipolar() {
        let (bin_model, hvs) = random_model(4, 512);
        let nb = NonBinaryModel::new(hvs.iter().map(RealHv::from_binary).collect()).unwrap();
        let mut rng = rng_for(11, 2);
        for _ in 0..20 {
            let q = BinaryHv::random(Dim::new(512), &mut rng);
            assert_eq!(nb.classify(&q), bin_model.classify(&q));
        }
        assert_eq!(nb.to_binary().unwrap(), bin_model);
        assert_eq!(nb.n_classes(), 4);
        assert_eq!(nb.dim(), Dim::new(512));
    }
}
