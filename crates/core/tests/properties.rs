//! Property-based tests for model invariants and persistence.

use hdc::{BinaryHv, Dim};
use lehdc::io::{read_model, write_model};
use lehdc::{project_dims, EncodedDataset, HdcModel};
use testkit::prelude::*;
use testkit::Xoshiro256pp;

fn arb_model() -> impl Strategy<Value = HdcModel> {
    (1usize..6, 1usize..200, any::<u64>()).prop_map(|(k, d, seed)| {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        HdcModel::new(
            (0..k)
                .map(|_| BinaryHv::random(Dim::new(d), &mut rng))
                .collect(),
        )
        .unwrap()
    })
}

proptest! {
    #[test]
    fn model_io_roundtrips(model in arb_model()) {
        let mut buf = Vec::new();
        write_model(&model, &mut buf).unwrap();
        let restored = read_model(buf.as_slice()).unwrap();
        prop_assert_eq!(restored, model);
    }

    #[test]
    fn model_file_size_is_exactly_header_plus_payload(model in arb_model()) {
        // The word planes sit flush at the end of the file, starting on a
        // 64-byte boundary, and the header's planes length field accounts
        // for every plane byte.
        let mut buf = Vec::new();
        write_model(&model, &mut buf).unwrap();
        let planes = model.n_classes() * model.dim().words() * 8;
        prop_assert!(buf.len() >= planes);
        prop_assert_eq!((buf.len() - planes) % 64, 0);
        let planes_len = u64::from_le_bytes(buf[24..32].try_into().unwrap());
        prop_assert_eq!(planes_len as usize, planes);
    }

    #[test]
    fn truncating_a_model_file_never_panics(model in arb_model(), cut in 0usize..64) {
        let mut buf = Vec::new();
        write_model(&model, &mut buf).unwrap();
        let cut = cut.min(buf.len());
        let truncated = &buf[..buf.len() - cut];
        // must either reproduce the model (cut == 0) or error — never panic
        if let Ok(m) = read_model(truncated) {
            prop_assert_eq!(m, model);
        }
    }

    #[test]
    fn classify_returns_a_valid_class(model in arb_model(), seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let query = BinaryHv::random(model.dim(), &mut rng);
        let class = model.classify(&query);
        prop_assert!(class < model.n_classes());
        // classify matches the similarity argmax
        let sims = model.similarities(&query);
        let max = sims.iter().copied().max().unwrap();
        prop_assert_eq!(sims[class], max);
    }

    #[test]
    fn classifying_a_class_hypervector_recovers_a_maximal_class(model in arb_model()) {
        for (k, hv) in model.class_hvs().iter().enumerate() {
            let predicted = model.classify(hv);
            // duplicated class hypervectors may shadow each other, but the
            // similarity of the predicted class must equal the perfect score
            let sims = model.similarities(hv);
            prop_assert_eq!(sims[predicted], model.dim().get() as i64, "class {}", k);
        }
    }

    #[test]
    fn encoded_dataset_batch_is_faithful(seed in any::<u64>(), n in 1usize..8) {
        let d = Dim::new(96);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let hvs: Vec<BinaryHv> = (0..n).map(|_| BinaryHv::random(d, &mut rng)).collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let encoded = EncodedDataset::from_parts(hvs.clone(), labels.clone(), 2).unwrap();
        let indices: Vec<usize> = (0..n).rev().collect();
        let (matrix, batch_labels) = encoded.batch(&indices);
        prop_assert_eq!(matrix.rows(), n);
        for (row, &i) in indices.iter().enumerate() {
            prop_assert_eq!(batch_labels[row], labels[i]);
            for j in 0..96 {
                prop_assert_eq!(matrix.get(row, j), hvs[i].bipolar(j) as f32);
            }
        }
    }

    #[test]
    fn project_dims_matches_the_per_bit_reference(
        d_idx in 0usize..6,
        keep_per_mille in 1u32..=1000,
        seed in any::<u64>(),
    ) {
        let d = [1usize, 63, 64, 65, 2000, 10_000][d_idx];
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let hv = BinaryHv::random(Dim::new(d), &mut rng);
        // a random strictly increasing selection, from one dim to all of them
        let mut dims: Vec<u32> = (0..d as u32)
            .filter(|_| rng.random_range(0u32..1000) < keep_per_mille)
            .collect();
        if dims.is_empty() {
            dims.push(rng.random_range(0..d as u32));
        }
        let per_bit = BinaryHv::from_fn(Dim::new(dims.len()), |j| hv.get(dims[j] as usize));
        prop_assert_eq!(project_dims(&hv, &dims), per_bit);
    }
}
