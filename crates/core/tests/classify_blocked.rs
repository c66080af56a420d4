//! Tie-break determinism of query-blocked, threaded, tier-dispatched
//! classification.
//!
//! The claim under test: batch predictions are **bit-identical**
//! across kernel tiers (scalar, avx2 and avx512 — check.sh runs this suite
//! under `LEHDC_KERNEL=scalar`, `LEHDC_KERNEL=avx2` and, for the highest
//! tier, with it unset), query block sizes {1, 7, 64, full}, and thread counts
//! {1, 4}. The anchor is an explicitly-scalar per-query argmax reference
//! computed with `hamming_words_scalar`, so whichever tier this process
//! dispatches to is diffed against the scalar reference, and the argmax
//! tie-break (lowest class index wins) is pinned independently of blocking.

use hdc::kernels;
use hdc::{BinaryHv, Dim, Encode, RecordEncoder};
use lehdc::io::ModelBundle;
use lehdc::{EpochEngine, HdcModel};
use testkit::{Rng, Xoshiro256pp};

const BLOCKS: &[usize] = &[1, 7, 64, usize::MAX];
const THREADS: &[usize] = &[1, 4];

/// Per-query scalar-tier argmax: first class with minimum Hamming distance.
fn scalar_reference(model: &HdcModel, queries: &[BinaryHv]) -> Vec<usize> {
    queries
        .iter()
        .map(|q| {
            let mut best = (usize::MAX, 0usize);
            for (k, c) in model.class_hvs().iter().enumerate() {
                let h = kernels::hamming_words_scalar(q.as_words(), c.as_words());
                if h < best.0 {
                    best = (h, k);
                }
            }
            best.1
        })
        .collect()
}

fn random_fixture(k: usize, d: usize, n_queries: usize, seed: u64) -> (HdcModel, Vec<BinaryHv>) {
    let dim = Dim::new(d);
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let class_hvs: Vec<BinaryHv> = (0..k).map(|_| BinaryHv::random(dim, &mut rng)).collect();
    let queries: Vec<BinaryHv> = (0..n_queries)
        .map(|_| BinaryHv::random(dim, &mut rng))
        .collect();
    (HdcModel::new(class_hvs).unwrap(), queries)
}

#[test]
fn blocked_classification_is_invariant_across_blocks_threads_and_tier() {
    // d=130 straddles the word boundary; d=10_000 is the paper's width.
    for (k, d, n) in [(10usize, 130usize, 100usize), (10, 10_000, 70)] {
        let (model, queries) = random_fixture(k, d, n, 0xC0FFEE + d as u64);
        let expect = scalar_reference(&model, &queries);
        assert_eq!(
            EpochEngine::default().classify_epoch(&model, &queries),
            expect,
            "classify_epoch d={d}"
        );
        for &block in BLOCKS {
            for &threads in THREADS {
                assert_eq!(
                    model.classify_all_blocked(&queries, block, threads),
                    expect,
                    "d={d} block={block} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn engineered_ties_resolve_to_lowest_class_at_every_block_size() {
    // Duplicate class hypervectors guarantee exact ties; every query that
    // lands on the duplicated prototype must report the lower index, no
    // matter how the batch is blocked or chunked.
    let dim = Dim::new(320);
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    let proto = BinaryHv::random(dim, &mut rng);
    let other = BinaryHv::random(dim, &mut rng);
    // class 1 and class 3 are identical copies of `proto`
    let model = HdcModel::new(vec![
        other.clone(),
        proto.clone(),
        BinaryHv::random(dim, &mut rng),
        proto.clone(),
    ])
    .unwrap();
    // queries near `proto` (a few flips keep it the unique nearest up to the
    // duplicate pair) plus the exact prototype
    let mut queries = vec![proto.clone()];
    for i in 0..40 {
        let mut q = proto.clone();
        for flip in 0..(i % 5) {
            q.flip((i * 13 + flip * 29) % 320);
        }
        queries.push(q);
    }
    let expect = scalar_reference(&model, &queries);
    assert!(
        expect.iter().all(|&p| p == 1),
        "every near-proto query ties classes 1 and 3 and must pick 1"
    );
    for &block in BLOCKS {
        for &threads in THREADS {
            assert_eq!(
                model.classify_all_blocked(&queries, block, threads),
                expect,
                "block={block} threads={threads}"
            );
        }
    }
}

#[test]
fn accuracy_matches_blocked_predictions_at_any_thread_count() {
    let (model, queries) = random_fixture(5, 770, 83, 42);
    let preds = scalar_reference(&model, &queries);
    let mut rng = Xoshiro256pp::seed_from_u64(43);
    let labels: Vec<usize> = (0..queries.len()).map(|_| rng.random_range(0..5usize)).collect();
    let expect = preds.iter().zip(&labels).filter(|(p, l)| p == l).count() as f64
        / queries.len() as f64;
    for &threads in THREADS {
        assert_eq!(
            model.accuracy_threaded(&queries, &labels, threads),
            expect,
            "threads={threads}"
        );
    }
    assert_eq!(model.accuracy(&queries, &labels), expect);
}

#[test]
fn recorded_classification_matches_blocked_path() {
    // End to end through a bundle, with a live recorder: the recording
    // branch must leave the predictions equal to the unrecorded path and to
    // the scalar reference, and must record both spans.
    let (n_features, d) = (6, 257);
    let mut rng = Xoshiro256pp::seed_from_u64(99);
    let encoder = RecordEncoder::builder(Dim::new(d), n_features).seed(4).build().unwrap();
    let class_hvs = (0..6).map(|_| BinaryHv::random(Dim::new(d), &mut rng)).collect();
    let bundle = ModelBundle {
        model: HdcModel::new(class_hvs).unwrap(),
        encoder,
        normalizer: None,
        selection: None,
    };
    let rows: Vec<Vec<f32>> = (0..50)
        .map(|_| (0..n_features).map(|_| rng.random::<f32>()).collect())
        .collect();
    let queries: Vec<BinaryHv> = rows.iter().map(|r| bundle.encoder.encode(r).unwrap()).collect();
    let expect = scalar_reference(&bundle.model, &queries);

    let rec = obs::Recorder::builder()
        .jsonl_writer(Box::new(std::io::sink()))
        .build();
    let engine = EpochEngine::new(2).with_recorder(rec.clone());
    assert_eq!(bundle.classify_all_recorded(&rows, &engine).unwrap(), expect);
    assert_eq!(bundle.classify_all(&rows, 2).unwrap(), expect);
    let names: Vec<String> = rec.metrics().into_iter().map(|(n, _)| n).collect();
    for expected in ["encode/ns", "classify/corpus_ns"] {
        assert!(names.iter().any(|n| n == expected), "missing {expected} in {names:?}");
    }
}

#[test]
fn empty_query_set_classifies_to_empty() {
    let (model, _) = random_fixture(3, 64, 0, 5);
    assert_eq!(EpochEngine::default().classify_epoch(&model, &[]), Vec::<usize>::new());
    assert_eq!(model.classify_all_blocked(&[], 7, 4), Vec::<usize>::new());
}

#[test]
#[should_panic(expected = "query dimension must match")]
fn blocked_classification_rejects_mismatched_dims() {
    let (model, _) = random_fixture(3, 64, 0, 6);
    let mut rng = Xoshiro256pp::seed_from_u64(8);
    let wrong = BinaryHv::random(Dim::new(65), &mut rng);
    let _ = model.classify_all_blocked(&[wrong], 4, 1);
}
