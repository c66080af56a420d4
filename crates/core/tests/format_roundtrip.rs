//! Property and fixture suite for the `LHDC` container format. Random
//! shapes and metadata lengths must round-trip bit-identically through the
//! writer, distilled or not. Files in the formats nothing writes any more —
//! the legacy magics and containers with packed sections — are pinned by
//! the fixtures in `tests/fixtures/`: each loads through the same
//! magic-dispatched entry points and equals the object its seed rebuilds,
//! and no truncation or single-byte corruption of one panics. Shrinking is
//! handled by the testkit harness, so a property failure minimizes to the
//! smallest offending shape automatically.

use hdc::rng::rng_for;
use hdc::{BinaryHv, Dim, RecordEncoder};
use hdc_datasets::MinMaxNormalizer;
use lehdc::format::unpack;
use lehdc::io::{
    read_bundle, read_encoded, read_model, write_bundle, write_encoded, write_model, ModelBundle,
};
use lehdc::{EncodedDataset, HdcModel, LehdcError};
use testkit::prelude::*;
use testkit::Xoshiro256pp;

// ---------------------------------------------------------------------------
// Fixtures: the objects are rebuilt from the seeds in tests/fixtures/README.md
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Kind {
    Model,
    Bundle,
    Corpus,
}

const FIXTURES: [(&str, Kind, &[u8]); 7] = [
    (
        "model_legacy",
        Kind::Model,
        include_bytes!("fixtures/model_legacy.lehdc"),
    ),
    (
        "model_packed",
        Kind::Model,
        include_bytes!("fixtures/model_packed.lehdc"),
    ),
    (
        "corpus_legacy",
        Kind::Corpus,
        include_bytes!("fixtures/corpus_legacy.lehdc"),
    ),
    (
        "corpus_packed",
        Kind::Corpus,
        include_bytes!("fixtures/corpus_packed.lehdc"),
    ),
    (
        "bundle_distilled_packed",
        Kind::Bundle,
        include_bytes!("fixtures/bundle_distilled_packed.lehdc"),
    ),
    (
        "smoke_legacy",
        Kind::Bundle,
        include_bytes!("fixtures/smoke_legacy.lehdc"),
    ),
    (
        "smoke_packed",
        Kind::Bundle,
        include_bytes!("fixtures/smoke_packed.lehdc"),
    ),
];

fn fixture(name: &str) -> &'static [u8] {
    FIXTURES.iter().find(|(n, _, _)| *n == name).unwrap().2
}

fn random_model(k: usize, d: usize, seed: u64) -> HdcModel {
    let mut rng = rng_for(seed, 0);
    HdcModel::new(
        (0..k)
            .map(|_| BinaryHv::random(Dim::new(d), &mut rng))
            .collect(),
    )
    .unwrap()
}

fn seeded_corpus() -> EncodedDataset {
    let mut rng = rng_for(8, 8);
    let hvs: Vec<BinaryHv> = (0..7)
        .map(|_| BinaryHv::random(Dim::new(130), &mut rng))
        .collect();
    EncodedDataset::from_parts(hvs, (0..7).map(|i| i % 3).collect(), 3).unwrap()
}

fn seeded_distilled_bundle() -> ModelBundle {
    let mins: Vec<f32> = (0..12).map(|i| i as f32 * 0.25 - 1.0).collect();
    let ranges: Vec<f32> = (0..12).map(|i| 0.5 + i as f32).collect();
    let parent = ModelBundle {
        model: random_model(3, 300, 6),
        encoder: RecordEncoder::builder(Dim::new(300), 12)
            .levels(8)
            .seed(5)
            .build()
            .unwrap(),
        normalizer: Some(MinMaxNormalizer::from_parts(mins, ranges).unwrap()),
        selection: None,
    };
    parent.distill(100).unwrap()
}

/// The 90 feature rows `scripts/check.sh` writes with `awk` (`%.4f`).
fn smoke_features() -> Vec<Vec<f32>> {
    (0..90)
        .map(|i| {
            let b = (i % 3) as f64 * 0.8;
            let j = ((i * 7919) % 100) as f64 / 1000.0;
            [b + j, b + 0.1 - j, 2.0 - b + j, b * 0.5 + j]
                .iter()
                .map(|v| format!("{v:.4}").parse().unwrap())
                .collect()
        })
        .collect()
}

fn load(kind: Kind, bytes: &[u8]) -> Result<(), LehdcError> {
    match kind {
        Kind::Model => read_model(bytes).map(drop),
        Kind::Bundle => read_bundle(bytes).map(drop),
        Kind::Corpus => read_encoded(bytes).map(drop),
    }
}

#[test]
fn fixture_models_and_corpora_equal_their_seeded_rebuild() {
    let model = random_model(4, 300, 7);
    assert_eq!(read_model(fixture("model_legacy")).unwrap(), model);
    assert_eq!(read_model(fixture("model_packed")).unwrap(), model);
    let corpus = seeded_corpus();
    for name in ["corpus_legacy", "corpus_packed"] {
        let loaded = read_encoded(fixture(name)).unwrap();
        assert_eq!(loaded.hvs(), corpus.hvs(), "{name}");
        assert_eq!(loaded.labels(), corpus.labels(), "{name}");
        assert_eq!(loaded.n_classes(), corpus.n_classes(), "{name}");
    }
}

#[test]
fn packed_distilled_bundle_equals_its_seeded_rebuild() {
    let want = seeded_distilled_bundle();
    let got = read_bundle(fixture("bundle_distilled_packed")).unwrap();
    assert_eq!(got.model, want.model);
    assert_eq!(got.selection, want.selection);
    assert_eq!(got.normalizer, want.normalizer);
    assert_eq!(got.encoder.seed(), want.encoder.seed());
    let rows: Vec<Vec<f32>> = (0..16)
        .map(|r| {
            (0..12)
                .map(|i| ((r * 7 + i) % 13) as f32 * 0.9 - 1.0)
                .collect()
        })
        .collect();
    assert_eq!(
        got.classify_all(&rows, 1).unwrap(),
        want.classify_all(&rows, 1).unwrap()
    );
}

#[test]
fn smoke_bundles_reproduce_the_committed_predictions() {
    let want: Vec<usize> = include_str!("fixtures/smoke_predictions.txt")
        .lines()
        .map(|l| l.parse().unwrap())
        .collect();
    let rows = smoke_features();
    for name in ["smoke_legacy", "smoke_packed"] {
        let bundle = read_bundle(fixture(name)).unwrap();
        assert_eq!(bundle.classify_all(&rows, 2).unwrap(), want, "{name}");
    }
}

#[test]
fn fixtures_rewrite_as_stored_containers() {
    // What `lehdc_cli convert` does: read any format, write the one format.
    let model = read_model(fixture("model_legacy")).unwrap();
    let mut buf = Vec::new();
    write_model(&model, &mut buf).unwrap();
    assert_eq!(buf[9], 0, "compression byte must be 0 (stored)");
    assert_eq!(read_model(buf.as_slice()).unwrap(), model);

    let corpus = read_encoded(fixture("corpus_packed")).unwrap();
    let mut buf = Vec::new();
    write_encoded(&corpus, &mut buf).unwrap();
    assert_eq!(buf[9], 0, "compression byte must be 0 (stored)");
    assert_eq!(read_encoded(buf.as_slice()).unwrap().hvs(), corpus.hvs());

    for name in ["bundle_distilled_packed", "smoke_legacy", "smoke_packed"] {
        let bundle = read_bundle(fixture(name)).unwrap();
        let mut buf = Vec::new();
        write_bundle(&bundle, &mut buf).unwrap();
        assert_eq!(buf[9], 0, "{name}: compression byte must be 0 (stored)");
        let back = read_bundle(buf.as_slice()).unwrap();
        assert_eq!(back.model, bundle.model, "{name}");
        assert_eq!(back.selection, bundle.selection, "{name}");
        assert_eq!(back.normalizer, bundle.normalizer, "{name}");
    }
}

#[test]
fn every_truncation_of_a_fixture_is_a_typed_error() {
    for (name, kind, bytes) in FIXTURES {
        load(kind, bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        for cut in 0..bytes.len() {
            match load(kind, &bytes[..cut]) {
                Err(LehdcError::ModelFormat(_)) => {}
                other => panic!("{name} cut at {cut}: expected ModelFormat, got {other:?}"),
            }
        }
    }
}

#[test]
fn no_single_byte_corruption_of_a_fixture_panics() {
    // A flipped word-plane bit still loads (as a different model); every
    // other outcome must be a returned error, never a panic or an abort.
    for (_, kind, bytes) in FIXTURES {
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0xff] {
                let mut bad = bytes.to_vec();
                bad[i] ^= flip;
                let _ = load(kind, &bad);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Properties of the writer
// ---------------------------------------------------------------------------

/// A random bundle: dimension, feature count, level count, normalizer
/// presence, and class count all vary, which in turn varies the metadata
/// blob length and the aux-section layout.
fn arb_bundle() -> impl Strategy<Value = (ModelBundle, u64)> {
    (
        2usize..5,    // classes
        65usize..320, // encoder dim (spans word boundaries)
        1usize..9,    // features
        2usize..17,   // levels
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(k, d, n_features, levels, with_norm, seed)| {
            let dim = Dim::new(d);
            let encoder = RecordEncoder::builder(dim, n_features)
                .levels(levels)
                .seed(seed)
                .build()
                .unwrap();
            let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xD15);
            let model = HdcModel::new(
                (0..k).map(|_| BinaryHv::random(dim, &mut rng)).collect(),
            )
            .unwrap();
            let normalizer = with_norm.then(|| {
                let mins: Vec<f32> = (0..n_features).map(|i| i as f32 * 0.37 - 1.0).collect();
                let ranges: Vec<f32> = (0..n_features).map(|i| 0.5 + i as f32).collect();
                MinMaxNormalizer::from_parts(mins, ranges).unwrap()
            });
            (
                ModelBundle {
                    model,
                    encoder,
                    normalizer,
                    selection: None,
                },
                seed,
            )
        })
}

fn random_rows(bundle: &ModelBundle, n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = rng_for(seed, 3);
    use testkit::Rng;
    (0..n)
        .map(|_| {
            (0..bundle.n_features())
                .map(|_| (rng.random::<u64>() % 1000) as f32 / 500.0 - 1.0)
                .collect()
        })
        .collect()
}

proptest! {
    /// save → load → save is bit-identical at the byte level AND at the
    /// prediction level.
    #[test]
    fn bundle_roundtrips_bit_identically(pair in arb_bundle()) {
        let (bundle, seed) = pair;
        let rows = random_rows(&bundle, 8, seed);
        let want: Vec<usize> = rows.iter().map(|r| bundle.classify(r).unwrap()).collect();
        let mut first = Vec::new();
        write_bundle(&bundle, &mut first).unwrap();
        let loaded = read_bundle(first.as_slice()).unwrap();
        let got: Vec<usize> = rows.iter().map(|r| loaded.classify(r).unwrap()).collect();
        prop_assert_eq!(&got, &want, "predictions drifted");
        // A second save of the loaded bundle reproduces the same bytes:
        // nothing (seed, normalizer f32s, word planes) is lossy.
        let mut second = Vec::new();
        write_bundle(&loaded, &mut second).unwrap();
        prop_assert_eq!(&first, &second, "bytes drifted");
    }

    /// Distillation survives persistence: a distilled bundle's predictions
    /// are identical before and after a save/load cycle.
    #[test]
    fn distilled_bundle_roundtrips(pair in arb_bundle(), frac in 2usize..5) {
        let (bundle, seed) = pair;
        let d_out = (bundle.model.dim().get() / frac).max(1);
        let distilled = bundle.distill(d_out).unwrap();
        let rows = random_rows(&bundle, 8, seed);
        let want: Vec<usize> =
            rows.iter().map(|r| distilled.classify(r).unwrap()).collect();
        let mut buf = Vec::new();
        write_bundle(&distilled, &mut buf).unwrap();
        let loaded = read_bundle(buf.as_slice()).unwrap();
        prop_assert_eq!(loaded.selection.as_ref(), distilled.selection.as_ref());
        let got: Vec<usize> =
            rows.iter().map(|r| loaded.classify(r).unwrap()).collect();
        prop_assert_eq!(&got, &want);
    }

    /// Truncating a container-format model or bundle anywhere is a typed
    /// error or (cut == 0) a faithful reload — never a panic.
    #[test]
    fn truncation_never_panics(pair in arb_bundle(), cut in 0usize..256) {
        let (bundle, _) = pair;
        let mut buf = Vec::new();
        write_bundle(&bundle, &mut buf).unwrap();
        let cut = cut.min(buf.len());
        if let Ok(b) = read_bundle(&buf[..buf.len() - cut]) {
            prop_assert_eq!(cut, 0);
            prop_assert_eq!(b.model, bundle.model);
        }
        let mut buf = Vec::new();
        write_model(&bundle.model, &mut buf).unwrap();
        let cut = cut.min(buf.len());
        if let Ok(m) = read_model(&buf[..buf.len() - cut]) {
            prop_assert_eq!(cut, 0);
            prop_assert_eq!(m, bundle.model);
        }
    }

    /// Encoded corpora round-trip, hypervectors and labels bit-for-bit.
    #[test]
    fn encoded_corpus_roundtrips(n in 1usize..10, d in 65usize..200, seed in any::<u64>()) {
        let dim = Dim::new(d);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let hvs: Vec<BinaryHv> = (0..n).map(|_| BinaryHv::random(dim, &mut rng)).collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let corpus = EncodedDataset::from_parts(hvs, labels, 3).unwrap();
        let mut buf = Vec::new();
        write_encoded(&corpus, &mut buf).unwrap();
        let back = read_encoded(buf.as_slice()).unwrap();
        prop_assert_eq!(back.hvs(), corpus.hvs());
        prop_assert_eq!(back.labels(), corpus.labels());
        prop_assert_eq!(back.n_classes(), corpus.n_classes());
    }

    /// The section decoder is total: arbitrary bytes, and a real packed
    /// section (the distilled fixture's stride-4 aux) with one byte
    /// corrupted, decode or fail — never panic, never allocate past the cap.
    #[test]
    fn unpack_never_panics_on_arbitrary_or_corrupted_bytes(
        data in collection::vec(any::<u8>(), 0..512),
        flip_at in 0usize..4096,
        flip_bits in 1usize..256,
    ) {
        let _ = unpack(&data, 1 << 16);
        let file = fixture("bundle_distilled_packed");
        let meta_len = u32::from_le_bytes(file[12..16].try_into().unwrap()) as usize;
        let aux_len = u64::from_le_bytes(file[16..24].try_into().unwrap()) as usize;
        let aux = &file[32 + meta_len..32 + meta_len + aux_len];
        prop_assert!(unpack(aux, 1 << 16).is_ok());
        let mut bad = aux.to_vec();
        bad[flip_at % aux_len] ^= flip_bits as u8;
        let _ = unpack(&bad, 1 << 16);
    }
}
