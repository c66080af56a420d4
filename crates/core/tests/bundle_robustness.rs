//! Regression suite for bundle loading: a truncated, corrupted, or padded
//! bundle must come back as a typed [`LehdcError`] with path context —
//! never a panic — through the one `load_bundle` code path the CLI and
//! the serving daemon share. The `LHDC` container this code writes and
//! the two formats earlier versions wrote (the legacy `LEHDCBDL` layout
//! and containers with packed sections, pinned by fixtures) all go
//! through the same sweep.

use std::path::Path;

use hdc::rng::rng_for;
use hdc::{BinaryHv, Dim, RecordEncoder};
use hdc_datasets::MinMaxNormalizer;
use lehdc::format::{meta_f32, write_container, write_varint, Artifact, MetaWriter};
use lehdc::io::{load_bundle, read_encoded, save_bundle, write_bundle, ModelBundle};
use lehdc::{HdcModel, LehdcError};

const LEGACY_BUNDLE: &[u8] = include_bytes!("fixtures/smoke_legacy.lehdc");
const PACKED_BUNDLE: &[u8] = include_bytes!("fixtures/smoke_packed.lehdc");

fn test_bundle() -> ModelBundle {
    let dim = Dim::new(256);
    let encoder = RecordEncoder::builder(dim, 6)
        .levels(8)
        .seed(41)
        .build()
        .unwrap();
    let mut rng = rng_for(41, 1);
    let model = HdcModel::new((0..4).map(|_| BinaryHv::random(dim, &mut rng)).collect()).unwrap();
    let normalizer =
        MinMaxNormalizer::from_parts(vec![0.0; 6], vec![1.0; 6]).unwrap();
    ModelBundle {
        model,
        encoder,
        normalizer: Some(normalizer),
        selection: None,
    }
}

fn bundle_bytes(bundle: &ModelBundle) -> Vec<u8> {
    let mut buf = Vec::new();
    write_bundle(bundle, &mut buf).unwrap();
    buf
}

/// One bundle in every format the loader reads.
fn bundle_files() -> [(&'static str, Vec<u8>); 3] {
    [
        ("container", bundle_bytes(&test_bundle())),
        ("legacy", LEGACY_BUNDLE.to_vec()),
        ("packed", PACKED_BUNDLE.to_vec()),
    ]
}

fn write_temp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("lehdc_bundle_robustness");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, bytes).unwrap();
    path
}

#[test]
fn valid_bundle_loads_and_classifies() {
    let bundle = test_bundle();
    let dir = std::env::temp_dir().join("lehdc_bundle_robustness");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("valid.lehdc");
    save_bundle(&bundle, &path).unwrap();
    let loaded = load_bundle(&path).unwrap();
    let row: Vec<f32> = (0..6).map(|i| i as f32 / 6.0).collect();
    assert_eq!(
        loaded.classify(&row).unwrap(),
        bundle.classify(&row).unwrap()
    );
}

#[test]
fn missing_file_names_the_path() {
    let err = load_bundle(Path::new("/nonexistent/dir/model.lehdc")).unwrap_err();
    match err {
        LehdcError::ModelFormat(msg) => {
            assert!(msg.contains("/nonexistent/dir/model.lehdc"), "{msg}");
            assert!(msg.contains("cannot open"), "{msg}");
        }
        other => panic!("expected ModelFormat, got {other:?}"),
    }
}

#[test]
fn truncation_at_every_prefix_is_a_typed_error() {
    // Cutting the bundle anywhere — header, metadata, aux sections, packed
    // payload — must yield a typed error that names the file, in every
    // on-disk format. This is the "no panic on truncated bundles" contract.
    for (tag, bytes) in bundle_files() {
        // Dense sweep over the header region, sparse over the payload.
        let cuts: Vec<usize> = (0..64.min(bytes.len()))
            .chain((64..bytes.len()).step_by(97))
            .collect();
        for cut in cuts {
            let path = write_temp("truncated.lehdc", &bytes[..cut]);
            match load_bundle(&path) {
                Err(LehdcError::ModelFormat(msg)) => {
                    assert!(msg.contains("truncated.lehdc"), "{tag} cut={cut}: {msg}")
                }
                Err(other) => {
                    panic!("{tag} cut={cut}: expected ModelFormat, got {other:?}")
                }
                Ok(_) => panic!("{tag} cut={cut}: truncated bundle must not load"),
            }
        }
    }
}

#[test]
fn trailing_garbage_is_rejected_in_every_format() {
    for (tag, mut bytes) in bundle_files() {
        bytes.extend_from_slice(b"junk");
        let path = write_temp("trailing.lehdc", &bytes);
        match load_bundle(&path) {
            Err(LehdcError::ModelFormat(msg)) => {
                assert!(msg.contains("trailing"), "{tag}: {msg}")
            }
            other => panic!("{tag}: expected trailing-bytes error, got {other:?}"),
        }
    }
}

#[test]
fn corrupted_level_count_is_rejected_before_codebook_work() {
    // The legacy layout has n_levels at a fixed offset; flipping it to an
    // absurd value must be caught by validation, not by a panic (or an
    // attempted multi-terabyte allocation) inside item-memory construction.
    let mut bytes = LEGACY_BUNDLE.to_vec();
    // n_levels lives after magic(8) + version(4) + dim(8) + n_features(8).
    let off = 8 + 4 + 8 + 8;
    bytes[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let path = write_temp("badlevels.lehdc", &bytes);
    match load_bundle(&path) {
        Err(LehdcError::ModelFormat(msg)) => assert!(msg.contains("level"), "{msg}"),
        other => panic!("expected level-count error, got {other:?}"),
    }
    // L=1 (too coarse to quantize) must also be caught by validation.
    let mut bytes = LEGACY_BUNDLE.to_vec();
    bytes[off..off + 8].copy_from_slice(&1u64.to_le_bytes());
    let path = write_temp("onelevel.lehdc", &bytes);
    assert!(matches!(
        load_bundle(&path),
        Err(LehdcError::ModelFormat(_))
    ));
}

#[test]
fn model_file_passed_as_bundle_is_a_typed_error() {
    let bundle = test_bundle();
    // Container model: same magic as a container bundle, so the artifact
    // byte is what routes the rejection.
    let mut bytes = Vec::new();
    lehdc::io::write_model(&bundle.model, &mut bytes).unwrap();
    let path = write_temp("notabundle.lehdc", &bytes);
    match load_bundle(&path) {
        Err(LehdcError::ModelFormat(msg)) => {
            assert!(msg.contains("not a bundle"), "{msg}");
            assert!(msg.contains("notabundle.lehdc"), "{msg}");
        }
        other => panic!("expected artifact-mismatch error, got {other:?}"),
    }
    // Legacy model: distinct 8-byte magic, rejected at the magic check.
    let path = write_temp(
        "notabundle_legacy.lehdc",
        include_bytes!("fixtures/model_legacy.lehdc"),
    );
    match load_bundle(&path) {
        Err(LehdcError::ModelFormat(msg)) => {
            assert!(msg.contains("magic"), "{msg}");
            assert!(msg.contains("notabundle_legacy.lehdc"), "{msg}");
        }
        other => panic!("expected bad-magic error, got {other:?}"),
    }
}

#[test]
fn batch_classify_matches_serial_and_reports_bad_rows() {
    let bundle = test_bundle();
    use testkit::Rng;
    let mut rng = rng_for(7, 7);
    let mut random_rows = |n: usize| -> Vec<Vec<f32>> {
        (0..n)
            .map(|_| {
                (0..6)
                    .map(|_| (rng.random::<u64>() % 1000) as f32 / 1000.0)
                    .collect()
            })
            .collect()
    };
    let rows = random_rows(53);
    let serial: Vec<usize> = rows.iter().map(|r| bundle.classify(r).unwrap()).collect();
    for threads in [1, 2, 4] {
        assert_eq!(bundle.classify_all(&rows, threads).unwrap(), serial);
    }

    // More rows than one window of the batch path, full and distilled:
    // the windows splice in row order, and a bad row is named by its index
    // in the whole batch.
    let many = random_rows(600);
    for b in [bundle.clone(), bundle.distill(100).unwrap()] {
        let serial: Vec<usize> = many.iter().map(|r| b.classify(r).unwrap()).collect();
        for threads in [1, 2] {
            assert_eq!(b.classify_all(&many, threads).unwrap(), serial);
        }
        let mut bad = many.clone();
        bad[517][3] = f32::NAN;
        let err = b.classify_all(&bad, 2).unwrap_err().to_string();
        assert!(err.contains("row 517: feature 3 is not finite"), "{err}");
    }

    let mut bad = rows;
    bad[17] = vec![0.5; 5]; // wrong feature count mid-batch
    match bundle.classify_all(&bad, 2) {
        Err(LehdcError::InvalidConfig(msg)) => {
            assert!(msg.contains("row 17"), "{msg}");
            assert!(msg.contains("expected 6"), "{msg}");
        }
        other => panic!("expected row-indexed error, got {other:?}"),
    }
}

/// A header, then zero padding up to `len`: the lengths it claims are far
/// beyond the bytes that follow.
fn crafted(header: &[&[u8]], len: usize) -> Vec<u8> {
    let mut file = header.concat();
    file.resize(len, 0);
    file
}

#[test]
fn crafted_headers_fail_fast_without_huge_allocations() {
    // Each of these once aborted the process (or the daemon's SWAP) on an
    // allocation sized from the header, or spent seconds and gigabytes
    // before failing. Memory must follow the bytes actually in the file.
    let stored_huge_payload = crafted(
        &[
            b"LHDC",
            &1u32.to_le_bytes(),
            &[2, 0, 0, 0], // bundle, stored sections
            &0u32.to_le_bytes(),
            &0u64.to_le_bytes(),
            &((1u64 << 37) - 64).to_le_bytes(), // a 128 GiB payload
        ],
        64,
    );
    let raw_2gib = [0x80, 0x80, 0x80, 0x80, 0x08]; // varint 2^31
    let packed_meta = [&raw_2gib[..], &[0x01], &raw_2gib.repeat(8)].concat();
    let packed_huge_meta = crafted(
        &[
            b"LHDC",
            &1u32.to_le_bytes(),
            &[2, 1, 0, 0], // bundle, packed sections
            &(packed_meta.len() as u32).to_le_bytes(),
            &0u64.to_le_bytes(),
            &0u64.to_le_bytes(),
            &packed_meta, // 2 GiB of zero bits in every plane
        ],
        128,
    );
    for (name, bytes, want) in [
        (
            "stored_huge_payload.lehdc",
            &stored_huge_payload,
            "truncated",
        ),
        ("packed_huge_meta.lehdc", &packed_huge_meta, "raw bytes"),
    ] {
        let path = write_temp(name, bytes);
        match load_bundle(&path) {
            Err(LehdcError::ModelFormat(msg)) => assert!(msg.contains(want), "{name}: {msg}"),
            other => panic!("{name}: expected ModelFormat, got {other:?}"),
        }
    }

    let legacy_huge_corpus = crafted(
        &[
            b"LEHDCENC",
            &1u32.to_le_bytes(),
            &64u64.to_le_bytes(),            // D
            &2u64.to_le_bytes(),             // classes
            &1_000_000_000u64.to_le_bytes(), // samples
        ],
        36,
    );
    match read_encoded(legacy_huge_corpus.as_slice()) {
        Err(LehdcError::ModelFormat(msg)) => assert!(msg.contains("truncated"), "{msg}"),
        other => panic!("expected ModelFormat, got {other:?}"),
    }
}

/// A well-formed stored bundle of two all-zero class hypervectors of
/// dimension `dim`, whose metadata claims an encoder of `encoder_dim` ×
/// `features` × `levels`, distilled to the first `dim` dimensions when the
/// two dimensions differ. Nothing in the payload backs the encoder shape.
fn crafted_bundle(dim: u64, encoder_dim: u64, features: u64, levels: u64) -> Vec<u8> {
    let distilled = dim != encoder_dim;
    let mut meta = MetaWriter::new();
    meta.u64("dim", dim)
        .u64("classes", 2)
        .u64("encoder_dim", encoder_dim)
        .u64("features", features)
        .u64("levels", levels)
        .u64("seed", 1);
    meta_f32(&mut meta, "vmin", 0.0);
    meta_f32(&mut meta, "vmax", 1.0);
    meta.bool("normalizer", false).bool("distilled", distilled);
    let mut aux = Vec::new();
    write_varint(&mut aux, if distilled { dim } else { 0 });
    if distilled {
        for i in 0..dim {
            write_varint(&mut aux, u64::from(i > 0));
        }
    }
    let plane = vec![0u64; dim.div_ceil(64) as usize];
    let mut file = Vec::new();
    write_container(
        &mut file,
        Artifact::Bundle,
        &meta.finish(),
        &aux,
        &[&plane, &plane],
    )
    .unwrap();
    file
}

/// Small bundles whose encoder shape would make the loader regenerate
/// gigabytes of item memory, or that `LevelMemory` cannot build.
fn oversized_encoder_bundles() -> [(&'static str, Vec<u8>, &'static str); 4] {
    [
        // N = 10^8 position hypervectors at D = 256: 3.2 GB.
        (
            "huge_features.lehdc",
            crafted_bundle(256, 256, 100_000_000, 2),
            "item memory",
        ),
        // A distilled D = 64 model of an encoder D = 10^9: an 8 GB permutation.
        (
            "huge_encoder_dim.lehdc",
            crafted_bundle(64, 1_000_000_000, 8, 2),
            "item memory",
        ),
        // L = 2^16 level hypervectors at D = 2^17: 1 GiB.
        (
            "huge_levels.lehdc",
            crafted_bundle(1 << 17, 1 << 17, 8, 1 << 16),
            "item memory",
        ),
        // L − 1 > D/2: too few dimensions to flip between levels.
        (
            "too_many_levels.lehdc",
            crafted_bundle(256, 256, 8, 130),
            "level count",
        ),
    ]
}

#[test]
fn crafted_encoder_shapes_fail_fast_without_huge_allocations() {
    let bundles = oversized_encoder_bundles();
    for (name, bytes, _) in &bundles[..3] {
        assert!(bytes.len() < 34 * 1024, "{name} is {} bytes", bytes.len());
    }
    for (name, bytes, want) in bundles {
        let path = write_temp(name, &bytes);
        match load_bundle(&path) {
            Err(LehdcError::ModelFormat(msg)) => assert!(msg.contains(want), "{name}: {msg}"),
            other => panic!("{name}: expected ModelFormat, got {other:?}"),
        }
    }
    // The largest level count the level memory accepts still loads.
    let path = write_temp("max_levels.lehdc", &crafted_bundle(256, 256, 8, 129));
    let bundle = load_bundle(&path).unwrap();
    assert_eq!(bundle.encoder.levels().n_levels(), 129);
}
