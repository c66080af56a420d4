//! Pins the exact bits LeHDC training produces on a small fixed corpus.
//!
//! The trainer's hot paths (packed gradient product, fused optimizer step,
//! warm-start class sums) are rewritten for speed from time to time, always
//! under the contract that the trained model does not change by a single
//! bit. The unit and parity suites compare kernels against their reference
//! in one process; this golden compares the whole `train_lehdc` call
//! against a value recorded once, so drift across commits fails loudly.
//!
//! The shape is chosen to hit the awkward paths: D = 517 is not a multiple
//! of 8 or 64, batch 37 leaves a partial last batch, dropout 0.5 exercises
//! the masked products, the gradient clip binds, and at 3 threads the pool
//! chunks start at dims that are not 8-aligned. Both thread counts must
//! produce the same pinned value. One golden starts from the baseline class
//! sums (the warm start), the other from `BinaryLinear::new`'s random draw.

use lehdc_suite::hdc::rng::rng_for;
use lehdc_suite::hdc::{BinaryHv, Dim};
use lehdc_suite::lehdc::{train_lehdc, EncodedDataset, HdcModel, LehdcConfig};
use testkit::Rng;

const DIM: usize = 517;
const CLASSES: usize = 5;

/// Noisy copies of three random prototypes per class (~30% flipped bits),
/// so the warm start is imperfect and every epoch flips real weights.
fn corpus(samples: usize, seed: u64) -> EncodedDataset {
    let dim = Dim::new(DIM);
    let mut rng = rng_for(seed, 0x601D);
    let prototypes: Vec<Vec<BinaryHv>> = (0..CLASSES)
        .map(|_| (0..3).map(|_| BinaryHv::random(dim, &mut rng)).collect())
        .collect();
    let mut hvs = Vec::with_capacity(samples);
    let mut labels = Vec::with_capacity(samples);
    for i in 0..samples {
        let class = i % CLASSES;
        let mut hv = prototypes[class][(i / CLASSES) % 3].clone();
        for _ in 0..(3 * DIM) / 10 {
            hv.flip((rng.random::<u64>() % DIM as u64) as usize);
        }
        hvs.push(hv);
        labels.push(class);
    }
    EncodedDataset::from_parts(hvs, labels, CLASSES).expect("valid corpus")
}

/// Per-class popcounts plus a word-wise FNV-1a over every class hypervector.
fn fingerprint(model: &HdcModel) -> (Vec<usize>, u64) {
    let pops = model.class_hvs().iter().map(BinaryHv::count_ones).collect();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for hv in model.class_hvs() {
        for &w in hv.as_words() {
            h ^= w;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    (pops, h)
}

/// Trains on the pinned corpus at 1 and 3 threads and renders the model's
/// fingerprint and per-epoch loss bits; both thread counts must agree.
fn rendered_at_both_thread_counts(warm_start: bool) -> String {
    let train = corpus(241, 17);
    let renders: Vec<String> = [1, 3]
        .into_iter()
        .map(|threads| {
            let cfg = LehdcConfig {
                weight_decay: 0.01,
                learning_rate: 0.02,
                batch_size: 37,
                dropout: 0.5,
                epochs: 6,
                warm_start,
                seed: 23,
                grad_clip: Some(0.05),
                threads,
                ..LehdcConfig::default()
            };
            let (model, history) = train_lehdc(&train, None, &cfg, &obs::Recorder::disabled())
                .expect("training succeeds");
            let (pops, fnv) = fingerprint(&model);
            let losses: Vec<String> = history
                .records()
                .iter()
                .map(|r| r.loss.expect("every epoch records its loss"))
                .map(|loss| format!("{:#018x}", loss.to_bits()))
                .collect();
            format!("pops={pops:?} fnv={fnv:#018x} loss_bits={losses:?}")
        })
        .collect();
    assert_eq!(renders[0], renders[1], "1 and 3 threads must train the same bits");
    renders[0].clone()
}

#[test]
fn lehdc_trained_bits_match_the_pinned_golden() {
    assert_eq!(rendered_at_both_thread_counts(true), GOLDEN);
}

/// The cold start draws its latent weights from `BinaryLinear::new`'s RNG
/// in input-dim-major order, so this pins the initializer's draw order as
/// well as the training step.
#[test]
fn lehdc_cold_start_bits_match_the_pinned_golden() {
    assert_eq!(rendered_at_both_thread_counts(false), GOLDEN_COLD);
}

// Recorded once on the scalar gradient kernel with the per-sample f32
// warm start. Re-pin only on a deliberate change of the training
// semantics, and say so in the changelog.
const GOLDEN: &str = "pops=[247, 270, 280, 250, 248] fnv=0xe9964d0d48ae8fa7 loss_bits=[\"0x4025a09c5775a610\", \"0x3fef011e07283c02\", \"0x3ff23cc06bfa0b04\", \"0x3fdb481584b89465\", \"0x3fd45b4a4ec2b18a\", \"0x3fd3d6a1067493dd\"]";

// Recorded once on the dim-major training layout (latents stored D×K),
// before they became class-major; re-pin only as `GOLDEN` above.
const GOLDEN_COLD: &str = "pops=[254, 275, 255, 250, 237] fnv=0xdee59fc05b46b386 loss_bits=[\"0x402398c1fdb63779\", \"0x3ff5eb35861abdcb\", \"0x3fe1d93f38d089c8\", \"0x3fd93e0c1d0f3d42\", \"0x3fc033bbefb90429\", \"0x3fc86f4380d5acd2\"]";
