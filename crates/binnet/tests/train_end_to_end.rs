//! End-to-end: a single binary layer trained with the full LeHDC recipe
//! (Adam + dropout + weight decay + plateau LR decay) on the packed,
//! buffer-reusing path the LeHDC trainer runs, must learn a noisy
//! multi-class bipolar problem that plain averaging cannot solve perfectly.

use binnet::{
    accuracy_from_logits, softmax_cross_entropy_into, Adam, BatchSampler, BinaryLinear, Dropout,
    Matrix, Optimizer, PackedMatrix, PlateauDecay,
};
use testkit::{Rng, Xoshiro256pp};

const D: usize = 256;
const K: usize = 4;

/// Builds a dataset where each class is a pair of *sub-prototypes* (so the
/// class-mean is a poor classifier) plus bit noise. The prototypes are drawn
/// from `proto_seed` so train and test sets can share them while the noise
/// differs (`noise_seed`).
fn make_dataset(n_per_class: usize, proto_seed: u64, noise_seed: u64) -> (Matrix, Vec<usize>) {
    let mut proto_rng = Xoshiro256pp::seed_from_u64(proto_seed);
    let protos: Vec<Vec<f32>> = (0..2 * K)
        .map(|_| {
            (0..D)
                .map(|_| if proto_rng.random::<bool>() { 1.0 } else { -1.0 })
                .collect()
        })
        .collect();
    let mut rng = Xoshiro256pp::seed_from_u64(noise_seed);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for class in 0..K {
        for i in 0..n_per_class {
            let proto = &protos[2 * class + (i % 2)];
            let row: Vec<f32> = proto
                .iter()
                .map(|&v| if rng.random::<f32>() < 0.15 { -v } else { v })
                .collect();
            rows.push(row);
            labels.push(class);
        }
    }
    (Matrix::from_rows(&rows).unwrap(), labels)
}

fn gather(x: &Matrix, idx: &[usize]) -> PackedMatrix {
    let rows: Vec<Vec<f32>> = idx.iter().map(|&i| x.row(i).to_vec()).collect();
    Matrix::from_rows(&rows).unwrap().pack_bipolar().expect("bipolar rows")
}

/// The layer's logits on a dense bipolar batch.
fn logits_of(layer: &BinaryLinear, x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(1, 1);
    layer.forward_packed_into(&x.pack_bipolar().expect("bipolar rows"), &mut out);
    out
}

/// Per-step buffers, reused across batches as the trainer reuses its own.
struct Scratch {
    logits: Matrix,
    dlogits: Matrix,
    grad: Matrix,
}

impl Scratch {
    fn new() -> Scratch {
        Scratch {
            logits: Matrix::zeros(1, 1),
            dlogits: Matrix::zeros(1, 1),
            grad: Matrix::zeros(K, D),
        }
    }
}

/// One trainer-style step: masked forward with the dropout scale applied
/// once to the integer logits (and again to dlogits), packed backward,
/// fused Adam update. Returns the batch loss.
fn train_step(
    layer: &mut BinaryLinear,
    opt: &mut Adam,
    dropout: &mut Dropout,
    x: &PackedMatrix,
    y: &[usize],
    s: &mut Scratch,
) -> f64 {
    let mask = dropout.sample_mask(D);
    match &mask {
        Some(m) => {
            layer.forward_packed_masked_into(x, m, &mut s.logits);
            s.logits.scale(m.scale());
        }
        None => layer.forward_packed_into(x, &mut s.logits),
    }
    let loss = softmax_cross_entropy_into(&s.logits, y, &mut s.dlogits).unwrap();
    if let Some(m) = &mask {
        s.dlogits.scale(m.scale());
    }
    layer.backward_packed_into(x, mask.as_ref(), &s.dlogits, &mut s.grad);
    layer.apply_gradient_fused(&s.grad, opt, None);
    loss
}

#[test]
fn full_recipe_learns_multimodal_classes() {
    let (train_x, train_y) = make_dataset(40, 100, 1);
    let (test_x, test_y) = make_dataset(20, 100, 2);

    let mut layer = BinaryLinear::new(D, K, 3);
    let mut opt = Adam::new(0.02).weight_decay(0.001);
    let mut dropout = Dropout::new(0.2, 5).unwrap();
    let mut sched = PlateauDecay::new(0.5, 1e-5).unwrap();
    let sampler = BatchSampler::new(train_y.len(), 32, 7).unwrap();
    let mut scratch = Scratch::new();

    for epoch in 0..30 {
        let mut epoch_loss = 0.0;
        let mut batches = 0;
        for batch in sampler.epoch(epoch) {
            let x = gather(&train_x, &batch);
            let y: Vec<usize> = batch.iter().map(|&i| train_y[i]).collect();
            epoch_loss += train_step(&mut layer, &mut opt, &mut dropout, &x, &y, &mut scratch);
            batches += 1;
        }
        let lr = sched.observe(epoch_loss / batches as f64, opt.learning_rate());
        opt.set_learning_rate(lr);
    }

    let train_acc = accuracy_from_logits(&logits_of(&layer, &train_x), &train_y);
    let test_acc = accuracy_from_logits(&logits_of(&layer, &test_x), &test_y);
    assert!(train_acc > 0.9, "train accuracy {train_acc}");
    assert!(test_acc > 0.8, "test accuracy {test_acc}");
}

#[test]
fn trained_weights_stay_binary() {
    let (train_x, train_y) = make_dataset(10, 100, 11);
    let mut layer = BinaryLinear::new(D, K, 13);
    let mut opt = Adam::new(0.05);
    let mut no_dropout = Dropout::new(0.0, 0).unwrap();
    let mut scratch = Scratch::new();
    for epoch in 0..5 {
        let sampler = BatchSampler::new(train_y.len(), 16, 17).unwrap();
        for batch in sampler.epoch(epoch) {
            let x = gather(&train_x, &batch);
            let y: Vec<usize> = batch.iter().map(|&i| train_y[i]).collect();
            train_step(&mut layer, &mut opt, &mut no_dropout, &x, &y, &mut scratch);
        }
    }
    // The effective weights are exactly the signs of the latents (sgn(0) =
    // +1), checked against a dense per-entry reference ...
    let latent = layer.latent();
    let signs = PackedMatrix::from_fn(K, D, |c, r| latent.get(c, r) >= 0.0);
    assert_eq!(layer.packed_weights(), &signs);
    // ... and the latent weights are NOT all binary (they accumulate).
    assert!(latent.as_slice().iter().any(|&v| v != 1.0 && v != -1.0));
}

#[test]
fn warm_start_from_prototypes_beats_random_init_early() {
    let (train_x, train_y) = make_dataset(30, 100, 21);

    // class means as init (like LeHDC warm-starting from baseline HDC)
    let mut mean = vec![vec![0.0f32; D]; K];
    for (i, &y) in train_y.iter().enumerate() {
        for (m, &v) in mean[y].iter_mut().zip(train_x.row(i)) {
            *m += v;
        }
    }
    let warm = BinaryLinear::with_init(D, K, |r, c| mean[c][r].signum() * 0.05);
    let cold = BinaryLinear::new(D, K, 99);

    let warm_acc = accuracy_from_logits(&logits_of(&warm, &train_x), &train_y);
    let cold_acc = accuracy_from_logits(&logits_of(&cold, &train_x), &train_y);
    assert!(
        warm_acc > cold_acc,
        "warm start {warm_acc} should beat random init {cold_acc}"
    );
}
