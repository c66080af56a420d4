//! The fused update (`BinaryLinear::apply_gradient_fused`) must be
//! **bit-identical** to the reference sequence it replaces — clamp the
//! gradient, `Adam::step` over the class-major latents, pack every sign with
//! `>= 0.0` — at any thread count and on every kernel tier (auto-detected,
//! or forced by `LEHDC_KERNEL`; `scripts/check.sh` runs each), on ordinary
//! and edge values, and it must not allocate once the layer exists.

use binnet::{Adam, BinaryLinear, Matrix, Optimizer, PackedMatrix};
use testkit::{Rng, Xoshiro256pp};

const D: usize = 200; // deliberately not a multiple of 64: exercises the tail word
const K: usize = 5;
const STEPS: usize = 10;

/// The scalar reference of the fused step, on its own copy of the latents.
struct Oracle {
    latent: Vec<f32>,
    opt: Adam,
    d: usize,
    k: usize,
}

impl Oracle {
    fn new(layer: &BinaryLinear, opt: Adam) -> Oracle {
        Oracle {
            latent: layer.latent().as_slice().to_vec(),
            opt,
            d: layer.d_in(),
            k: layer.k_out(),
        }
    }

    fn step(&mut self, grad: &Matrix, clip: Option<f32>) {
        let clamped: Vec<f32> = grad
            .as_slice()
            .iter()
            .map(|&g| clip.map_or(g, |c| g.clamp(-c, c)))
            .collect();
        self.opt.step(&mut self.latent, &clamped).unwrap();
    }

    fn packed(&self) -> PackedMatrix {
        PackedMatrix::from_fn(self.k, self.d, |c, r| self.latent[c * self.d + r] >= 0.0)
    }

    /// Asserts `layer` holds exactly the oracle's latent bits and packed
    /// words, naming the first differing latent.
    fn assert_matches(&self, layer: &BinaryLinear, context: &str) {
        let got = layer.latent().as_slice();
        if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != self.latent[i].to_bits()) {
            panic!(
                "latent ({}, {}) is {:?}, expected {:?}: {context}",
                i / self.d,
                i % self.d,
                got[i],
                self.latent[i]
            );
        }
        assert!(
            layer.packed_weights() == &self.packed(),
            "packed weights diverged: {context}"
        );
    }
}

/// A class-major `K×D` pseudo-gradient.
fn grad_at(rng: &mut Xoshiro256pp) -> Matrix {
    let mut g = Matrix::zeros(K, D);
    g.map_inplace(|_| rng.random_range(-1.5f32..1.5));
    g
}

#[test]
fn fused_adam_matches_step_plus_rebinarize() {
    for threads in [1, 3, 4] {
        let mut layer = BinaryLinear::new(D, K, 42).with_threads(threads);
        let mut opt = Adam::new(0.05).weight_decay(0.01);
        let mut oracle = Oracle::new(&layer, opt.clone());
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        for step in 0..STEPS {
            let grad = grad_at(&mut rng);
            oracle.step(&grad, None);
            layer.apply_gradient_fused(&grad, &mut opt, None);
            oracle.assert_matches(&layer, &format!("step {step} threads={threads}"));
        }
    }
}

#[test]
fn fused_grad_clip_matches_pre_clamped_gradient() {
    let clip = 0.5f32;
    let mut layer = BinaryLinear::new(D, K, 42).with_threads(4);
    let mut opt = Adam::new(0.05).weight_decay(0.01);
    let mut oracle = Oracle::new(&layer, opt.clone());
    let mut rng = Xoshiro256pp::seed_from_u64(8);
    for step in 0..STEPS {
        let grad = grad_at(&mut rng);
        oracle.step(&grad, Some(clip));
        layer.apply_gradient_fused(&grad, &mut opt, Some(clip));
        oracle.assert_matches(&layer, &format!("step {step}"));
    }
}

/// Latents that sit on the sign test's edge: both zeros pack to 1, and
/// subnormals keep their sign.
const EDGE_LATENTS: [f32; 4] = [0.0, -0.0, 1e-40, -1e-40];

/// Gradients the vector clip and update must treat as `f32::clamp` and the
/// scalar update do: NaN passes the clip, infinities clip to the bound,
/// subnormals and signed zeros keep their bits.
const EDGE_GRADIENTS: [f32; 7] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1e-41,
    -1e-41,
    0.0,
    -0.0,
];

/// Runs `clips.len()` fused steps of `opt` on a `d×k` layer whose latents
/// and gradients are half edge values, half ordinary, asserting the oracle
/// after each.
fn assert_edge_steps(
    d: usize,
    k: usize,
    threads: usize,
    mut opt: Adam,
    clips: &[Option<f32>],
    rng: &mut Xoshiro256pp,
) {
    let mut layer = BinaryLinear::with_init(d, k, |_, _| {
        if rng.random::<bool>() {
            EDGE_LATENTS[rng.random_range(0..EDGE_LATENTS.len())]
        } else {
            rng.random_range(-0.05f32..0.05)
        }
    })
    .with_threads(threads);
    let mut oracle = Oracle::new(&layer, opt.clone());
    for (step, &clip) in clips.iter().enumerate() {
        let mut grad = Matrix::zeros(k, d);
        grad.map_inplace(|_| {
            if rng.random::<bool>() {
                EDGE_GRADIENTS[rng.random_range(0..EDGE_GRADIENTS.len())]
            } else {
                rng.random_range(-2.0f32..2.0)
            }
        });
        oracle.step(&grad, clip);
        layer.apply_gradient_fused(&grad, &mut opt, clip);
        oracle.assert_matches(
            &layer,
            &format!("d={d} k={k} threads={threads} step={step} clip={clip:?}"),
        );
    }
}

#[test]
fn fused_step_matches_the_scalar_oracle_on_edge_values() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xED6E);
    for d in [1usize, 7, 8, 9, 63, 64, 65, 200, 517, 10_000] {
        for k in [1usize, 3, 10, 26] {
            for threads in [1, 3, 4] {
                // The clip binds on the ordinary values (|g| up to 2) and on
                // the infinities; the unclipped step runs the ±∞ bounds.
                let opt = Adam::new(0.05).weight_decay(0.01);
                assert_edge_steps(d, k, threads, opt, &[Some(0.5), None, Some(0.5)], &mut rng);
            }
        }
    }
}

#[test]
fn fused_step_does_not_reallocate_layer_buffers() {
    let mut layer = BinaryLinear::new(D, K, 42).with_threads(2);
    let mut opt = Adam::new(0.05).weight_decay(0.01);
    let mut rng = Xoshiro256pp::seed_from_u64(10);
    let fingerprint = |l: &BinaryLinear| {
        [
            l.latent().as_slice().as_ptr() as usize,
            l.packed_weights().row_words(0).as_ptr() as usize,
        ]
    };
    let before = fingerprint(&layer);
    for _ in 0..5 {
        let grad = grad_at(&mut rng);
        layer.apply_gradient_fused(&grad, &mut opt, Some(1.0));
        assert_eq!(before, fingerprint(&layer), "fused step must not move layer buffers");
    }
}
