//! Shared fixtures for the kernel benchmarks in `benches/kernels.rs`.

use hdc::{BinaryHv, Dim, RecordEncoder};

/// A pair of random hypervectors of dimension `d`.
#[must_use]
pub fn random_pair(d: usize) -> (BinaryHv, BinaryHv) {
    let mut rng = hdc::rng::rng_for(1, 2);
    let dim = Dim::new(d);
    (BinaryHv::random(dim, &mut rng), BinaryHv::random(dim, &mut rng))
}

/// A record encoder plus one feature vector, for encoding benches.
///
/// # Panics
///
/// Panics on encoder construction failure (impossible for the fixed shape).
#[must_use]
pub fn encoder_and_sample(d: usize, n_features: usize) -> (RecordEncoder, Vec<f32>) {
    let encoder = RecordEncoder::builder(Dim::new(d), n_features)
        .levels(16)
        .seed(3)
        .build()
        .expect("build encoder");
    let sample: Vec<f32> = (0..n_features)
        .map(|i| 0.5 + 0.4 * ((i as f32) * 0.37).sin())
        .collect();
    (encoder, sample)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_have_expected_shapes() {
        let (a, b) = random_pair(512);
        assert_eq!(a.dim().get(), 512);
        assert_ne!(a, b);
        let (enc, sample) = encoder_and_sample(256, 16);
        assert_eq!(sample.len(), 16);
        assert_eq!(hdc::Encode::dim(&enc).get(), 256);
    }
}
