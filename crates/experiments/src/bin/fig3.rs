//! Regenerates **Figure 3**: training/testing accuracy of basic vs enhanced
//! retraining across iterations on the Fashion-MNIST profile.
//!
//! The paper's observations to reproduce: the enhanced strategy starts and
//! converges higher, and the basic strategy oscillates after its initial
//! convergence while the enhanced one stays stable.
//!
//! ```text
//! cargo run --release -p lehdc-experiments --bin fig3 -- --quick
//! ```

use hdc::Dim;
use hdc_datasets::BenchmarkProfile;
use lehdc::enhanced::train_enhanced;
use lehdc::retrain::train_retraining;
use lehdc::{Pipeline, RetrainConfig};
use lehdc_experiments::{render_series, Options};

fn main() {
    let opts = Options::from_env();
    let rec = opts.recorder();
    let iterations = if opts.full { 150 } else { 50 };
    let profile = if opts.full {
        BenchmarkProfile::fashion_mnist()
    } else {
        // More samples than the generic quick preset: the oscillation-vs-
        // stability contrast of Fig. 3 only shows when the training set is
        // large enough that the model cannot memorize it.
        BenchmarkProfile::fashion_mnist()
            .quick()
            .with_samples(3000, 1000)
    };

    println!(
        "Figure 3 reproduction — {} profile, D={}, {iterations} iterations\n",
        profile.name(),
        opts.dim
    );

    let data = profile.generate(opts.seeds).expect("profile generation");
    let pipeline = Pipeline::builder(&data)
        .dim(Dim::new(opts.dim))
        .seed(opts.seeds)
        .threads(opts.threads)
        .recorder(rec.clone())
        .build()
        .expect("pipeline build");
    // The paper's α = 0.05 is calibrated against class sums over 6,000
    // samples per class; at quick scale (300 per class) the same *relative*
    // step size — the regime where basic retraining visibly oscillates —
    // needs a proportionally larger α.
    let alpha = if opts.full { 0.05 } else { 0.5 };
    let cfg = RetrainConfig {
        iterations,
        alpha,
        ..RetrainConfig::default()
    };

    let (train, test) = (pipeline.encoded_train(), pipeline.encoded_test());
    let (_, basic) = train_retraining(train, Some(test), &cfg, pipeline.engine())
        .expect("basic retraining");
    let (_, enhanced) =
        train_enhanced(train, Some(test), &cfg, pipeline.engine()).expect("enhanced retraining");

    let xs: Vec<String> = (0..iterations).map(|i| i.to_string()).collect();
    println!(
        "{}",
        render_series(
            "iter",
            &xs,
            &[
                ("basic-train", basic.train_series()),
                ("basic-test", basic.test_series()),
                ("enhanced-train", enhanced.train_series()),
                ("enhanced-test", enhanced.test_series()),
            ],
        )
    );

    println!(
        "final test:  basic {:.2}%  enhanced {:.2}%",
        100.0 * basic.final_test_accuracy().unwrap_or(0.0),
        100.0 * enhanced.final_test_accuracy().unwrap_or(0.0)
    );
    println!(
        "late oscillation (mean |Δ train acc| over the last half):\n  \
         basic {:.4}  enhanced {:.4}  → expect enhanced ≤ basic",
        basic.late_oscillation(),
        enhanced.late_oscillation()
    );
    lehdc_experiments::finish_metrics(&rec);
}
