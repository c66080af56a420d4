//! Regenerates **Figure 5**: LeHDC training/testing accuracy per epoch on
//! the CIFAR-10 profile under the weight-decay/dropout ablation.
//!
//! The paper's observations to reproduce: adding weight decay and dropout
//! *lowers* training accuracy but yields the *highest* test accuracy — the
//! regularizers trade memorization for generalization.
//!
//! ```text
//! cargo run --release -p lehdc-experiments --bin fig5 -- --quick
//! ```

use hdc::Dim;
use hdc_datasets::BenchmarkProfile;
use lehdc::lehdc_trainer::train_lehdc;
use lehdc::{LehdcConfig, Pipeline};
use lehdc_experiments::{render_series, Options, TextTable};

fn main() {
    let opts = Options::from_env();
    let rec = opts.recorder();
    let profile = if opts.full {
        BenchmarkProfile::cifar10()
    } else {
        // A larger test split than the generic quick preset: the ablation
        // arms differ by a few points and need a low-variance estimate.
        BenchmarkProfile::cifar10().quick().with_samples(2000, 1500)
    };
    let base_cfg = {
        let cfg = LehdcConfig::for_benchmark("CIFAR-10").with_seed(opts.seeds);
        if opts.full {
            cfg
        } else {
            LehdcConfig {
                epochs: 40,
                batch_size: 64,
                learning_rate: 0.01,
                // At quick scale the paper's λ = 0.03 is imperceptible
                // against the larger per-step gradients; keep the same
                // decay-to-gradient ratio instead.
                weight_decay: 0.10,
                ..cfg
            }
        }
    };

    println!(
        "Figure 5 reproduction — {} profile, D={}, {} epochs\n",
        profile.name(),
        opts.dim,
        base_cfg.epochs
    );

    let data = profile.generate(opts.seeds).expect("profile generation");
    let pipeline = Pipeline::builder(&data)
        .dim(Dim::new(opts.dim))
        .seed(opts.seeds)
        .threads(opts.threads)
        .recorder(rec.clone())
        .build()
        .expect("pipeline build");

    let arms: Vec<(&str, LehdcConfig)> = vec![
        (
            "neither",
            base_cfg.clone().without_weight_decay().without_dropout(),
        ),
        ("wd-only", base_cfg.clone().without_dropout()),
        ("dropout-only", base_cfg.clone().without_weight_decay()),
        ("both", base_cfg.clone()),
    ];

    let mut train_curves: Vec<(&str, Vec<f64>)> = Vec::new();
    let mut test_curves: Vec<(&str, Vec<f64>)> = Vec::new();
    let mut summary = TextTable::new(vec!["Arm", "final train %", "final test %"]);
    for (name, cfg) in &arms {
        let (_, history) = train_lehdc(
            pipeline.encoded_train(),
            Some(pipeline.encoded_test()),
            cfg,
            &obs::Recorder::disabled(),
        )
        .expect("lehdc training");
        summary.row(vec![
            name.to_string(),
            format!("{:.2}", 100.0 * history.final_train_accuracy().unwrap_or(0.0)),
            format!("{:.2}", 100.0 * history.final_test_accuracy().unwrap_or(0.0)),
        ]);
        train_curves.push((name, history.train_series()));
        test_curves.push((name, history.test_series()));
        eprintln!("  arm {name} done");
    }

    let xs: Vec<String> = (0..base_cfg.epochs).map(|e| e.to_string()).collect();
    println!("Training accuracy per epoch (%):");
    println!("{}", render_series("epoch", &xs, &train_curves));
    println!("Testing accuracy per epoch (%):");
    println!("{}", render_series("epoch", &xs, &test_curves));
    println!("{}", summary.render());
    println!(
        "Shape check: \"both\" should have the LOWEST final training accuracy\n\
         of the four arms but the HIGHEST final testing accuracy (overfitting\n\
         control, paper Fig. 5)."
    );
    lehdc_experiments::finish_metrics(&rec);
}
