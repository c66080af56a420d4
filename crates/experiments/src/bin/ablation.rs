//! Ablations beyond the paper's figures, covering the design choices
//! DESIGN.md calls out:
//!
//! 1. **Warm start**: initializing the latent BNN weights from the baseline
//!    class sums vs random initialization.
//! 2. **Quantization levels**: how the level-memory resolution `Q` affects
//!    every strategy (the paper fixes its encoder; this shows the encoder
//!    knob LeHDC inherits).
//! 3. **Early stopping**: the validation-split policy from the paper's
//!    conclusion ("implicit hyper-parameters") vs training to the epoch
//!    budget.
//!
//! ```text
//! cargo run --release -p lehdc-experiments --bin ablation -- --quick
//! ```

use hdc::Dim;
use hdc_datasets::BenchmarkProfile;
use lehdc::lehdc_trainer::train_lehdc;
use lehdc::{EarlyStopping, LehdcConfig, Pipeline, Strategy};
use lehdc_experiments::{Options, TextTable};

fn main() {
    let opts = Options::from_env();
    let rec = opts.recorder();
    let profile = if opts.full {
        BenchmarkProfile::fashion_mnist()
    } else {
        BenchmarkProfile::fashion_mnist().quick()
    };
    let epochs = if opts.full { 100 } else { 30 };
    println!(
        "Ablations — {} profile, D={}, {} epochs\n",
        profile.name(),
        opts.dim,
        epochs
    );

    let data = profile.generate(opts.seeds).expect("profile generation");
    let pipeline = Pipeline::builder(&data)
        .dim(Dim::new(opts.dim))
        .seed(opts.seeds)
        .threads(opts.threads)
        .recorder(rec.clone())
        .build()
        .expect("pipeline build");
    let base_cfg = LehdcConfig::quick().with_epochs(epochs);

    // 1. Warm start vs cold start.
    let mut warm_table = TextTable::new(vec!["Init", "epoch-1 test %", "final test %"]);
    for (name, warm) in [("warm (baseline sums)", true), ("cold (random)", false)] {
        let cfg = LehdcConfig {
            warm_start: warm,
            ..base_cfg.clone()
        };
        let (_, history) = train_lehdc(
            pipeline.encoded_train(),
            Some(pipeline.encoded_test()),
            &cfg,
            &obs::Recorder::disabled(),
        )
        .expect("lehdc");
        let first = history.records().first().and_then(|r| r.test_accuracy);
        warm_table.row(vec![
            name.to_string(),
            format!("{:.2}", 100.0 * first.unwrap_or(0.0)),
            format!("{:.2}", 100.0 * history.final_test_accuracy().unwrap_or(0.0)),
        ]);
    }
    println!("Warm start ablation:");
    println!("{}", warm_table.render());

    // 2. Quantization levels.
    let mut level_table = TextTable::new(vec!["Q levels", "Baseline %", "LeHDC %"]);
    for q in [4usize, 16, 64] {
        let pipeline = Pipeline::builder(&data)
            .dim(Dim::new(opts.dim))
            .levels(q)
            .seed(opts.seeds)
            .threads(opts.threads)
            .recorder(rec.clone())
            .build()
            .expect("pipeline build");
        let base = pipeline.run(Strategy::Baseline).expect("baseline");
        let lehdc = pipeline
            .run(Strategy::Lehdc(base_cfg.clone()))
            .expect("lehdc");
        level_table.row(vec![
            q.to_string(),
            format!("{:.2}", 100.0 * base.test_accuracy),
            format!("{:.2}", 100.0 * lehdc.test_accuracy),
        ]);
    }
    println!("Quantization-level ablation:");
    println!("{}", level_table.render());

    // 3. Early stopping.
    let mut es_table = TextTable::new(vec!["Policy", "epochs run", "final test %"]);
    for (name, es) in [
        ("fixed budget", None),
        (
            "early stopping (10% val, patience 5)",
            Some(EarlyStopping {
                fraction: 0.1,
                patience: 5,
            }),
        ),
    ] {
        let cfg = LehdcConfig {
            early_stopping: es,
            ..base_cfg.clone()
        };
        let (model, history) = train_lehdc(
            pipeline.encoded_train(),
            Some(pipeline.encoded_test()),
            &cfg,
            &obs::Recorder::disabled(),
        )
        .expect("lehdc");
        let test = pipeline.encoded_test();
        es_table.row(vec![
            name.to_string(),
            history
                .records()
                .last()
                .map_or(0, |r| r.epoch + 1)
                .to_string(),
            format!("{:.2}", 100.0 * model.accuracy(test.hvs(), test.labels())),
        ]);
    }
    println!("Early-stopping ablation:");
    println!("{}", es_table.render());
    lehdc_experiments::finish_metrics(&rec);
}
