//! The paper's **footnote 1** as an experiment: "our result also applies to
//! non-binary HDC models by changing the BNN to a wide single-layer neural
//! network with non-binary weights."
//!
//! Compares, per benchmark: the non-binary baseline (raw class sums,
//! cosine), binary LeHDC, and non-binary LeHDC (dense single layer, same
//! gradient recipe). The expected shape: non-binary LeHDC ≥ binary LeHDC ≥
//! both baselines — richer weights can only help accuracy, at the cost of
//! 32× model storage and float inference.
//!
//! ```text
//! cargo run --release -p lehdc-experiments --bin nonbinary
//! ```

use hdc::Dim;
use hdc_datasets::BenchmarkProfile;
use lehdc::lehdc_trainer::train_lehdc;
use lehdc::nonbinary::{train_lehdc_nonbinary, train_nonbinary_baseline};
use lehdc::{LehdcConfig, Pipeline, Strategy};
use lehdc_experiments::{Options, TextTable};

fn main() {
    let opts = Options::from_env();
    let rec = opts.recorder();
    let epochs = if opts.full { 100 } else { 30 };
    println!(
        "Footnote-1 extension — binary vs non-binary LeHDC, D={}, {epochs} epochs\n",
        opts.dim
    );

    let mut table = TextTable::new(vec![
        "Dataset",
        "Baseline %",
        "NB baseline %",
        "LeHDC %",
        "NB LeHDC %",
    ]);
    for profile in BenchmarkProfile::all() {
        let profile = if opts.full { profile } else { profile.quick() };
        let data = profile.generate(opts.seeds).expect("profile generation");
        let pipeline = Pipeline::builder(&data)
            .dim(Dim::new(opts.dim))
            .seed(opts.seeds)
            .threads(opts.threads)
            .recorder(rec.clone())
            .build()
            .expect("pipeline build");
        let (train, test) = (pipeline.encoded_train(), pipeline.encoded_test());
        let cfg = LehdcConfig::quick().with_epochs(epochs);

        let baseline = pipeline.run(Strategy::Baseline).expect("baseline");
        let nb_baseline = train_nonbinary_baseline(train).expect("nb baseline");
        let (lehdc, _) = train_lehdc(train, None, &cfg, &obs::Recorder::disabled()).expect("lehdc");
        let (nb_lehdc, _) = train_lehdc_nonbinary(train, None, &cfg).expect("nb lehdc");

        table.row(vec![
            profile.name().to_string(),
            format!("{:.2}", 100.0 * baseline.test_accuracy),
            format!("{:.2}", 100.0 * nb_baseline.accuracy(test.hvs(), test.labels())),
            format!("{:.2}", 100.0 * lehdc.accuracy(test.hvs(), test.labels())),
            format!("{:.2}", 100.0 * nb_lehdc.accuracy(test.hvs(), test.labels())),
        ]);
        eprintln!("  {} done", profile.name());
    }
    println!("{}", table.render());
    println!(
        "Shape check: learned ≥ averaged within each weight regime, and the\n\
         non-binary column should match or exceed its binary counterpart —\n\
         the accuracy/storage trade the paper's footnote 1 describes."
    );
    lehdc_experiments::finish_metrics(&rec);
}
