//! `lehdc-cli`: train, evaluate, and deploy LeHDC classifiers on CSV data.
//!
//! ```text
//! lehdc_cli train   --data train.csv --out model.lehdc
//!                   [--strategy lehdc|baseline|retraining|enhanced|adaptive|multimodel]
//!                   [--dim 2048] [--levels 32] [--epochs 30] [--seed 0]
//!                   [--label-col first|last] [--holdout 0.25] [--threads 1]
//!                   [--verbose] [--metrics-out run.jsonl]
//! lehdc_cli eval    --model model.lehdc --data test.csv [--label-col first|last]
//!                   [--threads 1] [--verbose] [--metrics-out run.jsonl]
//! lehdc_cli predict --model model.lehdc --data features.csv
//!                   [--threads 1] [--verbose] [--metrics-out run.jsonl]
//! lehdc_cli distill --model model.lehdc --out small.lehdc --dim 2000
//! lehdc_cli convert --model old.lehdc --out new.lehdc
//! lehdc_cli info    --model model.lehdc
//! ```
//!
//! `train` fits a model on a labeled CSV (holding out a fraction for a test
//! report) and writes a self-contained bundle (model + encoder seed). The
//! `multimodel` strategy is accepted for parity with the library but rejected
//! at save time: it trains an ensemble with no single-model artifact.
//! `predict` reads label-free CSV rows (features only) and prints one
//! predicted class per line. `distill` shrinks a trained bundle to `--dim`
//! dimensions by class-margin contribution (train big, deploy small);
//! `convert` rewrites any readable bundle (legacy, or a container with
//! packed sections) as the `LHDC` container every command writes.
//!
//! `--verbose` echoes per-epoch timing and throughput to stderr;
//! `--metrics-out <path>` additionally writes every observability event as
//! one JSON object per line (see the `obs` crate for the schema). Neither
//! flag perturbs training: the recorder only reads the wall clock.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lehdc_suite::datasets::loader::csv::{load_csv, load_feature_rows, LabelColumn};
use lehdc_suite::datasets::TrainTest;
use lehdc_suite::hdc::{Dim, Encode};
use lehdc_suite::lehdc::io::{describe_file, load_bundle, save_bundle, ModelBundle};
use lehdc_suite::lehdc::{
    AdaptiveConfig, EpochEngine, LehdcConfig, Pipeline, RetrainConfig, Strategy,
};
use lehdc_suite::serve::flags::{parse_flags, parse_num, required};
use lehdc_suite::{obs, threadpool};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("train") => cmd_train(&args[1..]),
        Some("eval") => cmd_eval(&args[1..]),
        Some("predict") => cmd_predict(&args[1..]),
        Some("distill") => cmd_distill(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("--help" | "-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: lehdc_cli <train|eval|predict|distill|convert|info> [options]
  train   --data <csv> --out <file>
          [--strategy lehdc|baseline|retraining|enhanced|adaptive|multimodel]
          [--dim D] [--levels Q] [--epochs N] [--seed S] [--label-col first|last]
          [--holdout F] [--threads T] [--verbose] [--metrics-out <jsonl>]
  eval    --model <file> --data <csv> [--label-col first|last] [--threads T]
          [--verbose] [--metrics-out <jsonl>]
  predict --model <file> --data <csv-of-features> [--threads T]
          [--verbose] [--metrics-out <jsonl>]
  distill --model <file> --out <file> --dim D
  convert --model <file> --out <file>
  info    --model <file>";

/// Builds a recorder from `--verbose` / `--metrics-out`. With neither flag
/// present the recorder stays disabled and every probe is a no-op.
fn build_recorder(flags: &HashMap<String, String>) -> Result<obs::Recorder, String> {
    let verbose = flags.contains_key("verbose");
    let metrics_out = flags.get("metrics-out");
    if !verbose && metrics_out.is_none() {
        return Ok(obs::Recorder::disabled());
    }
    let mut builder = obs::Recorder::builder().verbose(verbose);
    if let Some(path) = metrics_out {
        builder = builder
            .jsonl_path(Path::new(path))
            .map_err(|e| format!("cannot open --metrics-out {path:?}: {e}"))?;
    }
    obs::set_runtime_stats(true);
    Ok(builder.build())
}

/// Emits per-width thread-pool dispatch stats, overall pool totals, and one
/// summary line per metric, then flushes the JSON-lines sink.
fn finish_metrics(rec: &obs::Recorder) {
    if !rec.enabled() {
        return;
    }
    for s in threadpool::job_stats() {
        rec.emit(
            "pool",
            &[
                ("width", obs::Value::U64(s.width as u64)),
                ("jobs", obs::Value::U64(s.jobs)),
                ("dispatch_ns_mean", obs::Value::U64(s.dispatch_ns_mean())),
                ("dispatch_ns_max", obs::Value::U64(s.dispatch_ns_max)),
                ("job_ns_total", obs::Value::U64(s.job_ns_total)),
                ("worker_share", obs::Value::F64(s.worker_share())),
            ],
        );
    }
    rec.emit(
        "pool_totals",
        &[
            (
                "spawned_workers",
                obs::Value::U64(threadpool::spawned_workers() as u64),
            ),
            (
                "dispatched_jobs",
                obs::Value::U64(threadpool::dispatched_jobs()),
            ),
        ],
    );
    rec.emit_metric_summaries();
    rec.flush();
}

fn label_column(flags: &HashMap<String, String>) -> Result<LabelColumn, String> {
    match flags.get("label-col").map(String::as_str) {
        None | Some("first") => Ok(LabelColumn::First),
        Some("last") => Ok(LabelColumn::Last),
        Some(other) => Err(format!("--label-col must be first or last, got {other:?}")),
    }
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            "data",
            "out",
            "strategy",
            "dim",
            "levels",
            "epochs",
            "seed",
            "label-col",
            "holdout",
            "threads",
            "metrics-out",
        ],
        &["verbose"],
    )?;
    let data_path = PathBuf::from(required(&flags, "data")?);
    let out_path = PathBuf::from(required(&flags, "out")?);
    let dim = parse_num(&flags, "dim", 2048usize)?;
    let levels = parse_num(&flags, "levels", 32usize)?;
    let epochs = parse_num(&flags, "epochs", 30usize)?;
    let seed = parse_num(&flags, "seed", 0u64)?;
    let threads = parse_num(&flags, "threads", 1usize)?;
    let holdout = parse_num(&flags, "holdout", 0.25f64)?;
    if !(0.0..1.0).contains(&holdout) {
        return Err(format!("--holdout must be in [0, 1), got {holdout}"));
    }
    let rec = build_recorder(&flags)?;

    let dataset = load_csv(&data_path, label_column(&flags)?, None).map_err(|e| e.to_string())?;
    println!(
        "loaded {}: {} samples × {} features, {} classes",
        data_path.display(),
        dataset.len(),
        dataset.n_features(),
        dataset.n_classes()
    );

    // Deterministic evenly-spread holdout split so class balance survives
    // interleaved labels: exactly `n_test` indices, honoring the requested
    // fraction, with at least one sample on each side.
    let n = dataset.len();
    if n < 2 {
        return Err(format!(
            "need at least 2 samples to hold out a test split, got {n}"
        ));
    }
    let n_test = ((n as f64 * holdout).round() as usize).clamp(1, n - 1);
    let (mut train_idx, mut test_idx) = (Vec::new(), Vec::new());
    for i in 0..n {
        // Index i is a test sample iff the running quota i*n_test/n steps up.
        if (i + 1) * n_test / n > i * n_test / n {
            test_idx.push(i);
        } else {
            train_idx.push(i);
        }
    }
    println!(
        "holdout split: {} train / {} test samples",
        train_idx.len(),
        test_idx.len()
    );
    let data = TrainTest::new(
        dataset.subset(&train_idx).map_err(|e| e.to_string())?,
        dataset.subset(&test_idx).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;

    let strategy = match flags.get("strategy").map(String::as_str) {
        None | Some("lehdc") => Strategy::Lehdc(
            LehdcConfig::quick()
                .with_epochs(epochs)
                .with_threads(threads),
        ),
        Some("baseline") => Strategy::Baseline,
        Some("retraining") => Strategy::Retraining(RetrainConfig {
            iterations: epochs,
            ..RetrainConfig::default()
        }),
        Some("enhanced") => Strategy::Enhanced(RetrainConfig {
            iterations: epochs,
            ..RetrainConfig::default()
        }),
        Some("adaptive") => Strategy::Adaptive(AdaptiveConfig {
            iterations: epochs,
            ..AdaptiveConfig::default()
        }),
        Some("multimodel") => {
            return Err("--strategy multimodel trains an ensemble with no \
                        single-model artifact to save; use it via the library \
                        API (Strategy::MultiModel)"
                .into())
        }
        Some(other) => {
            return Err(format!(
                "unknown --strategy {other:?} (expected \
                 lehdc|baseline|retraining|enhanced|adaptive|multimodel)"
            ))
        }
    };

    let pipeline = Pipeline::builder(&data)
        .dim(Dim::new(dim))
        .levels(levels)
        .seed(seed)
        .threads(threads)
        .recorder(rec.clone())
        .build()
        .map_err(|e| e.to_string())?;
    let name = strategy.name();
    let outcome = pipeline.run(strategy).map_err(|e| e.to_string())?;
    println!(
        "{name}: train accuracy {:.2}%, held-out accuracy {:.2}%",
        100.0 * outcome.train_accuracy,
        100.0 * outcome.test_accuracy
    );

    let model = outcome
        .model
        .ok_or("strategy produced no single-model artifact")?;
    let bundle = ModelBundle {
        model,
        encoder: pipeline.encoder().clone(),
        normalizer: pipeline.normalizer().cloned(),
        selection: None,
    };
    save_bundle(&bundle, &out_path).map_err(|e| e.to_string())?;
    println!("saved bundle to {}", out_path.display());
    finish_metrics(&rec);
    Ok(())
}

fn cmd_eval(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &["model", "data", "label-col", "threads", "metrics-out"],
        &["verbose"],
    )?;
    let threads = parse_num(&flags, "threads", 1usize)?;
    let rec = build_recorder(&flags)?;
    let bundle = load_bundle(&PathBuf::from(required(&flags, "model")?))
        .map_err(|e| e.to_string())?;
    let dataset = load_csv(
        &PathBuf::from(required(&flags, "data")?),
        label_column(&flags)?,
        Some(bundle.model.n_classes()),
    )
    .map_err(|e| e.to_string())?;
    if dataset.n_features() != bundle.encoder.n_features() {
        return Err(format!(
            "data has {} features but the model was trained on {}",
            dataset.n_features(),
            bundle.encoder.n_features()
        ));
    }
    // The bundle's bulk path, as in `predict`: it rejects non-finite
    // features, and normalizes + encodes on `--threads` workers.
    let rows: Vec<Vec<f32>> = (0..dataset.len())
        .map(|i| dataset.row(i).to_vec())
        .collect();
    let predictions = bundle
        .classify_all_recorded(&rows, &EpochEngine::new(threads).with_recorder(rec.clone()))
        .map_err(|e| e.to_string())?;
    let mut correct = 0usize;
    let mut confusion = binnet::ConfusionMatrix::new(bundle.model.n_classes());
    for (i, &predicted) in predictions.iter().enumerate() {
        confusion.record(dataset.label(i), predicted);
        if predicted == dataset.label(i) {
            correct += 1;
        }
    }
    println!(
        "accuracy: {:.2}% ({correct}/{} samples)",
        100.0 * correct as f64 / dataset.len() as f64,
        dataset.len()
    );
    println!("{confusion}");
    finish_metrics(&rec);
    Ok(())
}

fn cmd_predict(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &["model", "data", "threads", "metrics-out"],
        &["verbose"],
    )?;
    let threads = parse_num(&flags, "threads", 1usize)?;
    let rec = build_recorder(&flags)?;
    let bundle = load_bundle(&PathBuf::from(required(&flags, "model")?))
        .map_err(|e| e.to_string())?;
    let rows =
        load_feature_rows(&PathBuf::from(required(&flags, "data")?)).map_err(|e| e.to_string())?;
    // The bundle's bulk path normalizes, encodes (parallel, zero-alloc
    // scratch per worker), and classifies through the blocked argmax —
    // same prediction per row as the one-at-a-time `bundle.classify`.
    let predictions = bundle
        .classify_all_recorded(&rows, &EpochEngine::new(threads).with_recorder(rec.clone()))
        .map_err(|e| e.to_string())?;
    for predicted in predictions {
        println!("{predicted}");
    }
    finish_metrics(&rec);
    Ok(())
}

fn cmd_distill(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["model", "out", "dim"], &[])?;
    let out_path = PathBuf::from(required(&flags, "out")?);
    let d_out: usize = required(&flags, "dim")?
        .parse()
        .map_err(|_| "bad --dim value".to_string())?;
    let bundle = load_bundle(&PathBuf::from(required(&flags, "model")?))
        .map_err(|e| e.to_string())?;
    let distilled = bundle.distill(d_out).map_err(|e| e.to_string())?;
    save_bundle(&distilled, &out_path).map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(&out_path).map(|m| m.len()).unwrap_or(0);
    println!(
        "distilled {} -> {} dims ({} bytes) at {}",
        bundle.model.dim(),
        distilled.model.dim(),
        bytes,
        out_path.display()
    );
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["model", "out"], &[])?;
    let out_path = PathBuf::from(required(&flags, "out")?);
    let bundle = load_bundle(&PathBuf::from(required(&flags, "model")?))
        .map_err(|e| e.to_string())?;
    save_bundle(&bundle, &out_path).map_err(|e| e.to_string())?;
    println!(
        "converted to {} ({})",
        out_path.display(),
        describe_file(&out_path).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["model"], &[])?;
    let path = PathBuf::from(required(&flags, "model")?);
    let format = describe_file(&path).map_err(|e| e.to_string())?;
    let bundle = load_bundle(&path).map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!("bundle:   {}", path.display());
    println!("format:   {format}");
    println!("size:     {bytes} bytes");
    println!("classes:  {}", bundle.model.n_classes());
    println!("dim:      {}", bundle.model.dim());
    if let Some(sel) = &bundle.selection {
        println!(
            "distill:  {} of {} encoder dims kept",
            sel.len(),
            bundle.encoder.dim()
        );
    }
    println!("features: {}", bundle.encoder.n_features());
    println!("levels:   {}", bundle.encoder.levels().n_levels());
    println!("range:    {:?}", bundle.encoder.quantizer().range());
    println!("seed:     {}", bundle.encoder.seed());
    Ok(())
}
