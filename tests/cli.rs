//! End-to-end tests of the `lehdc_cli` binary: train on a CSV, inspect,
//! evaluate, and predict through real process invocations.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lehdc_cli"))
}

/// Writes a small, cleanly separable 3-class CSV and returns its path.
fn write_csv(name: &str, with_labels: bool, rows: usize) -> PathBuf {
    let dir = std::env::temp_dir().join("lehdc_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut text = String::new();
    for i in 0..rows {
        let label = i % 3;
        let base = label as f32 * 0.8;
        let jitter = ((i * 7919) % 100) as f32 / 1000.0;
        let features = format!(
            "{:.4},{:.4},{:.4},{:.4}",
            base + jitter,
            base + 0.1 - jitter,
            2.0 - base + jitter,
            base * 0.5 + jitter
        );
        if with_labels {
            text.push_str(&format!("{label},{features}\n"));
        } else {
            text.push_str(&format!("{features}\n"));
        }
    }
    std::fs::write(&path, text).unwrap();
    path
}

fn model_path(name: &str) -> PathBuf {
    std::env::temp_dir().join("lehdc_cli_tests").join(name)
}

#[test]
fn train_eval_predict_roundtrip() {
    let train_csv = write_csv("train.csv", true, 240);
    let model = model_path("roundtrip.lehdc");

    let out = cli()
        .args(["train", "--data"])
        .arg(&train_csv)
        .args(["--out"])
        .arg(&model)
        .args(["--dim", "512", "--epochs", "10"])
        .output()
        .unwrap();
    assert!(out.status.success(), "train failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("LeHDC"), "train output: {stdout}");

    // info reports the persisted configuration
    let out = cli().args(["info", "--model"]).arg(&model).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("classes:  3"), "info output: {stdout}");
    assert!(stdout.contains("dim:      512"), "info output: {stdout}");

    // eval on the training file reports high accuracy
    let out = cli()
        .args(["eval", "--model"])
        .arg(&model)
        .args(["--data"])
        .arg(&train_csv)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let acc_line = stdout.lines().find(|l| l.starts_with("accuracy")).unwrap();
    let pct: f64 = acc_line
        .split(['m', '%'])
        .next()
        .unwrap()
        .trim_start_matches("accuracy:")
        .trim()
        .parse()
        .unwrap();
    assert!(pct > 90.0, "eval accuracy too low: {acc_line}");

    // predict emits one class per feature row
    let feats_csv = write_csv("features.csv", false, 6);
    let out = cli()
        .args(["predict", "--model"])
        .arg(&model)
        .args(["--data"])
        .arg(&feats_csv)
        .output()
        .unwrap();
    assert!(out.status.success());
    let predictions: Vec<usize> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| l.trim().parse().unwrap())
        .collect();
    assert_eq!(predictions.len(), 6);
    assert_eq!(predictions, vec![0, 1, 2, 0, 1, 2]);
}

#[test]
fn unknown_commands_and_missing_flags_fail_cleanly() {
    let out = cli().arg("bogus").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = cli().arg("train").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--data is required"));

    let out = cli().output().unwrap();
    assert!(!out.status.success(), "no args prints usage and exits 2");
}

#[test]
fn eval_rejects_feature_count_mismatch() {
    let train_csv = write_csv("train_mismatch.csv", true, 120);
    let model = model_path("mismatch.lehdc");
    let out = cli()
        .args(["train", "--data"])
        .arg(&train_csv)
        .args(["--out"])
        .arg(&model)
        .args(["--dim", "256", "--epochs", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());

    // a CSV with a different feature count must be rejected with a message
    let dir = std::env::temp_dir().join("lehdc_cli_tests");
    let bad = dir.join("bad.csv");
    std::fs::write(&bad, "0,1.0,2.0\n").unwrap();
    let out = cli()
        .args(["eval", "--model"])
        .arg(&model)
        .args(["--data"])
        .arg(&bad)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("features"));
}

#[test]
fn eval_rejects_non_finite_features() {
    let train_csv = write_csv("train_nonfinite.csv", true, 60);
    let model = model_path("nonfinite.lehdc");
    let out = cli()
        .args(["train", "--data"])
        .arg(&train_csv)
        .args(["--out"])
        .arg(&model)
        .args(["--dim", "256", "--epochs", "2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "train failed: {out:?}");

    // NaN and inf cannot be quantized: eval must reject them as predict
    // does, not score them.
    let bad = model_path("nonfinite.csv");
    std::fs::write(
        &bad,
        "0,0.1,0.2,2.0,0.05\n1,NaN,0.9,1.2,0.4\n2,1.6,inf,0.4,0.8\n",
    )
    .unwrap();
    let out = cli()
        .args(["eval", "--model"])
        .arg(&model)
        .args(["--data"])
        .arg(&bad)
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "eval scored non-finite rows: {out:?}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("row 1: feature 0 is not finite"),
        "stderr: {stderr}"
    );
}

#[test]
fn unknown_flags_are_rejected_per_subcommand() {
    let train_csv = write_csv("train_flags.csv", true, 30);
    let model = model_path("flags.lehdc");

    // A flag valid for train is rejected by info, and a typo is rejected
    // with the subcommand's allowlist in the message.
    for (args, bad) in [
        (vec!["train", "--data", "x.csv", "--out", "y", "--holdouts", "0.3"], "--holdouts"),
        (vec!["eval", "--model", "m", "--data", "x.csv", "--strategy", "lehdc"], "--strategy"),
        (vec!["predict", "--model", "m", "--data", "x.csv", "--epochs", "3"], "--epochs"),
        (vec!["info", "--model", "m", "--data", "x.csv"], "--data"),
        (vec!["convert", "--model", "m", "--out", "o", "--format", "legacy"], "--format"),
        (vec!["convert", "--model", "m", "--out", "o", "--compression", "packed"], "--compression"),
    ] {
        let out = cli().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {bad}")),
            "{args:?} stderr: {stderr}"
        );
        assert!(stderr.contains("expected one of"), "stderr: {stderr}");
    }

    // Known flags still parse end-to-end.
    let out = cli()
        .args(["train", "--data"])
        .arg(&train_csv)
        .args(["--out"])
        .arg(&model)
        .args(["--dim", "256", "--epochs", "2", "--threads", "2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "train failed: {out:?}");
}

/// Extracts "holdout split: T train / E test samples" from train stdout.
fn split_sizes(stdout: &str) -> (usize, usize) {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("holdout split:"))
        .unwrap_or_else(|| panic!("no split line in: {stdout}"));
    let nums: Vec<usize> = line
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .collect();
    (nums[0], nums[1])
}

#[test]
fn holdout_honors_large_fractions_and_tiny_datasets() {
    let model = model_path("holdout.lehdc");

    // --holdout 0.8 used to cap near 50%; it must now hold out 80%.
    let train_csv = write_csv("train_holdout.csv", true, 120);
    let out = cli()
        .args(["train", "--data"])
        .arg(&train_csv)
        .args(["--out"])
        .arg(&model)
        .args(["--dim", "256", "--epochs", "2", "--holdout", "0.8"])
        .output()
        .unwrap();
    assert!(out.status.success(), "train failed: {out:?}");
    assert_eq!(split_sizes(&String::from_utf8_lossy(&out.stdout)), (24, 96));

    // Tiny n: both sides of the split stay non-empty and disjoint. With
    // --holdout 0 the old fallback reused a train index as the test index;
    // now one sample moves wholesale to the test side.
    let tiny_csv = write_csv("train_tiny.csv", true, 6);
    let out = cli()
        .args(["train", "--data"])
        .arg(&tiny_csv)
        .args(["--out"])
        .arg(&model)
        .args(["--dim", "128", "--epochs", "1", "--holdout", "0.0"])
        .output()
        .unwrap();
    assert!(out.status.success(), "tiny holdout 0.0 failed: {out:?}");
    assert_eq!(split_sizes(&String::from_utf8_lossy(&out.stdout)), (5, 1));

    // An extreme holdout on a tiny dataset honors the fraction (1/5, not a
    // capped 50%) and then fails cleanly when a class loses all coverage —
    // it never silently shrinks the test side.
    let out = cli()
        .args(["train", "--data"])
        .arg(&tiny_csv)
        .args(["--out"])
        .arg(&model)
        .args(["--dim", "128", "--epochs", "1", "--holdout", "0.9"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert_eq!(split_sizes(&String::from_utf8_lossy(&out.stdout)), (1, 5));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no training samples"),
        "expected class-coverage diagnostic: {out:?}"
    );

    // A single sample cannot be split at all.
    let one_csv = write_csv("train_one.csv", true, 1);
    let out = cli()
        .args(["train", "--data"])
        .arg(&one_csv)
        .args(["--out"])
        .arg(&model)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("at least 2 samples"));
}

#[test]
fn metrics_recording_emits_json_lines_without_changing_the_model() {
    let train_csv = write_csv("train_metrics.csv", true, 120);
    let plain_model = model_path("metrics_plain.lehdc");
    let recorded_model = model_path("metrics_rec.lehdc");
    let jsonl = model_path("metrics.jsonl");

    let base = |model: &PathBuf| {
        let mut c = cli();
        c.args(["train", "--data"])
            .arg(&train_csv)
            .args(["--out"])
            .arg(model)
            .args(["--dim", "256", "--epochs", "3", "--seed", "5", "--threads", "2"]);
        c
    };
    let out = base(&plain_model).output().unwrap();
    assert!(out.status.success(), "plain train failed: {out:?}");
    let out = base(&recorded_model)
        .args(["--verbose", "--metrics-out"])
        .arg(&jsonl)
        .output()
        .unwrap();
    assert!(out.status.success(), "recorded train failed: {out:?}");

    // Instrumentation must not perturb training: identical artifacts.
    assert_eq!(
        std::fs::read(&plain_model).unwrap(),
        std::fs::read(&recorded_model).unwrap(),
        "recorder changed the saved bundle"
    );

    // --verbose echoes per-epoch spans to stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[obs] train_epoch"), "stderr: {stderr}");
    assert!(stderr.contains("samples_per_sec="), "stderr: {stderr}");

    // Every emitted line is a flat JSON object, and the run covers epoch
    // spans, encode/classify throughput, and pool dispatch stats.
    let text = std::fs::read_to_string(&jsonl).unwrap();
    let mut events = Vec::new();
    for line in text.lines() {
        lehdc_suite::obs::validate_json_line(line)
            .unwrap_or_else(|e| panic!("bad JSON line {line:?}: {e}"));
        let event = line
            .split('"')
            .nth(3)
            .unwrap_or_else(|| panic!("no event field in {line:?}"))
            .to_string();
        events.push(event);
    }
    for expected in ["train_epoch", "encode", "strategy_run", "pool", "pool_totals", "metric"] {
        assert!(
            events.iter().any(|e| e == expected),
            "missing event {expected:?} in {events:?}"
        );
    }
    assert_eq!(events.iter().filter(|e| *e == "train_epoch").count(), 3);
}

#[test]
fn baseline_strategy_trains_too() {
    let train_csv = write_csv("train_base.csv", true, 90);
    let model = model_path("baseline.lehdc");
    let out = cli()
        .args(["train", "--data"])
        .arg(&train_csv)
        .args(["--out"])
        .arg(&model)
        .args(["--dim", "256", "--strategy", "baseline"])
        .output()
        .unwrap();
    assert!(out.status.success(), "baseline train failed: {out:?}");
    assert!(model.exists());
}
