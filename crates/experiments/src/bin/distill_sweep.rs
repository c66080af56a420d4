//! Accuracy-vs-dimension-vs-bytes sweep for **distilled deployment
//! models**: train once at full width, then shrink the model to a ladder of
//! sub-D dimensions via [`HdcModel::distill`](lehdc::HdcModel::distill) and report, for each rung,
//! the held-out accuracy and the serialized (`LHDC` container) size.
//!
//! The headline this sweep exists to check: a distilled model at
//! **D ≤ 2000 stays within 2 percentage points of the full D=10,000
//! parent** while shipping a fraction of the bytes. The run prints one
//! JSON object to stdout (machine-checkable — `scripts/check.sh` greps
//! `"headline_ok": true`) and a human-readable table to stderr.
//!
//! ```text
//! cargo run --release -p lehdc-experiments --bin distill_sweep
//! ```
//!
//! `--full` trains with the paper-scale profile; the default quick profile
//! keeps the sweep in CI time.

use hdc::{BinaryHv, Dim};
use hdc_datasets::BenchmarkProfile;
use lehdc::io::{write_bundle, ModelBundle};
use lehdc::{project_dims, Pipeline, Strategy};
use lehdc_experiments::Options;

/// The dimension ladder, largest first. The last (largest) rung is the
/// parent itself — distillation at full width is an identity check.
const LADDER: [usize; 5] = [10_000, 4_000, 2_000, 1_000, 500];

/// Headline gate: some rung at D ≤ 2000 must be within this many
/// percentage points of the parent's accuracy.
const HEADLINE_MAX_LOSS: f64 = 2.0;
const HEADLINE_MAX_DIM: usize = 2_000;

fn serialized_bytes(bundle: &ModelBundle) -> usize {
    let mut buf = Vec::new();
    write_bundle(bundle, &mut buf).expect("in-memory serialize");
    buf.len()
}

fn main() {
    let mut opts = Options::from_env();
    // The sweep's reference point is the paper-scale D=10,000 parent; the
    // profile (and therefore the dataset) still follows --full.
    opts.dim = LADDER[0];
    let profile = if opts.full {
        BenchmarkProfile::ucihar()
    } else {
        BenchmarkProfile::ucihar().quick()
    };
    eprintln!(
        "distill sweep — {} profile, parent D={}",
        profile.name(),
        opts.dim
    );

    let data = profile.generate(opts.seeds).expect("profile generation");
    let pipeline = Pipeline::builder(&data)
        .dim(Dim::new(opts.dim))
        .seed(opts.seeds)
        .threads(opts.threads)
        .recorder(opts.recorder())
        .build()
        .expect("pipeline build");
    let outcome = pipeline
        .run(Strategy::retraining_quick())
        .expect("training run");
    let model = outcome.model.expect("retraining produces a binary model");
    let parent = ModelBundle {
        model,
        encoder: pipeline.encoder().clone(),
        normalizer: pipeline.normalizer().cloned(),
        selection: None,
    };

    let test = pipeline.encoded_test();
    let labels = test.labels();
    let parent_acc = parent
        .model
        .accuracy_threaded(test.hvs(), labels, opts.threads)
        * 100.0;

    eprintln!("{:>7}  {:>9}  {:>11}  {:>8}", "D", "acc %", "bytes", "loss pp");
    let mut rungs = Vec::new();
    let mut headline_ok = false;
    for &d in &LADDER {
        let (bundle, acc) = if d == parent.model.dim().get() {
            (parent.clone(), parent_acc)
        } else {
            let distilled = parent.distill(d).expect("distill");
            let sel = distilled.selection.as_ref().expect("sub-D selection");
            // Project the already-encoded test set instead of re-encoding:
            // bit-identical to what a deployed distilled bundle computes.
            let queries: Vec<BinaryHv> =
                test.hvs().iter().map(|hv| project_dims(hv, sel)).collect();
            let acc = distilled
                .model
                .accuracy_threaded(&queries, labels, opts.threads)
                * 100.0;
            (distilled, acc)
        };
        let bytes = serialized_bytes(&bundle);
        let loss = parent_acc - acc;
        if d <= HEADLINE_MAX_DIM && loss <= HEADLINE_MAX_LOSS {
            headline_ok = true;
        }
        eprintln!("{d:>7}  {acc:>9.2}  {bytes:>11}  {loss:>8.2}");
        let rung = format!(
            "{{\"dim\": {d}, \"accuracy_pct\": {acc:.4}, \"bytes\": {bytes}, \"loss_pp\": {loss:.4}}}"
        );
        // The composite line nests these in an array, which the scalar-only
        // obs validator doesn't cover — so validate each rung on its own.
        obs::validate_json_line(&rung).expect("rung JSON must be valid");
        rungs.push(rung);
    }

    let json = format!(
        "{{\"experiment\": \"distill_sweep\", \"profile\": \"{}\", \"parent_dim\": {}, \"parent_accuracy_pct\": {parent_acc:.4}, \"headline_max_dim\": {HEADLINE_MAX_DIM}, \"headline_max_loss_pp\": {HEADLINE_MAX_LOSS}, \"headline_ok\": {headline_ok}, \"rungs\": [{}]}}",
        profile.name(),
        LADDER[0],
        rungs.join(", ")
    );
    println!("{json}");
    if !headline_ok {
        eprintln!(
            "headline FAILED: no rung at D<={HEADLINE_MAX_DIM} within {HEADLINE_MAX_LOSS} pp of parent"
        );
        std::process::exit(1);
    }
}
