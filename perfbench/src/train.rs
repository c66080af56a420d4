//! The training workloads, `lehdc_mnist` and `retrain_isolet`.
//!
//! Set-up is `Pipeline::build` (normalize, item memories, encode both
//! splits). The measured unit is one `Pipeline::run` call, repeated
//! identically until the run's time is up; the run reports the training
//! throughput over all its units. Both run at 1 thread, inline on the
//! calling thread, so they are timed by its CPU clock. After every unit the
//! trained model also classifies the encoded test split one query at a
//! time, which gives the printed inference latency: each query's fastest
//! pass, with p50 and p90 over the queries. Last, the trained bundle
//! classifies the raw test rows, which gives the CPU cost per request.

use std::time::Instant;

use hdc::{BinaryHv, Dim};
use hdc_datasets::{BenchmarkProfile, Dataset, TrainTest};
use lehdc::io::{load_bundle, save_bundle, ModelBundle};
use lehdc::{HdcModel, LehdcConfig, Outcome, Pipeline, RetrainConfig, Strategy};
use obs::Recorder;

use crate::report::{json_str, Report};
use crate::stats::{add_label_noise, fastest, mean, median, percentile_ms, throughput, Snapshot};
use crate::{cpu_s, peak_rss_mb, Args, CpuClock, WorkDir, DIM, LEVELS, SETUPS};

/// Fewest units a run times, however short `--seconds` is.
const MIN_UNITS: usize = 3;
/// Repeats of each unit kind in a traced run.
const TRACE_UNITS: usize = 2;
/// Timed passes over the encoded test split after every unit.
const QUERY_PASSES: usize = 10;
/// `ModelBundle::classify_all` calls over the raw test rows per run.
const CLASSIFY_PASSES: usize = 5;

/// What one training workload runs.
pub struct Spec {
    pub profile: BenchmarkProfile,
    /// Share of training labels moved to another class.
    pub label_noise: f64,
    strategy: Strategy,
    /// Epochs or iterations per unit.
    pub passes: usize,
}

impl Spec {
    pub fn for_workload(name: &str) -> Spec {
        match name {
            "lehdc_mnist" => Spec {
                profile: BenchmarkProfile::mnist().with_samples(6_000, 1_000),
                label_noise: 0.0,
                strategy: Strategy::Lehdc(LehdcConfig {
                    epochs: 5,
                    eval_every: 5,
                    threads: 1,
                    ..LehdcConfig::for_benchmark("MNIST")
                }),
                passes: 5,
            },
            "retrain_isolet" => Spec {
                profile: BenchmarkProfile::isolet(),
                label_noise: 0.1,
                strategy: Strategy::Retraining(RetrainConfig::quick()),
                passes: RetrainConfig::quick().iterations,
            },
            // The bundle the daemon serves is trained in its set-up.
            "serve_pamap" => Spec {
                profile: BenchmarkProfile::pamap(),
                label_noise: 0.0,
                strategy: Strategy::Retraining(RetrainConfig {
                    iterations: 20,
                    ..RetrainConfig::quick()
                }),
                passes: 20,
            },
            other => unreachable!("not a training workload: {other}"),
        }
    }

    /// The unit's strategy at `threads` (the LeHDC trainer takes its thread
    /// count from its config; the other strategies from the pipeline).
    pub fn strategy(&self, threads: usize) -> Strategy {
        match &self.strategy {
            Strategy::Lehdc(cfg) => Strategy::Lehdc(cfg.clone().with_threads(threads)),
            other => other.clone(),
        }
    }

    pub fn record_meta(&self, report: &mut Report) {
        let p = &self.profile;
        report.meta("profile", json_str(p.name()));
        report.meta(
            "profile_sizes",
            format!(
                "{{\"features\": {}, \"classes\": {}, \"train\": {}, \"test\": {}}}",
                p.n_features(),
                p.n_classes(),
                p.n_train(),
                p.n_test()
            ),
        );
        report.meta("label_noise_share", self.label_noise.to_string());
        report.meta("strategy", json_str(&format!("{:?}", self.strategy)));
        report.meta("passes_per_unit", self.passes.to_string());
    }
}

/// The profile's train/test pair for `seed`, with `label_noise` of the
/// training labels moved to another class (test labels stay clean).
pub fn generate(
    profile: &BenchmarkProfile,
    label_noise: f64,
    seed: u64,
) -> Result<TrainTest, String> {
    let data = profile.generate(seed).map_err(|e| e.to_string())?;
    if label_noise == 0.0 {
        return Ok(data);
    }
    let train = &data.train;
    let mut labels = train.labels().to_vec();
    add_label_noise(&mut labels, train.n_classes(), label_noise, seed);
    let noisy = Dataset::new(
        train.name(),
        train.features().to_vec(),
        labels,
        train.n_features(),
        train.n_classes(),
    )
    .map_err(|e| e.to_string())?;
    TrainTest::new(noisy, data.test).map_err(|e| e.to_string())
}

/// `Pipeline::build` at D = 10,000.
pub fn build(
    data: &TrainTest,
    seed: u64,
    threads: usize,
    rec: Recorder,
) -> Result<Pipeline, String> {
    Pipeline::builder(data)
        .dim(Dim::new(DIM))
        .levels(LEVELS)
        .seed(seed)
        .threads(threads)
        .recorder(rec)
        .build()
        .map_err(|e| e.to_string())
}

/// Runs `f` `n` times, returning the last result and every wall time.
pub fn timed<T>(
    n: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut walls = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let t = Instant::now();
        last = Some(f()?);
        walls.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("n >= 1"), walls))
}

/// Wall and calling-thread CPU time of one call, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Took {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Runs `f` once, timed by the wall clock and the calling thread's CPU
/// clock.
pub fn took<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, Took), String> {
    let (wall, cpu) = (Instant::now(), cpu_s(CpuClock::Thread));
    let out = f()?;
    let took = Took {
        wall_s: wall.elapsed().as_secs_f64(),
        cpu_s: cpu_s(CpuClock::Thread) - cpu,
    };
    Ok((out, took))
}

/// The CPU times of `took`.
pub fn cpu_of(took: &[Took]) -> Vec<f64> {
    took.iter().map(|t| t.cpu_s).collect()
}

/// The deployable bundle of a model trained in `pipeline`.
pub fn bundle_of(pipeline: &Pipeline, model: HdcModel) -> ModelBundle {
    ModelBundle {
        model,
        encoder: pipeline.encoder().clone(),
        normalizer: pipeline.normalizer().cloned(),
        selection: None,
    }
}

/// The raw rows of a split, as `ModelBundle::classify_all` takes them.
pub fn rows_of(split: &Dataset) -> Vec<Vec<f32>> {
    (0..split.len()).map(|i| split.row(i).to_vec()).collect()
}

/// Checks the trained model's inference paths against each other and
/// returns the reference predictions on the test split: the blocked batch
/// classifier, per-query classify, and the outcome's accuracy must agree.
fn reference_predictions(
    pipeline: &Pipeline,
    outcome: &Outcome,
    report: &mut Report,
) -> Vec<usize> {
    let model = outcome
        .model
        .as_ref()
        .expect("binary strategies return a model");
    let test = pipeline.encoded_test();
    let block = hdc::kernels::query_block_for(model.dim().words());
    let blocked = model.classify_all_blocked(test.hvs(), block, 1);
    let wrong = blocked
        .iter()
        .zip(test.hvs())
        .filter(|&(&p, hv)| model.classify(hv) != p)
        .count();
    report.check_many(blocked.len() as u64, wrong as u64, || {
        format!("classify_all_blocked differs from per-query classify on {wrong} test queries")
    });
    let correct = blocked
        .iter()
        .zip(test.labels())
        .filter(|(p, l)| p == l)
        .count();
    let accuracy = correct as f64 / blocked.len() as f64;
    report.check(accuracy == outcome.test_accuracy, || {
        format!(
            "outcome test accuracy {} but its model scores {accuracy}",
            outcome.test_accuracy
        )
    });
    blocked
}

/// Classifies every encoded test query with `model`, one timed call each,
/// checking every answer against `reference`. Each query's latency is
/// folded into `fastest_ms` as its minimum over the run's passes; a wrong
/// answer makes that query infinitely late for good.
fn query_pass(
    model: &HdcModel,
    queries: &[BinaryHv],
    reference: &[usize],
    fastest_ms: &mut [Option<f64>],
    report: &mut Report,
) {
    let mut wrong = 0u64;
    for ((query, &want), best) in queries.iter().zip(reference).zip(fastest_ms.iter_mut()) {
        let t = Instant::now();
        let got = model.classify(std::hint::black_box(query));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if got == want {
            *best = best.map(|b| b.min(ms));
        } else {
            wrong += 1;
            *best = None;
        }
    }
    report.check_many(queries.len() as u64, wrong, || {
        format!("{wrong} per-query classifications differ from the reference")
    });
}

/// Saves and reloads `bundle`; the loaded copy must predict `reference`.
/// Returns `(save_s, load_s, bytes)`.
fn save_load_check(
    bundle: &ModelBundle,
    rows: &[Vec<f32>],
    reference: &[usize],
    work: &WorkDir,
    report: &mut Report,
) -> Result<(f64, f64, u64), String> {
    let path = work.path("model.lehdc");
    let t = Instant::now();
    save_bundle(bundle, &path).map_err(|e| e.to_string())?;
    let save_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let loaded = load_bundle(&path).map_err(|e| e.to_string())?;
    let load_s = t.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    report.check(loaded.model == bundle.model, || {
        "the loaded model's bits differ".into()
    });
    let preds = loaded.classify_all(rows, 1).map_err(|e| e.to_string())?;
    report.check(preds == reference, || {
        "the saved-then-loaded bundle predicts differently".into()
    });
    Ok((save_s, load_s, bytes))
}

pub fn run(args: &Args, work: &WorkDir, report: &mut Report) -> Result<(), String> {
    let spec = Spec::for_workload(&args.workload);
    spec.record_meta(report);
    report.meta("threads", "1");
    report.meta("min_units", MIN_UNITS.to_string());
    let data = generate(&spec.profile, spec.label_noise, args.seed)?;
    if args.trace {
        return trace(args, &spec, &data, work, report);
    }

    let rows = rows_of(&data.test);
    let setup = || build(&data, args.seed, 1, Recorder::disabled());

    // Requests: the raw test rows through the trained bundle's batch path,
    // normalize and encode included, as the daemon answers them.
    let classify = |bundle: &ModelBundle, reference: &[usize], report: &mut Report| {
        let (preds, t) = took(|| bundle.classify_all(&rows, 1).map_err(|e| e.to_string()))?;
        let wrong = preds.iter().zip(reference).filter(|(p, r)| p != r).count();
        report.check_many(rows.len() as u64, wrong as u64, || {
            format!("{wrong} raw test rows classify differently in a batch")
        });
        Ok::<f64, String>(t.cpu_s)
    };

    // The set-ups and the request passes are spread evenly over the
    // measured window, so that they sample as many moments of the run as
    // the units do; each later set-up replaces the pipeline the units run
    // on.
    let due = |done: usize, of: usize| args.seconds.mul_f64(done as f64 / of as f64);
    let start = Instant::now();
    let (mut pipeline, first_setup) = took(setup)?;
    let mut setups = vec![first_setup];
    let mut units: Vec<Took> = Vec::new();
    let mut classify_cpu = Vec::with_capacity(CLASSIFY_PASSES);
    let mut fastest_ms = vec![Some(f64::INFINITY); rows.len()];
    let mut first: Option<(Outcome, ModelBundle, Vec<usize>)> = None;
    while units.len() < MIN_UNITS || start.elapsed() < args.seconds {
        if setups.len() < SETUPS && start.elapsed() >= due(setups.len(), SETUPS) {
            let (rebuilt, t) = took(setup)?;
            pipeline = rebuilt;
            setups.push(t);
            continue;
        }
        if let Some((_, bundle, reference)) = &first {
            if classify_cpu.len() < CLASSIFY_PASSES
                && start.elapsed() >= due(classify_cpu.len(), CLASSIFY_PASSES)
            {
                classify_cpu.push(classify(bundle, reference, report)?);
                continue;
            }
        }
        let (outcome, t) = took(|| pipeline.run(spec.strategy(1)).map_err(|e| e.to_string()))?;
        units.push(t);
        if first.is_none() {
            let reference = reference_predictions(&pipeline, &outcome, report);
            let bundle = bundle_of(&pipeline, outcome.model.clone().expect("model"));
            first = Some((outcome.clone(), bundle, reference));
        }
        let (first_outcome, bundle, reference) = first.as_ref().expect("set by the first unit");
        report.check(
            outcome.model == first_outcome.model
                && outcome.test_accuracy == first_outcome.test_accuracy,
            || {
                format!(
                    "unit {} returned other model bits or accuracy than unit 0",
                    units.len() - 1
                )
            },
        );
        for _ in 0..QUERY_PASSES {
            let queries = pipeline.encoded_test().hvs();
            query_pass(&bundle.model, queries, reference, &mut fastest_ms, report);
        }
    }
    while setups.len() < SETUPS {
        setups.push(took(setup)?.1);
    }
    let (outcome, bundle, reference) = first.expect("at least one unit ran");
    while classify_cpu.len() < CLASSIFY_PASSES {
        classify_cpu.push(classify(&bundle, &reference, report)?);
    }
    save_load_check(&bundle, &rows, &reference, work, report)?;

    let n_train = pipeline.encoded_train().len();
    let work = (spec.passes * n_train) as f64;
    let unit_walls: Vec<f64> = units.iter().map(|t| t.wall_s).collect();
    let setup_walls: Vec<f64> = setups.iter().map(|t| t.wall_s).collect();
    report.note(format!(
        "units={} wall_s={unit_walls:.3?} cpu_s={:.3?}",
        units.len(),
        cpu_of(&units)
    ));
    report.note(format!(
        "setups wall_s={setup_walls:.3?} cpu_s={:.3?}",
        cpu_of(&setups)
    ));
    report.note(format!(
        "by the wall clock: setup {:.4} s (median), training {:.1} samples/s",
        median(&setup_walls),
        throughput(work, &unit_walls)
    ));
    report.metric("setup_s", median(&cpu_of(&setups)));
    report.metric("train_samples_per_s", throughput(work, &cpu_of(&units)));
    report.metric("test_accuracy", outcome.test_accuracy);
    report.metric(
        "cpu_us_per_req",
        median(&classify_cpu) / rows.len() as f64 * 1e6,
    );
    report.shown("latency_p50_ms", percentile_ms(&fastest_ms, 0.5), "ms");
    report.shown("latency_p90_ms", percentile_ms(&fastest_ms, 0.9), "ms");
    report.metric("peak_rss_mb", peak_rss_mb());
    Ok(())
}

/// Span totals of one traced unit, read from its own recorder.
pub struct TracedUnit {
    pub wall_s: f64,
    pub spans: Snapshot,
    pub outcome: Outcome,
}

/// Sum, in seconds, of histogram `name` in `snap`.
fn span_s(snap: &Snapshot, name: &str) -> f64 {
    snap.delta(&Snapshot::default(), name).sum_s()
}

/// The traced run: encode and unit spans at 1 thread, the same calls at 2
/// threads for the scaling ratios, and an outside timer around every
/// public call the spans do not cover.
fn trace(
    args: &Args,
    spec: &Spec,
    data: &TrainTest,
    work: &WorkDir,
    report: &mut Report,
) -> Result<(), String> {
    let n_samples = (data.train.len() + data.test.len()) as f64;
    let encode_busy = |threads: usize| -> Result<(Pipeline, f64, f64), String> {
        let rec = Recorder::builder().build();
        let t = Instant::now();
        let pipeline = build(data, args.seed, threads, rec.clone())?;
        let wall = t.elapsed().as_secs_f64();
        Ok((
            pipeline,
            span_s(&Snapshot::take(&rec), "encode/corpus_ns"),
            wall,
        ))
    };
    let (mut pipeline, busy_t1, build_t1) = encode_busy(1)?;
    let (pipeline_t2, busy_t2, _) = encode_busy(2)?;
    report.metric("hdc.encode.busy_s", busy_t1);
    report.metric("hdc.encode.samples_per_s", n_samples / busy_t1);
    report.metric("hdc.encode.speedup_t2", busy_t1 / busy_t2);
    report.note(format!(
        "setup: Pipeline::build {build_t1:.3} s, encode/corpus_ns covers {:.1}%; \
         the rest ({:.3} s) is data copy, normalization and item memories",
        100.0 * busy_t1 / build_t1,
        build_t1 - busy_t1
    ));

    // Untraced and traced units at 1 thread, then untraced at 2 threads.
    pipeline.set_recorder(Recorder::disabled());
    let (plain, plain_walls) = timed(TRACE_UNITS, || {
        pipeline.run(spec.strategy(1)).map_err(|e| e.to_string())
    })?;
    let mut traced: Vec<TracedUnit> = Vec::new();
    for _ in 0..TRACE_UNITS {
        let rec = Recorder::builder().build();
        pipeline.set_recorder(rec.clone());
        let t = Instant::now();
        let outcome = pipeline.run(spec.strategy(1)).map_err(|e| e.to_string())?;
        let wall_s = t.elapsed().as_secs_f64();
        traced.push(TracedUnit {
            wall_s,
            spans: Snapshot::take(&rec),
            outcome,
        });
    }
    pipeline.set_recorder(Recorder::disabled());
    let jobs_before = threadpool::dispatched_jobs();
    let (wide, wide_walls) = timed(TRACE_UNITS, || {
        pipeline_t2.run(spec.strategy(2)).map_err(|e| e.to_string())
    })?;
    let jobs = (threadpool::dispatched_jobs() - jobs_before) as f64 / TRACE_UNITS as f64;
    for (what, other) in [
        ("recorder on", &traced[0].outcome),
        ("recorder on (repeat)", &traced[1].outcome),
        ("2 threads", &wide),
    ] {
        report.check(
            other.model == plain.model && other.test_accuracy == plain.test_accuracy,
            || format!("the unit with {what} returned other model bits or accuracy"),
        );
    }

    let best = &traced[fastest(&traced.iter().map(|u| u.wall_s).collect::<Vec<_>>())];
    let plain_best = plain_walls.iter().copied().fold(f64::INFINITY, f64::min);
    let wide_best = wide_walls.iter().copied().fold(f64::INFINITY, f64::min);
    report.metric("core.trainer.speedup_t2", plain_best / wide_best);
    report.metric("threadpool.jobs", jobs);
    report.metric(
        "trace.overhead_share",
        (best.wall_s - plain_best) / plain_best,
    );
    let gaps = unit_spans(spec, &pipeline, best, report);
    record_gaps(report, &gaps, best.wall_s);

    // Inference and persistence, timed from outside.
    let reference = reference_predictions(&pipeline, &plain, report);
    let model = plain.model.clone().expect("model");
    let queries = pipeline.encoded_test().hvs();
    let block = hdc::kernels::query_block_for(model.dim().words());
    let (_, classify_walls) = timed(5, || {
        let preds = model.classify_all_blocked(queries, block, 1);
        Ok(std::hint::black_box(preds))
    })?;
    report.metric(
        "core.model.classify_queries_per_s",
        queries.len() as f64 / classify_walls.iter().copied().fold(f64::INFINITY, f64::min),
    );
    let bundle = bundle_of(&pipeline, model);
    let (save_s, load_s, bytes) =
        save_load_check(&bundle, &rows_of(&data.test), &reference, work, report)?;
    report.metric("core.io.save_s", save_s);
    report.metric("core.io.load_s", load_s);
    report.metric("core.io.bundle_bytes", bytes as f64);
    report.metric("core.model.distill_s", 0.0);
    record_idle_serve(report);
    Ok(())
}

/// Records the traced unit's layer spans and returns the unit's gaps:
/// `(description, seconds)` of the time no leaf span covers.
pub fn unit_spans(
    spec: &Spec,
    pipeline: &Pipeline,
    unit: &TracedUnit,
    report: &mut Report,
) -> Vec<(String, f64)> {
    let s = &unit.spans;
    let (lehdc, engine) = match spec.strategy {
        Strategy::Lehdc(_) => (true, false),
        _ => (false, true),
    };
    let pick = |on: bool, name: &str| if on { span_s(s, name) } else { 0.0 };
    let forward = pick(lehdc, "train/forward_ns");
    let backward = pick(lehdc, "train/backward_ns");
    let optimizer = pick(lehdc, "train/optimizer_ns");
    let assembly = pick(lehdc, "train/assembly_ns");
    let train_eval = pick(lehdc, "train/eval_ns");
    let classify = pick(engine, "strategy/classify_ns");
    let update = pick(engine, "strategy/update_ns");
    let binarize = pick(engine, "strategy/binarize_ns");
    let engine_eval = pick(engine, "strategy/eval_ns");
    report.metric("binnet.forward_s", forward);
    report.metric("binnet.backward_s", backward);
    report.metric("binnet.optimizer_s", optimizer);
    report.metric("core.trainer.assembly_s", assembly);
    report.metric("core.trainer.eval_s", train_eval);
    report.metric(
        "core.trainer.batches",
        if lehdc {
            s.delta(&Snapshot::default(), "train/batches").count as f64
        } else {
            0.0
        },
    );
    report.metric("core.engine.classify_s", classify);
    report.metric("core.engine.update_s", update);
    report.metric("core.engine.binarize_s", binarize);
    report.metric("core.engine.eval_s", engine_eval);
    let misclassified: Vec<f64> = unit
        .outcome
        .history
        .records()
        .iter()
        .map(|r| 1.0 - r.train_accuracy)
        .collect();
    report.metric(
        "core.engine.update_share",
        if engine { mean(&misclassified) } else { 0.0 },
    );

    let leaves = forward
        + backward
        + optimizer
        + assembly
        + train_eval
        + classify
        + update
        + binarize
        + engine_eval;
    let epochs = span_s(
        s,
        if lehdc {
            "train/epoch_ns"
        } else {
            "strategy/epoch_ns"
        },
    );
    report.metric("core.trainer.self_s", unit.wall_s - leaves);
    report.metric("trace.coverage", leaves / unit.wall_s);

    // Pipeline::run ends by scoring the model on both splits; no span
    // covers that, so it is re-timed here from outside.
    let model = unit.outcome.model.as_ref().expect("model");
    let t = Instant::now();
    let train = pipeline.encoded_train();
    let test = pipeline.encoded_test();
    std::hint::black_box(model.accuracy_threaded(train.hvs(), train.labels(), 1));
    std::hint::black_box(model.accuracy_threaded(test.hvs(), test.labels(), 1));
    let outcome_eval = t.elapsed().as_secs_f64();
    let (trainer, before) = if lehdc {
        (
            "train_lehdc_recorded",
            "warm start from per-bit class sums, model extraction",
        )
    } else {
        ("train_retraining_recorded", "class sums and first binarize")
    };
    vec![
        (
            format!("{trainer} outside its epoch spans ({before})"),
            (unit.wall_s - epochs - outcome_eval).max(0.0),
        ),
        (
            format!("{trainer} epochs outside their leaf spans"),
            (epochs - leaves).max(0.0),
        ),
        (
            "Pipeline::run outcome scoring on both splits (re-timed outside)".into(),
            outcome_eval,
        ),
    ]
}

/// Names the largest gap and records its size.
pub fn record_gaps(report: &mut Report, gaps: &[(String, f64)], wall_s: f64) {
    for (what, s) in gaps {
        report.note(format!(
            "gap {s:.4} s ({:.1}% of {wall_s:.3} s): {what}",
            100.0 * s / wall_s
        ));
    }
    let (name, largest) = gaps
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .cloned()
        .unwrap_or_default();
    report.note(format!(
        "largest unattributed call: {name} ({largest:.4} s)"
    ));
    report.metric("trace.largest_gap_s", largest);
}

/// The serving layers do no work in a training workload.
fn record_idle_serve(report: &mut Report) {
    for (name, _) in crate::report::PER_LAYER {
        if name.starts_with("serve.") || name.starts_with("loadgen.") {
            report.metric(name, 0.0);
        }
    }
}
