//! Hypervector kernel microbenchmarks: bind, Hamming distance, bundling,
//! rotation, and the packed-vs-dense matrix products of the trainer's hot
//! path.
//!
//! These are the primitive costs behind every number in the paper — in
//! particular the claim that inference is a handful of XOR+popcount passes,
//! and this PR's claim that the packed forward product beats the dense
//! `f32` matmul by ≥ 4× at D = 10,000.

use binnet::{packed_matmul, packed_matmul_masked, Dropout, Matrix, PackedMatrix};
use hdc::{Accumulator, Dim};
use lehdc_bench::random_pair;
use std::hint::black_box;
use testkit::bench::{Bench, BenchmarkId, Throughput};
use testkit::{Rng, Xoshiro256pp};
use threadpool::ThreadPool;

const DIMS: &[usize] = &[1024, 4096, 10_000];

/// Batch/class shape of the forward benchmarks (≈ one trainer mini-batch).
const FWD_BATCH: usize = 64;
const FWD_CLASSES: usize = 10;

fn bench_bind(c: &mut Bench) {
    let mut group = c.benchmark_group("bind");
    for &d in DIMS {
        let (a, b) = random_pair(d);
        group.throughput(Throughput::Elements(d as u64));
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |bencher, _| {
            bencher.iter(|| black_box(a.bind(black_box(&b))));
        });
    }
    group.finish();
}

fn bench_hamming(c: &mut Bench) {
    let mut group = c.benchmark_group("hamming");
    for &d in DIMS {
        let (a, b) = random_pair(d);
        group.throughput(Throughput::Elements(d as u64));
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |bencher, _| {
            bencher.iter(|| black_box(a.hamming(black_box(&b))));
        });
    }
    group.finish();
}

fn bench_threshold(c: &mut Bench) {
    let mut group = c.benchmark_group("bundle_threshold");
    for &d in DIMS {
        let (a, b) = random_pair(d);
        let mut acc = Accumulator::new(Dim::new(d));
        for _ in 0..5 {
            acc.add(&a);
            acc.add(&b);
        }
        acc.add(&a);
        let mut rng = hdc::rng::rng_for(9, 9);
        group.throughput(Throughput::Elements(d as u64));
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |bencher, _| {
            bencher.iter(|| black_box(acc.threshold(&mut rng)));
        });
    }
    group.finish();
}

fn bench_rotate(c: &mut Bench) {
    let mut group = c.benchmark_group("rotate");
    for &d in DIMS {
        let (a, _) = random_pair(d);
        group.throughput(Throughput::Elements(d as u64));
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |bencher, _| {
            bencher.iter(|| black_box(a.rotated(black_box(17))));
        });
    }
    group.finish();
}

/// A bipolar batch and sign weights for the forward-product comparisons.
fn forward_fixture(d: usize) -> (Matrix, Matrix, PackedMatrix, PackedMatrix) {
    let mut rng = Xoshiro256pp::seed_from_u64(0xF0 + d as u64);
    let x = binnet::layer::random_sign_matrix(FWD_BATCH, d, &mut rng);
    let w = binnet::layer::random_sign_matrix(d, FWD_CLASSES, &mut rng);
    let px = x.pack_bipolar().expect("bipolar by construction");
    let pw = PackedMatrix::from_sign_columns(&w);
    (x, w, px, pw)
}

/// The headline comparison: dense `f32` matmul vs the packed XNOR/popcount
/// product on the same bipolar operands (B=64, K=10). The acceptance
/// criterion is `forward/f32/10000 ≥ 4 × forward/packed/10000`.
fn bench_forward(c: &mut Bench) {
    let mut group = c.benchmark_group("forward");
    for &d in DIMS {
        let (x, w, px, pw) = forward_fixture(d);
        let pool = ThreadPool::new(1);
        group.throughput(Throughput::Elements((FWD_BATCH * d) as u64));
        group.bench_with_input(BenchmarkId::new("f32", d), &d, |bencher, _| {
            bencher.iter(|| black_box(x.matmul(black_box(&w)).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("packed", d), &d, |bencher, _| {
            bencher.iter(|| black_box(packed_matmul(black_box(&px), &pw, &pool).unwrap()));
        });
    }
    group.finish();
}

/// Masked (dropout) forward: per-batch bit mask vs zeroed-f32 reference.
fn bench_forward_masked(c: &mut Bench) {
    let mut group = c.benchmark_group("forward_masked");
    let d = 10_000;
    let (x, w, px, pw) = forward_fixture(d);
    let mut dropout = Dropout::new(0.5, 0xD).unwrap();
    let mask = dropout.sample_mask(d).unwrap();
    let mut x_ref = x.clone();
    mask.apply_to_matrix(&mut x_ref);
    let pool = ThreadPool::new(1);
    group.throughput(Throughput::Elements((FWD_BATCH * d) as u64));
    group.bench_with_input(BenchmarkId::new("f32", d), &d, |bencher, _| {
        bencher.iter(|| black_box(x_ref.matmul(black_box(&w)).unwrap()));
    });
    group.bench_with_input(BenchmarkId::new("packed", d), &d, |bencher, _| {
        bencher.iter(|| black_box(packed_matmul_masked(black_box(&px), &pw, &mask, &pool).unwrap()));
    });
    group.finish();
}

/// Worker widths for the thread-scaling groups. With the persistent pool,
/// extra widths cost only parked threads, so the scaling curve is cheap to
/// record even on single-core hosts (where all widths should coincide:
/// the submitting thread claims every chunk itself).
const SCALING_THREADS: &[usize] = &[1, 2, 4];

/// Gradient product `Xᵀ·G` across pool widths (identical results; the gap
/// is the persistent-pool speedup on multi-core hosts).
fn bench_transpose_threads(c: &mut Bench) {
    let mut group = c.benchmark_group("transpose_matmul");
    let d = 10_000;
    let mut rng = Xoshiro256pp::seed_from_u64(0x7A);
    let x = binnet::layer::random_sign_matrix(FWD_BATCH, d, &mut rng);
    let mut g = Matrix::zeros(FWD_BATCH, FWD_CLASSES);
    g.map_inplace(|_| rng.random_range(-1.0f32..1.0));
    for &threads in SCALING_THREADS {
        let pool = ThreadPool::new(threads);
        group.throughput(Throughput::Elements((FWD_BATCH * d) as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("threads{threads}"), d),
            &d,
            |bencher, _| {
                bencher.iter(|| black_box(x.transpose_matmul_pooled(black_box(&g), &pool).unwrap()));
            },
        );
    }
    group.finish();
}

/// The packed backward gradient `Gᵀ·X` (class-major, from bit-packed
/// activations) across pool widths — the product the LeHDC trainer runs
/// once per mini-batch.
fn bench_backward_threads(c: &mut Bench) {
    let mut group = c.benchmark_group("backward");
    let d = 10_000;
    let (_, _, px, _) = forward_fixture(d);
    let mut rng = Xoshiro256pp::seed_from_u64(0xB4);
    let mut g = Matrix::zeros(FWD_BATCH, FWD_CLASSES);
    g.map_inplace(|_| rng.random_range(-1.0f32..1.0));
    for &threads in SCALING_THREADS {
        let pool = ThreadPool::new(threads);
        group.throughput(Throughput::Elements((FWD_BATCH * d) as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("threads{threads}"), d),
            &d,
            |bencher, _| {
                bencher.iter(|| {
                    black_box(
                        binnet::packed_transpose_matmul(black_box(&px), &g, None, &pool).unwrap(),
                    )
                });
            },
        );
    }
    group.finish();
}

/// Record-encoding a small corpus across pool widths: the per-sample fan-out
/// of `encode_all`, which bundles `n_features` bound hypervectors per row.
fn bench_encode_threads(c: &mut Bench) {
    let mut group = c.benchmark_group("encode");
    let d = 10_000;
    let n_features = 32;
    let n_samples = 16;
    let enc = hdc::RecordEncoder::builder(Dim::new(d), n_features)
        .seed(0xE2)
        .build()
        .expect("valid encoder config");
    let mut rng = Xoshiro256pp::seed_from_u64(0xE3);
    let corpus: Vec<f32> = (0..n_samples * n_features)
        .map(|_| rng.random_range(0.0f32..1.0))
        .collect();
    for &threads in SCALING_THREADS {
        group.throughput(Throughput::Elements((n_samples * n_features) as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("threads{threads}"), d),
            &d,
            |bencher, _| {
                use hdc::Encode;
                bencher.iter(|| black_box(enc.encode_all(black_box(&corpus), threads).unwrap()));
            },
        );
    }
    group.finish();
}

/// Single-sample record encoding (paper Eq. 1) at the MNIST-shaped
/// `D = 10,000 × 784` features — the per-request cost of the serve path.
/// One encode is `n_features` fused bind-accumulates into a fresh
/// accumulator, grouped by `Accumulator::add_bound_many`, plus one majority
/// threshold, so its cost tracks the grouped carry-save tree directly.
fn bench_record_encode(c: &mut Bench) {
    let mut group = c.benchmark_group("record_encode");
    group.sample_size(10);
    for &(d, n) in &[(10_000usize, 784usize), (1024, 64)] {
        let (encoder, sample) = lehdc_bench::encoder_and_sample(d, n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("D{d}_N{n}")),
            &d,
            |bencher, _| {
                use hdc::Encode;
                bencher.iter(|| black_box(encoder.encode(black_box(&sample)).unwrap()));
            },
        );
    }
    group.finish();
}

/// Batch classification across pool widths.
fn bench_classify_threads(c: &mut Bench) {
    let mut group = c.benchmark_group("classify_all");
    let d = 10_000;
    let mut rng = Xoshiro256pp::seed_from_u64(0xC1);
    let dim = Dim::new(d);
    let class_hvs: Vec<hdc::BinaryHv> = (0..FWD_CLASSES)
        .map(|_| hdc::BinaryHv::random(dim, &mut rng))
        .collect();
    let model = lehdc::HdcModel::new(class_hvs).unwrap();
    let queries: Vec<hdc::BinaryHv> = (0..256)
        .map(|_| hdc::BinaryHv::random(dim, &mut rng))
        .collect();
    for &threads in SCALING_THREADS {
        group.throughput(Throughput::Elements(queries.len() as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("threads{threads}"), d),
            &d,
            |bencher, _| {
                bencher.iter(|| {
                    black_box(model.classify_all_blocked(
                        black_box(&queries),
                        hdc::kernels::QUERY_BLOCK,
                        threads,
                    ))
                });
            },
        );
    }
    group.finish();
}

/// Query-blocked batch classification across block sizes at the paper's
/// `D = 10,000`: block 1 is the old stream-every-class-per-query access
/// pattern; [`QUERY_BLOCK`](hdc::kernels::QUERY_BLOCK)-sized and larger
/// blocks stream each class row once per block. Results are bit-identical
/// across all of them (see `core/tests/classify_blocked.rs`); only the
/// memory traffic differs.
fn bench_classify_blocked(c: &mut Bench) {
    let mut group = c.benchmark_group("classify_blocked");
    let d = 10_000;
    let mut rng = Xoshiro256pp::seed_from_u64(0xC2);
    let dim = Dim::new(d);
    let class_hvs: Vec<hdc::BinaryHv> = (0..FWD_CLASSES)
        .map(|_| hdc::BinaryHv::random(dim, &mut rng))
        .collect();
    let model = lehdc::HdcModel::new(class_hvs).unwrap();
    let queries: Vec<hdc::BinaryHv> = (0..256)
        .map(|_| hdc::BinaryHv::random(dim, &mut rng))
        .collect();
    for &block in &[1usize, 8, hdc::kernels::QUERY_BLOCK, 256] {
        group.throughput(Throughput::Elements(queries.len() as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("block{block}"), d),
            &d,
            |bencher, _| {
                bencher.iter(|| {
                    black_box(model.classify_all_blocked(black_box(&queries), block, 1))
                });
            },
        );
    }
    group.finish();
}

/// The trainer's per-batch hot path, zero-alloc variant: the packed
/// backward product into the class-major `K×D` gradient, the fused Adam +
/// repack update, and the full fused step (forward → loss → backward →
/// update), all in reused scratch buffers. `full` is the number the training-time
/// claims rest on: it should beat the sum of a separate backward +
/// apply-gradient pair because the fused update makes one pool fan-out and
/// repacks only in place.
fn bench_train_step(c: &mut Bench) {
    use binnet::{Adam, BinaryLinear};

    let mut group = c.benchmark_group("train_step");
    for &d in &[1024usize, 10_000] {
        let mut rng = Xoshiro256pp::seed_from_u64(0x75 + d as u64);
        let x = binnet::layer::random_sign_matrix(FWD_BATCH, d, &mut rng);
        let px = x.pack_bipolar().expect("bipolar by construction");
        let labels: Vec<usize> = (0..FWD_BATCH).map(|i| i % FWD_CLASSES).collect();
        let mut dlogits = Matrix::zeros(FWD_BATCH, FWD_CLASSES);
        dlogits.map_inplace(|_| rng.random_range(-1.0f32..1.0));
        for &threads in SCALING_THREADS {
            let mut layer = BinaryLinear::new(d, FWD_CLASSES, 3).with_threads(threads);
            let pool = ThreadPool::new(threads);
            let mut grad = Matrix::zeros(FWD_CLASSES, d);
            group.throughput(Throughput::Elements((FWD_BATCH * d) as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("backward/threads{threads}"), d),
                &d,
                |bencher, _| {
                    bencher.iter(|| {
                        binnet::packed_transpose_matmul_into(
                            black_box(&px),
                            &dlogits,
                            None,
                            &pool,
                            &mut grad,
                        )
                        .unwrap();
                        black_box(grad.as_slice()[0])
                    });
                },
            );
            let mut opt = Adam::new(1e-4).weight_decay(0.01);
            group.bench_with_input(
                BenchmarkId::new(format!("apply_gradient/threads{threads}"), d),
                &d,
                |bencher, _| {
                    bencher.iter(|| {
                        layer.apply_gradient_fused(black_box(&grad), &mut opt, None);
                        black_box(layer.latent().as_slice()[0])
                    });
                },
            );
            let mut logits = Matrix::zeros(FWD_BATCH, FWD_CLASSES);
            let mut dl = Matrix::zeros(FWD_BATCH, FWD_CLASSES);
            let mut full_opt = Adam::new(1e-4).weight_decay(0.01);
            group.bench_with_input(
                BenchmarkId::new(format!("full/threads{threads}"), d),
                &d,
                |bencher, _| {
                    bencher.iter(|| {
                        layer.forward_packed_into(black_box(&px), &mut logits);
                        let loss =
                            binnet::softmax_cross_entropy_into(&logits, &labels, &mut dl).unwrap();
                        binnet::packed_transpose_matmul_into(&px, &dl, None, &pool, &mut grad)
                            .unwrap();
                        layer.apply_gradient_fused(&grad, &mut full_opt, None);
                        black_box(loss)
                    });
                },
            );
        }
    }
    group.finish();
}

/// A noisy multi-class corpus of packed hypervectors for the strategy-epoch
/// benches: ~30% bit noise over one prototype per class, so a meaningful
/// fraction of samples misclassify and the update paths do real work.
fn epoch_corpus(d: usize, classes: usize, samples: usize) -> lehdc::EncodedDataset {
    let dim = Dim::new(d);
    let mut rng = Xoshiro256pp::seed_from_u64(0xE9 + d as u64);
    let protos: Vec<hdc::BinaryHv> = (0..classes)
        .map(|_| hdc::BinaryHv::random(dim, &mut rng))
        .collect();
    let mut hvs = Vec::with_capacity(samples);
    let mut labels = Vec::with_capacity(samples);
    for i in 0..samples {
        let class = i % classes;
        let mut hv = protos[class].clone();
        for _ in 0..(3 * d) / 10 {
            hv.flip(rng.random_range(0..d));
        }
        hvs.push(hv);
        // Deterministically mislabel ~14% of samples: random prototypes at
        // large D are fully separable, so without label noise the frozen
        // model misses nothing and the update arms of the epoch benches
        // would measure an empty code path.
        let label = if i % 7 == 3 { (class + 1) % classes } else { class };
        labels.push(label);
    }
    lehdc::EncodedDataset::from_parts(hvs, labels, classes).unwrap()
}

/// One QuantHD retraining iteration at the paper's `D = 10,000`: the
/// historical per-sample path (one scalar classify plus one f32 update pair
/// per miss) against the batched engine (one blocked thread-chunked
/// classification plus one integer-vote application). This group carries the
/// per-iteration speedup target of the batched epoch engine.
fn bench_retrain_epoch(c: &mut Bench) {
    use hdc::RealHv;
    use lehdc::{EpochEngine, VoteLedger};

    let mut group = c.benchmark_group("retrain_epoch");
    group.sample_size(10);
    let d = 10_000usize;
    let (classes, samples) = (10usize, 2048usize);
    let train = epoch_corpus(d, classes, samples);
    let nonbinary: Vec<RealHv> =
        lehdc::baseline::accumulate_class_sums(&train, &EpochEngine::default()).unwrap();
    let model =
        lehdc::HdcModel::new(nonbinary.iter().map(RealHv::sign).collect::<Vec<_>>()).unwrap();
    let alpha = 0.05f32;

    group.throughput(Throughput::Elements(samples as u64));
    group.bench_with_input(BenchmarkId::new("serial", d), &d, |bencher, _| {
        bencher.iter(|| {
            let mut nb = nonbinary.clone();
            let mut correct = 0usize;
            for i in 0..train.len() {
                let (hv, label) = train.sample(i);
                let predicted = model.classify(hv);
                if predicted == label {
                    correct += 1;
                } else {
                    nb[label].add_scaled(hv, alpha);
                    nb[predicted].add_scaled(hv, -alpha);
                }
            }
            let updated =
                lehdc::HdcModel::new(nb.iter().map(RealHv::sign).collect::<Vec<_>>()).unwrap();
            black_box((correct, updated))
        });
    });
    for &threads in SCALING_THREADS {
        let engine = EpochEngine::new(threads);
        group.bench_with_input(
            BenchmarkId::new(format!("batched/threads{threads}"), d),
            &d,
            |bencher, _| {
                bencher.iter(|| {
                    let mut nb = nonbinary.clone();
                    let mut ledger = VoteLedger::new(classes, train.dim());
                    let predictions = engine.classify_epoch(&model, train.hvs());
                    let mut correct = 0usize;
                    for (i, &predicted) in predictions.iter().enumerate() {
                        let (hv, label) = train.sample(i);
                        if predicted == label {
                            correct += 1;
                        } else {
                            ledger.record(hv, label, predicted);
                        }
                    }
                    ledger.apply(&mut nb, alpha, engine.pool());
                    let updated =
                        lehdc::HdcModel::new(nb.iter().map(RealHv::sign).collect::<Vec<_>>())
                            .unwrap();
                    black_box((correct, updated))
                });
            },
        );
    }
    group.finish();
}

/// The enhanced strategy's per-iteration logit matrix at `D = 10,000`: the
/// historical one-`similarities`-call-per-sample loop against the engine's
/// blocked thread-chunked `similarities_epoch` fan-out (exact same integer
/// dots, row-major).
fn bench_enhanced_epoch(c: &mut Bench) {
    use lehdc::EpochEngine;

    let mut group = c.benchmark_group("enhanced_epoch");
    group.sample_size(10);
    let d = 10_000usize;
    let (classes, samples) = (10usize, 1024usize);
    let train = epoch_corpus(d, classes, samples);
    let nonbinary =
        lehdc::baseline::accumulate_class_sums(&train, &EpochEngine::default()).unwrap();
    let model = lehdc::HdcModel::new(nonbinary.iter().map(hdc::RealHv::sign).collect::<Vec<_>>())
        .unwrap();

    group.throughput(Throughput::Elements(samples as u64));
    group.bench_with_input(BenchmarkId::new("serial", d), &d, |bencher, _| {
        bencher.iter(|| {
            let mut acc = 0i64;
            for hv in train.hvs() {
                let sims = model.similarities(black_box(hv));
                acc = acc.wrapping_add(sims[0]);
            }
            black_box(acc)
        });
    });
    for &threads in SCALING_THREADS {
        let engine = EpochEngine::new(threads);
        group.bench_with_input(
            BenchmarkId::new(format!("batched/threads{threads}"), d),
            &d,
            |bencher, _| {
                bencher.iter(|| black_box(engine.similarities_epoch(&model, train.hvs())));
            },
        );
    }
    group.finish();
}

/// Multi-model (SearcHD) batch classification at `D = 10,000`: the serial
/// per-query nested argmax against the flat class-major blocked kernel
/// across pool widths. Predictions are bit-identical (first-win tie-break
/// over the same visit order).
fn bench_multimodel_classify(c: &mut Bench) {
    use lehdc::EpochEngine;

    let mut group = c.benchmark_group("multimodel_classify");
    group.sample_size(10);
    let d = 10_000usize;
    let train = epoch_corpus(d, 10, 256);
    let cfg = lehdc::MultiModelConfig {
        models_per_class: 16,
        iterations: 1,
        ..lehdc::MultiModelConfig::quick()
    };
    let (mm, _) =
        lehdc::multimodel::train_multimodel(&train, None, &cfg, &EpochEngine::default()).unwrap();
    let queries = train.hvs();

    group.throughput(Throughput::Elements(queries.len() as u64));
    group.bench_with_input(BenchmarkId::new("serial", d), &d, |bencher, _| {
        bencher.iter(|| {
            let mut acc = 0usize;
            for q in queries {
                acc = acc.wrapping_add(mm.classify(black_box(q)));
            }
            black_box(acc)
        });
    });
    for &threads in SCALING_THREADS {
        let engine = EpochEngine::with_block(threads, hdc::kernels::QUERY_BLOCK);
        group.bench_with_input(
            BenchmarkId::new(format!("blocked/threads{threads}"), d),
            &d,
            |bencher, _| {
                bencher.iter(|| black_box(engine.classify_epoch(&mm, black_box(queries))));
            },
        );
    }
    group.finish();
}

/// Bare dispatch cost of the persistent pool: an empty fan-out, so the
/// measured time is entirely publish + wake + claim + join. With the old
/// spawn-per-call pool this was ~100 µs of thread creation; parked workers
/// bring it to single-digit microseconds.
fn bench_pool_dispatch(c: &mut Bench) {
    let mut group = c.benchmark_group("pool_dispatch");
    for &threads in SCALING_THREADS {
        let pool = ThreadPool::new(threads);
        // Warm the worker set so spawning is not measured.
        pool.run_chunks(threads, |_| ());
        group.bench_function(format!("threads{threads}"), |bencher| {
            bencher.iter(|| pool.run_chunks(black_box(threads), |r| black_box(r.len())));
        });
    }
    group.finish();
}

/// End-to-end serving throughput: 8 concurrent connections driving 1024
/// classify requests against a live `lehdc_serve` daemon, lockstep
/// (`single`, window 1 — one request per round trip, so every batch the
/// collector forms holds at most one request per connection) versus
/// pipelined (`batched`, window 32 — the queue stays deep enough that the
/// collector packs full `max_batch` fan-outs). Same sockets, same model,
/// same responses; the gap is purely the micro-batching amortization of
/// encode + classify + syscall costs. The acceptance criterion is
/// `serve_batch/batched ≥ 5 × serve_batch/single` in elements/sec.
fn bench_serve_batch(c: &mut Bench) {
    use lehdc_serve::{Client, ServeConfig, Server};
    use std::time::Duration;

    const CONNS: usize = 8;
    const REQS: usize = 1024;
    let d = 1024usize;
    let n_features = 16usize;
    let mut rng = Xoshiro256pp::seed_from_u64(0x5E);
    let dim = Dim::new(d);
    let class_hvs: Vec<hdc::BinaryHv> = (0..FWD_CLASSES)
        .map(|_| hdc::BinaryHv::random(dim, &mut rng))
        .collect();
    let bundle = lehdc::io::ModelBundle {
        model: lehdc::HdcModel::new(class_hvs).unwrap(),
        encoder: hdc::RecordEncoder::builder(dim, n_features)
            .levels(8)
            .seed(0x5F)
            .build()
            .expect("valid encoder config"),
        normalizer: None,
        selection: None,
    };
    let rows: Vec<Vec<f32>> = (0..64)
        .map(|_| (0..n_features).map(|_| rng.random_range(0.0f32..1.0)).collect())
        .collect();
    let cfg = ServeConfig {
        threads: 2,
        max_batch: 64,
        max_wait: Duration::from_micros(200),
        queue_capacity: 1024,
    };
    let server = Server::start(bundle, "127.0.0.1:0", &cfg, obs::Recorder::disabled())
        .expect("bind ephemeral loopback port");
    let addr = server.local_addr();

    let mut group = c.benchmark_group("serve_batch");
    group.sample_size(10);
    group.throughput(Throughput::Elements(REQS as u64));
    for (name, window) in [("single", 1usize), ("batched", 32)] {
        group.bench_with_input(BenchmarkId::new(name, CONNS), &CONNS, |bencher, _| {
            bencher.iter(|| {
                std::thread::scope(|scope| {
                    for conn in 0..CONNS {
                        let rows = &rows;
                        scope.spawn(move || {
                            let mut client = Client::connect(addr).expect("connect to daemon");
                            let mine = REQS / CONNS;
                            let (mut sent, mut received) = (0usize, 0usize);
                            while received < mine {
                                while sent < mine && sent - received < window {
                                    let row = &rows[(conn + sent * CONNS) % rows.len()];
                                    client.send_classify(row).expect("send classify");
                                    sent += 1;
                                }
                                black_box(client.recv_classified().expect("recv classified"));
                                received += 1;
                            }
                        });
                    }
                });
            });
        });
    }
    group.finish();
    server.shutdown();
    server.join();
}

fn bench_format_load(c: &mut Bench) {
    // Model-load latency at deployment scale (D=10,000, K=26): the
    // container's aligned raw planes load in one bulk read; the legacy
    // `LEHDCMDL` path (a 28-byte header plus raw words, built here since
    // nothing writes it any more) is the baseline the container replaced.
    use lehdc::io::{read_model, write_model};

    let d = 10_000usize;
    let k = 26usize;
    let mut rng = Xoshiro256pp::seed_from_u64(0xF0);
    let dim = Dim::new(d);
    let model = lehdc::HdcModel::new(
        (0..k).map(|_| hdc::BinaryHv::random(dim, &mut rng)).collect(),
    )
    .unwrap();

    let mut stored = Vec::new();
    write_model(&model, &mut stored).unwrap();
    let mut legacy = b"LEHDCMDL".to_vec();
    legacy.extend_from_slice(&1u32.to_le_bytes());
    legacy.extend_from_slice(&(d as u64).to_le_bytes());
    legacy.extend_from_slice(&(k as u64).to_le_bytes());
    for hv in model.class_hvs() {
        for word in hv.as_words() {
            legacy.extend_from_slice(&word.to_le_bytes());
        }
    }

    let mut group = c.benchmark_group("format_load");
    for (name, bytes) in [("container_stored", &stored), ("legacy", &legacy)] {
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_with_input(BenchmarkId::new(name, d), bytes, |bencher, bytes| {
            bencher.iter(|| black_box(read_model(black_box(bytes.as_slice())).unwrap()));
        });
    }
    group.finish();
}

testkit::bench_main!(
    bench_bind,
    bench_hamming,
    bench_threshold,
    bench_rotate,
    bench_forward,
    bench_forward_masked,
    bench_transpose_threads,
    bench_backward_threads,
    bench_encode_threads,
    bench_record_encode,
    bench_classify_threads,
    bench_classify_blocked,
    bench_train_step,
    bench_retrain_epoch,
    bench_enhanced_epoch,
    bench_multimodel_classify,
    bench_pool_dispatch,
    bench_serve_batch,
    bench_format_load,
);
