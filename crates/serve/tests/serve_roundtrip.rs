//! End-to-end daemon suite: protocol round-trips over real sockets,
//! concurrent pipelined clients at several batch sizes, bit-identity
//! against serial classification, and mid-stream hot swap semantics.

use std::net::TcpStream;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use hdc::rng::rng_for;
use hdc::{BinaryHv, Dim, RecordEncoder};
use hdc_datasets::MinMaxNormalizer;
use lehdc::format::{meta_f32, write_container, write_varint, Artifact, MetaWriter};
use lehdc::io::{load_bundle, save_bundle, ModelBundle};
use lehdc::HdcModel;
use lehdc_serve::{Client, ServeConfig, Server};
use testkit::Rng;

const N_FEATURES: usize = 8;

fn test_bundle(seed: u64) -> ModelBundle {
    let dim = Dim::new(256);
    let mut rng = rng_for(seed, 0);
    ModelBundle {
        model: HdcModel::new((0..4).map(|_| BinaryHv::random(dim, &mut rng)).collect()).unwrap(),
        encoder: RecordEncoder::builder(dim, N_FEATURES)
            .levels(8)
            .seed(seed)
            .build()
            .unwrap(),
        normalizer: Some(
            MinMaxNormalizer::from_parts(vec![0.0; N_FEATURES], vec![1.0; N_FEATURES]).unwrap(),
        ),
        selection: None,
    }
}

fn random_rows(n: usize, stream: u64) -> Vec<Vec<f32>> {
    let mut rng = rng_for(99, stream);
    (0..n)
        .map(|_| {
            (0..N_FEATURES)
                .map(|_| (rng.random::<u64>() % 1024) as f32 / 1024.0)
                .collect()
        })
        .collect()
}

fn start(bundle: ModelBundle, max_batch: usize) -> Server {
    start_with_capacity(bundle, max_batch, 256)
}

fn start_with_capacity(bundle: ModelBundle, max_batch: usize, queue_capacity: usize) -> Server {
    let cfg = ServeConfig {
        threads: 2,
        max_batch,
        max_wait: Duration::from_micros(200),
        queue_capacity,
    };
    Server::start(bundle, "127.0.0.1:0", &cfg, obs::Recorder::builder().build()).unwrap()
}

/// The integer value of the metric `name` in a STATS reply.
fn metric(stats: &str, name: &str) -> Option<u64> {
    stats
        .split(&format!("\"{name}\": "))
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
}

#[test]
fn concurrent_pipelined_clients_match_serial_at_every_batch_size() {
    // The determinism contract: whatever the batching, threading, or
    // interleaving, every response is bit-identical to a serial
    // `bundle.classify` of the same row. At queue capacity 1 every push
    // meets backpressure.
    let bundle = test_bundle(1);
    let configs = [
        (1usize, 256usize),
        (7, 256),
        (64, 256),
        (1, 1),
        (7, 1),
        (64, 1),
    ];
    for (max_batch, queue_capacity) in configs {
        let server = start_with_capacity(bundle.clone(), max_batch, queue_capacity);
        let addr = server.local_addr();
        let handles: Vec<_> = (0..4)
            .map(|c| {
                let bundle = bundle.clone();
                std::thread::spawn(move || {
                    let rows = random_rows(32, c);
                    let mut client = Client::connect(addr).unwrap();
                    // Pipeline a window of 8 so the collector actually
                    // sees multi-request batches from one connection.
                    let window = 8.min(rows.len());
                    for row in &rows[..window] {
                        client.send_classify(row).unwrap();
                    }
                    for (i, row) in rows.iter().enumerate() {
                        let (class, epoch) = client.recv_classified().unwrap();
                        assert_eq!(epoch, 0, "no swap happened");
                        let expected = bundle.classify(row).unwrap() as u32;
                        assert_eq!(class, expected, "row {i} diverged from serial");
                        if i + window < rows.len() {
                            client.send_classify(&rows[i + window]).unwrap();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.shutdown();
        server.join();
    }
}

#[test]
fn a_client_that_closes_mid_pipeline_leaves_no_connection_behind() {
    // The client pipelines 16 requests and closes without reading a reply,
    // so the writer answers into a closed socket. The connection must end
    // all the same, and the daemon keep answering other clients.
    let bundle = test_bundle(1);
    let server = start(bundle.clone(), 7);
    let addr = server.local_addr();
    let rows = random_rows(16, 21);
    let mut vanishing = Client::connect(addr).unwrap();
    for row in &rows {
        vanishing.send_classify(row).unwrap();
    }
    drop(vanishing);

    let mut admin = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = admin.stats().unwrap();
        if metric(&stats, "serve/connections_active") == Some(1) {
            break;
        }
        assert!(Instant::now() < deadline, "only the STATS client should be left: {stats}");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut fresh = Client::connect(addr).unwrap();
    for (i, row) in rows.iter().enumerate() {
        let expected = bundle.classify(row).unwrap() as u32;
        assert_eq!(fresh.classify(row).unwrap(), (expected, 0), "row {i}");
    }
    server.shutdown();
    server.join();
}

#[test]
fn rejected_rows_inside_a_batch_leave_the_rest_of_it_and_the_connection_intact() {
    // Every third request has the wrong width. A pipelined window of 16
    // keeps good and bad rows in flight together, so batches mix them; the
    // collector must reject each bad row on its own, answer the good ones
    // exactly as serial classification does, and count only those.
    let full = test_bundle(3);
    let distilled = full.distill(96).unwrap();
    let rows = random_rows(48, 5);
    let requests: Vec<Vec<f32>> = rows
        .iter()
        .enumerate()
        .map(|(i, row)| match i % 6 {
            1 => row[..N_FEATURES - 1].to_vec(),
            4 => [row.as_slice(), &[0.5]].concat(),
            _ => row.clone(),
        })
        .collect();
    let window = 16;
    for (name, bundle) in [("full", &full), ("distilled", &distilled)] {
        for threads in [1usize, 2] {
            for max_batch in [1usize, 7, 64] {
                let ctx = format!("{name} threads={threads} max_batch={max_batch}");
                let cfg = ServeConfig {
                    threads,
                    max_batch,
                    max_wait: Duration::from_micros(200),
                    queue_capacity: 256,
                };
                let server = Server::start(
                    bundle.clone(),
                    "127.0.0.1:0",
                    &cfg,
                    obs::Recorder::builder().build(),
                )
                .unwrap();
                let mut client = Client::connect(server.local_addr()).unwrap();
                for request in &requests[..window] {
                    client.send_classify(request).unwrap();
                }
                let mut good = 0;
                for (i, request) in requests.iter().enumerate() {
                    let reply = client.recv_classified();
                    if request.len() == N_FEATURES {
                        let expected = bundle.classify(request).unwrap() as u32;
                        assert_eq!(reply.unwrap(), (expected, 0), "{ctx}: row {i}");
                        good += 1;
                    } else {
                        let err = reply.unwrap_err().to_string();
                        assert!(
                            err.contains(&format!("expected {N_FEATURES} features")),
                            "{ctx}: row {i}: {err}"
                        );
                    }
                    if i + window < requests.len() {
                        client.send_classify(&requests[i + window]).unwrap();
                    }
                }
                client.ping().unwrap();
                let stats = client.stats().unwrap();
                let counted = stats
                    .split("\"serve/requests_total\": ")
                    .nth(1)
                    .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
                    .and_then(|n| n.parse::<usize>().ok());
                assert_eq!(counted, Some(good), "{ctx}: {stats}");
                server.shutdown();
                server.join();
            }
        }
    }
}

#[test]
fn admin_commands_roundtrip() {
    let bundle = test_bundle(1);
    let server = start(bundle, 64);
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    let (dim, classes, features, epoch) = client.info().unwrap();
    assert_eq!((dim, classes, features, epoch), (256, 4, N_FEATURES as u64, 0));
    client.classify(&[0.5; N_FEATURES]).unwrap();
    let stats = client.stats().unwrap();
    obs::validate_json_line(&stats).expect("STATS must be valid JSON");
    assert!(stats.contains("serve/requests_total"), "{stats}");
    // Wrong feature count: typed error, connection stays usable.
    let err = client.classify(&[0.5; 3]).unwrap_err();
    assert!(err.to_string().contains("expected 8 features"), "{err}");
    client.ping().unwrap();
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn line_mode_speaks_plain_text() {
    let bundle = test_bundle(1);
    let expected = bundle.classify(&[0.5; N_FEATURES]).unwrap();
    let server = start(bundle, 64);
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    let mut roundtrip = |cmd: &str| {
        (&stream).write_all(cmd.as_bytes()).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        line.trim().to_string()
    };
    assert_eq!(roundtrip("ping\n"), "ok pong");
    let features = vec!["0.5"; N_FEATURES].join(",");
    assert_eq!(
        roundtrip(&format!("classify {features}\n")),
        format!("ok {expected} epoch=0")
    );
    assert!(roundtrip("classify 1,2\n").starts_with("err "));
    assert!(roundtrip("frobnicate\n").starts_with("err "));
    assert_eq!(roundtrip("shutdown\n"), "ok bye");
    server.join();
}

#[test]
fn hot_swap_is_atomic_and_epoch_stamped() {
    let dir = std::env::temp_dir().join("lehdc_serve_swap_test");
    std::fs::create_dir_all(&dir).unwrap();
    let next_path = dir.join("next.lehdc");
    let bundle0 = test_bundle(1);
    let bundle1 = test_bundle(2);
    save_bundle(&bundle1, &next_path).unwrap();

    let server = start(bundle0.clone(), 64);
    let addr = server.local_addr();
    let rows = random_rows(64, 7);

    // Phase 1: all responses come from epoch 0 / model 0.
    let mut client = Client::connect(addr).unwrap();
    for row in &rows {
        let (class, epoch) = client.classify(row).unwrap();
        assert_eq!(epoch, 0);
        assert_eq!(class, bundle0.classify(row).unwrap() as u32);
    }

    // Swap. The ack happens-after the publish, so every later request is
    // answered by the new model.
    assert_eq!(client.swap(next_path.to_str().unwrap()).unwrap(), 1);
    for row in &rows {
        let (class, epoch) = client.classify(row).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(class, bundle1.classify(row).unwrap() as u32);
    }

    // A bad swap leaves the current model serving.
    assert!(client.swap("/nonexistent.lehdc").is_err());
    let (_, _, _, epoch) = client.info().unwrap();
    assert_eq!(epoch, 1);

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_swap_respects_the_epoch_contract() {
    // While clients hammer the server, another connection swaps mid-stream.
    // The invariant (the whole consistency contract): a response stamped
    // epoch e matches model e's serial classification — never a blend.
    let dir = std::env::temp_dir().join("lehdc_serve_race_test");
    std::fs::create_dir_all(&dir).unwrap();
    let next_path = dir.join("next.lehdc");
    let bundle0 = test_bundle(1);
    let bundle1 = test_bundle(2);
    save_bundle(&bundle1, &next_path).unwrap();

    let server = start(bundle0.clone(), 16);
    let addr = server.local_addr();
    let bundle0 = Arc::new(bundle0);
    let bundle1 = Arc::new(bundle1);

    let clients: Vec<_> = (0..4)
        .map(|c| {
            let (b0, b1) = (Arc::clone(&bundle0), Arc::clone(&bundle1));
            std::thread::spawn(move || {
                let rows = random_rows(96, 200 + c);
                let mut client = Client::connect(addr).unwrap();
                let mut saw = [false, false];
                for row in &rows {
                    let (class, epoch) = client.classify(row).unwrap();
                    let expected = match epoch {
                        0 => b0.classify(row).unwrap(),
                        1 => b1.classify(row).unwrap(),
                        other => panic!("impossible epoch {other}"),
                    };
                    saw[epoch as usize] = true;
                    assert_eq!(class, expected as u32, "epoch {epoch} answer diverged");
                }
                saw
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(5));
    let mut admin = Client::connect(addr).unwrap();
    assert_eq!(admin.swap(next_path.to_str().unwrap()).unwrap(), 1);

    let mut any_new = false;
    for h in clients {
        let saw = h.join().unwrap();
        any_new |= saw[1];
    }
    // The swap lands mid-run, so at least one client must have crossed it.
    assert!(any_new, "no client ever saw the swapped model");

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_finite_features_are_rejected_in_both_protocol_modes() {
    let server = start(test_bundle(1), 64);
    let addr = server.local_addr();

    // Binary mode: a well-formed CLASSIFY frame carrying NaN/±inf gets a
    // typed error frame and the connection stays usable.
    let mut client = Client::connect(addr).unwrap();
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut row = vec![0.5f32; N_FEATURES];
        row[2] = bad;
        let err = client.classify(&row).unwrap_err();
        assert!(err.to_string().contains("not finite"), "{err}");
    }
    client.ping().unwrap();

    // Line mode: `f32::parse` would happily accept these spellings.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    let mut roundtrip = |cmd: &str| {
        (&stream).write_all(cmd.as_bytes()).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        line.trim().to_string()
    };
    for bad in ["NaN", "inf", "-inf"] {
        let mut cells = vec!["0.5"; N_FEATURES];
        cells[0] = bad;
        let reply = roundtrip(&format!("classify {}\n", cells.join(",")));
        assert!(reply.starts_with("err "), "{bad}: {reply}");
        assert!(reply.contains("not finite"), "{bad}: {reply}");
    }
    // The connection survives and still classifies.
    let good = vec!["0.5"; N_FEATURES].join(",");
    assert!(roundtrip(&format!("classify {good}\n")).starts_with("ok "));

    server.shutdown();
    server.join();
}

#[test]
fn swap_across_formats_and_distillation_is_bit_identical() {
    // The deployment story end-to-end: the daemon starts on a bundle this
    // code wrote, swaps to the same model in the files earlier versions
    // wrote — (a) the legacy format, (b) a container with packed sections
    // — then to (c) a distilled sub-D model, and every answer matches the
    // corresponding serial classification.
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/tests/fixtures");
    let legacy_path = fixtures.join("smoke_legacy.lehdc");
    let packed_path = fixtures.join("smoke_packed.lehdc");
    let bundle = load_bundle(&packed_path).unwrap();
    let distilled = bundle.distill(64).unwrap();

    let dir = std::env::temp_dir().join("lehdc_serve_format_swap_test");
    std::fs::create_dir_all(&dir).unwrap();
    let stored_path = dir.join("stored.lehdc");
    save_bundle(&bundle, &stored_path).unwrap();
    let distilled_path = dir.join("distilled.lehdc");
    save_bundle(&distilled, &distilled_path).unwrap();

    let server = start(bundle.clone(), 16);
    let addr = server.local_addr();
    let mut rng = rng_for(99, 11);
    let rows: Vec<Vec<f32>> = (0..32)
        .map(|_| {
            (0..bundle.n_features())
                .map(|_| (rng.random::<u64>() % 2048) as f32 / 1024.0)
                .collect()
        })
        .collect();
    let mut client = Client::connect(addr).unwrap();

    // Full-width swaps: every file holds the same model, so answers must
    // be bit-identical to the original bundle across all of them.
    for (i, path) in [&legacy_path, &packed_path, &stored_path]
        .iter()
        .enumerate()
    {
        let epoch = client.swap(path.to_str().unwrap()).unwrap();
        assert_eq!(epoch, i as u64 + 1);
        for row in &rows {
            let (class, got_epoch) = client.classify(row).unwrap();
            assert_eq!(got_epoch, epoch);
            assert_eq!(
                class,
                bundle.classify(row).unwrap() as u32,
                "format swap {i} diverged from serial"
            );
        }
    }

    // Distilled swap: D drops 256 -> 64 but the serial distilled bundle is
    // the reference — the daemon must project exactly the same way.
    let epoch = client.swap(distilled_path.to_str().unwrap()).unwrap();
    let (dim, _, _, _) = client.info().unwrap();
    assert_eq!(dim, 64, "daemon must report the distilled dimension");
    for row in &rows {
        let (class, got_epoch) = client.classify(row).unwrap();
        assert_eq!(got_epoch, epoch);
        assert_eq!(
            class,
            distilled.classify(row).unwrap() as u32,
            "distilled swap diverged from serial"
        );
    }

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A well-formed stored bundle of two all-zero class hypervectors whose
/// metadata claims an encoder of `encoder_dim` × `features` × `levels`
/// (distilled to the first `dim` dimensions when the two differ) that
/// nothing in the file backs.
fn crafted_bundle(dim: u64, encoder_dim: u64, features: u64, levels: u64) -> Vec<u8> {
    let distilled = dim != encoder_dim;
    let mut meta = MetaWriter::new();
    meta.u64("dim", dim)
        .u64("classes", 2)
        .u64("encoder_dim", encoder_dim)
        .u64("features", features)
        .u64("levels", levels)
        .u64("seed", 1);
    meta_f32(&mut meta, "vmin", 0.0);
    meta_f32(&mut meta, "vmax", 1.0);
    meta.bool("normalizer", false).bool("distilled", distilled);
    let mut aux = Vec::new();
    write_varint(&mut aux, if distilled { dim } else { 0 });
    if distilled {
        for i in 0..dim {
            write_varint(&mut aux, u64::from(i > 0));
        }
    }
    let plane = vec![0u64; dim.div_ceil(64) as usize];
    let mut file = Vec::new();
    write_container(
        &mut file,
        Artifact::Bundle,
        &meta.finish(),
        &aux,
        &[&plane, &plane],
    )
    .unwrap();
    file
}

#[test]
fn swap_to_an_oversized_encoder_is_refused_and_the_daemon_keeps_serving() {
    // Each file is a few hundred bytes to 33 KB, but its metadata would make
    // the loader regenerate gigabytes of item memory; once that aborted the
    // daemon mid-SWAP.
    let dir = std::env::temp_dir().join("lehdc_serve_oversized_swap_test");
    std::fs::create_dir_all(&dir).unwrap();
    let files = [
        (
            "huge_features.lehdc",
            crafted_bundle(256, 256, 100_000_000, 2),
        ),
        (
            "huge_encoder_dim.lehdc",
            crafted_bundle(64, 1_000_000_000, 8, 2),
        ),
        (
            "huge_levels.lehdc",
            crafted_bundle(1 << 17, 1 << 17, 8, 1 << 16),
        ),
    ];
    let bundle = test_bundle(1);
    let server = start(bundle.clone(), 16);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let rows = random_rows(8, 12);
    for (name, bytes) in &files {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        let err = client.swap(path.to_str().unwrap()).unwrap_err();
        assert!(err.to_string().contains("item memory"), "{name}: {err}");
        for row in &rows {
            let (class, epoch) = client.classify(row).unwrap();
            assert_eq!(epoch, 0, "{name}: the refused swap must not publish");
            assert_eq!(class, bundle.classify(row).unwrap() as u32, "{name}");
        }
    }
    let (_, _, _, epoch) = client.info().unwrap();
    assert_eq!(epoch, 0);
    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn swap_to_a_truncated_bundle_under_load_is_refused_and_the_daemon_keeps_serving() {
    // Two clients pipeline classifies while a third SWAPs to a saved bundle
    // cut short: to its first 16 bytes, then to half its length. Each SWAP
    // gets an error reply, nothing is published, and every classify reply,
    // before, between and after the SWAPs, is the old model's.
    let dir = std::env::temp_dir().join("lehdc_serve_truncated_swap_test");
    std::fs::create_dir_all(&dir).unwrap();
    let saved = dir.join("next.lehdc");
    save_bundle(&test_bundle(2), &saved).unwrap();
    let bytes = std::fs::read(&saved).unwrap();
    let cuts = [
        ("first_16_bytes.lehdc", &bytes[..16]),
        ("first_half.lehdc", &bytes[..bytes.len() / 2]),
    ];

    let bundle = Arc::new(test_bundle(1));
    let server = start((*bundle).clone(), 16);
    let addr = server.local_addr();
    let swapping = Arc::new(AtomicBool::new(true));
    // The SWAPs start once both clients have a window in flight.
    let loaded = Arc::new(Barrier::new(3));
    let clients: Vec<_> = (0..2)
        .map(|c| {
            let (bundle, swapping) = (Arc::clone(&bundle), Arc::clone(&swapping));
            let loaded = Arc::clone(&loaded);
            std::thread::spawn(move || {
                let rows = random_rows(64, 300 + c);
                let mut client = Client::connect(addr).unwrap();
                let window = 8;
                for row in &rows[..window] {
                    client.send_classify(row).unwrap();
                }
                loaded.wait();
                // Keep a window in flight until the SWAPs are done and at
                // least one full pass over the rows has been answered.
                let mut answered = 0;
                let mut in_flight = window;
                while in_flight > 0 {
                    let (class, epoch) = client.recv_classified().unwrap();
                    let row = &rows[answered % rows.len()];
                    assert_eq!(epoch, 0, "client {c}: a refused swap published");
                    assert_eq!(
                        class,
                        bundle.classify(row).unwrap() as u32,
                        "client {c}: reply {answered} diverged from the old model"
                    );
                    answered += 1;
                    in_flight -= 1;
                    if answered < rows.len() || swapping.load(Ordering::SeqCst) {
                        client
                            .send_classify(&rows[(answered + in_flight) % rows.len()])
                            .unwrap();
                        in_flight += 1;
                    }
                }
                answered
            })
        })
        .collect();

    let mut admin = Client::connect(addr).unwrap();
    loaded.wait();
    for (name, cut) in cuts {
        let path = dir.join(name);
        std::fs::write(&path, cut).unwrap();
        let err = admin.swap(path.to_str().unwrap()).unwrap_err();
        assert!(err.to_string().contains("file truncated"), "{name}: {err}");
    }
    let (_, _, _, epoch) = admin.info().unwrap();
    assert_eq!(epoch, 0, "a refused swap must not publish");
    swapping.store(false, Ordering::SeqCst);
    for h in clients {
        assert!(h.join().unwrap() >= 64);
    }
    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oversized_frames_close_the_connection_without_harm() {
    let server = start(test_bundle(1), 64);
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"LHD1").unwrap();
    stream
        .write_all(&(u32::MAX).to_le_bytes())
        .unwrap(); // absurd frame length
    let mut reader = BufReader::new(stream);
    let mut sink = Vec::new();
    // Server drops the connection (possibly after an error frame).
    let _ = reader.read_to_end(&mut sink);
    // The daemon itself is unharmed.
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    server.shutdown();
    server.join();
}
