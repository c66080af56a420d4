//! `lehdc_loadgen`: a pipelined load generator for `lehdc_serve`.
//!
//! ```text
//! lehdc_loadgen --addr HOST:PORT --data features.csv [--requests 1024]
//!               [--connections 8] [--window 32] [--check offline.txt]
//!               [--swap bundle.lehdc] [--stats] [--shutdown]
//! ```
//!
//! Opens `--connections` concurrent connections and drives `--requests`
//! classify requests through them, keeping up to `--window` requests in
//! flight per connection (window 1 = strict request/response lockstep —
//! the single-round-trip baseline the `serve_batch` bench compares
//! against). Request `r` uses feature row `r % rows`, so with
//! `--check <file>` (one expected class per row, e.g. from
//! `lehdc_cli predict`) every response is verified against the offline
//! prediction; any mismatch fails the run with a nonzero exit.
//!
//! `--swap <bundle>` hot-swaps the daemon onto the given bundle *before*
//! driving requests, so a `--check` file produced offline against that
//! bundle verifies the daemon end-to-end through a SWAP. `--stats` drains
//! and prints the server's STATS JSON after the run; `--shutdown` asks the
//! daemon to exit once done.

use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use lehdc_suite::datasets::loader::csv::load_feature_rows;
use lehdc_suite::serve::flags::{parse_flags, parse_num, required};
use lehdc_suite::serve::Client;

const USAGE: &str = "usage: lehdc_loadgen --addr HOST:PORT --data <features-csv>
  [--requests N] [--connections C] [--window W] [--check <predictions-file>]
  [--swap <bundle>] [--stats] [--shutdown]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if matches!(args.first().map(String::as_str), Some("--help" | "-h")) {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn load_rows(path: &str) -> Result<Vec<Vec<f32>>, String> {
    let rows = load_feature_rows(Path::new(path)).map_err(|e| e.to_string())?;
    if rows.is_empty() {
        return Err(format!("{path}: no feature rows"));
    }
    Ok(rows)
}

fn load_expected(path: &str) -> Result<Vec<u32>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            l.trim()
                .parse::<u32>()
                .map_err(|_| format!("{path}: bad class label {l:?}"))
        })
        .collect()
}

fn run(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &["addr", "data", "requests", "connections", "window", "check", "swap"],
        &["stats", "shutdown"],
    )?;
    let addr = required(&flags, "addr")?.to_string();
    let rows = load_rows(required(&flags, "data")?)?;
    let total: usize = parse_num(&flags, "requests", 1024usize)?.max(1);
    let connections: usize = parse_num(&flags, "connections", 8usize)?.max(1);
    let window: usize = parse_num(&flags, "window", 32usize)?.max(1);
    let expected = match flags.get("check") {
        Some(path) => {
            let preds = load_expected(path)?;
            if preds.len() != rows.len() {
                return Err(format!(
                    "--check has {} predictions but --data has {} rows",
                    preds.len(),
                    rows.len()
                ));
            }
            Some(preds)
        }
        None => None,
    };

    if let Some(bundle) = flags.get("swap") {
        let mut admin = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let epoch = admin
            .swap(bundle)
            .map_err(|e| format!("swap {bundle}: {e}"))?;
        eprintln!("swapped to {bundle} (epoch {epoch})");
    }

    let mismatches = AtomicU64::new(0);
    let started = Instant::now();
    let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let (addr, rows, expected, mismatches) = (&addr, &rows, &expected, &mismatches);
                // Connection c drives requests c, c+connections, c+2·connections, …
                scope.spawn(move || -> Result<(), String> {
                    let mut client =
                        Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                    let mine: Vec<usize> = (c..total).step_by(connections).collect();
                    let (mut sent, mut received) = (0usize, 0usize);
                    while received < mine.len() {
                        // Keep up to `window` requests in flight, then
                        // collect the oldest outstanding response.
                        while sent < mine.len() && sent - received < window {
                            client
                                .send_classify(&rows[mine[sent] % rows.len()])
                                .map_err(|e| format!("send: {e}"))?;
                            sent += 1;
                        }
                        let (class, _epoch) = client
                            .recv_classified()
                            .map_err(|e| format!("recv: {e}"))?;
                        if let Some(expected) = expected {
                            let row = mine[received] % rows.len();
                            if class != expected[row] {
                                mismatches.fetch_add(1, Ordering::Relaxed);
                                eprintln!(
                                    "mismatch: row {row} got {class}, expected {}",
                                    expected[row]
                                );
                            }
                        }
                        received += 1;
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.elapsed();
    for r in results {
        r?;
    }

    let rps = total as f64 / elapsed.as_secs_f64();
    eprintln!(
        "{total} requests over {connections} connections (window {window}) in {:.3}s — {rps:.0} req/s",
        elapsed.as_secs_f64()
    );

    let mut admin = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    if flags.contains_key("stats") {
        println!("{}", admin.stats().map_err(|e| format!("stats: {e}"))?);
    }
    if flags.contains_key("shutdown") {
        admin.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    }

    let bad = mismatches.load(Ordering::Relaxed);
    if bad > 0 {
        return Err(format!("{bad} responses diverged from --check predictions"));
    }
    Ok(())
}
