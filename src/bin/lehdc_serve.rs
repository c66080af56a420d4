//! `lehdc_serve`: the micro-batching TCP inference daemon.
//!
//! ```text
//! lehdc_serve --model model.lehdc [--addr 127.0.0.1:0] [--threads 2]
//!             [--max-batch 64] [--max-wait-us 200] [--queue-cap 1024]
//!             [--verbose] [--metrics-out run.jsonl]
//! ```
//!
//! Loads a saved bundle and serves encode+classify requests until a client
//! sends `shutdown` (or the process is killed). Binding port 0 picks an
//! ephemeral port; the daemon always prints one
//! `lehdc_serve listening on <addr>` line to stdout once ready, which is
//! what scripts scrape to find the port. The metrics recorder is always
//! on — it feeds the `STATS` admin command — and `--metrics-out` extends it
//! with a JSON-lines event sink.
//!
//! Protocol, batching, and hot-swap semantics live in the `lehdc-serve`
//! crate docs and DESIGN.md §9.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use lehdc_suite::lehdc::io::load_bundle;
use lehdc_suite::obs;
use lehdc_suite::serve::flags::{parse_flags, parse_num, required};
use lehdc_suite::serve::{ServeConfig, Server};

const USAGE: &str = "usage: lehdc_serve --model <bundle> [--addr HOST:PORT] [--threads T]
  [--max-batch N] [--max-wait-us US] [--queue-cap N]
  [--verbose] [--metrics-out <jsonl>]";

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

fn run(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            "model",
            "addr",
            "threads",
            "max-batch",
            "max-wait-us",
            "queue-cap",
            "metrics-out",
        ],
        &["verbose"],
    )?;
    let model_path = PathBuf::from(required(&flags, "model")?);
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:0".to_string());
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        threads: parse_num(&flags, "threads", defaults.threads)?.max(1),
        max_batch: parse_num(&flags, "max-batch", defaults.max_batch)?.max(1),
        max_wait: Duration::from_micros(parse_num(
            &flags,
            "max-wait-us",
            defaults.max_wait.as_micros() as u64,
        )?),
        queue_capacity: parse_num(&flags, "queue-cap", defaults.queue_capacity)?.max(1),
    };

    // Always-on recorder: the STATS admin command drains these metrics.
    let mut builder = obs::Recorder::builder().verbose(flags.contains_key("verbose"));
    if let Some(path) = flags.get("metrics-out") {
        builder = builder
            .jsonl_path(Path::new(path))
            .map_err(|e| format!("cannot open --metrics-out {path:?}: {e}"))?;
    }
    let rec = builder.build();

    let bundle = load_bundle(&model_path).map_err(|e| e.to_string())?;
    eprintln!(
        "serving {}: D={}, {} classes, {} features, batch ≤{} / wait ≤{}µs / {} threads",
        model_path.display(),
        bundle.model.dim(),
        bundle.model.n_classes(),
        bundle.n_features(),
        cfg.max_batch,
        cfg.max_wait.as_micros(),
        cfg.threads
    );
    let server =
        Server::start(bundle, addr.as_str(), &cfg, rec.clone()).map_err(|e| e.to_string())?;

    // The line scripts scrape for the bound (possibly ephemeral) port.
    println!("lehdc_serve listening on {}", server.local_addr());
    std::io::stdout().flush().ok();

    server.join();
    rec.emit_metric_summaries();
    rec.flush();
    eprintln!("lehdc_serve: drained and stopped");
    Ok(())
}
