#![warn(missing_docs)]

//! Experiment harness for the LeHDC reproduction.
//!
//! One binary per paper artifact:
//!
//! | Binary   | Paper artifact | What it prints |
//! |----------|----------------|----------------|
//! | `table1` | Table 1 | Inference accuracy (mean ± std over seeds) of Baseline / Multi-Model / Retraining / LeHDC on all six benchmarks |
//! | `table2` | Table 2 | The LeHDC hyper-parameters per dataset |
//! | `fig3`   | Figure 3 | Basic vs enhanced retraining accuracy per iteration (Fashion-MNIST profile) |
//! | `fig5`   | Figure 5 | LeHDC train/test accuracy per epoch under the weight-decay/dropout ablation (CIFAR-10 profile) |
//! | `fig6`   | Figure 6 | Accuracy vs dimension `D` for all four strategies (Fashion-MNIST and ISOLET profiles) |
//!
//! Every binary accepts `--quick` (default: small scale, minutes) and
//! `--full` (paper scale, hours), plus `--seeds N`, `--dim D`, and
//! `--threads T`.
//!
//! This library holds the shared pieces: a tiny CLI parser, mean/std
//! aggregation, and plain-text table/series rendering.

use std::fmt::Write as _;

/// Common command-line options for the experiment binaries.
///
/// # Examples
///
/// ```
/// let opts = lehdc_experiments::Options::parse(
///     ["--seeds", "5", "--dim", "4096", "--full"].iter().map(|s| s.to_string()),
/// ).unwrap();
/// assert_eq!(opts.seeds, 5);
/// assert_eq!(opts.dim, 4096);
/// assert!(opts.full);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// Number of random seeds to aggregate over.
    pub seeds: u64,
    /// Hypervector dimension `D` (quick default 1024 — the dimension the
    /// profile difficulty was calibrated at; `--full` defaults to the
    /// paper's 10,000).
    pub dim: usize,
    /// Run at full paper scale instead of the quick scale.
    pub full: bool,
    /// Worker threads for encoding, the batched strategy forwards, and
    /// evaluation (default: available parallelism).
    pub threads: usize,
    /// Echo observability events (epoch spans, throughput) to stderr.
    pub verbose: bool,
    /// Write observability events as JSON lines to this path.
    pub metrics_out: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seeds: 3,
            dim: 1024,
            full: false,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            verbose: false,
            metrics_out: None,
        }
    }
}

impl Options {
    /// Parses options from an argument iterator (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags or malformed
    /// values.
    pub fn parse<I: Iterator<Item = String>>(mut args: I) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut dim_given = false;
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => opts.full = false,
                "--full" => opts.full = true,
                "--seeds" => {
                    let v = args.next().ok_or("--seeds needs a value")?;
                    opts.seeds = v.parse().map_err(|_| format!("bad --seeds value {v:?}"))?;
                    if opts.seeds == 0 {
                        return Err("--seeds must be at least 1".into());
                    }
                }
                "--dim" => {
                    let v = args.next().ok_or("--dim needs a value")?;
                    opts.dim = v.parse().map_err(|_| format!("bad --dim value {v:?}"))?;
                    if opts.dim == 0 {
                        return Err("--dim must be at least 1".into());
                    }
                    dim_given = true;
                }
                "--threads" => {
                    let v = args.next().ok_or("--threads needs a value")?;
                    opts.threads = v
                        .parse()
                        .map_err(|_| format!("bad --threads value {v:?}"))?;
                    if opts.threads == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                }
                "--verbose" => opts.verbose = true,
                "--metrics-out" => {
                    let v = args.next().ok_or("--metrics-out needs a value")?;
                    opts.metrics_out = Some(v);
                }
                "--help" | "-h" => {
                    return Err(
                        "usage: [--quick|--full] [--seeds N] [--dim D] [--threads T] \
                         [--verbose] [--metrics-out <jsonl>]\n  \
                         --quick        laptop scale (default)\n  \
                         --full         paper scale (D=10,000 unless --dim given)\n  \
                         --seeds        seeds to aggregate over (default 3)\n  \
                         --dim          hypervector dimension (default 1024)\n  \
                         --threads      worker threads (default: available parallelism)\n  \
                         --verbose      echo timing/throughput events to stderr\n  \
                         --metrics-out  write observability events as JSON lines"
                            .into(),
                    );
                }
                other => return Err(format!("unknown flag {other:?} (try --help)")),
            }
        }
        if opts.full && !dim_given {
            opts.dim = 10_000; // the paper's dimension
        }
        Ok(opts)
    }

    /// Parses from the process arguments, exiting with a message on error.
    #[must_use]
    pub fn from_env() -> Options {
        match Options::parse(std::env::args().skip(1)) {
            Ok(opts) => opts,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Builds the recorder requested by `--verbose` / `--metrics-out`;
    /// disabled (every probe a no-op) when neither flag was given. Exits
    /// with a message if the metrics file cannot be created, mirroring
    /// [`Options::from_env`].
    #[must_use]
    pub fn recorder(&self) -> obs::Recorder {
        if !self.verbose && self.metrics_out.is_none() {
            return obs::Recorder::disabled();
        }
        let mut builder = obs::Recorder::builder().verbose(self.verbose);
        if let Some(path) = &self.metrics_out {
            builder = match builder.jsonl_path(std::path::Path::new(path)) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("cannot open --metrics-out {path:?}: {e}");
                    std::process::exit(2);
                }
            };
        }
        obs::set_runtime_stats(true);
        builder.build()
    }
}

/// Emits end-of-run metric summaries and flushes the JSON-lines sink; a
/// no-op for a disabled recorder. Call once at the end of an experiment
/// binary's `main`.
pub fn finish_metrics(rec: &obs::Recorder) {
    if rec.enabled() {
        rec.emit_metric_summaries();
        rec.flush();
    }
}

/// Mean and sample standard deviation of a series.
///
/// # Examples
///
/// ```
/// let s = lehdc_experiments::Stats::of(&[1.0, 2.0, 3.0]);
/// assert_eq!(s.mean, 2.0);
/// assert!((s.std - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 for fewer than two values).
    pub std: f64,
}

impl Stats {
    /// Computes statistics over `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn of(values: &[f64]) -> Stats {
        assert!(!values.is_empty(), "stats of an empty series");
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let std = if values.len() < 2 {
            0.0
        } else {
            (values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0)).sqrt()
        };
        Stats { mean, std }
    }

    /// Renders as the paper's `mean±std` percentage format
    /// (e.g. `87.42±0.15`).
    #[must_use]
    pub fn percent(&self) -> String {
        format!("{:.2}±{:.2}", 100.0 * self.mean, 100.0 * self.std)
    }
}

/// A plain-text table renderer for experiment output.
///
/// # Examples
///
/// ```
/// let mut t = lehdc_experiments::TextTable::new(vec!["Strategy", "Accuracy"]);
/// t.row(vec!["Baseline".into(), "80.36".into()]);
/// let s = t.render();
/// assert!(s.contains("Baseline"));
/// assert!(s.contains("| Accuracy"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<&'static str>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given header.
    #[must_use]
    pub fn new(header: Vec<&'static str>) -> Self {
        TextTable {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as markdown-flavoured text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(line, " {cell:<w$} |");
            }
            line
        };
        let header: Vec<String> = self.header.iter().map(|s| s.to_string()).collect();
        out.push_str(&fmt_row(&header, &widths));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{:-<width$}|", "", width = w + 2);
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Prints an accuracy series as aligned `x  y1 [y2 …]` rows — the textual
/// equivalent of one figure panel.
///
/// # Panics
///
/// Panics if any series length differs from `xs`.
#[must_use]
pub fn render_series(
    x_label: &str,
    xs: &[String],
    series: &[(&str, Vec<f64>)],
) -> String {
    for (name, ys) in series {
        assert_eq!(ys.len(), xs.len(), "series {name} length mismatch");
    }
    let mut table = TextTable::new(
        std::iter::once(Box::leak(x_label.to_string().into_boxed_str()) as &'static str)
            .chain(
                series
                    .iter()
                    .map(|(name, _)| Box::leak(name.to_string().into_boxed_str()) as &'static str),
            )
            .collect(),
    );
    for (i, x) in xs.iter().enumerate() {
        let mut row = vec![x.clone()];
        for (_, ys) in series {
            row.push(format!("{:.2}", 100.0 * ys[i]));
        }
        table.row(row);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn default_options() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts, Options::default());
        assert!(!opts.full);
    }

    #[test]
    fn full_mode_raises_dim_unless_overridden() {
        assert_eq!(parse(&["--full"]).unwrap().dim, 10_000);
        assert_eq!(parse(&["--full", "--dim", "512"]).unwrap().dim, 512);
        assert_eq!(parse(&["--dim", "512", "--full"]).unwrap().dim, 512);
        assert_eq!(parse(&["--dim", "1024", "--full"]).unwrap().dim, 1024);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--seeds"]).is_err());
        assert!(parse(&["--seeds", "zero"]).is_err());
        assert!(parse(&["--seeds", "0"]).is_err());
        assert!(parse(&["--dim", "0"]).is_err());
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--metrics-out"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }

    #[test]
    fn threads_flag_parses() {
        assert_eq!(parse(&["--threads", "4"]).unwrap().threads, 4);
        assert!(parse(&[]).unwrap().threads >= 1);
    }

    #[test]
    fn observability_flags_parse_and_default_to_disabled() {
        let opts = parse(&[]).unwrap();
        assert!(!opts.verbose);
        assert!(opts.metrics_out.is_none());
        assert!(!opts.recorder().enabled(), "no flags → disabled recorder");

        let opts = parse(&["--verbose", "--metrics-out", "run.jsonl"]).unwrap();
        assert!(opts.verbose);
        assert_eq!(opts.metrics_out.as_deref(), Some("run.jsonl"));
    }

    #[test]
    fn stats_of_constant_series() {
        let s = Stats::of(&[0.5, 0.5, 0.5]);
        assert_eq!(s.mean, 0.5);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.percent(), "50.00±0.00");
    }

    #[test]
    fn stats_of_single_value_has_zero_std() {
        let s = Stats::of(&[0.8742]);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.percent(), "87.42±0.00");
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn stats_of_empty_panics() {
        let _ = Stats::of(&[]);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["A", "Blong"]);
        t.row(vec!["xx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[2].len(), "rows align");
        assert!(lines[1].starts_with("|--"));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new(vec!["A"]);
        t.row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn series_renders_percentages() {
        let s = render_series(
            "D",
            &["512".into(), "1024".into()],
            &[("LeHDC", vec![0.5, 0.75]), ("Baseline", vec![0.4, 0.45])],
        );
        assert!(s.contains("50.00"));
        assert!(s.contains("75.00"));
        assert!(s.contains("LeHDC"));
    }
}
