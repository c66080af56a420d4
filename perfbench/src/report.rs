//! The run's result: checked operations, metrics, run metadata, and the
//! one-line JSON the benchmark prints last.

use std::fmt::Write as _;

use crate::stats::{valid_name, valid_unit};

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("train_samples_per_s", "samples/s"),
    ("test_accuracy", "fraction"),
    ("cpu_us_per_req", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`. A layer that
/// does no work on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hdc.encode.busy_s", "s"),
    ("hdc.encode.samples_per_s", "samples/s"),
    ("hdc.encode.speedup_t2", "ratio"),
    ("binnet.forward_s", "s"),
    ("binnet.backward_s", "s"),
    ("binnet.optimizer_s", "s"),
    ("core.trainer.assembly_s", "s"),
    ("core.trainer.eval_s", "s"),
    ("core.trainer.batches", "count"),
    ("core.trainer.self_s", "s"),
    ("core.trainer.speedup_t2", "ratio"),
    ("core.engine.classify_s", "s"),
    ("core.engine.update_s", "s"),
    ("core.engine.binarize_s", "s"),
    ("core.engine.eval_s", "s"),
    ("core.engine.update_share", "fraction"),
    ("core.model.classify_queries_per_s", "queries/s"),
    ("core.model.distill_s", "s"),
    ("core.io.save_s", "s"),
    ("core.io.load_s", "s"),
    ("core.io.bundle_bytes", "bytes"),
    ("threadpool.jobs", "count"),
    ("serve.queue.wait_mean_ms", "ms"),
    ("serve.batcher.batch_size_mean_open", "req/batch"),
    ("serve.batcher.batch_size_mean_closed", "req/batch"),
    ("serve.batcher.encode_mean_ms", "ms"),
    ("serve.batcher.classify_mean_ms", "ms"),
    ("serve.batcher.busy_share", "fraction"),
    ("serve.transport.mean_ms", "ms"),
    ("serve.state.swaps", "count"),
    ("serve.state.swap_p50_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.closed.throughput_rps", "req/s"),
    ("loadgen.open.sent", "count"),
    ("loadgen.open.ok", "count"),
    ("loadgen.open.failed", "count"),
    ("loadgen.open.late_p99_ms", "ms"),
    ("loadgen.open.late_max_ms", "ms"),
    ("loadgen.closed.sent", "count"),
    ("loadgen.closed.ok", "count"),
    ("loadgen.closed.failed", "count"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_share", "fraction"),
    ("trace.largest_gap_s", "s"),
];

/// How many check failures are spelled out; the rest are only counted.
const SHOWN_FAILURES: usize = 8;

#[derive(Debug, Default)]
pub struct Report {
    meta: Vec<(String, String)>,
    metrics: Vec<(String, f64)>,
    shown: Vec<(String, f64, String)>,
    notes: Vec<String>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Records a run parameter; `json` is the value's JSON text.
    pub fn meta(&mut self, key: &str, json: impl Into<String>) {
        self.meta.push((key.to_string(), json.into()));
    }

    /// Records a metric from the catalogue; a later value replaces an
    /// earlier one.
    pub fn metric(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    /// Records an end-to-end metric that is printed by name with its unit
    /// but left out of the JSON result, so that no bound applies to it.
    pub fn shown(&mut self, name: &str, value: f64, unit: &str) {
        self.shown.push((name.to_string(), value, unit.to_string()));
    }

    /// Records a human-readable line printed before the result.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one checked operation; `ok == false` counts it as failed and
    /// keeps the first few explanations.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < SHOWN_FAILURES {
                self.failures.push(what());
            }
        }
    }

    /// Counts `attempted` operations of which `failed` went wrong, as one
    /// group with one explanation.
    pub fn check_many(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < SHOWN_FAILURES {
            self.failures.push(what());
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Prints the metadata, every metric of `catalogue` by name with its
    /// unit, the printed-only metrics and the error rate, and last the JSON
    /// result line.
    ///
    /// # Panics
    ///
    /// Panics if the workload did not record a metric of the catalogue.
    pub fn print(&self, catalogue: &[(&str, &str)]) {
        let mut meta = String::from("{");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(meta, "{sep}\"{k}\": {v}");
        }
        meta.push('}');
        println!("meta {meta}");
        for note in &self.notes {
            println!("note {note}");
        }
        for failure in &self.failures {
            println!("FAILED {failure}");
        }
        let mut json = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            assert!(
                valid_name(name) && valid_unit(unit),
                "{name} [{unit}] breaks the naming rules"
            );
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("workload did not record metric {name}"));
            println!("metric {name} = {value} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        for (name, value, unit) in &self.shown {
            println!("metric {name} = {value} {unit} (printed, not gated)");
        }
        println!(
            "metric error_rate = {} fraction ({} of {} checked operations failed; \
             printed, not gated: the JSON result carries the counts)",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (an infinitely late percentile) become the
/// largest finite `f64`, since JSON has no infinity.
fn json_number(v: f64) -> String {
    let v = if v.is_finite() {
        v
    } else {
        f64::MAX.copysign(v)
    };
    format!("{v:?}")
}

/// A JSON string literal (the metadata only carries plain ASCII labels).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", obs::json_escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_and_units_are_valid_and_unique() {
        for list in [END_TO_END, PER_LAYER] {
            for (i, (name, unit)) in list.iter().enumerate() {
                assert!(valid_name(name), "{name}");
                assert!(valid_unit(unit), "{unit}");
                assert!(list[..i].iter().all(|(n, _)| n != name), "{name} repeats");
            }
        }
    }

    /// Every `"name"`/`"unit"` pair of one metric list in `BENCHMARK.json`.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("list present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        let field = |obj: &str, f: &str| -> String {
            let at = obj.find(&format!("\"{f}\"")).expect("field present");
            let rest = &obj[at + f.len() + 2..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = open + rest[open..].find('"').expect("value closes");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String)> = catalogue
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed(&json, key), want, "{key}");
        }
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_json() {
        assert_eq!(json_number(1.203_456_789), "1.203456789");
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(f64::INFINITY), "1.7976931348623157e308");
    }

    #[test]
    fn checks_feed_the_error_rate() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.check(false, || "wrong".into());
        r.check_many(2, 0, String::new);
        assert_eq!((r.attempted, r.failed), (4, 1));
        assert_eq!(r.error_rate(), 0.25);
        assert_eq!(r.failures, vec!["wrong".to_string()]);
        assert_eq!(Report::default().error_rate(), 1.0);
    }
}
