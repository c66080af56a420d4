//! Small, pure helpers behind the benchmark's numbers: percentiles that
//! count failures, unit throughput, fastest-unit selection, recorder
//! deltas, seeded label noise, and the metric-name rules of
//! `BENCHMARK.json`.

use obs::MetricValue;
use testkit::{Rng, SliceRandom};

/// Nearest-rank percentile `q` (in `[0, 1]`) of per-request latencies in
/// milliseconds. `None` is a request that failed or never got a reply: it
/// counts as infinitely late, so the result is `f64::INFINITY` once the rank
/// reaches the failures. An empty sample has no percentile (`INFINITY`).
pub fn percentile_ms(samples: &[Option<f64>], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::INFINITY;
    }
    let mut sorted: Vec<f64> = samples.iter().map(|s| s.unwrap_or(f64::INFINITY)).collect();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// Mean of the finite samples, or 0 when there are none.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The median of a non-empty sample (the lower middle for even lengths is
/// averaged with the upper one).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Work per second over every timed unit: `work_per_unit` times the number
/// of units, over their summed time. On a shared host whose slow phases
/// come and go within a run, this moves with the share of slow time only;
/// the fastest unit jumps whenever a run happens to see no fast phase.
pub fn throughput(work_per_unit: f64, walls: &[f64]) -> f64 {
    assert!(!walls.is_empty(), "no unit was timed");
    work_per_unit * walls.len() as f64 / walls.iter().sum::<f64>()
}

/// Index of the fastest (smallest) wall time; the first one wins a tie.
/// The traced run reads its spans from the fastest traced unit, the one a
/// slow host phase disturbed least.
pub fn fastest(walls: &[f64]) -> usize {
    assert!(!walls.is_empty(), "no unit was timed");
    let mut best = 0;
    for (i, &w) in walls.iter().enumerate() {
        if w < walls[best] {
            best = i;
        }
    }
    best
}

/// Count and sum of one histogram, or a counter's total (sum 0).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub count: u64,
    pub sum_ns: u64,
}

impl Tally {
    /// Mean observation in milliseconds (0 when nothing was observed).
    pub fn mean_ms(self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64 / 1e6
        }
    }

    /// Sum in seconds.
    pub fn sum_s(self) -> f64 {
        self.sum_ns as f64 / 1e9
    }
}

/// A point-in-time copy of a recorder's metrics, for per-phase deltas.
#[derive(Debug, Clone, Default)]
pub struct Snapshot(Vec<(String, MetricValue)>);

impl Snapshot {
    pub fn take(rec: &obs::Recorder) -> Snapshot {
        Snapshot(rec.metrics())
    }

    fn tally(&self, name: &str) -> Tally {
        match self.0.iter().find(|(n, _)| n == name).map(|(_, v)| v) {
            Some(MetricValue::Counter(c)) => Tally {
                count: *c,
                sum_ns: 0,
            },
            Some(MetricValue::Histogram(h)) => Tally {
                count: h.count,
                sum_ns: h.sum_ns,
            },
            Some(MetricValue::Gauge(_)) | None => Tally::default(),
        }
    }

    /// What the histogram or counter `name` gained between `earlier` and
    /// `self`. A metric absent from either side counts as zero there.
    pub fn delta(&self, earlier: &Snapshot, name: &str) -> Tally {
        let now = self.tally(name);
        let then = earlier.tally(name);
        Tally {
            count: now.count.saturating_sub(then.count),
            sum_ns: now.sum_ns.saturating_sub(then.sum_ns),
        }
    }
}

/// Moves `round(share · n)` labels, at positions chosen by `seed`, to a
/// different class (also chosen by `seed`). Returns how many moved.
pub fn add_label_noise(labels: &mut [usize], n_classes: usize, share: f64, seed: u64) -> usize {
    assert!(n_classes >= 2, "label noise needs at least two classes");
    let n_noisy = (share * labels.len() as f64).round() as usize;
    let mut rng = hdc::rng::rng_for(seed, 0x4015E);
    let mut order: Vec<usize> = (0..labels.len()).collect();
    order.shuffle(&mut rng);
    for &i in &order[..n_noisy] {
        let shift = 1 + rng.random_range(0..n_classes - 1);
        labels[i] = (labels[i] + shift) % n_classes;
    }
    n_noisy
}

/// A metric or workload name as `BENCHMARK.json` allows it: a letter or
/// digit first, then at most 64 letters, digits, `_`, `.` and `-` in all.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit as `BENCHMARK.json` allows it: 1 to 16 letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let s: Vec<Option<f64>> = (1..=10).map(|v| Some(f64::from(v))).collect();
        assert_eq!(percentile_ms(&s, 0.5), 5.0);
        assert_eq!(percentile_ms(&s, 0.9), 9.0);
        assert_eq!(percentile_ms(&s, 0.91), 10.0);
        assert_eq!(percentile_ms(&s, 0.0), 1.0);
        assert_eq!(percentile_ms(&s, 1.0), 10.0);
    }

    #[test]
    fn failures_count_as_infinitely_late() {
        let mut s: Vec<Option<f64>> = (1..=10).map(|v| Some(f64::from(v))).collect();
        s[0] = None; // the fastest request failed: it moves to the tail
        assert_eq!(percentile_ms(&s, 0.5), 6.0);
        assert_eq!(percentile_ms(&s, 0.9), 10.0);
        assert_eq!(percentile_ms(&s, 1.0), f64::INFINITY);
        let all_failed = vec![None; 4];
        assert_eq!(percentile_ms(&all_failed, 0.5), f64::INFINITY);
        assert_eq!(percentile_ms(&[], 0.5), f64::INFINITY);
    }

    #[test]
    fn throughput_is_total_work_over_total_time() {
        assert_eq!(throughput(30.0, &[2.0, 4.0]), 10.0);
        assert_eq!(throughput(5.0, &[0.5]), 10.0);
        // One slow unit moves it by its share of the time, not by a jump.
        assert_eq!(throughput(6.0, &[1.0, 1.0, 1.0, 3.0]), 4.0);
    }

    #[test]
    fn fastest_unit_is_the_first_minimum() {
        assert_eq!(fastest(&[3.0, 2.0, 2.5]), 1);
        assert_eq!(fastest(&[2.0, 3.0, 2.0]), 0);
        assert_eq!(fastest(&[4.0]), 0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn recorder_deltas_are_per_phase() {
        let rec = obs::Recorder::builder().build();
        rec.add("serve/requests_total", 10);
        rec.observe_ns("serve/queue_wait_ns", 1_000);
        let before = Snapshot::take(&rec);
        rec.add("serve/requests_total", 5);
        rec.observe_ns("serve/queue_wait_ns", 3_000_000);
        rec.observe_ns("serve/queue_wait_ns", 1_000_000);
        rec.observe_ns("serve/batch_ns", 7);
        let after = Snapshot::take(&rec);
        assert_eq!(after.delta(&before, "serve/requests_total").count, 5);
        let wait = after.delta(&before, "serve/queue_wait_ns");
        assert_eq!(
            wait,
            Tally {
                count: 2,
                sum_ns: 4_000_000
            }
        );
        assert_eq!(wait.mean_ms(), 2.0);
        // A metric that first appears inside the phase counts from zero.
        assert_eq!(
            after.delta(&before, "serve/batch_ns"),
            Tally {
                count: 1,
                sum_ns: 7
            }
        );
        assert_eq!(after.delta(&before, "absent"), Tally::default());
        assert_eq!(Tally::default().mean_ms(), 0.0);
        // A disabled recorder has nothing to diff.
        let off = Snapshot::take(&obs::Recorder::disabled());
        assert_eq!(off.delta(&off, "serve/requests_total"), Tally::default());
    }

    #[test]
    fn label_noise_is_seeded_and_moves_exactly_the_share() {
        let clean: Vec<usize> = (0..1000).map(|i| i % 26).collect();
        let mut a = clean.clone();
        let mut b = clean.clone();
        let mut c = clean.clone();
        assert_eq!(add_label_noise(&mut a, 26, 0.1, 7), 100);
        add_label_noise(&mut b, 26, 0.1, 7);
        add_label_noise(&mut c, 26, 0.1, 8);
        assert_eq!(a, b, "the same seed moves the same labels");
        assert_ne!(a, c, "another seed moves other labels");
        let moved = a.iter().zip(&clean).filter(|(x, y)| x != y).count();
        assert_eq!(moved, 100, "every chosen label lands on another class");
        assert!(a.iter().all(|&l| l < 26));
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "setup_s",
            "hdc.encode.busy_s",
            "loadgen.open.late_p99_ms",
            "2x",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
        for ok in [
            "ms",
            "s",
            "1/s",
            "count",
            "%",
            "samples/s",
            "req/s",
            "MB",
            "fraction",
        ] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "a b", "seventeen-chars-x"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }
}
