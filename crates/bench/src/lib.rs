//! Shared helpers for the benchmark harness.
//!
//! Every table and figure of the paper's evaluation section has a dedicated
//! binary in `src/bin/` (README.md, "Reproducing the paper's figures and
//! tables", lists the mapping), the micro-benchmarks (Figure 7, Table 2)
//! included.
//!
//! All harness binaries accept `--quick` (or the environment variable
//! `RGZ_BENCH_QUICK=1`) to run at CI-friendly sizes; without it they use
//! larger corpora that take a few minutes in total.
//!
//! Binaries wired into the CI `perf-smoke` job additionally accept `--json`,
//! which replaces the human-readable tables with one machine-readable JSON
//! line on stdout (see [`JsonReport`]).  The checked-in `bench/baseline.json`
//! and the per-PR `BENCH_pr.json` artifact both use this format, one report
//! per line; `perf_compare` diffs them and enforces the regression threshold.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub mod json;

pub use json::JsonValue;

/// Returns true when the caller asked for CI-sized benchmarks.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
        || std::env::var("RGZ_BENCH_QUICK")
            .map(|v| v != "0")
            .unwrap_or(false)
}

/// Returns true when the caller asked for machine-readable one-line JSON
/// output instead of the human tables.
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Accumulates a bench binary's metrics and renders them as the one-line
/// JSON document shared by `BENCH_pr.json`, `bench/baseline.json` and the
/// CI `perf-smoke` job.
///
/// Metric keys are sorted (BTreeMap) so output is diffable run to run.
#[derive(Debug, Clone)]
pub struct JsonReport {
    bench: String,
    metrics: BTreeMap<String, f64>,
}

impl JsonReport {
    /// Creates a report for the bench binary `bench`.
    pub fn new(bench: &str) -> Self {
        Self {
            bench: bench.to_string(),
            metrics: BTreeMap::new(),
        }
    }

    /// Records one metric. Non-finite values are recorded as 0 (JSON has no
    /// NaN/Infinity, and a zero fails a regression gate loudly rather than
    /// poisoning the file).
    pub fn record(&mut self, key: &str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(key.to_string(), value);
    }

    /// Records a whole block of metrics under a common key prefix — used to
    /// fold an `rgz_trace::MetricsReport::flat_metrics()` map into a bench
    /// report.
    pub fn record_block(&mut self, prefix: &str, metrics: &BTreeMap<String, f64>) {
        for (key, value) in metrics {
            self.record(&format!("{prefix}{key}"), *value);
        }
    }

    /// Renders the one-line JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"bench\":{},\"mode\":{},\"metrics\":{{",
            json::escape_string(&self.bench),
            json::escape_string(if quick_mode() { "quick" } else { "full" }),
        ));
        for (i, (key, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json::escape_string(key), value));
        }
        out.push_str("}}");
        out
    }

    /// Prints the report to stdout (the contract of `--json` mode: exactly
    /// one line, nothing else on stdout).
    pub fn emit(&self) {
        println!("{}", self.to_json());
    }
}

/// Picks `full` or `quick` depending on [`quick_mode`].
pub fn scaled(full: usize, quick: usize) -> usize {
    if quick_mode() {
        quick
    } else {
        full
    }
}

/// Number of repetitions per measurement point.
pub fn repetitions() -> usize {
    if quick_mode() {
        2
    } else {
        3
    }
}

/// Available logical cores.
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// The list of core counts to sweep (1, 2, 4, … up to the machine size),
/// mirroring the x-axes of Figures 9–11.
pub fn core_counts() -> Vec<usize> {
    let maximum = available_cores();
    let mut counts = vec![1usize];
    while let Some(&last) = counts.last() {
        let next = last * 2;
        if next >= maximum {
            break;
        }
        counts.push(next);
    }
    if *counts.last().unwrap() != maximum {
        counts.push(maximum);
    }
    counts
}

/// Times a closure, returning its result and the elapsed wall-clock time.
pub fn time<T>(mut f: impl FnMut() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Runs `f` `repetitions()` times and returns the best (minimum) duration,
/// which is the least noisy estimator for throughput benchmarks.
pub fn best_of<T>(mut f: impl FnMut() -> T) -> (T, Duration) {
    let mut best: Option<Duration> = None;
    let mut last_value = None;
    for _ in 0..repetitions() {
        let (value, duration) = time(&mut f);
        best = Some(best.map_or(duration, |b| b.min(duration)));
        last_value = Some(value);
    }
    (last_value.unwrap(), best.unwrap())
}

/// Bandwidth in MB/s (decimal megabytes, as in the paper).
pub fn bandwidth_mb_per_s(bytes: usize, duration: Duration) -> f64 {
    bytes as f64 / 1e6 / duration.as_secs_f64().max(1e-9)
}

/// Prints a standard harness header.
pub fn print_header(title: &str, description: &str) {
    println!("# {title}");
    println!("# {description}");
    println!(
        "# machine: {} logical cores; mode: {}",
        available_cores(),
        if quick_mode() { "quick" } else { "full" }
    );
}

/// Formats a bandwidth series row.
pub fn print_series_row(label: &str, values: &[(usize, f64)]) {
    print!("{label:<28}");
    for (x, bandwidth) in values {
        print!(" {x:>4}:{bandwidth:>9.1}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_counts_are_increasing_and_end_at_the_machine_size() {
        let counts = core_counts();
        assert!(!counts.is_empty());
        assert_eq!(*counts.last().unwrap(), available_cores());
        assert!(counts.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(counts[0], 1);
    }

    #[test]
    fn bandwidth_computation() {
        let bandwidth = bandwidth_mb_per_s(10_000_000, Duration::from_secs(1));
        assert!((bandwidth - 10.0).abs() < 1e-9);
    }

    #[test]
    fn best_of_returns_a_duration() {
        let (value, duration) = best_of(|| 21 * 2);
        assert_eq!(value, 42);
        assert!(duration.as_nanos() > 0 || duration.is_zero());
    }
}
