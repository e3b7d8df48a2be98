//! What one run reports: checked operations, guards, metrics and notes.

use std::fmt::Display;

/// Failures printed to stderr before further ones are only counted.
const PRINTED_FAILURES: u64 = 5;

#[derive(Debug, Default)]
pub struct Report {
    /// Checked operations (decodes, seeks, compressions, re-inflations).
    pub attempted: u64,
    /// Operations that returned an error, panicked or produced wrong output.
    pub failed: u64,
    /// Workload guards that did not hold: the run no longer exercises the
    /// path its workload exists for.
    pub guard_failures: Vec<String>,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one checked operation; `Err` describes what went wrong.
    /// Passes the operation's value on.
    pub fn check<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(message) => {
                self.failed += 1;
                if self.failed <= PRINTED_FAILURES {
                    eprintln!("perfbench: check failed: {message}");
                }
                None
            }
        }
    }

    pub fn guard(&mut self, holds: bool, description: impl Display) {
        if !holds {
            self.guard_failures.push(description.to_string());
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// An error of any crate as a check failure message.
pub fn to_error(error: impl Display) -> String {
    error.to_string()
}

/// Expected-vs-actual comparison as a check result.
pub fn expect_eq<T: PartialEq + std::fmt::Debug>(
    what: &str,
    expected: T,
    actual: T,
) -> Result<(), String> {
    if expected == actual {
        Ok(())
    } else {
        Err(format!("{what}: expected {expected:?}, got {actual:?}"))
    }
}

/// Runs `body`, turning a panic into an error so it counts as a failed
/// operation instead of ending the run.
pub fn guarded<T>(body: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
        Ok(result) => result,
        Err(panic) => Err(match panic.downcast_ref::<&str>() {
            Some(message) => format!("panic: {message}"),
            None => match panic.downcast_ref::<String>() {
                Some(message) => format!("panic: {message}"),
                None => "panic".to_string(),
            },
        }),
    }
}

/// Drops a value that owns a worker pool after giving its workers time to
/// park.  The pool's job channel notifies waiting workers of the disconnect
/// without holding the queue lock, so a worker caught between its
/// disconnect check and its condvar wait misses the wakeup and the pool's
/// join hangs; workers that are already parked wake up reliably.
pub fn release<T>(value: T) {
    std::thread::sleep(std::time::Duration::from_millis(2));
    drop(value);
}

/// Resets this process's peak resident set size (`VmHWM`) to its current
/// size, so the next [`peak_rss_mib`] covers only what ran in between.
/// Kernels without `clear_refs` keep the whole-process peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
