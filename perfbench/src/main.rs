//! End-to-end and per-layer benchmark of rapidgzip-rs.
//!
//! ```text
//! rgz_perfbench --workload <decode-silesia|seek-base64|compress-silesia>
//!               --seed <n> --seconds <s> --trace <0|1> [--cache <dir>]
//! ```
//!
//! The process first prepares the seeded inputs (cached under `--cache`),
//! then runs the measurement in a fresh child process so `peak_rss_mib`
//! covers only the workload.  The child prints notes and, as its last line,
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.  With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones from the traced replay (see `README.md`).

mod inputs;
mod replay;
mod report;
mod spans;
mod stats;
#[cfg(test)]
mod tests;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use report::Report;

/// Wall time one invocation may take, input generation included.
const RUN_LIMIT: Duration = Duration::from_secs(170);
/// Time the measurement always gets, however long the generation took.
const MIN_MEASURE_LIMIT: Duration = Duration::from_secs(60);

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DecodeSilesia,
    SeekBase64,
    CompressSilesia,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::DecodeSilesia,
        Workload::SeekBase64,
        Workload::CompressSilesia,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DecodeSilesia => "decode-silesia",
            Workload::SeekBase64 => "seek-base64",
            Workload::CompressSilesia => "compress-silesia",
        }
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Worker threads given to the program: one per available core.
pub fn parallelization() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// SplitMix64: the seeded source of seek offsets.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EEC_0FF5_E75E_ED00)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    cache: PathBuf,
    measure: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut cache = PathBuf::from(".bench_cache");
    let mut measure = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--measure" {
            measure = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            "--cache" => cache = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        cache,
        measure,
    })
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        // `+ 0.0` turns the -0 of an empty float sum into 0.
        format!("{}", value + 0.0)
    } else {
        "0".to_string()
    }
}

fn print_result(report: &Report) {
    for line in &report.notes {
        println!("# {line}");
    }
    for guard in &report.guard_failures {
        println!("# GUARD FAILED: {guard}");
    }
    println!(
        "# error_rate {} ({} failed / {} attempted, lower is better)",
        json_number(report.error_rate()),
        report.failed,
        report.attempted
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.guard_failures.is_empty() && report.attempted > 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}

fn measure(args: &Args, prepared: &inputs::Prepared) -> Report {
    let mut report = Report::default();
    let facts = prepared.facts;
    report.note(format!(
        "workload {} seed {} parallelization {}",
        args.workload.name(),
        args.seed,
        parallelization()
    ));
    report.note(format!(
        "input: {} uncompressed bytes, {} compressed bytes, {} default 4 MiB chunks, {} seek points",
        facts.uncompressed_bytes, facts.compressed_bytes, facts.default_chunks, facts.seek_points
    ));
    if args.trace {
        replay::run(
            args.workload,
            prepared,
            args.seed,
            args.seconds,
            &mut report,
        );
        return report;
    }
    match args.workload {
        Workload::DecodeSilesia => workloads::decode(prepared, args.seconds, &mut report),
        Workload::SeekBase64 => workloads::seek(prepared, args.seed, args.seconds, &mut report),
        Workload::CompressSilesia => {
            workloads::compress(prepared, args.seed, args.seconds, &mut report)
        }
    }
    report
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let prepared = match inputs::prepare(&args.cache, args.workload, args.seed) {
        Ok(prepared) => prepared,
        Err(error) => {
            eprintln!("perfbench: preparing inputs failed: {error}");
            return ExitCode::FAILURE;
        }
    };
    if args.measure {
        let report = measure(&args, &prepared);
        print_result(&report);
        return if report.guard_failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    // Measure in a fresh process: its peak RSS then covers only the
    // workload, not the input generation above.  A measurement that hangs
    // is killed so the run still ends in time, with a failure.
    let child = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(std::env::args().skip(1))
            .arg("--measure")
            .spawn()
    });
    let mut child = match child {
        Ok(child) => child,
        Err(error) => {
            eprintln!("perfbench: cannot start the measurement: {error}");
            return ExitCode::FAILURE;
        }
    };
    let limit = RUN_LIMIT
        .saturating_sub(started.elapsed())
        .max(MIN_MEASURE_LIMIT);
    let measuring = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => return ExitCode::SUCCESS,
            Ok(Some(status)) => {
                eprintln!("perfbench: measurement exited with {status}");
                return ExitCode::FAILURE;
            }
            Ok(None) if measuring.elapsed() < limit => {
                std::thread::sleep(Duration::from_millis(50));
            }
            result => {
                eprintln!(
                    "perfbench: measurement did not finish in {limit:?} ({result:?}); killing it"
                );
                let _ = child.kill();
                let _ = child.wait();
                return ExitCode::FAILURE;
            }
        }
    }
}
