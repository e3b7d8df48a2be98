//! The untraced runs: end-to-end metrics of the three workloads.
//!
//! Every workload reports the same metric names so runs compare across
//! workloads; what each one measures is listed in `README.md`.  All load
//! comes from this one caller thread, closed loop: each operation waits for
//! the previous one.  The workload's own operation and its serial baseline
//! alternate for the whole run, so both sample the same stretch of time on a
//! machine whose speed drifts, and every figure is a median.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rgz_checksum::Crc32;
use rgz_compress::{CompressedStream, ParallelCompressor, ParallelCompressorOptions};
use rgz_core::{ParallelGzipReader, ParallelGzipReaderOptions};
use rgz_index::GzipIndex;
use rgz_io::SharedFileReader;

use crate::inputs::{self, Prepared, SEEK_CHUNK_SIZE, SEEK_READ_SIZE};
use crate::report::{expect_eq, guarded, peak_rss_mib, release, reset_peak_rss, to_error, Report};
use crate::spans::Spans;
use crate::stats::{mb_s, median, percentile, tail_percentile};
use crate::{parallelization, Better, Rng, Workload};

/// Buffer the decode workload reads through, as the CLI does.
pub const READ_BUFFER: usize = 1 << 20;
/// Time a run may overrun `--seconds` to reach [`MIN_SAMPLES`].
const MAX_OVERRUN: Duration = Duration::from_secs(60);
/// Constructor timings taken after every operation of the loop; `setup_s`
/// is their median over the run.
const SETUP_PER_ITERATION: usize = 4;
/// Measured samples every series gets even when time runs out.
const MIN_SAMPLES: usize = 3;
/// Seeks at the start of the seek phase left out of the latency sample
/// (cold window cache and resolved-chunk cache).
const WARMUP_SEEKS: usize = 8;
/// Seeks between two serial baseline passes of the seek workload.
const SEEKS_PER_BLOCK: usize = 128;
/// Blocks of seeks before the first serial baseline pass; the peak RSS is
/// taken over them (a longer window than one block, so the peak is steadier).
const RSS_BLOCKS: usize = 4;
/// Seeks after each serial baseline pass left out of the latency sample:
/// the baseline's 32 MiB of output has just evicted the CPU caches, which a
/// caller that only seeks never pays.
const SEEKS_AFTER_BASELINE: usize = 2;

/// When the measured phase of a run ends: at `--seconds`, or later if a
/// series still lacks its minimum samples (but never past [`MAX_OVERRUN`]).
/// Callers count a failed operation as ready: the run is already wrong.
struct Deadline {
    soft: Instant,
    hard: Instant,
}

impl Deadline {
    fn after(seconds: f64) -> Self {
        let soft = Instant::now() + Duration::from_secs_f64(seconds);
        Deadline {
            soft,
            hard: soft + MAX_OVERRUN,
        }
    }

    fn keep_going(&self, ready: bool) -> bool {
        let now = Instant::now();
        now < self.soft || (!ready && now < self.hard)
    }
}

/// A series of measurements whose first (warm-up) sample is dropped.
#[derive(Debug, Default)]
struct Series {
    values: Vec<f64>,
    seen: usize,
}

impl Series {
    fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.seen > 1 {
            self.values.push(value);
        }
    }

    fn ready(&self) -> bool {
        self.values.len() >= MIN_SAMPLES
    }

    fn median(&self) -> f64 {
        median(&self.values)
    }

    /// Median of `bytes / sample` in MB/s.
    fn median_mb_s(&self, bytes: u64) -> f64 {
        let rates: Vec<f64> = self.values.iter().map(|&s| mb_s(bytes, s)).collect();
        median(&rates)
    }

    fn describe_mb_s(&self, bytes: u64) -> String {
        let rates: Vec<String> = self
            .values
            .iter()
            .map(|&s| format!("{:.1}", mb_s(bytes, s)))
            .collect();
        rates.join(" ")
    }
}

/// Times [`SETUP_PER_ITERATION`] constructions into `samples`; each
/// constructed value is released outside the timing.  Spreading these over
/// the whole run, like every other series, keeps one slow stretch of the
/// machine from setting the run's figure.
fn time_setup<T>(samples: &mut Vec<f64>, mut construct: impl FnMut() -> T) {
    for _ in 0..SETUP_PER_ITERATION {
        let start = Instant::now();
        let value = construct();
        samples.push(start.elapsed().as_secs_f64());
        release(value);
    }
}

/// One sequential decode through `Read::read`, as the CLI drives it.
pub struct DecodePass {
    pub wall_s: f64,
    pub read_latencies_s: Vec<f64>,
    pub statistics: rgz_core::ReaderStatistics,
    pub reader: ParallelGzipReader,
}

/// Opens the file and reads it to EOF, checking length and CRC-32; with
/// `spans`, one span for `open` and one per `read()` call.
pub fn decode_pass(
    prepared: &Prepared,
    options: &ParallelGzipReaderOptions,
    buffer: &mut [u8],
    mut spans: Option<&mut Spans>,
) -> Result<DecodePass, String> {
    guarded(|| {
        let start = Instant::now();
        let (reader, _) = Spans::timed(spans.as_deref_mut(), "core.open", 0, || {
            ParallelGzipReader::open(prepared.gzip(), options.clone())
        });
        let mut reader = reader.map_err(to_error)?;
        let mut crc = Crc32::new();
        let mut read_latencies_s = Vec::with_capacity(256);
        loop {
            let (count, latency) =
                Spans::timed(spans.as_deref_mut(), "core.call", 0, || reader.read(buffer));
            let count = count.map_err(to_error)?;
            read_latencies_s.push(latency);
            if count == 0 {
                break;
            }
            crc.update(&buffer[..count]);
        }
        let wall_s = start.elapsed().as_secs_f64();
        expect_eq(
            "decoded length",
            prepared.facts.uncompressed_bytes,
            crc.length(),
        )?;
        expect_eq("decoded crc32", prepared.facts.crc32, crc.finalize())?;
        Ok(DecodePass {
            wall_s,
            read_latencies_s,
            statistics: reader.statistics(),
            reader,
        })
    })
}

/// `rgz_gzip::decompress` over `compressed`, checked against the expected
/// length and CRC-32; returns the decode time.
fn serial_pass(compressed: &[u8], length: u64, crc32: u32) -> Result<f64, String> {
    guarded(|| {
        let start = Instant::now();
        let output = rgz_gzip::decompress(compressed).map_err(to_error)?;
        let elapsed = start.elapsed().as_secs_f64();
        expect_eq("serial length", length, output.len() as u64)?;
        expect_eq("serial crc32", crc32, rgz_checksum::crc32(&output))?;
        Ok(elapsed)
    })
}

/// [`serial_pass`] over the prepared gzip file, read into memory outside
/// the timing and released before the next measured operation.
fn serial_file_pass(prepared: &Prepared, report: &mut Report, series: &mut Series) {
    let facts = prepared.facts;
    let result = std::fs::read(prepared.gzip())
        .map_err(to_error)
        .and_then(|compressed| serial_pass(&compressed, facts.uncompressed_bytes, facts.crc32));
    if let Some(seconds) = report.check(result) {
        series.push(seconds);
    }
}

/// The end-to-end metrics every workload reports: name, unit, direction.
pub const END_TO_END: [(&str, &str, Better); 7] = [
    ("throughput_mb_s", "MB/s", Better::Higher),
    ("serial_decode_mb_s", "MB/s", Better::Higher),
    ("p50_ms", "ms", Better::Lower),
    ("tail_ms", "ms", Better::Lower),
    ("bytes_ratio", "ratio", Better::Lower),
    ("setup_s", "s", Better::Lower),
    ("peak_rss_mib", "MiB", Better::Lower),
];

/// One run's values of [`END_TO_END`].
struct EndToEnd {
    throughput_mb_s: f64,
    serial_decode_mb_s: f64,
    p50_ms: f64,
    tail_ms: f64,
    bytes_ratio: f64,
    setup_s: f64,
    /// Peak RSS over the run's first operations, before any serial baseline
    /// pass has grown the heap.
    peak_rss_mib: f64,
}

impl EndToEnd {
    fn report(self, report: &mut Report) {
        let values = [
            self.throughput_mb_s,
            self.serial_decode_mb_s,
            self.p50_ms,
            self.tail_ms,
            self.bytes_ratio,
            self.setup_s,
            self.peak_rss_mib,
        ];
        for ((name, unit, _), value) in END_TO_END.into_iter().zip(values) {
            report.metric(name, value, unit);
        }
    }
}

/// decode-silesia: whole-file decode with `ParallelGzipReader` (no index),
/// alternating with the serial `rgz_gzip::decompress` baseline on the same
/// file.
pub fn decode(prepared: &Prepared, seconds: f64, report: &mut Report) {
    let options = ParallelGzipReaderOptions::with_parallelization(parallelization());
    let size = prepared.facts.uncompressed_bytes;
    let deadline = Deadline::after(seconds);
    let mut setup = Vec::new();

    let mut buffer = vec![0u8; READ_BUFFER];
    let mut walls = Series::default();
    let mut serial = Series::default();
    let mut peak_rss = None;
    let mut reads = Vec::new();
    let mut index_bytes = 0;
    let mut speculative_used = Vec::new();
    reset_peak_rss();
    while deadline.keep_going(report.failed > 0 || (walls.ready() && serial.ready())) {
        let pass = decode_pass(prepared, &options, &mut buffer, None);
        peak_rss.get_or_insert_with(peak_rss_mib);
        if let Some(pass) = report.check(pass) {
            if index_bytes == 0 {
                index_bytes = pass.reader.index().export().len();
            }
            speculative_used.push(pass.statistics.speculative_chunks_used);
            if walls.seen > 0 {
                reads.extend_from_slice(&pass.read_latencies_s);
            }
            walls.push(pass.wall_s);
            release(pass);
        }
        serial_file_pass(prepared, report, &mut serial);
        time_setup(&mut setup, || {
            ParallelGzipReader::open(prepared.gzip(), options.clone())
        });
    }
    report.guard(
        !speculative_used.is_empty() && speculative_used.iter().all(|&used| used > 0),
        "decode-silesia: speculative_chunks_used > 0 on every pass",
    );

    let tail_q = tail_percentile(reads.len());
    let metrics = EndToEnd {
        throughput_mb_s: walls.median_mb_s(size),
        serial_decode_mb_s: serial.median_mb_s(size),
        p50_ms: walls.median() * 1e3,
        tail_ms: percentile(&reads, tail_q) * 1e3,
        bytes_ratio: index_bytes as f64 / size as f64,
        setup_s: median(&setup),
        peak_rss_mib: peak_rss.unwrap_or_default(),
    };
    report.note(format!(
        "decode_mb_s {:.2} MB/s (median of {} passes, higher is better)",
        metrics.throughput_mb_s,
        walls.values.len()
    ));
    report.note(format!(
        "serial_decode_mb_s {:.2} MB/s (median of {} passes, higher is better)",
        metrics.serial_decode_mb_s,
        serial.values.len()
    ));
    report.note(format!(
        "passes MB/s: reader {} / serial {}",
        walls.describe_mb_s(size),
        serial.describe_mb_s(size)
    ));
    report.note(format!(
        "read_stall_p{tail_q}_ms {:.3} ms over {} read() calls of 1 MiB (lower is better)",
        metrics.tail_ms,
        reads.len()
    ));
    report.note(format!(
        "index_ratio {:.6} of the reader's own index (lower is better)",
        metrics.bytes_ratio
    ));
    metrics.report(report);
}

/// Reads the seek workload's exported index and opens a reader on it.
pub fn open_indexed(
    prepared: &Prepared,
    options: &ParallelGzipReaderOptions,
) -> Result<ParallelGzipReader, String> {
    let bytes = std::fs::read(prepared.index()).map_err(to_error)?;
    let index = GzipIndex::import(&bytes).map_err(to_error)?;
    let file = SharedFileReader::open(prepared.gzip()).map_err(to_error)?;
    ParallelGzipReader::with_index(file, options.clone(), index).map_err(to_error)
}

/// Options of the seeking reader: default except parallelization and the
/// chunk size its index was built with.
pub fn seek_options() -> ParallelGzipReaderOptions {
    ParallelGzipReaderOptions::with_parallelization(parallelization())
        .with_chunk_size(SEEK_CHUNK_SIZE)
}

/// A uniform seek target that leaves room for a whole read.
pub fn seek_offset(rng: &mut Rng, size: u64) -> u64 {
    rng.below(size - SEEK_READ_SIZE as u64 + 1)
}

/// One seek plus `read_exact` (with `spans`, in one span), compared with
/// the corpus on disk outside the timing; returns the latency.
pub fn seek_once(
    reader: &mut ParallelGzipReader,
    raw: &File,
    offset: u64,
    buffer: &mut [u8],
    expected: &mut [u8],
    spans: Option<&mut Spans>,
) -> Result<f64, String> {
    guarded(|| {
        let (result, latency) = Spans::timed(spans, "core.call", buffer.len() as u64, || {
            reader.seek(SeekFrom::Start(offset))?;
            reader.read_exact(buffer)
        });
        result.map_err(to_error)?;
        raw.read_exact_at(expected, offset).map_err(to_error)?;
        if buffer != expected {
            return Err(format!("seek to {offset}: bytes differ from the corpus"));
        }
        Ok(latency)
    })
}

/// seek-base64: seeded uniform seeks of 64 KiB through an imported v3
/// index, with a serial decode of the file after every block of seeks.
pub fn seek(prepared: &Prepared, seed: u64, seconds: f64, report: &mut Report) {
    let options = seek_options();
    let size = prepared.facts.uncompressed_bytes;
    let deadline = Deadline::after(seconds);
    let mut setup = Vec::new();
    let opened = open_indexed(prepared, &options)
        .and_then(|reader| Ok((reader, File::open(prepared.raw()).map_err(to_error)?)));
    let (mut reader, raw) = match opened {
        Ok(opened) => opened,
        Err(message) => {
            report.check::<()>(Err(format!("seek set-up: {message}")));
            return;
        }
    };

    let mut rng = Rng::new(seed);
    let mut buffer = vec![0u8; SEEK_READ_SIZE];
    let mut expected = vec![0u8; SEEK_READ_SIZE];
    let mut latencies = Vec::new();
    let mut block_mb_s = Vec::new();
    let (mut block_seeks, mut block_latency) = (0, 0.0);
    let mut settling = WARMUP_SEEKS;
    let mut serial = Series::default();
    let mut peak_rss = None;
    let mut seeks = 0;
    reset_peak_rss();
    while deadline
        .keep_going(report.failed > 0 || (serial.ready() && block_mb_s.len() > MIN_SAMPLES))
    {
        let offset = seek_offset(&mut rng, size);
        let result = seek_once(&mut reader, &raw, offset, &mut buffer, &mut expected, None);
        seeks += 1;
        match report.check(result) {
            Some(_) if settling > 0 => settling -= 1,
            Some(latency) => {
                latencies.push(latency);
                block_seeks += 1;
                block_latency += latency;
            }
            None => {}
        }
        if seeks % SEEKS_PER_BLOCK == 0 {
            block_mb_s.push(mb_s((SEEK_READ_SIZE * block_seeks) as u64, block_latency));
            (block_seeks, block_latency) = (0, 0.0);
            if block_mb_s.len() < RSS_BLOCKS {
                continue;
            }
            peak_rss.get_or_insert_with(peak_rss_mib);
            serial_file_pass(prepared, report, &mut serial);
            time_setup(&mut setup, || open_indexed(prepared, &options));
            settling = SEEKS_AFTER_BASELINE;
        }
    }
    let statistics = reader.statistics();
    release(reader);
    report.guard(
        statistics.index_chunks_verified > 0,
        "seek-base64: index_chunks_verified > 0",
    );
    report.guard(
        statistics.index_chunks_unverified == 0,
        "seek-base64: index_chunks_unverified == 0",
    );
    report.guard(
        statistics.speculative_chunks_used == 0 && statistics.prefetches_issued == 0,
        "seek-base64: no speculative chunks",
    );

    let index_bytes = std::fs::metadata(prepared.index()).map_or(0, |m| m.len());
    let tail_q = tail_percentile(latencies.len());
    let metrics = EndToEnd {
        throughput_mb_s: median(&block_mb_s),
        serial_decode_mb_s: serial.median_mb_s(size),
        p50_ms: median(&latencies) * 1e3,
        tail_ms: percentile(&latencies, tail_q) * 1e3,
        bytes_ratio: index_bytes as f64 / size as f64,
        setup_s: median(&setup),
        peak_rss_mib: peak_rss.unwrap_or_default(),
    };
    report.note(format!(
        "seek_p50_ms {:.3} ms over {} seeks (lower is better)",
        metrics.p50_ms,
        latencies.len()
    ));
    report.note(format!(
        "seek_tail_ms {:.3} ms at p{tail_q} over {} seeks (lower is better)",
        metrics.tail_ms,
        latencies.len()
    ));
    report.note(format!(
        "index_ratio {:.6} (lower is better)",
        metrics.bytes_ratio
    ));
    report.note(format!(
        "index prefetches issued {} / hits {}, chunks decoded {}; serial passes MB/s {}",
        statistics.index_prefetches_issued,
        statistics.index_prefetch_hits,
        statistics.index_chunks,
        serial.describe_mb_s(size)
    ));
    metrics.report(report);
}

/// Options of the compress workload: defaults except parallelization.
pub fn compress_options() -> ParallelCompressorOptions {
    ParallelCompressorOptions {
        parallelization: parallelization(),
        ..ParallelCompressorOptions::default()
    }
}

/// Checks a compressed stream: re-inflated with `rgz_gzip::decompress`
/// (timed, returned) and one seeded read through its emitted v3 index, which
/// must be verified against the index's CRC fragments.
pub fn verify_stream(
    stream: &CompressedStream,
    data: &[u8],
    crc32: u32,
    rng: &mut Rng,
) -> Result<f64, String> {
    let serial_s = serial_pass(&stream.bytes, data.len() as u64, crc32)?;
    guarded(|| {
        let index = GzipIndex::import(&stream.index.export()).map_err(to_error)?;
        let mut reader = ParallelGzipReader::with_index(
            SharedFileReader::from_bytes(stream.bytes.clone()),
            ParallelGzipReaderOptions::with_parallelization(parallelization()),
            index,
        )
        .map_err(to_error)?;
        let offset = seek_offset(rng, data.len() as u64);
        let mut buffer = vec![0u8; SEEK_READ_SIZE];
        reader.seek(SeekFrom::Start(offset)).map_err(to_error)?;
        reader.read_exact(&mut buffer).map_err(to_error)?;
        if buffer[..] != data[offset as usize..offset as usize + SEEK_READ_SIZE] {
            return Err(format!("indexed read at {offset} differs from the input"));
        }
        let verification = reader.verification_statistics();
        release(reader);
        if verification.index_chunks_verified == 0 || verification.index_chunks_unverified != 0 {
            return Err(format!("indexed read not verified: {verification:?}"));
        }
        Ok(())
    })?;
    Ok(serial_s)
}

/// compress-silesia: `ParallelCompressor` with default options over an
/// in-memory corpus; every stream is checked (and its re-inflation timed)
/// before the next compression.
pub fn compress(prepared: &Prepared, seed: u64, seconds: f64, report: &mut Report) {
    let data: Arc<[u8]> = Arc::from(inputs::corpus(Workload::CompressSilesia, seed));
    let size = data.len() as u64;
    let crc32 = prepared.facts.crc32;
    let options = compress_options();
    let expected = (
        data.len().div_ceil(options.chunk_size),
        data.len().div_ceil(options.member_size),
    );
    let deadline = Deadline::after(seconds);
    let mut setup = Vec::new();
    let compressor = ParallelCompressor::new(options.clone());

    let mut rng = Rng::new(seed);
    let mut walls = Series::default();
    let mut serial = Series::default();
    let mut peak_rss = None;
    let mut ratios = Vec::new();
    reset_peak_rss();
    while deadline.keep_going(report.failed > 0 || (walls.ready() && serial.ready())) {
        let compressed = guarded(|| {
            let start = Instant::now();
            let stream = compressor.compress_shared(Arc::clone(&data));
            Ok((start.elapsed().as_secs_f64(), stream))
        });
        peak_rss.get_or_insert_with(peak_rss_mib);
        let Some((wall, stream)) = report.check(compressed) else {
            continue;
        };
        walls.push(wall);
        let counts = (stream.chunks, stream.members);
        report.guard(
            counts == expected,
            format!("compress-silesia: {counts:?} chunks/members, expected {expected:?}"),
        );
        ratios.push(stream.bytes.len() as f64 / size as f64);
        if let Some(seconds) = report.check(verify_stream(&stream, &data, crc32, &mut rng)) {
            serial.push(seconds);
        }
        time_setup(&mut setup, || ParallelCompressor::new(options.clone()));
    }
    release(compressor);
    report.guard_failures.dedup();

    let tail_q = tail_percentile(walls.values.len());
    let metrics = EndToEnd {
        throughput_mb_s: walls.median_mb_s(size),
        serial_decode_mb_s: serial.median_mb_s(size),
        p50_ms: walls.median() * 1e3,
        tail_ms: percentile(&walls.values, tail_q) * 1e3,
        bytes_ratio: median(&ratios),
        setup_s: median(&setup),
        peak_rss_mib: peak_rss.unwrap_or_default(),
    };
    report.note(format!(
        "compress_mb_s {:.2} MB/s (median of {} passes, higher is better)",
        metrics.throughput_mb_s,
        walls.values.len()
    ));
    report.note(format!(
        "compress_ratio {:.6} (lower is better)",
        metrics.bytes_ratio
    ));
    report.note(format!(
        "chunks {}, members {}; passes MB/s {} / re-inflate {}",
        expected.0,
        expected.1,
        walls.describe_mb_s(size),
        serial.describe_mb_s(size)
    ));
    metrics.report(report);
}
