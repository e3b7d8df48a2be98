//! The traced run: per-layer metrics.
//!
//! The reader and the compressor run their layers on pool threads, which
//! the benchmark cannot wrap.  So the traced run drives the real reader or
//! compressor once with one span per caller call, reads its counters, and
//! then *replays* the workload's per-chunk steps single-threaded through the
//! layers' public functions on the same input, one span per call.  The
//! replay's busy time against `P × wall` of the real run leaves
//! `core.unattributed_s`: scheduling, waiting, speculation that was thrown
//! away and everything else no replayed call accounts for.

use std::collections::BTreeMap;
use std::fs::File;
use std::sync::Arc;
use std::time::Instant;

use rgz_bitio::{BitReader, BitWriter};
use rgz_blockfinder::CombinedBlockFinder;
use rgz_compress::{CompressionLevel, ParallelCompressor};
use rgz_core::{
    ParallelGzipReader, ParallelGzipReaderOptions, ReaderStatistics, DEFAULT_CHUNK_SIZE,
};
use rgz_deflate::{
    inflate_hashed, inflate_two_stage, replace_markers_hashed, write_stored_block,
    CompressorOptions, DeflateCompressor, HtMatchFinder, InflateOutcome, MARKER_BASE,
};
use rgz_fetcher::ThreadPool;
use rgz_index::{GzipIndex, SeekPoint};
use rgz_io::{FileReader, SharedFileReader};
use rgz_window::{CompressedWindow, WINDOW_SIZE};

use crate::inputs::{self, Prepared, SEEK_READ_SIZE};
use crate::report::{expect_eq, guarded, release, to_error, Report};
use crate::spans::Spans;
use crate::stats::{mb_s, median, ratio};
use crate::workloads::{self, READ_BUFFER};
use crate::{parallelization, Better, Rng, Workload};

/// Every per-layer metric with its unit and direction, in output order.
/// Metrics a workload does not exercise are reported as 0.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("blockfinder.calls", "count", Better::Lower),
    ("blockfinder.busy_s", "s", Better::Lower),
    ("blockfinder.mb_s", "MB/s", Better::Higher),
    ("blockfinder.false_positives", "count", Better::Lower),
    ("blockfinder.useful_ratio", "ratio", Better::Higher),
    ("deflate.two_stage_mb_s", "MB/s", Better::Higher),
    ("deflate.two_stage_busy_s", "s", Better::Lower),
    ("deflate.marker_ratio", "ratio", Better::Lower),
    ("deflate.replace_mb_s", "MB/s", Better::Higher),
    ("deflate.replace_busy_s", "s", Better::Lower),
    ("deflate.two_stage_vs_one_stage", "ratio", Better::Higher),
    ("deflate.one_stage_mb_s", "MB/s", Better::Higher),
    ("deflate.one_stage_busy_s", "s", Better::Lower),
    ("deflate.encode_mb_s", "MB/s", Better::Higher),
    ("deflate.encode_busy_s", "s", Better::Lower),
    ("checksum.crc32_mb_s", "MB/s", Better::Higher),
    ("checksum.busy_s", "s", Better::Lower),
    ("window.compress_us", "us", Better::Lower),
    ("window.inflate_us", "us", Better::Lower),
    ("window.stored_bytes", "bytes", Better::Lower),
    ("index.points", "count", Better::Lower),
    ("index.bytes", "bytes", Better::Lower),
    ("index.export_s", "s", Better::Lower),
    ("index.import_s", "s", Better::Lower),
    ("io.read_mb_s", "MB/s", Better::Higher),
    ("io.busy_s", "s", Better::Lower),
    ("fetcher.tasks_submitted", "count", Better::Lower),
    ("fetcher.dispatch_us", "us", Better::Lower),
    ("core.read_calls", "count", Better::Lower),
    ("core.read_busy_s", "s", Better::Lower),
    ("core.read_stall_max_ms", "ms", Better::Lower),
    ("core.speculative_used", "count", Better::Higher),
    ("core.speculative_wasted", "count", Better::Lower),
    ("core.speculative_bytes_wasted", "bytes", Better::Lower),
    ("core.on_demand_chunks", "count", Better::Lower),
    ("core.speculation_useful_ratio", "ratio", Better::Higher),
    ("core.index_chunks_verified", "count", Better::Higher),
    ("core.index_chunks_unverified", "count", Better::Lower),
    ("core.index_prefetches_issued", "count", Better::Lower),
    ("core.index_prefetch_hits", "count", Better::Higher),
    ("core.index_prefetch_useful_ratio", "ratio", Better::Higher),
    ("core.chunks_per_seek", "count", Better::Lower),
    ("core.p1_mb_s", "MB/s", Better::Higher),
    ("core.scaling_p2_over_p1", "ratio", Better::Higher),
    ("core.wall_s", "s", Better::Lower),
    ("core.replay_busy_s", "s", Better::Lower),
    ("core.unattributed_s", "s", Better::Lower),
    ("compress.chunks", "count", Better::Lower),
    ("compress.members", "count", Better::Lower),
    ("compress.parallel_efficiency", "ratio", Better::Higher),
    ("trace.traced_mb_s", "MB/s", Better::Higher),
    ("trace.untraced_mb_s", "MB/s", Better::Higher),
    ("trace.overhead_ratio", "ratio", Better::Higher),
];

/// No-op tasks timed for `fetcher.dispatch_us`.
const DISPATCH_SAMPLES: usize = 200;
/// Seeks the traced seek run makes (and replays).
const TRACED_SEEKS: usize = 150;

type Values = BTreeMap<&'static str, f64>;

/// Runs the traced run of `workload`: rounds of real calls plus replay
/// until `seconds` have passed, then reports every [`PER_LAYER`] metric of
/// the round with the median `core.wall_s` (one whole round, so its
/// attribution identity holds exactly) and writes that round's spans next
/// to the inputs.
pub fn run(workload: Workload, prepared: &Prepared, seed: u64, seconds: f64, report: &mut Report) {
    let started = Instant::now();
    let mut rounds: Vec<(Values, Spans)> = Vec::new();
    loop {
        let mut spans = Spans::new();
        let mut values = Values::new();
        match workload {
            Workload::DecodeSilesia => decode(prepared, seed, &mut spans, &mut values, report),
            Workload::SeekBase64 => seek(prepared, seed, &mut spans, &mut values, report),
            Workload::CompressSilesia => compress(seed, &mut spans, &mut values, report),
        }
        values.insert("fetcher.dispatch_us", dispatch_us());
        layer_rates(&spans, &mut values);
        rounds.push((values, spans));
        if report.failed > 0 || started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    report.guard_failures.dedup();
    report.notes.dedup();
    let wall = |values: &Values| values.get("core.wall_s").copied().unwrap_or(0.0);
    rounds.sort_by(|a, b| wall(&a.0).total_cmp(&wall(&b.0)));
    let round_count = rounds.len();
    let (values, spans) = rounds.swap_remove((round_count - 1) / 2);

    let spans_path = prepared.dir.join(format!("spans-{}.json", workload.name()));
    match spans.write_json(&spans_path) {
        Ok(()) => report.note(format!("spans written to {}", spans_path.display())),
        Err(error) => eprintln!("perfbench: writing spans failed: {error}"),
    }
    report.note(format!(
        "traced run: {round_count} rounds in {:.2} s, reporting the median round",
        started.elapsed().as_secs_f64()
    ));
    report.note(format!(
        "identity: core.replay_busy_s {:.4} + core.unattributed_s {:.4} = P x core.wall_s {:.4}",
        values.get("core.replay_busy_s").copied().unwrap_or(0.0),
        values.get("core.unattributed_s").copied().unwrap_or(0.0),
        parallelization() as f64 * wall(&values),
    ));
    for &(name, unit, _) in PER_LAYER {
        report.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
}

/// Busy time, throughput and call counts of the replayed layers.
fn layer_rates(spans: &Spans, values: &mut Values) {
    let layer = |name: &str| (spans.busy_s(name), spans.bytes(name));
    let (busy, bytes) = layer("blockfinder.find");
    values.insert("blockfinder.calls", spans.count("blockfinder.find") as f64);
    values.insert("blockfinder.busy_s", busy);
    values.insert("blockfinder.mb_s", mb_s(bytes, busy));
    let (two_stage_busy, bytes) = layer("deflate.two_stage");
    let two_stage_mb_s = mb_s(bytes, two_stage_busy);
    values.insert("deflate.two_stage_busy_s", two_stage_busy);
    values.insert("deflate.two_stage_mb_s", two_stage_mb_s);
    let (busy, bytes) = layer("deflate.replace");
    values.insert("deflate.replace_busy_s", busy);
    values.insert("deflate.replace_mb_s", mb_s(bytes, busy));
    let (one_stage_busy, bytes) = layer("deflate.one_stage");
    let one_stage_mb_s = mb_s(bytes, one_stage_busy);
    values.insert("deflate.one_stage_busy_s", one_stage_busy);
    values.insert("deflate.one_stage_mb_s", one_stage_mb_s);
    values.insert(
        "deflate.two_stage_vs_one_stage",
        ratio(two_stage_mb_s, one_stage_mb_s),
    );
    let (busy, bytes) = layer("deflate.encode");
    values.insert("deflate.encode_busy_s", busy);
    values.insert("deflate.encode_mb_s", mb_s(bytes, busy));
    let (busy, bytes) = layer("checksum.crc32");
    values.insert("checksum.busy_s", busy);
    values.insert("checksum.crc32_mb_s", mb_s(bytes, busy));
    let (busy, bytes) = layer("io.read_range");
    values.insert("io.busy_s", busy);
    values.insert("io.read_mb_s", mb_s(bytes, busy));
    for (span, metric) in [
        ("window.compress", "window.compress_us"),
        ("window.inflate", "window.inflate_us"),
    ] {
        let count = spans.count(span);
        values.insert(metric, ratio(spans.busy_s(span) * 1e6, count as f64));
    }
    values.insert("core.read_calls", spans.count("core.call") as f64);
    values.insert("core.read_busy_s", spans.busy_s("core.call"));
    values.insert("core.read_stall_max_ms", spans.max_s("core.call") * 1e3);
}

/// Median submit-to-start latency of a no-op task on an idle pool of the
/// program's size.
fn dispatch_us() -> f64 {
    let pool = ThreadPool::new(parallelization());
    let samples: Vec<f64> = (0..DISPATCH_SAMPLES)
        .map(|_| {
            let submitted = Instant::now();
            let started = pool.submit(Instant::now).wait();
            started.saturating_duration_since(submitted).as_secs_f64() * 1e6
        })
        .collect();
    release(pool);
    median(&samples)
}

fn reader_counters(statistics: &ReaderStatistics, values: &mut Values) {
    let used = statistics.speculative_chunks_used as f64;
    let wasted = statistics.speculative_chunks_wasted as f64;
    values.insert("core.speculative_used", used);
    values.insert("core.speculative_wasted", wasted);
    values.insert(
        "core.speculative_bytes_wasted",
        statistics.speculative_bytes_wasted as f64,
    );
    values.insert("core.on_demand_chunks", statistics.on_demand_chunks as f64);
    values.insert("core.speculation_useful_ratio", ratio(used, used + wasted));
    values.insert(
        "core.index_chunks_verified",
        statistics.index_chunks_verified as f64,
    );
    values.insert(
        "core.index_chunks_unverified",
        statistics.index_chunks_unverified as f64,
    );
    let issued = statistics.index_prefetches_issued as f64;
    let hits = statistics.index_prefetch_hits as f64;
    values.insert("core.index_prefetches_issued", issued);
    values.insert("core.index_prefetch_hits", hits);
    values.insert("core.index_prefetch_useful_ratio", ratio(hits, issued));
    values.insert(
        "fetcher.tasks_submitted",
        statistics.pool_tasks_submitted as f64,
    );
}

/// Times `export` and `import` of `index` and records its size.
fn index_round_trip(
    index: &GzipIndex,
    spans: &mut Spans,
    values: &mut Values,
    report: &mut Report,
) {
    let (exported, export_s) = spans.leaf("index.export", 0, || index.export());
    let (imported, import_s) = spans.leaf("index.import", exported.len() as u64, || {
        GzipIndex::import(&exported)
    });
    report.check(imported.map_err(to_error).and_then(|imported| {
        expect_eq(
            "imported points",
            index.block_map.len(),
            imported.block_map.len(),
        )
    }));
    values.insert("index.points", index.block_map.len() as f64);
    values.insert("index.bytes", exported.len() as f64);
    values.insert("index.export_s", export_s);
    values.insert("index.import_s", import_s);
}

/// Checks that a decoded (masked) window agrees with the true window on
/// every byte the chunk references.
fn window_matches(decoded: &[u8], truth: &[u8], usage: &[(u32, u32)]) -> bool {
    let decoded_base = WINDOW_SIZE - decoded.len();
    let truth_base = WINDOW_SIZE - truth.len();
    usage.iter().all(|&(offset, length)| {
        (offset as usize..(offset + length) as usize).all(|position| {
            position >= decoded_base
                && position >= truth_base
                && decoded[position - decoded_base] == truth[position - truth_base]
        })
    })
}

/// Reads the compressed bytes from `start_byte` to just past the next seek
/// point (or the end of the file); returns them with the read's duration.
fn chunk_range(
    file: &SharedFileReader,
    start_byte: u64,
    next_bit: Option<u64>,
    spans: &mut Spans,
) -> Result<(Vec<u8>, f64), String> {
    let size = file.size();
    let end = next_bit.map_or(size, |bit| (bit.div_ceil(8) + 8).min(size));
    let (range, busy) = spans.leaf("io.read_range", end - start_byte, || {
        file.read_range(start_byte, (end - start_byte) as usize)
    });
    Ok((range.map_err(to_error)?, busy))
}

/// A bit reader over `range` positioned at `relative_bit`, past the gzip
/// header when the point is the very start of the file.
fn reader_at(
    range: &[u8],
    relative_bit: u64,
    at_file_start: bool,
) -> Result<BitReader<'_>, String> {
    let mut reader = BitReader::new(range);
    reader
        .seek_to_bit(relative_bit)
        .map_err(|error| format!("{error:?}"))?;
    if at_file_start {
        rgz_gzip::parse_header(&mut reader).map_err(to_error)?;
    }
    Ok(reader)
}

/// One-stage decode of a chunk with its window; checked against the
/// corpus by the caller.
fn one_stage(
    range: &[u8],
    relative_bit: u64,
    at_file_start: bool,
    relative_stop: u64,
    window: &[u8],
    expected_length: usize,
    spans: &mut Spans,
) -> Result<(Vec<u8>, InflateOutcome, f64), String> {
    let mut reader = reader_at(range, relative_bit, at_file_start)?;
    let mut output = Vec::with_capacity(expected_length);
    let (outcome, busy) = spans.leaf("deflate.one_stage", expected_length as u64, || {
        inflate_hashed(&mut reader, window, &mut output, relative_stop)
    });
    Ok((output, outcome.map_err(to_error)?, busy))
}

/// Fills the `core.wall_s` / `core.replay_busy_s` / `core.unattributed_s`
/// identity: `replay_busy + unattributed = P × wall`.
fn attribution(values: &mut Values, wall_s: f64, replay_busy_s: f64) {
    values.insert("core.wall_s", wall_s);
    values.insert("core.replay_busy_s", replay_busy_s);
    values.insert(
        "core.unattributed_s",
        parallelization() as f64 * wall_s - replay_busy_s,
    );
}

/// Traced-vs-untraced throughput and the single-thread scaling figures.
fn throughputs(values: &mut Values, traced_mb_s: f64, untraced_mb_s: f64, p1_mb_s: f64) {
    values.insert("trace.traced_mb_s", traced_mb_s);
    values.insert("trace.untraced_mb_s", untraced_mb_s);
    values.insert("trace.overhead_ratio", ratio(traced_mb_s, untraced_mb_s));
    values.insert("core.p1_mb_s", p1_mb_s);
    values.insert("core.scaling_p2_over_p1", ratio(untraced_mb_s, p1_mb_s));
}

// --- decode-silesia ----------------------------------------------------------

#[derive(Default)]
struct DecodeTotals {
    symbols: u64,
    markers: u64,
    false_positives: u64,
    found: u64,
    missed: u64,
}

/// Replays chunk `i` the way the reader processes it: the first chunk by a
/// one-stage decode, every later one by block finding from its guessed
/// boundary, two-stage decode and marker replacement with the true window,
/// plus the sparse window compression of its seek point.  Also decodes the
/// same span one-stage and hashes it, for the layer throughputs.  Returns
/// the busy time of the steps the reader itself runs.
fn replay_decode_chunk(
    file: &SharedFileReader,
    points: &[SeekPoint],
    i: usize,
    corpus: &[u8],
    spans: &mut Spans,
    totals: &mut DecodeTotals,
) -> Result<f64, String> {
    let point = &points[i];
    let next_bit = points.get(i + 1).map(|next| next.compressed_bit_offset);
    let start_bit = point.compressed_bit_offset;
    let chunk_bytes = DEFAULT_CHUNK_SIZE as u64;
    let range_byte = if i == 0 {
        0
    } else {
        start_bit / 8 / chunk_bytes * chunk_bytes
    };
    let (range, mut attributed) = chunk_range(file, range_byte, next_bit, spans)?;
    let range_bits = range_byte * 8;
    let relative_start = start_bit - range_bits;
    let relative_stop = next_bit.map_or(u64::MAX, |bit| bit - range_bits);
    let offset = point.uncompressed_offset as usize;
    let length = point.uncompressed_size as usize;
    let expected = corpus
        .get(offset..offset + length)
        .ok_or_else(|| format!("seek point {i} lies past the corpus"))?;
    let window = &corpus[offset.saturating_sub(WINDOW_SIZE)..offset];

    if i > 0 {
        let finder = CombinedBlockFinder::new();
        let mut from = 0u64;
        loop {
            let (candidate, busy) = spans.leaf("blockfinder.find", 0, || {
                finder.find_next_candidate(&range, from)
            });
            attributed += busy;
            let found = candidate.map(|candidate| candidate.bit_offset);
            let scanned_to = found.unwrap_or(range.len() as u64 * 8);
            spans.set_bytes("blockfinder.find", scanned_to.saturating_sub(from) / 8);
            match found {
                Some(bit) if bit < relative_start => {
                    totals.false_positives += 1;
                    from = bit + 1;
                }
                Some(bit) if bit == relative_start => {
                    totals.found += 1;
                    break;
                }
                _ => {
                    totals.missed += 1;
                    break;
                }
            }
        }

        let mut reader = reader_at(&range, relative_start, false)?;
        let mut symbols = Vec::with_capacity(length);
        let (outcome, busy) = spans.leaf("deflate.two_stage", length as u64, || {
            inflate_two_stage(&mut reader, &mut symbols, relative_stop)
        });
        attributed += busy;
        outcome.map_err(to_error)?;
        expect_eq("two-stage length", length, symbols.len())?;
        totals.symbols += symbols.len() as u64;
        totals.markers += symbols
            .iter()
            .filter(|&&symbol| symbol >= MARKER_BASE)
            .count() as u64;

        let (replaced, busy) = spans.leaf("deflate.replace", length as u64, || {
            replace_markers_hashed(&symbols, window, &[])
        });
        attributed += busy;
        let (bytes, crcs) = replaced.map_err(to_error)?;
        if bytes != expected {
            return Err(format!(
                "chunk {i}: replaced markers differ from the corpus"
            ));
        }
        expect_eq(
            "replaced crc32",
            Some(&rgz_checksum::crc32(expected)),
            crcs.first(),
        )?;
    }

    let (output, outcome, busy) = one_stage(
        &range,
        relative_start,
        start_bit == 0,
        relative_stop,
        window,
        length,
        spans,
    )?;
    if i == 0 {
        attributed += busy;
    }
    if output != expected {
        return Err(format!(
            "chunk {i}: one-stage output differs from the corpus"
        ));
    }
    let (crc, _) = spans.leaf("checksum.crc32", length as u64, || {
        rgz_checksum::crc32(expected)
    });
    expect_eq("one-stage crc32", Some(crc), outcome.crc32)?;

    if !window.is_empty() {
        let (stored, busy) = spans.leaf("window.compress", window.len() as u64, || {
            CompressedWindow::from_window_sparse(window, &outcome.window_usage)
        });
        attributed += busy;
        let (decoded, _) = spans.leaf("window.inflate", stored.stored_bytes() as u64, || {
            stored.decompress()
        });
        let decoded = decoded.map_err(to_error)?;
        if !window_matches(&decoded, window, &outcome.window_usage) {
            return Err(format!("chunk {i}: stored window differs from the corpus"));
        }
    }
    Ok(attributed)
}

fn decode(
    prepared: &Prepared,
    seed: u64,
    spans: &mut Spans,
    values: &mut Values,
    report: &mut Report,
) {
    let p = parallelization();
    let options = ParallelGzipReaderOptions::with_parallelization(p);
    let size = prepared.facts.uncompressed_bytes;

    let mut buffer = vec![0u8; READ_BUFFER];
    let traced = workloads::decode_pass(prepared, &options, &mut buffer, Some(spans));
    let Some(traced) = report.check(traced) else {
        return;
    };
    let (wall, reader) = (traced.wall_s, traced.reader);
    let statistics = reader.statistics();
    reader_counters(&statistics, values);
    report.guard(
        statistics.speculative_chunks_used > 0,
        "decode-silesia: speculative_chunks_used > 0",
    );
    values.insert(
        "window.stored_bytes",
        reader.window_statistics().stored_bytes as f64,
    );
    let index = reader.index();
    release(reader);
    index_round_trip(&index, spans, values, report);

    let mut untraced_mb_s = 0.0;
    let mut p1_mb_s = 0.0;
    for (parallelization, mb_s_out) in [(p, &mut untraced_mb_s), (1, &mut p1_mb_s)] {
        let options = ParallelGzipReaderOptions::with_parallelization(parallelization);
        let pass = workloads::decode_pass(prepared, &options, &mut buffer, None);
        if let Some(pass) = report.check(pass) {
            *mb_s_out = mb_s(size, pass.wall_s);
            release(pass);
        }
    }
    throughputs(values, mb_s(size, wall), untraced_mb_s, p1_mb_s);

    let corpus = inputs::corpus(Workload::DecodeSilesia, seed);
    let Some(file) = report.check(SharedFileReader::open(prepared.gzip()).map_err(to_error)) else {
        return;
    };
    let points = index.block_map.points().to_vec();
    let mut totals = DecodeTotals::default();
    let mut replay_busy = 0.0;
    for i in 0..points.len() {
        let result = guarded(|| {
            spans
                .record("replay.chunk", |spans| {
                    replay_decode_chunk(&file, &points, i, &corpus, spans, &mut totals)
                })
                .0
        });
        if let Some(busy) = report.check(result) {
            replay_busy += busy;
        }
    }
    attribution(values, wall, replay_busy);
    values.insert("blockfinder.false_positives", totals.false_positives as f64);
    values.insert(
        "blockfinder.useful_ratio",
        ratio(
            totals.found as f64,
            (totals.found + totals.false_positives + totals.missed) as f64,
        ),
    );
    values.insert(
        "deflate.marker_ratio",
        ratio(totals.markers as f64, totals.symbols as f64),
    );
    report.note(format!(
        "replayed {} chunks: block finder found {} starts, {} false positives, {} missed",
        points.len(),
        totals.found,
        totals.false_positives,
        totals.missed
    ));
}

// --- seek-base64 -------------------------------------------------------------

/// Seeks plus 64 KiB reads at `offsets` (with `spans`, one span per call),
/// each checked against the corpus on disk.  Returns the summed latency.
fn seek_phase(
    reader: &mut ParallelGzipReader,
    raw: &File,
    offsets: &[u64],
    mut spans: Option<&mut Spans>,
    report: &mut Report,
) -> f64 {
    let mut buffer = vec![0u8; SEEK_READ_SIZE];
    let mut expected = vec![0u8; SEEK_READ_SIZE];
    offsets
        .iter()
        .filter_map(|&offset| {
            let spans = spans.as_deref_mut();
            report.check(workloads::seek_once(
                reader,
                raw,
                offset,
                &mut buffer,
                &mut expected,
                spans,
            ))
        })
        .sum()
}

/// Replays the chunk decodes one seek needs on the index fast path: read
/// the point's compressed range, inflate its stored window, decode one-stage
/// and hash, checking against the v3 fragment.  Chunks still in the
/// replay's own LRU (sized like the reader's resolved cache) are skipped.
/// Returns the busy time of those steps.
fn replay_seek(
    file: &SharedFileReader,
    index: &GzipIndex,
    offset: u64,
    corpus: &[u8],
    recent: &mut Vec<usize>,
    cache_chunks: usize,
    spans: &mut Spans,
) -> Result<f64, String> {
    let points = index.block_map.points();
    let mut attributed = 0.0;
    let mut position = offset;
    while position < offset + SEEK_READ_SIZE as u64 {
        let i = points.partition_point(|point| point.uncompressed_offset <= position) - 1;
        let point = &points[i];
        position = point.uncompressed_offset + point.uncompressed_size;
        if let Some(slot) = recent.iter().position(|&chunk| chunk == i) {
            recent.remove(slot);
            recent.push(i);
            continue;
        }
        recent.push(i);
        if recent.len() > cache_chunks {
            recent.remove(0);
        }

        let start_bit = point.compressed_bit_offset;
        let next_bit = points.get(i + 1).map(|next| next.compressed_bit_offset);
        let range_byte = start_bit / 8;
        let (range, busy) = chunk_range(file, range_byte, next_bit, spans)?;
        attributed += busy;
        let window = match index.window_map.get_compressed(start_bit) {
            Some(stored) => {
                let (window, busy) =
                    spans.leaf("window.inflate", stored.stored_bytes() as u64, || {
                        stored.decompress()
                    });
                attributed += busy;
                window.map_err(to_error)?
            }
            None => Vec::new(),
        };
        let length = point.uncompressed_size as usize;
        let (output, outcome, busy) = one_stage(
            &range,
            start_bit - range_byte * 8,
            start_bit == 0,
            next_bit.map_or(u64::MAX, |bit| bit - range_byte * 8),
            &window,
            length,
            spans,
        )?;
        attributed += busy;
        let offset = point.uncompressed_offset as usize;
        if output[..] != corpus[offset..offset + length] {
            return Err(format!(
                "chunk {i}: one-stage output differs from the corpus"
            ));
        }
        let (crc, _) = spans.leaf("checksum.crc32", length as u64, || {
            rgz_checksum::crc32(&output)
        });
        expect_eq("one-stage crc32", Some(crc), outcome.crc32)?;
        if let Some(checksums) = index.checksum_map.get(start_bit) {
            expect_eq(
                "v3 fragment crc32",
                checksums.fragments.first().map(|f| f.crc32),
                Some(crc),
            )?;
        }
        let truth = &corpus[offset.saturating_sub(WINDOW_SIZE)..offset];
        if !truth.is_empty() {
            spans.leaf("window.compress", truth.len() as u64, || {
                CompressedWindow::from_window_sparse(truth, &outcome.window_usage)
            });
        }
    }
    Ok(attributed)
}

fn seek(
    prepared: &Prepared,
    seed: u64,
    spans: &mut Spans,
    values: &mut Values,
    report: &mut Report,
) {
    let options = workloads::seek_options();
    let size = prepared.facts.uncompressed_bytes;
    let corpus = inputs::corpus(Workload::SeekBase64, seed);
    let mut rng = Rng::new(seed);
    let offsets: Vec<u64> = (0..TRACED_SEEKS)
        .map(|_| workloads::seek_offset(&mut rng, size))
        .collect();
    let bytes_read = (SEEK_READ_SIZE * offsets.len()) as u64;

    let Some(raw) = report.check(File::open(prepared.raw()).map_err(to_error)) else {
        return;
    };
    let Some(index) = report.check(
        std::fs::read(prepared.index())
            .map_err(to_error)
            .and_then(|bytes| GzipIndex::import(&bytes).map_err(to_error)),
    ) else {
        return;
    };
    index_round_trip(&index, spans, values, report);

    let (opened, _) = spans.leaf("core.open", 0, || {
        workloads::open_indexed(prepared, &options)
    });
    let Some(mut reader) = report.check(opened) else {
        return;
    };
    let wall = seek_phase(&mut reader, &raw, &offsets, Some(spans), report);
    let statistics = reader.statistics();
    reader_counters(&statistics, values);
    values.insert(
        "core.chunks_per_seek",
        ratio(statistics.index_chunks as f64, offsets.len() as f64),
    );
    values.insert(
        "window.stored_bytes",
        reader.window_statistics().stored_bytes as f64,
    );
    report.guard(
        statistics.index_chunks_verified > 0 && statistics.index_chunks_unverified == 0,
        "seek-base64: every index chunk verified",
    );
    release(reader);

    let mut untraced_mb_s = 0.0;
    let mut p1_mb_s = 0.0;
    for (parallelization, mb_s_out) in [
        (options.parallelization, &mut untraced_mb_s),
        (1, &mut p1_mb_s),
    ] {
        let options = ParallelGzipReaderOptions {
            parallelization,
            ..options.clone()
        };
        if let Some(mut reader) = report.check(workloads::open_indexed(prepared, &options)) {
            *mb_s_out = mb_s(
                bytes_read,
                seek_phase(&mut reader, &raw, &offsets, None, report),
            );
            release(reader);
        }
    }
    throughputs(values, mb_s(bytes_read, wall), untraced_mb_s, p1_mb_s);

    let Some(file) = report.check(SharedFileReader::open(prepared.gzip()).map_err(to_error)) else {
        return;
    };
    let mut recent = Vec::new();
    let mut replay_busy = 0.0;
    for &offset in &offsets {
        let result = guarded(|| {
            spans
                .record("replay.seek", |spans| {
                    replay_seek(
                        &file,
                        &index,
                        offset,
                        &corpus,
                        &mut recent,
                        options.resolved_cache_chunks,
                        spans,
                    )
                })
                .0
        });
        if let Some(busy) = report.check(result) {
            replay_busy += busy;
        }
    }
    attribution(values, wall, replay_busy);
}

// --- compress-silesia --------------------------------------------------------

/// Replays the compressor's chunk encodes single-threaded: per chunk one
/// `compress_into_with` (closed by the empty stored sync block) and one
/// CRC-32.  Returns the busy time and the encoded bytes.
fn replay_compress(
    data: &[u8],
    level: CompressionLevel,
    chunk_size: usize,
    member_size: usize,
    spans: &mut Spans,
) -> (f64, usize) {
    let compressor = DeflateCompressor::new(CompressorOptions {
        level,
        block_size: chunk_size,
        force_dynamic: false,
    });
    let mut finder = HtMatchFinder::new(level);
    let member_size = member_size.max(chunk_size);
    let mut busy = 0.0;
    let mut encoded = 0;
    for member in data.chunks(member_size) {
        let chunk_count = member.len().div_ceil(chunk_size);
        for (c, chunk) in member.chunks(chunk_size).enumerate() {
            spans.record("replay.chunk", |spans| {
                let (bytes, encode_s) = spans.leaf("deflate.encode", chunk.len() as u64, || {
                    let mut writer = BitWriter::with_capacity(chunk.len() / 3 + 64);
                    compressor.compress_into_with(chunk, &mut writer, false, &mut finder);
                    write_stored_block(&mut writer, &[], c + 1 == chunk_count);
                    writer.finish()
                });
                let (_, crc_s) = spans.leaf("checksum.crc32", chunk.len() as u64, || {
                    rgz_checksum::crc32(chunk)
                });
                busy += encode_s + crc_s;
                encoded += bytes.len();
            });
        }
    }
    (busy, encoded)
}

fn compress(seed: u64, spans: &mut Spans, values: &mut Values, report: &mut Report) {
    let p = parallelization();
    let data: Arc<[u8]> = Arc::from(inputs::corpus(Workload::CompressSilesia, seed));
    let crc32 = rgz_checksum::crc32(&data);
    let size = data.len() as u64;
    let options = workloads::compress_options();
    let pool = Arc::new(ThreadPool::new(p));
    let (compressor, _) = spans.leaf("core.open", 0, || {
        ParallelCompressor::with_pool(options.clone(), Arc::clone(&pool))
    });
    let (stream, wall) = spans.leaf("core.call", size, || {
        compressor.compress_shared(Arc::clone(&data))
    });
    values.insert(
        "fetcher.tasks_submitted",
        pool.statistics().tasks_submitted as f64,
    );
    release(compressor);
    release(pool);
    let mut rng = Rng::new(seed);
    let verified = guarded(|| workloads::verify_stream(&stream, &data, crc32, &mut rng));
    report.check(verified);
    let expected = (
        size.div_ceil(options.chunk_size as u64),
        size.div_ceil(options.member_size as u64),
    );
    report.guard(
        (stream.chunks as u64, stream.members as u64) == expected,
        format!(
            "compress-silesia: chunks/members {:?}, expected {expected:?}",
            (stream.chunks, stream.members)
        ),
    );
    values.insert("compress.chunks", stream.chunks as f64);
    values.insert("compress.members", stream.members as f64);
    values.insert(
        "window.stored_bytes",
        stream.index.window_map.statistics().stored_bytes as f64,
    );
    index_round_trip(&stream.index, spans, values, report);

    // The output is deterministic, so the untraced and single-threaded
    // passes must reproduce it byte for byte.
    let mut untraced_mb_s = 0.0;
    let mut p1_mb_s = 0.0;
    for (parallelization, mb_s_out) in [(p, &mut untraced_mb_s), (1, &mut p1_mb_s)] {
        let compressor = ParallelCompressor::new(rgz_compress::ParallelCompressorOptions {
            parallelization,
            ..options.clone()
        });
        let result = guarded(|| {
            let start = Instant::now();
            let again = compressor.compress_shared(Arc::clone(&data));
            let elapsed = start.elapsed().as_secs_f64();
            (again.bytes == stream.bytes)
                .then_some(elapsed)
                .ok_or_else(|| format!("P={parallelization} output differs from the traced pass"))
        });
        release(compressor);
        if let Some(elapsed) = report.check(result) {
            *mb_s_out = mb_s(size, elapsed);
        }
    }
    throughputs(values, mb_s(size, wall), untraced_mb_s, p1_mb_s);

    let (replay_busy, encoded) = replay_compress(
        &data,
        options.level,
        options.chunk_size,
        options.member_size,
        spans,
    );
    // Pigz-style members add a 10-byte header and an 8-byte trailer.
    report.check(expect_eq(
        "replayed stream size",
        stream.bytes.len(),
        encoded + stream.members * 18,
    ));
    for (i, point) in stream.index.block_map.points().iter().enumerate() {
        let length = point.uncompressed_size as usize;
        let result = one_stage(
            &stream.bytes,
            point.compressed_bit_offset,
            false,
            u64::MAX,
            &[],
            length,
            spans,
        )
        .and_then(|(output, _, _)| {
            let offset = point.uncompressed_offset as usize;
            (output[..] == data[offset..offset + length])
                .then_some(())
                .ok_or_else(|| format!("member {i}: one-stage output differs from the input"))
        });
        report.check(result);
    }
    attribution(values, wall, replay_busy);
    values.insert(
        "compress.parallel_efficiency",
        ratio(replay_busy, p as f64 * wall),
    );
}
