//! Pins the reader's [`ReaderStatistics`] to the live metrics registry.
//!
//! Each reader event is counted once, by a registry counter, and
//! `statistics()` is computed from the reader's registry.  With a caller
//! registry attached, a snapshot of it must therefore reproduce
//! `statistics()` **exactly** once the pool quiesces, and the other layers'
//! series on the same registry must account for the same bytes.

use std::io::{Read, Seek, SeekFrom};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rgz_core::{ParallelGzipReader, ParallelGzipReaderOptions, ReaderStatistics};
use rgz_datagen::base64_random;
use rgz_gzip::GzipWriter;
use rgz_metrics::{names, MetricsRegistry};

fn compressed_corpus() -> (Vec<u8>, Vec<u8>) {
    let data = base64_random(512 * 1024, 7);
    let compressed = GzipWriter::default().compress(&data);
    (data, compressed)
}

fn options(registry: &Arc<MetricsRegistry>) -> ParallelGzipReaderOptions {
    let mut options = ParallelGzipReaderOptions::with_parallelization(4).with_chunk_size(32 * 1024);
    options = options.with_metrics(Arc::clone(registry));
    options
}

/// Waits until no task is queued or running on the reader's pool, so gauge
/// comparisons cannot race in-flight window-compression tasks.
fn quiesce(reader: &ParallelGzipReader) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let statistics = reader.statistics();
        if statistics.pool_queue_depth == 0 && statistics.pool_tasks_inflight == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "worker pool did not quiesce");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn sequential_statistics_match_registry_snapshot() {
    let (data, compressed) = compressed_corpus();
    let registry = Arc::new(MetricsRegistry::new_enabled());
    let mut reader = ParallelGzipReader::from_bytes(compressed, options(&registry)).unwrap();

    let mut restored = Vec::new();
    reader.read_to_end(&mut restored).unwrap();
    assert_eq!(restored, data);
    quiesce(&reader);

    let snapshot = registry.snapshot();
    let statistics = reader.statistics();
    let reconstructed = ReaderStatistics::from_metrics_snapshot(&snapshot);
    assert_eq!(reconstructed, statistics);

    // Committed output bytes must account for every decompressed byte.
    assert_eq!(snapshot.counter_total(names::BYTES_OUT), data.len() as u64);
    // The stream verifier's member count is mirrored into the labeled
    // verification counter.
    assert_eq!(
        snapshot.counter(names::VERIFICATION, &[("outcome", "member_verified")]),
        Some(reader.verification_statistics().members_verified),
    );
    // The instrumented input reader saw at least the whole compressed file.
    assert!(snapshot.counter_total(names::READ_BYTES) >= reader.index().compressed_size);
}

#[test]
fn random_access_statistics_match_registry_snapshot() {
    let (data, compressed) = compressed_corpus();
    // First pass without metrics builds the index.
    let plain = ParallelGzipReaderOptions::with_parallelization(4).with_chunk_size(32 * 1024);
    let mut first = ParallelGzipReader::from_bytes(compressed.clone(), plain).unwrap();
    std::io::copy(&mut first, &mut std::io::sink()).unwrap();
    let index = first.index();

    let registry = Arc::new(MetricsRegistry::new_enabled());
    let mut reader = ParallelGzipReader::with_index(
        rgz_io::SharedFileReader::from_bytes(compressed),
        options(&registry),
        index,
    )
    .unwrap();

    // A sequential sweep plus a few scattered seeks exercises the index fast
    // path, the index-aligned prefetcher, and the window store.
    let mut buffer = vec![0u8; 48 * 1024];
    for &offset in &[0u64, 300 * 1024, 64 * 1024, 450 * 1024, 128 * 1024] {
        reader.seek(SeekFrom::Start(offset)).unwrap();
        let count = reader.read(&mut buffer).unwrap();
        assert_eq!(
            &buffer[..count],
            &data[offset as usize..offset as usize + count]
        );
    }
    quiesce(&reader);

    let snapshot = registry.snapshot();
    let statistics = reader.statistics();
    assert!(statistics.index_chunks > 0, "index fast path not exercised");
    let reconstructed = ReaderStatistics::from_metrics_snapshot(&snapshot);
    assert_eq!(reconstructed, statistics);
}
