//! The benchmark's own checks must catch corrupt output: a bit flipped in
//! the compressed input has to show up as `error_rate > 0`.

use std::path::PathBuf;

use rgz_core::ParallelGzipReader;
use rgz_gzip::GzipWriter;

use crate::inputs::{InputFacts, Prepared, SEEK_CHUNK_SIZE};
use crate::report::Report;
use crate::{replay, workloads, Better, Rng};

/// A scratch input directory inside the build's own tree.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".bench_cache")
        .join(format!("test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `data` compressed (optionally with one bit flipped in the middle
/// of the DEFLATE stream) as a prepared input.
fn prepared_input(name: &str, data: &[u8], flip_bit: bool, with_index: bool) -> Prepared {
    let dir = scratch_dir(name);
    let mut compressed = GzipWriter::default().compress(data);
    let prepared = Prepared {
        dir,
        facts: InputFacts {
            uncompressed_bytes: data.len() as u64,
            compressed_bytes: compressed.len() as u64,
            crc32: rgz_checksum::crc32(data),
            ..InputFacts::default()
        },
    };
    std::fs::write(prepared.raw(), data).unwrap();
    std::fs::write(prepared.gzip(), &compressed).unwrap();
    if with_index {
        let mut reader =
            ParallelGzipReader::open(prepared.gzip(), workloads::seek_options()).unwrap();
        std::fs::write(
            prepared.index(),
            reader.build_full_index().unwrap().export(),
        )
        .unwrap();
        crate::report::release(reader);
    }
    if flip_bit {
        let middle = compressed.len() / 2;
        compressed[middle] ^= 0x10;
        std::fs::write(prepared.gzip(), &compressed).unwrap();
    }
    prepared
}

#[test]
fn decode_counts_a_flipped_bit_as_failure() {
    let data = rgz_datagen::silesia_like(2 << 20, 7);
    for (flip, name) in [(false, "decode-clean"), (true, "decode-flipped")] {
        let prepared = prepared_input(name, &data, flip, false);
        let mut report = Report::default();
        workloads::decode(&prepared, 0.01, &mut report);
        std::fs::remove_dir_all(&prepared.dir).unwrap();
        assert!(report.attempted > 0);
        assert_eq!(report.error_rate() > 0.0, flip, "{name}: {report:?}");
    }
}

#[test]
fn seek_counts_a_flipped_bit_as_failure() {
    let data = rgz_datagen::base64_random(4 * SEEK_CHUNK_SIZE, 7);
    for (flip, name) in [(false, "seek-clean"), (true, "seek-flipped")] {
        let prepared = prepared_input(name, &data, flip, true);
        let mut report = Report::default();
        workloads::seek(&prepared, 7, 0.01, &mut report);
        std::fs::remove_dir_all(&prepared.dir).unwrap();
        assert!(report.attempted > 0);
        assert_eq!(report.error_rate() > 0.0, flip, "{name}: {report:?}");
    }
}

#[test]
fn compress_check_rejects_a_flipped_bit() {
    let data = rgz_datagen::silesia_like(1 << 20, 7);
    let crc32 = rgz_checksum::crc32(&data);
    let compressor = rgz_compress::ParallelCompressor::new(workloads::compress_options());
    let mut stream = compressor.compress(&data);
    crate::report::release(compressor);
    assert!(workloads::verify_stream(&stream, &data, crc32, &mut Rng::new(7)).is_ok());
    let middle = stream.bytes.len() / 2;
    stream.bytes[middle] ^= 0x10;
    assert!(workloads::verify_stream(&stream, &data, crc32, &mut Rng::new(7)).is_err());
}

#[test]
fn benchmark_json_lists_every_reported_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    let metrics: Vec<(&str, &str, Better)> = workloads::END_TO_END
        .iter()
        .chain(replay::PER_LAYER)
        .copied()
        .collect();
    for &(name, unit, better) in &metrics {
        let better = match better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        };
        let entry =
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(json.matches("\"better\"").count(), metrics.len());
}
