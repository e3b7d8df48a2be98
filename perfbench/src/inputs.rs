//! Seeded workload inputs.
//!
//! Every input comes from `rgz_datagen` and the in-repo writers, keyed only
//! by the seed.  Compressing 128 MiB with the single-threaded `GzipWriter`
//! takes tens of seconds, so the finished files are cached on disk under
//! `<cache>/<workload>/<seed>/`; generation is never part of a timing.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use rgz_compress::ParallelCompressor;
use rgz_core::{ParallelGzipReader, ParallelGzipReaderOptions, DEFAULT_CHUNK_SIZE};
use rgz_gzip::GzipWriter;

use crate::report::release;
use crate::Workload;

pub const MIB: usize = 1 << 20;
/// Uncompressed size of the decode corpus: about ten default 4 MiB chunks
/// of compressed data at the writer's default level.
pub const DECODE_SIZE: usize = 128 * MIB;
/// Uncompressed size of the seek corpus.
pub const SEEK_SIZE: usize = 32 * MIB;
/// Reader chunk size the seek workload's index is built with.
pub const SEEK_CHUNK_SIZE: usize = MIB;
/// Bytes read after every seek.
pub const SEEK_READ_SIZE: usize = 64 * 1024;
/// Uncompressed size of the compress corpus.
pub const COMPRESS_SIZE: usize = 32 * MIB;
/// Seed directories kept per workload; older ones are deleted.
const CACHED_SEEDS: usize = 3;

/// The generated corpus of a workload (deterministic in the seed).
pub fn corpus(workload: Workload, seed: u64) -> Vec<u8> {
    match workload {
        Workload::DecodeSilesia => rgz_datagen::silesia_like(DECODE_SIZE, seed),
        Workload::SeekBase64 => rgz_datagen::base64_random(SEEK_SIZE, seed),
        Workload::CompressSilesia => rgz_datagen::silesia_like(COMPRESS_SIZE, seed),
    }
}

/// Sizes of a prepared input, printed with every run so a reader can see
/// the working set behind each workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct InputFacts {
    pub uncompressed_bytes: u64,
    pub compressed_bytes: u64,
    pub crc32: u32,
    /// Compressed size in default (4 MiB) reader chunks, rounded up.
    pub default_chunks: u64,
    /// Seek points of the input's index: the one the reader builds (decode
    /// and seek workloads, at their chunk sizes) or the compressor emits.
    pub seek_points: u64,
}

impl InputFacts {
    fn to_text(self) -> String {
        format!(
            "uncompressed_bytes {}\ncompressed_bytes {}\ncrc32 {}\ndefault_chunks {}\nseek_points {}\n",
            self.uncompressed_bytes,
            self.compressed_bytes,
            self.crc32,
            self.default_chunks,
            self.seek_points
        )
    }

    fn from_text(text: &str) -> Option<Self> {
        let mut facts = InputFacts::default();
        let mut seen = 0;
        for line in text.lines() {
            let (key, value) = line.split_once(' ')?;
            let value: u64 = value.parse().ok()?;
            match key {
                "uncompressed_bytes" => facts.uncompressed_bytes = value,
                "compressed_bytes" => facts.compressed_bytes = value,
                "crc32" => facts.crc32 = u32::try_from(value).ok()?,
                "default_chunks" => facts.default_chunks = value,
                "seek_points" => facts.seek_points = value,
                _ => return None,
            }
            seen += 1;
        }
        (seen == 5).then_some(facts)
    }
}

/// Files of one prepared input.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub dir: PathBuf,
    pub facts: InputFacts,
}

impl Prepared {
    /// The gzip file the workload reads (decode and seek workloads).
    pub fn gzip(&self) -> PathBuf {
        self.dir.join("input.gz")
    }

    /// The uncompressed corpus, kept on disk so seek checks can compare
    /// against it without holding it in the measured process.
    pub fn raw(&self) -> PathBuf {
        self.dir.join("input.raw")
    }

    /// The exported v3 index (seek workload).
    pub fn index(&self) -> PathBuf {
        self.dir.join("input.idx")
    }

    fn facts_path(dir: &Path) -> PathBuf {
        dir.join("facts.txt")
    }
}

/// Makes sure the workload's input files for `seed` exist under `cache`,
/// generating them if needed, and returns where they are.
pub fn prepare(cache: &Path, workload: Workload, seed: u64) -> io::Result<Prepared> {
    let workload_dir = cache.join(workload.name());
    let dir = workload_dir.join(seed.to_string());
    if let Some(facts) = fs::read_to_string(Prepared::facts_path(&dir))
        .ok()
        .and_then(|text| InputFacts::from_text(&text))
    {
        touch(&dir);
        return Ok(Prepared { dir, facts });
    }
    fs::create_dir_all(&dir)?;
    let data = corpus(workload, seed);
    let mut facts = InputFacts {
        uncompressed_bytes: data.len() as u64,
        crc32: rgz_checksum::crc32(&data),
        ..InputFacts::default()
    };
    let prepared = Prepared { dir, facts };
    let index = match workload {
        Workload::DecodeSilesia | Workload::SeekBase64 => {
            let compressed = GzipWriter::default().compress(&data);
            facts.compressed_bytes = compressed.len() as u64;
            write_atomically(&prepared.gzip(), &compressed)?;
            let chunk_size = match workload {
                Workload::SeekBase64 => SEEK_CHUNK_SIZE,
                _ => DEFAULT_CHUNK_SIZE,
            };
            let options = ParallelGzipReaderOptions::with_parallelization(crate::parallelization())
                .with_chunk_size(chunk_size);
            let mut reader = ParallelGzipReader::open(prepared.gzip(), options)
                .map_err(|error| io::Error::other(error.to_string()))?;
            let index = reader
                .build_full_index()
                .map_err(|error| io::Error::other(error.to_string()))?;
            release(reader);
            index
        }
        Workload::CompressSilesia => {
            let compressor = ParallelCompressor::new(crate::workloads::compress_options());
            let stream = compressor.compress(&data);
            release(compressor);
            facts.compressed_bytes = stream.bytes.len() as u64;
            stream.index
        }
    };
    facts.default_chunks = facts.compressed_bytes.div_ceil(DEFAULT_CHUNK_SIZE as u64);
    facts.seek_points = index.block_map.len() as u64;
    if workload == Workload::SeekBase64 {
        write_atomically(&prepared.raw(), &data)?;
        write_atomically(&prepared.index(), &index.export())?;
    }
    // The facts file is written last: its presence marks a complete entry.
    write_atomically(
        &Prepared::facts_path(&prepared.dir),
        facts.to_text().as_bytes(),
    )?;
    evict_old_seeds(&workload_dir);
    Ok(Prepared {
        dir: prepared.dir,
        facts,
    })
}

fn write_atomically(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let temporary = path.with_extension("tmp");
    fs::write(&temporary, bytes)?;
    fs::rename(&temporary, path)
}

/// Marks a seed directory as recently used (its mtime orders eviction).
fn touch(dir: &Path) {
    let _ = fs::File::open(dir).and_then(|file| file.set_modified(std::time::SystemTime::now()));
}

/// Keeps only the most recently used seed directories of one workload.
fn evict_old_seeds(workload_dir: &Path) {
    let Ok(entries) = fs::read_dir(workload_dir) else {
        return;
    };
    let mut dirs: Vec<(std::time::SystemTime, PathBuf)> = entries
        .filter_map(Result::ok)
        .filter_map(|entry| {
            let modified = entry.metadata().ok()?.modified().ok()?;
            Some((modified, entry.path()))
        })
        .collect();
    dirs.sort_by_key(|(modified, _)| std::cmp::Reverse(*modified));
    for (_, dir) in dirs.into_iter().skip(CACHED_SEEDS) {
        let _ = fs::remove_dir_all(dir);
    }
}
