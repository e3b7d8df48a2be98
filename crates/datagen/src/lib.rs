//! Deterministic workload generators for tests, examples and benchmarks.
//!
//! The paper evaluates on three kinds of data, none of which can be shipped
//! with this repository, so each has a synthetic stand-in with matched
//! statistics (compression ratio and back-reference density):
//!
//! * [`base64_random`] — base64-encoded random data (§4.4): compression ratio
//!   ≈ 1.3, essentially no back-references, uniform compressibility.
//! * [`silesia_like`] — a mixed text/binary/redundant corpus standing in for
//!   the Silesia corpus (§4.5): ratio ≈ 3 with many back-references.
//! * [`fastq_records`] — synthetic FASTQ sequencing records (§4.6).
//!
//! A minimal ustar TAR writer ([`tar_archive`]) is included because the
//! paper's motivating use case (ratarmount) is random access into
//! gzip-compressed TAR archives.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BASE64_ALPHABET: &[u8; 64] =
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Generates `length` bytes of base64-encoded random data (including newlines
/// every 76 characters, like the `base64` command-line tool).
pub fn base64_random(length: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00BA_5E64);
    let mut out = Vec::with_capacity(length + 80);
    let mut column = 0usize;
    while out.len() < length {
        out.push(BASE64_ALPHABET[rng.gen_range(0..64)]);
        column += 1;
        if column == 76 {
            out.push(b'\n');
            column = 0;
        }
    }
    out.truncate(length);
    out
}

/// Words used by the text portion of the Silesia-like corpus.
const WORDS: &[&str] = &[
    "the",
    "quick",
    "brown",
    "fox",
    "jumps",
    "over",
    "lazy",
    "dog",
    "compression",
    "dictionary",
    "window",
    "pointer",
    "stream",
    "archive",
    "corpus",
    "sample",
    "medical",
    "database",
    "record",
    "protein",
    "sequence",
    "chapter",
    "keyword",
    "figure",
    "result",
    "measurement",
    "benchmark",
    "parallel",
    "thread",
    "prefetch",
    "cache",
    "offset",
    "block",
    "huffman",
    "deflate",
];

/// Generates a mixed corpus with characteristics similar to the Silesia
/// corpus: natural-language-like text, structured binary records and highly
/// redundant sections.  Compresses with gzip to a ratio of roughly 3 and
/// produces many back-references, which makes two-stage decompression emit
/// plenty of markers (unlike [`base64_random`]).
pub fn silesia_like(length: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0051_E51A);
    let mut out = Vec::with_capacity(length + 4096);
    while out.len() < length {
        match rng.gen_range(0..10u32) {
            // ~50%: text-like content built from a fixed vocabulary.
            0..=4 => {
                for _ in 0..rng.gen_range(50..200) {
                    out.extend_from_slice(WORDS[rng.gen_range(0..WORDS.len())].as_bytes());
                    out.push(if rng.gen_bool(0.1) { b'\n' } else { b' ' });
                }
            }
            // ~30%: structured binary records (length-prefixed, small alphabet).
            5..=7 => {
                for record in 0..rng.gen_range(20..100u32) {
                    out.extend_from_slice(&(record as u16).to_le_bytes());
                    out.extend_from_slice(&rng.gen_range(0..1_000_000u32).to_le_bytes());
                    let tag = rng.gen_range(0..16u8);
                    out.extend(std::iter::repeat_n(tag, rng.gen_range(4..24)));
                }
            }
            // ~10%: verbatim repetition of earlier content (long matches).
            8 => {
                if out.len() > 1024 {
                    let copy_length = rng.gen_range(256..4096usize).min(out.len());
                    let start = rng.gen_range(0..=out.len() - copy_length);
                    let repeated: Vec<u8> = out[start..start + copy_length].to_vec();
                    out.extend_from_slice(&repeated);
                }
            }
            // ~10%: hard-to-compress noise.
            _ => {
                for _ in 0..rng.gen_range(64..512) {
                    out.push(rng.gen());
                }
            }
        }
    }
    out.truncate(length);
    out
}

/// Generates `records` synthetic FASTQ records (identifier, bases, separator,
/// qualities), the file format pugz was designed for.
pub fn fastq_records(records: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA57);
    let bases = [b'A', b'C', b'G', b'T'];
    let mut out = Vec::with_capacity(records * 200);
    for index in 0..records {
        let read_length = rng.gen_range(80..=120usize);
        out.extend_from_slice(format!("@SRR000001.{} {}/1\n", index + 1, index + 1).as_bytes());
        for _ in 0..read_length {
            out.push(bases[rng.gen_range(0..4)]);
        }
        out.push(b'\n');
        out.extend_from_slice(b"+\n");
        for _ in 0..read_length {
            out.push(rng.gen_range(b'!'..=b'I'));
        }
        out.push(b'\n');
    }
    out
}

/// Generates a FASTQ file of approximately `length` bytes.
pub fn fastq_of_size(length: usize, seed: u64) -> Vec<u8> {
    // A record is ~220 bytes on average.
    let mut data = fastq_records(length / 220 + 1, seed);
    data.truncate(length);
    data
}

/// One file to place in a [`tar_archive`].
#[derive(Debug, Clone)]
pub struct TarEntry {
    /// File name (at most 100 bytes for this minimal ustar writer).
    pub name: String,
    /// File contents.
    pub data: Vec<u8>,
}

/// Writes a minimal ustar TAR archive containing the given entries.
pub fn tar_archive(entries: &[TarEntry]) -> Vec<u8> {
    let mut out = Vec::new();
    for entry in entries {
        assert!(entry.name.len() <= 100, "tar entry name too long");
        let mut header = [0u8; 512];
        header[..entry.name.len()].copy_from_slice(entry.name.as_bytes());
        header[100..108].copy_from_slice(b"0000644\0");
        header[108..116].copy_from_slice(b"0000000\0");
        header[116..124].copy_from_slice(b"0000000\0");
        let size_field = format!("{:011o}\0", entry.data.len());
        header[124..136].copy_from_slice(size_field.as_bytes());
        header[136..148].copy_from_slice(b"00000000000\0");
        header[156] = b'0'; // regular file
        header[257..263].copy_from_slice(b"ustar\0");
        header[263..265].copy_from_slice(b"00");
        // Checksum: spaces while computing.
        header[148..156].copy_from_slice(b"        ");
        let checksum: u32 = header.iter().map(|&b| b as u32).sum();
        let checksum_field = format!("{:06o}\0 ", checksum);
        header[148..156].copy_from_slice(checksum_field.as_bytes());
        out.extend_from_slice(&header);
        out.extend_from_slice(&entry.data);
        let padding = (512 - entry.data.len() % 512) % 512;
        out.extend(std::iter::repeat_n(0u8, padding));
    }
    // Two zero blocks terminate the archive.
    out.extend(std::iter::repeat_n(0u8, 1024));
    out
}

/// Parses the headers of a ustar TAR archive produced by [`tar_archive`] and
/// returns `(name, offset of contents, size)` for every entry.
pub fn tar_entries(archive: &[u8]) -> Vec<(String, usize, usize)> {
    let mut entries = Vec::new();
    let mut offset = 0usize;
    while offset + 512 <= archive.len() {
        let header = &archive[offset..offset + 512];
        if header.iter().all(|&b| b == 0) {
            break;
        }
        let name_end = header.iter().position(|&b| b == 0).unwrap_or(100).min(100);
        let name = String::from_utf8_lossy(&header[..name_end]).to_string();
        let size_text = String::from_utf8_lossy(&header[124..135]);
        let size =
            usize::from_str_radix(size_text.trim_matches(|c: char| c == '\0' || c == ' '), 8)
                .unwrap_or(0);
        entries.push((name, offset + 512, size));
        offset += 512 + size.div_ceil(512) * 512;
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base64_data_has_the_right_alphabet_and_is_deterministic() {
        let a = base64_random(10_000, 42);
        let b = base64_random(10_000, 42);
        let c = base64_random(10_000, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 10_000);
        assert!(a
            .iter()
            .all(|&b| b == b'\n' || BASE64_ALPHABET.contains(&b)));
    }

    #[test]
    fn silesia_like_is_deterministic_and_sized() {
        let a = silesia_like(100_000, 7);
        assert_eq!(a.len(), 100_000);
        assert_eq!(a, silesia_like(100_000, 7));
        assert_ne!(a, silesia_like(100_000, 8));
    }

    #[test]
    fn fastq_records_look_like_fastq() {
        let data = fastq_records(100, 1);
        let text = String::from_utf8(data).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 400);
        assert!(lines[0].starts_with('@'));
        assert!(lines[1].bytes().all(|b| b"ACGT".contains(&b)));
        assert_eq!(lines[2], "+");
        assert_eq!(lines[1].len(), lines[3].len());
        assert_eq!(fastq_of_size(50_000, 2).len(), 50_000);
    }

    #[test]
    fn tar_archive_round_trips_entry_metadata() {
        let entries = vec![
            TarEntry {
                name: "a.txt".into(),
                data: b"hello".to_vec(),
            },
            TarEntry {
                name: "dir/b.bin".into(),
                data: vec![0xAB; 1500],
            },
            TarEntry {
                name: "empty".into(),
                data: Vec::new(),
            },
        ];
        let archive = tar_archive(&entries);
        assert_eq!(archive.len() % 512, 0);
        let parsed = tar_entries(&archive);
        assert_eq!(parsed.len(), 3);
        for (entry, (name, offset, size)) in entries.iter().zip(&parsed) {
            assert_eq!(&entry.name, name);
            assert_eq!(entry.data.len(), *size);
            assert_eq!(&archive[*offset..*offset + *size], &entry.data[..]);
        }
    }

    #[test]
    fn generated_corpora_have_expected_compressibility() {
        use rgz_deflate_check::ratio;
        let base64 = base64_random(300_000, 3);
        let silesia = silesia_like(300_000, 3);
        let base64_ratio = ratio(&base64);
        let silesia_ratio = ratio(&silesia);
        // The paper: base64 ≈ 1.315, Silesia ≈ 3.1.
        assert!(
            (1.1..=1.6).contains(&base64_ratio),
            "base64 ratio {base64_ratio}"
        );
        assert!(
            (2.0..=5.0).contains(&silesia_ratio),
            "silesia ratio {silesia_ratio}"
        );
        assert!(silesia_ratio > base64_ratio + 0.5);
    }

    /// Tiny helper module so the compressibility test does not depend on the
    /// full rgz-deflate crate (which would be a dependency cycle for dev
    /// builds); a crude LZ-free entropy estimate is enough to tell the two
    /// corpora apart.
    mod rgz_deflate_check {
        pub fn ratio(data: &[u8]) -> f64 {
            // Estimate compressibility as entropy of byte histogram plus a
            // bonus for repeated 8-grams, roughly tracking what DEFLATE
            // achieves on these generators.
            let mut histogram = [0u64; 256];
            for &byte in data {
                histogram[byte as usize] += 1;
            }
            let total = data.len() as f64;
            let entropy: f64 = histogram
                .iter()
                .filter(|&&count| count > 0)
                .map(|&count| {
                    let p = count as f64 / total;
                    -p * p.log2()
                })
                .sum();
            // Repetition bonus: sample 8-grams and count duplicates.
            let mut seen = std::collections::HashSet::new();
            let mut duplicates = 0u64;
            let mut samples = 0u64;
            let mut index = 0usize;
            while index + 8 <= data.len() {
                samples += 1;
                if !seen.insert(&data[index..index + 8]) {
                    duplicates += 1;
                }
                index += 16;
            }
            let duplicate_fraction = duplicates as f64 / samples.max(1) as f64;
            let effective_bits = entropy * (1.0 - duplicate_fraction) + 0.3;
            8.0 / effective_bits.max(0.5)
        }
    }
}
