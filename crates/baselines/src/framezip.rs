//! `framezip` — a minimal frame-based compression container standing in for
//! Zstandard / pzstd in the Table 4 comparison.
//!
//! Zstandard itself is out of scope for this reproduction (new codecs are out
//! of scope, and the offline build has no zstd implementation to link);
//! what Table 4 actually demonstrates is *structural*: frame-based formats
//! can only be decompressed in parallel when the file was specially prepared
//! with many frames (as `pzstd` does when compressing), whereas rapidgzip
//! parallelizes arbitrary gzip files.  `framezip` reproduces exactly that
//! property with a simple container around raw DEFLATE frames:
//!
//! ```text
//! file  := magic "FZF1" , frame*
//! frame := "FR" , compressed_size:u32le , uncompressed_size:u32le , deflate
//! ```
//!
//! * [`FramezipWriter::compress_single_frame`] emulates `zstd` (one frame);
//! * [`FramezipWriter::compress_multi_frame`] emulates `pzstd` compression;
//! * [`FramezipDecompressor`] decompresses either, using as many threads as
//!   there are frames to work on (like `pzstd -d`).

use rgz_bitio::BitReader;
use rgz_deflate::{inflate, CompressorOptions, DeflateCompressor, DeflateError};

const FILE_MAGIC: &[u8; 4] = b"FZF1";
const FRAME_MAGIC: &[u8; 2] = b"FR";

/// Errors of the framezip codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FramezipError {
    /// Missing or wrong file magic.
    BadMagic,
    /// A frame header was malformed or truncated.
    BadFrame { offset: usize },
    /// A frame's payload failed to decompress.
    Deflate(DeflateError),
    /// A frame decompressed to a size different from its header.
    SizeMismatch { expected: u32, actual: u64 },
}

impl std::fmt::Display for FramezipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FramezipError::BadMagic => write!(f, "not a framezip file"),
            FramezipError::BadFrame { offset } => write!(f, "malformed frame at byte {offset}"),
            FramezipError::Deflate(e) => write!(f, "frame payload error: {e}"),
            FramezipError::SizeMismatch { expected, actual } => {
                write!(
                    f,
                    "frame decompressed to {actual} bytes, expected {expected}"
                )
            }
        }
    }
}

impl std::error::Error for FramezipError {}

impl From<DeflateError> for FramezipError {
    fn from(e: DeflateError) -> Self {
        FramezipError::Deflate(e)
    }
}

/// Writes framezip files.
#[derive(Debug, Clone, Default)]
pub struct FramezipWriter {
    options: CompressorOptions,
}

impl FramezipWriter {
    /// Creates a writer with explicit compressor options.
    pub fn new(options: CompressorOptions) -> Self {
        Self { options }
    }

    fn write_frame(&self, out: &mut Vec<u8>, chunk: &[u8]) {
        let compressed = DeflateCompressor::new(self.options.clone()).compress(chunk);
        out.extend_from_slice(FRAME_MAGIC);
        out.extend_from_slice(&(compressed.len() as u32).to_le_bytes());
        out.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
        out.extend_from_slice(&compressed);
    }

    /// Compresses everything into one frame — what plain `zstd` does, and
    /// therefore what `pzstd -d` cannot parallelize (Table 4, "zstd" rows).
    pub fn compress_single_frame(&self, data: &[u8]) -> Vec<u8> {
        let mut out = FILE_MAGIC.to_vec();
        self.write_frame(&mut out, data);
        out
    }

    /// Compresses into independent frames of `frame_size` input bytes — what
    /// `pzstd` produces (Table 4, "pzstd" rows).
    pub fn compress_multi_frame(&self, data: &[u8], frame_size: usize) -> Vec<u8> {
        assert!(frame_size > 0);
        let mut out = FILE_MAGIC.to_vec();
        if data.is_empty() {
            self.write_frame(&mut out, &[]);
            return out;
        }
        for chunk in data.chunks(frame_size) {
            self.write_frame(&mut out, chunk);
        }
        out
    }
}

/// Decompresses framezip files, in parallel across frames.
#[derive(Debug, Clone)]
pub struct FramezipDecompressor {
    /// Number of worker threads.
    pub threads: usize,
}

impl Default for FramezipDecompressor {
    fn default() -> Self {
        Self { threads: 4 }
    }
}

struct FrameInfo {
    payload_start: usize,
    payload_length: usize,
    uncompressed_size: u32,
}

impl FramezipDecompressor {
    /// Lists the frames of a framezip file without decompressing them.
    fn scan(data: &[u8]) -> Result<Vec<FrameInfo>, FramezipError> {
        if data.len() < 4 || &data[..4] != FILE_MAGIC {
            return Err(FramezipError::BadMagic);
        }
        let mut frames = Vec::new();
        let mut offset = 4usize;
        while offset < data.len() {
            let header = data
                .get(offset..offset + 10)
                .ok_or(FramezipError::BadFrame { offset })?;
            if &header[..2] != FRAME_MAGIC {
                return Err(FramezipError::BadFrame { offset });
            }
            let compressed_size = u32::from_le_bytes(header[2..6].try_into().unwrap()) as usize;
            let uncompressed_size = u32::from_le_bytes(header[6..10].try_into().unwrap());
            let payload_start = offset + 10;
            if payload_start + compressed_size > data.len() {
                return Err(FramezipError::BadFrame { offset });
            }
            frames.push(FrameInfo {
                payload_start,
                payload_length: compressed_size,
                uncompressed_size,
            });
            offset = payload_start + compressed_size;
        }
        Ok(frames)
    }

    /// Number of frames in a framezip file.
    pub fn frame_count(data: &[u8]) -> Result<usize, FramezipError> {
        Ok(Self::scan(data)?.len())
    }

    /// Decompresses a framezip file.  Parallelism is limited by the number of
    /// frames: a single-frame file decompresses on one thread no matter how
    /// many are configured.
    pub fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, FramezipError> {
        let frames = Self::scan(data)?;
        let workers = self.threads.max(1).min(frames.len().max(1));

        let results: Vec<Result<Vec<u8>, FramezipError>> = std::thread::scope(|scope| {
            let frames = &frames;
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    scope.spawn(move || {
                        let mut outputs = Vec::new();
                        let mut index = worker;
                        while index < frames.len() {
                            outputs.push((index, decompress_frame(data, &frames[index])));
                            index += workers;
                        }
                        outputs
                    })
                })
                .collect();
            let mut collected: Vec<Option<Result<Vec<u8>, FramezipError>>> =
                (0..frames.len()).map(|_| None).collect();
            for handle in handles {
                for (index, result) in handle.join().expect("framezip worker panicked") {
                    collected[index] = Some(result);
                }
            }
            collected.into_iter().map(|r| r.unwrap()).collect()
        });

        let mut out = Vec::new();
        for result in results {
            out.extend_from_slice(&result?);
        }
        Ok(out)
    }
}

fn decompress_frame(data: &[u8], frame: &FrameInfo) -> Result<Vec<u8>, FramezipError> {
    let payload = &data[frame.payload_start..frame.payload_start + frame.payload_length];
    let mut reader = BitReader::new(payload);
    let mut out = Vec::with_capacity(frame.uncompressed_size as usize);
    inflate(&mut reader, &[], &mut out, u64::MAX)?;
    if out.len() as u64 != frame.uncompressed_size as u64 {
        return Err(FramezipError::SizeMismatch {
            expected: frame.uncompressed_size,
            actual: out.len() as u64,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgz_datagen::silesia_like;

    #[test]
    fn single_frame_round_trips() {
        let data = silesia_like(800_000, 40);
        let compressed = FramezipWriter::default().compress_single_frame(&data);
        assert_eq!(FramezipDecompressor::frame_count(&compressed).unwrap(), 1);
        let restored = FramezipDecompressor { threads: 8 }
            .decompress(&compressed)
            .unwrap();
        assert_eq!(restored, data);
    }

    #[test]
    fn multi_frame_round_trips_and_has_many_frames() {
        let data = silesia_like(1_200_000, 41);
        let compressed = FramezipWriter::default().compress_multi_frame(&data, 128 * 1024);
        let frames = FramezipDecompressor::frame_count(&compressed).unwrap();
        assert_eq!(frames, data.len().div_ceil(128 * 1024));
        for threads in [1, 2, 8] {
            let restored = FramezipDecompressor { threads }
                .decompress(&compressed)
                .unwrap();
            assert_eq!(restored, data, "threads = {threads}");
        }
    }

    #[test]
    fn empty_input_round_trips() {
        let compressed = FramezipWriter::default().compress_multi_frame(&[], 1024);
        assert_eq!(
            FramezipDecompressor::default()
                .decompress(&compressed)
                .unwrap(),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn corruption_is_detected() {
        let data = silesia_like(200_000, 42);
        let compressed = FramezipWriter::default().compress_multi_frame(&data, 64 * 1024);
        assert_eq!(
            FramezipDecompressor::default().decompress(b"NOPE"),
            Err(FramezipError::BadMagic)
        );
        let mut truncated = compressed.clone();
        truncated.truncate(compressed.len() - 10);
        assert!(matches!(
            FramezipDecompressor::default().decompress(&truncated),
            Err(FramezipError::BadFrame { .. })
        ));
        let mut flipped = compressed.clone();
        flipped[5] ^= 0xFF; // inside the first frame header
        assert!(FramezipDecompressor::default()
            .decompress(&flipped)
            .is_err());
    }
}
