//! Baseline (de)compressors the paper compares rapidgzip against.
//!
//! * [`pugz`] — a faithful re-implementation of the *algorithmic* behaviour
//!   of pugz (Kerbiriou & Chikhi): static uniform chunk partitioning,
//!   two-stage decompression, and the requirement that the decompressed data
//!   only contains byte values 9–126.
//! * [`framezip`] — a minimal frame-based container standing in for
//!   Zstandard/pzstd in Table 4: a single-frame file cannot be decompressed
//!   in parallel, a multi-frame file can (see [`framezip`] for why it
//!   stands in for zstd).
//! * [`bgzf_parallel`] — a parallel BGZF decompressor using the `BC` extra
//!   field to jump between members, emulating `bgzip -@`.
//!
//! The single-threaded "GNU gzip" baseline is `rgz_gzip::GzipDecoder`.

pub mod bgzf_parallel;
pub mod framezip;
pub mod pugz;

pub use bgzf_parallel::decompress_bgzf_parallel;
pub use framezip::{FramezipDecompressor, FramezipError, FramezipWriter};
pub use pugz::{PugzDecompressor, PugzError};
