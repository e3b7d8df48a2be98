//! Index-driven prefetch planning.
//!
//! Without an index the prefetcher can only *guess* chunk boundaries at
//! uniform compressed offsets (`guess * chunk_size`), and every guess that
//! does not coincide with a real DEFLATE block start costs a wasted
//! speculative decode.  Once a seek-point table exists — built by the first
//! pass or imported from a gztool / indexed_gzip / native index file — the
//! boundaries are *known*, so prefetch ranges can be aligned to real chunks:
//! each prefetched unit is exactly one seek-point span, never a misaligned
//! guess.
//!
//! [`IndexAlignedPlan`] wraps a [`FetchNextAdaptive`] strategy and
//! translates between uncompressed byte offsets (what the reader serves) and
//! chunk indexes (what the strategy reasons about).  The strategy sees one
//! access per chunk, its prefetch answer is clipped to the table, and every
//! returned index maps back to an exact seek point.

use crate::strategy::FetchNextAdaptive;

/// A prefetch plan aligned to the real chunk boundaries of a seek-point
/// table.
pub struct IndexAlignedPlan {
    /// Uncompressed start offset of each chunk, ascending.
    boundaries: Vec<u64>,
    /// End of the last chunk (total uncompressed size).
    end: u64,
    strategy: FetchNextAdaptive,
}

impl std::fmt::Debug for IndexAlignedPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexAlignedPlan")
            .field("chunks", &self.boundaries.len())
            .field("end", &self.end)
            .finish()
    }
}

impl IndexAlignedPlan {
    /// Creates a plan over ascending uncompressed chunk-start offsets.
    pub fn new(boundaries: Vec<u64>, end: u64) -> Self {
        debug_assert!(boundaries.windows(2).all(|pair| pair[0] <= pair[1]));
        Self {
            boundaries,
            end,
            strategy: FetchNextAdaptive::default(),
        }
    }

    /// Number of chunks in the table.
    pub fn len(&self) -> usize {
        self.boundaries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.boundaries.is_empty()
    }

    /// The chunk index covering an uncompressed offset, if any.
    pub fn chunk_of(&self, offset: u64) -> Option<usize> {
        if self.boundaries.is_empty() || offset >= self.end.max(*self.boundaries.last()?) {
            return None;
        }
        let position = self.boundaries.partition_point(|&start| start <= offset);
        position.checked_sub(1)
    }

    /// Records an access at an uncompressed offset, returning the covering
    /// chunk index.
    pub fn record_access(&self, offset: u64) -> Option<usize> {
        let index = self.chunk_of(offset)?;
        self.strategy.on_access(index);
        Some(index)
    }

    /// Chunk indexes worth prefetching, every one of them a real seek
    /// point — clipped to the table, so no decode is ever issued for a
    /// boundary that does not exist.
    pub fn prefetch(&self, degree: usize) -> Vec<usize> {
        let mut indexes = self.strategy.prefetch(degree);
        indexes.retain(|&index| index < self.boundaries.len());
        indexes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a BGZF-style *skewed* chunk table: many small chunks (BGZF
    /// members are ~64 KiB decompressed) followed by a few huge ones, so
    /// uniform guessing is maximally wrong.
    fn skewed_boundaries() -> (Vec<u64>, u64) {
        let mut boundaries = Vec::new();
        let mut offset = 0u64;
        for _ in 0..48 {
            boundaries.push(offset);
            offset += 17_000; // small, misaligned spans
        }
        for _ in 0..8 {
            boundaries.push(offset);
            offset += 900_000; // huge spans
        }
        (boundaries, offset)
    }

    #[test]
    fn maps_offsets_to_chunks_and_back() {
        let (boundaries, end) = skewed_boundaries();
        let plan = IndexAlignedPlan::new(boundaries.clone(), end);
        assert_eq!(plan.len(), 56);
        assert_eq!(plan.chunk_of(0), Some(0));
        assert_eq!(plan.chunk_of(16_999), Some(0));
        assert_eq!(plan.chunk_of(17_000), Some(1));
        assert_eq!(plan.chunk_of(end - 1), Some(55));
        assert_eq!(plan.chunk_of(end), None);
    }

    #[test]
    fn prefetch_is_clipped_to_the_table() {
        let (boundaries, end) = skewed_boundaries();
        let plan = IndexAlignedPlan::new(boundaries, end);
        plan.record_access(end - 10);
        assert!(plan.prefetch(16).is_empty(), "no chunks past the last one");
        plan.record_access(0);
        let prefetch = plan.prefetch(16);
        assert!(!prefetch.is_empty());
        assert!(prefetch.iter().all(|&i| i < plan.len()));
    }

    /// The satellite claim, measured: on a skewed (BGZF-style) corpus,
    /// index-aligned prefetching issues *zero* wasted decodes, while the
    /// uniform-guess model wastes a large fraction of its work.
    ///
    /// "Wasted" means a prefetched unit that does not start at any real
    /// chunk boundary (speculative model: the guessed compressed offset
    /// falls inside a chunk, so its decode is discarded when the real
    /// boundary turns out elsewhere) or that was already covered by an
    /// earlier prefetch.
    #[test]
    fn aligned_prefetch_wastes_no_decodes_on_a_skewed_corpus() {
        let (boundaries, end) = skewed_boundaries();
        // Model the speculative guesser: prefetch at uniform byte offsets.
        let guess_size = 64_000u64; // close to the average span, best case
        let mut wasted_guesses = 0usize;
        let mut useful_guesses = std::collections::HashSet::new();
        let mut guessed_offsets = std::collections::HashSet::new();
        // Sequential pass: after serving the chunk at `offset`, guess the
        // next few uniform boundaries — exactly what `issue_prefetches`
        // does without an index.
        let mut offset = 0u64;
        while offset < end {
            let current_guess = offset / guess_size;
            for ahead in 1..=4u64 {
                let guessed = (current_guess + ahead) * guess_size;
                if guessed >= end || !guessed_offsets.insert(guessed) {
                    continue;
                }
                if boundaries.binary_search(&guessed).is_ok() {
                    useful_guesses.insert(guessed);
                } else {
                    wasted_guesses += 1;
                }
            }
            offset += guess_size;
        }

        // The aligned plan walking the same sequential pass.
        let plan = IndexAlignedPlan::new(boundaries.clone(), end);
        let mut issued = std::collections::HashSet::new();
        let mut aligned_wasted = 0usize;
        for &start in &boundaries {
            plan.record_access(start);
            for index in plan.prefetch(4) {
                if !issued.insert(index) {
                    continue; // already in flight / cached, filtered out
                }
                // A prefetched index is wasted iff it names no real chunk.
                if index >= boundaries.len() {
                    aligned_wasted += 1;
                }
            }
        }

        assert_eq!(aligned_wasted, 0, "aligned prefetching never misses");
        // Every chunk gets prefetched (except chunk 0, which is accessed
        // first).
        assert!(issued.len() >= boundaries.len() - 1);
        assert!(
            wasted_guesses > useful_guesses.len(),
            "the skewed corpus must defeat uniform guessing \
             ({wasted_guesses} wasted vs {} useful)",
            useful_guesses.len()
        );
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = IndexAlignedPlan::new(Vec::new(), 0);
        assert!(plan.is_empty());
        assert_eq!(plan.chunk_of(0), None);
        assert_eq!(plan.record_access(123), None);
        assert!(plan.prefetch(8).is_empty());
    }
}
