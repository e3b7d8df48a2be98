//! Prefetching strategies (§3.2).
//!
//! The strategy is consulted with the history of recently accessed chunk
//! indexes and answers with the chunk indexes worth prefetching.  It does not
//! keep track of what is already cached — its caller filters out chunks that
//! are cached or already in flight, exactly as the paper describes.

/// Interface of a prefetching strategy.
pub trait FetchingStrategy: Send + Sync {
    /// Records an access to a chunk index.
    fn on_access(&self, index: usize);

    /// Returns the chunk indexes to prefetch, given the maximum prefetch
    /// degree (usually twice the parallelization).
    fn prefetch(&self, degree: usize) -> Vec<usize>;
}

/// Always prefetches the `degree` chunks following the last access.
#[derive(Debug, Default)]
pub struct FetchNextFixed {
    last: parking_lot::Mutex<Option<usize>>,
}

impl FetchingStrategy for FetchNextFixed {
    fn on_access(&self, index: usize) {
        *self.last.lock() = Some(index);
    }

    fn prefetch(&self, degree: usize) -> Vec<usize> {
        match *self.last.lock() {
            Some(last) => (1..=degree).map(|i| last + i).collect(),
            None => Vec::new(),
        }
    }
}

/// Exponentially growing prefetch degree for sequential access patterns.
///
/// The first access to a chunk already prefetches at full degree so that
/// "decompression starts fully parallel" (§3.2); afterwards the degree
/// doubles with every consecutive sequential access and collapses to one on
/// a random access.
#[derive(Debug)]
pub struct FetchNextAdaptive {
    state: parking_lot::Mutex<AdaptiveState>,
}

#[derive(Debug, Default)]
struct AdaptiveState {
    last: Option<usize>,
    consecutive: u32,
}

impl Default for FetchNextAdaptive {
    fn default() -> Self {
        Self {
            state: parking_lot::Mutex::new(AdaptiveState::default()),
        }
    }
}

impl FetchingStrategy for FetchNextAdaptive {
    fn on_access(&self, index: usize) {
        let mut state = self.state.lock();
        state.consecutive = match state.last {
            // First access: assume a full sequential read is starting.
            None => u32::MAX,
            Some(last) if index == last + 1 || index == last => state.consecutive.saturating_add(1),
            Some(_) => 0,
        };
        state.last = Some(index);
    }

    fn prefetch(&self, degree: usize) -> Vec<usize> {
        let state = self.state.lock();
        let Some(last) = state.last else {
            return Vec::new();
        };
        let count = if state.consecutive == u32::MAX {
            degree
        } else {
            (1usize << state.consecutive.min(16)).min(degree)
        };
        (1..=count).map(|i| last + i).collect()
    }
}

/// Tracks several interleaved sequential streams (e.g. two files of a TAR
/// archive read concurrently) and prefetches ahead of each of them.
#[derive(Debug)]
pub struct FetchNextMultiStream {
    streams: parking_lot::Mutex<Vec<usize>>,
    /// Maximum number of concurrent streams tracked.
    max_streams: usize,
}

impl Default for FetchNextMultiStream {
    fn default() -> Self {
        Self {
            streams: parking_lot::Mutex::new(Vec::new()),
            max_streams: 16,
        }
    }
}

impl FetchNextMultiStream {
    /// Creates a strategy tracking at most `max_streams` concurrent streams.
    pub fn new(max_streams: usize) -> Self {
        Self {
            streams: parking_lot::Mutex::new(Vec::new()),
            max_streams: max_streams.max(1),
        }
    }
}

impl FetchingStrategy for FetchNextMultiStream {
    fn on_access(&self, index: usize) {
        let mut streams = self.streams.lock();
        // An access extends the stream whose head is immediately before it.
        if let Some(position) = streams
            .iter()
            .position(|&head| index == head + 1 || index == head)
        {
            streams[position] = index;
            return;
        }
        if streams.len() == self.max_streams {
            streams.remove(0);
        }
        streams.push(index);
    }

    fn prefetch(&self, degree: usize) -> Vec<usize> {
        let streams = self.streams.lock();
        if streams.is_empty() {
            return Vec::new();
        }
        let per_stream = (degree / streams.len()).max(1);
        let mut result = Vec::with_capacity(degree);
        for &head in streams.iter() {
            for i in 1..=per_stream {
                if result.len() == degree {
                    break;
                }
                result.push(head + i);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_strategy_prefetches_a_constant_window() {
        let strategy = FetchNextFixed::default();
        assert!(strategy.prefetch(4).is_empty());
        strategy.on_access(10);
        assert_eq!(strategy.prefetch(4), vec![11, 12, 13, 14]);
        strategy.on_access(3);
        assert_eq!(strategy.prefetch(2), vec![4, 5]);
    }

    #[test]
    fn adaptive_strategy_starts_at_full_degree() {
        let strategy = FetchNextAdaptive::default();
        strategy.on_access(0);
        assert_eq!(strategy.prefetch(8), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn adaptive_strategy_grows_and_collapses() {
        let strategy = FetchNextAdaptive::default();
        strategy.on_access(0);
        // A random (non-sequential) access collapses the window.
        strategy.on_access(100);
        assert_eq!(strategy.prefetch(16), vec![101]);
        strategy.on_access(101);
        assert_eq!(strategy.prefetch(16), vec![102, 103]);
        strategy.on_access(102);
        assert_eq!(strategy.prefetch(16), vec![103, 104, 105, 106]);
        strategy.on_access(103);
        assert_eq!(strategy.prefetch(16).len(), 8);
        strategy.on_access(104);
        assert_eq!(strategy.prefetch(16).len(), 16);
        // Degree is capped by the argument.
        strategy.on_access(105);
        assert_eq!(strategy.prefetch(16).len(), 16);
    }

    #[test]
    fn adaptive_strategy_tolerates_repeated_access_to_same_chunk() {
        let strategy = FetchNextAdaptive::default();
        strategy.on_access(5);
        strategy.on_access(5);
        let prefetch = strategy.prefetch(8);
        assert!(prefetch.starts_with(&[6]));
    }

    #[test]
    fn multi_stream_strategy_tracks_independent_readers() {
        let strategy = FetchNextMultiStream::default();
        strategy.on_access(0);
        strategy.on_access(1000);
        strategy.on_access(1);
        strategy.on_access(1001);
        let prefetch = strategy.prefetch(8);
        assert!(prefetch.contains(&2), "{prefetch:?}");
        assert!(prefetch.contains(&1002), "{prefetch:?}");
        assert!(prefetch.len() <= 8);
    }

    #[test]
    fn multi_stream_strategy_caps_stream_count() {
        let strategy = FetchNextMultiStream::new(2);
        strategy.on_access(0);
        strategy.on_access(100);
        strategy.on_access(200);
        let prefetch = strategy.prefetch(4);
        // Stream "0" was evicted; only 100 and 200 remain.
        assert!(!prefetch.contains(&1));
        assert!(prefetch.contains(&101));
        assert!(prefetch.contains(&201));
    }
}
