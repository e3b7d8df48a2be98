//! The prefetching strategy (§3.2).
//!
//! [`FetchNextAdaptive`] is consulted with the history of recently accessed
//! chunk indexes and answers with the chunk indexes worth prefetching.  It
//! does not keep track of what is already cached — its caller filters out
//! chunks that are cached or already in flight, exactly as the paper
//! describes.

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

impl FetchNextAdaptive {
    /// Records an access to a chunk index.
    pub fn on_access(&self, index: usize) {
        let mut state = self.state.lock();
        state.consecutive = match state.last {
            // First access: assume a full sequential read is starting.
            None => u32::MAX,
            Some(last) if index == last + 1 || index == last => state.consecutive.saturating_add(1),
            Some(_) => 0,
        };
        state.last = Some(index);
    }

    /// Returns the chunk indexes to prefetch, given the maximum prefetch
    /// degree (usually twice the parallelization).
    pub fn prefetch(&self, degree: usize) -> Vec<usize> {
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
