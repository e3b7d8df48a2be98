//! The cache-and-prefetch machinery (§3.1–§3.2, Figure 5).
//!
//! * [`ThreadPool`] — a fixed-size worker pool with joinable task handles.
//! * [`Cache`] — a bounded keyed cache with least-recently-used eviction,
//!   the one policy the pipeline needs.
//! * [`FetchNextAdaptive`] — decides which chunk indexes to prefetch based
//!   on the recent access history.
//! * [`IndexAlignedPlan`] — the prefetch plan for reads through an index,
//!   driven by [`FetchNextAdaptive`].
//!
//! The parallel reader (`rgz_core`) schedules its own work on top of these
//! pieces: the pool and caches serve every read, and [`IndexAlignedPlan`]
//! picks the prefetches for reads through an index.

pub mod cache;
pub mod plan;
pub mod strategy;
pub mod thread_pool;

pub use cache::{Cache, CacheStatistics};
pub use plan::IndexAlignedPlan;
pub use strategy::FetchNextAdaptive;
pub use thread_pool::{PoolStatistics, TaskHandle, ThreadPool};
