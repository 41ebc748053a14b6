//! Shared index abstractions for every partitioning method in the workspace.
//!
//! The paper's online phase (Algorithm 2) is the same regardless of how the partition was
//! produced: identify the `m′` most probable bins of the query, gather the points stored
//! in those bins through a lookup table, and re-rank the candidates by exact distance.
//! This crate factors that machinery out so the unsupervised partitioner (`usp-core`) and
//! every baseline (`usp-baselines`) share one implementation:
//!
//! * [`partitioner::Partitioner`] — anything that can score bins for a query;
//! * [`partition_index::PartitionIndex`] — the bin → point-ids lookup table over the
//!   bin-contiguous dataset, and the write path;
//! * [`stream`] — the candidate stream of the probed bins (Algorithm 2 step 2) and the
//!   two consumers that score it (step 3): exact, or ADC shortlist + exact re-rank;
//! * [`searcher::SearchResult`] — a query's ids and its exact and compressed scan
//!   counts, the axes the evaluation harness sweeps recall against;
//! * [`scoring`] — the exact-f32 vs compressed (PQ/ADC) scoring switch and the
//!   [`scoring::CodeQuantizer`] interface quantizers implement to plug into it;
//! * [`mutation`] — the streaming write path: per-bin membins, tombstones, and the
//!   compaction report behind `PartitionIndex::{insert, delete, compacted}`;
//! * [`wal`] — crash consistency for that write path: length-prefixed checksummed
//!   records appended before every ack, torn-tail-tolerant recovery
//!   (`PartitionIndex::recover`), and the checkpoint/truncate compaction protocol;
//! * [`rerank`] — id-gather re-ranking of an arbitrary candidate list: the reference the
//!   streaming scan is tested against, not a query path;
//! * [`balance`] — partition balance statistics (the computational-cost side of the loss).

pub mod balance;
pub mod mutation;
pub mod partition_index;
pub mod partitioner;
pub mod rerank;
pub mod scoring;
pub mod searcher;
pub mod stream;
pub mod wal;

pub use mutation::{CompactionReport, MutationError, MutationStats};
pub use partition_index::{PartitionIndex, RecoveryReport};
pub use partitioner::Partitioner;
pub use scoring::{CodeQuantizer, Scoring};
pub use searcher::SearchResult;
pub use wal::{
    FaultPlan, FileStorage, MemStorage, SyncPolicy, Wal, WalError, WalRecord, WalStats, WalStorage,
};
