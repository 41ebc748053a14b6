//! Batched query serving over a [`PartitionIndex`](usp_index::PartitionIndex).
//!
//! The paper's partitioning index only pays off online — rank bins by model
//! probability, probe the `m′` best, re-rank the union — and that online phase is
//! embarrassingly parallel across queries. This crate turns the offline reproduction
//! into a servable system:
//!
//! * [`engine::QueryEngine`] — the one engine. It answers query batches on the rayon
//!   shim's **persistent worker pool** (one parallel region per batch whose unit of
//!   work is the query, no thread spawns on the hot path), with per-request knobs
//!   ([`engine::QueryOptions`]: `k`, `probes`, re-rank budget) and running serving
//!   statistics ([`stats::StatsSnapshot`]: QPS, p50/p99 latency, per-bin probe counts).
//!   A shard is a count and nothing more: [`engine::QueryEngine::with_shards`] places
//!   bin `b` on shard `b % S` (one shard by default), a query's candidate stream is
//!   scored one shard at a time and merged by stream position, so answers are
//!   **bit-identical for any shard count** (`tests/shard_equivalence.rs` pins this);
//! * [`batcher::MicroBatcher`] — accumulates single queries from in-process callers
//!   into micro-batches (served when full or when the batching window closes) so point
//!   lookups ride the same batched path; generic over [`engine::BatchEngine`]. The
//!   window is this driver's alone: the private accumulator in [`batcher`] is shared
//!   with the network loop, which has none;
//! * [`ingress::IngressHandle`] — a single-threaded epoll event loop (vendored `mio`
//!   shim) speaking the length-prefixed binary protocol of [`protocol`] over TCP. The
//!   loop owns the micro-batch, calls the engine itself (socket → loop → pool, no
//!   other thread or queue) and is work-conserving — it serves whatever is pending the
//!   moment it is idle, and the next batch forms while this one is served — with
//!   explicit backpressure: a bounded pending queue past which queries get `SHED`
//!   replies with a retry hint, round-robin frame draining across connections,
//!   per-connection write buffering so one slow reader never blocks the loop, and an
//!   engine panic contained to the queries of one batch;
//! * determinism: batch answers are **bit-identical** to per-query
//!   [`AnnSearcher`](usp_index::AnnSearcher) results for any pool size — batching and
//!   sharding are execution strategies, never a semantic change
//!   (`tests/parallel_equivalence.rs` pins this).
//!
//! See `DESIGN.md` §5 for the serving architecture and the pool lifecycle.

pub mod batcher;
pub mod engine;
pub mod ingress;
pub mod protocol;
pub mod stats;

pub use batcher::MicroBatcher;
pub use engine::{BatchEngine, QueryEngine, QueryOptions};
pub use ingress::{IngressConfig, IngressHandle};
pub use stats::StatsSnapshot;

/// The name `servebench/` (the `BENCHMARK.json` harness) builds its many-shard engine
/// under — the alias's one remaining consumer; it goes when a `[benchmark]` PR drops
/// the name there.
pub type ShardedEngine<P> = QueryEngine<P>;

/// The engine's tests at several shard counts (`shard/tests.rs`).
#[cfg(test)]
mod shard {
    mod tests;
}
