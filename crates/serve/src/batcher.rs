//! Micro-batching for single-query traffic.
//!
//! Point lookups arrive one at a time, but the engine's throughput comes from batches
//! (one router forward — a single GEMM — one pool hand-off and one delta guard per
//! batch). `Pending` is the accumulator both drivers share — arrival order, and never
//! more than `max_batch` queries to a batch — but *when* a batch is cut is each
//! driver's own. The network event loop ([`crate::ingress`]) tags entries
//! `(connection, request_id)` and is work-conserving: it serves whatever is pending
//! the moment it is idle, so its batches form from what arrives while the previous one
//! is served and it has no window. The [`MicroBatcher`], for in-process callers, tags
//! them with reply senders — [`submit`](MicroBatcher::submit) returns the receiver at
//! once — and keeps the classic window: its background flusher thread serves a batch
//! when `max_batch` queries wait **or** the oldest has waited `max_delay`. Either way
//! the answers are identical to direct [`crate::QueryEngine::query`] answers (batching
//! never changes semantics).

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use usp_index::SearchResult;
use usp_linalg::Matrix;

use crate::engine::{BatchEngine, QueryOptions};

/// Queries waiting for their batch: rows flat in arrival order, one caller-chosen tag
/// (where the answer goes) and the admission time beside each.
pub(crate) struct Pending<T> {
    dims: usize,
    max_batch: usize,
    rows: Vec<f32>,
    tags: Vec<(T, Instant)>,
}

impl<T> Pending<T> {
    pub(crate) fn new(dims: usize, max_batch: usize) -> Self {
        assert!(max_batch >= 1, "micro-batching: max_batch must be >= 1");
        Self {
            dims,
            max_batch,
            rows: Vec::new(),
            tags: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.tags.len()
    }

    /// Tags of the waiting queries, oldest first.
    pub(crate) fn tags(&self) -> impl Iterator<Item = &T> {
        self.tags.iter().map(|(tag, _)| tag)
    }

    /// Admits one query. Callers validate the length where the query enters (the wire
    /// parser, [`MicroBatcher::submit`]); a wrong-length row here would shift every
    /// later row of the flat buffer, hence the hard assert.
    pub(crate) fn push(&mut self, row: &[f32], tag: T) {
        assert_eq!(row.len(), self.dims, "micro-batching: row length");
        self.rows.extend_from_slice(row);
        self.tags.push((tag, Instant::now()));
    }

    /// Removes the oldest `min(len, max_batch)` queries as one batch, each tag with
    /// its admission time; the overflow stays for the next one.
    pub(crate) fn take(&mut self) -> (Matrix, Vec<(T, Instant)>) {
        let n = self.tags.len().min(self.max_batch);
        let rows: Vec<f32> = self.rows.drain(..n * self.dims).collect();
        let tags = self.tags.drain(..n).collect();
        (Matrix::from_vec(n, self.dims, rows), tags)
    }

    /// Drops every waiting query (and with it whatever its tag holds open).
    fn clear(&mut self) {
        self.rows.clear();
        self.tags.clear();
    }
}

/// The message of a caught panic, for the error a driver reports in its place.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Lock the batcher state, recovering from poisoning. The state holds no
/// cross-field invariant a mid-update panic could break — `pending` is only ever
/// changed by whole queries and the flags are plain bools — and the one panic site
/// that matters (an engine panic under a batch) is already recorded out-of-band via
/// `panicked`, so recovery here loses nothing. See DESIGN.md §6 ("lock-poisoning
/// convention").
fn lock_state(state: &Mutex<State>) -> MutexGuard<'_, State> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Shared<E: BatchEngine> {
    engine: Arc<E>,
    opts: QueryOptions,
    /// The flusher's window: how long a lone query waits for company.
    max_delay: Duration,
    state: Mutex<State>,
    cv: Condvar,
}

struct State {
    pending: Pending<mpsc::Sender<SearchResult>>,
    shutdown: bool,
    /// Set (with the flusher's panic message) when the flusher thread died in
    /// [`BatchEngine::serve_batch`]. Pending senders were dropped at that point, so
    /// outstanding receivers observe [`mpsc::RecvError`] instead of blocking
    /// forever, and the next [`MicroBatcher::submit`] resurfaces the panic.
    panicked: Option<String>,
}

impl State {
    /// How long until the flusher's next batch is due: `None` while nothing waits, zero
    /// once `max_batch` queries wait or the oldest has waited `max_delay`, else the rest
    /// of its window.
    fn due_in(&self, max_delay: Duration) -> Option<Duration> {
        let (_, oldest) = self.pending.tags.first()?;
        if self.pending.len() >= self.pending.max_batch {
            return Some(Duration::ZERO);
        }
        Some(max_delay.saturating_sub(oldest.elapsed()))
    }
}

/// Accumulates single queries from in-process callers into micro-batches served on
/// the engine's pooled path.
///
/// Generic over [`BatchEngine`], so the same bridge feeds a [`crate::QueryEngine`] at
/// any shard count. Dropping the batcher flushes every pending query before the
/// background thread exits, so submitted queries are never lost.
pub struct MicroBatcher<E: BatchEngine + 'static> {
    shared: Arc<Shared<E>>,
    flusher: Option<std::thread::JoinHandle<()>>,
}

impl<E: BatchEngine + 'static> MicroBatcher<E> {
    /// Starts the background flusher. `max_batch` bounds the batch size (flush
    /// trigger); `max_delay` bounds how long a lone query waits for company.
    pub fn new(engine: Arc<E>, opts: QueryOptions, max_batch: usize, max_delay: Duration) -> Self {
        let pending = Pending::new(engine.dims(), max_batch);
        let shared = Arc::new(Shared {
            engine,
            opts,
            max_delay,
            state: Mutex::new(State {
                pending,
                shutdown: false,
                panicked: None,
            }),
            cv: Condvar::new(),
        });
        let flusher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("usp-serve-batcher".into())
                .spawn(move || flusher_loop(&shared))
                .expect("MicroBatcher: failed to spawn flusher thread")
        };
        Self {
            shared,
            flusher: Some(flusher),
        }
    }

    /// Enqueues a query; the returned receiver yields the answer once the query's
    /// micro-batch is flushed. `query.len()` must equal the indexed dimensionality.
    ///
    /// # Panics
    ///
    /// If `query.len()` is not the engine's dimensionality, or if the flusher thread
    /// died in a previous flush (the engine panicked under a batch) — that panic is
    /// resurfaced here instead of enqueueing a query nothing will ever serve. Both
    /// checks run on the caller's thread before anything is enqueued, so a refused
    /// query never disturbs the queries pending or co-batched around it.
    pub fn submit(&self, query: Vec<f32>) -> mpsc::Receiver<SearchResult> {
        let want = self.shared.engine.dims();
        assert!(
            query.len() == want,
            "MicroBatcher: query dimensionality mismatch (got {}, engine serves {want})",
            query.len()
        );
        let (tx, rx) = mpsc::channel();
        let mut state = lock_state(&self.shared.state);
        if let Some(msg) = state.panicked.clone() {
            drop(state);
            panic!("MicroBatcher: flusher thread panicked: {msg}");
        }
        state.pending.push(&query, tx);
        drop(state);
        self.shared.cv.notify_all();
        rx
    }
}

impl<E: BatchEngine + 'static> Drop for MicroBatcher<E> {
    fn drop(&mut self) {
        lock_state(&self.shared.state).shutdown = true;
        self.shared.cv.notify_all();
        if let Some(handle) = self.flusher.take() {
            if let Err(payload) = handle.join() {
                // The flusher died in the engine; swallowing the payload here (the
                // old `let _ = handle.join()`) hid the failure from every caller
                // that never submitted again. Resurface it — unless we are already
                // unwinding, where a double panic would abort the process.
                if !std::thread::panicking() {
                    resume_unwind(payload);
                }
            }
        }
    }
}

fn flusher_loop<E: BatchEngine>(shared: &Shared<E>) {
    loop {
        let (queries, senders) = {
            let mut state = lock_state(&shared.state);
            // Sleep until a batch is due; shutdown flushes whatever waits at once and
            // exits when nothing does.
            loop {
                state = match state.due_in(shared.max_delay) {
                    None if state.shutdown => return,
                    Some(wait) if state.shutdown || wait.is_zero() => break,
                    None => shared
                        .cv
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner),
                    Some(wait) => {
                        shared
                            .cv
                            .wait_timeout(state, wait)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0
                    }
                };
            }
            state.pending.take()
        };

        // Serve outside the lock so new submissions keep flowing during the flush.
        //
        // A panicking engine must not take the batcher's callers down with it:
        // without the catch, the flusher thread dies silently and every
        // outstanding (and future) `submit` receiver blocks forever on a channel
        // whose sender is parked in a dead thread's queue. Catch the unwind,
        // record it, drop every pending sender (receivers observe `RecvError`),
        // and re-raise so `submit` and `Drop` can resurface the original panic.
        let served = catch_unwind(AssertUnwindSafe(|| {
            shared.engine.serve_batch(&queries, &shared.opts)
        }));
        let results = match served {
            Ok(results) => results,
            Err(payload) => {
                let mut state = lock_state(&shared.state);
                state.panicked = Some(panic_message(&*payload));
                state.pending.clear();
                drop(state);
                resume_unwind(payload);
            }
        };
        for ((tx, _admitted), result) in senders.into_iter().zip(results) {
            // A caller that dropped its receiver just doesn't get the answer.
            let _ = tx.send(result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryEngine;
    use std::sync::Arc;
    use usp_index::partitioner::RoundRobinPartitioner;
    use usp_index::PartitionIndex;
    use usp_linalg::Distance;

    fn engine() -> Arc<QueryEngine<RoundRobinPartitioner>> {
        let n = 64;
        let data: Vec<f32> = (0..n * 3)
            .map(|i| ((i * 53 % 97) as f32) / 7.0 - 6.0)
            .collect();
        let data = Matrix::from_vec(n, 3, data);
        Arc::new(QueryEngine::new(Arc::new(PartitionIndex::build(
            RoundRobinPartitioner::new(6),
            &data,
            Distance::SquaredEuclidean,
        ))))
    }

    #[test]
    fn micro_batched_answers_equal_direct_answers() {
        let engine = engine();
        let opts = QueryOptions::new(4, 3);
        let batcher = MicroBatcher::new(Arc::clone(&engine), opts, 8, Duration::from_millis(5));
        let queries: Vec<Vec<f32>> = (0..20)
            .map(|i| vec![i as f32 * 0.3 - 3.0, (i % 5) as f32, 1.0])
            .collect();
        let receivers: Vec<_> = queries.iter().map(|q| batcher.submit(q.clone())).collect();
        for (q, rx) in queries.iter().zip(receivers) {
            let got = rx.recv().expect("flusher delivers an answer");
            let expect = engine.index().search(q, opts.k, opts.probes);
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn lone_query_is_flushed_by_the_deadline() {
        let engine = engine();
        let batcher = MicroBatcher::new(
            Arc::clone(&engine),
            QueryOptions::new(2, 2),
            1024, // never fills
            Duration::from_millis(10),
        );
        let t0 = Instant::now();
        let rx = batcher.submit(vec![0.5, -0.5, 2.0]);
        let got = rx.recv().expect("deadline flush");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "deadline flush took {:?}",
            t0.elapsed()
        );
        assert_eq!(got, engine.index().search(&[0.5, -0.5, 2.0], 2, 2));
    }

    #[test]
    fn drop_flushes_pending_queries() {
        let engine = engine();
        let batcher = MicroBatcher::new(
            Arc::clone(&engine),
            QueryOptions::new(1, 1),
            1024,
            Duration::from_secs(3600), // the window alone would never close in time
        );
        let rx = batcher.submit(vec![1.0, 2.0, 3.0]);
        drop(batcher); // must flush, not discard
        let got = rx.recv().expect("drop flushed the pending query");
        assert_eq!(got, engine.index().search(&[1.0, 2.0, 3.0], 1, 1));
    }

    #[test]
    fn flushed_batches_never_exceed_max_batch() {
        let engine = engine();
        let opts = QueryOptions::new(2, 2);
        let batcher = MicroBatcher::new(
            Arc::clone(&engine),
            opts,
            4,
            Duration::from_secs(3600), // flushes are triggered by fill or shutdown only
        );
        let queries: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32, 0.5, -2.0]).collect();
        let receivers: Vec<_> = queries.iter().map(|q| batcher.submit(q.clone())).collect();
        drop(batcher); // flushes the remainder
        for (q, rx) in queries.iter().zip(receivers) {
            assert_eq!(
                rx.recv().unwrap(),
                engine.index().search(q, opts.k, opts.probes)
            );
        }
        // 10 queries through max_batch=4 must arrive as 4 + 4 + 2, never one batch of 10.
        let snap = engine.stats();
        assert_eq!(snap.queries, 10);
        assert_eq!(
            snap.batches, 3,
            "overfilled queue must drain in max_batch slices"
        );
    }

    #[test]
    fn wrong_dims_is_rejected_per_query_without_a_co_batch_blast_radius() {
        // Pre-fix, a wrong-length query reached the flusher, whose
        // `Matrix::from_vec(batch.len(), dims, flat)` panicked — killing the
        // flusher thread and failing every innocent query co-batched with it.
        // Post-fix the bad query panics its own submitter before it is enqueued,
        // and everything around it is served normally.
        let engine = engine();
        let opts = QueryOptions::new(3, 2);
        let batcher = MicroBatcher::new(
            Arc::clone(&engine),
            opts,
            8,
            Duration::from_millis(20), // wide window: good + bad share a batch
        );
        let good_a = batcher.submit(vec![0.1, 0.2, 0.3]);
        for bad in [vec![1.0, 2.0], vec![]] {
            // 2 and 0 dims against a 3-dim engine.
            let got = bad.len();
            let err = catch_unwind(AssertUnwindSafe(|| batcher.submit(bad)))
                .expect_err("wrong dims must be refused");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains(&format!("got {got}, engine serves 3")),
                "got: {msg}"
            );
        }
        let good_b = batcher.submit(vec![-1.0, 0.0, 1.0]);
        // Both good queries get served, and bit-identically to the direct path.
        assert_eq!(
            good_a.recv().expect("co-batched query must survive"),
            engine.index().search(&[0.1, 0.2, 0.3], opts.k, opts.probes)
        );
        assert_eq!(
            good_b.recv().expect("co-batched query must survive"),
            engine
                .index()
                .search(&[-1.0, 0.0, 1.0], opts.k, opts.probes)
        );
    }

    /// An engine whose every batch panics — the failure mode behind the old hang.
    struct PanickingEngine;

    impl BatchEngine for PanickingEngine {
        fn dims(&self) -> usize {
            2
        }

        fn serve_batch(&self, _queries: &Matrix, _opts: &QueryOptions) -> Vec<SearchResult> {
            panic!("engine exploded under a batch");
        }
    }

    #[test]
    fn engine_panic_fails_receivers_instead_of_hanging() {
        let batcher = MicroBatcher::new(
            Arc::new(PanickingEngine),
            QueryOptions::new(1, 1),
            4,
            Duration::from_millis(1),
        );
        let rx = batcher.submit(vec![0.0, 1.0]);
        // Pre-fix, the flusher died silently and this recv blocked forever; now the
        // batch's senders are dropped on unwind, so the receiver observes a clean
        // disconnect.
        assert!(
            rx.recv().is_err(),
            "receiver must observe the dropped sender"
        );
        // The next submit resurfaces the flusher's panic (with the original message)
        // instead of enqueueing a query nothing will ever serve...
        let err = catch_unwind(AssertUnwindSafe(|| batcher.submit(vec![2.0, 3.0])))
            .expect_err("submit after a flusher panic must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("flusher thread panicked"), "got: {msg}");
        assert!(msg.contains("engine exploded under a batch"), "got: {msg}");
        // ...and a later submit keeps resurfacing it (the flag is sticky).
        assert!(catch_unwind(AssertUnwindSafe(|| batcher.submit(vec![4.0, 5.0]))).is_err());
        // Dropping the batcher re-raises the original payload too — the old
        // `let _ = handle.join()` swallowed it.
        let err = catch_unwind(AssertUnwindSafe(move || drop(batcher)))
            .expect_err("drop must resurface the flusher panic");
        assert_eq!(
            err.downcast_ref::<&str>(),
            Some(&"engine exploded under a batch")
        );
    }

    #[test]
    fn submits_racing_shutdown_all_resolve() {
        // Submitters hammer the batcher from four threads while the main thread
        // drops its handle; the batcher's Drop then runs on whichever thread
        // releases the last Arc. Every submit must resolve — an answer or a clean
        // `RecvError` — never a hang and never a shutdown assert.
        let engine = engine();
        let opts = QueryOptions::new(2, 2);
        let batcher = Arc::new(MicroBatcher::new(
            Arc::clone(&engine),
            opts,
            3,
            Duration::from_millis(1),
        ));
        let mut handles = Vec::new();
        for t in 0..4 {
            let batcher = Arc::clone(&batcher);
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    let q = vec![t as f32, i as f32 * 0.2, -1.0];
                    // A RecvError means shutdown won the race — fine, just no hang.
                    if let Ok(got) = batcher.submit(q.clone()).recv() {
                        assert_eq!(got, engine.index().search(&q, opts.k, opts.probes));
                    }
                }
            }));
        }
        drop(batcher);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn submissions_from_many_threads_all_get_answers() {
        let engine = engine();
        let opts = QueryOptions::new(3, 2);
        let batcher = Arc::new(MicroBatcher::new(
            Arc::clone(&engine),
            opts,
            4,
            Duration::from_millis(2),
        ));
        let mut handles = Vec::new();
        for t in 0..4 {
            let batcher = Arc::clone(&batcher);
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                for i in 0..10 {
                    let q = vec![t as f32, i as f32 * 0.1, -1.0];
                    let got = batcher.submit(q.clone()).recv().unwrap();
                    assert_eq!(got, engine.index().search(&q, opts.k, opts.probes));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
