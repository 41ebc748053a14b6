//! Micro-batching for single-query traffic.
//!
//! Point lookups arrive one at a time, but the engine's throughput comes from batches
//! (one router forward — a single GEMM — one pool hand-off and one delta guard per
//! batch). The network event loop and the [`MicroBatcher`] share `Pending`, the
//! accumulator — arrival order, and never more than `max_batch` queries to a batch —
//! and `serve_taken`, the one batch step: the engine call under the crate's only
//! `catch_unwind`, each tag paired with its answer or with why it has none. An engine
//! panic costs the queries of its batch and nothing else; the loop that served it keeps
//! serving. What each keeps to itself is *when* it takes a batch and how an answer
//! reaches its tag. The network event loop ([`crate::ingress`]) tags entries
//! `(connection, request_id)`, replies on the connection (an error reply for a failed
//! query) and is work-conserving: it serves whatever is pending the moment it is idle,
//! so its batches form from what arrives while the previous one is served and it has
//! no window. The [`MicroBatcher`], for in-process callers, tags them with reply
//! senders — [`submit`](MicroBatcher::submit) returns the receiver at once, and a
//! failed query's sender is dropped, so its receiver sees [`mpsc::RecvError`] — and
//! keeps the classic window: its background flusher thread serves a batch when
//! `max_batch` queries wait **or** the oldest has waited `max_delay`. Either way the answers are identical to
//! direct [`crate::QueryEngine::query`] answers (batching never changes semantics).

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
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
}

/// The batch step the event loop and the [`MicroBatcher`] share: serves a batch
/// [`Pending::take`] cut as one [`BatchEngine::serve_batch`] call and pairs each tag,
/// oldest first, with its answer — or with why it has none: the panic message when
/// the engine panicked under the batch (caught here, so the calling thread survives
/// it), or a note that the engine returned fewer answers than queries. Nothing else is failed: the queries
/// still pending are served by the next batch.
pub(crate) fn serve_taken<T, E: BatchEngine + ?Sized>(
    engine: &E,
    opts: &QueryOptions,
    (queries, tags): (Matrix, Vec<(T, Instant)>),
) -> impl Iterator<Item = (T, Result<SearchResult, String>)> {
    let served = catch_unwind(AssertUnwindSafe(|| engine.serve_batch(&queries, opts)));
    let (results, panicked) = match served {
        Ok(results) => (results, None),
        Err(payload) => (Vec::new(), Some(panic_message(&*payload))),
    };
    let mut results = results.into_iter();
    tags.into_iter().map(move |(tag, _admitted)| {
        let answer = results.next().ok_or_else(|| match &panicked {
            Some(msg) => format!("engine panicked under this batch: {msg}"),
            None => "query dropped by the engine".to_string(),
        });
        (tag, answer)
    })
}

/// The message of a caught panic, for the error reported in its place.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Lock the batcher state, recovering from poisoning. The state holds no
/// cross-field invariant a mid-update panic could break — `pending` is only ever
/// changed by whole queries and `shutdown` is a plain bool — and an engine panic is
/// caught outside the lock by the batch step, so recovery here loses nothing. See
/// DESIGN.md §6 ("lock-poisoning convention").
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
/// Generic over [`BatchEngine`], so the same bridge feeds a [`crate::QueryEngine`] or
/// a test engine. Dropping the batcher flushes every pending query before the
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
    /// If the engine panics under the query's batch, the receiver yields
    /// [`mpsc::RecvError`]; the batcher keeps serving, so later submissions are
    /// answered.
    ///
    /// # Panics
    ///
    /// If `query.len()` is not the engine's dimensionality. The check runs on the
    /// caller's thread before anything is enqueued, so a refused query never disturbs
    /// the queries pending or co-batched around it.
    pub fn submit(&self, query: Vec<f32>) -> mpsc::Receiver<SearchResult> {
        let want = self.shared.engine.dims();
        assert!(
            query.len() == want,
            "MicroBatcher: query dimensionality mismatch (got {}, engine serves {want})",
            query.len()
        );
        let (tx, rx) = mpsc::channel();
        lock_state(&self.shared.state).pending.push(&query, tx);
        self.shared.cv.notify_all();
        rx
    }
}

impl<E: BatchEngine + 'static> Drop for MicroBatcher<E> {
    fn drop(&mut self) {
        lock_state(&self.shared.state).shutdown = true;
        self.shared.cv.notify_all();
        if let Some(handle) = self.flusher.take() {
            // The batch step catches engine panics, so the flusher has none to
            // resurface.
            let _ = handle.join();
        }
    }
}

fn flusher_loop<E: BatchEngine>(shared: &Shared<E>) {
    loop {
        let batch = {
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
        for (tx, answer) in serve_taken(&*shared.engine, &shared.opts, batch) {
            // A failed query's sender drops here, so its receiver sees `RecvError`
            // instead of blocking; a caller that dropped its receiver just doesn't
            // get the answer.
            if let Ok(result) = answer {
                let _ = tx.send(result);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryEngine;
    use std::sync::atomic::{AtomicBool, Ordering};
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
        // A batch's senders are dropped when its engine call panics, so each receiver
        // observes a clean disconnect instead of blocking — the second too, as the
        // flusher lives on.
        for query in [vec![0.0, 1.0], vec![2.0, 3.0]] {
            assert!(
                batcher.submit(query).recv().is_err(),
                "receiver must observe the dropped sender"
            );
        }
    }

    /// Panics under its first batch, then delegates to a real engine.
    struct FirstBatchPanics {
        inner: Arc<QueryEngine<RoundRobinPartitioner>>,
        tripped: AtomicBool,
    }

    impl BatchEngine for FirstBatchPanics {
        fn dims(&self) -> usize {
            self.inner.dims()
        }

        fn serve_batch(&self, queries: &Matrix, opts: &QueryOptions) -> Vec<SearchResult> {
            // ordering: SeqCst — a one-shot test flag; no other data is published through it.
            if !self.tripped.swap(true, Ordering::SeqCst) {
                panic!("engine exploded under a batch");
            }
            self.inner.serve_batch(queries, opts)
        }
    }

    #[test]
    fn an_engine_panic_costs_one_batch_not_the_batcher() {
        let inner = engine();
        let opts = QueryOptions::new(3, 2);
        let batcher = MicroBatcher::new(
            Arc::new(FirstBatchPanics {
                inner: Arc::clone(&inner),
                tripped: AtomicBool::new(false),
            }),
            opts,
            4,
            Duration::from_secs(3600), // batches are cut by fill alone: exactly four each
        );
        let queries: Vec<Vec<f32>> = (0..8).map(|i| vec![i as f32, -0.5, 1.5]).collect();
        // Every receiver of the batch the engine panicked under sees `RecvError`...
        let failed: Vec<_> = queries[..4]
            .iter()
            .map(|q| batcher.submit(q.clone()))
            .collect();
        for rx in failed {
            assert!(rx.recv().is_err(), "a failed query's sender is dropped");
        }
        // ...and nothing sticks: later submissions are answered, bit for bit.
        let served: Vec<_> = queries[4..]
            .iter()
            .map(|q| batcher.submit(q.clone()))
            .collect();
        for (q, rx) in queries[4..].iter().zip(served) {
            assert_eq!(
                rx.recv().expect("the flusher keeps serving"),
                inner.query(q, &opts)
            );
        }
        // The flusher survived the panic, so dropping the batcher has none to raise.
        drop(batcher);
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
