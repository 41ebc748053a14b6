//! End-to-end loopback tests for the TCP ingress: real sockets, mixed
//! well-behaved/abusive/pipelined clients, an overload run proving the
//! pending queue stays bounded while answers remain bit-identical to direct
//! [`QueryEngine::query`] calls, the loop's batching rule (serve what is pending
//! the moment the loop is idle, never more than `MAX_BATCH`; the next batch forms
//! while this one is served), per-batch containment of an engine panic, and an error
//! reply (not a dead loop) for a stats snapshot too large for a frame.

use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use usp_index::partitioner::RoundRobinPartitioner;
use usp_index::{PartitionIndex, SearchResult};
use usp_linalg::{Distance, Matrix};
use usp_serve::ingress::{MAX_BATCH, QUEUE_CAP, RETRY_AFTER_MS};
use usp_serve::protocol::{
    encode_frame, encode_query, encode_stats, parse_reply, read_frame, Reply, OP_QUERY,
};
use usp_serve::{
    BatchEngine, IngressConfig, IngressHandle, QueryEngine, QueryOptions, StatsSnapshot,
};

const DIMS: usize = 6;

fn index() -> Arc<PartitionIndex<RoundRobinPartitioner>> {
    let n = 400;
    let data: Vec<f32> = (0..n * DIMS)
        .map(|i| ((i * 37 % 113) as f32) / 7.0 - 8.0)
        .collect();
    let data = Matrix::from_vec(n, DIMS, data);
    Arc::new(PartitionIndex::build(
        RoundRobinPartitioner::new(10),
        &data,
        Distance::SquaredEuclidean,
    ))
}

fn queries(n: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..DIMS)
                .map(|d| ((i * 13 + d * 29) % 97) as f32 / 6.0 - 8.0)
                .collect()
        })
        .collect()
}

fn spawn_on_ephemeral<E: BatchEngine + 'static>(
    engine: Arc<E>,
    config: IngressConfig,
) -> IngressHandle {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    IngressHandle::spawn(engine, listener, config).expect("spawn ingress")
}

/// One connection, writes the whole pipeline, then reads every reply. Returns
/// replies keyed by request id.
fn run_pipelined_client(
    addr: std::net::SocketAddr,
    queries: &[(u32, Vec<f32>)],
) -> HashMap<u32, Reply> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut wire = Vec::new();
    for (rid, q) in queries {
        encode_query(&mut wire, *rid, q);
    }
    stream.write_all(&wire).expect("write pipeline");
    let mut replies = HashMap::new();
    for _ in 0..queries.len() {
        let frame = read_frame(&mut stream).expect("reply frame");
        let reply = parse_reply(&frame).expect("conforming reply");
        assert!(
            replies.insert(frame.request_id, reply).is_none(),
            "duplicate reply for request {}",
            frame.request_id
        );
    }
    replies
}

/// Calls `hold` with the batch's row count on entry to every `serve_batch`, then
/// delegates to a real engine: a slow engine when `hold` sleeps, a recorded or gated
/// one when it reports to the test.
struct HeldEngine<H> {
    inner: QueryEngine<RoundRobinPartitioner>,
    hold: H,
}

impl<H: Fn(usize) + Send + Sync> HeldEngine<H> {
    fn new(index: Arc<PartitionIndex<RoundRobinPartitioner>>, hold: H) -> Self {
        Self {
            inner: QueryEngine::new(index),
            hold,
        }
    }
}

impl<H: Fn(usize) + Send + Sync> BatchEngine for HeldEngine<H> {
    fn dims(&self) -> usize {
        DIMS
    }

    fn serve_batch(&self, queries: &Matrix, opts: &QueryOptions) -> Vec<SearchResult> {
        (self.hold)(queries.rows());
        self.inner.serve_batch(queries, opts)
    }

    fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }
}

#[test]
fn mixed_clients_get_isolated_correct_answers() {
    let index = index();
    let opts = QueryOptions::new(5, 4);
    let engine = Arc::new(QueryEngine::new(Arc::clone(&index)));
    let handle = spawn_on_ephemeral(Arc::clone(&engine), IngressConfig::new(opts));
    let addr = handle.local_addr();

    let all = queries(48);
    let (seq_q, rest) = all.split_at(16);
    let (pipe_q, abusive_q) = rest.split_at(16);

    // lint:allow(raw-thread-spawn): concurrent TCP clients need real threads
    let seq = std::thread::spawn({
        let seq_q = seq_q.to_vec();
        move || {
            // Well-behaved client: one request at a time, reads each reply.
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut replies = HashMap::new();
            for (rid, q) in seq_q.iter().enumerate() {
                let mut wire = Vec::new();
                encode_query(&mut wire, rid as u32, q);
                stream.write_all(&wire).expect("write");
                let frame = read_frame(&mut stream).expect("reply");
                assert_eq!(
                    frame.request_id, rid as u32,
                    "sequential client is synchronous"
                );
                replies.insert(frame.request_id, parse_reply(&frame).expect("reply"));
            }
            replies
        }
    });
    // lint:allow(raw-thread-spawn): concurrent TCP clients need real threads
    let pipe = std::thread::spawn({
        let pipe_q: Vec<(u32, Vec<f32>)> = pipe_q
            .iter()
            .enumerate()
            .map(|(i, q)| (1000 + i as u32, q.clone()))
            .collect();
        move || run_pipelined_client(addr, &pipe_q)
    });
    // lint:allow(raw-thread-spawn): concurrent TCP clients need real threads
    let abusive = std::thread::spawn({
        let abusive_q = abusive_q.to_vec();
        move || {
            // Abusive client: interleaves garbage with good queries on one
            // connection. Frame-level garbage earns Malformed replies; the
            // good queries on the same connection still get real answers.
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut replies = HashMap::new();
            for (i, q) in abusive_q.iter().enumerate() {
                let rid = 2000 + 3 * i as u32;
                let mut wire = Vec::new();
                encode_frame(&mut wire, rid, 0x7777, b"junk");
                encode_frame(&mut wire, rid + 1, OP_QUERY, &[1, 2, 3]); // truncated row
                encode_query(&mut wire, rid + 2, q);
                stream.write_all(&wire).expect("write");
                for _ in 0..3 {
                    let frame = read_frame(&mut stream).expect("reply");
                    replies.insert(frame.request_id, parse_reply(&frame).expect("reply"));
                }
            }
            replies
        }
    });

    let seq_replies = seq.join().expect("sequential client");
    let pipe_replies = pipe.join().expect("pipelined client");
    let abusive_replies = abusive.join().expect("abusive client");

    for (rid, q) in seq_q.iter().enumerate() {
        match &seq_replies[&(rid as u32)] {
            Reply::Query(result) => assert_eq!(result, &engine.query(q, &opts), "seq {rid}"),
            other => panic!("sequential client got {other:?}"),
        }
    }
    for (i, q) in pipe_q.iter().enumerate() {
        match &pipe_replies[&(1000 + i as u32)] {
            Reply::Query(result) => assert_eq!(result, &engine.query(q, &opts), "pipe {i}"),
            other => panic!("pipelined client got {other:?}"),
        }
    }
    for (i, q) in abusive_q.iter().enumerate() {
        let rid = 2000 + 3 * i as u32;
        assert!(
            matches!(abusive_replies[&rid], Reply::Malformed(_)),
            "garbage opcode {i}: {:?}",
            abusive_replies[&rid]
        );
        assert!(
            matches!(abusive_replies[&(rid + 1)], Reply::Malformed(_)),
            "truncated row {i}: {:?}",
            abusive_replies[&(rid + 1)]
        );
        match &abusive_replies[&(rid + 2)] {
            Reply::Query(result) => assert_eq!(result, &engine.query(q, &opts), "abusive {i}"),
            other => panic!("abusive client's good query got {other:?}"),
        }
    }

    let snap = handle.stats();
    assert_eq!(snap.accepted_frames, 48, "every valid query accepted");
    assert_eq!(snap.malformed_frames, 32, "every garbage frame rejected");
    assert_eq!(snap.shed_frames, 0, "no overload in this test");
    handle.shutdown();
}

/// A real engine whose stats snapshot carries 60 000 bins of `u64::MAX` probes: about
/// 1.26 MB of JSON, over the 1 MiB frame limit.
struct OversizedStats(QueryEngine<RoundRobinPartitioner>);

impl BatchEngine for OversizedStats {
    fn dims(&self) -> usize {
        DIMS
    }

    fn serve_batch(&self, queries: &Matrix, opts: &QueryOptions) -> Vec<SearchResult> {
        self.0.serve_batch(queries, opts)
    }

    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            bin_probes: vec![u64::MAX; 60_000],
            ..self.0.stats()
        }
    }
}

#[test]
fn a_stats_snapshot_too_large_for_a_frame_is_an_error_reply() {
    let opts = QueryOptions::new(4, 3);
    let engine = Arc::new(OversizedStats(QueryEngine::new(index())));
    let handle = spawn_on_ephemeral(Arc::clone(&engine), IngressConfig::new(opts));
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let mut wire = Vec::new();
    encode_stats(&mut wire, 1);
    stream.write_all(&wire).expect("write stats request");
    let frame = read_frame(&mut stream).expect("the connection stays open");
    match parse_reply(&frame).expect("conforming reply") {
        Reply::Error(reason) => assert!(reason.contains("MAX_FRAME_LEN"), "{reason}"),
        other => panic!("an oversized snapshot got {other:?}"),
    }
    // The loop survived: the same connection's next query is answered.
    let q = &queries(1)[0];
    wire.clear();
    encode_query(&mut wire, 2, q);
    stream.write_all(&wire).expect("write query");
    let frame = read_frame(&mut stream).expect("the loop keeps serving");
    assert_eq!(frame.request_id, 2);
    match parse_reply(&frame).expect("conforming reply") {
        Reply::Query(result) => assert_eq!(result, engine.0.query(q, &opts)),
        other => panic!("the query after the stats request got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn two_x_overload_sheds_explicitly_and_stays_bounded() {
    let index = index();
    let opts = QueryOptions::new(4, 3);
    // A deliberately slow engine: 20 ms per batch of at most `MAX_BATCH`. The client
    // pipelines four times what one batch and a full queue hold, instantly — far
    // beyond 2× that capacity — so the bounded queue must shed most of them.
    let delay = Duration::from_millis(20);
    let engine = Arc::new(HeldEngine::new(Arc::clone(&index), move |_| {
        std::thread::sleep(delay)
    }));
    let handle = spawn_on_ephemeral(engine, IngressConfig::new(opts));

    let sent = 4 * (MAX_BATCH + QUEUE_CAP);
    let qs: Vec<(u32, Vec<f32>)> = queries(sent)
        .into_iter()
        .enumerate()
        .map(|(i, q)| (i as u32, q))
        .collect();
    let replies = run_pipelined_client(handle.local_addr(), &qs);

    let mut served = 0u64;
    let mut shed = 0u64;
    for (rid, q) in &qs {
        match &replies[rid] {
            Reply::Query(result) => {
                served += 1;
                // Overload changes *which* queries are answered, never the bits
                // of the answers themselves. (Held to the index, not the engine, so
                // the reference calls add nothing to the counters checked below.)
                assert_eq!(
                    result,
                    &index.search(q, opts.k, opts.probes),
                    "request {rid}"
                );
            }
            Reply::Shed { retry_after_ms } => {
                shed += 1;
                assert_eq!(
                    *retry_after_ms, RETRY_AFTER_MS,
                    "shed reply carries the retry hint"
                );
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(
        served + shed,
        sent as u64,
        "every request is answered one way"
    );
    assert!(
        served >= QUEUE_CAP as u64,
        "the queue's worth of queries is served"
    );
    assert!(shed > 0, "2x overload must shed");

    let snap = handle.stats();
    assert_eq!(snap.accepted_frames, served);
    assert_eq!(snap.shed_frames, shed);
    assert!(
        snap.queue_depth_hwm <= QUEUE_CAP as u64,
        "pending queue never exceeds its cap: hwm = {}",
        snap.queue_depth_hwm
    );
    // The queue's second batch was admitted before the first one's 20 ms serve began,
    // so the pending-wait span saw it (the histogram reads at most 1/64 low)...
    assert!(
        snap.pending_wait_p99_us >= 19_000,
        "pending wait p99 = {} us behind a 20 ms batch",
        snap.pending_wait_p99_us
    );
    // ...and any client can read the span through `OP_STATS` alone.
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let mut wire = Vec::new();
    encode_stats(&mut wire, 9_999);
    stream.write_all(&wire).expect("write stats request");
    let frame = read_frame(&mut stream).expect("stats reply");
    let wire_snap = match parse_reply(&frame).expect("conforming reply") {
        Reply::Stats(json) => serde_json::from_str(&json).expect("stats reply parses"),
        other => panic!("unexpected reply {other:?}"),
    };
    let wire_stat = |name: &str| match wire_snap.get(name) {
        Some(&serde::Value::Int(n)) => n as u64,
        other => panic!("`{name}` reads {other:?}"),
    };
    assert_eq!(
        (
            wire_stat("pending_wait_p50_us"),
            wire_stat("pending_wait_p99_us")
        ),
        (snap.pending_wait_p50_us, snap.pending_wait_p99_us)
    );
    assert_eq!(
        wire_stat("queries"),
        served,
        "engine-side counters ride along"
    );
    handle.shutdown();
}

#[test]
fn full_batches_never_wait_and_never_exceed_max_batch() {
    let index = index();
    let opts = QueryOptions::new(4, 3);
    let batch_rows = Arc::new(Mutex::new(Vec::new()));
    let engine = Arc::new(HeldEngine::new(Arc::clone(&index), {
        let batch_rows = Arc::clone(&batch_rows);
        move |rows| batch_rows.lock().unwrap().push(rows)
    }));
    let handle = spawn_on_ephemeral(engine, IngressConfig::new(opts));

    // Two full batches and half of a third: nothing waits for company, so all are
    // answered — oldest first, in batches of at most `MAX_BATCH`.
    let sent = 2 * MAX_BATCH + MAX_BATCH / 2;
    let qs = queries(sent);
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let mut wire = Vec::new();
    for (rid, q) in qs.iter().enumerate() {
        encode_query(&mut wire, rid as u32, q);
    }
    stream.write_all(&wire).expect("write pipeline");
    for (rid, q) in qs.iter().enumerate() {
        let frame = read_frame(&mut stream).expect("reply frame");
        assert_eq!(
            frame.request_id as usize, rid,
            "batches are cut oldest first"
        );
        match parse_reply(&frame).expect("conforming reply") {
            Reply::Query(result) => assert_eq!(result, index.search(q, opts.k, opts.probes)),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    let batch_rows = batch_rows.lock().unwrap().clone();
    assert_eq!(batch_rows.iter().sum::<usize>(), sent);
    assert!(
        batch_rows.len() >= 3 && batch_rows.iter().all(|&rows| rows <= MAX_BATCH),
        "a batch never exceeds MAX_BATCH: {batch_rows:?}"
    );
    let snap = handle.stats();
    assert_eq!(snap.accepted_frames, sent as u64);
    assert!(
        snap.queue_depth_hwm <= QUEUE_CAP as u64,
        "pending queue never exceeds its cap: hwm = {}",
        snap.queue_depth_hwm
    );

    let t0 = Instant::now();
    handle.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "shutdown took {:?}",
        t0.elapsed()
    );
}

#[test]
fn the_next_batch_forms_while_this_one_is_served() {
    let index = index();
    let opts = QueryOptions::new(4, 3);
    // Every `serve_batch` reports its row count and then waits for the test's release
    // (or for the release side to be dropped), so the interleaving below is forced.
    let (entered_tx, entered) = mpsc::channel::<usize>();
    let (release, release_rx) = mpsc::channel::<()>();
    let gate = Mutex::new((entered_tx, release_rx));
    let engine = Arc::new(HeldEngine::new(Arc::clone(&index), move |rows| {
        let (entered, release) = &*gate.lock().unwrap();
        entered.send(rows).expect("the test outlives the engine");
        let _ = release.recv();
    }));
    let handle = spawn_on_ephemeral(engine, IngressConfig::new(opts));

    let qs = queries(1 + MAX_BATCH + 3);
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let mut send = |rids: std::ops::Range<usize>| {
        let mut wire = Vec::new();
        for rid in rids {
            encode_query(&mut wire, rid as u32, &qs[rid]);
        }
        stream.write_all(&wire).expect("write");
    };

    // A lone query is served alone, with no second arrival to trigger it...
    send(0..1);
    assert_eq!(entered.recv_timeout(Duration::from_secs(10)), Ok(1));
    // ...and what arrives while it is being served becomes the next batches: one full,
    // one of the remaining three — never singles, never more than `MAX_BATCH`.
    send(1..qs.len());
    drop(release);
    assert_eq!(entered.recv_timeout(Duration::from_secs(10)), Ok(MAX_BATCH));
    assert_eq!(entered.recv_timeout(Duration::from_secs(10)), Ok(3));

    for (rid, q) in qs.iter().enumerate() {
        let frame = read_frame(&mut stream).expect("reply frame");
        assert_eq!(frame.request_id as usize, rid);
        match parse_reply(&frame).expect("conforming reply") {
            Reply::Query(result) => assert_eq!(result, index.search(q, opts.k, opts.probes)),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(
        entered.try_recv(),
        Err(mpsc::TryRecvError::Empty),
        "1 + MAX_BATCH + 3 queries, three batches"
    );
    handle.shutdown();
}

/// Panics under its first batch, then delegates to a real engine.
struct FirstBatchPanics {
    inner: QueryEngine<RoundRobinPartitioner>,
    tripped: AtomicBool,
}

impl BatchEngine for FirstBatchPanics {
    fn dims(&self) -> usize {
        DIMS
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
fn an_engine_panic_costs_one_batch_not_the_server() {
    let opts = QueryOptions::new(4, 3);
    let engine = Arc::new(FirstBatchPanics {
        inner: QueryEngine::new(index()),
        tripped: AtomicBool::new(false),
    });
    let handle = spawn_on_ephemeral(Arc::clone(&engine), IngressConfig::new(opts));

    let qs = queries(8);
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let mut send_batch = |first_rid: usize| {
        let mut wire = Vec::new();
        for (rid, q) in qs.iter().enumerate().skip(first_rid).take(4) {
            encode_query(&mut wire, rid as u32, q);
        }
        stream.write_all(&wire).expect("write batch");
        let mut replies = HashMap::new();
        for _ in 0..4 {
            let frame = read_frame(&mut stream).expect("the connection stays open");
            replies.insert(
                frame.request_id as usize,
                parse_reply(&frame).expect("conforming reply"),
            );
        }
        replies
    };

    // Every query of the batch the engine panicked under gets an error reply...
    let failed = send_batch(0);
    for rid in 0..4 {
        match &failed[&rid] {
            Reply::Error(reason) => {
                assert!(reason.contains("engine exploded under a batch"), "{reason}")
            }
            other => panic!("request {rid} of the failed batch got {other:?}"),
        }
    }
    // ...and nothing sticks: the same connection's next batch is served, bit for bit.
    let served = send_batch(4);
    for rid in 4..8 {
        match &served[&rid] {
            Reply::Query(result) => {
                assert_eq!(
                    result,
                    &engine.inner.query(&qs[rid], &opts),
                    "request {rid}"
                )
            }
            other => panic!("request {rid} after the panic got {other:?}"),
        }
    }
    // The loop thread survived the panic, so there is nothing to resurface.
    handle.shutdown();
}
