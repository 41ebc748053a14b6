//! Network ingress: a single-threaded readiness event loop that owns the batch.
//!
//! One thread owns a level-triggered epoll loop (via the vendored `mio` shim)
//! accepting TCP connections and speaking the length-prefixed protocol of
//! [`crate::protocol`]. Admitted queries wait in the loop's own `Pending`
//! (`batcher.rs`), and the loop is work-conserving: once a poll pass has admitted
//! what was readable it calls [`BatchEngine::serve_batch`] itself on whatever is
//! pending, up to [`MAX_BATCH`] (the pool fans the scan out, the caller is one of its
//! workers), and encodes the answers into the connections' write buffers. Nothing
//! waits for company beside an idle engine; the next batch is whatever arrived while
//! this one was served, so batches are one or two queries at light load and fill to
//! [`MAX_BATCH`] under overload. The served path is socket → loop → pool, with no
//! other thread, channel, tick or window in it.
//! Inserts, deletes and stats execute inline through the same trait, so any
//! [`crate::BatchEngine`] is servable unchanged.
//!
//! The load-management invariants, in order of importance:
//!
//! * **Bounded pending queue.** At most [`QUEUE_CAP`] queries wait between
//!   admission and their batch. A query arriving past the cap is answered
//!   immediately with a `SHED` frame carrying the [`RETRY_AFTER_MS`] hint — the
//!   overload signal is explicit and cheap, never unbounded buffering.
//! * **A slow reader never blocks the loop.** Replies go into a per-connection
//!   write buffer flushed opportunistically; when a kernel buffer fills, the
//!   connection is registered for writability and the loop moves on. Once a
//!   connection's buffered replies exceed `MAX_CONN_BUFFER`, its *reads* are
//!   paused (readable interest dropped) until the backlog halves — per-client
//!   backpressure instead of server-side memory growth.
//! * **Per-connection fairness.** Buffered frames drain round-robin, one frame
//!   per connection per round, with a rotating starting position — a client
//!   pipelining thousands of requests cannot starve its neighbours.
//! * **One bad client costs only itself.** Frame-level garbage gets a
//!   `MALFORMED` reply on a healthy connection; unrecoverable framing garbage
//!   closes that connection (after flushing the reply); a wrong-length row is
//!   refused by the parser before it can reach a batch; and an engine panic is
//!   caught per batch by the batch step shared with the `MicroBatcher` — the
//!   queries of that one batch get error *replies*, the connections stay open and
//!   the next batch is served normally.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mio::{Events, Interest, Poll, Token};

use crate::batcher::{serve_taken, Pending};
use crate::engine::{BatchEngine, QueryOptions};
use crate::protocol::{
    encode_delete_reply, encode_error, encode_insert_reply, encode_malformed, encode_query_reply,
    encode_shed, encode_stats_reply, parse_request, FrameDecoder, Request,
};
use crate::stats::{ServeStats, StatsSnapshot};

/// Micro-batch size bound: the loop serves whatever is pending as soon as it is idle,
/// at most this many queries to one engine call.
pub const MAX_BATCH: usize = 32;
/// Pending-queue capacity: queries arriving while this many wait for their batch are
/// answered with `SHED`.
pub const QUEUE_CAP: usize = 8 * MAX_BATCH;
/// Retry-after hint carried in `SHED` replies, milliseconds.
pub const RETRY_AFTER_MS: u32 = 10;

/// The listener's token; connections use 1.. from a monotone counter.
const LISTENER: Token = Token(0);
/// Per-`read` chunk size. Level-triggered readiness re-reports leftovers, so the
/// value only trades syscalls against per-tick latency.
const READ_CHUNK: usize = 64 * 1024;
/// Per-connection buffered-reply bound past which the connection's reads are paused
/// until the backlog drains below half.
const MAX_CONN_BUFFER: usize = 1 << 20;
/// What the loop sleeps in `poll` while nothing is pending (bounds shutdown
/// latency); with queries pending it does not sleep at all.
const POLL_IDLE: Duration = Duration::from_millis(20);

/// Configuration for [`IngressHandle::spawn`]. The batch bound, the queue cap and
/// the retry hint are the constants [`MAX_BATCH`], [`QUEUE_CAP`] and
/// [`RETRY_AFTER_MS`].
#[derive(Debug, Clone)]
pub struct IngressConfig {
    /// Serving knobs applied to every query admitted through this ingress.
    pub opts: QueryOptions,
}

impl IngressConfig {
    /// Serves every admitted query under `opts`.
    pub fn new(opts: QueryOptions) -> Self {
        Self { opts }
    }
}

/// A running ingress loop. Dropping the handle shuts the loop down and joins it;
/// [`shutdown`](Self::shutdown) does the same but propagates a loop panic.
pub struct IngressHandle {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ServeStats>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl IngressHandle {
    /// Starts the ingress loop on `listener` (which may be bound to port 0 — use
    /// [`local_addr`](Self::local_addr) to discover the ephemeral port), serving
    /// `engine` under `config`.
    pub fn spawn<E: BatchEngine + 'static>(
        engine: Arc<E>,
        listener: std::net::TcpListener,
        config: IngressConfig,
    ) -> io::Result<IngressHandle> {
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        // Create and register the poller on the caller's thread so setup errors
        // surface from `spawn` instead of killing the loop thread asynchronously.
        let poll = Poll::new()?;
        poll.register(&listener, LISTENER, Interest::READABLE)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServeStats::new(0));
        let thread = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("usp-serve-ingress".into())
                .spawn(move || {
                    Loop::new(engine, listener, poll, config.opts, stop, stats).run();
                })
                .expect("ingress: failed to spawn event-loop thread")
        };
        Ok(IngressHandle {
            local_addr,
            stop,
            stats,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Ingress-side counters: accepted/shed/malformed frames, the pending-queue
    /// high-water mark and the pending-wait percentiles (the serving fields are all
    /// zero — engine counters live on the engine; `OP_STATS` replies merge both sides).
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Stops the loop and joins it, resurfacing a loop panic (which `Drop`
    /// would swallow to avoid a double panic).
    pub fn shutdown(mut self) {
        // ordering: Release pairs with the loop's Acquire load; anything the
        // caller wrote before shutdown is visible to the loop's final ticks.
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            if let Err(payload) = thread.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

impl Drop for IngressHandle {
    fn drop(&mut self) {
        // ordering: Release — same edge as shutdown(); see there.
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            // Swallow a loop panic here: Drop may already be running during an
            // unwind, where re-raising would abort. `shutdown()` propagates it.
            let _ = thread.join();
        }
    }
}

/// Per-connection state.
struct Conn {
    stream: std::net::TcpStream,
    decoder: FrameDecoder,
    /// Buffered replies not yet accepted by the kernel; `out[out_pos..]` is live.
    out: Vec<u8>,
    out_pos: usize,
    /// The interest currently registered with the poller (`None` = deregistered).
    registered: Option<(bool, bool)>,
    /// Peer closed its write side (or the stream failed): stop reading, keep
    /// flushing replies already owed.
    read_eof: bool,
    /// Unrecoverable framing error: close as soon as the malformed reply drains.
    closing: bool,
    /// Reads paused because `buffered_out()` exceeded `MAX_CONN_BUFFER`.
    paused: bool,
}

impl Conn {
    fn buffered_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    fn queue_reply(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        // Compact the consumed prefix before growing the buffer further.
        if self.out_pos > 4096 && self.out_pos * 2 > self.out.len() {
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        encode(&mut self.out);
    }

    /// Writes as much buffered output as the kernel accepts. Returns `false` when
    /// the connection died mid-write.
    fn flush(&mut self) -> bool {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        true
    }
}

struct Loop<E: BatchEngine + 'static> {
    engine: Arc<E>,
    listener: std::net::TcpListener,
    poll: Poll,
    /// Serving knobs applied to every admitted query.
    opts: QueryOptions,
    stop: Arc<AtomicBool>,
    stats: Arc<ServeStats>,
    /// Admitted queries awaiting their batch, tagged `(connection token, request id)`.
    pending: Pending<(usize, u32)>,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    /// Round-robin cursor: the token the next drain pass starts at.
    rr_next: usize,
    /// Scratch for `read`, allocated once (the loop thread also serves batches, so
    /// per-event overhead is scan time).
    read_buf: Vec<u8>,
    /// Scratch for `drain_frames`' token order, kept for the same reason: the loop
    /// turns once per small batch, thousands of times a second at light load.
    drain_order: Vec<usize>,
}

impl<E: BatchEngine + 'static> Loop<E> {
    fn new(
        engine: Arc<E>,
        listener: std::net::TcpListener,
        poll: Poll,
        opts: QueryOptions,
        stop: Arc<AtomicBool>,
        stats: Arc<ServeStats>,
    ) -> Self {
        let pending = Pending::new(engine.dims(), MAX_BATCH);
        engine.warm_up();
        Self {
            engine,
            listener,
            poll,
            opts,
            stop,
            stats,
            pending,
            conns: HashMap::new(),
            next_token: LISTENER.0 + 1,
            rr_next: LISTENER.0 + 1,
            read_buf: vec![0; READ_CHUNK],
            drain_order: Vec::new(),
        }
    }

    fn run(mut self) {
        let mut events = Events::with_capacity(256);
        // ordering: Acquire pairs with the Release store in shutdown()/Drop —
        // the loop observes everything written before the stop request.
        while !self.stop.load(Ordering::Acquire) {
            // Work-conserving: with queries pending (the overflow of the batch just
            // served) only pick up what is already readable; sleep only when idle.
            let timeout = if self.pending.len() > 0 {
                Duration::ZERO
            } else {
                POLL_IDLE
            };
            if self.poll.poll(&mut events, Some(timeout)).is_err() {
                // A failed wait (beyond EINTR, which the shim swallows) means the
                // poller fd itself is gone; nothing to serve without it.
                return;
            }
            let mut accept = false;
            for event in events.iter() {
                if event.token() == LISTENER {
                    accept = true;
                } else if event.is_readable() || event.is_writable() {
                    // Level-triggered: reads and writes both run to WouldBlock
                    // every tick a connection is touched, so the two flags need
                    // no separate handling here.
                    self.service_conn(event.token().0);
                }
            }
            if accept {
                self.accept_new();
            }
            self.drain_frames();
            if self.pending.len() > 0 {
                self.serve_pending_batch();
            }
            self.sync_all_interests();
        }
    }

    fn accept_new(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poll
                        .register(&stream, Token(token), Interest::READABLE)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            decoder: FrameDecoder::new(),
                            out: Vec::new(),
                            out_pos: 0,
                            registered: Some((true, false)),
                            read_eof: false,
                            closing: false,
                            paused: false,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient per-connection accept failures (ECONNABORTED etc.):
                // skip the connection, keep the listener.
                Err(_) => return,
            }
        }
    }

    /// Reads newly-arrived bytes (unless paused) and flushes buffered replies
    /// for one connection.
    fn service_conn(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // closed earlier this tick; stale event
        };
        if !conn.read_eof && !conn.paused && !conn.closing {
            let chunk = &mut self.read_buf[..];
            loop {
                match conn.stream.read(chunk) {
                    Ok(0) => {
                        conn.read_eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.decoder.push(&chunk[..n]);
                        // Bound per-tick intake: past a full frame of buffered
                        // bytes, let the drain pass catch up before reading more
                        // (level-triggered readiness re-reports the rest).
                        if conn.decoder.buffered() > crate::protocol::MAX_FRAME_LEN as usize {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.read_eof = true;
                        break;
                    }
                }
            }
        }
        if !conn.flush() {
            conn.read_eof = true;
            conn.out.clear();
            conn.out_pos = 0;
        }
    }

    /// Drains decoded frames round-robin: one frame per connection per round,
    /// starting each pass at a rotating token, until a full round yields nothing.
    fn drain_frames(&mut self) {
        if self.conns.is_empty() {
            return;
        }
        let mut tokens = std::mem::take(&mut self.drain_order);
        tokens.clear();
        tokens.extend(self.conns.keys().copied());
        tokens.sort_unstable();
        let start = tokens.iter().position(|&t| t >= self.rr_next).unwrap_or(0);
        tokens.rotate_left(start);
        self.rr_next = tokens[0].wrapping_add(1);
        loop {
            let mut any = false;
            for &token in &tokens {
                if self.take_one_frame(token) {
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        self.drain_order = tokens;
    }

    /// Decodes and dispatches at most one frame from `token`. Returns whether a
    /// frame was consumed.
    fn take_one_frame(&mut self, token: usize) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let frame = match conn.decoder.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => return false,
            Err(fatal) => {
                // The stream cannot be resynchronised: answer once (request id 0,
                // the reserved "framing itself" id) and close after the flush.
                if !conn.closing {
                    let reason = fatal.to_string();
                    conn.queue_reply(|out| encode_malformed(out, 0, &reason));
                    conn.closing = true;
                    self.stats.record_frames(0, 0, 1);
                }
                return false;
            }
        };
        match parse_request(&frame, self.engine.dims()) {
            Err(malformed) => {
                conn.queue_reply(|out| {
                    encode_malformed(out, malformed.request_id, &malformed.reason)
                });
                self.stats.record_frames(0, 0, 1);
            }
            Ok(Request::Query { request_id, row }) => {
                if self.pending.len() >= QUEUE_CAP {
                    conn.queue_reply(|out| encode_shed(out, request_id, RETRY_AFTER_MS));
                    self.stats.record_frames(0, 1, 0);
                } else {
                    // `parse_request` checked the row against `dims`.
                    self.pending.push(&row, (token, request_id));
                    self.stats.record_frames(1, 0, 0);
                    self.stats.record_queue_depth(self.pending.len() as u64);
                }
            }
            Ok(Request::Insert { request_id, row }) => {
                self.stats.record_frames(1, 0, 0);
                // The ack carries durability: `Ok` means the engine applied the
                // insert *after* its WAL append (when a log is attached)
                // succeeded. Any refusal — wrong dims, unsupported engine, a
                // failed append — is an explicit error reply, never a silent ack,
                // and the engine state was not mutated.
                match self.engine.insert(&row) {
                    Ok(id) => {
                        conn.queue_reply(|out| encode_insert_reply(out, request_id, id as u64));
                    }
                    Err(e) => {
                        let reason = e.to_string();
                        conn.queue_reply(|out| encode_error(out, request_id, &reason));
                    }
                }
            }
            Ok(Request::Delete { request_id, id }) => {
                self.stats.record_frames(1, 0, 0);
                match self.engine.delete(id as usize) {
                    // Routine refusals keep the boolean wire contract: "this call
                    // did not delete" — the client can tell the id was bad, and
                    // older clients keep parsing replies unchanged.
                    Ok(()) => conn.queue_reply(|out| encode_delete_reply(out, request_id, true)),
                    Err(
                        usp_index::MutationError::UnknownId { .. }
                        | usp_index::MutationError::AlreadyDeleted { .. },
                    ) => {
                        conn.queue_reply(|out| encode_delete_reply(out, request_id, false));
                    }
                    // A WAL failure (or unsupported engine) must never masquerade
                    // as "id not found": the delete may be retried after recovery.
                    Err(e) => {
                        let reason = e.to_string();
                        conn.queue_reply(|out| encode_error(out, request_id, &reason));
                    }
                }
            }
            Ok(Request::Stats { request_id }) => {
                self.stats.record_frames(1, 0, 0);
                // Serving counters from the engine, frame counters from here.
                let mut snap = self.engine.stats();
                snap.overlay_ingress(&self.stats.snapshot());
                let json = stats_json(&snap);
                conn.queue_reply(|out| encode_stats_reply(out, request_id, json.as_bytes()));
            }
        }
        true
    }

    /// Serves the oldest `≤ MAX_BATCH` pending queries as one engine call on this
    /// thread and queues their replies; a query the batch step failed (the engine
    /// panicked under its batch) gets an error reply and the loop keeps serving.
    fn serve_pending_batch(&mut self) {
        let (queries, tags) = self.pending.take();
        let taken = Instant::now();
        self.stats.record_pending_waits(
            tags.iter()
                .map(|(_, admitted)| taken.duration_since(*admitted).as_micros() as u64),
        );
        let answers = serve_taken(&*self.engine, &self.opts, (queries, tags));
        for ((token, request_id), answer) in answers {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue; // the connection is gone; the answer has no reader
            };
            match answer {
                Ok(result) => conn.queue_reply(|out| encode_query_reply(out, request_id, &result)),
                Err(failure) => conn.queue_reply(|out| encode_error(out, request_id, &failure)),
            }
        }
    }

    /// Flushes, applies pause/resume backpressure, fixes poller registrations,
    /// and reaps finished connections.
    fn sync_all_interests(&mut self) {
        let mut dead = Vec::new();
        for (&token, conn) in &mut self.conns {
            if !conn.flush() {
                conn.read_eof = true;
                conn.out.clear();
                conn.out_pos = 0;
            }
            let buffered = conn.buffered_out();
            if conn.paused {
                conn.paused = buffered > MAX_CONN_BUFFER / 2;
            } else {
                conn.paused = buffered > MAX_CONN_BUFFER;
            }
            let done_writing = buffered == 0;
            if done_writing && (conn.closing || conn.read_eof) {
                // A `read_eof` connection may still be owed answers to queries
                // waiting for their batch; only reap when nothing is owed.
                let owes = !conn.closing && self.pending.tags().any(|&(t, _)| t == token);
                if !owes {
                    dead.push(token);
                    continue;
                }
            }
            let want_read = !conn.read_eof && !conn.closing && !conn.paused;
            let want_write = !done_writing;
            let want = if want_read || want_write {
                Some((want_read, want_write))
            } else {
                // Nothing to wait for (e.g. EOF peer owed a pending answer):
                // deregister so a level-triggered EOF can't spin the loop.
                None
            };
            if want != conn.registered {
                let ok = match want {
                    Some((r, w)) => {
                        let interest = match (r, w) {
                            (true, true) => Interest::READABLE.add(Interest::WRITABLE),
                            (true, false) => Interest::READABLE,
                            _ => Interest::WRITABLE,
                        };
                        if conn.registered.is_some() {
                            self.poll.reregister(&conn.stream, Token(token), interest)
                        } else {
                            self.poll.register(&conn.stream, Token(token), interest)
                        }
                    }
                    None => self.poll.deregister(&conn.stream),
                };
                if ok.is_ok() {
                    conn.registered = want;
                } else {
                    dead.push(token);
                }
            }
        }
        for token in dead {
            if let Some(conn) = self.conns.remove(&token) {
                if conn.registered.is_some() {
                    let _ = self.poll.deregister(&conn.stream);
                }
            }
        }
    }
}

/// The JSON body of an `OP_STATS` reply.
fn stats_json(snap: &StatsSnapshot) -> String {
    serde_json::to_string(&snap.to_value()).expect("writing a Value cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryEngine;
    use crate::protocol::{
        self, encode_delete, encode_insert, encode_query, encode_stats, parse_reply, read_frame,
        Reply,
    };
    use std::net::{TcpListener, TcpStream};
    use usp_index::partitioner::RoundRobinPartitioner;
    use usp_index::{PartitionIndex, WalStats};
    use usp_linalg::{Distance, Matrix};

    fn engine() -> Arc<QueryEngine<RoundRobinPartitioner>> {
        let n = 80;
        let data: Vec<f32> = (0..n * 3)
            .map(|i| ((i * 41 % 89) as f32) / 8.0 - 5.0)
            .collect();
        let data = Matrix::from_vec(n, 3, data);
        Arc::new(QueryEngine::new(Arc::new(PartitionIndex::build(
            RoundRobinPartitioner::new(8),
            &data,
            Distance::SquaredEuclidean,
        ))))
    }

    /// One counter of a parsed `OP_STATS` reply.
    fn stat(snap: &serde::Value, name: &str) -> i64 {
        match snap.get(name) {
            Some(serde::Value::Int(n)) => *n,
            other => panic!("`{name}` reads {other:?}"),
        }
    }

    fn spawn_ingress<E: BatchEngine + 'static>(
        engine: Arc<E>,
        config: IngressConfig,
    ) -> IngressHandle {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        IngressHandle::spawn(engine, listener, config).unwrap()
    }

    fn expect_reply(stream: &mut TcpStream, request_id: u32) -> Reply {
        let frame = read_frame(stream).expect("a reply frame");
        assert_eq!(frame.request_id, request_id);
        parse_reply(&frame).expect("a conforming reply")
    }

    #[test]
    fn queries_over_the_wire_match_direct_answers() {
        let engine = engine();
        let opts = QueryOptions::new(4, 3);
        let handle = spawn_ingress(Arc::clone(&engine), IngressConfig::new(opts));
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        for (rid, q) in [
            vec![0.5f32, -1.0, 2.0],
            vec![3.0, 3.0, 3.0],
            vec![-4.5, 0.25, 1.0],
        ]
        .into_iter()
        .enumerate()
        {
            let mut wire = Vec::new();
            encode_query(&mut wire, rid as u32, &q);
            stream.write_all(&wire).unwrap();
            match expect_reply(&mut stream, rid as u32) {
                Reply::Query(result) => {
                    assert_eq!(result, engine.query(&q, &opts), "request {rid}")
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        let snap = handle.stats();
        assert_eq!(snap.accepted_frames, 3);
        assert_eq!(snap.shed_frames, 0);
        assert_eq!(snap.malformed_frames, 0);
        assert!(snap.queue_depth_hwm >= 1);
        handle.shutdown();
    }

    #[test]
    fn pipelined_requests_are_answered_by_request_id() {
        let engine = engine();
        let opts = QueryOptions::new(3, 2);
        let handle = spawn_ingress(Arc::clone(&engine), IngressConfig::new(opts));
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        // Write a whole pipeline before reading anything.
        let queries: Vec<Vec<f32>> = (0..12)
            .map(|i| vec![i as f32 * 0.4 - 2.0, (i % 3) as f32, 1.0])
            .collect();
        let mut wire = Vec::new();
        for (rid, q) in queries.iter().enumerate() {
            encode_query(&mut wire, 100 + rid as u32, q);
        }
        stream.write_all(&wire).unwrap();
        let mut answers = HashMap::new();
        for _ in 0..queries.len() {
            let frame = read_frame(&mut stream).unwrap();
            match parse_reply(&frame).unwrap() {
                Reply::Query(result) => {
                    assert!(answers.insert(frame.request_id, result).is_none())
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        for (rid, q) in queries.iter().enumerate() {
            assert_eq!(
                answers[&(100 + rid as u32)],
                engine.query(q, &opts),
                "pipelined request {rid}"
            );
        }
        handle.shutdown();
    }

    #[test]
    fn mutations_and_stats_flow_through_the_wire() {
        let engine = engine();
        let handle = spawn_ingress(
            Arc::clone(&engine),
            IngressConfig::new(QueryOptions::new(2, 2)),
        );
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();

        let mut wire = Vec::new();
        encode_insert(&mut wire, 1, &[9.0, 9.0, 9.0]);
        stream.write_all(&wire).unwrap();
        let inserted_id = match expect_reply(&mut stream, 1) {
            Reply::Insert(id) => id,
            other => panic!("unexpected reply {other:?}"),
        };
        assert_eq!(inserted_id, 80);

        let mut wire = Vec::new();
        encode_delete(&mut wire, 2, inserted_id);
        stream.write_all(&wire).unwrap();
        assert_eq!(expect_reply(&mut stream, 2), Reply::Delete(true));
        let mut wire = Vec::new();
        encode_delete(&mut wire, 3, inserted_id);
        stream.write_all(&wire).unwrap();
        assert_eq!(expect_reply(&mut stream, 3), Reply::Delete(false));

        let mut wire = Vec::new();
        encode_stats(&mut wire, 4);
        stream.write_all(&wire).unwrap();
        let json = match expect_reply(&mut stream, 4) {
            Reply::Stats(json) => json,
            other => panic!("unexpected reply {other:?}"),
        };
        let snap = serde_json::from_str(&json).expect("stats reply parses");
        assert_eq!((stat(&snap, "inserts"), stat(&snap, "deletes")), (1, 1));
        // The stats frame itself is the 4th accepted frame.
        assert_eq!(stat(&snap, "accepted_frames"), 4);
        handle.shutdown();
    }

    #[test]
    fn wal_failures_become_error_replies_never_silent_acks() {
        let n = 20;
        let data: Vec<f32> = (0..n * 3).map(|i| (i % 7) as f32).collect();
        let data = Matrix::from_vec(n, 3, data);
        let storage = usp_index::MemStorage::new();
        let index = PartitionIndex::build(
            RoundRobinPartitioner::new(4),
            &data,
            Distance::SquaredEuclidean,
        )
        .with_wal(usp_index::Wal::new(
            Box::new(storage.clone()),
            usp_index::SyncPolicy::EveryN(1),
        ));
        let engine = Arc::new(QueryEngine::new(Arc::new(index)));
        let handle = spawn_ingress(
            Arc::clone(&engine),
            IngressConfig::new(QueryOptions::new(2, 2)),
        );
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();

        // A durable insert acks normally: the record is on storage by reply time.
        let mut wire = Vec::new();
        encode_insert(&mut wire, 1, &[1.0, 2.0, 3.0]);
        stream.write_all(&wire).unwrap();
        assert_eq!(expect_reply(&mut stream, 1), Reply::Insert(20));

        // Break the device's sync: the append cannot be made durable, so the
        // reply must be an explicit error — never a silent ack.
        storage.set_plan(usp_index::FaultPlan {
            fail_syncs: 1,
            ..usp_index::FaultPlan::default()
        });
        let mut wire = Vec::new();
        encode_insert(&mut wire, 2, &[4.0, 5.0, 6.0]);
        stream.write_all(&wire).unwrap();
        match expect_reply(&mut stream, 2) {
            Reply::Error(reason) => {
                assert!(reason.contains("wal append failed"), "{reason}")
            }
            other => panic!("a failed append must not ack: {other:?}"),
        }

        // Unknown-id deletes keep the boolean wire contract even while the log
        // is poisoned: liveness is checked before the append, so the refusal is
        // `Delete(false)`, not a WAL error.
        let mut wire = Vec::new();
        encode_delete(&mut wire, 3, 999);
        stream.write_all(&wire).unwrap();
        assert_eq!(expect_reply(&mut stream, 3), Reply::Delete(false));

        // A dims-mismatched insert is refused at the protocol boundary, like
        // every other path refuses it before mutating anything.
        let mut wire = Vec::new();
        encode_insert(&mut wire, 4, &[1.0, 2.0]);
        stream.write_all(&wire).unwrap();
        assert!(matches!(expect_reply(&mut stream, 4), Reply::Malformed(_)));

        // The refused insert never mutated the engine, and the WAL counters
        // surface the failure through the stats opcode.
        let mut wire = Vec::new();
        encode_stats(&mut wire, 5);
        stream.write_all(&wire).unwrap();
        let json = match expect_reply(&mut stream, 5) {
            Reply::Stats(json) => json,
            other => panic!("unexpected reply {other:?}"),
        };
        let snap = serde_json::from_str(&json).expect("stats reply parses");
        assert_eq!(
            stat(&snap, "inserts"),
            1,
            "the refused insert must not count"
        );
        assert_eq!(
            stat(&snap, "wal_appends"),
            1,
            "the refused insert is no append"
        );
        assert_eq!(stat(&snap, "wal_sync_errors"), 1);
        assert_eq!(stat(&snap, "malformed_frames"), 1);
        handle.shutdown();
    }

    #[test]
    fn garbage_opcode_gets_a_malformed_reply_and_the_connection_survives() {
        let engine = engine();
        let opts = QueryOptions::new(2, 2);
        let handle = spawn_ingress(Arc::clone(&engine), IngressConfig::new(opts));
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut wire = Vec::new();
        protocol::encode_frame(&mut wire, 7, 0x4242, b"junk");
        encode_query(&mut wire, 8, &[1.0, 1.0, 1.0]);
        stream.write_all(&wire).unwrap();
        assert!(matches!(expect_reply(&mut stream, 7), Reply::Malformed(_)));
        match expect_reply(&mut stream, 8) {
            Reply::Query(result) => assert_eq!(result, engine.query(&[1.0, 1.0, 1.0], &opts)),
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(handle.stats().malformed_frames, 1);
        handle.shutdown();
    }

    #[test]
    fn framing_garbage_closes_the_connection_after_one_reply() {
        let engine = engine();
        let handle = spawn_ingress(engine, IngressConfig::new(QueryOptions::new(2, 2)));
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        // frame_len = 3: a runt no resynchronisation can recover from.
        stream.write_all(&3u32.to_le_bytes()).unwrap();
        stream.write_all(&[0, 0, 0]).unwrap();
        let frame = read_frame(&mut stream).unwrap();
        assert_eq!(frame.request_id, 0);
        assert!(matches!(parse_reply(&frame).unwrap(), Reply::Malformed(_)));
        // The server closes: the next read observes EOF.
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        handle.shutdown();
    }

    /// A real engine that takes 50 ms per batch: overload the way production meets it.
    struct SleepsPerBatch(Arc<QueryEngine<RoundRobinPartitioner>>);

    impl BatchEngine for SleepsPerBatch {
        fn dims(&self) -> usize {
            self.0.dims()
        }

        fn serve_batch(
            &self,
            queries: &Matrix,
            opts: &QueryOptions,
        ) -> Vec<usp_index::SearchResult> {
            std::thread::sleep(Duration::from_millis(50));
            self.0.serve_batch(queries, opts)
        }
    }

    #[test]
    fn overload_is_shed_with_a_retry_hint_and_a_bounded_queue() {
        let engine = engine();
        let opts = QueryOptions::new(2, 2);
        let handle = spawn_ingress(
            Arc::new(SleepsPerBatch(Arc::clone(&engine))),
            IngressConfig::new(opts),
        );
        // A pipeline past what one batch and a full queue hold, in front of a slow
        // engine, guarantees the cap is hit.
        let sent = 2 * (MAX_BATCH + QUEUE_CAP) as u32;
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut wire = Vec::new();
        for rid in 0..sent {
            encode_query(&mut wire, rid, &[0.5, 0.5, 0.5]);
        }
        stream.write_all(&wire).unwrap();
        let expect = engine.query(&[0.5, 0.5, 0.5], &opts);
        let (mut served, mut shed) = (0, 0);
        for _ in 0..sent {
            let frame = read_frame(&mut stream).unwrap();
            match parse_reply(&frame).unwrap() {
                Reply::Query(result) => {
                    assert_eq!(result, expect);
                    served += 1;
                }
                Reply::Shed { retry_after_ms } => {
                    assert_eq!(retry_after_ms, RETRY_AFTER_MS);
                    shed += 1;
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert!(
            served >= QUEUE_CAP as u64,
            "at least the queue capacity must be served"
        );
        assert!(
            shed > 0,
            "{sent} pipelined queries against the cap must shed"
        );
        let snap = handle.stats();
        assert_eq!(snap.accepted_frames, served);
        assert_eq!(snap.shed_frames, shed);
        assert!(
            snap.queue_depth_hwm <= QUEUE_CAP as u64,
            "queue depth {} exceeded its cap",
            snap.queue_depth_hwm
        );
        handle.shutdown();
    }

    #[test]
    fn an_abruptly_dropped_client_does_not_disturb_others() {
        let engine = engine();
        let opts = QueryOptions::new(3, 2);
        let handle = spawn_ingress(Arc::clone(&engine), IngressConfig::new(opts));
        // Client A submits and vanishes without reading.
        {
            let mut doomed = TcpStream::connect(handle.local_addr()).unwrap();
            let mut wire = Vec::new();
            encode_query(&mut wire, 1, &[1.0, 2.0, 3.0]);
            doomed.write_all(&wire).unwrap();
        }
        // Client B is served normally afterwards.
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut wire = Vec::new();
        encode_query(&mut wire, 2, &[0.0, 1.0, -1.0]);
        stream.write_all(&wire).unwrap();
        match expect_reply(&mut stream, 2) {
            Reply::Query(result) => assert_eq!(result, engine.query(&[0.0, 1.0, -1.0], &opts)),
            other => panic!("unexpected reply {other:?}"),
        }
        handle.shutdown();
    }

    /// The `OP_STATS` body, byte for byte: every field non-zero, five bins, a `u64`
    /// above `i64::MAX` and a float printed with an exponent.
    #[test]
    fn stats_reply_json_is_byte_stable() {
        let snap = StatsSnapshot {
            queries: 1_234,
            batches: 56,
            mean_batch_size: 22.035714285714285,
            qps: 1.5e20,
            mean_candidates: 317.25,
            mean_compressed_candidates: 3942.0,
            survivor_ratio: 0.05,
            mean_latency_us: 88.125,
            p50_latency_us: 71,
            p99_latency_us: 403,
            inserts: 7,
            deletes: 3,
            bin_probes: vec![9, 0x7fff_ffff_ffff_ffff, 1, 40, 2],
            accepted_frames: 1_300,
            shed_frames: 11,
            malformed_frames: 2,
            queue_depth_hwm: 64,
            pending_wait_p50_us: 150,
            pending_wait_p99_us: 2_100,
            wal: WalStats {
                appends: 10,
                bytes: u64::MAX - 6,
                sync_errors: 1,
                replayed_records: 4,
                torn_tail_bytes: 17,
                epoch: 5,
            },
        };
        let expected = concat!(
            r#"{"queries":1234,"batches":56,"mean_batch_size":22.035714285714285,"qps":1.5e20,"#,
            r#""mean_candidates":317.25,"mean_compressed_candidates":3942.0,"survivor_ratio":0.05,"#,
            r#""mean_latency_us":88.125,"p50_latency_us":71,"p99_latency_us":403,"inserts":7,"#,
            r#""deletes":3,"bin_probes":[9,9223372036854775807,1,40,2],"accepted_frames":1300,"#,
            r#""shed_frames":11,"malformed_frames":2,"queue_depth_hwm":64,"#,
            r#""pending_wait_p50_us":150,"pending_wait_p99_us":2100,"wal_appends":10,"#,
            r#""wal_bytes":18446744073709551609,"wal_sync_errors":1,"wal_replayed_records":4,"#,
            r#""wal_torn_tail_bytes":17,"wal_epoch":5}"#,
        );
        assert_eq!(stats_json(&snap), expected);
    }
}
