//! The load generator: one thread, [`CONNS`] nonblocking loopback connections, open-loop
//! and closed-loop pacing, every reply checked as it arrives.
//!
//! Each pass issues what is due, writes, reads, and then sleeps 50 us (never longer): the
//! server shares the host's two cores with this thread, so a client that spins would take
//! one of them.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use usp_index::SearchResult;
use usp_linalg::Matrix;
use usp_serve::protocol::{
    encode_delete, encode_insert, encode_query, parse_reply, FrameDecoder, Reply,
};

use crate::spec::CONNS;
use crate::stats::{due_count, due_time_ns};
use crate::trace::{now_ns, Tracer};

/// One request of a workload: a query row, a row of the insert pool, or a base id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Query(u32),
    Insert(u32),
    Delete(u32),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// No reply arrived before the drain grace ran out.
    Unanswered,
    Ok,
    /// The server answered `SHED`: its pending queue was full.
    Shed,
    /// An error or malformed reply, a refused delete, an out-of-range id, a wrong
    /// insert id, or a reply of the wrong kind.
    Failed,
}

#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub op: Op,
    /// When the request was due (open loop) or issued (closed loop), ns since the
    /// process epoch ([`now_ns`]). Latency is `done_ns - due_ns`.
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub outcome: Outcome,
    /// Returned ids that are true neighbours (queries, when a ground truth is given).
    pub hits: u8,
}

impl Record {
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }
    pub fn is_query(&self) -> bool {
        matches!(self.op, Op::Query(_))
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// `total` requests, request `i` due `i / rate_qps` seconds after the start.
    Open { rate_qps: f64, total: u64 },
    /// Up to `window` requests outstanding per connection, issuing for `duration`.
    ClosedFor { window: usize, duration: Duration },
    /// Up to `window` requests outstanding per connection, exactly `ops` requests.
    ClosedOps { window: usize, ops: u64 },
}

/// What replies are checked against.
pub struct Check<'a> {
    pub queries: &'a Matrix,
    pub insert_pool: &'a Matrix,
    /// Exact neighbours per query row; `None` while the index is being written to.
    pub truth: Option<&'a [Vec<usize>]>,
    /// Every returned id must be below this.
    pub id_limit: usize,
    /// Insert `j` of the pool must be acked with id `insert_id_base + j`.
    pub insert_id_base: usize,
    /// First answer seen for query rows `0..sample.len()`, kept for the bit-identity
    /// comparison with a direct `serve_batch`.
    pub sample: &'a mut [Option<SearchResult>],
}

/// Everything one `run` observed.
pub struct RunLog {
    pub records: Vec<Record>,
    pub start_ns: u64,
    /// When the last request was issued.
    pub send_end_ns: u64,
    /// When the last reply arrived (or the drain grace ran out).
    pub end_ns: u64,
    /// Requests without a reply at `send_end_ns`.
    pub outstanding_at_send_end: u64,
    /// Human-readable reasons for the first few failed requests.
    pub failures: Vec<String>,
}

impl RunLog {
    pub fn count(&self, f: impl Fn(&Record) -> bool) -> u64 {
        self.records.iter().filter(|r| f(r)).count() as u64
    }
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    out_pos: usize,
    outstanding: usize,
}

pub struct WireClient {
    conns: Vec<Conn>,
    /// Request ids are never reused across runs, so a straggler from an earlier run
    /// cannot be mistaken for an answer of this one. Id 0 is the protocol's own.
    next_id: u32,
}

/// How long a run waits for outstanding replies after its last request.
const DRAIN_GRACE: Duration = Duration::from_secs(3);
const PASS_SLEEP: Duration = Duration::from_micros(50);

impl WireClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<WireClient> {
        let mut conns = Vec::with_capacity(CONNS);
        for _ in 0..CONNS {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            conns.push(Conn {
                stream,
                decoder: FrameDecoder::new(),
                out: Vec::new(),
                out_pos: 0,
                outstanding: 0,
            });
        }
        Ok(WireClient { conns, next_id: 1 })
    }

    /// Drives `ops(i)` for `i = 0, 1, ..` under `pace` and returns once every request is
    /// answered (or the drain grace ran out). Writes always use connection 0, so the
    /// server applies them in op order and insert ids are a function of the op index.
    pub fn run(
        &mut self,
        pace: Pace,
        ops: &dyn Fn(u64) -> Op,
        check: &mut Check<'_>,
        mut tracer: Option<&mut Tracer>,
    ) -> RunLog {
        let id_base = self.next_id;
        let start_ns = now_ns();
        let mut records: Vec<Record> = Vec::new();
        let mut failures: Vec<String> = Vec::new();
        let mut sending = true;
        let mut send_end_ns = start_ns;
        let mut outstanding_at_send_end = 0u64;
        let mut answered = 0u64;
        let mut read_buf = vec![0u8; 64 * 1024];

        loop {
            let now = now_ns();

            // ---- issue what is due
            if sending {
                loop {
                    let i = records.len() as u64;
                    let (done, due_ns) = match pace {
                        Pace::Open { rate_qps, total } => {
                            let due = due_count(now - start_ns, rate_qps, total);
                            (
                                i >= total,
                                (i < due).then(|| start_ns + due_time_ns(i, rate_qps)),
                            )
                        }
                        Pace::ClosedFor { duration, .. } => {
                            (now - start_ns >= duration.as_nanos() as u64, Some(now))
                        }
                        Pace::ClosedOps { ops, .. } => (i >= ops, Some(now)),
                    };
                    if done {
                        sending = false;
                        send_end_ns = now;
                        outstanding_at_send_end = records.len() as u64 - answered;
                        break;
                    }
                    let Some(due_ns) = due_ns else { break };
                    let op = ops(i);
                    let conn = match (pace, op) {
                        (Pace::Open { .. }, Op::Query(_)) => Some(i as usize % CONNS),
                        (Pace::Open { .. }, _) => Some(0),
                        (Pace::ClosedFor { window, .. } | Pace::ClosedOps { window, .. }, op) => {
                            // A query goes to the connection with the most room, so every
                            // batch the server forms holds requests of both connections and
                            // a write never waits on connection 0 for longer than one batch.
                            // (First-with-room segregates the batches by connection; a write
                            // then stalls the whole op sequence for a batch cycle while the
                            // other connection drains, and the reply rate halves.)
                            let candidates = if matches!(op, Op::Query(_)) { CONNS } else { 1 };
                            (0..candidates)
                                .min_by_key(|&c| self.conns[c].outstanding)
                                .filter(|&c| self.conns[c].outstanding < window)
                        }
                    };
                    let Some(c) = conn else { break };
                    let rid = self.next_id;
                    self.next_id += 1;
                    let conn = &mut self.conns[c];
                    match op {
                        Op::Query(q) => {
                            encode_query(&mut conn.out, rid, check.queries.row(q as usize))
                        }
                        Op::Insert(j) => {
                            encode_insert(&mut conn.out, rid, check.insert_pool.row(j as usize))
                        }
                        Op::Delete(id) => encode_delete(&mut conn.out, rid, u64::from(id)),
                    }
                    conn.outstanding += 1;
                    records.push(Record {
                        op,
                        due_ns,
                        sent_ns: now,
                        done_ns: 0,
                        outcome: Outcome::Unanswered,
                        hits: 0,
                    });
                }
            }

            // ---- write what the sockets will take, read what has arrived
            for conn in &mut self.conns {
                while conn.out_pos < conn.out.len() {
                    match conn.stream.write(&conn.out[conn.out_pos..]) {
                        Ok(0) => panic!("client: the server closed a connection mid-run"),
                        Ok(n) => {
                            conn.out_pos += n;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(e) => panic!("client: write failed: {e}"),
                    }
                }
                if conn.out_pos == conn.out.len() {
                    conn.out.clear();
                    conn.out_pos = 0;
                }
            }
            for c in 0..self.conns.len() {
                // A few reads per connection per pass, so a flood of replies cannot keep
                // the due requests of an open loop waiting.
                for _ in 0..4 {
                    let conn = &mut self.conns[c];
                    match conn.stream.read(&mut read_buf) {
                        Ok(0) => panic!("client: the server hung up mid-run"),
                        Ok(n) => {
                            conn.decoder.push(&read_buf[..n]);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(e) => panic!("client: read failed: {e}"),
                    }
                    let done_ns = now_ns();
                    let conn = &mut self.conns[c];
                    while let Some(frame) = conn
                        .decoder
                        .next_frame()
                        .expect("client: the server's byte stream lost framing")
                    {
                        if frame.request_id < id_base {
                            continue; // a straggler of an earlier run, already counted there
                        }
                        let rec = &mut records[(frame.request_id - id_base) as usize];
                        conn.outstanding -= 1;
                        answered += 1;
                        rec.done_ns = done_ns;
                        match judge(rec.op, parse_reply(&frame), check) {
                            Ok((outcome, hits)) => {
                                rec.outcome = outcome;
                                rec.hits = hits;
                            }
                            Err(why) => {
                                rec.outcome = Outcome::Failed;
                                if failures.len() < 8 {
                                    failures.push(format!("request {}: {why}", frame.request_id));
                                }
                            }
                        }
                        if let Some(t) = tracer.as_deref_mut() {
                            let name = if rec.is_query() {
                                "wire.query"
                            } else {
                                "wire.write"
                            };
                            t.record(name, rec.due_ns, done_ns, frame.request_id);
                        }
                    }
                }
            }

            if !sending {
                if answered == records.len() as u64 {
                    break;
                }
                if now_ns() - send_end_ns > DRAIN_GRACE.as_nanos() as u64 {
                    break;
                }
            }
            // One pass per sleep, busy or not: at 50k requests per second there is
            // always something due, and a client that only sleeps when idle spins a whole
            // core away from the server it is measuring.
            std::thread::sleep(PASS_SLEEP);
        }
        for conn in &mut self.conns {
            conn.outstanding = 0; // whatever is still unanswered is written off
        }
        RunLog {
            records,
            start_ns,
            send_end_ns,
            end_ns: now_ns(),
            outstanding_at_send_end,
            failures,
        }
    }
}

/// Checks one reply against the request it answers.
fn judge(
    op: Op,
    reply: Result<Reply, String>,
    check: &mut Check<'_>,
) -> Result<(Outcome, u8), String> {
    match (op, reply?) {
        (_, Reply::Shed { .. }) => Ok((Outcome::Shed, 0)),
        (Op::Query(q), Reply::Query(result)) => {
            if let Some(&bad) = result.ids.iter().find(|&&id| id >= check.id_limit) {
                return Err(format!("returned id {bad} is out of range"));
            }
            let hits = check.truth.map_or(0, |truth| {
                let t = &truth[q as usize];
                result.ids.iter().filter(|id| t.contains(id)).count() as u8
            });
            if let Some(slot) = check.sample.get_mut(q as usize) {
                if slot.is_none() {
                    *slot = Some(result);
                }
            }
            Ok((Outcome::Ok, hits))
        }
        (Op::Insert(j), Reply::Insert(id)) => {
            let want = (check.insert_id_base + j as usize) as u64;
            if id == want {
                Ok((Outcome::Ok, 0))
            } else {
                Err(format!("insert {j} acked with id {id}, expected {want}"))
            }
        }
        (Op::Delete(_), Reply::Delete(true)) => Ok((Outcome::Ok, 0)),
        (Op::Delete(id), Reply::Delete(false)) => Err(format!("delete of live id {id} refused")),
        (_, Reply::Error(why)) => Err(format!("error reply: {why}")),
        (_, Reply::Malformed(why)) => Err(format!("malformed reply: {why}")),
        (op, other) => Err(format!("{op:?} answered with {other:?}")),
    }
}
