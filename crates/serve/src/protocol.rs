//! The ingress wire protocol: length-prefixed binary frames.
//!
//! Every message — request or reply — is one frame:
//!
//! ```text
//! u32 frame_len | u32 request_id | u16 opcode | payload...     (all little-endian)
//! ```
//!
//! `frame_len` counts everything after the length word (`request_id` + `opcode` +
//! payload, so `frame_len >= 6`). Replies echo the request's `request_id`, which is
//! what makes pipelining work: a client may write any number of frames before
//! reading, and correlates answers by id (replies to *different* requests may be
//! reordered by the server's batching; replies never outrun their own request).
//!
//! Malformedness has two severities, and the split is what keeps one bad client
//! from hurting anyone else while still keeping the stream parseable:
//!
//! * **frame-level** (bad payload size, unknown opcode, dimension mismatch): the
//!   frame boundary itself is trustworthy, so the server answers
//!   [`OP_MALFORMED`] for that `request_id` and keeps serving the connection;
//! * **framing-level** ([`DecodeFatal`]: `frame_len` below the 6-byte minimum or
//!   above [`MAX_FRAME_LEN`]): the byte stream can no longer be resynchronised,
//!   so the server answers one `OP_MALFORMED` (id 0) and closes the connection.
//!
//! The decoder ([`FrameDecoder`]) is a pure incremental state machine over pushed
//! bytes — no I/O — which is what lets the proptest suite drive it byte-by-byte
//! through every split point and assert it never panics.

use usp_index::SearchResult;

// ---- request opcodes -------------------------------------------------------------
/// Query: payload = `dims × f32` (the engine's indexed dimensionality, checked).
pub const OP_QUERY: u16 = 0x01;
/// Insert a point: payload = `dims × f32`; replied with the assigned id.
pub const OP_INSERT: u16 = 0x02;
/// Delete (tombstone) a point: payload = `u64` point id.
pub const OP_DELETE: u16 = 0x03;
/// Serving statistics: empty payload; replied with a JSON [`crate::StatsSnapshot`].
pub const OP_STATS: u16 = 0x04;

// ---- reply opcodes ---------------------------------------------------------------
/// Answer to [`OP_QUERY`]: `u32 count | count × u64 id | u32 exact | u32 compressed`.
pub const OP_REPLY_QUERY: u16 = 0x81;
/// Answer to [`OP_INSERT`]: `u64` assigned point id.
pub const OP_REPLY_INSERT: u16 = 0x82;
/// Answer to [`OP_DELETE`]: `u8` (1 = deleted, 0 = unknown/already-deleted id).
pub const OP_REPLY_DELETE: u16 = 0x83;
/// Answer to [`OP_STATS`]: UTF-8 JSON snapshot.
pub const OP_REPLY_STATS: u16 = 0x84;
/// The request was valid but the engine could not serve it (unsupported op for
/// this engine, or the serving path failed); payload = UTF-8 reason.
pub const OP_REPLY_ERROR: u16 = 0xEA;
/// Backpressure: the pending queue is full; payload = `u32` suggested
/// retry-after in milliseconds. The request was **not** served.
pub const OP_SHED: u16 = 0xEE;
/// The frame (or, with `request_id` 0, the framing itself) was malformed;
/// payload = UTF-8 reason.
pub const OP_MALFORMED: u16 = 0xEF;

/// Bytes of `request_id + opcode` — the fixed part counted by `frame_len`.
pub const FRAME_OVERHEAD: usize = 6;
/// Upper bound on `frame_len`. Large enough for any row this workspace serves
/// (a 64k-dim f32 row) and for stats JSON; a length above it is treated as a
/// framing error, not an allocation request — the decoder never allocates ahead
/// of received bytes, so a hostile length cannot balloon memory either way.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// One decoded frame, opcode not yet interpreted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub request_id: u32,
    pub opcode: u16,
    pub payload: Vec<u8>,
}

/// Unrecoverable framing error: the stream cannot be resynchronised past it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeFatal {
    /// `frame_len` below [`FRAME_OVERHEAD`] — too short to carry a header.
    Runt(u32),
    /// `frame_len` above [`MAX_FRAME_LEN`].
    Oversized(u32),
}

impl std::fmt::Display for DecodeFatal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeFatal::Runt(n) => write!(f, "runt frame_len {n} (minimum {FRAME_OVERHEAD})"),
            DecodeFatal::Oversized(n) => {
                write!(f, "oversized frame_len {n} (maximum {MAX_FRAME_LEN})")
            }
        }
    }
}

/// Incremental frame decoder over an append-only byte stream.
///
/// [`push`](Self::push) appends received bytes; [`next_frame`](Self::next_frame)
/// yields complete frames until the buffered prefix runs out. Once a framing
/// error is hit the decoder is poisoned: every later call reports the same
/// [`DecodeFatal`] (the connection must be dropped).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted away once it outgrows half the buffer.
    pos: usize,
    fatal: Option<DecodeFatal>,
}

impl FrameDecoder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends received bytes (a no-op once the decoder is poisoned).
    pub fn push(&mut self, bytes: &[u8]) {
        if self.fatal.is_none() {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Yields the next complete frame, `Ok(None)` when more bytes are needed, or
    /// the sticky framing error.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, DecodeFatal> {
        if let Some(fatal) = self.fatal {
            return Err(fatal);
        }
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let frame_len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if (frame_len as usize) < FRAME_OVERHEAD {
            self.fatal = Some(DecodeFatal::Runt(frame_len));
            return Err(self.fatal.expect("just set"));
        }
        if frame_len > MAX_FRAME_LEN {
            self.fatal = Some(DecodeFatal::Oversized(frame_len));
            return Err(self.fatal.expect("just set"));
        }
        let total = 4 + frame_len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let request_id = u32::from_le_bytes([avail[4], avail[5], avail[6], avail[7]]);
        let opcode = u16::from_le_bytes([avail[8], avail[9]]);
        let payload = avail[FRAME_OVERHEAD + 4..total].to_vec();
        self.pos += total;
        // Compact once the dead prefix dominates, so a long-lived connection's
        // buffer stays proportional to its unread bytes, not its history.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(Some(Frame {
            request_id,
            opcode,
            payload,
        }))
    }
}

/// A parsed, validated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Query { request_id: u32, row: Vec<f32> },
    Insert { request_id: u32, row: Vec<f32> },
    Delete { request_id: u32, id: u64 },
    Stats { request_id: u32 },
}

/// A frame-level rejection: answered with [`OP_MALFORMED`] for this id, the
/// connection keeps serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Malformed {
    pub request_id: u32,
    pub reason: String,
}

fn parse_row(payload: &[u8], dims: usize) -> Result<Vec<f32>, String> {
    if payload.len() != dims * 4 {
        return Err(format!(
            "payload is {} bytes, expected {} ({} × f32 for the engine's {} dims)",
            payload.len(),
            dims * 4,
            dims,
            dims
        ));
    }
    Ok(payload
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect())
}

/// Interprets a decoded frame against the serving engine's dimensionality.
/// Every failure names the request id so the reply can be correlated.
pub fn parse_request(frame: &Frame, dims: usize) -> Result<Request, Malformed> {
    let fail = |reason: String| Malformed {
        request_id: frame.request_id,
        reason,
    };
    match frame.opcode {
        OP_QUERY => Ok(Request::Query {
            request_id: frame.request_id,
            row: parse_row(&frame.payload, dims).map_err(fail)?,
        }),
        OP_INSERT => Ok(Request::Insert {
            request_id: frame.request_id,
            row: parse_row(&frame.payload, dims).map_err(fail)?,
        }),
        OP_DELETE => {
            if frame.payload.len() != 8 {
                return Err(fail(format!(
                    "delete payload is {} bytes, expected 8 (u64 id)",
                    frame.payload.len()
                )));
            }
            let mut b = [0u8; 8];
            b.copy_from_slice(&frame.payload);
            Ok(Request::Delete {
                request_id: frame.request_id,
                id: u64::from_le_bytes(b),
            })
        }
        OP_STATS => {
            if !frame.payload.is_empty() {
                return Err(fail(format!(
                    "stats takes no payload, got {} bytes",
                    frame.payload.len()
                )));
            }
            Ok(Request::Stats {
                request_id: frame.request_id,
            })
        }
        op => Err(fail(format!("unknown opcode {op:#06x}"))),
    }
}

// ---- encoding --------------------------------------------------------------------

/// Appends one frame to `out`. Panics if `payload` exceeds [`MAX_FRAME_LEN`] —
/// server-built replies are bounded by construction, and client encoders are
/// checked at their own call sites.
pub fn encode_frame(out: &mut Vec<u8>, request_id: u32, opcode: u16, payload: &[u8]) {
    let frame_len = (FRAME_OVERHEAD + payload.len()) as u32;
    assert!(
        frame_len <= MAX_FRAME_LEN,
        "frame payload of {} bytes exceeds MAX_FRAME_LEN",
        payload.len()
    );
    out.extend_from_slice(&frame_len.to_le_bytes());
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&opcode.to_le_bytes());
    out.extend_from_slice(payload);
}

fn encode_row_frame(out: &mut Vec<u8>, request_id: u32, opcode: u16, row: &[f32]) {
    let mut payload = Vec::with_capacity(row.len() * 4);
    for v in row {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    encode_frame(out, request_id, opcode, &payload);
}

/// Client side: a query frame for `row`.
pub fn encode_query(out: &mut Vec<u8>, request_id: u32, row: &[f32]) {
    encode_row_frame(out, request_id, OP_QUERY, row);
}

/// Client side: an insert frame for `row`.
pub fn encode_insert(out: &mut Vec<u8>, request_id: u32, row: &[f32]) {
    encode_row_frame(out, request_id, OP_INSERT, row);
}

/// Client side: a delete frame for point `id`.
pub fn encode_delete(out: &mut Vec<u8>, request_id: u32, id: u64) {
    encode_frame(out, request_id, OP_DELETE, &id.to_le_bytes());
}

/// Client side: a stats request frame.
pub fn encode_stats(out: &mut Vec<u8>, request_id: u32) {
    encode_frame(out, request_id, OP_STATS, &[]);
}

/// Server side: the reply to a served query.
pub fn encode_query_reply(out: &mut Vec<u8>, request_id: u32, result: &SearchResult) {
    let mut payload = Vec::with_capacity(4 + result.ids.len() * 8 + 8);
    payload.extend_from_slice(&(result.ids.len() as u32).to_le_bytes());
    for &id in &result.ids {
        payload.extend_from_slice(&(id as u64).to_le_bytes());
    }
    payload.extend_from_slice(&(result.candidates_scanned as u32).to_le_bytes());
    payload.extend_from_slice(&(result.compressed_scanned as u32).to_le_bytes());
    encode_frame(out, request_id, OP_REPLY_QUERY, &payload);
}

/// Server side: the reply to a served insert.
pub fn encode_insert_reply(out: &mut Vec<u8>, request_id: u32, id: u64) {
    encode_frame(out, request_id, OP_REPLY_INSERT, &id.to_le_bytes());
}

/// Server side: the reply to a served delete.
pub fn encode_delete_reply(out: &mut Vec<u8>, request_id: u32, deleted: bool) {
    encode_frame(out, request_id, OP_REPLY_DELETE, &[deleted as u8]);
}

/// Server side: the reply to a stats request (`json` is a serialized snapshot). The
/// snapshot grows with the bin count, so one too large for a frame is answered with an
/// [`OP_REPLY_ERROR`] naming the limit instead of a panic in the event loop.
pub fn encode_stats_reply(out: &mut Vec<u8>, request_id: u32, json: &[u8]) {
    if FRAME_OVERHEAD + json.len() > MAX_FRAME_LEN as usize {
        let reason = format!(
            "stats snapshot of {} bytes does not fit a frame (MAX_FRAME_LEN {MAX_FRAME_LEN})",
            json.len()
        );
        return encode_error(out, request_id, &reason);
    }
    encode_frame(out, request_id, OP_REPLY_STATS, json);
}

/// Server side: a backpressure rejection with a retry hint.
pub fn encode_shed(out: &mut Vec<u8>, request_id: u32, retry_after_ms: u32) {
    encode_frame(out, request_id, OP_SHED, &retry_after_ms.to_le_bytes());
}

/// Server side: a frame-level (or, with id 0, framing-level) rejection.
pub fn encode_malformed(out: &mut Vec<u8>, request_id: u32, reason: &str) {
    encode_frame(out, request_id, OP_MALFORMED, reason.as_bytes());
}

/// Server side: a valid request the engine could not serve.
pub fn encode_error(out: &mut Vec<u8>, request_id: u32, reason: &str) {
    encode_frame(out, request_id, OP_REPLY_ERROR, reason.as_bytes());
}

// ---- client-side reply interpretation --------------------------------------------

/// A parsed reply frame (the client-side mirror of the `encode_*_reply` family).
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Query(SearchResult),
    Insert(u64),
    Delete(bool),
    Stats(String),
    Shed { retry_after_ms: u32 },
    Malformed(String),
    Error(String),
}

/// Interprets a reply frame. `Err` means the *server's* frame violated the
/// protocol — only possible against a non-conforming server.
pub fn parse_reply(frame: &Frame) -> Result<Reply, String> {
    let p = &frame.payload;
    match frame.opcode {
        OP_REPLY_QUERY => {
            if p.len() < 12 {
                return Err(format!("query reply of {} bytes is too short", p.len()));
            }
            let count = u32::from_le_bytes([p[0], p[1], p[2], p[3]]) as usize;
            if p.len() != 4 + count * 8 + 8 {
                return Err(format!(
                    "query reply length {} does not match count {count}",
                    p.len()
                ));
            }
            let ids = p[4..4 + count * 8]
                .chunks_exact(8)
                .map(|b| {
                    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]) as usize
                })
                .collect();
            let tail = &p[4 + count * 8..];
            Ok(Reply::Query(SearchResult {
                ids,
                candidates_scanned: u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]])
                    as usize,
                compressed_scanned: u32::from_le_bytes([tail[4], tail[5], tail[6], tail[7]])
                    as usize,
            }))
        }
        OP_REPLY_INSERT => {
            if p.len() != 8 {
                return Err(format!("insert reply of {} bytes, expected 8", p.len()));
            }
            let mut b = [0u8; 8];
            b.copy_from_slice(p);
            Ok(Reply::Insert(u64::from_le_bytes(b)))
        }
        OP_REPLY_DELETE => match p.as_slice() {
            [0] => Ok(Reply::Delete(false)),
            [1] => Ok(Reply::Delete(true)),
            _ => Err(format!("delete reply payload {p:?}")),
        },
        OP_REPLY_STATS => Ok(Reply::Stats(String::from_utf8_lossy(p).into_owned())),
        OP_SHED => {
            if p.len() != 4 {
                return Err(format!("shed reply of {} bytes, expected 4", p.len()));
            }
            Ok(Reply::Shed {
                retry_after_ms: u32::from_le_bytes([p[0], p[1], p[2], p[3]]),
            })
        }
        OP_MALFORMED => Ok(Reply::Malformed(String::from_utf8_lossy(p).into_owned())),
        OP_REPLY_ERROR => Ok(Reply::Error(String::from_utf8_lossy(p).into_owned())),
        op => Err(format!("unknown reply opcode {op:#06x}")),
    }
}

/// Blocking client helper: reads exactly one frame from `r` (tests, benches and
/// example clients; the server never blocks on reads).
pub fn read_frame(r: &mut impl std::io::Read) -> std::io::Result<Frame> {
    use std::io::{Error, ErrorKind};
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let frame_len = u32::from_le_bytes(len);
    if (frame_len as usize) < FRAME_OVERHEAD || frame_len > MAX_FRAME_LEN {
        return Err(Error::new(
            ErrorKind::InvalidData,
            format!("bad frame_len {frame_len}"),
        ));
    }
    let mut rest = vec![0u8; frame_len as usize];
    r.read_exact(&mut rest)?;
    let mut dec = FrameDecoder::new();
    dec.push(&len);
    dec.push(&rest);
    match dec.next_frame() {
        Ok(Some(frame)) => Ok(frame),
        // Unreachable: length was validated and the exact byte count read.
        _ => Err(Error::new(ErrorKind::InvalidData, "frame re-decode failed")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn query_frame(request_id: u32, row: &[f32]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_query(&mut out, request_id, row);
        out
    }

    #[test]
    fn well_formed_frames_roundtrip() {
        let mut wire = Vec::new();
        encode_query(&mut wire, 1, &[1.0, -2.5, f32::NAN]);
        encode_delete(&mut wire, 2, 77);
        encode_stats(&mut wire, 3);
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        let f1 = dec.next_frame().unwrap().unwrap();
        assert_eq!((f1.request_id, f1.opcode), (1, OP_QUERY));
        match parse_request(&f1, 3).unwrap() {
            Request::Query { request_id, row } => {
                assert_eq!(request_id, 1);
                assert_eq!(row[0], 1.0);
                assert_eq!(row[1], -2.5);
                assert!(row[2].is_nan());
            }
            other => panic!("unexpected {other:?}"),
        }
        let f2 = dec.next_frame().unwrap().unwrap();
        assert_eq!(
            parse_request(&f2, 3).unwrap(),
            Request::Delete {
                request_id: 2,
                id: 77
            }
        );
        let f3 = dec.next_frame().unwrap().unwrap();
        assert_eq!(
            parse_request(&f3, 3).unwrap(),
            Request::Stats { request_id: 3 }
        );
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn every_split_point_reassembles_identically() {
        // One pipelined stream cut at every byte boundary: framing must be
        // insensitive to how the kernel slices reads.
        let mut wire = Vec::new();
        encode_query(&mut wire, 10, &[0.5, 1.5]);
        encode_insert(&mut wire, 11, &[9.0, -9.0]);
        encode_delete(&mut wire, 12, u64::MAX);
        for split in 0..=wire.len() {
            let mut dec = FrameDecoder::new();
            dec.push(&wire[..split]);
            let mut frames = Vec::new();
            while let Some(f) = dec.next_frame().unwrap() {
                frames.push(f);
            }
            dec.push(&wire[split..]);
            while let Some(f) = dec.next_frame().unwrap() {
                frames.push(f);
            }
            assert_eq!(frames.len(), 3, "split at {split}");
            assert_eq!(frames[0].request_id, 10);
            assert_eq!(frames[1].opcode, OP_INSERT);
            assert_eq!(
                parse_request(&frames[2], 2).unwrap(),
                Request::Delete {
                    request_id: 12,
                    id: u64::MAX
                }
            );
        }
    }

    #[test]
    fn truncated_frame_waits_instead_of_failing() {
        let wire = query_frame(5, &[1.0, 2.0]);
        for keep in 0..wire.len() {
            let mut dec = FrameDecoder::new();
            dec.push(&wire[..keep]);
            assert_eq!(dec.next_frame().unwrap(), None, "truncated at {keep}");
        }
    }

    #[test]
    fn runt_and_oversized_lengths_are_sticky_fatal() {
        for (len_word, expect) in [
            (0u32, DecodeFatal::Runt(0)),
            (5, DecodeFatal::Runt(5)),
            (MAX_FRAME_LEN + 1, DecodeFatal::Oversized(MAX_FRAME_LEN + 1)),
            (u32::MAX, DecodeFatal::Oversized(u32::MAX)),
        ] {
            let mut dec = FrameDecoder::new();
            dec.push(&len_word.to_le_bytes());
            assert_eq!(dec.next_frame(), Err(expect));
            // Poisoned: later pushes are ignored, the error repeats.
            dec.push(&query_frame(1, &[1.0]));
            assert_eq!(dec.next_frame(), Err(expect));
        }
    }

    #[test]
    fn frame_level_rejections_name_the_request_id() {
        // Unknown opcode.
        let mut out = Vec::new();
        encode_frame(&mut out, 9, 0x55, b"??");
        let mut dec = FrameDecoder::new();
        dec.push(&out);
        let f = dec.next_frame().unwrap().unwrap();
        let err = parse_request(&f, 2).unwrap_err();
        assert_eq!(err.request_id, 9);
        assert!(err.reason.contains("unknown opcode"), "{}", err.reason);

        // Dimension mismatch (3 floats against a 2-dim engine).
        let f = {
            let mut dec = FrameDecoder::new();
            dec.push(&query_frame(4, &[1.0, 2.0, 3.0]));
            dec.next_frame().unwrap().unwrap()
        };
        let err = parse_request(&f, 2).unwrap_err();
        assert_eq!(err.request_id, 4);
        assert!(err.reason.contains("expected 8"), "{}", err.reason);

        // Zero-dim query against a real engine.
        let f = {
            let mut dec = FrameDecoder::new();
            dec.push(&query_frame(6, &[]));
            dec.next_frame().unwrap().unwrap()
        };
        assert_eq!(parse_request(&f, 3).unwrap_err().request_id, 6);

        // Delete payload of the wrong width; stats with a payload.
        let mut out = Vec::new();
        encode_frame(&mut out, 7, OP_DELETE, &[1, 2, 3]);
        encode_frame(&mut out, 8, OP_STATS, b"x");
        let mut dec = FrameDecoder::new();
        dec.push(&out);
        for id in [7u32, 8] {
            let f = dec.next_frame().unwrap().unwrap();
            assert_eq!(parse_request(&f, 3).unwrap_err().request_id, id);
        }
    }

    #[test]
    fn replies_roundtrip_through_parse_reply() {
        let result = SearchResult {
            ids: vec![3, 1, 4, 159],
            candidates_scanned: 42,
            compressed_scanned: 1000,
        };
        let mut wire = Vec::new();
        encode_query_reply(&mut wire, 21, &result);
        encode_insert_reply(&mut wire, 22, 12345);
        encode_delete_reply(&mut wire, 23, true);
        encode_stats_reply(&mut wire, 24, b"{\"queries\":1}");
        encode_shed(&mut wire, 25, 7);
        encode_malformed(&mut wire, 26, "bad dims");
        encode_error(&mut wire, 27, "unsupported");
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        let mut next = || parse_reply(&dec.next_frame().unwrap().unwrap()).unwrap();
        assert_eq!(next(), Reply::Query(result.clone()));
        assert_eq!(next(), Reply::Insert(12345));
        assert_eq!(next(), Reply::Delete(true));
        assert_eq!(next(), Reply::Stats("{\"queries\":1}".into()));
        assert_eq!(next(), Reply::Shed { retry_after_ms: 7 });
        assert_eq!(next(), Reply::Malformed("bad dims".into()));
        assert_eq!(next(), Reply::Error("unsupported".into()));
    }

    #[test]
    fn long_lived_connection_buffer_stays_bounded() {
        // Feed many frames through one decoder: the consumed prefix must be
        // compacted away, not accumulate for the connection's lifetime.
        let frame = query_frame(1, &[1.0; 64]);
        let mut dec = FrameDecoder::new();
        for _ in 0..1000 {
            dec.push(&frame);
            assert!(dec.next_frame().unwrap().is_some());
        }
        assert_eq!(dec.buffered(), 0);
        assert!(
            dec.buf.len() < 4 * frame.len() + 8192,
            "decoder buffer grew to {} bytes over a long-lived connection",
            dec.buf.len()
        );
    }

    proptest! {
        /// The central fuzz pin: *any* byte stream, pushed in *any* chunking, is
        /// either parsed or rejected — the decoder never panics, and every
        /// decoded frame is internally consistent.
        #[test]
        fn decoder_never_panics_on_arbitrary_chunked_bytes(
            bytes in proptest::collection::vec(0u8..=255, 0..600),
            chunk in 1usize..23,
        ) {
            let mut dec = FrameDecoder::new();
            let mut poisoned = false;
            for piece in bytes.chunks(chunk) {
                dec.push(piece);
                loop {
                    match dec.next_frame() {
                        Ok(Some(frame)) => {
                            prop_assert!(!poisoned);
                            prop_assert!(frame.payload.len() + FRAME_OVERHEAD <= MAX_FRAME_LEN as usize);
                            // Frame-level parsing must be total too, for any dims.
                            for dims in [0usize, 1, 3] {
                                let _ = parse_request(&frame, dims);
                            }
                        }
                        Ok(None) => break,
                        Err(_) => { poisoned = true; break; }
                    }
                }
            }
            // Poisoning is sticky.
            if poisoned {
                prop_assert!(dec.next_frame().is_err());
            }
        }

        /// Valid frames survive arbitrary chunking bit-exactly (ids, opcode and
        /// payload), regardless of the float patterns in the row.
        #[test]
        fn valid_streams_reassemble_under_any_chunking(
            rows in proptest::collection::vec(
                proptest::collection::vec(-1.0e30f32..1.0e30, 0..9),
                1..6,
            ),
            chunk in 1usize..17,
        ) {
            let mut wire = Vec::new();
            for (i, row) in rows.iter().enumerate() {
                encode_query(&mut wire, i as u32, row);
            }
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                dec.push(piece);
                while let Some(f) = dec.next_frame().unwrap() {
                    got.push(f);
                }
            }
            prop_assert_eq!(got.len(), rows.len());
            for (i, (frame, row)) in got.iter().zip(&rows).enumerate() {
                prop_assert_eq!(frame.request_id, i as u32);
                match parse_request(frame, row.len()).unwrap() {
                    Request::Query { row: parsed, .. } => {
                        // Bit-exact: compare the encoded bits, not float equality.
                        let a: Vec<u32> = parsed.iter().map(|v| v.to_bits()).collect();
                        let b: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
                        prop_assert_eq!(a, b);
                    }
                    other => prop_assert!(false, "unexpected {:?}", other),
                }
            }
        }
    }
}
