//! Crash-consistent write-ahead logging for the mutation layer.
//!
//! The PR 7 delta ([`crate::mutation`]) is memory-only: a crash loses every acked
//! insert/delete. This module adds the leveldb-flavored fix — every mutation is
//! appended to a log *before* it is applied (and before the caller is acked), and
//! recovery replays the log into a [`MutationState`](crate::mutation::MutationState)
//! bit-identical to the pre-crash in-memory state.
//!
//! # Record format
//!
//! ```text
//! record  := len:u32le | crc:u32le | payload
//! payload := kind:u8 | body
//! kind 1  := Insert                body := dim:u32le, dim × f32le
//! kind 2  := Delete                body := id:u64le
//! kind 3  := CompactionCheckpoint  body := epoch:u64le
//! ```
//!
//! `crc` is CRC-32 (IEEE) over the payload. `len` is the payload length and is
//! bounded by [`MAX_RECORD_PAYLOAD`]; a larger length field is *corruption*, not a
//! tear, because torn writes only ever shorten a record — they never fabricate
//! bytes.
//!
//! # Torn-tail rule
//!
//! Parsing tolerates **exactly one incomplete record at the tail** (fewer than 8
//! header bytes left, or fewer payload bytes than `len` promises): the tail is
//! truncated away and counted, mirroring how an append can land partially when the
//! process dies mid-write. Anything else — a checksum mismatch on a *complete*
//! record, an unknown kind byte, an out-of-range length — is a loud
//! [`WalError::Corrupt`], matching the PR 9 `DecodeFatal` severity split: recovery
//! never papers over bit rot.
//!
//! # Durability contract
//!
//! [`SyncPolicy`] decides when appends reach stable storage: `EveryN(n)` bounds the
//! loss window to `n - 1` acked records, so `EveryN(1)` syncs before every ack (no
//! acked mutation can be lost), and `OnFlush` leaves syncing to explicit
//! [`Wal::flush`] calls. After *any* append, sync or replace failure the log
//! poisons itself and refuses further appends ([`WalError::Poisoned`]): a failed
//! fsync says nothing about which dirty pages survived (the "fsyncgate" lesson), so
//! the only safe continuations are recovery (re-read what storage actually holds) or
//! a successful compaction checkpoint (atomically replace the log with a known
//! image).

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Upper bound on a record's payload length. An insert payload is `5 + 4·dim`
/// bytes, so this admits vectors up to 262 142 dims — far beyond any real index, and
/// `PartitionIndex::with_wal` / `recover` refuse one with more — while letting the
/// parser reject fabricated lengths as corruption instead of mis-reading them as a
/// giant torn tail.
pub const MAX_RECORD_PAYLOAD: u32 = 1 << 20;

/// Bytes of framing (`len` + `crc`) before each payload.
pub const RECORD_HEADER: usize = 8;

const KIND_INSERT: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_CHECKPOINT: u8 = 3;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected). Table built at compile time; no dependency.
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE) of `bytes` — the checksum protecting every record payload.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Failures of the log itself. [`WalError::Corrupt`] is the loud,
/// recovery-must-stop class; a torn tail is *not* an error (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// The storage backend failed (real I/O error or an injected fault). The
    /// message carries the backend's description.
    Io(String),
    /// A write landed partially: `wrote` of `want` bytes reached the log, which
    /// now ends in a torn record.
    ShortWrite { wrote: usize, want: usize },
    /// The log is corrupt in a way recovery must not paper over: checksum
    /// mismatch on a complete record, unknown kind, out-of-range length, or a
    /// record that replays inconsistently against the base index.
    Corrupt { offset: u64, reason: String },
    /// A previous append, sync or checkpoint on this log failed, so the on-storage
    /// tail is unknown; appends are refused until recovery or a checkpoint
    /// re-establishes a verified image.
    Poisoned,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(msg) => write!(f, "wal i/o: {msg}"),
            WalError::ShortWrite { wrote, want } => {
                write!(f, "wal short write: {wrote} of {want} bytes")
            }
            WalError::Corrupt { offset, reason } => {
                write!(f, "wal corrupt at byte {offset}: {reason}")
            }
            WalError::Poisoned => write!(
                f,
                "wal poisoned by an earlier append/sync failure; recover before appending"
            ),
        }
    }
}

impl std::error::Error for WalError {}

fn io_err(e: std::io::Error) -> WalError {
    WalError::Io(e.to_string())
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One logged mutation. Inserts carry only the row: the bin and the id are
/// re-derived on replay (partitioner routing and dense id assignment are both
/// deterministic), which keeps records small and recovery honest — replay goes
/// through the exact same code path as the original mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    Insert {
        row: Vec<f32>,
    },
    /// Names a stable id: the same point before and after any compaction.
    Delete {
        id: u64,
    },
    /// Marks a compacted baseline: every mutation before this record has been
    /// folded into the base index. Written only by the checkpoint protocol, so it
    /// is only ever the *first* record of a log; recovery treats it anywhere else
    /// as corruption.
    CompactionCheckpoint {
        epoch: u64,
    },
}

/// Payload bytes of an insert record for a `dims`-long row: kind, dim, the floats.
fn insert_payload_len(dims: usize) -> usize {
    5 + 4 * dims
}

/// Refuses, for `caller`, an index whose insert record could not fit in
/// [`MAX_RECORD_PAYLOAD`]: such a record would be written and acked, then rejected by
/// recovery along with the whole log behind it.
pub(crate) fn assert_insert_fits(dims: usize, caller: &str) {
    let need = insert_payload_len(dims);
    assert!(
        need <= MAX_RECORD_PAYLOAD as usize,
        "{caller}: a {dims}-dim insert record is {need} bytes, over the log's \
         {MAX_RECORD_PAYLOAD}-byte record limit"
    );
}

fn encode_payload(rec: &WalRecord) -> Vec<u8> {
    match rec {
        WalRecord::Insert { row } => {
            let mut out = Vec::with_capacity(insert_payload_len(row.len()));
            out.push(KIND_INSERT);
            out.extend_from_slice(&(row.len() as u32).to_le_bytes());
            for &x in row {
                out.extend_from_slice(&x.to_le_bytes());
            }
            out
        }
        WalRecord::Delete { id } => {
            let mut out = Vec::with_capacity(9);
            out.push(KIND_DELETE);
            out.extend_from_slice(&id.to_le_bytes());
            out
        }
        WalRecord::CompactionCheckpoint { epoch } => {
            let mut out = Vec::with_capacity(9);
            out.push(KIND_CHECKPOINT);
            out.extend_from_slice(&epoch.to_le_bytes());
            out
        }
    }
}

/// Frames `rec` as `len | crc | payload` — the exact bytes an append writes.
///
/// # Panics
///
/// If the payload is longer than [`MAX_RECORD_PAYLOAD`]: [`parse_log`] would reject
/// the record as corruption, so it must never reach a log.
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let payload = encode_payload(rec);
    assert!(
        payload.len() <= MAX_RECORD_PAYLOAD as usize,
        "wal: a {}-byte record payload is over the {MAX_RECORD_PAYLOAD}-byte limit",
        payload.len()
    );
    let mut out = Vec::with_capacity(RECORD_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn decode_payload(payload: &[u8], offset: u64) -> Result<WalRecord, WalError> {
    let corrupt = |reason: String| WalError::Corrupt { offset, reason };
    let kind = payload[0];
    let body = &payload[1..];
    match kind {
        KIND_INSERT => {
            if body.len() < 4 {
                return Err(corrupt("insert record shorter than its dim field".into()));
            }
            let dim = u32::from_le_bytes([body[0], body[1], body[2], body[3]]) as usize;
            let rest = &body[4..];
            if rest.len() != 4 * dim {
                return Err(corrupt(format!(
                    "insert record dim field says {dim} but carries {} payload bytes",
                    rest.len()
                )));
            }
            let row = rest
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            Ok(WalRecord::Insert { row })
        }
        KIND_DELETE => {
            if body.len() != 8 {
                return Err(corrupt(format!(
                    "delete record body is {} bytes, want 8",
                    body.len()
                )));
            }
            let mut id = [0u8; 8];
            id.copy_from_slice(body);
            Ok(WalRecord::Delete {
                id: u64::from_le_bytes(id),
            })
        }
        KIND_CHECKPOINT => {
            if body.len() != 8 {
                return Err(corrupt(format!(
                    "checkpoint record body is {} bytes, want 8",
                    body.len()
                )));
            }
            let mut epoch = [0u8; 8];
            epoch.copy_from_slice(body);
            Ok(WalRecord::CompactionCheckpoint {
                epoch: u64::from_le_bytes(epoch),
            })
        }
        other => Err(corrupt(format!("unknown record kind {other}"))),
    }
}

/// The outcome of parsing a log image: the complete records in order, plus how the
/// tail was classified.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedLog {
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix; the torn tail (if any) starts here.
    pub valid_len: u64,
    /// Bytes dropped as the torn tail (0 for a clean log).
    pub torn_bytes: u64,
}

/// Parses a whole log image under the torn-tail rule (see module docs): at most
/// one incomplete record at the tail is tolerated and reported via `torn_bytes`;
/// every other malformation is [`WalError::Corrupt`].
pub fn parse_log(bytes: &[u8]) -> Result<ParsedLog, WalError> {
    let mut records = Vec::new();
    let mut at = 0usize;
    loop {
        let remaining = bytes.len() - at;
        if remaining == 0 {
            return Ok(ParsedLog {
                records,
                valid_len: at as u64,
                torn_bytes: 0,
            });
        }
        if remaining < RECORD_HEADER {
            return Ok(ParsedLog {
                records,
                valid_len: at as u64,
                torn_bytes: remaining as u64,
            });
        }
        let len = u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
        if len == 0 || len > MAX_RECORD_PAYLOAD {
            // Torn writes shorten, they never fabricate: a length this wrong was
            // never written by an append, so it is corruption even at the tail.
            return Err(WalError::Corrupt {
                offset: at as u64,
                reason: format!("record length {len} out of range (1..={MAX_RECORD_PAYLOAD})"),
            });
        }
        let len = len as usize;
        if remaining - RECORD_HEADER < len {
            return Ok(ParsedLog {
                records,
                valid_len: at as u64,
                torn_bytes: remaining as u64,
            });
        }
        let crc = u32::from_le_bytes([bytes[at + 4], bytes[at + 5], bytes[at + 6], bytes[at + 7]]);
        let payload = &bytes[at + RECORD_HEADER..at + RECORD_HEADER + len];
        if crc32(payload) != crc {
            return Err(WalError::Corrupt {
                offset: at as u64,
                reason: "checksum mismatch on a complete record".into(),
            });
        }
        records.push(decode_payload(payload, at as u64)?);
        at += RECORD_HEADER + len;
    }
}

// ---------------------------------------------------------------------------
// Storage backends
// ---------------------------------------------------------------------------

/// Where log bytes live. Implementations may tear: on an `append` error, a
/// *prefix* of the bytes may still have reached the log — that is exactly the
/// failure recovery's torn-tail rule absorbs.
pub trait WalStorage: Send {
    /// Appends bytes at the end of the log.
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError>;
    /// Durably flushes everything appended so far.
    fn sync(&mut self) -> Result<(), WalError>;
    /// Reads the entire log image.
    fn read_all(&mut self) -> Result<Vec<u8>, WalError>;
    /// Truncates the log to `len` bytes (recovery dropping a torn tail).
    fn truncate(&mut self, len: u64) -> Result<(), WalError>;
    /// Atomically replaces the whole log image (write-new → sync → rename for
    /// files): afterwards the log holds exactly `contents`, never a mix.
    fn replace(&mut self, contents: &[u8]) -> Result<(), WalError>;
    /// Current log length in bytes.
    fn log_len(&self) -> Result<u64, WalError>;
}

/// Real file-backed storage. `sync` is `fdatasync`; `replace` writes a sibling
/// `<name>.new`, syncs it, renames over the log, and syncs the directory so the
/// rename itself is durable.
pub struct FileStorage {
    path: PathBuf,
    file: File,
}

impl FileStorage {
    /// Opens (creating if absent) the log at `path` for appending.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, WalError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)
            .map_err(io_err)?;
        Ok(Self { path, file })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn sync_parent_dir(&self) -> Result<(), WalError> {
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                File::open(dir)
                    .map_err(io_err)?
                    .sync_all()
                    .map_err(io_err)?;
            }
        }
        Ok(())
    }
}

impl WalStorage for FileStorage {
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.file.write_all(bytes).map_err(io_err)
    }

    fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_data().map_err(io_err)
    }

    fn read_all(&mut self) -> Result<Vec<u8>, WalError> {
        self.file.seek(SeekFrom::Start(0)).map_err(io_err)?;
        let mut buf = Vec::new();
        self.file.read_to_end(&mut buf).map_err(io_err)?;
        Ok(buf)
    }

    fn truncate(&mut self, len: u64) -> Result<(), WalError> {
        self.file.set_len(len).map_err(io_err)
    }

    fn replace(&mut self, contents: &[u8]) -> Result<(), WalError> {
        let mut name = self.path.file_name().unwrap_or_default().to_os_string();
        name.push(".new");
        let tmp = self.path.with_file_name(name);
        {
            let mut f = File::create(&tmp).map_err(io_err)?;
            f.write_all(contents).map_err(io_err)?;
            f.sync_data().map_err(io_err)?;
        }
        std::fs::rename(&tmp, &self.path).map_err(io_err)?;
        self.sync_parent_dir()?;
        self.file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)
            .map_err(io_err)?;
        Ok(())
    }

    fn log_len(&self) -> Result<u64, WalError> {
        self.file.metadata().map(|m| m.len()).map_err(io_err)
    }
}

/// Scripted faults for [`MemStorage`] — each models a documented real-world
/// failure so tests can drive every branch of the durability contract.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Total bytes the backing "device" accepts before failing: an append that
    /// crosses this line lands partially (torn write) and reports an error.
    pub fail_after_bytes: Option<u64>,
    /// The next append persists only this many of its bytes, then fails
    /// (one-shot short write).
    pub short_write_next: Option<usize>,
    /// This many upcoming syncs fail (fsyncgate-style), decrementing per failure.
    /// `replace` counts as a sync for this purpose.
    pub fail_syncs: u32,
}

#[derive(Debug, Default)]
struct MemInner {
    buf: Vec<u8>,
    plan: FaultPlan,
}

/// In-memory [`WalStorage`] with fault injection. `Clone` shares the underlying
/// buffer, so a test can keep a handle, "crash" the index (drop it), and hand the
/// surviving bytes — cut wherever the test likes — to recovery.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    inner: Arc<Mutex<MemInner>>,
}

impl MemStorage {
    pub fn new() -> Self {
        Self::default()
    }

    /// Storage pre-seeded with a log image (e.g. a crash-cut prefix).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        let storage = Self::default();
        storage.lock().buf = bytes;
        storage
    }

    /// Installs the fault script for subsequent operations.
    pub fn set_plan(&self, plan: FaultPlan) {
        self.lock().plan = plan;
    }

    /// Snapshot of the current log image (what a crash right now would leave,
    /// assuming everything appended also reached the device).
    pub fn contents(&self) -> Vec<u8> {
        self.lock().buf.clone()
    }

    fn lock(&self) -> MutexGuard<'_, MemInner> {
        // A panic while the lock was held leaves plain bytes that are still
        // exactly the "disk image" a test wants to inspect — recover the guard.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl WalStorage for MemStorage {
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        let mut inner = self.lock();
        if let Some(n) = inner.plan.short_write_next.take() {
            let wrote = n.min(bytes.len());
            let partial = bytes[..wrote].to_vec();
            inner.buf.extend_from_slice(&partial);
            return Err(WalError::ShortWrite {
                wrote,
                want: bytes.len(),
            });
        }
        if let Some(cap) = inner.plan.fail_after_bytes {
            let room = (cap.saturating_sub(inner.buf.len() as u64)) as usize;
            if room < bytes.len() {
                let partial = bytes[..room].to_vec();
                inner.buf.extend_from_slice(&partial);
                return Err(WalError::ShortWrite {
                    wrote: room,
                    want: bytes.len(),
                });
            }
        }
        inner.buf.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        let mut inner = self.lock();
        if inner.plan.fail_syncs > 0 {
            inner.plan.fail_syncs -= 1;
            return Err(WalError::Io("injected sync failure".into()));
        }
        Ok(())
    }

    fn read_all(&mut self) -> Result<Vec<u8>, WalError> {
        Ok(self.lock().buf.clone())
    }

    fn truncate(&mut self, len: u64) -> Result<(), WalError> {
        self.lock().buf.truncate(len as usize);
        Ok(())
    }

    fn replace(&mut self, contents: &[u8]) -> Result<(), WalError> {
        let mut inner = self.lock();
        if inner.plan.fail_syncs > 0 {
            inner.plan.fail_syncs -= 1;
            return Err(WalError::Io("injected sync failure (replace)".into()));
        }
        inner.buf = contents.to_vec();
        Ok(())
    }

    fn log_len(&self) -> Result<u64, WalError> {
        Ok(self.lock().buf.len() as u64)
    }
}

// ---------------------------------------------------------------------------
// Sync policy and the Wal itself
// ---------------------------------------------------------------------------

/// When appended records reach stable storage — the durability dial. See the
/// module docs for the exact loss-window contract of each policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Sync every `n` appends: at most `n - 1` acked records at risk; `EveryN(1)` syncs
    /// before every ack, so no acked mutation is ever lost.
    EveryN(usize),
    /// Sync only on explicit [`Wal::flush`]: fastest, weakest.
    OnFlush,
}

/// Counters the serving stack surfaces (`StatsSnapshot::wal` / `OP_STATS`), plus the
/// recovery numbers from the most recent replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (acked mutations reaching the log).
    pub appends: u64,
    /// Framed bytes appended.
    pub bytes: u64,
    /// Failed sync attempts (each also poisons the log).
    pub sync_errors: u64,
    /// Records replayed by the last recovery through this log.
    pub replayed_records: u64,
    /// Bytes dropped as a torn tail by the last recovery.
    pub torn_tail_bytes: u64,
    /// Compaction epoch (bumped by every checkpoint).
    pub epoch: u64,
}

/// The write-ahead log: framing + checksumming over a [`WalStorage`], the
/// [`SyncPolicy`] dial, and the sticky-poison discipline (module docs).
pub struct Wal {
    storage: Box<dyn WalStorage>,
    policy: SyncPolicy,
    /// Appends since the last successful sync (drives `EveryN`).
    unsynced: usize,
    /// Set by any append, sync or replace failure; cleared only by recovery or a
    /// successful checkpoint.
    poisoned: bool,
    stats: WalStats,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal")
            .field("policy", &self.policy)
            .field("unsynced", &self.unsynced)
            .field("poisoned", &self.poisoned)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Wal {
    pub fn new(storage: Box<dyn WalStorage>, policy: SyncPolicy) -> Self {
        Self {
            storage,
            policy,
            unsynced: 0,
            poisoned: false,
            stats: WalStats::default(),
        }
    }

    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    pub fn stats(&self) -> WalStats {
        self.stats
    }

    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Appends one record and applies the sync policy. On failure the log is
    /// poisoned (the storage tail is suspect) and the caller must *not* apply the
    /// mutation — append-before-ack is the whole durability story.
    pub fn append(&mut self, rec: &WalRecord) -> Result<(), WalError> {
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        let bytes = encode_record(rec);
        if let Err(e) = self.storage.append(&bytes) {
            // A prefix may have reached storage: torn tail until recovery.
            self.poisoned = true;
            return Err(e);
        }
        self.unsynced += 1;
        let due = match self.policy {
            SyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
            SyncPolicy::OnFlush => false,
        };
        if due {
            self.sync()?;
        }
        // Counted only once the caller may ack: a refused record is no append.
        self.stats.appends += 1;
        self.stats.bytes += bytes.len() as u64;
        Ok(())
    }

    /// Explicit sync — the `OnFlush` policy's durability point, also exposed so
    /// servers can flush on connection close or shutdown.
    pub fn flush(&mut self) -> Result<(), WalError> {
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        self.sync()
    }

    fn sync(&mut self) -> Result<(), WalError> {
        match self.storage.sync() {
            Ok(()) => {
                self.unsynced = 0;
                Ok(())
            }
            Err(e) => {
                self.stats.sync_errors += 1;
                // fsyncgate: a failed fsync says nothing about which pages
                // survived, so the log stops accepting writes until recovery.
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// Reads and parses the whole log, truncating a torn tail in place (so the
    /// next append starts from a verified image). Used by
    /// [`PartitionIndex::recover`](crate::PartitionIndex::recover).
    pub fn read_for_recovery(&mut self) -> Result<Vec<WalRecord>, WalError> {
        let bytes = self.storage.read_all()?;
        let parsed = parse_log(&bytes)?;
        if parsed.torn_bytes > 0 {
            self.storage.truncate(parsed.valid_len)?;
            self.storage.sync()?;
        }
        self.stats.replayed_records = parsed.records.len() as u64;
        self.stats.torn_tail_bytes = parsed.torn_bytes;
        self.poisoned = false;
        self.unsynced = 0;
        Ok(parsed.records)
    }

    /// The checkpoint/truncate protocol: atomically replaces the log with a
    /// single `CompactionCheckpoint{epoch}` record (write-new → sync → rename on
    /// files). On success the log is a fresh, verified image, which also clears
    /// any poison — compaction folds exactly the acked in-memory delta, so the
    /// replaced log and the index agree by construction.
    ///
    /// A failed replace poisons the log, like a failed sync: it may have failed
    /// after the rename (syncing the directory, re-opening the file), when the
    /// handle appends go to is the unlinked old file that recovery never reads.
    pub fn checkpoint(&mut self, epoch: u64) -> Result<(), WalError> {
        let rec = encode_record(&WalRecord::CompactionCheckpoint { epoch });
        if let Err(e) = self.storage.replace(&rec) {
            self.poisoned = true;
            return Err(e);
        }
        self.stats.epoch = epoch;
        self.unsynced = 0;
        self.poisoned = false;
        Ok(())
    }

    pub fn epoch(&self) -> u64 {
        self.stats.epoch
    }

    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.stats.epoch = epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A fresh empty directory under the system temp dir (std-only; unique via
    /// pid + a process-local counter).
    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        // lint:allow(undocumented-atomic-ordering): test-only uniqueness counter
        // ordering: Relaxed — the counter only needs uniqueness, not any
        // happens-before relationship with the directory contents.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("usp-wal-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The standard check vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_roundtrip_through_the_frame() {
        let recs = vec![
            WalRecord::Insert {
                row: vec![1.0, -2.5, f32::MIN_POSITIVE],
            },
            WalRecord::Insert { row: vec![] },
            WalRecord::Delete { id: 0 },
            WalRecord::Delete { id: u64::MAX },
            WalRecord::CompactionCheckpoint { epoch: 7 },
        ];
        let mut bytes = Vec::new();
        for r in &recs {
            bytes.extend_from_slice(&encode_record(r));
        }
        let parsed = parse_log(&bytes).expect("clean log parses");
        assert_eq!(parsed.records, recs);
        assert_eq!(parsed.valid_len, bytes.len() as u64);
        assert_eq!(parsed.torn_bytes, 0);
    }

    #[test]
    fn a_torn_tail_is_tolerated_at_every_cut_offset() {
        let recs = [
            WalRecord::Insert {
                row: vec![3.0, 4.0],
            },
            WalRecord::Delete { id: 1 },
        ];
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &recs {
            bytes.extend_from_slice(&encode_record(r));
            boundaries.push(bytes.len());
        }
        for cut in 0..=bytes.len() {
            let parsed = parse_log(&bytes[..cut]).expect("prefix cuts are torn, never corrupt");
            let whole = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(parsed.records.len(), whole, "cut at {cut}");
            assert_eq!(parsed.valid_len, boundaries[whole] as u64, "cut at {cut}");
            assert_eq!(
                parsed.torn_bytes as usize,
                cut - boundaries[whole],
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn mid_log_corruption_is_a_loud_error() {
        let mut bytes = encode_record(&WalRecord::Delete { id: 9 });
        let tail = encode_record(&WalRecord::Insert { row: vec![1.0] });
        // Flip a payload bit in the first (complete, mid-log) record.
        let flip_at = RECORD_HEADER + 2;
        bytes[flip_at] ^= 0x40;
        bytes.extend_from_slice(&tail);
        match parse_log(&bytes) {
            Err(WalError::Corrupt { offset: 0, .. }) => {}
            other => panic!("want Corrupt at offset 0, got {other:?}"),
        }
    }

    #[test]
    fn a_complete_tail_record_with_a_bad_checksum_is_corruption_not_a_tear() {
        let mut bytes = encode_record(&WalRecord::Delete { id: 9 });
        let n = bytes.len();
        bytes[n - 1] ^= 0x01; // bit rot inside a fully-present record
        assert!(matches!(parse_log(&bytes), Err(WalError::Corrupt { .. })));
    }

    #[test]
    fn fabricated_lengths_are_corruption_not_a_giant_tear() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_RECORD_PAYLOAD + 1).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 4]);
        assert!(matches!(parse_log(&bytes), Err(WalError::Corrupt { .. })));
        let zero = [0u8; RECORD_HEADER];
        assert!(matches!(parse_log(&zero), Err(WalError::Corrupt { .. })));
    }

    #[test]
    fn short_writes_poison_the_log_and_leave_a_recoverable_torn_tail() {
        let storage = MemStorage::new();
        let handle = storage.clone();
        let mut wal = Wal::new(Box::new(storage), SyncPolicy::EveryN(1));
        wal.append(&WalRecord::Delete { id: 1 })
            .expect("first append lands");
        handle.set_plan(FaultPlan {
            short_write_next: Some(5),
            ..Default::default()
        });
        let err = wal
            .append(&WalRecord::Delete { id: 2 })
            .expect_err("short write fails");
        assert_eq!(err, WalError::ShortWrite { wrote: 5, want: 17 });
        assert!(wal.is_poisoned());
        // Sticky: even a fault-free append is refused now.
        assert_eq!(
            wal.append(&WalRecord::Delete { id: 3 }),
            Err(WalError::Poisoned)
        );
        assert_eq!(
            wal.stats().appends,
            1,
            "failed appends are not counted as acked"
        );
        // The surviving image is record 1 plus 5 torn bytes; recovery truncates.
        let mut wal = Wal::new(Box::new(handle.clone()), SyncPolicy::EveryN(1));
        let recs = wal.read_for_recovery().expect("torn tail recovers");
        assert_eq!(recs, vec![WalRecord::Delete { id: 1 }]);
        assert_eq!(wal.stats().torn_tail_bytes, 5);
        assert!(!wal.is_poisoned());
        assert_eq!(handle.contents().len(), 17, "tail truncated in place");
        wal.append(&WalRecord::Delete { id: 4 })
            .expect("appends resume after recovery");
    }

    #[test]
    fn device_full_tears_exactly_at_the_byte_budget() {
        let storage = MemStorage::new();
        let handle = storage.clone();
        handle.set_plan(FaultPlan {
            fail_after_bytes: Some(20),
            ..Default::default()
        });
        let mut wal = Wal::new(Box::new(storage), SyncPolicy::OnFlush);
        wal.append(&WalRecord::Delete { id: 1 })
            .expect("17 bytes fit");
        let err = wal
            .append(&WalRecord::Delete { id: 2 })
            .expect_err("crosses the budget");
        assert_eq!(err, WalError::ShortWrite { wrote: 3, want: 17 });
        assert_eq!(handle.contents().len(), 20);
        let parsed = parse_log(&handle.contents()).expect("torn, not corrupt");
        assert_eq!(parsed.records.len(), 1);
        assert_eq!(parsed.torn_bytes, 3);
    }

    #[test]
    fn sync_failures_poison_and_are_counted() {
        let storage = MemStorage::new();
        let handle = storage.clone();
        handle.set_plan(FaultPlan {
            fail_syncs: 1,
            ..Default::default()
        });
        let mut wal = Wal::new(Box::new(storage), SyncPolicy::EveryN(1));
        let err = wal
            .append(&WalRecord::Delete { id: 1 })
            .expect_err("sync fails");
        assert!(matches!(err, WalError::Io(_)));
        assert_eq!(wal.stats().sync_errors, 1);
        assert!(wal.is_poisoned());
        assert_eq!(wal.flush(), Err(WalError::Poisoned));
        // A checkpoint atomically installs a fresh verified image: poison clears.
        wal.checkpoint(1).expect("checkpoint replaces the log");
        assert!(!wal.is_poisoned());
        assert_eq!(wal.epoch(), 1);
        let parsed = parse_log(&handle.contents()).expect("fresh image parses");
        assert_eq!(
            parsed.records,
            vec![WalRecord::CompactionCheckpoint { epoch: 1 }]
        );
    }

    #[test]
    fn a_failed_checkpoint_poisons_until_one_succeeds() {
        let storage = MemStorage::new();
        let mut wal = Wal::new(Box::new(storage.clone()), SyncPolicy::EveryN(1));
        wal.append(&WalRecord::Delete { id: 1 })
            .expect("a healthy append");
        storage.set_plan(FaultPlan {
            fail_syncs: 1,
            ..Default::default()
        });
        assert!(matches!(wal.checkpoint(1), Err(WalError::Io(_))));
        assert!(wal.is_poisoned());
        assert_eq!(
            wal.append(&WalRecord::Delete { id: 2 }),
            Err(WalError::Poisoned)
        );
        wal.checkpoint(1)
            .expect("the retried checkpoint replaces the log");
        assert!(!wal.is_poisoned());
        wal.append(&WalRecord::Delete { id: 3 })
            .expect("appends resume after the checkpoint");
        let parsed = parse_log(&storage.contents()).expect("the new image parses");
        assert_eq!(
            parsed.records,
            vec![
                WalRecord::CompactionCheckpoint { epoch: 1 },
                WalRecord::Delete { id: 3 }
            ]
        );
    }

    #[test]
    fn every_n_policy_syncs_on_the_nth_append() {
        // Observable through fault injection: with fail_syncs armed, the first
        // n-1 appends succeed (no sync attempted) and the nth hits the failure.
        let storage = MemStorage::new();
        let handle = storage.clone();
        handle.set_plan(FaultPlan {
            fail_syncs: 1,
            ..Default::default()
        });
        let mut wal = Wal::new(Box::new(storage), SyncPolicy::EveryN(3));
        wal.append(&WalRecord::Delete { id: 1 })
            .expect("1st: no sync yet");
        wal.append(&WalRecord::Delete { id: 2 })
            .expect("2nd: no sync yet");
        let err = wal
            .append(&WalRecord::Delete { id: 3 })
            .expect_err("3rd syncs and fails");
        assert!(matches!(err, WalError::Io(_)));
        assert_eq!(wal.stats().sync_errors, 1);

        // `OnFlush` is the policy with no nth append: the armed failure waits,
        // however many records go by, until the caller's own `flush` takes it.
        let storage = MemStorage::new();
        storage.set_plan(FaultPlan {
            fail_syncs: 1,
            ..Default::default()
        });
        let mut wal = Wal::new(Box::new(storage.clone()), SyncPolicy::OnFlush);
        for id in 0..64 {
            wal.append(&WalRecord::Delete { id })
                .expect("OnFlush: an append never syncs");
        }
        assert_eq!(wal.stats().sync_errors, 0);
        let err = wal.flush().expect_err("flush syncs and fails");
        assert!(matches!(err, WalError::Io(_)));
        assert_eq!(wal.stats().sync_errors, 1);
    }

    #[test]
    fn file_storage_appends_recovers_and_replaces() {
        let dir = temp_dir("file");
        let path = dir.join("index.wal");
        {
            let storage = FileStorage::open(&path).expect("open creates");
            let mut wal = Wal::new(Box::new(storage), SyncPolicy::EveryN(1));
            wal.append(&WalRecord::Insert {
                row: vec![1.5, 2.5],
            })
            .expect("append");
            wal.append(&WalRecord::Delete { id: 0 }).expect("append");
        }
        // Simulate a torn tail on disk by appending garbage shorter than a header.
        {
            let mut f = OpenOptions::new().append(true).open(&path).expect("reopen");
            f.write_all(&[0xAB, 0xCD, 0xEF]).expect("tear");
        }
        let storage = FileStorage::open(&path).expect("reopen");
        let mut wal = Wal::new(Box::new(storage), SyncPolicy::EveryN(1));
        let recs = wal
            .read_for_recovery()
            .expect("recovery truncates the tear");
        assert_eq!(
            recs,
            vec![
                WalRecord::Insert {
                    row: vec![1.5, 2.5]
                },
                WalRecord::Delete { id: 0 },
            ]
        );
        assert_eq!(wal.stats().torn_tail_bytes, 3);
        assert_eq!(
            std::fs::metadata(&path).expect("stat").len(),
            (17 + 8 + 13) as u64,
            "truncation reached the file"
        );
        // Checkpoint: the log becomes exactly one checkpoint record, via rename.
        wal.checkpoint(4).expect("checkpoint");
        let storage = FileStorage::open(&path).expect("reopen after rename");
        let mut wal = Wal::new(Box::new(storage), SyncPolicy::EveryN(1));
        let recs = wal.read_for_recovery().expect("fresh image parses");
        assert_eq!(recs, vec![WalRecord::CompactionCheckpoint { epoch: 4 }]);
        // Appends after recovery land *after* the checkpoint record.
        wal.append(&WalRecord::Delete { id: 2 })
            .expect("append after checkpoint");
        let storage = FileStorage::open(&path).expect("reopen");
        let mut wal = Wal::new(Box::new(storage), SyncPolicy::EveryN(1));
        assert_eq!(wal.read_for_recovery().expect("parses").len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
