//! The mutation layer: membins, tombstones, and compaction bookkeeping.
//!
//! The CSR arrays of [`crate::PartitionIndex`] are immutable by design — every scan
//! streams contiguous rows — so writes go to an LSM-flavoured side structure instead
//! (the leveldb memtable/tombstone/compaction shape, sized down to one index):
//!
//! * **Inserts** route through the trained partitioner into a per-bin append-only
//!   [`MemBin`] holding plain rows. Membins stay small between compactions, so they
//!   are scanned by the exact blocked kernels — no codes are built for delta rows.
//! * **Deletes** record a tombstone: a flag per CSR position (base points) or per
//!   membin row (inserted points). Tombstoned rows are filtered *before* top-k
//!   admission in every scan path.
//! * **Compaction** ([`crate::PartitionIndex::compacted`]) writes every bin's live
//!   candidate stream down as the CSR arrays of a new, clean index. Ids never move:
//!   live points keep theirs, inserts take the next one, and none is reused.
//!
//! The scan-order contract (DESIGN.md §2.4): a probed bin contributes its live CSR
//! rows in bucket order, then its live membin rows in insertion order; distance ties
//! break by that stream position, so a clean index scans exactly as before the layer
//! existed.
//!
//! All of this lives behind one `RwLock` on the index: queries take a read guard
//! ([`crate::PartitionIndex::delta`]) for the duration of a scan, writers take the
//! write lock per operation. A clean index never touches the lock on the query path —
//! an atomic flag short-circuits straight to the immutable CSR scan.

use std::fmt;

use crate::wal::WalError;

/// Why a mutation was refused — the one error type every write path (searcher,
/// `QueryEngine`, TCP ingress) speaks, so "bad id" means the same thing at every
/// layer. Validation runs *before* the WAL append, so a refused
/// mutation reaches neither the log nor the in-memory state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutationError {
    /// The inserted row's dimensionality does not match the index.
    DimsMismatch { got: usize, want: usize },
    /// The deleted id was never assigned (out of range).
    UnknownId { id: usize },
    /// The deleted id is already tombstoned, or an earlier compaction dropped it.
    AlreadyDeleted { id: usize },
    /// Every `u32` id has been issued; ids are never reused, so no insert can get one.
    IdSpaceExhausted,
    /// The engine's index does not support online mutations.
    Unsupported,
    /// The write-ahead append failed: the mutation was **not** applied and must
    /// not be acked (see [`crate::wal`] for the poison/recovery discipline).
    Wal(WalError),
}

impl fmt::Display for MutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationError::DimsMismatch { got, want } => {
                write!(f, "point dim {got} != index dim {want}")
            }
            MutationError::UnknownId { id } => write!(f, "id {id} out of range"),
            MutationError::AlreadyDeleted { id } => write!(f, "id {id} already deleted"),
            MutationError::IdSpaceExhausted => write!(f, "every u32 id has been issued"),
            MutationError::Unsupported => write!(f, "engine does not support online mutations"),
            MutationError::Wal(e) => write!(f, "wal append failed: {e}"),
        }
    }
}

impl std::error::Error for MutationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MutationError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WalError> for MutationError {
    fn from(e: WalError) -> Self {
        MutationError::Wal(e)
    }
}

/// One bin's append-only in-memory delta: plain rows in insertion order, their
/// global ids, and per-row tombstones.
#[derive(Debug, Clone)]
pub struct MemBin {
    dim: usize,
    /// Row-major rows, stride `dim`, in insertion order.
    rows: Vec<f32>,
    /// Global id of each row (assigned by the index at insert time).
    ids: Vec<u32>,
    /// Tombstones, parallel to `ids`.
    deleted: Vec<bool>,
    /// Number of set tombstones.
    dead: usize,
}

impl MemBin {
    fn new(dim: usize) -> Self {
        Self {
            dim,
            rows: Vec::new(),
            ids: Vec::new(),
            deleted: Vec::new(),
            dead: 0,
        }
    }

    /// Number of rows ever appended (live + tombstoned).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing was ever appended.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of live (non-tombstoned) rows.
    pub fn live(&self) -> usize {
        self.ids.len() - self.dead
    }

    /// Global ids in insertion order.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Tombstone mask, parallel to [`Self::ids`].
    pub fn deleted(&self) -> &[bool] {
        &self.deleted
    }

    /// The row-major row buffer (stride = index dim), insertion order.
    pub fn rows(&self) -> &[f32] {
        &self.rows
    }

    /// One row by membin position.
    pub fn row(&self, j: usize) -> &[f32] {
        &self.rows[j * self.dim..(j + 1) * self.dim]
    }

    fn push(&mut self, id: u32, point: &[f32]) {
        debug_assert_eq!(point.len(), self.dim);
        self.rows.extend_from_slice(point);
        self.ids.push(id);
        self.deleted.push(false);
    }

    /// Sets row `j`'s tombstone; false when already set.
    fn tombstone(&mut self, j: usize) -> bool {
        if self.deleted[j] {
            return false;
        }
        self.deleted[j] = true;
        self.dead += 1;
        true
    }
}

/// The whole delta of one index: per-bin membins plus tombstones over the immutable
/// CSR positions. Owned by the index behind a `RwLock`; scans read it through
/// [`crate::PartitionIndex::delta`].
#[derive(Debug)]
pub struct MutationState {
    /// The id this delta's first insert takes; every id below it was issued earlier.
    first_id: usize,
    /// One membin per bin.
    membins: Vec<MemBin>,
    /// Tombstones over **CSR local positions** (not global ids): position `local`
    /// tombstones the point `ids[local]` of the bin-contiguous layout, so scans
    /// mask the stream they walk without an id translation.
    csr_deleted: Vec<bool>,
    /// Set tombstones per bin (lets an untouched bin scan as one contiguous run).
    csr_dead_in_bin: Vec<usize>,
    /// Total set CSR tombstones.
    csr_dead: usize,
    /// Location of every inserted id, in insertion order: entry `j` places id
    /// `first_id + j` at `membins[bin].row(row)`.
    insert_locs: Vec<(u32, u32)>,
    /// Inserted-then-deleted count.
    dead_inserts: usize,
}

impl MutationState {
    /// A clean delta over `rows` CSR rows whose inserts take ids from `first_id` on.
    pub(crate) fn new(dim: usize, rows: usize, bins: usize, first_id: usize) -> Self {
        Self {
            first_id,
            membins: (0..bins).map(|_| MemBin::new(dim)).collect(),
            csr_deleted: vec![false; rows],
            csr_dead_in_bin: vec![0; bins],
            csr_dead: 0,
            insert_locs: Vec::new(),
            dead_inserts: 0,
        }
    }

    /// The id the next insert takes.
    pub(crate) fn next_id(&self) -> usize {
        self.first_id + self.insert_locs.len()
    }

    /// `(bin, membin row)` of inserted id `id`, or `None` when `id` was not issued
    /// by this delta.
    pub(crate) fn insert_loc(&self, id: usize) -> Option<(u32, u32)> {
        let j = id.checked_sub(self.first_id)?;
        self.insert_locs.get(j).copied()
    }

    /// Number of points ever inserted (live + tombstoned).
    pub fn total_inserts(&self) -> usize {
        self.insert_locs.len()
    }

    /// Number of live inserted points.
    pub fn live_inserts(&self) -> usize {
        self.insert_locs.len() - self.dead_inserts
    }

    /// Total set CSR tombstones.
    pub fn csr_dead(&self) -> usize {
        self.csr_dead
    }

    /// Inserted-then-deleted count.
    pub fn dead_inserts(&self) -> usize {
        self.dead_inserts
    }

    /// Set CSR tombstones within one bin.
    pub fn csr_dead_in_bin(&self, bin: usize) -> usize {
        self.csr_dead_in_bin[bin]
    }

    /// The CSR-position tombstone mask (one flag per CSR row).
    pub fn csr_deleted(&self) -> &[bool] {
        &self.csr_deleted
    }

    /// One bin's membin.
    pub fn membin(&self, bin: usize) -> &MemBin {
        &self.membins[bin]
    }

    /// Appends a point to `bin`'s membin under global id `id`.
    pub(crate) fn push_insert(&mut self, bin: usize, id: u32, point: &[f32]) {
        let row = self.membins[bin].len() as u32;
        self.membins[bin].push(id, point);
        self.insert_locs.push((bin as u32, row));
    }

    /// Tombstones the CSR position `csr_pos` of `bin`; false when already set.
    pub(crate) fn tombstone_csr(&mut self, bin: usize, csr_pos: usize) -> bool {
        if self.csr_deleted[csr_pos] {
            return false;
        }
        self.csr_deleted[csr_pos] = true;
        self.csr_dead_in_bin[bin] += 1;
        self.csr_dead += 1;
        true
    }

    /// Tombstones inserted id `id` (issued by this delta); false when already set.
    pub(crate) fn tombstone_insert(&mut self, id: usize) -> bool {
        let (bin, row) = self.insert_locs[id - self.first_id];
        if self.membins[bin as usize].tombstone(row as usize) {
            self.dead_inserts += 1;
            true
        } else {
            false
        }
    }
}

/// What one [`crate::PartitionIndex::compacted`] folded in.
#[derive(Debug, Clone)]
pub struct CompactionReport {
    /// Points in the compacted index.
    pub live_points: usize,
    /// Membin rows merged into the new CSR arrays.
    pub merged_inserts: usize,
    /// Tombstoned points (base + inserted) dropped for good. Their ids are not
    /// reused: deleting one again reports [`MutationError::AlreadyDeleted`].
    pub dropped_tombstones: usize,
}

/// A snapshot of an index's outstanding delta, for compaction policies and stats
/// endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MutationStats {
    /// Rows in the immutable CSR arrays.
    pub base_points: usize,
    /// Points ever inserted since the last compaction (live + tombstoned).
    pub inserts: usize,
    /// Live inserted points.
    pub live_inserts: usize,
    /// Set tombstones (base + inserted points).
    pub tombstones: usize,
    /// Delta size relative to the base: `(inserts + base tombstones) / base_points`
    /// — the quantity [`crate::PartitionIndex::needs_compaction`] thresholds.
    pub delta_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membin_appends_and_tombstones() {
        let mut mb = MemBin::new(2);
        assert!(mb.is_empty());
        mb.push(10, &[1.0, 2.0]);
        mb.push(11, &[3.0, 4.0]);
        assert_eq!(mb.len(), 2);
        assert_eq!(mb.live(), 2);
        assert_eq!(mb.row(1), &[3.0, 4.0]);
        assert_eq!(mb.ids(), &[10, 11]);
        assert!(mb.tombstone(0));
        assert!(!mb.tombstone(0));
        assert_eq!(mb.live(), 1);
        assert_eq!(mb.deleted(), &[true, false]);
    }

    #[test]
    fn state_tracks_inserts_and_tombstones_per_bin() {
        let mut s = MutationState::new(1, 4, 2, 4);
        assert_eq!((s.total_inserts(), s.csr_dead()), (0, 0));
        s.push_insert(1, 4, &[9.0]);
        s.push_insert(0, 5, &[8.0]);
        s.push_insert(1, 6, &[7.0]);
        let locs: Vec<_> = (3..8).map(|id| s.insert_loc(id)).collect();
        assert_eq!(locs, [None, Some((1, 0)), Some((0, 0)), Some((1, 1)), None]);
        assert_eq!((s.total_inserts(), s.next_id()), (3, 7));
        assert_eq!(s.membin(1).ids(), &[4, 6]);
        assert!(s.tombstone_insert(6));
        assert!(!s.tombstone_insert(6));
        assert_eq!((s.live_inserts(), s.dead_inserts()), (2, 1));
        assert!(s.tombstone_csr(0, 2));
        assert!(!s.tombstone_csr(0, 2));
        assert_eq!((s.csr_dead(), s.csr_dead_in_bin(0)), (1, 1));
        assert_eq!(s.csr_dead_in_bin(1), 0);
        assert_eq!(s.csr_deleted(), &[false, false, true, false]);
    }
}
