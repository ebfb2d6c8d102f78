//! # xdx-store — resident document store
//!
//! Documents served by `xdx-server` used to be ship-per-request: every
//! consistency check, canonical solution or certain-answer query re-sent
//! and re-parsed the whole source document. This crate keeps documents
//! **resident**: decoded once, persisted as binary snapshots plus a
//! write-ahead log of node-local edits, with derived results cached per
//! document version.
//!
//! * [`store`] — the [`DocStore`]: put/get/edit/delete, crash recovery,
//!   checkpointing, version-tagged result caches;
//! * [`edit`] — [`DocEdit`] (insert/remove child, set/remove attribute),
//!   preorder-rank addressing, the wire encoding, atomic batch application;
//! * [`wal`] — length-prefixed, checksummed records with configurable
//!   `fsync` batching ([`SyncPolicy`]) and prefix-consistent torn-tail
//!   recovery;
//! * [`snapshot`] — the checkpoint segment file: binary codec frames plus
//!   a checksummed index, written atomically via tmp + rename;
//! * [`vfs`] — the filesystem seam: every store I/O goes through a
//!   [`Vfs`], so the deterministic [`FaultVfs`] can fail any single
//!   operation and the fault-matrix tests can reach every error path.
//!
//! `DESIGN.md` next to this crate documents the on-disk formats, the
//! crash-recovery argument, and the failure semantics (rollback vs sticky
//! degraded read-only mode) in full.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bytes;
pub mod edit;
pub mod key;
pub mod snapshot;
pub mod store;
pub mod vfs;
pub mod wal;

pub use key::{DocKey, DEFAULT_SETTING};

pub use edit::{
    apply_edits, decode_edits_exact, encode_edits, AppliedEdits, DocEdit, EditError,
    MAX_EDITS_PER_BATCH,
};
pub use snapshot::{
    load_snapshot_bytes, load_snapshot_frames, Snapshot, SnapshotDoc, SnapshotError, SnapshotFrame,
    SnapshotSource, SnapshotWriteError,
};
pub use store::{
    DocStore, StoreConfig, StoreError, StoreMetrics, LOCK_FILE, SNAPSHOT_FILE, WAL_FILE,
};
pub use vfs::{FaultKind, FaultPlan, FaultVfs, RealVfs, Vfs, VfsFile};
pub use wal::{replay, SyncPolicy, Wal, WalError, WalOp, WalRecord};
