//! The write-ahead log.
//!
//! Every mutation the store acknowledges — `Put`, `Edit`, `Delete` — is
//! appended here before the call returns, so a crash at any point loses at
//! most the operations whose appends had not completed (and, under a
//! batched [`SyncPolicy`], at most the unsynced tail). Recovery is
//! **prefix-consistent**: [`replay`] decodes records until the first one
//! that is torn, checksum-corrupt or semantically undecodable, keeps
//! everything before it and reports the byte offset where the valid prefix
//! ends; [`Wal::open`] truncates the file there, so a torn tail can never
//! corrupt — only shorten — history.
//!
//! # Record layout (format v2 — setting-scoped keys)
//!
//! All integers big-endian, like the rest of the workspace's formats.
//!
//! ```text
//! record  := len:u32  crc:u64  payload        -- len = |payload|, crc = FNV-1a(payload)
//! payload := op:u8  setting_id:u64  doc_id:u64  version:u64  body
//! body    := frame                            -- op 0x11 (Put): a binary document frame
//!          | n:u16  n × edit                  -- op 0x12 (Edit): see crate::edit
//!          | ε                                -- op 0x13 (Delete)
//! ```
//!
//! Format v1 (ops `1..=3`, no `setting_id`) predates the multi-tenant
//! setting registry. The op codes were bumped with the layout so a v1
//! record can never half-decode as a v2 one: replay treats a v1 log as an
//! unrecognizable tail (see `DESIGN.md` on the pre-1.0 format bump).
//!
//! `version` is the document's version **after** the operation applies — a
//! stamp from the *store-wide* monotone mutation sequence, so record
//! versions are strictly increasing through the file and never reused
//! across a delete + re-put. Replay compares them against the sequence
//! recorded in the snapshot footer to skip records the snapshot already
//! covers (which is what makes a crash between snapshot rename and WAL
//! truncation harmless — see [`crate::store`]).

use crate::bytes::Cursor;
use crate::edit::{decode_edits, encode_edits, DocEdit};
use crate::key::DocKey;
use crate::vfs::{Vfs, VfsFile};
use std::fmt;
use std::path::Path;
use xdx_xmltree::fnv1a;
use xdx_xmltree::limits::MAX_DOCUMENT_BYTES;

/// Upper bound on one record's payload. A `Put` carries a whole encoded
/// document, so this tracks the codec's hard cap (plus header slack) rather
/// than the much smaller per-frame wire default.
pub const MAX_RECORD_BYTES: usize = MAX_DOCUMENT_BYTES + 64;

/// When `append` pushes bytes to the kernel, when does it also `fsync`?
///
/// The choice trades the *durability* of the most recent tail against
/// throughput; it never affects consistency — recovery is prefix-consistent
/// under every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every record (durable the moment `append` returns).
    Always,
    /// `fsync` once at least this many bytes have accumulated since the
    /// last sync — the batching mode for edit-heavy workloads.
    EveryBytes(u64),
    /// Never `fsync` from `append` (the OS flushes on its own schedule;
    /// checkpoints still sync). For tests and bulk loads.
    Never,
}

/// One logged operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// A whole document was stored (body: binary document frame).
    Put(Vec<u8>),
    /// A batch of node-local edits was applied.
    Edit(Vec<DocEdit>),
    /// The document was deleted.
    Delete,
}

/// One WAL record: which document (setting-scoped), the version after the
/// operation, and the operation itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Setting-scoped document key.
    pub key: DocKey,
    /// Document version after this operation (a store-wide sequence stamp;
    /// see the module docs).
    pub version: u64,
    /// The operation.
    pub op: WalOp,
}

// Format-v2 op codes; v1 used 1..=3 with a setting-less payload, and the
// bump keeps the two layouts from ever half-decoding as each other.
const OP_PUT: u8 = 0x11;
const OP_EDIT: u8 = 0x12;
const OP_DELETE: u8 = 0x13;

impl WalRecord {
    /// Encode the payload (everything the checksum covers).
    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            1 + 8
                + 8
                + 8
                + match &self.op {
                    WalOp::Put(frame) => frame.len(),
                    WalOp::Edit(edits) => 2 + edits.len() * 16,
                    WalOp::Delete => 0,
                },
        );
        out.push(match &self.op {
            WalOp::Put(_) => OP_PUT,
            WalOp::Edit(_) => OP_EDIT,
            WalOp::Delete => OP_DELETE,
        });
        out.extend_from_slice(&self.key.setting.to_be_bytes());
        out.extend_from_slice(&self.key.doc.to_be_bytes());
        out.extend_from_slice(&self.version.to_be_bytes());
        match &self.op {
            WalOp::Put(frame) => out.extend_from_slice(frame),
            WalOp::Edit(edits) => encode_edits(edits, &mut out),
            WalOp::Delete => {}
        }
        out
    }

    /// Decode one payload. `None` means the payload is not a valid record
    /// (recovery treats that as the end of the consistent prefix).
    fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
        let mut c = Cursor::new(payload);
        let op = c.u8()?;
        let setting = c.u64()?;
        let doc = c.u64()?;
        let version = c.u64()?;
        let op = match op {
            OP_PUT => WalOp::Put(c.take(c.remaining())?.to_vec()),
            OP_EDIT => {
                let edits = decode_edits(&mut c).ok()?;
                if !c.is_empty() {
                    return None;
                }
                WalOp::Edit(edits)
            }
            OP_DELETE => {
                if !c.is_empty() {
                    return None;
                }
                WalOp::Delete
            }
            _ => return None,
        };
        Some(WalRecord {
            key: DocKey::new(setting, doc),
            version,
            op,
        })
    }
}

/// Decode the longest consistent prefix of a WAL image. Returns the decoded
/// records and the byte length of that prefix. Total over arbitrary bytes:
/// a torn header, a length past the buffer (or past [`MAX_RECORD_BYTES`]),
/// a checksum mismatch or an undecodable payload all just end the prefix —
/// no panic, no allocation sized from untrusted lengths.
pub fn replay(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut c = Cursor::new(bytes);
    let mut good = 0usize;
    while let Some(len) = c.u32() {
        let len = len as usize;
        if len > MAX_RECORD_BYTES {
            break;
        }
        let Some(crc) = c.u64() else { break };
        let Some(payload) = c.take(len) else { break };
        if fnv1a(payload) != crc {
            break;
        }
        let Some(rec) = WalRecord::decode_payload(payload) else {
            break;
        };
        records.push(rec);
        good = c.pos();
    }
    (records, good)
}

/// How a WAL write failed — the distinction the store's failure semantics
/// turn on (see `DESIGN.md`).
#[derive(Debug)]
pub enum WalError {
    /// The operation failed but the log was **rolled back** to its
    /// pre-operation length: the on-disk log still matches what the store
    /// has acknowledged, so the store can reject the one operation and
    /// keep serving normally.
    RolledBack(std::io::Error),
    /// The log's on-disk state is no longer known to match memory — a
    /// failed `fsync` (which may have dropped dirty pages; it is never
    /// retried), or a rollback that itself failed. The store must stop
    /// acknowledging mutations (sticky degraded mode).
    Broken(std::io::Error),
}

impl WalError {
    /// The underlying I/O error.
    pub fn io(&self) -> &std::io::Error {
        match self {
            WalError::RolledBack(e) | WalError::Broken(e) => e,
        }
    }

    /// Take the underlying I/O error.
    pub fn into_io(self) -> std::io::Error {
        match self {
            WalError::RolledBack(e) | WalError::Broken(e) => e,
        }
    }
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::RolledBack(e) => write!(f, "WAL append failed (rolled back): {e}"),
            WalError::Broken(e) => write!(f, "WAL broken (on-disk state unknown): {e}"),
        }
    }
}

impl std::error::Error for WalError {}

/// An open, append-only WAL file.
#[derive(Debug)]
pub struct Wal {
    file: Box<dyn VfsFile>,
    policy: SyncPolicy,
    unsynced: u64,
    len: u64,
    fsync_hist: Option<std::sync::Arc<xdx_obs::Histogram>>,
}

impl Wal {
    /// Open (creating if absent) the log at `path`, replay its consistent
    /// prefix, and truncate any torn tail. Returns the log positioned for
    /// appends plus the replayed records.
    pub fn open(
        vfs: &dyn Vfs,
        path: &Path,
        policy: SyncPolicy,
    ) -> std::io::Result<(Wal, Vec<WalRecord>)> {
        let bytes = match vfs.read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (records, good) = replay(&bytes);
        let mut file = vfs.open_rw(path)?;
        if bytes.len() > good {
            file.set_len(good as u64)?;
            file.sync_all()?;
        }
        file.seek_to(good as u64)?;
        Ok((
            Wal {
                file,
                policy,
                unsynced: 0,
                len: good as u64,
                fsync_hist: None,
            },
            records,
        ))
    }

    /// Append one record (and `fsync` per the policy). The operation is
    /// recoverable once this returns — immediately under
    /// [`SyncPolicy::Always`], after the next sync otherwise.
    ///
    /// On failure the error says which side of the rollback line the log
    /// landed on: [`WalError::RolledBack`] means the log was truncated back
    /// to its pre-append length (disk still matches acknowledged history);
    /// [`WalError::Broken`] means it was not — a failed rollback, or a
    /// failed `fsync` after the bytes were already written.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        let payload = record.encode_payload();
        assert!(
            payload.len() <= MAX_RECORD_BYTES,
            "WAL record exceeds MAX_RECORD_BYTES"
        );
        let mut buf = Vec::with_capacity(12 + payload.len());
        buf.extend_from_slice(
            &u32::try_from(payload.len())
                .expect("record length")
                .to_be_bytes(),
        );
        buf.extend_from_slice(&fnv1a(&payload).to_be_bytes());
        buf.extend_from_slice(&payload);
        let pre_len = self.len;
        if let Err(e) = self.file.write_all(&buf) {
            // A failed (possibly short) write: truncate the log back to the
            // acknowledged prefix and reposition. If that works, disk still
            // matches memory; if it does not, the tail is in an unknown
            // state and the log is broken. (Replay would truncate a torn
            // tail at the next open either way — the rollback is what lets
            // the *running* store keep serving.)
            return match self
                .file
                .set_len(pre_len)
                .and_then(|()| self.file.seek_to(pre_len))
            {
                Ok(()) => Err(WalError::RolledBack(e)),
                Err(_) => Err(WalError::Broken(e)),
            };
        }
        self.len += buf.len() as u64;
        self.unsynced += buf.len() as u64;
        match self.policy {
            // A failed fsync is never rolled back and never retried: the
            // kernel may have discarded the dirty pages while reporting
            // which of them reached the disk to nobody.
            SyncPolicy::Always => self.sync().map_err(WalError::Broken)?,
            SyncPolicy::EveryBytes(n) => {
                if self.unsynced >= n {
                    self.sync().map_err(WalError::Broken)?;
                }
            }
            SyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Force everything appended so far to stable storage. A failure here
    /// means durability of the unsynced tail is unknown — callers must
    /// treat it as fatal for further mutations (never retry a failed
    /// fsync; see `DESIGN.md`).
    pub fn sync(&mut self) -> std::io::Result<()> {
        if self.unsynced > 0 {
            let started = self.fsync_hist.as_ref().map(|_| std::time::Instant::now());
            self.file.sync_data()?;
            if let (Some(hist), Some(t0)) = (&self.fsync_hist, started) {
                hist.record_duration(t0.elapsed());
            }
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Record every subsequent data-`fsync` latency into `hist`. Only syncs
    /// that actually reach [`VfsFile::sync_data`] are recorded (a no-op
    /// [`Wal::sync`] with nothing unsynced is free and stays unrecorded),
    /// and failed syncs are not: the store is about to go degraded and a
    /// partial timing would pollute the latency profile.
    pub fn set_fsync_histogram(&mut self, hist: std::sync::Arc<xdx_obs::Histogram>) {
        self.fsync_hist = Some(hist);
    }

    /// Discard the whole log (a checkpoint has made it redundant). On
    /// failure the file's state is unknown — callers must treat it like a
    /// failed fsync.
    pub fn reset(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek_to(0)?;
        self.file.sync_all()?;
        self.len = 0;
        self.unsynced = 0;
        Ok(())
    }

    /// Current byte length of the log.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdx_xmltree::AttrName;
    use xdx_xmltree::Value;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord {
                key: DocKey::from(1),
                version: 1,
                op: WalOp::Put(vec![1, 2, 3, 4]),
            },
            WalRecord {
                key: DocKey::new(9, 1),
                version: 2,
                op: WalOp::Edit(vec![DocEdit::SetAttr {
                    node: 0,
                    name: AttrName::new("@a"),
                    value: Value::constant("v"),
                }]),
            },
            WalRecord {
                key: DocKey::from(1),
                version: 3,
                op: WalOp::Delete,
            },
        ]
    }

    fn encode_all(records: &[WalRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in records {
            let payload = r.encode_payload();
            out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            out.extend_from_slice(&fnv1a(&payload).to_be_bytes());
            out.extend_from_slice(&payload);
        }
        out
    }

    #[test]
    fn records_round_trip() {
        let records = sample_records();
        let bytes = encode_all(&records);
        let (back, good) = replay(&bytes);
        assert_eq!(back, records);
        assert_eq!(good, bytes.len());
    }

    #[test]
    fn every_truncation_recovers_a_record_prefix() {
        let records = sample_records();
        let bytes = encode_all(&records);
        for cut in 0..bytes.len() {
            let (back, good) = replay(&bytes[..cut]);
            assert!(good <= cut);
            assert_eq!(back.as_slice(), &records[..back.len()], "prefix property");
            // Re-replaying the reported-good prefix yields the same records.
            let (again, good2) = replay(&bytes[..good]);
            assert_eq!(again, back);
            assert_eq!(good2, good);
        }
    }

    #[test]
    fn corrupt_tails_stop_the_replay_cleanly() {
        let records = sample_records();
        let bytes = encode_all(&records);
        // Flip one bit inside the *last* record's payload: the first two
        // records must survive, the last must be dropped.
        let mut b = bytes.clone();
        let last = b.len() - 2;
        b[last] ^= 0x40;
        let (back, good) = replay(&b);
        assert_eq!(back, records[..2]);
        assert!(good < bytes.len());
    }

    #[test]
    fn garbage_never_panics_and_yields_nothing() {
        let (r, good) = replay(&[0xff; 37]);
        assert!(r.is_empty());
        assert_eq!(good, 0);
        // A length field claiming more than the cap.
        let mut b = (u32::MAX).to_be_bytes().to_vec();
        b.extend_from_slice(&[0u8; 32]);
        let (r, good) = replay(&b);
        assert!(r.is_empty());
        assert_eq!(good, 0);
    }

    #[test]
    fn format_v1_records_do_not_half_decode() {
        // A well-checksummed v1 record (op 1, no setting_id): the v2
        // decoder must reject it outright — ending the prefix — rather
        // than misread its fields into a scoped key.
        let mut payload = vec![1u8]; // v1 OP_PUT
        payload.extend_from_slice(&7u64.to_be_bytes()); // doc_id
        payload.extend_from_slice(&1u64.to_be_bytes()); // version
        payload.extend_from_slice(&[0xAA; 16]); // frame
        let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&fnv1a(&payload).to_be_bytes());
        bytes.extend_from_slice(&payload);
        let (records, good) = replay(&bytes);
        assert!(records.is_empty());
        assert_eq!(good, 0);
    }

    #[test]
    fn open_truncates_torn_tails_and_appends_after_them() {
        let dir = std::env::temp_dir().join(format!("xdx-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);

        let records = sample_records();
        let mut torn = encode_all(&records[..2]);
        let keep = torn.len();
        torn.extend_from_slice(&encode_all(&records[2..])[..7]); // torn third record
        std::fs::write(&path, &torn).unwrap();

        let (mut wal, replayed) =
            Wal::open(&crate::vfs::RealVfs, &path, SyncPolicy::Always).unwrap();
        assert_eq!(replayed, records[..2]);
        assert_eq!(wal.len(), keep as u64);
        wal.append(&records[2]).unwrap();
        drop(wal);

        let (_, replayed) = Wal::open(&crate::vfs::RealVfs, &path, SyncPolicy::Never).unwrap();
        assert_eq!(
            replayed, records,
            "append lands cleanly after the truncation"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn failed_appends_roll_the_log_back_to_the_acknowledged_prefix() {
        use crate::vfs::{FaultKind, FaultPlan, FaultVfs};
        let dir = std::env::temp_dir().join(format!("xdx-wal-rollback-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        let records = sample_records();

        let vfs = FaultVfs::real(FaultPlan::count_only());
        let (mut wal, _) = Wal::open(&vfs, &path, SyncPolicy::Always).unwrap();
        wal.append(&records[0]).unwrap();
        // Fail the next write with a torn (short) write: the rollback must
        // truncate the partial record so the on-disk log still holds
        // exactly the acknowledged record.
        let next_write = vfs.ops(); // append's write_all is the next op
        vfs.set_plan(FaultPlan::fail_op_with(next_write, FaultKind::ShortWrite));
        let err = wal.append(&records[1]).unwrap_err();
        assert!(matches!(err, WalError::RolledBack(_)), "{err}");
        assert_eq!(wal.len(), {
            let p = records[0].encode_payload();
            (12 + p.len()) as u64
        });
        // The log keeps working: the rolled-back record can be re-appended.
        wal.append(&records[1]).unwrap();
        drop(wal);
        let (_, replayed) = Wal::open(&crate::vfs::RealVfs, &path, SyncPolicy::Never).unwrap();
        assert_eq!(replayed, records[..2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_fsyncs_report_the_log_broken() {
        use crate::vfs::{FaultPlan, FaultVfs};
        let dir = std::env::temp_dir().join(format!("xdx-wal-fsync-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        let records = sample_records();

        let vfs = FaultVfs::real(FaultPlan::count_only());
        let (mut wal, _) = Wal::open(&vfs, &path, SyncPolicy::Always).unwrap();
        wal.append(&records[0]).unwrap();
        vfs.set_plan(FaultPlan::fail_sync(vfs.sync_ops()));
        let err = wal.append(&records[1]).unwrap_err();
        assert!(matches!(err, WalError::Broken(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
