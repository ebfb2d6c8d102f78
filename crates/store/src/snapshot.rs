//! Checkpoint snapshots.
//!
//! A snapshot is one segment file holding every resident document as a
//! binary codec frame ([`xdx_xmltree::binary`]), followed by a checksummed
//! index and a footer that locates it:
//!
//! ```text
//! file    := magic:8 ("XDXSNAP2")  frames…  index  footer
//! index   := count × entry                 -- entries sorted by (setting, doc)
//! entry   := setting_id:u64 doc_id:u64 version:u64 offset:u64 len:u32 crc:u64   (44 bytes)
//! footer  := seq:u64 index_offset:u64 index_count:u32 index_crc:u64 magic:8 ("XDXSNAPE")
//! ```
//!
//! Format v1 (`XDXSNAP1`, 36-byte entries without the setting id) predates
//! the multi-tenant setting registry; the magic bump makes a v1 file fail
//! loudly at open instead of misparsing (see `DESIGN.md`).
//!
//! `seq` is the store-wide mutation sequence at checkpoint time — every
//! WAL record whose version is at or below it is already reflected in the
//! snapshot, which is what WAL replay skips by (see [`crate::store`]).
//! `offset`/`len` locate a frame (absolute file offsets), `crc` is FNV-1a
//! of the frame bytes, `index_crc` FNV-1a of the index bytes followed by
//! the footer's own `seq`/`index_offset`/`index_count` fields (so a bit
//! flip in the sequence cannot silently change which records replay). The
//! loader validates magics, footer geometry, index checksum, entry bounds
//! and per-frame checksums before decoding any frame, and the frame
//! decoder itself is total — so arbitrary bytes produce a
//! [`SnapshotError`], never a panic or an oversized allocation.
//!
//! Snapshots are written to `<name>.tmp`, fsynced, then atomically renamed
//! over `<name>` (and the directory fsynced): at every instant the named
//! file is either the complete old snapshot or the complete new one. A
//! corrupt named snapshot therefore indicates storage-level damage, and
//! loading reports it as an error instead of guessing.

use crate::bytes::Cursor;
use crate::key::DocKey;
use crate::vfs::Vfs;
use std::fmt;
use std::path::Path;
use xdx_xmltree::{decode_tree, encode_tree, fnv1a, XmlTree};

const MAGIC: &[u8; 8] = b"XDXSNAP2";
const V1_MAGIC: &[u8; 8] = b"XDXSNAP1";
const FOOTER_MAGIC: &[u8; 8] = b"XDXSNAPE";
const ENTRY_BYTES: usize = 8 + 8 + 8 + 8 + 4 + 8;
const FOOTER_BYTES: usize = 8 + 8 + 4 + 8 + 8;

/// A validated snapshot: the store-wide mutation sequence recorded at
/// checkpoint time plus every document frame, sorted by id.
#[derive(Debug)]
pub struct Snapshot {
    /// Store-wide mutation sequence at checkpoint time. WAL records whose
    /// version is `<= seq` are already reflected in `docs`.
    pub seq: u64,
    /// Checksum-verified, still-undecoded document frames.
    pub docs: Vec<SnapshotFrame>,
}

/// One document recovered from a snapshot.
#[derive(Debug)]
pub struct SnapshotDoc {
    /// Setting-scoped document key.
    pub key: DocKey,
    /// Version at checkpoint time.
    pub version: u64,
    /// The document.
    pub tree: XmlTree,
}

/// One checksum-verified but still *undecoded* document frame — what the
/// lazy load path hands to [`crate::store::DocStore`], which materializes
/// the tree on first access instead of paying per-node construction for
/// every resident document at open time.
#[derive(Debug)]
pub struct SnapshotFrame {
    /// Setting-scoped document key.
    pub key: DocKey,
    /// Version at checkpoint time.
    pub version: u64,
    /// The binary codec frame (checksum already verified).
    pub frame: Vec<u8>,
}

/// Why a snapshot image was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    /// Human-readable description.
    pub message: String,
}

impl SnapshotError {
    fn new(message: impl Into<String>) -> SnapshotError {
        SnapshotError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot: {}", self.message)
    }
}

impl std::error::Error for SnapshotError {}

/// Decode a snapshot image fully (see the module docs; total over arbitrary
/// bytes). Documents come back sorted by id. This is the eager twin of
/// [`load_snapshot_frames`] — tools and tests that want trees now.
pub fn load_snapshot_bytes(bytes: &[u8]) -> Result<Vec<SnapshotDoc>, SnapshotError> {
    load_snapshot_frames(bytes)?
        .docs
        .into_iter()
        .map(|f| {
            let tree = decode_tree(&f.frame).map_err(|e| {
                SnapshotError::new(format!("frame for document {} does not decode: {e}", f.key))
            })?;
            Ok(SnapshotDoc {
                key: f.key,
                version: f.version,
                tree,
            })
        })
        .collect()
}

/// Validate a snapshot image — magics, footer geometry, index checksum,
/// entry bounds, per-frame checksums — and return the checkpoint sequence
/// and raw frames *without* decoding any tree. Total over arbitrary bytes.
pub fn load_snapshot_frames(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    if bytes.len() < MAGIC.len() + FOOTER_BYTES {
        return Err(SnapshotError::new(format!(
            "{} bytes is shorter than an empty snapshot",
            bytes.len()
        )));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        if &bytes[..V1_MAGIC.len()] == V1_MAGIC {
            return Err(SnapshotError::new(
                "format-v1 snapshot (XDXSNAP1, no setting ids) — \
                 this build reads only format v2; see DESIGN.md",
            ));
        }
        return Err(SnapshotError::new("bad leading magic"));
    }
    let footer = &bytes[bytes.len() - FOOTER_BYTES..];
    if &footer[FOOTER_BYTES - 8..] != FOOTER_MAGIC {
        return Err(SnapshotError::new("bad trailing magic"));
    }
    let mut f = Cursor::new(footer);
    let seq = f.u64().expect("footer sized above");
    let index_offset = f.u64().expect("footer sized above") as usize;
    let index_count = f.u32().expect("footer sized above") as usize;
    let index_crc = f.u64().expect("footer sized above");

    let index_end = bytes.len() - FOOTER_BYTES;
    let index_bytes_len = index_count
        .checked_mul(ENTRY_BYTES)
        .ok_or_else(|| SnapshotError::new("index count overflows"))?;
    if index_offset < MAGIC.len()
        || index_offset > index_end
        || index_end - index_offset != index_bytes_len
    {
        return Err(SnapshotError::new(format!(
            "footer index geometry is inconsistent \
             (offset {index_offset}, count {index_count}, file {} bytes)",
            bytes.len()
        )));
    }
    let index = &bytes[index_offset..index_end];
    if footer_crc(index, seq, index_offset as u64, index_count as u32) != index_crc {
        return Err(SnapshotError::new("index checksum mismatch"));
    }

    let mut docs = Vec::with_capacity(index_count);
    let mut c = Cursor::new(index);
    let mut last_key: Option<DocKey> = None;
    for _ in 0..index_count {
        let setting = c.u64().expect("index sized above");
        let doc = c.u64().expect("index sized above");
        let key = DocKey::new(setting, doc);
        let version = c.u64().expect("index sized above");
        let offset = c.u64().expect("index sized above") as usize;
        let len = c.u32().expect("index sized above") as usize;
        let crc = c.u64().expect("index sized above");
        if last_key.is_some_and(|p| p >= key) {
            return Err(SnapshotError::new("index keys are not strictly increasing"));
        }
        last_key = Some(key);
        if offset < MAGIC.len() || offset.saturating_add(len) > index_offset {
            return Err(SnapshotError::new(format!(
                "frame for document {key} is out of bounds"
            )));
        }
        let frame = &bytes[offset..offset + len];
        if fnv1a(frame) != crc {
            return Err(SnapshotError::new(format!(
                "frame checksum mismatch for document {key}"
            )));
        }
        docs.push(SnapshotFrame {
            key,
            version,
            frame: frame.to_vec(),
        });
    }
    Ok(Snapshot { seq, docs })
}

/// Checksum guarding the index *and* the footer's own fields: a bit flip
/// in the recorded sequence must fail validation, not silently change
/// which WAL records replay.
fn footer_crc(index: &[u8], seq: u64, index_offset: u64, count: u32) -> u64 {
    let mut buf = Vec::with_capacity(index.len() + 20);
    buf.extend_from_slice(index);
    buf.extend_from_slice(&seq.to_be_bytes());
    buf.extend_from_slice(&index_offset.to_be_bytes());
    buf.extend_from_slice(&count.to_be_bytes());
    fnv1a(&buf)
}

/// Load the snapshot at `path` without decoding trees (the store's open
/// path). A missing file is an empty store (`Ok` with no documents and
/// sequence 0); unreadable or corrupt bytes are errors.
pub fn load_snapshot(vfs: &dyn Vfs, path: &Path) -> Result<Snapshot, crate::store::StoreError> {
    let bytes = match vfs.read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(Snapshot {
                seq: 0,
                docs: Vec::new(),
            })
        }
        Err(e) => return Err(crate::store::StoreError::Io(e)),
    };
    load_snapshot_frames(&bytes).map_err(|e| crate::store::StoreError::Corrupt {
        context: format!("{} — {e}", path.display()),
    })
}

/// What a snapshot writer has in hand for one document: a live tree (to be
/// encoded) or a frame that is still byte-identical to the document — an
/// undecoded lazy load, which the checkpoint copies through verbatim
/// instead of decode + re-encode.
#[derive(Debug, Clone, Copy)]
pub enum SnapshotSource<'a> {
    /// Encode this tree.
    Tree(&'a XmlTree),
    /// Copy these (already encoded) frame bytes through.
    Frame(&'a [u8]),
}

/// Serialize a snapshot image. `seq` is the store-wide mutation sequence
/// the snapshot reflects; `docs` must be sorted by key (the store's
/// iteration provides that).
pub fn encode_snapshot<'a>(
    seq: u64,
    docs: impl Iterator<Item = (DocKey, u64, SnapshotSource<'a>)>,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    let mut index = Vec::new();
    let mut count: u32 = 0;
    for (key, version, source) in docs {
        let frame = match source {
            SnapshotSource::Tree(tree) => std::borrow::Cow::Owned(encode_tree(tree)),
            SnapshotSource::Frame(bytes) => std::borrow::Cow::Borrowed(bytes),
        };
        index.extend_from_slice(&key.setting.to_be_bytes());
        index.extend_from_slice(&key.doc.to_be_bytes());
        index.extend_from_slice(&version.to_be_bytes());
        index.extend_from_slice(&(out.len() as u64).to_be_bytes());
        index.extend_from_slice(
            &u32::try_from(frame.len())
                .expect("frame length")
                .to_be_bytes(),
        );
        index.extend_from_slice(&fnv1a(&frame).to_be_bytes());
        out.extend_from_slice(&frame);
        count += 1;
    }
    let index_offset = out.len() as u64;
    let index_crc = footer_crc(&index, seq, index_offset, count);
    out.extend_from_slice(&index);
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(&index_offset.to_be_bytes());
    out.extend_from_slice(&count.to_be_bytes());
    out.extend_from_slice(&index_crc.to_be_bytes());
    out.extend_from_slice(FOOTER_MAGIC);
    out
}

/// How a snapshot write failed — which side of the "is the old state still
/// authoritative, with durability intact?" line the failure landed on. The
/// store's checkpoint turns this into its rollback-vs-degraded decision
/// (see `DESIGN.md`).
#[derive(Debug)]
pub enum SnapshotWriteError {
    /// The attempt died before anything replaced the named snapshot and
    /// without an fsync failing (tmp create/write, or the rename itself):
    /// the previous snapshot is untouched and still durable — the
    /// checkpoint simply did not happen.
    Abandoned(std::io::Error),
    /// An fsync failed — the tmp file's before the rename, or the parent
    /// directory's after it. Durability of what the kernel accepted is
    /// unknown and a failed fsync is never retried, so the caller must
    /// stop trusting further writes.
    SyncFailed(std::io::Error),
}

impl SnapshotWriteError {
    /// Take the underlying I/O error.
    pub fn into_io(self) -> std::io::Error {
        match self {
            SnapshotWriteError::Abandoned(e) | SnapshotWriteError::SyncFailed(e) => e,
        }
    }
}

impl fmt::Display for SnapshotWriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotWriteError::Abandoned(e) => {
                write!(f, "snapshot write abandoned (old snapshot intact): {e}")
            }
            SnapshotWriteError::SyncFailed(e) => write!(f, "snapshot fsync failed: {e}"),
        }
    }
}

impl std::error::Error for SnapshotWriteError {}

/// Write a snapshot atomically: encode, write `<path>.tmp`, fsync, rename
/// over `path`, fsync the parent directory. The error distinguishes an
/// abandoned attempt (old snapshot intact and durable) from a failed fsync
/// (durability unknown) — see [`SnapshotWriteError`].
pub fn write_snapshot<'a>(
    vfs: &dyn Vfs,
    path: &Path,
    seq: u64,
    docs: impl Iterator<Item = (DocKey, u64, SnapshotSource<'a>)>,
) -> Result<(), SnapshotWriteError> {
    let bytes = encode_snapshot(seq, docs);
    let tmp = path.with_extension("tmp");
    {
        let mut f = vfs.create(&tmp).map_err(SnapshotWriteError::Abandoned)?;
        f.write_all(&bytes).map_err(SnapshotWriteError::Abandoned)?;
        f.sync_all().map_err(SnapshotWriteError::SyncFailed)?;
    }
    vfs.rename(&tmp, path)
        .map_err(SnapshotWriteError::Abandoned)?;
    if let Some(dir) = path.parent() {
        // Persist the rename itself. A directory-fsync failure is a real
        // durability hole — a crash could resurrect the *old* snapshot
        // after the caller has acted on the new one (e.g. reset the WAL) —
        // so it propagates instead of being swallowed.
        vfs.sync_dir(dir).map_err(SnapshotWriteError::SyncFailed)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_docs() -> Vec<(DocKey, u64, XmlTree)> {
        let mut a = XmlTree::new("db");
        let b = a.add_child(a.root(), "book");
        a.set_attr(b, "@title", "CO");
        let c = XmlTree::new("db");
        // Same doc id under two settings: scoped keys keep them distinct.
        vec![(DocKey::new(0, 7), 7, a), (DocKey::new(2, 7), 1, c)]
    }

    fn encode(docs: &[(DocKey, u64, XmlTree)]) -> Vec<u8> {
        encode_snapshot(
            42,
            docs.iter()
                .map(|(k, v, t)| (*k, *v, SnapshotSource::Tree(t))),
        )
    }

    #[test]
    fn frame_sources_write_byte_identical_snapshots() {
        let docs = sample_docs();
        let from_trees = encode(&docs);
        let snap = load_snapshot_frames(&from_trees).unwrap();
        assert_eq!(snap.seq, 42);
        let from_frames = encode_snapshot(
            snap.seq,
            snap.docs
                .iter()
                .map(|f| (f.key, f.version, SnapshotSource::Frame(&f.frame))),
        );
        assert_eq!(from_trees, from_frames);
    }

    #[test]
    fn a_bit_flip_in_the_footer_sequence_fails_validation() {
        let bytes = encode(&sample_docs());
        let seq_at = bytes.len() - FOOTER_BYTES;
        let mut b = bytes.clone();
        b[seq_at + 7] ^= 0x01; // low byte of seq: 42 -> 43
        let err = load_snapshot_frames(&b).unwrap_err();
        assert!(err.message.contains("checksum"), "{err}");
    }

    #[test]
    fn snapshots_round_trip() {
        let docs = sample_docs();
        let back = load_snapshot_bytes(&encode(&docs)).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!((back[0].key, back[0].version), (DocKey::new(0, 7), 7));
        assert_eq!((back[1].key, back[1].version), (DocKey::new(2, 7), 1));
        assert_eq!(
            back[0].tree.ordered_canonical_form(),
            docs[0].2.ordered_canonical_form()
        );
    }

    #[test]
    fn empty_snapshots_round_trip() {
        let back = load_snapshot_bytes(&encode(&[])).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn truncations_and_bit_flips_never_panic() {
        let bytes = encode(&sample_docs());
        for cut in 0..bytes.len() {
            assert!(load_snapshot_bytes(&bytes[..cut]).is_err());
        }
        for at in 0..bytes.len() {
            let mut b = bytes.clone();
            b[at] ^= 0x01;
            // Must not panic; almost always an error (a flip in a frame's
            // padding-free payload is caught by its checksum).
            let _ = load_snapshot_bytes(&b);
        }
    }

    #[test]
    fn frame_corruption_is_caught_by_the_checksum() {
        let bytes = encode(&sample_docs());
        // Flip a bit inside the first frame (right after the magic).
        let mut b = bytes.clone();
        b[MAGIC.len() + 3] ^= 0x10;
        let err = load_snapshot_bytes(&b).unwrap_err();
        assert!(err.message.contains("checksum"), "{err}");
    }

    #[test]
    fn format_v1_snapshots_fail_loudly_by_name() {
        let mut bytes = encode(&sample_docs());
        bytes[..V1_MAGIC.len()].copy_from_slice(V1_MAGIC);
        let err = load_snapshot_frames(&bytes).unwrap_err();
        assert!(err.message.contains("format-v1"), "{err}");
    }

    #[test]
    fn missing_file_is_an_empty_store() {
        let snap = load_snapshot(
            &crate::vfs::RealVfs,
            Path::new("/nonexistent/xdx/snapshot.bin"),
        )
        .unwrap();
        assert_eq!(snap.seq, 0);
        assert!(snap.docs.is_empty());
    }
}
