//! Binary preorder document codec.
//!
//! The performance twin of [`crate::text`]: a length-prefixed binary frame
//! that encodes an [`XmlTree`] straight off the arena arrays and decodes by
//! one bulk [`XmlTree::append_forest`] reservation — no recursion in either
//! direction, no per-node allocation beyond the arena itself (names are
//! interned in a frame-local table and handed out as `Arc` clones). The text
//! codec remains the debugging/differential oracle; every frame produced
//! here must decode to a tree whose text form equals the original's.
//!
//! This is also the planned snapshot format of the future `xdx-store`
//! (ROADMAP item 2): serve from the compact binary image, verify with the
//! trusted text path.
//!
//! # Frame layout (format version 1)
//!
//! All integers are big-endian, matching the wire protocol.
//!
//! ```text
//! frame   := version:u8 (= 1)
//!            name_count:u32  name_count × name
//!            node_count:u32 (≥ 1)  node_count × node
//! name    := len:u32  utf8-bytes          -- shared by labels and attr names
//! node    := parent:u32  label:u32  attr_count:u16  attr_count × attr
//! attr    := name:u32  value
//! value   := 0x00 len:u32 utf8-bytes      -- constant
//!          | 0x01 id:u64                  -- null ⊥id
//! ```
//!
//! Nodes appear in preorder (document order); `parent` is the preorder slot
//! of the parent, which must be smaller than the node's own slot, except for
//! slot 0 (the root) whose `parent` is `u32::MAX`. Attributes are written in
//! the tree's canonical (sorted) order; the decoder accepts any order but
//! rejects duplicates.
//!
//! The decoder is **total**: arbitrary bytes produce a structured
//! [`BinaryError`], never a panic, and no length or count field is trusted
//! beyond the bytes actually present, so hostile frames cannot cause
//! oversized allocations.

use crate::limits::{MAX_DOCUMENT_BYTES, MAX_DOCUMENT_NODES};
use crate::name::{AttrName, ElementType};
use crate::tree::{NodeId, XmlTree};
use crate::value::{NullId, Value};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Format version written and accepted by this module.
pub const FORMAT_VERSION: u8 = 1;

/// A sink for encoded bytes. Implemented by `Vec<u8>` and by the server's
/// chunked response writer, which cuts arbitrarily long `put`s into bounded
/// segments — the encoder never needs to know where segment boundaries fall.
pub trait ByteSink {
    /// Append `bytes` to the sink.
    fn put(&mut self, bytes: &[u8]);
}

impl ByteSink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A decode failure: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryError {
    /// Byte offset in the frame at which the error was detected.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl BinaryError {
    fn new(at: usize, message: impl Into<String>) -> BinaryError {
        BinaryError {
            at,
            message: message.into(),
        }
    }
}

impl fmt::Display for BinaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "binary tree frame, byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for BinaryError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// FNV-1a over `bytes` — the workspace's one non-cryptographic hash: the
/// store's snapshot and WAL checksums, the server registry's content
/// address of a setting text, and (as `Fnv`) this encoder's interner
/// hasher. Checksums on disk and `PutSettingOk.content_hash` depend on its
/// exact output.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.finish()
}

/// FNV-1a as a [`Hasher`]. Interning is the hot loop of the planning pass
/// and names are short, where FNV beats the default SipHash by a wide
/// margin; the table is frame-local and never fed attacker-controlled
/// keys, so HashDoS hardening buys nothing here.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }
}

type NameMap<'t> = HashMap<&'t str, u32, BuildHasherDefault<Fnv>>;

/// A planned encoding of one tree: the frame-local name table, the preorder
/// node list with parent slots, and every name use pre-resolved to its table
/// index — all computed in one traversal, so the write pass is a flat replay
/// that never hashes. Splitting the plan from the write lets callers learn
/// [`Encoder::encoded_len`] (e.g. to emit a length prefix) and then stream
/// the bytes without buffering the whole frame.
#[derive(Debug)]
pub struct Encoder<'t> {
    tree: &'t XmlTree,
    /// Distinct names (labels and attribute names) in first-use order.
    names: Vec<&'t str>,
    /// Reachable nodes in preorder; the write pass replays this list.
    order: Vec<NodeId>,
    /// Preorder parent slot of each node in `order` (`u32::MAX` for slot 0).
    parents: Vec<u32>,
    /// Interned name indices in emission order: each node's label followed
    /// by its attribute names.
    emit: Vec<u32>,
    len: usize,
}

fn intern<'t>(
    names: &mut Vec<&'t str>,
    name_idx: &mut NameMap<'t>,
    len: &mut usize,
    s: &'t str,
) -> u32 {
    *name_idx.entry(s).or_insert_with(|| {
        let idx = u32::try_from(names.len()).expect("name table exceeds u32::MAX entries");
        names.push(s);
        *len += 4 + s.len();
        idx
    })
}

impl<'t> Encoder<'t> {
    /// Plan the encoding of `tree` (one preorder pass; no bytes written yet).
    pub fn new(tree: &'t XmlTree) -> Encoder<'t> {
        let mut names = Vec::new();
        let mut name_idx = NameMap::default();
        let mut slots = vec![u32::MAX; tree.arena_len()];
        let mut order = Vec::new();
        let mut parents = Vec::new();
        let mut emit = Vec::new();
        // version + name_count + node_count
        let mut len = 1 + 4 + 4;
        for (slot, node) in tree.preorder().enumerate() {
            slots[node.index()] =
                u32::try_from(slot).expect("tree exceeds u32::MAX reachable nodes");
            order.push(node);
            parents.push(match tree.parent(node) {
                None => u32::MAX,
                Some(p) => slots[p.index()],
            });
            emit.push(intern(
                &mut names,
                &mut name_idx,
                &mut len,
                tree.label(node).as_str(),
            ));
            len += 4 + 4 + 2; // parent + label + attr_count
            for (name, value) in tree.attrs(node) {
                emit.push(intern(&mut names, &mut name_idx, &mut len, name.as_str()));
                len += 4 + 1; // name index + value tag
                len += match value {
                    Value::Const(s) => 4 + s.len(),
                    Value::Null(_) => 8,
                };
            }
        }
        Encoder {
            tree,
            names,
            order,
            parents,
            emit,
            len,
        }
    }

    /// Exact number of bytes [`Encoder::write_to`] will produce.
    pub fn encoded_len(&self) -> usize {
        self.len
    }

    /// Stream the frame into `sink` — a replay of the plan: fixed-width
    /// fields are batched into per-record stack buffers so each node costs a
    /// handful of `put`s and zero hash lookups.
    pub fn write_to(&self, sink: &mut impl ByteSink) {
        sink.put(&[FORMAT_VERSION]);
        sink.put(
            &u32::try_from(self.names.len())
                .expect("name table")
                .to_be_bytes(),
        );
        for s in &self.names {
            sink.put(
                &u32::try_from(s.len())
                    .expect("name exceeds u32::MAX bytes")
                    .to_be_bytes(),
            );
            sink.put(s.as_bytes());
        }
        sink.put(
            &u32::try_from(self.order.len())
                .expect("node count")
                .to_be_bytes(),
        );
        let mut emit = self.emit.iter();
        for (i, &node) in self.order.iter().enumerate() {
            let attrs = self.tree.attrs(node);
            let mut hdr = [0u8; 10];
            hdr[0..4].copy_from_slice(&self.parents[i].to_be_bytes());
            hdr[4..8].copy_from_slice(&emit.next().expect("plan covers every label").to_be_bytes());
            hdr[8..10].copy_from_slice(
                &u16::try_from(attrs.len())
                    .expect("attribute count exceeds u16::MAX")
                    .to_be_bytes(),
            );
            sink.put(&hdr);
            for value in attrs.values() {
                let name = emit.next().expect("plan covers every attribute name");
                match value {
                    Value::Const(s) => {
                        let mut rec = [0u8; 9];
                        rec[0..4].copy_from_slice(&name.to_be_bytes());
                        rec[4] = 0;
                        rec[5..9].copy_from_slice(
                            &u32::try_from(s.len())
                                .expect("value exceeds u32::MAX bytes")
                                .to_be_bytes(),
                        );
                        sink.put(&rec);
                        sink.put(s.as_bytes());
                    }
                    Value::Null(id) => {
                        let mut rec = [0u8; 13];
                        rec[0..4].copy_from_slice(&name.to_be_bytes());
                        rec[4] = 1;
                        rec[5..13].copy_from_slice(&id.0.to_be_bytes());
                        sink.put(&rec);
                    }
                }
            }
        }
    }
}

/// Encode `tree` into a fresh, exactly-sized buffer.
pub fn encode_tree(tree: &XmlTree) -> Vec<u8> {
    let enc = Encoder::new(tree);
    let mut out = Vec::with_capacity(enc.encoded_len());
    enc.write_to(&mut out);
    debug_assert_eq!(out.len(), enc.encoded_len());
    out
}

/// Exact encoded size of `tree` (one traversal; prefer keeping the
/// [`Encoder`] when you also need the bytes).
pub fn encoded_len(tree: &XmlTree) -> usize {
    Encoder::new(tree).encoded_len()
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err(&self, message: impl Into<String>) -> BinaryError {
        BinaryError::new(self.pos, message)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], BinaryError> {
        if self.remaining() < n {
            return Err(self.err(format!("truncated: need {n} more bytes")));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, BinaryError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, BinaryError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, BinaryError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, BinaryError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    fn str(&mut self) -> Result<&'a str, BinaryError> {
        let len = self.u32()? as usize;
        let at = self.pos;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map_err(|_| BinaryError::new(at, "name/value is not valid UTF-8"))
    }
}

/// Per-role lazy name cache: one `Arc` allocation per distinct
/// (name, role) pair, reference-count bumps per use after that.
struct NameCache<'a, T> {
    raw: &'a [&'a str],
    built: Vec<Option<T>>,
}

impl<'a, T: Clone> NameCache<'a, T> {
    fn new(raw: &'a [&'a str]) -> NameCache<'a, T> {
        NameCache {
            raw,
            built: vec![None; raw.len()],
        }
    }

    fn get(&mut self, idx: u32, make: impl Fn(&str) -> T) -> Option<T> {
        let slot = self.built.get_mut(idx as usize)?;
        Some(
            slot.get_or_insert_with(|| make(self.raw[idx as usize]))
                .clone(),
        )
    }
}

/// Decode a version-1 binary frame back into a tree.
///
/// Total over arbitrary input; every count is validated against the bytes
/// actually present before any allocation is sized from it.
pub fn decode_tree(bytes: &[u8]) -> Result<XmlTree, BinaryError> {
    if bytes.len() > MAX_DOCUMENT_BYTES {
        return Err(BinaryError::new(
            0,
            format!(
                "frame of {} bytes exceeds the {MAX_DOCUMENT_BYTES}-byte document cap",
                bytes.len()
            ),
        ));
    }
    let mut r = Reader { buf: bytes, pos: 0 };

    let version = r.u8()?;
    if version != FORMAT_VERSION {
        return Err(BinaryError::new(
            0,
            format!("unsupported format version {version}"),
        ));
    }

    // Name table: each entry takes at least 4 bytes.
    let name_count = r.u32()? as usize;
    if name_count > r.remaining() / 4 {
        return Err(r.err(format!("name count {name_count} exceeds the payload")));
    }
    let mut raw_names = Vec::with_capacity(name_count);
    for _ in 0..name_count {
        raw_names.push(r.str()?);
    }
    let mut labels: NameCache<'_, ElementType> = NameCache::new(&raw_names);
    let mut attr_names: NameCache<'_, AttrName> = NameCache::new(&raw_names);

    // Nodes: each record takes at least 10 bytes (parent + label + count).
    let node_count = r.u32()? as usize;
    if node_count == 0 {
        return Err(r.err("node count is zero (a tree has at least its root)"));
    }
    if node_count > r.remaining() / 10 + 1 {
        return Err(r.err(format!("node count {node_count} exceeds the payload")));
    }
    if node_count > MAX_DOCUMENT_NODES {
        return Err(r.err(format!(
            "node count {node_count} exceeds the {MAX_DOCUMENT_NODES}-node document cap"
        )));
    }

    let mut tree: Option<XmlTree> = None;
    // Preorder forest below the root, in `append_forest` coordinates:
    // slot i of the frame is entry i-1 here, parents are rebased the same
    // way with the root (frame slot 0) mapped to the u32::MAX marker.
    let mut forest: Vec<(u32, ElementType)> = Vec::with_capacity(node_count - 1);
    // (frame slot, name, value) — applied after the bulk reservation.
    // Capacity heuristic: an attribute record is ≥ 9 bytes, so the tail of
    // the payload bounds how many can follow (no trust in count fields).
    let mut pending_attrs: Vec<(usize, AttrName, Value)> =
        Vec::with_capacity((r.remaining() / 9).min(4096));

    for slot in 0..node_count {
        let at = r.pos;
        let parent = r.u32()?;
        if slot == 0 && parent != u32::MAX {
            return Err(BinaryError::new(
                at,
                "slot 0 (the root) must have parent 0xffffffff",
            ));
        }
        if slot > 0 && parent as usize >= slot {
            return Err(BinaryError::new(
                at,
                format!("slot {slot} references parent {parent}, which is not an earlier slot"),
            ));
        }
        let at = r.pos;
        let label_idx = r.u32()?;
        let label = labels
            .get(label_idx, |s| ElementType::new(s))
            .ok_or_else(|| BinaryError::new(at, format!("label index {label_idx} out of range")))?;
        if slot == 0 {
            tree = Some(XmlTree::new(label));
        } else {
            let rebased = if parent == 0 { u32::MAX } else { parent - 1 };
            forest.push((rebased, label));
        }
        let attr_count = r.u16()? as usize;
        if attr_count > r.remaining() / 5 + 1 {
            return Err(r.err(format!("attribute count {attr_count} exceeds the payload")));
        }
        for _ in 0..attr_count {
            let at = r.pos;
            let name_idx = r.u32()?;
            let name = attr_names
                .get(name_idx, |s| AttrName::new(s))
                .ok_or_else(|| {
                    BinaryError::new(at, format!("attribute name index {name_idx} out of range"))
                })?;
            let value = match r.u8()? {
                0 => Value::constant(r.str()?),
                1 => Value::Null(NullId(r.u64()?)),
                t => return Err(r.err(format!("unknown value tag {t}"))),
            };
            pending_attrs.push((slot, name, value));
        }
    }
    if r.pos != r.buf.len() {
        return Err(r.err(format!("{} trailing bytes after the frame", r.remaining())));
    }

    let mut tree = tree.expect("slot 0 always builds the root");
    let root = tree.root();
    // One bulk arena reservation for everything below the root; frame slot
    // i (> 0) becomes arena index base + i - 1.
    let base = tree
        .append_forest(root, &forest)
        .map(NodeId::index)
        .unwrap_or(1);
    // Attributes arrive grouped by slot, so each run of a node's attributes
    // pays the node lookup once and each entry exactly one map probe.
    let mut pending = pending_attrs.into_iter().peekable();
    while let Some((slot, name, value)) = pending.next() {
        let node = if slot == 0 {
            root
        } else {
            NodeId::from_index(base + slot - 1)
        };
        let attrs = tree.attrs_mut(node);
        let mut put = |name: AttrName, value: Value| match attrs.entry(name) {
            std::collections::btree_map::Entry::Occupied(e) => Err(BinaryError::new(
                bytes.len(),
                format!("slot {slot} carries attribute {} twice", e.key()),
            )),
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(value);
                Ok(())
            }
        };
        put(name, value)?;
        while let Some((s, _, _)) = pending.peek() {
            if *s != slot {
                break;
            }
            let (_, name, value) = pending.next().expect("peeked");
            put(name, value)?;
        }
    }
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::{parse_tree, tree_to_text};
    use crate::tree::TreeBuilder;

    #[test]
    fn fnv1a_matches_the_standard_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
    }

    fn sample_tree() -> XmlTree {
        let mut t = TreeBuilder::new("db")
            .child("book", |b| {
                b.attr("@title", "Combinatorial Optimization")
                    .child("author", |a| {
                        a.attr("@name", "Papadimitriou").attr("@aff", "UCB")
                    })
                    .child("author", |a| {
                        a.attr("@name", "Steiglitz").attr("@aff", "Princeton")
                    })
            })
            .child("weird \"name\"\\", |b| b.attr("@⊥", "⊥ is just text here"))
            .build();
        let root = t.root();
        t.set_attr(root, "@year", Value::Null(NullId(7)));
        t.set_attr(root, "@max", Value::Null(NullId(u64::MAX)));
        t
    }

    #[test]
    fn round_trips_and_matches_text_oracle() {
        let t = sample_tree();
        let bytes = encode_tree(&t);
        let back = decode_tree(&bytes).unwrap();
        back.validate().unwrap();
        assert_eq!(tree_to_text(&back), tree_to_text(&t));
        assert_eq!(back.ordered_canonical_form(), t.ordered_canonical_form());
        // Nulls survive with their exact ids, not just anonymised.
        assert_eq!(
            back.attr(back.root(), &"@max".into()),
            Some(&Value::Null(NullId(u64::MAX)))
        );
    }

    #[test]
    fn single_node_tree_round_trips() {
        let t = XmlTree::new("r");
        let back = decode_tree(&encode_tree(&t)).unwrap();
        assert_eq!(back.size(), 1);
        assert_eq!(back.label(back.root()).as_str(), "r");
    }

    #[test]
    fn encoded_len_is_exact() {
        for t in [XmlTree::new("r"), sample_tree()] {
            let enc = Encoder::new(&t);
            let mut out = Vec::new();
            enc.write_to(&mut out);
            assert_eq!(out.len(), enc.encoded_len());
            assert_eq!(encoded_len(&t), out.len());
        }
    }

    #[test]
    fn detached_nodes_are_not_encoded() {
        let mut t = XmlTree::new("r");
        t.add_child(t.root(), "kept");
        t.new_detached("ghost");
        let back = decode_tree(&encode_tree(&t)).unwrap();
        assert_eq!(back.size(), 2);
        assert_eq!(back.arena_len(), 2);
    }

    #[test]
    fn deep_chain_has_no_recursion_limit() {
        let mut t = XmlTree::new("r");
        let mut cur = t.root();
        for _ in 0..100_000 {
            cur = t.add_child(cur, "d");
        }
        let bytes = encode_tree(&t);
        let back = decode_tree(&bytes).unwrap();
        assert_eq!(back.size(), 100_001);
        assert_eq!(tree_to_text(&back), tree_to_text(&t));
    }

    #[test]
    fn name_table_is_shared_and_interned() {
        // 1000 nodes, one distinct label: the table holds it once and the
        // decoded tree shares one allocation for all of them.
        let mut t = XmlTree::new("n");
        for _ in 0..999 {
            t.add_child(t.root(), "n");
        }
        let bytes = encode_tree(&t);
        assert!(
            bytes.len() < 1000 * 12 + 64,
            "labels must not repeat per node"
        );
        let back = decode_tree(&bytes).unwrap();
        let ids: Vec<_> = back.nodes();
        assert!(std::ptr::eq(
            back.label(ids[1]).as_str(),
            back.label(ids[999]).as_str()
        ));
    }

    #[test]
    fn cross_codec_agrees_with_text_parser() {
        let text = "db[book(@title=\"T \\\"q\\\"\")[author(@name=⊥3)],book(@title=\"U\")]";
        let t = parse_tree(text).unwrap();
        let back = decode_tree(&encode_tree(&t)).unwrap();
        assert_eq!(tree_to_text(&back), tree_to_text(&t));
    }

    #[test]
    fn truncations_never_panic() {
        let bytes = encode_tree(&sample_tree());
        for cut in 0..bytes.len() {
            assert!(decode_tree(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn corruptions_never_panic() {
        let bytes = encode_tree(&sample_tree());
        for at in 0..bytes.len() {
            for bit in [1u8, 0x80] {
                let mut b = bytes.clone();
                b[at] ^= bit;
                // Must not panic; may decode to some other valid tree.
                let _ = decode_tree(&b);
            }
        }
    }

    #[test]
    fn hostile_counts_do_not_overallocate() {
        // node_count u32::MAX with an empty body.
        let mut b = vec![FORMAT_VERSION];
        b.extend_from_slice(&0u32.to_be_bytes()); // no names
        b.extend_from_slice(&u32::MAX.to_be_bytes()); // absurd node count
        let err = decode_tree(&b).unwrap_err();
        assert!(err.message.contains("exceeds the payload"), "{err}");

        // name_count u32::MAX likewise.
        let mut b = vec![FORMAT_VERSION];
        b.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = decode_tree(&b).unwrap_err();
        assert!(err.message.contains("exceeds the payload"), "{err}");
    }

    #[test]
    fn structural_errors_are_reported() {
        // Unsupported version.
        assert!(decode_tree(&[9]).unwrap_err().message.contains("version"));
        // Zero nodes.
        let mut b = vec![FORMAT_VERSION];
        b.extend_from_slice(&0u32.to_be_bytes());
        b.extend_from_slice(&0u32.to_be_bytes());
        assert!(decode_tree(&b)
            .unwrap_err()
            .message
            .contains("node count is zero"));
        // Root with a real parent slot.
        let mut b = vec![FORMAT_VERSION];
        b.extend_from_slice(&1u32.to_be_bytes());
        b.extend_from_slice(&1u32.to_be_bytes());
        b.push(b'r');
        b.extend_from_slice(&1u32.to_be_bytes()); // one node
        b.extend_from_slice(&0u32.to_be_bytes()); // parent 0 (invalid for root)
        b.extend_from_slice(&0u32.to_be_bytes());
        b.extend_from_slice(&0u16.to_be_bytes());
        assert!(decode_tree(&b).unwrap_err().message.contains("slot 0"));
        // Forward parent reference.
        let t = {
            let mut t = XmlTree::new("r");
            t.add_child(t.root(), "c");
            t
        };
        let mut bytes = encode_tree(&t);
        let parent_field = bytes.len() - (4 + 4 + 2); // second node's parent
        bytes[parent_field..parent_field + 4].copy_from_slice(&5u32.to_be_bytes());
        assert!(decode_tree(&bytes)
            .unwrap_err()
            .message
            .contains("not an earlier slot"));
        // Duplicate attribute (encode once, then duplicate the record).
        let mut t = XmlTree::new("r");
        let root = t.root();
        t.set_attr(root, "@a", "v");
        let mut bytes = encode_tree(&t);
        let attr_record_len = 4 + 1 + 4 + 1; // name + tag + len + "v"
        let record_start = bytes.len() - attr_record_len;
        let record = bytes[record_start..].to_vec();
        bytes.extend_from_slice(&record);
        let count_at = record_start - 2;
        bytes[count_at..record_start].copy_from_slice(&2u16.to_be_bytes());
        assert!(decode_tree(&bytes).unwrap_err().message.contains("twice"));
        // Trailing garbage.
        let mut bytes = encode_tree(&t);
        bytes.push(0);
        assert!(decode_tree(&bytes)
            .unwrap_err()
            .message
            .contains("trailing"));
    }
}
