//! Node-local document edits.
//!
//! A [`DocEdit`] is the unit the WAL records and the wire's `EditDoc` op
//! carries: inserting or removing one child, setting or removing one
//! attribute. The data model has no text nodes (Section 2 of the paper puts
//! all character data in attributes), so "set text" is [`DocEdit::SetAttr`].
//!
//! # Addressing
//!
//! Edits address nodes by **preorder rank at the document's current
//! version** — rank 0 is the root, rank `i` the `i`-th node in document
//! order. Ranks are a property of the logical tree, not of the arena, so
//! they survive snapshot round-trips and arena compaction (where raw
//! [`NodeId`]s would not), which is what makes WAL replay after a restart
//! well-defined. Within one batch, edits apply **sequentially**: edit `k+1`
//! addresses the tree as left by edit `k` (an insert shifts the ranks of
//! everything after it in document order, a remove shifts them back).
//!
//! # Atomicity
//!
//! [`apply_edits`] applies a batch all-or-nothing: every mutation is pushed
//! onto an undo log, and the first failing edit rolls the document back to
//! its pre-batch state before the error is returned. (Arena slots allocated
//! by rolled-back inserts leak until the next checkpoint compaction —
//! detached slots are invisible to ranks, codecs and traversals, so this is
//! a space cost only.)

use crate::bytes::{put_str, Cursor};
use std::fmt;
use xdx_xmltree::limits::MAX_DOCUMENT_NODES;
use xdx_xmltree::{AttrName, ElementType, NodeId, NullId, Value, XmlTree};

/// Hard cap on the number of edits one batch (one WAL record, one `EditDoc`
/// request) may carry. Batches are meant to be "what one writer did just
/// now", not a bulk-load channel — bulk loads ship a whole document.
pub const MAX_EDITS_PER_BATCH: usize = 1024;

/// One node-local edit (see the module docs for addressing semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocEdit {
    /// Insert a fresh leaf labelled `label` at position `at` of the child
    /// list of the node with preorder rank `parent`.
    InsertChild {
        /// Preorder rank of the parent.
        parent: u32,
        /// Position in the parent's child list (`0..=len`).
        at: u32,
        /// Label of the new leaf.
        label: ElementType,
    },
    /// Remove the child at position `at` of the node with rank `parent`
    /// (the whole subtree below it goes too).
    RemoveChild {
        /// Preorder rank of the parent.
        parent: u32,
        /// Position in the parent's child list (`0..len`).
        at: u32,
    },
    /// Set (or overwrite) one attribute of the node with rank `node`.
    SetAttr {
        /// Preorder rank of the node.
        node: u32,
        /// Attribute name.
        name: AttrName,
        /// New value.
        value: Value,
    },
    /// Remove one attribute of the node with rank `node`. Removing an
    /// attribute the node does not carry is an error (and fails the batch).
    RemoveAttr {
        /// Preorder rank of the node.
        node: u32,
        /// Attribute name.
        name: AttrName,
    },
}

/// Why an edit batch was rejected. The document is unchanged whenever one
/// of these is returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// A preorder rank at or past the document's node count.
    NodeOutOfRange {
        /// The offending rank.
        rank: u32,
        /// Current number of reachable nodes.
        nodes: usize,
    },
    /// A child position outside the parent's child list.
    PositionOutOfRange {
        /// The offending position.
        at: u32,
        /// The child-list length it was checked against.
        len: usize,
    },
    /// `RemoveAttr` named an attribute the node does not carry.
    MissingAttr {
        /// The absent attribute.
        name: AttrName,
    },
    /// The insert would grow the document past [`MAX_DOCUMENT_NODES`].
    DocumentFull,
    /// The batch is larger than [`MAX_EDITS_PER_BATCH`].
    BatchTooLarge {
        /// Number of edits in the rejected batch.
        len: usize,
    },
    /// The encoded form could not be decoded.
    Malformed(String),
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::NodeOutOfRange { rank, nodes } => {
                write!(
                    f,
                    "node rank {rank} out of range (document has {nodes} nodes)"
                )
            }
            EditError::PositionOutOfRange { at, len } => {
                write!(
                    f,
                    "child position {at} out of range (child list has {len} entries)"
                )
            }
            EditError::MissingAttr { name } => {
                write!(f, "attribute {name} is not present on the node")
            }
            EditError::DocumentFull => {
                write!(
                    f,
                    "insert would exceed the {MAX_DOCUMENT_NODES}-node document cap"
                )
            }
            EditError::BatchTooLarge { len } => {
                write!(
                    f,
                    "{len} edits exceed the {MAX_EDITS_PER_BATCH}-edit batch cap"
                )
            }
            EditError::Malformed(m) => write!(f, "malformed edit encoding: {m}"),
        }
    }
}

impl std::error::Error for EditError {}

// ---------------------------------------------------------------------------
// Wire encoding
// ---------------------------------------------------------------------------

const TAG_INSERT_CHILD: u8 = 1;
const TAG_REMOVE_CHILD: u8 = 2;
const TAG_SET_ATTR: u8 = 3;
const TAG_REMOVE_ATTR: u8 = 4;

fn put_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Const(s) => {
            out.push(0);
            put_str(out, s);
        }
        Value::Null(id) => {
            out.push(1);
            out.extend_from_slice(&id.0.to_be_bytes());
        }
    }
}

impl DocEdit {
    /// Append this edit's encoding (same integer conventions as the binary
    /// document codec: big-endian, length-prefixed strings, value tags
    /// `0x00` const / `0x01` null).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            DocEdit::InsertChild { parent, at, label } => {
                out.push(TAG_INSERT_CHILD);
                out.extend_from_slice(&parent.to_be_bytes());
                out.extend_from_slice(&at.to_be_bytes());
                put_str(out, label.as_str());
            }
            DocEdit::RemoveChild { parent, at } => {
                out.push(TAG_REMOVE_CHILD);
                out.extend_from_slice(&parent.to_be_bytes());
                out.extend_from_slice(&at.to_be_bytes());
            }
            DocEdit::SetAttr { node, name, value } => {
                out.push(TAG_SET_ATTR);
                out.extend_from_slice(&node.to_be_bytes());
                put_str(out, name.as_str());
                put_value(out, value);
            }
            DocEdit::RemoveAttr { node, name } => {
                out.push(TAG_REMOVE_ATTR);
                out.extend_from_slice(&node.to_be_bytes());
                put_str(out, name.as_str());
            }
        }
    }

    pub(crate) fn decode(c: &mut Cursor<'_>) -> Result<DocEdit, EditError> {
        let truncated = || EditError::Malformed("truncated edit record".into());
        let tag = c.u8().ok_or_else(truncated)?;
        match tag {
            TAG_INSERT_CHILD => {
                let parent = c.u32().ok_or_else(truncated)?;
                let at = c.u32().ok_or_else(truncated)?;
                let label = c.str().ok_or_else(truncated)?;
                Ok(DocEdit::InsertChild {
                    parent,
                    at,
                    label: ElementType::new(label),
                })
            }
            TAG_REMOVE_CHILD => {
                let parent = c.u32().ok_or_else(truncated)?;
                let at = c.u32().ok_or_else(truncated)?;
                Ok(DocEdit::RemoveChild { parent, at })
            }
            TAG_SET_ATTR => {
                let node = c.u32().ok_or_else(truncated)?;
                let name = AttrName::new(c.str().ok_or_else(truncated)?);
                let value = match c.u8().ok_or_else(truncated)? {
                    0 => Value::constant(c.str().ok_or_else(truncated)?),
                    1 => Value::Null(NullId(c.u64().ok_or_else(truncated)?)),
                    t => return Err(EditError::Malformed(format!("unknown value tag {t}"))),
                };
                Ok(DocEdit::SetAttr { node, name, value })
            }
            TAG_REMOVE_ATTR => {
                let node = c.u32().ok_or_else(truncated)?;
                let name = AttrName::new(c.str().ok_or_else(truncated)?);
                Ok(DocEdit::RemoveAttr { node, name })
            }
            t => Err(EditError::Malformed(format!("unknown edit tag {t}"))),
        }
    }
}

/// Encode a batch as `n:u16` followed by `n` edits (the payload format both
/// the WAL's `Edit` record and the wire's `EditDoc` body embed).
pub fn encode_edits(edits: &[DocEdit], out: &mut Vec<u8>) {
    out.extend_from_slice(
        &u16::try_from(edits.len())
            .expect("edit batches are capped below u16::MAX")
            .to_be_bytes(),
    );
    for e in edits {
        e.encode_into(out);
    }
}

/// Decode a batch encoded by [`encode_edits`]. Total: truncated or garbage
/// input yields [`EditError::Malformed`], never a panic or an oversized
/// allocation (capacity is bounded by the bytes actually present).
pub(crate) fn decode_edits(c: &mut Cursor<'_>) -> Result<Vec<DocEdit>, EditError> {
    let n = c
        .u16()
        .ok_or_else(|| EditError::Malformed("truncated edit count".into()))? as usize;
    if n > MAX_EDITS_PER_BATCH {
        return Err(EditError::BatchTooLarge { len: n });
    }
    // The smallest edit is 9 bytes; do not trust the count beyond that.
    if n > c.remaining() / 9 + 1 {
        return Err(EditError::Malformed(format!(
            "edit count {n} exceeds the payload"
        )));
    }
    let mut edits = Vec::with_capacity(n);
    for _ in 0..n {
        edits.push(DocEdit::decode(c)?);
    }
    Ok(edits)
}

/// Decode a standalone edit-batch buffer (the wire's `EditDoc` body),
/// rejecting trailing bytes.
pub fn decode_edits_exact(bytes: &[u8]) -> Result<Vec<DocEdit>, EditError> {
    let mut c = Cursor::new(bytes);
    let edits = decode_edits(&mut c)?;
    if !c.is_empty() {
        return Err(EditError::Malformed(format!(
            "{} trailing bytes after the edit batch",
            c.remaining()
        )));
    }
    Ok(edits)
}

// ---------------------------------------------------------------------------
// Application
// ---------------------------------------------------------------------------

/// The undo log of a batch [`apply_edits`] applied: a caller whose *own*
/// post-apply step fails (e.g. the store's WAL append) can
/// [`AppliedEdits::rollback`] to restore the pre-batch document.
#[derive(Debug, Default)]
pub struct AppliedEdits {
    undo: Vec<Undo>,
}

impl AppliedEdits {
    /// Undo the whole batch on `tree` (which must be the tree it was
    /// applied to, unmodified since).
    pub fn rollback(self, tree: &mut XmlTree) {
        rollback(tree, self.undo);
    }
}

fn rollback(tree: &mut XmlTree, undo: Vec<Undo>) {
    for u in undo.into_iter().rev() {
        match u {
            Undo::Inserted { parent, child } => tree.detach_child(parent, child),
            Undo::Removed {
                parent,
                child,
                order: siblings,
            } => {
                tree.attach_child(parent, child);
                tree.set_child_order(parent, siblings);
            }
            Undo::Attr { node, name, old } => match old {
                Some(v) => {
                    tree.set_attr(node, name, v);
                }
                None => {
                    tree.remove_attr(node, &name);
                }
            },
        }
    }
}

#[derive(Debug)]
enum Undo {
    Inserted {
        parent: NodeId,
        child: NodeId,
    },
    Removed {
        parent: NodeId,
        child: NodeId,
        order: Vec<NodeId>,
    },
    Attr {
        node: NodeId,
        name: AttrName,
        old: Option<Value>,
    },
}

fn resolve(
    tree: &XmlTree,
    order: &mut Option<Vec<NodeId>>,
    rank: u32,
) -> Result<NodeId, EditError> {
    let order = order.get_or_insert_with(|| tree.preorder().collect());
    order
        .get(rank as usize)
        .copied()
        .ok_or(EditError::NodeOutOfRange {
            rank,
            nodes: order.len(),
        })
}

/// Apply a batch of edits to `tree`, all-or-nothing (see the module docs).
///
/// `order` is the caller's preorder-rank cache: ranks resolve against it,
/// it is rebuilt lazily when absent, and it is invalidated (set to `None`)
/// by every structural edit — pass the same slot across calls to amortise
/// the collection for attribute-only batches, or a fresh `None` otherwise.
pub fn apply_edits(
    tree: &mut XmlTree,
    order: &mut Option<Vec<NodeId>>,
    edits: &[DocEdit],
) -> Result<AppliedEdits, EditError> {
    if edits.len() > MAX_EDITS_PER_BATCH {
        return Err(EditError::BatchTooLarge { len: edits.len() });
    }
    let mut applied = AppliedEdits::default();
    let mut fail: Option<EditError> = None;
    for edit in edits {
        let step = apply_one(tree, order, edit, &mut applied);
        if let Err(e) = step {
            fail = Some(e);
            break;
        }
    }
    let Some(e) = fail else {
        return Ok(applied);
    };
    // Roll back in reverse order; the rank cache is stale either way.
    *order = None;
    rollback(tree, applied.undo);
    Err(e)
}

fn apply_one(
    tree: &mut XmlTree,
    order: &mut Option<Vec<NodeId>>,
    edit: &DocEdit,
    applied: &mut AppliedEdits,
) -> Result<(), EditError> {
    match edit {
        DocEdit::InsertChild { parent, at, label } => {
            let parent = resolve(tree, order, *parent)?;
            let len = tree.children(parent).len();
            if *at as usize > len {
                return Err(EditError::PositionOutOfRange { at: *at, len });
            }
            if tree.arena_len() >= MAX_DOCUMENT_NODES {
                return Err(EditError::DocumentFull);
            }
            let child = tree.insert_child(parent, *at as usize, label.clone());
            applied.undo.push(Undo::Inserted { parent, child });
            *order = None;
        }
        DocEdit::RemoveChild { parent, at } => {
            let parent = resolve(tree, order, *parent)?;
            let siblings = tree.children(parent).to_vec();
            let Some(&child) = siblings.get(*at as usize) else {
                return Err(EditError::PositionOutOfRange {
                    at: *at,
                    len: siblings.len(),
                });
            };
            tree.detach_child(parent, child);
            applied.undo.push(Undo::Removed {
                parent,
                child,
                order: siblings,
            });
            *order = None;
        }
        DocEdit::SetAttr { node, name, value } => {
            let node = resolve(tree, order, *node)?;
            let old = tree.set_attr(node, name.clone(), value.clone());
            applied.undo.push(Undo::Attr {
                node,
                name: name.clone(),
                old,
            });
        }
        DocEdit::RemoveAttr { node, name } => {
            let node = resolve(tree, order, *node)?;
            let Some(old) = tree.remove_attr(node, name) else {
                return Err(EditError::MissingAttr { name: name.clone() });
            };
            applied.undo.push(Undo::Attr {
                node,
                name: name.clone(),
                old: Some(old),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdx_xmltree::tree_to_text;

    fn sample() -> XmlTree {
        let mut t = XmlTree::new("db");
        let b = t.add_child(t.root(), "book");
        t.set_attr(b, "@title", "CO");
        t.add_child(b, "author");
        t
    }

    #[test]
    fn edits_round_trip_through_the_wire_encoding() {
        let edits = vec![
            DocEdit::InsertChild {
                parent: 0,
                at: 1,
                label: ElementType::new("book"),
            },
            DocEdit::RemoveChild { parent: 0, at: 0 },
            DocEdit::SetAttr {
                node: 2,
                name: AttrName::new("@name"),
                value: Value::constant("x"),
            },
            DocEdit::SetAttr {
                node: 2,
                name: AttrName::new("@aff"),
                value: Value::Null(NullId(9)),
            },
            DocEdit::RemoveAttr {
                node: 1,
                name: AttrName::new("@title"),
            },
        ];
        let mut buf = Vec::new();
        encode_edits(&edits, &mut buf);
        assert_eq!(decode_edits_exact(&buf).unwrap(), edits);
    }

    #[test]
    fn truncated_and_garbage_edit_buffers_never_panic() {
        let edits = vec![DocEdit::SetAttr {
            node: 0,
            name: AttrName::new("@a"),
            value: Value::constant("v"),
        }];
        let mut buf = Vec::new();
        encode_edits(&edits, &mut buf);
        for cut in 0..buf.len() {
            assert!(decode_edits_exact(&buf[..cut]).is_err());
        }
        for at in 0..buf.len() {
            let mut b = buf.clone();
            b[at] ^= 0x80;
            let _ = decode_edits_exact(&b); // must not panic
        }
    }

    #[test]
    fn sequential_ranks_see_earlier_edits() {
        let mut t = sample();
        // Insert a second book before the first; its rank (1) is then valid
        // for the SetAttr that follows in the same batch.
        let batch = vec![
            DocEdit::InsertChild {
                parent: 0,
                at: 0,
                label: ElementType::new("book"),
            },
            DocEdit::SetAttr {
                node: 1,
                name: AttrName::new("@title"),
                value: Value::constant("New"),
            },
        ];
        let mut order = None;
        apply_edits(&mut t, &mut order, &batch).unwrap();
        assert_eq!(
            tree_to_text(&t),
            "db[book(@title=\"New\"),book(@title=\"CO\")[author]]"
        );
    }

    #[test]
    fn failed_batches_roll_back_completely() {
        let mut t = sample();
        let before = tree_to_text(&t);
        let arena_before = t.arena_len();
        let batch = vec![
            DocEdit::InsertChild {
                parent: 0,
                at: 0,
                label: ElementType::new("book"),
            },
            DocEdit::RemoveChild { parent: 1, at: 0 }, // fresh book has no children
        ];
        let mut order = None;
        let err = apply_edits(&mut t, &mut order, &batch).unwrap_err();
        assert!(matches!(
            err,
            EditError::PositionOutOfRange { at: 0, len: 0 }
        ));
        assert_eq!(tree_to_text(&t), before, "document must be unchanged");
        // The rolled-back insert leaks a detached arena slot (documented).
        assert_eq!(t.arena_len(), arena_before + 1);
        assert_eq!(t.size(), 3);
    }

    #[test]
    fn remove_missing_attr_is_an_error() {
        let mut t = sample();
        let batch = vec![DocEdit::RemoveAttr {
            node: 0,
            name: AttrName::new("@nope"),
        }];
        let err = apply_edits(&mut t, &mut None, &batch).unwrap_err();
        assert!(matches!(err, EditError::MissingAttr { .. }));
    }

    #[test]
    fn out_of_range_ranks_are_rejected() {
        let mut t = sample();
        let err = apply_edits(
            &mut t,
            &mut None,
            &[DocEdit::RemoveChild { parent: 99, at: 0 }],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            EditError::NodeOutOfRange { rank: 99, nodes: 3 }
        ));
    }

    #[test]
    fn detached_subtrees_are_invisible_to_ranks() {
        let mut t = sample();
        let mut order = None;
        apply_edits(
            &mut t,
            &mut order,
            &[DocEdit::RemoveChild { parent: 0, at: 0 }],
        )
        .unwrap();
        // Only the root remains reachable; rank 1 must now be out of range
        // even though the arena still holds the detached book and author.
        let err = apply_edits(
            &mut t,
            &mut order,
            &[DocEdit::SetAttr {
                node: 1,
                name: AttrName::new("@x"),
                value: Value::constant("v"),
            }],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            EditError::NodeOutOfRange { rank: 1, nodes: 1 }
        ));
    }
}
