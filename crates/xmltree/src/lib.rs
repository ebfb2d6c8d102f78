//! # xdx-xmltree — XML documents and DTDs
//!
//! The document substrate of the XML data exchange library reproducing
//! Arenas & Libkin, *"XML Data Exchange: Consistency and Query Answering"*
//! (PODS 2005 / JACM 2008).
//!
//! Section 2 of the paper models XML documents as finite ordered unranked
//! trees whose nodes are labelled with *element types* and carry *attribute*
//! values drawn from a domain `Str` partitioned into constants (`Const`) and
//! nulls (`Var`). Schemas are DTDs `(P, R, r)`: a content model `P(ℓ)`
//! (regular expression over element types) and an attribute set `R(ℓ)` per
//! element type, plus a distinguished root type `r`.
//!
//! This crate provides:
//!
//! * [`name`] — cheap clone-friendly newtypes [`ElementType`] and [`AttrName`];
//! * [`value`] — attribute [`Value`]s (constants vs nulls) and the fresh-null
//!   generator used when populating target documents;
//! * [`tree`] — the arena-based [`XmlTree`] with ordered and unordered views,
//!   a builder, traversals, and the structural-surgery operations the chase
//!   of Section 6.1 needs (adding children, merging sibling subtrees,
//!   replacing subtrees);
//! * [`dtd`] — [`Dtd`] with ordered conformance `T ⊨ D`, unordered (weak)
//!   conformance `T |≈ D`, the DTD graph, recursion and nested-relational
//!   tests, DTD consistency and the trimming construction of Lemma 2.2, and
//!   the `D°`/`D*` transformations used by the nested-relational consistency
//!   algorithm (Theorem 4.5);
//! * [`text`] — a lossless, iterative (depth-bomb-safe) text serialization
//!   of trees with a total parser; the default document codec of the
//!   `xdx-server` wire protocol and the differential oracle for [`binary`];
//! * [`binary`] — the length-prefixed binary preorder codec (wire protocol
//!   v2's negotiated fast path, and the planned `xdx-store` snapshot
//!   format): encodes off the arena arrays, decodes by one bulk
//!   [`XmlTree::append_forest`] reservation, no recursion either way;
//! * [`limits`] — the shared document-size guard constants (byte, node and
//!   depth caps) enforced by both codecs and referenced by the server's
//!   frame caps and the `xdx-store` snapshot/WAL loader, so every admission
//!   layer agrees on a single notion of "too big";
//! * [`interner`] / [`compiled`] — the compiled fast path: dense `u32`
//!   symbol ids ([`Sym`]) and per-DTD dense-table DFAs plus occurrence-bound
//!   summaries ([`CompiledDtd`]), built once per DTD and used by every
//!   conformance check, chase step and ordering query. The NFA-simulation
//!   code remains as the differential-tested reference path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod compiled;
pub mod dtd;
pub mod interner;
pub mod lexer;
pub mod limits;
pub mod name;
pub mod text;
pub mod tree;
pub mod value;

pub use binary::{decode_tree, encode_tree, fnv1a, BinaryError, ByteSink};
pub use compiled::CompiledDtd;
pub use dtd::{ConformanceViolation, Dtd, DtdBuilder, DtdError};
pub use interner::{Interner, Sym};
pub use lexer::{Cursor, LexError};
pub use name::{AttrName, ElementType};
pub use text::{parse_tree, tree_to_text, TreeTextError};
pub use tree::{NodeId, Preorder, TreeBuilder, XmlTree};
pub use value::{NullGen, NullId, Value};
