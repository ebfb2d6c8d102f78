//! # xdx-patterns — tree-pattern formulae and conjunctive tree queries
//!
//! The query substrate of the XML data exchange library reproducing
//! Arenas & Libkin, *"XML Data Exchange: Consistency and Query Answering"*
//! (PODS 2005 / JACM 2008).
//!
//! Section 3.1 of the paper defines *attribute formulae* and *tree-pattern
//! formulae*:
//!
//! ```text
//! α ::= ℓ  |  ℓ(@a1 = x1, …, @an = xn)          (ℓ ∈ E ∪ {_})
//! ϕ ::= α  |  α[ϕ, …, ϕ]  |  //ϕ
//! ```
//!
//! A pattern is true in a tree when *some* node witnesses it; `α[ϕ1,…,ϕk]`
//! requires (not necessarily distinct) children witnessing each `ϕi`, and
//! `//ϕ` requires a proper descendant witnessing `ϕ`. Variables range over
//! attribute values.
//!
//! Section 5 builds conjunctive tree queries on top: `CTQ` (conjunction and
//! existential quantification of patterns without descendant), `CTQ//`
//! (with descendant) and their unions `CTQ∪`, `CTQ//,∪`.
//!
//! This crate provides:
//!
//! * [`pattern`] — the pattern AST, classification predicates (fully
//!   specified, path patterns, wildcard/descendant usage) and the attribute
//!   erasure `ϕ°` of Claim 4.2;
//! * [`parser`] — a compact text syntax used by tests, examples and gadgets
//!   (`db[book(@title=$x)[author(@name=$y)]]`);
//! * [`eval`] — pattern matching over [`xdx_xmltree::XmlTree`]s, producing
//!   variable assignments, and the recursive reference evaluator
//!   ([`eval::all_matches_reference`]) that every fast path is
//!   differential-tested against;
//! * [`query`] — conjunctive tree queries and unions with set semantics
//!   evaluation;
//! * [`homomorphism`] — homomorphisms between XML trees (Lemma 6.14), the
//!   tool behind the correctness of canonical solutions;
//! * [`plan`] — the one fast evaluator: a pattern is flattened straight into
//!   a join-ordered plan, its label tests resolved once against a
//!   [`xdx_xmltree::CompiledDtd`] (dense `u32` symbols) or DTD-less; per-node
//!   candidate sets come from a one-pass label index of the tree,
//!   child/descendant edges are joined in ascending cardinality order, and
//!   assignments are deduplicated by hash. [`eval::all_matches`], the query
//!   evaluators and `xdx-core`'s compiled setting all run on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod homomorphism;
pub mod parser;
pub mod pattern;
pub mod plan;
pub mod query;

pub use eval::{all_matches, all_matches_reference, matches_at, Assignment};
pub use homomorphism::{find_homomorphism, is_homomorphism, Homomorphism};
pub use parser::{parse_pattern, parse_query, PatternParseError, QueryParseError};
pub use pattern::{AttrBinding, AttrFormula, LabelTest, Term, TreePattern, Var};
pub use plan::{PatternPlan, QueryPlan, TreeIndex};
pub use query::{ConjunctiveTreeQuery, QueryClass, UnionQuery};
