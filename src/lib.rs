//! # xml-data-exchange
//!
//! Facade crate for the XML data exchange library, a from-scratch
//! reproduction of Marcelo Arenas and Leonid Libkin, *"XML Data Exchange:
//! Consistency and Query Answering"* (PODS 2005; expanded version in JACM
//! 55(2), 2008).
//!
//! The implementation is split into seven crates, re-exported here:
//!
//! * [`relang`] — regular-expression algebra over element types: parsing,
//!   NFAs/DFAs, Parikh images and permutation languages `π(r)`
//!   (Proposition 5.3, Lemma 5.4), repairs `rep(w, r)` and univocality
//!   (Definition 6.9);
//! * [`xmltree`] — XML documents as labelled unranked trees with constants
//!   and nulls, and DTDs with ordered/unordered conformance, consistency
//!   trimming (Lemma 2.2) and the nested-relational class;
//! * [`patterns`] — tree-pattern formulae and conjunctive tree queries
//!   (CTQ, CTQ//, unions), evaluation and tree homomorphisms;
//! * [`automata`] — unranked tree automata and the pattern/DTD
//!   satisfiability engine behind the consistency results (Theorem 4.1);
//! * [`core`] — data exchange settings, consistency checking, the canonical
//!   solution chase, certain answers, the dichotomy classification
//!   (Theorem 6.2) and executable hardness gadgets;
//! * [`store`] — the resident document store behind the server's stored-doc
//!   ops: checksummed binary snapshots, a write-ahead log of node-local
//!   edits with prefix-consistent crash recovery, and version-tagged
//!   answer caching;
//! * [`server`] — the async serving front-end: a hand-rolled epoll event
//!   loop and a length-prefixed wire protocol exposing consistency checks,
//!   canonical solutions and certain answers over TCP and Unix sockets,
//!   dispatching micro-batches to a worker pool over one compiled setting
//!   (see `crates/server/PROTOCOL.md` and `examples/serve.rs`).
//!
//! ## Quickstart
//!
//! The running example of the paper (Figures 1 and 2): restructure a
//! bibliography of books with authors into writers with works, then answer a
//! query over the target schema with certain-answer semantics.
//!
//! ```
//! use xml_data_exchange::core::setting::{books_to_writers_setting, figure_1_source_tree};
//! use xml_data_exchange::core::certain_answers;
//! use xml_data_exchange::patterns::{parse_pattern, ConjunctiveTreeQuery, UnionQuery};
//!
//! let setting = books_to_writers_setting();
//! let source = figure_1_source_tree();
//!
//! // "Who is the writer of the work named Computational Complexity?"
//! let query = UnionQuery::single(
//!     ConjunctiveTreeQuery::new(
//!         ["w"],
//!         vec![parse_pattern(
//!             "writer(@name=$w)[work(@title=\"Computational Complexity\")]",
//!         )
//!         .unwrap()],
//!     )
//!     .unwrap(),
//! );
//! let answers = certain_answers(&setting, &source, &query).unwrap();
//! assert!(answers.tuples.contains(&vec!["Papadimitriou".to_string()]));
//!
//! // "What are the works written in 1994?" cannot be answered with certainty.
//! let uncertain = UnionQuery::single(
//!     ConjunctiveTreeQuery::new(
//!         ["t"],
//!         vec![parse_pattern("work(@title=$t, @year=\"1994\")").unwrap()],
//!     )
//!     .unwrap(),
//! );
//! assert!(certain_answers(&setting, &source, &uncertain).unwrap().tuples.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use xdx_automata as automata;
pub use xdx_core as core;
pub use xdx_obs as obs;
pub use xdx_patterns as patterns;
pub use xdx_relang as relang;
pub use xdx_server as server;
pub use xdx_store as store;
pub use xdx_xmltree as xmltree;

pub use xdx_core::{
    canonical_solution, certain_answers, certain_answers_boolean, check_consistency,
    classify_setting, impose_sibling_order, is_solution, BatchEngine, CompiledSetting,
    DataExchangeSetting, Std,
};
pub use xdx_patterns::{ConjunctiveTreeQuery, TreePattern, UnionQuery};
pub use xdx_xmltree::{Dtd, TreeBuilder, XmlTree};
