//! # xdx-core — XML data exchange
//!
//! The primary contribution of Arenas & Libkin, *"XML Data Exchange:
//! Consistency and Query Answering"* (PODS 2005 / JACM 2008), reproduced as a
//! library on top of the substrates [`xdx_xmltree`] (documents and DTDs),
//! [`xdx_patterns`] (tree patterns and queries), [`xdx_relang`] (regular
//! expression algebra) and [`xdx_automata`] (tree automata).
//!
//! A *data exchange setting* is a triple `(D_S, D_T, Σ_ST)` of a source DTD,
//! a target DTD and source-to-target dependencies (STDs) of the form
//! `ψ_T(x̄, z̄) :– φ_S(x̄, ȳ)` where both sides are tree patterns
//! (Section 3). Given a source tree `T ⊨ D_S`, a *solution* is a target tree
//! `T' ⊨ D_T` such that every STD is satisfied.
//!
//! The library provides the paper's two core computational problems:
//!
//! * **Consistency** ([`consistency`]) — is there any source tree with a
//!   solution? EXPTIME-complete in general (Theorem 4.1, decided here by the
//!   automata-theoretic procedure), `O(n·m²)` for nested-relational DTDs
//!   (Theorem 4.5).
//! * **Certain answers** ([`certain`], [`solution`]) — compute
//!   `certain(Q, T) = ⋂ { Q(T') : T' solution for T }` for conjunctive tree
//!   queries. For fully-specified STDs and *univocal* target DTDs
//!   (Definition 6.9) this is done in polynomial time by building a
//!   *canonical solution* with the chase of Section 6.1 and evaluating `Q`
//!   over it (Theorem 6.2, Corollary 6.11); outside that class the problem is
//!   coNP-complete, which the executable reductions in [`gadgets`] exhibit.
//!
//! Additional machinery: sibling re-ordering of unordered solutions
//! (Proposition 5.2, [`ordering`]), classification of settings into the
//! tractable/intractable sides of the dichotomy ([`classify`]), and the
//! parallel batch-serving engine ([`engine`]) — compile a setting once
//! ([`compiled`], `Send + Sync`) and fan slices of source documents out
//! across threads with deterministic output ordering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod certain;
pub mod classify;
pub mod compiled;
pub mod consistency;
pub mod engine;
pub mod gadgets;
pub mod ordering;
pub mod settext;
pub mod setting;
pub mod solution;
mod template;

pub use cache::{CacheKey, DocResultCache};
pub use certain::{
    certain_answers, certain_answers_boolean, certain_tuples, certain_tuples_planned,
    certain_tuples_planned_with, CertainAnswers,
};
pub use classify::{classify_setting, SettingClass};
pub use compiled::{CompiledSetting, CompiledStd, ExchangeScratch};
pub use consistency::{check_consistency, ConsistencyMethod, ConsistencyVerdict};
pub use engine::BatchEngine;
pub use ordering::{impose_sibling_order, impose_sibling_order_with, SiblingOrderMemo};
pub use settext::{parse_setting, setting_to_text, SettingTextError};
pub use setting::{DataExchangeSetting, SettingError, Std};
pub use solution::{canonical_presolution, canonical_solution, is_solution, SolutionError};
