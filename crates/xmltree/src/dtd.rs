//! DTDs: content models, attribute sets, conformance, consistency.
//!
//! A DTD over `(E, A)` is a triple `(P, R, r)` (Section 2): `P` maps every
//! element type to a regular expression over element types, `R` maps every
//! element type to a set of attribute names, and `r` is the root type, which
//! may not occur in any content model and has no attributes.
//!
//! Besides ordered conformance `T ⊨ D` and unordered (weak) conformance
//! `T |≈ D` (Section 5.2), this module implements the structural analyses the
//! paper relies on:
//!
//! * the DTD graph `G(D)`, recursion, and the **nested-relational** class of
//!   Section 4 (the Clio class);
//! * DTD satisfiability and *consistency* (every element type appears in some
//!   conforming tree), and the trimming construction of **Lemma 2.2**;
//! * the `D°` and `D*` transformations and unique conforming trees used by
//!   the `O(n·m²)` consistency algorithm of **Theorem 4.5**;
//! * minimal conforming trees, used as witnesses throughout.

use crate::compiled::CompiledDtd;
use crate::name::{AttrName, ElementType};
use crate::tree::{NodeId, XmlTree};
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, OnceLock};
use xdx_relang::ast::Multiplicity;
use xdx_relang::parikh::perm_accepts;
use xdx_relang::{Nfa, Regex};

/// A Document Type Definition `(P, R, r)`.
#[derive(Debug, Clone)]
pub struct Dtd {
    root: ElementType,
    rules: BTreeMap<ElementType, Regex<ElementType>>,
    attrs: BTreeMap<ElementType, BTreeSet<AttrName>>,
    /// Pre-built NFAs for every content model (conformance and the chase
    /// query them constantly).
    nfas: BTreeMap<ElementType, Nfa<ElementType>>,
    /// Lazily-built compiled form (interned symbols + dense-table DFAs);
    /// shared by clones via `Arc`.
    compiled: OnceLock<Arc<CompiledDtd>>,
}

/// Errors raised when constructing or transforming a DTD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DtdError {
    /// The root element type appears inside a content model, which the
    /// paper's definition forbids.
    RootInContentModel {
        /// The rule whose content model mentions the root.
        rule: ElementType,
    },
    /// The root element type was given attributes, which the paper's
    /// definition forbids.
    RootHasAttributes,
    /// The same element type was given two rules.
    DuplicateRule {
        /// The element type defined twice.
        element: ElementType,
    },
    /// Attributes were declared for an element type that has no rule and is
    /// never mentioned in any content model.
    AttributesForUnknownElement {
        /// The unknown element type.
        element: ElementType,
    },
    /// A content-model string failed to parse.
    RegexParse {
        /// The rule being parsed.
        rule: ElementType,
        /// The parser's message.
        message: String,
    },
    /// The DTD denotes the empty set of trees (`SAT(D) = ∅`), so the
    /// requested operation (e.g. trimming to a consistent DTD) is undefined.
    Unsatisfiable,
    /// The DTD is not nested-relational but a nested-relational-only
    /// operation (`D°`, `D*`, Theorem 4.5) was requested.
    NotNestedRelational {
        /// Why the DTD is not nested-relational.
        reason: String,
    },
    /// The DTD does not admit a unique conforming tree.
    NotSingleTree {
        /// Why there is no unique tree.
        reason: String,
    },
}

impl fmt::Display for DtdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DtdError::RootInContentModel { rule } => {
                write!(f, "root element type occurs in the content model of {rule}")
            }
            DtdError::RootHasAttributes => {
                write!(f, "the root element type cannot have attributes")
            }
            DtdError::DuplicateRule { element } => write!(f, "duplicate rule for {element}"),
            DtdError::AttributesForUnknownElement { element } => {
                write!(f, "attributes declared for unknown element type {element}")
            }
            DtdError::RegexParse { rule, message } => {
                write!(f, "content model of {rule} failed to parse: {message}")
            }
            DtdError::Unsatisfiable => write!(f, "the DTD admits no conforming tree"),
            DtdError::NotNestedRelational { reason } => {
                write!(f, "the DTD is not nested-relational: {reason}")
            }
            DtdError::NotSingleTree { reason } => {
                write!(
                    f,
                    "the DTD does not have a unique conforming tree: {reason}"
                )
            }
        }
    }
}

impl std::error::Error for DtdError {}

/// A single conformance violation found by [`Dtd::violations`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConformanceViolation {
    /// The root of the tree is not labelled with the DTD's root type.
    RootLabel {
        /// The label found at the tree root.
        found: ElementType,
        /// The required root type.
        expected: ElementType,
    },
    /// A node is labelled with an element type the DTD does not know.
    UnknownElementType {
        /// The offending node.
        node: NodeId,
        /// Its label.
        label: ElementType,
    },
    /// The children of a node do not spell a word of the content model
    /// (ordered check) or a permutation of one (unordered check).
    ContentModel {
        /// The offending node.
        node: NodeId,
        /// Its label.
        label: ElementType,
        /// The labels of its children, in order.
        children: Vec<ElementType>,
    },
    /// A node carries an attribute not allowed by `R`.
    UnexpectedAttribute {
        /// The offending node.
        node: NodeId,
        /// The attribute present but not allowed.
        attr: AttrName,
    },
    /// A node is missing an attribute required by `R`.
    MissingAttribute {
        /// The offending node.
        node: NodeId,
        /// The attribute required but absent.
        attr: AttrName,
    },
}

impl Dtd {
    /// Start building a DTD with the given root element type.
    pub fn builder(root: impl Into<ElementType>) -> DtdBuilder {
        DtdBuilder::new(root)
    }

    /// The root element type.
    pub fn root(&self) -> &ElementType {
        &self.root
    }

    /// All element types of the DTD, sorted (borrowed; collect if you need
    /// ownership).
    pub fn element_types(&self) -> impl ExactSizeIterator<Item = &ElementType> + Clone {
        self.rules.keys()
    }

    /// The compiled form of this DTD: interned symbols, dense-table DFAs and
    /// occurrence-bound summaries. Built on first use, then cached (clones of
    /// this `Dtd` share the compiled form through an `Arc`).
    pub fn compiled(&self) -> &CompiledDtd {
        self.compiled
            .get_or_init(|| Arc::new(CompiledDtd::new(self)))
    }

    /// The compiled form behind its shared `Arc` (same lazily-built cache as
    /// [`Dtd::compiled`]). Lets callers hold the compiled DTD past this
    /// `Dtd`'s borrow, or identity-tag caches keyed on it (`Arc::ptr_eq` is
    /// sound because the `Arc` keeps the allocation alive).
    pub fn compiled_arc(&self) -> Arc<CompiledDtd> {
        Arc::clone(
            self.compiled
                .get_or_init(|| Arc::new(CompiledDtd::new(self))),
        )
    }

    /// The content model `P(ℓ)`.
    ///
    /// Every element type of the DTD has a rule (missing rules default to
    /// `ε` at construction time); unknown element types return `ε` as well.
    pub fn rule(&self, element: &ElementType) -> Regex<ElementType> {
        self.rules.get(element).cloned().unwrap_or(Regex::Epsilon)
    }

    /// The attribute set `R(ℓ)`.
    pub fn attrs_of(&self, element: &ElementType) -> BTreeSet<AttrName> {
        self.attrs.get(element).cloned().unwrap_or_default()
    }

    /// The pre-built NFA of the content model of `element`, if the element
    /// type is known.
    pub fn content_nfa(&self, element: &ElementType) -> Option<&Nfa<ElementType>> {
        self.nfas.get(element)
    }

    /// Does the DTD know this element type?
    pub fn has_element(&self, element: &ElementType) -> bool {
        self.rules.contains_key(element)
    }

    /// A size measure for complexity experiments: total number of regex
    /// nodes plus declared attributes plus element types.
    pub fn size(&self) -> usize {
        self.rules.values().map(|r| r.len()).sum::<usize>()
            + self.attrs.values().map(|a| a.len()).sum::<usize>()
            + self.rules.len()
    }

    // ------------------------------------------------------------------
    // Conformance
    // ------------------------------------------------------------------

    /// All violations of ordered conformance `T ⊨ D`.
    ///
    /// Evaluates on the compiled fast path ([`Dtd::compiled`]); the original
    /// NFA-simulation path is kept as [`Dtd::violations_reference`] and the
    /// two are differential-tested against each other.
    pub fn violations(&self, tree: &XmlTree) -> Vec<ConformanceViolation> {
        self.compiled().violations(tree, true)
    }

    /// All violations of unordered (weak) conformance `T |≈ D` (compiled
    /// fast path; reference kept as [`Dtd::violations_unordered_reference`]).
    pub fn violations_unordered(&self, tree: &XmlTree) -> Vec<ConformanceViolation> {
        self.compiled().violations(tree, false)
    }

    /// Reference implementation of [`Dtd::violations`]: per-node NFA
    /// simulation over `BTreeSet` state sets.
    pub fn violations_reference(&self, tree: &XmlTree) -> Vec<ConformanceViolation> {
        self.violations_impl(tree, true)
    }

    /// Reference implementation of [`Dtd::violations_unordered`].
    pub fn violations_unordered_reference(&self, tree: &XmlTree) -> Vec<ConformanceViolation> {
        self.violations_impl(tree, false)
    }

    fn violations_impl(&self, tree: &XmlTree, ordered: bool) -> Vec<ConformanceViolation> {
        let mut out = Vec::new();
        let root_label = tree.label(tree.root());
        if root_label != &self.root {
            out.push(ConformanceViolation::RootLabel {
                found: root_label.clone(),
                expected: self.root.clone(),
            });
        }
        for node in tree.nodes() {
            let label = tree.label(node).clone();
            if !self.has_element(&label) {
                out.push(ConformanceViolation::UnknownElementType { node, label });
                continue;
            }
            // Attribute conditions: ρ@a(v) defined iff @a ∈ R(ℓ).
            let allowed = self.attrs_of(&label);
            for attr in tree.attrs(node).keys() {
                if !allowed.contains(attr) {
                    out.push(ConformanceViolation::UnexpectedAttribute {
                        node,
                        attr: attr.clone(),
                    });
                }
            }
            for attr in &allowed {
                if tree.attr(node, attr).is_none() {
                    out.push(ConformanceViolation::MissingAttribute {
                        node,
                        attr: attr.clone(),
                    });
                }
            }
            // Content model condition.
            let child_labels: Vec<ElementType> = tree
                .children(node)
                .iter()
                .map(|&c| tree.label(c).clone())
                .collect();
            let ok = match self.content_nfa(&label) {
                Some(nfa) => {
                    if ordered {
                        nfa.matches(&child_labels)
                    } else {
                        let mut counts: BTreeMap<ElementType, u64> = BTreeMap::new();
                        for l in &child_labels {
                            *counts.entry(l.clone()).or_insert(0) += 1;
                        }
                        perm_accepts(nfa, &counts)
                    }
                }
                None => false,
            };
            if !ok {
                out.push(ConformanceViolation::ContentModel {
                    node,
                    label,
                    children: child_labels,
                });
            }
        }
        out
    }

    /// Ordered conformance `T ⊨ D` (compiled fast path; bails on the first
    /// violation instead of collecting them all).
    pub fn conforms(&self, tree: &XmlTree) -> bool {
        self.compiled().conforms(tree)
    }

    /// Unordered (weak) conformance `T |≈ D`: every node's children form a
    /// permutation of a word of the content model (compiled fast path).
    pub fn conforms_unordered(&self, tree: &XmlTree) -> bool {
        self.compiled().conforms_unordered(tree)
    }

    /// Reference implementation of [`Dtd::conforms`] (NFA simulation).
    pub fn conforms_reference(&self, tree: &XmlTree) -> bool {
        self.violations_reference(tree).is_empty()
    }

    /// Reference implementation of [`Dtd::conforms_unordered`].
    pub fn conforms_unordered_reference(&self, tree: &XmlTree) -> bool {
        self.violations_unordered_reference(tree).is_empty()
    }

    // ------------------------------------------------------------------
    // DTD graph, recursion, nested-relational class
    // ------------------------------------------------------------------

    /// The DTD graph `G(D)`: an edge `ℓ → ℓ'` whenever `ℓ'` occurs in
    /// `P(ℓ)`.
    pub fn graph(&self) -> BTreeMap<ElementType, BTreeSet<ElementType>> {
        self.rules
            .iter()
            .map(|(l, r)| (l.clone(), r.alphabet()))
            .collect()
    }

    /// Is the DTD recursive (does `G(D)` contain a cycle)?
    pub fn is_recursive(&self) -> bool {
        // DFS-based cycle detection.
        let graph = self.graph();
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks: BTreeMap<&ElementType, Mark> =
            graph.keys().map(|k| (k, Mark::White)).collect();
        fn visit<'a>(
            node: &'a ElementType,
            graph: &'a BTreeMap<ElementType, BTreeSet<ElementType>>,
            marks: &mut BTreeMap<&'a ElementType, Mark>,
        ) -> bool {
            match marks.get(node).copied() {
                Some(Mark::Grey) => return true,
                Some(Mark::Black) | None => return false,
                Some(Mark::White) => {}
            }
            marks.insert(node, Mark::Grey);
            if let Some(succs) = graph.get(node) {
                for s in succs {
                    if graph.contains_key(s) && visit(s, graph, marks) {
                        return true;
                    }
                }
            }
            marks.insert(node, Mark::Black);
            false
        }
        let keys: Vec<&ElementType> = graph.keys().collect();
        for k in keys {
            if marks[k] == Mark::White && visit(k, &graph, &mut marks) {
                return true;
            }
        }
        false
    }

    /// Element types reachable from `start` in `G(D)` (including `start`).
    pub fn reachable_from(&self, start: &ElementType) -> BTreeSet<ElementType> {
        let graph = self.graph();
        let mut seen = BTreeSet::new();
        let mut stack = vec![start.clone()];
        while let Some(l) = stack.pop() {
            if !seen.insert(l.clone()) {
                continue;
            }
            if let Some(succs) = graph.get(&l) {
                for s in succs {
                    if !seen.contains(s) {
                        stack.push(s.clone());
                    }
                }
            }
        }
        seen
    }

    /// Is the DTD nested-relational: non-recursive and every rule of the form
    /// `ℓ̃_1 … ℓ̃_m` with pairwise-distinct `ℓ_i` and `ℓ̃` one of `ℓ`, `ℓ?`,
    /// `ℓ+`, `ℓ*`?
    pub fn is_nested_relational(&self) -> bool {
        !self.is_recursive() && self.rules.values().all(|r| r.is_nested_relational_shape())
    }

    /// Restrict the DTD to the element types reachable from `start`, making
    /// `start` the new root (`D_ℓ` in the proof of Theorem 4.5).
    pub fn restricted_to(&self, start: &ElementType) -> Dtd {
        let reach = self.reachable_from(start);
        let rules = self
            .rules
            .iter()
            .filter(|(l, _)| reach.contains(*l))
            .map(|(l, r)| (l.clone(), r.clone()))
            .collect();
        let attrs = self
            .attrs
            .iter()
            .filter(|(l, _)| reach.contains(*l))
            .map(|(l, a)| (l.clone(), a.clone()))
            .collect();
        Dtd::assemble(start.clone(), rules, attrs)
    }

    // ------------------------------------------------------------------
    // Satisfiability, consistency, trimming (Lemma 2.2)
    // ------------------------------------------------------------------

    /// The *productive* element types: those `ℓ` for which some finite tree
    /// rooted at an `ℓ`-node satisfies all content models below it.
    pub fn productive_elements(&self) -> BTreeSet<ElementType> {
        let mut productive: BTreeSet<ElementType> = BTreeSet::new();
        loop {
            let mut changed = false;
            for (l, r) in &self.rules {
                if productive.contains(l) {
                    continue;
                }
                let dead: BTreeSet<ElementType> = r
                    .alphabet()
                    .into_iter()
                    .filter(|s| !productive.contains(s) || !self.rules.contains_key(s))
                    .collect();
                let reduced = r.eliminate_symbols(&dead);
                if !reduced.is_empty_language() {
                    productive.insert(l.clone());
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        productive
    }

    /// Is `SAT(D)` non-empty?
    pub fn is_satisfiable(&self) -> bool {
        self.productive_elements().contains(&self.root)
    }

    /// Element types that appear in at least one conforming tree.
    pub fn appearing_elements(&self) -> BTreeSet<ElementType> {
        let productive = self.productive_elements();
        if !productive.contains(&self.root) {
            return BTreeSet::new();
        }
        let dead: BTreeSet<ElementType> = self
            .rules
            .keys()
            .filter(|l| !productive.contains(*l))
            .cloned()
            .collect();
        // ℓ' is usable from ℓ iff ℓ' survives in P(ℓ) after eliminating the
        // non-productive symbols.
        let mut appearing: BTreeSet<ElementType> = BTreeSet::new();
        let mut stack = vec![self.root.clone()];
        while let Some(l) = stack.pop() {
            if !appearing.insert(l.clone()) {
                continue;
            }
            let reduced = self.rule(&l).eliminate_symbols(&dead);
            for s in reduced.alphabet() {
                if !appearing.contains(&s) {
                    stack.push(s);
                }
            }
        }
        appearing
    }

    /// Is the DTD *consistent*: does every element type appear in some
    /// conforming tree?
    pub fn is_consistent(&self) -> bool {
        self.is_satisfiable() && self.appearing_elements().len() == self.rules.len()
    }

    /// The trimming construction of Lemma 2.2: produce a consistent DTD `D'`
    /// with `SAT(D) = SAT(D')`, in polynomial time. Fails with
    /// [`DtdError::Unsatisfiable`] when `SAT(D) = ∅`.
    pub fn trim_to_consistent(&self) -> Result<Dtd, DtdError> {
        if !self.is_satisfiable() {
            return Err(DtdError::Unsatisfiable);
        }
        let appearing = self.appearing_elements();
        let dead: BTreeSet<ElementType> = self
            .rules
            .keys()
            .filter(|l| !appearing.contains(*l))
            .cloned()
            .collect();
        let rules: BTreeMap<ElementType, Regex<ElementType>> = self
            .rules
            .iter()
            .filter(|(l, _)| appearing.contains(*l))
            .map(|(l, r)| (l.clone(), r.eliminate_symbols(&dead)))
            .collect();
        let attrs = self
            .attrs
            .iter()
            .filter(|(l, _)| appearing.contains(*l))
            .map(|(l, a)| (l.clone(), a.clone()))
            .collect();
        Ok(Dtd::assemble(self.root.clone(), rules, attrs))
    }

    // ------------------------------------------------------------------
    // Witness trees
    // ------------------------------------------------------------------

    /// Build a minimal conforming tree, assigning every required attribute a
    /// value produced by `fill`. Returns `None` when `SAT(D) = ∅`.
    pub fn minimal_conforming_tree_with(
        &self,
        mut fill: impl FnMut(&ElementType, &AttrName) -> Value,
    ) -> Option<XmlTree> {
        // Rank the element types by the fixpoint iteration at which they
        // became productive and record a witness word over lower-ranked
        // symbols; recursion on ranks terminates even for recursive DTDs.
        let mut rank: BTreeMap<ElementType, usize> = BTreeMap::new();
        let mut witness: BTreeMap<ElementType, Vec<ElementType>> = BTreeMap::new();
        let mut iteration = 0usize;
        loop {
            let mut changed = false;
            for (l, r) in &self.rules {
                if rank.contains_key(l) {
                    continue;
                }
                let dead: BTreeSet<ElementType> = r
                    .alphabet()
                    .into_iter()
                    .filter(|s| !rank.contains_key(s) || !self.rules.contains_key(s))
                    .collect();
                let reduced = r.eliminate_symbols(&dead);
                if !reduced.is_empty_language() {
                    let word = Nfa::from_regex(&reduced)
                        .shortest_word()
                        .expect("non-empty language has a shortest word");
                    rank.insert(l.clone(), iteration);
                    witness.insert(l.clone(), word);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            iteration += 1;
        }
        if !rank.contains_key(&self.root) {
            return None;
        }
        let mut tree = XmlTree::new(self.root.clone());
        let root = tree.root();
        self.fill_node(&mut tree, root, &witness, &mut fill);
        Some(tree)
    }

    fn fill_node(
        &self,
        tree: &mut XmlTree,
        node: NodeId,
        witness: &BTreeMap<ElementType, Vec<ElementType>>,
        fill: &mut impl FnMut(&ElementType, &AttrName) -> Value,
    ) {
        let label = tree.label(node).clone();
        for attr in self.attrs_of(&label) {
            let v = fill(&label, &attr);
            tree.set_attr(node, attr, v);
        }
        let word = witness.get(&label).cloned().unwrap_or_default();
        for child_label in word {
            let child = tree.add_child(node, child_label);
            self.fill_node(tree, child, witness, fill);
        }
    }

    /// Build a minimal conforming tree whose attributes all carry the
    /// constant `"s0"` (the fixed string used in the proof of Claim 4.2).
    pub fn minimal_conforming_tree(&self) -> Option<XmlTree> {
        self.minimal_conforming_tree_with(|_, _| Value::constant("s0"))
    }

    /// If the DTD admits exactly one conforming tree up to attribute values
    /// (every rule a concatenation of distinct symbols or `ε`, and the DTD is
    /// non-recursive), build that tree using `fill` for attribute values.
    pub fn unique_conforming_tree_with(
        &self,
        mut fill: impl FnMut(&ElementType, &AttrName) -> Value,
    ) -> Result<XmlTree, DtdError> {
        if self.is_recursive() {
            return Err(DtdError::NotSingleTree {
                reason: "the DTD is recursive".to_string(),
            });
        }
        for (l, r) in &self.rules {
            match r.nested_relational_factors() {
                Some(factors) if factors.iter().all(|f| f.multiplicity == Multiplicity::One) => {}
                _ => {
                    return Err(DtdError::NotSingleTree {
                        reason: format!(
                        "the content model of {l} is not a concatenation of distinct element types"
                    ),
                    })
                }
            }
        }
        let mut tree = XmlTree::new(self.root.clone());
        let mut stack = vec![tree.root()];
        while let Some(node) = stack.pop() {
            let label = tree.label(node).clone();
            for attr in self.attrs_of(&label) {
                let v = fill(&label, &attr);
                tree.set_attr(node, attr, v);
            }
            let factors = self
                .rule(&label)
                .nested_relational_factors()
                .expect("checked above");
            for f in factors {
                let child = tree.add_child(node, f.symbol.clone());
                stack.push(child);
            }
        }
        Ok(tree)
    }

    // ------------------------------------------------------------------
    // The D° and D* transformations of Theorem 4.5
    // ------------------------------------------------------------------

    /// The `D°` transformation: in every nested-relational rule, keep
    /// mandatory factors (`ℓ`, `ℓ+` become `ℓ`) and drop optional ones
    /// (`ℓ?`, `ℓ*` become `ε`).
    pub fn to_circle(&self) -> Result<Dtd, DtdError> {
        self.map_nested_factors(|m| match m {
            Multiplicity::One | Multiplicity::Plus => Some(Multiplicity::One),
            Multiplicity::Optional | Multiplicity::Star => None,
        })
    }

    /// The `D*` transformation: every factor becomes mandatory and single
    /// (`ℓ`, `ℓ?`, `ℓ+`, `ℓ*` all become `ℓ`).
    pub fn to_star(&self) -> Result<Dtd, DtdError> {
        self.map_nested_factors(|_| Some(Multiplicity::One))
    }

    fn map_nested_factors(
        &self,
        f: impl Fn(Multiplicity) -> Option<Multiplicity>,
    ) -> Result<Dtd, DtdError> {
        if !self.is_nested_relational() {
            return Err(DtdError::NotNestedRelational {
                reason: if self.is_recursive() {
                    "the DTD is recursive".to_string()
                } else {
                    "some content model is not of nested-relational shape".to_string()
                },
            });
        }
        let mut rules = BTreeMap::new();
        for (l, r) in &self.rules {
            let factors = r
                .nested_relational_factors()
                .expect("nested-relational checked above");
            let parts: Vec<Regex<ElementType>> = factors
                .into_iter()
                .filter_map(|factor| {
                    f(factor.multiplicity).map(|m| {
                        let sym = Regex::Symbol(factor.symbol);
                        match m {
                            Multiplicity::One => sym,
                            Multiplicity::Optional => Regex::opt(sym),
                            Multiplicity::Plus => Regex::plus(sym),
                            Multiplicity::Star => Regex::star(sym),
                        }
                    })
                })
                .collect();
            rules.insert(l.clone(), Regex::seq(parts));
        }
        Ok(Dtd::assemble(self.root.clone(), rules, self.attrs.clone()))
    }

    // ------------------------------------------------------------------
    // Construction helpers
    // ------------------------------------------------------------------

    fn assemble(
        root: ElementType,
        mut rules: BTreeMap<ElementType, Regex<ElementType>>,
        attrs: BTreeMap<ElementType, BTreeSet<AttrName>>,
    ) -> Dtd {
        // Every element type mentioned anywhere gets a rule (defaulting to ε).
        let mut mentioned: BTreeSet<ElementType> = BTreeSet::new();
        mentioned.insert(root.clone());
        for r in rules.values() {
            mentioned.extend(r.alphabet());
        }
        for l in mentioned {
            rules.entry(l).or_insert(Regex::Epsilon);
        }
        let nfas = rules
            .iter()
            .map(|(l, r)| (l.clone(), Nfa::from_regex(r)))
            .collect();
        Dtd {
            root,
            rules,
            attrs,
            nfas,
            compiled: OnceLock::new(),
        }
    }
}

impl fmt::Display for Dtd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "root: {}", self.root)?;
        for (l, r) in &self.rules {
            writeln!(f, "  {l} -> {r}")?;
            let attrs = self.attrs_of(l);
            if !attrs.is_empty() {
                let names: Vec<String> = attrs.iter().map(|a| a.to_string()).collect();
                writeln!(f, "    attributes: {}", names.join(", "))?;
            }
        }
        Ok(())
    }
}

/// Builder for [`Dtd`]s.
#[derive(Debug)]
pub struct DtdBuilder {
    root: ElementType,
    rules: BTreeMap<ElementType, Regex<ElementType>>,
    attrs: BTreeMap<ElementType, BTreeSet<AttrName>>,
    errors: Vec<DtdError>,
}

impl DtdBuilder {
    /// Start a DTD with the given root element type.
    pub fn new(root: impl Into<ElementType>) -> Self {
        DtdBuilder {
            root: root.into(),
            rules: BTreeMap::new(),
            attrs: BTreeMap::new(),
            errors: Vec::new(),
        }
    }

    /// Add a rule `element → content`, where `content` uses the textual regex
    /// syntax of [`xdx_relang::parser`] (e.g. `"book*"`, `"title author+"`).
    pub fn rule(mut self, element: impl Into<ElementType>, content: &str) -> Self {
        let element = element.into();
        match xdx_relang::parser::parse(content) {
            Ok(r) => {
                let regex = r.map(&mut |s: &String| ElementType::new(s));
                if self.rules.insert(element.clone(), regex).is_some() {
                    self.errors.push(DtdError::DuplicateRule { element });
                }
            }
            Err(e) => self.errors.push(DtdError::RegexParse {
                rule: element,
                message: e.to_string(),
            }),
        }
        self
    }

    /// Declare the attribute set of an element type.
    pub fn attributes<A: Into<AttrName>>(
        mut self,
        element: impl Into<ElementType>,
        attrs: impl IntoIterator<Item = A>,
    ) -> Self {
        let element = element.into();
        self.attrs
            .entry(element)
            .or_default()
            .extend(attrs.into_iter().map(Into::into));
        self
    }

    /// Finish building, validating the paper's well-formedness conditions.
    pub fn build(self) -> Result<Dtd, DtdError> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        // The root may not occur in content models and may not have attributes.
        for (l, r) in &self.rules {
            if r.alphabet().contains(&self.root) {
                return Err(DtdError::RootInContentModel { rule: l.clone() });
            }
        }
        if self
            .attrs
            .get(&self.root)
            .map(|a| !a.is_empty())
            .unwrap_or(false)
        {
            return Err(DtdError::RootHasAttributes);
        }
        // Attributes may only be declared for known element types.
        let mut known: BTreeSet<ElementType> = self.rules.keys().cloned().collect();
        known.insert(self.root.clone());
        for r in self.rules.values() {
            known.extend(r.alphabet());
        }
        for l in self.attrs.keys() {
            if !known.contains(l) {
                return Err(DtdError::AttributesForUnknownElement { element: l.clone() });
            }
        }
        Ok(Dtd::assemble(self.root, self.rules, self.attrs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;

    /// The source DTD of Figure 1(a).
    fn source_dtd() -> Dtd {
        Dtd::builder("db")
            .rule("db", "book*")
            .rule("book", "author*")
            .rule("author", "eps")
            .attributes("book", ["@title"])
            .attributes("author", ["@name", "@aff"])
            .build()
            .unwrap()
    }

    /// The target DTD of Figure 2(a).
    fn target_dtd() -> Dtd {
        Dtd::builder("bib")
            .rule("bib", "writer*")
            .rule("writer", "work*")
            .rule("work", "eps")
            .attributes("writer", ["@name"])
            .attributes("work", ["@title", "@year"])
            .build()
            .unwrap()
    }

    fn figure1_tree() -> XmlTree {
        TreeBuilder::new("db")
            .child("book", |b| {
                b.attr("@title", "Combinatorial Optimization")
                    .child("author", |a| {
                        a.attr("@name", "Papadimitriou").attr("@aff", "UCB")
                    })
                    .child("author", |a| {
                        a.attr("@name", "Steiglitz").attr("@aff", "Princeton")
                    })
            })
            .child("book", |b| {
                b.attr("@title", "Computational Complexity")
                    .child("author", |a| {
                        a.attr("@name", "Papadimitriou").attr("@aff", "UCB")
                    })
            })
            .build()
    }

    #[test]
    fn figure_1_document_conforms_to_its_dtd() {
        let d = source_dtd();
        let t = figure1_tree();
        assert!(d.conforms(&t));
        assert!(d.conforms_unordered(&t));
    }

    #[test]
    fn conformance_violations_are_reported() {
        let d = source_dtd();
        // wrong root
        let t1 = TreeBuilder::new("bib").build();
        assert!(matches!(
            d.violations(&t1).first(),
            Some(ConformanceViolation::RootLabel { .. })
        ));
        // missing required attribute and unexpected attribute
        let mut t2 = XmlTree::new("db");
        let b = t2.add_child(t2.root(), "book");
        t2.set_attr(b, "@isbn", "123");
        let v = d.violations(&t2);
        assert!(v
            .iter()
            .any(|x| matches!(x, ConformanceViolation::UnexpectedAttribute { .. })));
        assert!(v
            .iter()
            .any(|x| matches!(x, ConformanceViolation::MissingAttribute { .. })));
        // content model violation: author under db
        let mut t3 = XmlTree::new("db");
        let a = t3.add_child(t3.root(), "author");
        t3.set_attr(a, "@name", "X");
        t3.set_attr(a, "@aff", "Y");
        assert!(d
            .violations(&t3)
            .iter()
            .any(|x| matches!(x, ConformanceViolation::ContentModel { .. })));
        // unknown element type
        let mut t4 = XmlTree::new("db");
        t4.add_child(t4.root(), "journal");
        assert!(d
            .violations(&t4)
            .iter()
            .any(|x| matches!(x, ConformanceViolation::UnknownElementType { .. })));
    }

    #[test]
    fn ordered_vs_unordered_conformance() {
        // D: r → a b ; the tree with children [b, a] conforms only unordered.
        let d = Dtd::builder("r").rule("r", "a b").build().unwrap();
        let mut t = XmlTree::new("r");
        t.add_child(t.root(), "b");
        t.add_child(t.root(), "a");
        assert!(!d.conforms(&t));
        assert!(d.conforms_unordered(&t));
    }

    #[test]
    fn graph_recursion_and_nested_relational() {
        let d = source_dtd();
        assert!(!d.is_recursive());
        assert!(d.is_nested_relational());
        let g = d.graph();
        assert!(g[&ElementType::new("db")].contains(&ElementType::new("book")));

        let rec = Dtd::builder("r")
            .rule("r", "a")
            .rule("a", "b?")
            .rule("b", "a?")
            .build()
            .unwrap();
        assert!(rec.is_recursive());
        assert!(!rec.is_nested_relational());

        let not_nr = Dtd::builder("r").rule("r", "(a b)*").build().unwrap();
        assert!(!not_nr.is_recursive());
        assert!(!not_nr.is_nested_relational());
    }

    #[test]
    fn satisfiability_and_consistency() {
        // a → b, b → a: neither is productive, so the DTD (rooted at a) is
        // unsatisfiable.
        let d = Dtd::builder("r")
            .rule("r", "a")
            .rule("a", "b")
            .rule("b", "a")
            .build()
            .unwrap();
        assert!(!d.is_satisfiable());
        assert!(d.trim_to_consistent().is_err());
        assert!(d.minimal_conforming_tree().is_none());

        // r → a | b, a → ε, b → b (b never productive): satisfiable but not
        // consistent; trimming removes b.
        let d2 = Dtd::builder("r")
            .rule("r", "a|b")
            .rule("a", "eps")
            .rule("b", "b")
            .build()
            .unwrap();
        assert!(d2.is_satisfiable());
        assert!(!d2.is_consistent());
        let trimmed = d2.trim_to_consistent().unwrap();
        assert!(trimmed.is_consistent());
        assert!(!trimmed.has_element(&ElementType::new("b")));
        assert_eq!(
            trimmed.rule(&"r".into()),
            Regex::Symbol(ElementType::new("a"))
        );

        // the trimmed DTD accepts the same trees
        let t = {
            let mut t = XmlTree::new("r");
            t.add_child(t.root(), "a");
            t
        };
        assert!(d2.conforms(&t));
        assert!(trimmed.conforms(&t));
    }

    #[test]
    fn trimming_preserves_sat_on_star_rules() {
        // r → (a|b)* with b unproductive: trimming rewrites to a*.
        let d = Dtd::builder("r")
            .rule("r", "(a|b)*")
            .rule("a", "eps")
            .rule("b", "b")
            .build()
            .unwrap();
        let trimmed = d.trim_to_consistent().unwrap();
        assert_eq!(
            trimmed.rule(&"r".into()),
            Regex::star(Regex::Symbol("a".into()))
        );
        assert!(trimmed.is_consistent());
    }

    #[test]
    fn minimal_conforming_tree_of_figure_1_dtd() {
        let d = source_dtd();
        let t = d.minimal_conforming_tree().unwrap();
        // db with zero books is the minimal tree.
        assert_eq!(t.size(), 1);
        assert!(d.conforms(&t));

        // A DTD where the minimum requires nesting: db → book+, book → author+
        let d2 = Dtd::builder("db")
            .rule("db", "book+")
            .rule("book", "author+")
            .rule("author", "eps")
            .attributes("author", ["@name"])
            .build()
            .unwrap();
        let t2 = d2.minimal_conforming_tree().unwrap();
        assert!(d2.conforms(&t2));
        assert_eq!(t2.size(), 3);
    }

    #[test]
    fn minimal_tree_of_recursive_dtd_terminates() {
        // r → a, a → a | ε : recursion with an escape hatch.
        let d = Dtd::builder("r")
            .rule("r", "a")
            .rule("a", "a | eps")
            .build()
            .unwrap();
        let t = d.minimal_conforming_tree().unwrap();
        assert!(d.conforms(&t));
        assert_eq!(t.size(), 2);
    }

    #[test]
    fn circle_and_star_transformations() {
        let d = Dtd::builder("r")
            .rule("r", "a? b+ c* d")
            .rule("a", "eps")
            .rule("b", "eps")
            .rule("c", "eps")
            .rule("d", "eps")
            .build()
            .unwrap();
        let circle = d.to_circle().unwrap();
        assert_eq!(
            circle.rule(&"r".into()),
            Regex::concat(Regex::Symbol("b".into()), Regex::Symbol("d".into()))
        );
        let star = d.to_star().unwrap();
        let expected = Regex::seq([
            Regex::Symbol(ElementType::new("a")),
            Regex::Symbol(ElementType::new("b")),
            Regex::Symbol(ElementType::new("c")),
            Regex::Symbol(ElementType::new("d")),
        ]);
        assert_eq!(star.rule(&"r".into()), expected);

        // D* admits exactly one tree.
        let unique = star
            .unique_conforming_tree_with(|_, _| Value::constant("s0"))
            .unwrap();
        assert!(star.conforms(&unique));
        assert_eq!(unique.size(), 5);

        // non-nested-relational DTDs are rejected
        let bad = Dtd::builder("r").rule("r", "(a b)*").build().unwrap();
        assert!(bad.to_circle().is_err());
    }

    #[test]
    fn unique_tree_requires_single_multiplicities() {
        let d = Dtd::builder("r").rule("r", "a*").build().unwrap();
        assert!(d
            .unique_conforming_tree_with(|_, _| Value::constant("x"))
            .is_err());
    }

    #[test]
    fn builder_validation() {
        // root in a content model
        let e = Dtd::builder("r").rule("a", "r").build().unwrap_err();
        assert!(matches!(e, DtdError::RootInContentModel { .. }));
        // root with attributes
        let e2 = Dtd::builder("r")
            .rule("r", "a")
            .attributes("r", ["@x"])
            .build()
            .unwrap_err();
        assert_eq!(e2, DtdError::RootHasAttributes);
        // duplicate rule
        let e3 = Dtd::builder("r")
            .rule("a", "eps")
            .rule("a", "eps")
            .build()
            .unwrap_err();
        assert!(matches!(e3, DtdError::DuplicateRule { .. }));
        // attributes for an element that never occurs
        let e4 = Dtd::builder("r")
            .rule("r", "a")
            .attributes("ghost", ["@x"])
            .build()
            .unwrap_err();
        assert!(matches!(e4, DtdError::AttributesForUnknownElement { .. }));
        // parse error
        let e5 = Dtd::builder("r").rule("r", "a )").build().unwrap_err();
        assert!(matches!(e5, DtdError::RegexParse { .. }));
    }

    #[test]
    fn mentioned_elements_get_default_epsilon_rules() {
        let d = Dtd::builder("r").rule("r", "a b*").build().unwrap();
        assert!(d.has_element(&"a".into()));
        assert!(d.has_element(&"b".into()));
        assert_eq!(d.rule(&"a".into()), Regex::Epsilon);
        assert_eq!(d.element_types().len(), 3);
        assert!(d.element_types().eq(["a", "b", "r"]
            .iter()
            .map(ElementType::new)
            .collect::<Vec<_>>()
            .iter()));
    }

    #[test]
    fn restriction_to_subtree_of_graph() {
        let d = target_dtd();
        let w = d.restricted_to(&"writer".into());
        assert_eq!(w.root(), &ElementType::new("writer"));
        assert!(w.has_element(&"work".into()));
        assert!(!w.has_element(&"bib".into()));
    }

    #[test]
    fn size_is_monotone_in_rules() {
        assert!(target_dtd().size() >= 6);
    }

    #[test]
    fn display_lists_rules_and_attributes() {
        let s = format!("{}", source_dtd());
        assert!(s.contains("root: db"));
        assert!(s.contains("book -> author*"));
        assert!(s.contains("@title"));
    }
}
