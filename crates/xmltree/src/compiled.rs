//! Compiled DTDs: dense-table DFAs over interned symbols.
//!
//! [`Dtd`]'s reference conformance path re-simulates a generic
//! `Nfa<ElementType>` per node, allocating `BTreeSet<StateId>` state sets and
//! doing string-keyed `BTreeMap` lookups for every child label. A
//! [`CompiledDtd`] is built **once** per DTD and replaces all of that with:
//!
//! * a per-DTD [`Interner`] mapping element types and attribute names to
//!   dense `u32` [`Sym`] ids;
//! * per-rule **dense transition tables** (`states × alphabet` flat `Vec<u32>`
//!   with an explicit dead state), so the ordered check `T ⊨ D` is one array
//!   index per child;
//! * per-rule **occurrence bounds** for nested-relational-shaped content
//!   models (`ℓ̃_1 … ℓ̃_m`, Section 4): the unordered check `T |≈ D`
//!   becomes a counts-within-bounds comparison instead of a permutation
//!   search, falling back to the memoised bitset search
//!   ([`BitsetNfa::perm_accepts`]) for general expressions;
//! * a pre-built [`BitsetNfa`] per rule for the chase / sibling-ordering
//!   fast paths.
//!
//! The reference path is kept (`Dtd::violations_reference` and friends) and
//! the two are differential-tested against each other.

use crate::dtd::{ConformanceViolation, Dtd};
use crate::interner::{Interner, Sym};
use crate::name::{AttrName, ElementType};
use crate::tree::XmlTree;
use std::sync::Mutex;
use xdx_relang::{BitsetNfa, Multiplicity, PermMemo};

/// How a rule's unordered (permutation-language) membership is decided.
#[derive(Debug, Clone)]
enum UnorderedCheck {
    /// Nested-relational shape `ℓ̃_1 … ℓ̃_m`: `counts ∈ π(r)` iff every
    /// symbol's count lies within its `(min, max)` bound and no other symbol
    /// occurs. Sparse, sorted by symbol id (`u64::MAX` = unbounded), so
    /// storage is proportional to the rule, not to the whole DTD alphabet.
    Bounds(Vec<(Sym, u64, u64)>),
    /// General expression: memoised counting search on the bitset NFA,
    /// through the rule's shared warm memo (only general rules carry one).
    General { memo: SharedPermMemo },
}

/// How a rule's ordered (string-language) membership is decided.
#[derive(Debug, Clone)]
enum OrderedCheck {
    /// Dense subset-construction DFA: one array index per child. Column `j`
    /// of the flat `num_states × local_syms.len()` table belongs to
    /// `local_syms[j]`.
    Table {
        table: Vec<u32>,
        accepting: Vec<bool>,
        start: u32,
    },
    /// Content models whose DFA would be too large to determinize eagerly
    /// (wide flat schemas): bit-parallel NFA simulation instead, with
    /// symbols mapped through the rule's `bitset_cols`.
    NfaSim,
}

/// Above this many memoised subproblems a rule's shared permutation memo is
/// reset before the next query. Long-lived compiled DTDs (a `BatchEngine`
/// validating a stream of documents) would otherwise grow the table
/// monotonically with every distinct child multiset ever seen; entries are a
/// pure cache, so dropping them only costs re-derivation.
const MAX_SHARED_PERM_MEMO: usize = 1 << 18;

/// A per-rule permutation-search memo behind a `Mutex`, so the (immutable,
/// `Send + Sync`) compiled DTD can warm it across nodes, trees and threads.
/// Queries `try_lock` and fall back to a fresh local memo when contended
/// (the counting search may be long, so the lock is never worth waiting
/// for), and the table self-resets at [`MAX_SHARED_PERM_MEMO`] entries.
#[derive(Debug)]
struct SharedPermMemo(Mutex<PermMemo>);

impl SharedPermMemo {
    fn new(memo: PermMemo) -> Self {
        SharedPermMemo(Mutex::new(memo))
    }
}

impl Clone for SharedPermMemo {
    fn clone(&self) -> Self {
        // Keeps the automaton-specific key encoding (and any warm entries —
        // they are a pure cache, so copying them is sound).
        SharedPermMemo::new(self.0.lock().expect("perm memo poisoned").clone())
    }
}

/// One compiled content-model rule.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// The rule's alphabet as dense symbol ids, sorted. Keeping per-rule
    /// structures at the *rule's* alphabet width (instead of the whole
    /// DTD's) keeps memory proportional to the total size of the content
    /// models.
    local_syms: Vec<Sym>,
    /// `bitset_cols[j]`: the bitset-NFA alphabet index of `local_syms[j]`.
    bitset_cols: Vec<u32>,
    /// Ordered-membership strategy (symbols outside `local_syms` reject
    /// immediately at lookup time in either variant).
    ordered: OrderedCheck,
    /// Allowed/required attributes, sorted by name.
    attrs: Vec<AttrName>,
    /// Unordered-membership strategy.
    unordered: UnorderedCheck,
    /// Bit-parallel NFA for permutation and ordering queries.
    bitset: BitsetNfa<ElementType>,
}

impl CompiledRule {
    /// Run the compiled recogniser over interned children; a child symbol
    /// outside the rule's alphabet rejects immediately.
    fn matches_syms(&self, children: &[Sym]) -> bool {
        let width = self.local_syms.len();
        match &self.ordered {
            OrderedCheck::Table {
                table,
                accepting,
                start,
            } => {
                let mut q = *start as usize;
                for s in children {
                    match self.local_syms.binary_search(s) {
                        Ok(j) => q = table[q * width + j] as usize,
                        Err(_) => return false,
                    }
                }
                accepting[q]
            }
            OrderedCheck::NfaSim => {
                let mut current = self.bitset.start_mask().clone();
                let mut next = crate::compiled::empty_mask_like(&self.bitset);
                for s in children {
                    let Ok(j) = self.local_syms.binary_search(s) else {
                        return false;
                    };
                    if current.is_empty() {
                        return false;
                    }
                    self.bitset
                        .step_mask_into(&current, self.bitset_cols[j] as usize, &mut next);
                    std::mem::swap(&mut current, &mut next);
                }
                self.bitset.accepts(&current)
            }
        }
    }
}

/// An empty state mask sized for `nfa` (helper for the simulation variant).
fn empty_mask_like(nfa: &BitsetNfa<ElementType>) -> xdx_relang::StateMask {
    xdx_relang::StateMask::empty(nfa.num_states())
}

/// Above this many transition-table cells (`DFA states × alphabet`) the
/// eager subset construction bails out in favour of bit-parallel NFA
/// simulation. The bound is enforced on the *output* DFA while it is being
/// built ([`BitsetNfa::to_dfa_capped`]): subset construction is worst-case
/// exponential in NFA states (`(a|b)* a (a|b)^n`), and wide flat content
/// models (`e0* e1* … e511*`) are quadratic-plus in the alphabet, so no
/// pre-check of the NFA's size can be trusted.
const MAX_EAGER_DFA_WORK: usize = 1 << 16;

/// A [`Dtd`] compiled for repeated evaluation (see the module docs).
#[derive(Debug, Clone)]
pub struct CompiledDtd {
    root: Sym,
    elements: Interner<ElementType>,
    attr_names: Interner<AttrName>,
    /// Rules indexed by element symbol id.
    rules: Vec<CompiledRule>,
}

impl CompiledDtd {
    /// Compile `dtd`. Cost is linear in the total size of the per-rule DFAs;
    /// every subsequent conformance query is allocation-free per node.
    pub fn new(dtd: &Dtd) -> Self {
        let mut elements: Interner<ElementType> = Interner::new();
        let mut attr_names: Interner<AttrName> = Interner::new();
        // Dense ids for every element type first.
        for el in dtd.element_types() {
            elements.intern(el);
        }
        let root = elements.intern(dtd.root());
        let num_syms = elements.len();

        let mut rules = Vec::with_capacity(num_syms);
        for i in 0..num_syms {
            let el = elements.names()[i].clone();
            let nfa = dtd
                .content_nfa(&el)
                .expect("every interned element type has a rule");
            let bitset = BitsetNfa::from_nfa(nfa);
            // Re-order the rule's alphabet (sorted by element type) into
            // symbol-id order so lookups can binary-search `local_syms`.
            let mut col_syms: Vec<(Sym, usize)> = nfa
                .alphabet()
                .iter()
                .enumerate()
                .map(|(j, e)| {
                    let sym = elements
                        .get(e)
                        .expect("rule alphabets are subsets of the DTD's element types");
                    (sym, j)
                })
                .collect();
            col_syms.sort();
            let local_syms: Vec<Sym> = col_syms.iter().map(|&(sym, _)| sym).collect();
            let bitset_cols: Vec<u32> = col_syms.iter().map(|&(_, old_j)| old_j as u32).collect();
            let width = local_syms.len();
            let ordered = match bitset.to_dfa_capped(MAX_EAGER_DFA_WORK) {
                Some(dfa) => {
                    let n_states = dfa.num_states();
                    let mut table = vec![0u32; n_states * width];
                    for (q, row) in dfa.table().iter().enumerate() {
                        for (new_j, &(_, old_j)) in col_syms.iter().enumerate() {
                            table[q * width + new_j] = row[old_j] as u32;
                        }
                    }
                    OrderedCheck::Table {
                        table,
                        accepting: (0..n_states).map(|q| dfa.is_accepting(q)).collect(),
                        start: dfa.start() as u32,
                    }
                }
                None => OrderedCheck::NfaSim,
            };

            let regex = dtd.rule(&el);
            let unordered = match regex.nested_relational_factors() {
                Some(factors) => {
                    let mut bounds: Vec<(Sym, u64, u64)> = Vec::with_capacity(factors.len());
                    let mut well_formed = true;
                    for f in &factors {
                        let Some(sym) = elements.get(&f.symbol) else {
                            well_formed = false;
                            break;
                        };
                        let max = match f.multiplicity {
                            Multiplicity::One | Multiplicity::Optional => 1,
                            Multiplicity::Plus | Multiplicity::Star => u64::MAX,
                        };
                        bounds.push((sym, f.multiplicity.min() as u64, max));
                    }
                    bounds.sort();
                    if well_formed && bounds.windows(2).all(|w| w[0].0 != w[1].0) {
                        UnorderedCheck::Bounds(bounds)
                    } else {
                        // Repeated symbols are not the paper's nested-
                        // relational shape; fall back to the general check.
                        UnorderedCheck::General {
                            memo: SharedPermMemo::new(bitset.perm_memo()),
                        }
                    }
                }
                None => UnorderedCheck::General {
                    memo: SharedPermMemo::new(bitset.perm_memo()),
                },
            };

            let mut attrs: Vec<AttrName> = dtd.attrs_of(&el).into_iter().collect();
            attrs.sort();
            for a in &attrs {
                attr_names.intern(a);
            }

            rules.push(CompiledRule {
                local_syms,
                bitset_cols,
                ordered,
                attrs,
                unordered,
                bitset,
            });
        }
        CompiledDtd {
            root,
            elements,
            attr_names,
            rules,
        }
    }

    /// The element-type interner.
    pub fn elements(&self) -> &Interner<ElementType> {
        &self.elements
    }

    /// The attribute-name interner.
    pub fn attr_names(&self) -> &Interner<AttrName> {
        &self.attr_names
    }

    /// Dense id of an element type, if the DTD declares it.
    #[inline]
    pub fn sym(&self, element: &ElementType) -> Option<Sym> {
        self.elements.get(element)
    }

    /// The element type behind a symbol.
    #[inline]
    pub fn element(&self, sym: Sym) -> &ElementType {
        self.elements.resolve(sym)
    }

    /// Number of element types.
    pub fn num_elements(&self) -> usize {
        self.elements.len()
    }

    /// Sorted allowed/required attributes of an element.
    #[inline]
    pub fn attrs(&self, sym: Sym) -> &[AttrName] {
        &self.rules[sym.index()].attrs
    }

    /// The pre-built bit-parallel NFA of an element's content model.
    #[inline]
    pub fn bitset_nfa(&self, sym: Sym) -> &BitsetNfa<ElementType> {
        &self.rules[sym.index()].bitset
    }

    /// Unordered membership: is the child multiset in the permutation
    /// language of the content model?
    ///
    /// `counts` is sparse — `(symbol, count)` pairs sorted by symbol with
    /// every count positive (see [`sparse_counts`]). Children with labels
    /// outside the DTD make conformance false before this is called.
    pub fn perm_accepts_counts(&self, parent: Sym, counts: &[(Sym, u64)]) -> bool {
        debug_assert!(counts.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(counts.iter().all(|&(_, c)| c > 0));
        let rule = &self.rules[parent.index()];
        match &rule.unordered {
            UnorderedCheck::Bounds(bounds) => {
                // Merge-walk the two sorted lists: every counted symbol must
                // have a bound, and every bound must be met (a symbol absent
                // from `counts` has count 0, which must satisfy `min`).
                let mut ci = 0;
                for &(sym, min, max) in bounds {
                    if ci < counts.len() && counts[ci].0 < sym {
                        return false; // counted symbol with no bound
                    }
                    let c = if ci < counts.len() && counts[ci].0 == sym {
                        ci += 1;
                        counts[ci - 1].1
                    } else {
                        0
                    };
                    if c < min || c > max {
                        return false;
                    }
                }
                ci == counts.len()
            }
            UnorderedCheck::General { memo } => {
                // Straight from sparse `Sym` counts to the bitset NFA's
                // alphabet indexing — no `BTreeMap<ElementType, u64>`
                // transcription — and through the rule's warm `PermMemo`
                // (shared across nodes, trees and threads), mirroring what
                // `core::ordering::SiblingOrderMemo` does for the ordering
                // path. The old path (`bitset_nfa(sym).perm_accepts`) stays
                // available and the two are differential-tested.
                let mut vec_counts = vec![0u64; rule.bitset.alphabet().len()];
                for &(sym, count) in counts {
                    match rule.local_syms.binary_search(&sym) {
                        Ok(j) => vec_counts[rule.bitset_cols[j] as usize] = count,
                        // A counted symbol outside the rule's alphabet can
                        // never be consumed.
                        Err(_) => return false,
                    }
                }
                // The shared memo is only borrowed when free: the counting
                // search can be long (worst-case exponential in the multiset),
                // so holding the lock across it would serialize batch workers
                // hitting the same rule. A contended caller searches on a
                // fresh local memo instead — slower for that one query, never
                // blocking.
                match memo.0.try_lock() {
                    Ok(mut shared) => {
                        if shared.len() > MAX_SHARED_PERM_MEMO {
                            shared.clear();
                        }
                        rule.bitset.perm_accepts_counts_memo(
                            rule.bitset.start_mask(),
                            &mut vec_counts,
                            &mut shared,
                        )
                    }
                    Err(_) => {
                        let mut local = rule.bitset.perm_memo();
                        rule.bitset.perm_accepts_counts_memo(
                            rule.bitset.start_mask(),
                            &mut vec_counts,
                            &mut local,
                        )
                    }
                }
            }
        }
    }

    /// Intern every node label of `tree`, indexed by `NodeId::index()`.
    /// Unknown labels come back as `None`.
    pub fn intern_tree(&self, tree: &XmlTree) -> Vec<Option<Sym>> {
        let mut out = vec![None; tree.arena_len()];
        for node in tree.nodes() {
            out[node.index()] = self.elements.get(tree.label(node));
        }
        out
    }

    /// Ordered conformance `T ⊨ D` (fast path; bails on the first
    /// violation).
    pub fn conforms(&self, tree: &XmlTree) -> bool {
        self.check(tree, true, None)
    }

    /// Unordered (weak) conformance `T |≈ D` (fast path).
    pub fn conforms_unordered(&self, tree: &XmlTree) -> bool {
        self.check(tree, false, None)
    }

    /// All conformance violations (fast path used by [`Dtd::violations`]).
    pub fn violations(&self, tree: &XmlTree, ordered: bool) -> Vec<ConformanceViolation> {
        let mut out = Vec::new();
        self.check(tree, ordered, Some(&mut out));
        out
    }

    /// Shared checking loop. With `collect` absent, returns on the first
    /// violation; with it present, records every violation (matching the
    /// reference `Dtd::violations_reference` output order).
    fn check(
        &self,
        tree: &XmlTree,
        ordered: bool,
        mut collect: Option<&mut Vec<ConformanceViolation>>,
    ) -> bool {
        let mut ok = true;
        macro_rules! violation {
            ($v:expr) => {{
                ok = false;
                match collect.as_deref_mut() {
                    Some(out) => out.push($v),
                    None => return false,
                }
            }};
        }

        let root_label = tree.label(tree.root());
        let expected_root = self.elements.resolve(self.root);
        if root_label != expected_root {
            violation!(ConformanceViolation::RootLabel {
                found: root_label.clone(),
                expected: expected_root.clone(),
            });
        }

        let mut child_syms: Vec<Sym> = Vec::new();
        let mut counts: Vec<(Sym, u64)> = Vec::new();
        for node in tree.nodes() {
            let label = tree.label(node);
            let Some(sym) = self.elements.get(label) else {
                violation!(ConformanceViolation::UnknownElementType {
                    node,
                    label: label.clone(),
                });
                continue;
            };
            let rule = &self.rules[sym.index()];

            // Attribute conditions: ρ@a(v) defined iff @a ∈ R(ℓ).
            let node_attrs = tree.attrs(node);
            for attr in node_attrs.keys() {
                if rule.attrs.binary_search(attr).is_err() {
                    violation!(ConformanceViolation::UnexpectedAttribute {
                        node,
                        attr: attr.clone(),
                    });
                }
            }
            for attr in &rule.attrs {
                if !node_attrs.contains_key(attr) {
                    violation!(ConformanceViolation::MissingAttribute {
                        node,
                        attr: attr.clone(),
                    });
                }
            }

            // Content-model condition over interned children.
            child_syms.clear();
            let mut known_children = true;
            for &c in tree.children(node) {
                match self.elements.get(tree.label(c)) {
                    Some(s) => child_syms.push(s),
                    None => {
                        known_children = false;
                        break;
                    }
                }
            }
            let content_ok = known_children
                && if ordered {
                    rule.matches_syms(&child_syms)
                } else {
                    sparse_counts(&mut child_syms, &mut counts);
                    self.perm_accepts_counts(sym, &counts)
                };
            if !content_ok {
                violation!(ConformanceViolation::ContentModel {
                    node,
                    label: label.clone(),
                    children: tree
                        .children(node)
                        .iter()
                        .map(|&c| tree.label(c).clone())
                        .collect(),
                });
            }
        }
        ok
    }
}

// Compile-time audit: compiled DTDs (and everything inside them — interners,
// dense tables, bitset NFAs) are shared across threads by `xdx-core`'s
// `CompiledSetting`/`BatchEngine`; this must keep compiling.
#[allow(dead_code)]
fn assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<CompiledDtd>();
    check::<CompiledRule>();
    check::<Interner<ElementType>>();
    check::<crate::dtd::Dtd>();
    check::<XmlTree>();
}

/// Run-length encode a multiset of symbols into sorted `(symbol, count)`
/// pairs (the sparse format [`CompiledDtd::perm_accepts_counts`] consumes).
/// Sorts `syms` in place; `out` is cleared and refilled.
pub fn sparse_counts(syms: &mut [Sym], out: &mut Vec<(Sym, u64)>) {
    out.clear();
    syms.sort_unstable();
    for &s in syms.iter() {
        match out.last_mut() {
            Some((prev, c)) if *prev == s => *c += 1,
            _ => out.push((s, 1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

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

    #[test]
    fn compiled_agrees_on_the_running_example() {
        let d = source_dtd();
        let t = TreeBuilder::new("db")
            .child("book", |b| {
                b.attr("@title", "CO")
                    .child("author", |a| a.attr("@name", "P").attr("@aff", "U"))
            })
            .build();
        let c = d.compiled();
        assert!(c.conforms(&t));
        assert!(c.conforms_unordered(&t));
        assert_eq!(d.conforms_reference(&t), c.conforms(&t));
    }

    #[test]
    fn compiled_violations_match_reference() {
        let d = source_dtd();
        // A tree with every kind of violation at once.
        let mut t = crate::tree::XmlTree::new("bib");
        let b = t.add_child(t.root(), "book");
        t.set_attr(b, "@isbn", "123");
        t.add_child(t.root(), "journal");
        let fast = d.compiled().violations(&t, true);
        let reference = d.violations_reference(&t);
        assert_eq!(fast, reference);
    }

    #[test]
    fn bounds_fast_path_matches_general_on_nested_relational_rules() {
        // r → a? b+ c* d is nested-relational: the unordered check must use
        // bounds and agree with the bitset permutation search.
        let d = Dtd::builder("r").rule("r", "a? b+ c* d").build().unwrap();
        let c = d.compiled();
        let r = c.sym(&"r".into()).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let counts: Vec<(Sym, u64)> = (0..c.num_elements())
                .map(|i| (Sym::from_index(i), rng.gen_range(0u64..3)))
                .filter(|&(_, n)| n > 0)
                .collect();
            let fast = c.perm_accepts_counts(r, &counts);
            let map: BTreeMap<ElementType, u64> = counts
                .iter()
                .map(|&(sym, n)| (c.elements().names()[sym.index()].clone(), n))
                .collect();
            // Root count must be zero for a valid child multiset; the
            // general path rejects it, bounds must too.
            let general = c.bitset_nfa(r).perm_accepts(&map);
            assert_eq!(fast, general, "counts {counts:?}");
        }
    }

    #[test]
    fn general_fallback_memo_matches_btreemap_path_on_chase_heavy_rules() {
        // Chase-heavy shapes outside the nested-relational class: the
        // memoised per-rule fallback must agree query-for-query with the
        // old `BTreeMap<ElementType, u64>` transcription through
        // `BitsetNfa::perm_accepts` — including queries that *repeat*
        // (warm memo) and counted symbols outside the rule's alphabet.
        for model in ["(a b)* (c d)*", "(a b c)*", "(a|b b)* c?", "a (b|c)* a"] {
            let d = Dtd::builder("r")
                .rule("r", model)
                .rule("a", "eps")
                .rule("b", "eps")
                .rule("c", "eps")
                .rule("d", "eps")
                .build()
                .unwrap();
            let c = d.compiled();
            let r = c.sym(&"r".into()).unwrap();
            assert!(
                matches!(c.rules[r.index()].unordered, UnorderedCheck::General { .. }),
                "{model} must take the general fallback"
            );
            let mut rng = StdRng::seed_from_u64(7);
            for round in 0..300 {
                let counts: Vec<(Sym, u64)> = (0..c.num_elements())
                    .map(|i| (Sym::from_index(i), rng.gen_range(0u64..4)))
                    .filter(|&(_, n)| n > 0)
                    .collect();
                let fast = c.perm_accepts_counts(r, &counts);
                let map: BTreeMap<ElementType, u64> = counts
                    .iter()
                    .map(|&(sym, n)| (c.elements().names()[sym.index()].clone(), n))
                    .collect();
                let reference = c.bitset_nfa(r).perm_accepts(&map);
                assert_eq!(fast, reference, "{model} round {round} counts {counts:?}");
                // Re-ask immediately: the warm memo must not flip the answer.
                assert_eq!(c.perm_accepts_counts(r, &counts), reference);
            }
        }
    }

    #[test]
    fn general_fallback_on_non_nested_relational_rules() {
        let d = Dtd::builder("r").rule("r", "(a b)*").build().unwrap();
        let c = d.compiled();
        let t_ok = TreeBuilder::new("r").leaf("b").leaf("a").build();
        assert!(!c.conforms(&t_ok));
        assert!(c.conforms_unordered(&t_ok));
        let t_bad = TreeBuilder::new("r").leaf("a").leaf("a").build();
        assert!(!c.conforms_unordered(&t_bad));
    }

    #[test]
    fn wide_content_models_fall_back_to_nfa_simulation() {
        // A 300-field flat record: the root rule's DFA (k+1 states × k
        // symbols) exceeds MAX_EAGER_DFA_WORK table cells, so the ordered
        // check must run on the bit-parallel simulation — and still agree
        // with the reference path.
        let k = 300usize;
        let mut b = Dtd::builder("r").rule(
            "r",
            &(0..k)
                .map(|i| format!("e{i}*"))
                .collect::<Vec<_>>()
                .join(" "),
        );
        for i in 0..k {
            b = b.rule(format!("e{i}"), "eps");
        }
        let dtd = b.build().unwrap();
        let c = dtd.compiled();
        let r = c.sym(&"r".into()).unwrap();
        assert!(matches!(c.rules[r.index()].ordered, OrderedCheck::NfaSim));
        let mut t = crate::tree::XmlTree::new("r");
        for i in 0..k {
            t.add_child(t.root(), format!("e{i}"));
            t.add_child(t.root(), format!("e{i}"));
        }
        assert!(c.conforms(&t));
        assert!(dtd.conforms_reference(&t));
        // The compiled unordered check runs on the sparse bounds (the
        // reference permutation search is too slow at this width to compare
        // against in a unit test).
        assert!(c.conforms_unordered(&t));
        // Swap two children out of field order: ordered fails, unordered
        // holds.
        let kids: Vec<_> = t.children(t.root()).to_vec();
        let mut order = kids.clone();
        order.swap(0, kids.len() - 1);
        t.set_child_order(t.root(), order);
        assert!(!c.conforms(&t));
        assert!(!dtd.conforms_reference(&t));
        assert!(c.conforms_unordered(&t));
    }

    #[test]
    fn exponential_determinization_falls_back_to_nfa_simulation() {
        // (a|b)* a (a|b)^18 determinizes to ~2^19 states from a ~80-state
        // NFA: the output cap must trip and conformance must stay fast and
        // correct on the simulation path.
        let n = 18usize;
        let mut model = String::from("(a|b)* a");
        for _ in 0..n {
            model.push_str(" (a|b)");
        }
        let dtd = Dtd::builder("r").rule("r", &model).build().unwrap();
        let c = dtd.compiled();
        let r = c.sym(&"r".into()).unwrap();
        assert!(matches!(c.rules[r.index()].ordered, OrderedCheck::NfaSim));
        // 'a' followed by n trailing symbols: accepted; n-1 trailing: not.
        let mut good = crate::tree::XmlTree::new("r");
        good.add_child(good.root(), "a");
        for i in 0..n {
            good.add_child(good.root(), if i % 2 == 0 { "b" } else { "a" });
        }
        assert!(c.conforms(&good));
        assert!(dtd.conforms_reference(&good));
        let mut bad = crate::tree::XmlTree::new("r");
        for _ in 0..n {
            bad.add_child(bad.root(), "b");
        }
        assert!(!c.conforms(&bad));
        assert!(!dtd.conforms_reference(&bad));
    }

    #[test]
    fn intern_tree_maps_known_and_unknown_labels() {
        let d = source_dtd();
        let mut t = crate::tree::XmlTree::new("db");
        let b = t.add_child(t.root(), "book");
        let x = t.add_child(b, "mystery");
        let syms = d.compiled().intern_tree(&t);
        assert!(syms[t.root().index()].is_some());
        assert!(syms[b.index()].is_some());
        assert!(syms[x.index()].is_none());
    }
}
