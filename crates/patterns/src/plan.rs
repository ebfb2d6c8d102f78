//! Join-ordered pattern evaluation — the planned fast path.
//!
//! The recursive reference evaluator ([`crate::eval::all_matches_reference`])
//! is *enumerate-then-merge*: at every candidate node it re-enumerates every
//! child for every sub-pattern and deduplicates assignment sets through
//! `BTreeSet`s of whole `BTreeMap`s.
//! This module replaces that with a twig-join-style worklist matcher:
//!
//! * a [`TreeIndex`] is built in **one pass** over the tree: per-symbol
//!   candidate buckets for interned labels, string-keyed buckets for labels
//!   the DTD does not declare, and the preorder node list for wildcards —
//!   so a pattern node only ever visits the tree nodes its label test can
//!   accept, instead of scanning the whole tree;
//! * a [`PatternPlan`] flattens the pattern into **bottom-up evaluation
//!   order** (children strictly before parents), so every sub-pattern's
//!   match sites are known before its parent joins them. Parent joins go
//!   through a *group-by-tree-parent* edge map, making the per-candidate
//!   cost proportional to the matches actually below it, not to its child
//!   count, and child/descendant edges are joined in ascending order of
//!   their **measured** cardinality (the bottom-up order makes exact
//!   selectivities free — no estimation error);
//! * partial assignments are interned in an `AssignStore`: every distinct
//!   assignment gets a dense `u32` id from an `FxHash`-style map, so
//!   deduplication during merges is a hash-set of `u32`s and repeated merges
//!   of the same pair hit a memo instead of re-walking two `BTreeMap`s.
//!
//! [`QueryPlan`] lifts the same idea to conjunctive tree queries: the
//! per-pattern relations of a branch share one assignment store and are
//! joined smallest-first.
//!
//! The recursive evaluator remains the oracle:
//! [`crate::eval::all_matches_reference`] is kept unchanged and the planned
//! evaluator is differential-tested against it (unit tests below plus the
//! randomized harness in `tests/pattern_differential.rs`).

use crate::eval::{merge_assignments, Assignment};
use crate::pattern::{AttrBinding, LabelTest, Term, TreePattern, Var};
use crate::query::{ConjunctiveTreeQuery, UnionQuery};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use xdx_xmltree::{AttrName, CompiledDtd, ElementType, NodeId, Sym, Value, XmlTree};

// ---------------------------------------------------------------------------
// FxHash-style hashing
// ---------------------------------------------------------------------------

/// The multiplier of the rustc/Firefox "Fx" hash.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A minimal FxHash-style hasher: one rotate + xor + multiply per word.
/// Deterministic (no random state), so iteration-free uses of the maps below
/// produce identical results across runs and threads.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` keyed by the FxHash-style hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` keyed by the FxHash-style hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

// ---------------------------------------------------------------------------
// Assignment interning
// ---------------------------------------------------------------------------

/// Dense id of an interned [`Assignment`]. Id 0 is always the empty
/// assignment.
type AssignId = u32;

/// Hashed-assignment dedup: every distinct assignment seen during one
/// evaluation gets a dense id, so set operations on assignment sets become
/// set operations on `u32`s, and merging the same pair twice hits a memo.
///
/// The id table is keyed by the assignment's hash with explicit collision
/// buckets (ids into the arena), so interning moves the assignment into the
/// arena without ever cloning it.
#[derive(Debug, Default)]
struct AssignStore {
    assignments: Vec<Assignment>,
    /// Assignment hash → ids of arena entries with that hash.
    ids: FxHashMap<u64, Vec<AssignId>>,
    /// Memo of pairwise merges, keyed by the (order-normalised) id pair.
    merges: FxHashMap<(AssignId, AssignId), Option<AssignId>>,
}

fn assignment_hash(assignment: &Assignment) -> u64 {
    use std::hash::Hash;
    let mut hasher = FxHasher::default();
    assignment.hash(&mut hasher);
    hasher.finish()
}

impl AssignStore {
    fn new() -> Self {
        let mut store = AssignStore::default();
        store.intern(Assignment::new());
        store
    }

    /// Interned assignments currently in the arena.
    fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Forget every interned assignment but keep the allocated hash tables
    /// and the arena `Vec`'s capacity, so the next evaluation starts with
    /// warm heap blocks (the point of [`EvalScratch`]).
    fn reset(&mut self) {
        self.assignments.clear();
        self.ids.clear();
        self.merges.clear();
        self.intern(Assignment::new());
    }

    fn intern(&mut self, assignment: Assignment) -> AssignId {
        let bucket = self.ids.entry(assignment_hash(&assignment)).or_default();
        for &id in bucket.iter() {
            if self.assignments[id as usize] == assignment {
                return id;
            }
        }
        let id = self.assignments.len() as AssignId;
        self.assignments.push(assignment);
        bucket.push(id);
        id
    }

    #[inline]
    fn get(&self, id: AssignId) -> &Assignment {
        &self.assignments[id as usize]
    }

    /// Merge two interned assignments; `None` if they disagree on a shared
    /// variable.
    fn merge(&mut self, a: AssignId, b: AssignId) -> Option<AssignId> {
        if a == b || b == 0 {
            return Some(a);
        }
        if a == 0 {
            return Some(b);
        }
        let key = (a.min(b), a.max(b));
        if let Some(&memoised) = self.merges.get(&key) {
            return memoised;
        }
        let merged = merge_assignments(self.get(key.0), self.get(key.1)).map(|m| self.intern(m));
        self.merges.insert(key, merged);
        merged
    }
}

// ---------------------------------------------------------------------------
// Tree index
// ---------------------------------------------------------------------------

/// A one-pass label index of a tree: per-node candidate sets for every kind
/// of label test.
///
/// Built once per tree (against the same [`CompiledDtd`] the plans were
/// built against, or DTD-less for DTD-less plans) and shared by every plan
/// evaluated over that tree — the compiled layer builds one per source /
/// target document and evaluates all STD patterns and query patterns
/// against it.
#[derive(Debug)]
pub struct TreeIndex {
    /// Candidate buckets for interned labels, indexed by `Sym::index()`,
    /// nodes in preorder.
    by_sym: Vec<Vec<NodeId>>,
    /// Candidate buckets for uninterned labels, keyed by the label itself.
    by_label: FxHashMap<ElementType, Vec<NodeId>>,
    /// Candidate buckets per attribute name (`@a` → nodes carrying `@a`, in
    /// preorder). A match of any attribute formula must carry every bound
    /// attribute, so for binding-guarded *wildcard* tests the smallest
    /// binding's bucket is a complete candidate set — no preorder scan.
    /// Built lazily on the first such lookup: most plans contain no
    /// binding-guarded wildcard, and those pay nothing for the map.
    by_attr: std::sync::OnceLock<FxHashMap<AttrName, Vec<NodeId>>>,
    /// Every node, in preorder (bare-wildcard candidates).
    nodes: Vec<NodeId>,
}

impl TreeIndex {
    /// Index `tree` against `dtd`'s symbol table.
    pub fn new(tree: &XmlTree, dtd: &CompiledDtd) -> Self {
        Self::build(tree, Some(dtd))
    }

    /// Index `tree` with no DTD: every label test resolves by string
    /// comparison (the semantics of the reference evaluator).
    pub fn without_dtd(tree: &XmlTree) -> Self {
        Self::build(tree, None)
    }

    /// An index over nothing; pair with [`TreeIndex::rebuild`] (the shape a
    /// reusable scratch slot starts in).
    pub fn empty() -> Self {
        TreeIndex {
            by_sym: Vec::new(),
            by_label: FxHashMap::default(),
            by_attr: std::sync::OnceLock::new(),
            nodes: Vec::new(),
        }
    }

    /// Re-index a (new) tree **in place**, keeping the heap blocks of the
    /// previous document: the preorder list and every per-symbol candidate
    /// bucket are cleared and refilled without reallocating. This is the
    /// per-document amortisation hook of the batch engine and the serving
    /// dispatcher — one `TreeIndex` per worker lives across all documents
    /// the worker processes.
    pub fn rebuild(&mut self, tree: &XmlTree, dtd: &CompiledDtd) {
        self.fill(tree, Some(dtd));
    }

    fn build(tree: &XmlTree, dtd: Option<&CompiledDtd>) -> Self {
        let mut index = Self::empty();
        index.fill(tree, dtd);
        index
    }

    fn fill(&mut self, tree: &XmlTree, dtd: Option<&CompiledDtd>) {
        self.nodes.clear();
        self.nodes.extend(tree.preorder());
        for bucket in &mut self.by_sym {
            bucket.clear();
        }
        // `by_label` values are dropped (keys change between documents);
        // uninterned labels are the rare case, so nothing worth keeping.
        self.by_label.clear();
        // The lazily-built attribute index belongs to the previous tree.
        self.by_attr = std::sync::OnceLock::new();
        for i in 0..self.nodes.len() {
            let node = self.nodes[i];
            let label = tree.label(node);
            match dtd.and_then(|d| d.sym(label)) {
                Some(sym) => {
                    if self.by_sym.len() <= sym.index() {
                        self.by_sym.resize_with(sym.index() + 1, Vec::new);
                    }
                    self.by_sym[sym.index()].push(node);
                }
                None => self.by_label.entry(label.clone()).or_default().push(node),
            }
        }
    }

    /// The `@a → nodes` buckets, built on first use from the preorder list
    /// (`tree` must be the tree this index was built over, like every other
    /// lookup on the index).
    fn attr_buckets(&self, tree: &XmlTree) -> &FxHashMap<AttrName, Vec<NodeId>> {
        self.by_attr.get_or_init(|| {
            let mut map: FxHashMap<AttrName, Vec<NodeId>> = FxHashMap::default();
            for &node in &self.nodes {
                for attr in tree.attrs(node).keys() {
                    map.entry(attr.clone()).or_default().push(node);
                }
            }
            map
        })
    }

    /// The candidate nodes of an attribute formula, in preorder. Label
    /// tests use their label bucket; a *wildcard* test with bindings uses
    /// the smallest bucket among the bound attribute names (every match
    /// must carry all of them), so binding-guarded wildcards are selective
    /// too; only a bare wildcard scans the full preorder list.
    fn candidates(
        &self,
        tree: &XmlTree,
        label: &ResolvedLabel,
        bindings: &[AttrBinding],
    ) -> &[NodeId] {
        match label {
            ResolvedLabel::Any => {
                let mut best: Option<&[NodeId]> = None;
                for binding in bindings {
                    let bucket = self
                        .attr_buckets(tree)
                        .get(&binding.attr)
                        .map(Vec::as_slice)
                        .unwrap_or(&[]);
                    if best.is_none_or(|cur| bucket.len() < cur.len()) {
                        best = Some(bucket);
                    }
                }
                best.unwrap_or(&self.nodes)
            }
            ResolvedLabel::Is(sym) => self
                .by_sym
                .get(sym.index())
                .map(Vec::as_slice)
                .unwrap_or(&[]),
            ResolvedLabel::Named(label) => {
                self.by_label.get(label).map(Vec::as_slice).unwrap_or(&[])
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reusable evaluation scratch
// ---------------------------------------------------------------------------

/// Reusable per-evaluation state: the assignment store (arena + id tables +
/// merge memo) and the dedup set. One `EvalScratch` held across documents
/// keeps those heap blocks warm — the `*_with` entry points below reset it
/// (cheap, capacity-preserving) instead of reallocating per document.
///
/// Deliberately **not** `Sync`: a scratch belongs to one worker. The batch
/// engine and the serving dispatcher hold one per worker thread.
#[derive(Debug, Default)]
pub struct EvalScratch {
    store: AssignStore,
    seen: FxHashSet<AssignId>,
    /// Largest assignment-store population any evaluation on this scratch
    /// ever reached (captured at reset; the live store counts too).
    highwater: usize,
}

impl EvalScratch {
    /// A fresh scratch (equivalent to what the non-`_with` entry points
    /// build internally per call).
    pub fn new() -> Self {
        EvalScratch {
            store: AssignStore::new(),
            seen: FxHashSet::default(),
            highwater: 0,
        }
    }

    fn reset(&mut self) {
        self.highwater = self.highwater.max(self.store.len());
        self.store.reset();
        self.seen.clear();
    }

    /// Largest number of interned assignments any evaluation on this
    /// scratch ever held at once — the memory high-watermark of the join
    /// machinery, exported by the server as `engine.assign_highwater`.
    pub fn assign_highwater(&self) -> usize {
        self.highwater.max(self.store.len())
    }
}

// ---------------------------------------------------------------------------
// Pattern plans
// ---------------------------------------------------------------------------

/// A label test resolved against a DTD's symbol table.
#[derive(Debug, Clone)]
enum ResolvedLabel {
    /// Wildcard `_`: accepts every node.
    Any,
    /// A concrete element type, as its dense symbol id.
    Is(Sym),
    /// A concrete element type with no symbol: the plan has no DTD, or the
    /// DTD does not declare the label. Patterns are also evaluated against
    /// unvalidated trees (the paper never requires `T ⊨ D` for pattern
    /// semantics), so this compares node labels directly — exactly what the
    /// reference evaluator does.
    Named(ElementType),
}

/// One flattened pattern node. `children`/`inner` are indices into the
/// plan's node vector, which is in postorder — every index is smaller than
/// its parent's, so evaluating slots `0..len` in order is bottom-up.
#[derive(Debug, Clone)]
enum PlanNode {
    /// An attribute formula with child sub-patterns.
    Node {
        label: ResolvedLabel,
        bindings: Vec<AttrBinding>,
        children: Vec<usize>,
    },
    /// `//ϕ` — witnessed by a proper descendant.
    Descendant { inner: usize },
}

/// A [`TreePattern`] pre-planned for join-ordered evaluation (see the module
/// docs). Build once per `(pattern, DTD)` — or DTD-less — and evaluate
/// against any number of trees through per-tree [`TreeIndex`]es.
#[derive(Debug, Clone)]
pub struct PatternPlan {
    /// Plan nodes in postorder; the root is the last slot.
    nodes: Vec<PlanNode>,
}

impl PatternPlan {
    /// Plan `pattern` against `dtd`'s symbol table (labels the DTD does not
    /// declare keep the string-comparison fallback).
    pub fn new(pattern: &TreePattern, dtd: &CompiledDtd) -> Self {
        PatternPlan::build(pattern, Some(dtd))
    }

    /// Plan `pattern` with no DTD: every concrete label test compares label
    /// strings (pair with [`TreeIndex::without_dtd`]).
    pub fn without_dtd(pattern: &TreePattern) -> Self {
        PatternPlan::build(pattern, None)
    }

    /// Flatten `pattern` into postorder, resolving each label test against
    /// `dtd` — the one place a pattern label becomes a [`ResolvedLabel`].
    fn build(pattern: &TreePattern, dtd: Option<&CompiledDtd>) -> Self {
        fn flatten(
            pattern: &TreePattern,
            dtd: Option<&CompiledDtd>,
            nodes: &mut Vec<PlanNode>,
        ) -> usize {
            match pattern {
                TreePattern::Node { attr, children } => {
                    let children = children.iter().map(|c| flatten(c, dtd, nodes)).collect();
                    let label = match &attr.label {
                        LabelTest::Wildcard => ResolvedLabel::Any,
                        LabelTest::Element(e) => match dtd.and_then(|d| d.sym(e)) {
                            Some(sym) => ResolvedLabel::Is(sym),
                            None => ResolvedLabel::Named(e.clone()),
                        },
                    };
                    nodes.push(PlanNode::Node {
                        label,
                        bindings: attr.bindings.clone(),
                        children,
                    });
                }
                TreePattern::Descendant(inner) => {
                    let inner = flatten(inner, dtd, nodes);
                    nodes.push(PlanNode::Descendant { inner });
                }
            }
            nodes.len() - 1
        }
        let mut nodes = Vec::new();
        flatten(pattern, dtd, &mut nodes);
        PatternPlan { nodes }
    }

    /// All assignments under which some node of `tree` witnesses the
    /// pattern — the planned analogue of
    /// [`crate::eval::all_matches_reference`]. `index` must have been built
    /// over `tree` against the same DTD (or DTD-less) as this plan.
    pub fn all_matches(&self, tree: &XmlTree, index: &TreeIndex) -> Vec<Assignment> {
        let mut store = AssignStore::new();
        let ids = self.matches_ids(tree, index, &mut store);
        ids.into_iter().map(|id| store.get(id).clone()).collect()
    }

    /// Visit every distinct match **restricted to the variables in `keep`**.
    /// This is the shape the exchange pipeline consumes (matches restricted
    /// to the STD's shared variables, deduplicated): restriction and dedup
    /// happen on interned ids inside the store, so full matches are never
    /// cloned out and duplicates cost one hash probe. `f`'s first error
    /// aborts the walk.
    pub fn try_for_each_restricted_match<E>(
        &self,
        tree: &XmlTree,
        index: &TreeIndex,
        keep: &BTreeSet<Var>,
        f: impl FnMut(&Assignment) -> Result<(), E>,
    ) -> Result<(), E> {
        self.try_for_each_restricted_match_with(tree, index, keep, &mut EvalScratch::new(), f)
    }

    /// As [`Self::try_for_each_restricted_match`], reusing a caller-held
    /// [`EvalScratch`] (reset on entry) so repeated per-document evaluations
    /// keep their assignment-store heap blocks.
    pub fn try_for_each_restricted_match_with<E>(
        &self,
        tree: &XmlTree,
        index: &TreeIndex,
        keep: &BTreeSet<Var>,
        scratch: &mut EvalScratch,
        mut f: impl FnMut(&Assignment) -> Result<(), E>,
    ) -> Result<(), E> {
        scratch.reset();
        let EvalScratch { store, seen, .. } = scratch;
        let ids = self.matches_ids(tree, index, store);
        for id in ids {
            let full = store.get(id);
            let rid = if full.keys().all(|v| keep.contains(v)) {
                // Already within the kept variables: restriction is the
                // identity, no rebuild needed.
                id
            } else {
                let restricted: Assignment = full
                    .iter()
                    .filter(|(v, _)| keep.contains(*v))
                    .map(|(v, value)| (v.clone(), value.clone()))
                    .collect();
                store.intern(restricted)
            };
            if seen.insert(rid) {
                f(store.get(rid))?;
            }
        }
        Ok(())
    }

    /// As [`Self::all_matches`], but interning into a caller-provided store
    /// and returning ids — [`QueryPlan`] joins several patterns' relations
    /// in one shared store.
    fn matches_ids(
        &self,
        tree: &XmlTree,
        index: &TreeIndex,
        store: &mut AssignStore,
    ) -> Vec<AssignId> {
        let results = self.evaluate(tree, index, store);
        let root = results.last().expect("plans are never empty");
        // Union the root's per-site assignment sets, first occurrence wins
        // (site order is deterministic, so the output order is too).
        let mut seen: FxHashSet<AssignId> = FxHashSet::default();
        let mut out = Vec::new();
        for &id in &root.ids {
            if seen.insert(id) {
                out.push(id);
            }
        }
        out
    }

    /// Bottom-up evaluation: one [`Matches`] per plan slot, computed in
    /// postorder so every child's match sites exist before its parent joins
    /// them.
    fn evaluate(&self, tree: &XmlTree, index: &TreeIndex, store: &mut AssignStore) -> Vec<Matches> {
        let mut results: Vec<Matches> = Vec::with_capacity(self.nodes.len());
        for plan_node in &self.nodes {
            let matches = match plan_node {
                PlanNode::Node {
                    label,
                    bindings,
                    children,
                } => self.eval_node(tree, index, store, label, bindings, children, &results),
                PlanNode::Descendant { inner } => eval_descendant(tree, &results[*inner]),
            };
            results.push(matches);
        }
        results
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_node(
        &self,
        tree: &XmlTree,
        index: &TreeIndex,
        store: &mut AssignStore,
        label: &ResolvedLabel,
        bindings: &[AttrBinding],
        children: &[usize],
        results: &[Matches],
    ) -> Matches {
        // Join order: most selective (fewest matches) child edge first, so
        // the intermediate partial-assignment sets stay small and empty
        // joins fail before any merging happens. Ties keep pattern order.
        let mut edge_order: Vec<usize> = children.to_vec();
        edge_order.sort_by_key(|&c| results[c].total());
        if let Some(&first) = edge_order.first() {
            if results[first].total() == 0 {
                // Some sub-pattern matched nowhere: no candidate can win.
                return Matches::default();
            }
        }
        // Group every child edge's match sites by their tree parent, so a
        // candidate's join input is one hash lookup instead of a scan over
        // its children.
        let edge_maps: Vec<FxHashMap<NodeId, Vec<AssignId>>> = edge_order
            .iter()
            .map(|&c| {
                let mut map: FxHashMap<NodeId, Vec<AssignId>> = FxHashMap::default();
                for &(node, start, end) in &results[c].sites {
                    if let Some(parent) = tree.parent(node) {
                        map.entry(parent)
                            .or_default()
                            .extend_from_slice(&results[c].ids[start as usize..end as usize]);
                    }
                }
                map
            })
            .collect();

        let mut out = Matches::default();
        let mut partials: Vec<AssignId> = Vec::new();
        let mut next: Vec<AssignId> = Vec::new();
        let mut next_seen: FxHashSet<AssignId> = FxHashSet::default();
        'candidates: for &node in index.candidates(tree, label, bindings) {
            partials.clear();
            if bindings.is_empty() {
                // No bindings: the base is the empty assignment (id 0).
                partials.push(0);
            } else {
                let Some(base) = match_bindings(tree, node, bindings) else {
                    continue;
                };
                partials.push(store.intern(base));
            }
            for edge_map in &edge_maps {
                let Some(available) = edge_map.get(&node) else {
                    continue 'candidates;
                };
                next.clear();
                next_seen.clear();
                for &partial in &partials {
                    for &m in available {
                        if let Some(merged) = store.merge(partial, m) {
                            if next_seen.insert(merged) {
                                next.push(merged);
                            }
                        }
                    }
                }
                if next.is_empty() {
                    continue 'candidates;
                }
                std::mem::swap(&mut partials, &mut next);
            }
            out.push_site(node, &partials);
        }
        out
    }
}

/// The match sites of one plan node over one tree: `(node, span into `ids`)`
/// triples in deterministic node order, with all assignment ids in one flat
/// arena (no per-site allocation).
#[derive(Debug, Default)]
struct Matches {
    sites: Vec<(NodeId, u32, u32)>,
    ids: Vec<AssignId>,
}

impl Matches {
    fn push_site(&mut self, node: NodeId, ids: &[AssignId]) {
        let start = self.ids.len() as u32;
        self.ids.extend_from_slice(ids);
        self.sites.push((node, start, self.ids.len() as u32));
    }

    /// Total assignment count across sites (the join-ordering cardinality).
    fn total(&self) -> usize {
        self.ids.len()
    }
}

/// `//ϕ` — propagate every inner match site to all proper ancestors. Sparse
/// on purpose: cost is `O(matches × depth)`, not `O(nodes²)`.
fn eval_descendant(tree: &XmlTree, inner: &Matches) -> Matches {
    let mut acc: FxHashMap<NodeId, Vec<AssignId>> = FxHashMap::default();
    for &(node, start, end) in &inner.sites {
        let mut ancestor = tree.parent(node);
        while let Some(a) = ancestor {
            acc.entry(a)
                .or_default()
                .extend_from_slice(&inner.ids[start as usize..end as usize]);
            ancestor = tree.parent(a);
        }
    }
    let mut grouped: Vec<(NodeId, Vec<AssignId>)> = acc.into_iter().collect();
    grouped.sort_unstable_by_key(|&(node, _)| node);
    let mut out = Matches::default();
    for (node, mut ids) in grouped {
        // The same assignment may be witnessed at several descendants.
        ids.sort_unstable();
        ids.dedup();
        out.push_site(node, &ids);
    }
    out
}

/// The assignment under which `node` satisfies the attribute bindings of a
/// formula (its label test already passed), or `None`.
fn match_bindings(tree: &XmlTree, node: NodeId, bindings: &[AttrBinding]) -> Option<Assignment> {
    let mut assignment = Assignment::new();
    for binding in bindings {
        let value = tree.attr(node, &binding.attr)?;
        match &binding.term {
            Term::Const(expected) => {
                if value.as_const() != Some(expected.as_str()) {
                    return None;
                }
            }
            Term::Var(var) => match assignment.get(var) {
                Some(existing) if existing != value => return None,
                _ => {
                    assignment.insert(var.clone(), value.clone());
                }
            },
        }
    }
    Some(assignment)
}

// ---------------------------------------------------------------------------
// Query plans
// ---------------------------------------------------------------------------

/// A [`UnionQuery`] pre-planned for join-ordered evaluation: every pattern
/// of every branch becomes a [`PatternPlan`], and a branch's relations are
/// joined smallest-first in one shared assignment store.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    branches: Vec<BranchPlan>,
}

#[derive(Debug, Clone)]
struct BranchPlan {
    head: Vec<Var>,
    patterns: Vec<PatternPlan>,
}

impl QueryPlan {
    /// Plan `query` against `dtd`'s symbol table.
    pub fn new(query: &UnionQuery, dtd: &CompiledDtd) -> Self {
        QueryPlan::build(query.branches(), Some(dtd))
    }

    /// Plan `query` with no DTD (pair with [`TreeIndex::without_dtd`]).
    pub fn without_dtd(query: &UnionQuery) -> Self {
        QueryPlan::build(query.branches(), None)
    }

    /// Plan the union of `branches` (also how a lone
    /// [`ConjunctiveTreeQuery`] evaluates, as a one-branch slice).
    pub(crate) fn build(branches: &[ConjunctiveTreeQuery], dtd: Option<&CompiledDtd>) -> Self {
        QueryPlan {
            branches: branches
                .iter()
                .map(|b| BranchPlan {
                    head: b.head().to_vec(),
                    patterns: b
                        .patterns()
                        .iter()
                        .map(|p| PatternPlan::build(p, dtd))
                        .collect(),
                })
                .collect(),
        }
    }

    /// Evaluate the query over `tree`, returning the set of head tuples —
    /// the planned analogue of [`UnionQuery::evaluate`]. `index` must have
    /// been built over `tree` against the same DTD (or DTD-less) as this
    /// plan.
    pub fn evaluate(&self, tree: &XmlTree, index: &TreeIndex) -> BTreeSet<Vec<Value>> {
        self.evaluate_with(tree, index, &mut EvalScratch::new())
    }

    /// As [`Self::evaluate`], reusing a caller-held [`EvalScratch`] across
    /// documents (one store reset per branch instead of one allocation).
    pub fn evaluate_with(
        &self,
        tree: &XmlTree,
        index: &TreeIndex,
        scratch: &mut EvalScratch,
    ) -> BTreeSet<Vec<Value>> {
        let mut out = BTreeSet::new();
        for branch in &self.branches {
            scratch.reset();
            branch.evaluate_into(tree, index, &mut scratch.store, &mut out);
        }
        out
    }

    /// Evaluate a Boolean query (planned analogue of
    /// [`UnionQuery::evaluate_boolean`]).
    pub fn evaluate_boolean(&self, tree: &XmlTree, index: &TreeIndex) -> bool {
        self.evaluate_boolean_with(tree, index, &mut EvalScratch::new())
    }

    /// As [`Self::evaluate_boolean`] on a caller-held [`EvalScratch`].
    /// A branch stops at its first witness: the first merge that survives
    /// its last relation.
    pub fn evaluate_boolean_with(
        &self,
        tree: &XmlTree,
        index: &TreeIndex,
        scratch: &mut EvalScratch,
    ) -> bool {
        self.branches.iter().any(|branch| {
            scratch.reset();
            !branch
                .join(tree, index, &mut scratch.store, true)
                .is_empty()
        })
    }
}

impl BranchPlan {
    /// Join the branch's relations, smallest first, and return the distinct
    /// assignments that survive them all — or, when `first_only`, just the
    /// first one found (empty when there is none).
    fn join(
        &self,
        tree: &XmlTree,
        index: &TreeIndex,
        store: &mut AssignStore,
        first_only: bool,
    ) -> Vec<AssignId> {
        let mut relations: Vec<Vec<AssignId>> = Vec::with_capacity(self.patterns.len());
        for pattern in &self.patterns {
            let relation = pattern.matches_ids(tree, index, store);
            if relation.is_empty() {
                return Vec::new();
            }
            relations.push(relation);
        }
        // Join order across conjuncts: smallest relation first.
        relations.sort_by_key(Vec::len);
        let mut acc: Vec<AssignId> = vec![0];
        let mut next: Vec<AssignId> = Vec::new();
        let mut seen: FxHashSet<AssignId> = FxHashSet::default();
        for (i, relation) in relations.iter().enumerate() {
            let last = i + 1 == relations.len();
            next.clear();
            seen.clear();
            for &a in &acc {
                for &b in relation {
                    if let Some(merged) = store.merge(a, b) {
                        if first_only && last {
                            return vec![merged];
                        }
                        if seen.insert(merged) {
                            next.push(merged);
                        }
                    }
                }
            }
            if next.is_empty() {
                return Vec::new();
            }
            std::mem::swap(&mut acc, &mut next);
        }
        acc
    }

    fn evaluate_into(
        &self,
        tree: &XmlTree,
        index: &TreeIndex,
        store: &mut AssignStore,
        out: &mut BTreeSet<Vec<Value>>,
    ) {
        for id in self.join(tree, index, store, false) {
            let assignment = store.get(id);
            out.insert(
                self.head
                    .iter()
                    .map(|v| {
                        assignment
                            .get(v)
                            .cloned()
                            .expect("head variable bound by construction")
                    })
                    .collect(),
            );
        }
    }
}

// Compile-time audit: plans and indexes are cached inside `xdx-core`'s
// `CompiledSetting` and shared across `BatchEngine` worker threads.
#[allow(dead_code)]
fn assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<PatternPlan>();
    check::<TreeIndex>();
    check::<QueryPlan>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::all_matches_reference;
    use crate::parser::parse_pattern;
    use xdx_xmltree::{Dtd, TreeBuilder};

    fn dtd() -> Dtd {
        Dtd::builder("db")
            .rule("db", "book*")
            .rule("book", "author*")
            .rule("author", "eps")
            .attributes("book", ["@title"])
            .attributes("author", ["@name", "@aff"])
            .build()
            .unwrap()
    }

    fn tree() -> XmlTree {
        TreeBuilder::new("db")
            .child("book", |b| {
                b.attr("@title", "CO")
                    .child("author", |a| a.attr("@name", "P").attr("@aff", "U"))
                    .child("author", |a| a.attr("@name", "S").attr("@aff", "Pr"))
            })
            .child("book", |b| {
                b.attr("@title", "CC")
                    .child("author", |a| a.attr("@name", "P").attr("@aff", "U"))
            })
            .build()
    }

    fn assert_planned_matches_reference(tree: &XmlTree, src: &str) {
        let d = dtd();
        let p = parse_pattern(src).unwrap();
        let mut reference = all_matches_reference(tree, &p);
        reference.sort();

        let plan = PatternPlan::new(&p, d.compiled());
        let index = TreeIndex::new(tree, d.compiled());
        let mut planned = plan.all_matches(tree, &index);
        planned.sort();
        assert_eq!(planned, reference, "with DTD: {src}");

        let plan = PatternPlan::without_dtd(&p);
        let index = TreeIndex::without_dtd(tree);
        let mut planned = plan.all_matches(tree, &index);
        planned.sort();
        assert_eq!(planned, reference, "DTD-less: {src}");
    }

    #[test]
    fn planned_matches_agree_with_reference() {
        let t = tree();
        for src in [
            "book(@title=$x)[author(@name=$y)]",
            "author(@name=$y)",
            "//author",
            "db[//db]",
            "db[//author(@aff=$a)]",
            "_(@name=$n)",
            "db[_[_(@aff=$a)]]",
            "db[book(@title=$x), book(@title=$y)]",
            "book(@title=\"CC\")[author(@name=$y)]",
            "book(@year=$y)",
            "journal(@title=$x)",
            "//_[_(@name=$n)]",
            "//book[//author(@aff=$a)]",
            "db[book[author(@name=$x)], book(@title=$t)[author(@name=$x)]]",
        ] {
            assert_planned_matches_reference(&t, src);
        }
    }

    #[test]
    fn undeclared_labels_keep_the_string_fallback() {
        let mut t = XmlTree::new("db");
        let j = t.add_child(t.root(), "journal");
        t.set_attr(j, "@title", "JACM");
        let deeper = t.add_child(j, "issue");
        t.set_attr(deeper, "@title", "55-2");
        for src in [
            "journal(@title=$x)",
            "//issue(@title=$x)",
            "journal[issue(@title=$x)]",
            "db[//issue]",
        ] {
            assert_planned_matches_reference(&t, src);
        }
    }

    #[test]
    fn binding_guarded_wildcards_use_the_attribute_index() {
        let d = dtd();
        let t = tree();
        // Semantics: the attr-bucket candidates agree with the oracle on
        // every wildcard shape, including attrs nobody carries.
        for src in [
            "_(@name=$n)",
            "_(@title=$t)",
            "_(@name=$n, @aff=$a)",
            "_(@none=$x)",
            "db[_(@aff=\"Pr\")]",
            "//_(@title=$t)",
        ] {
            assert_planned_matches_reference(&t, src);
        }
        // Mechanics: the bucket really is smaller than the preorder list,
        // and it is built lazily (only a wildcard-with-bindings lookup
        // forces it).
        let index = TreeIndex::new(&t, d.compiled());
        assert!(index.by_attr.get().is_none(), "no lookup yet → no map");
        let title: AttrName = "@title".into();
        let name: AttrName = "@name".into();
        assert_eq!(index.attr_buckets(&t).get(&title).map(Vec::len), Some(2));
        assert_eq!(index.attr_buckets(&t).get(&name).map(Vec::len), Some(3));
        assert_eq!(index.nodes.len(), 6);
    }

    #[test]
    fn selectivity_order_does_not_change_semantics() {
        // A branching pattern where one child edge has many matches and the
        // other exactly one: whichever joins first, the result is the same.
        let t = tree();
        assert_planned_matches_reference(&t, "db[book(@title=$x), book(@title=\"CC\")]");
        assert_planned_matches_reference(&t, "book[author(@name=$x), author(@aff=\"Pr\")]");
    }

    #[test]
    fn query_plans_agree_with_written_out_answers() {
        let d = dtd();
        let t = tree();
        let q = UnionQuery::new(vec![
            ConjunctiveTreeQuery::new(
                ["x", "y"],
                vec![
                    parse_pattern("book(@title=$t)[author(@name=$x)]").unwrap(),
                    parse_pattern("book(@title=$t)[author(@name=$y)]").unwrap(),
                ],
            )
            .unwrap(),
            ConjunctiveTreeQuery::new(
                ["x", "x"],
                vec![parse_pattern("author(@aff=\"U\", @name=$x)").unwrap()],
            )
            .unwrap(),
        ])
        .unwrap();
        // Co-authors of one title (CO has P and S, CC has P alone), plus
        // (P, P) again from the second branch.
        let expected: BTreeSet<Vec<Value>> = [("P", "P"), ("P", "S"), ("S", "P"), ("S", "S")]
            .into_iter()
            .map(|(x, y)| vec![Value::constant(x), Value::constant(y)])
            .collect();
        let planned =
            QueryPlan::new(&q, d.compiled()).evaluate(&t, &TreeIndex::new(&t, d.compiled()));
        assert_eq!(planned, expected);
        let dtdless = QueryPlan::without_dtd(&q).evaluate(&t, &TreeIndex::without_dtd(&t));
        assert_eq!(dtdless, expected);
        assert_eq!(q.evaluate(&t), expected);
        assert!(QueryPlan::new(&q, d.compiled())
            .evaluate_boolean(&t, &TreeIndex::new(&t, d.compiled())));
    }

    #[test]
    fn scratch_reuse_is_invisible_to_results() {
        // One scratch + one index slot reused across distinct documents must
        // produce exactly what fresh per-document state produces.
        let d = dtd();
        let q = UnionQuery::single(
            ConjunctiveTreeQuery::new(
                ["x"],
                vec![parse_pattern("book(@title=$t)[author(@name=$x)]").unwrap()],
            )
            .unwrap(),
        );
        let plan = QueryPlan::new(&q, d.compiled());
        let pattern = parse_pattern("book(@title=$t)[author(@name=$x)]").unwrap();
        let pplan = PatternPlan::new(&pattern, d.compiled());
        let keep: BTreeSet<Var> = [Var::new("x")].into_iter().collect();

        let mut scratch = EvalScratch::new();
        let mut index = TreeIndex::empty();
        let docs: Vec<XmlTree> = (0..6)
            .map(|i| {
                let mut t = XmlTree::new("db");
                for b in 0..=i {
                    let book = t.add_child(t.root(), "book");
                    t.set_attr(book, "@title", format!("T{b}"));
                    for a in 0..b {
                        let author = t.add_child(book, if a % 2 == 0 { "author" } else { "odd" });
                        t.set_attr(author, "@name", format!("N{a}"));
                    }
                }
                t
            })
            .collect();
        for tree in &docs {
            index.rebuild(tree, d.compiled());
            let fresh_index = TreeIndex::new(tree, d.compiled());
            let warm = plan.evaluate_with(tree, &index, &mut scratch);
            assert_eq!(warm, plan.evaluate(tree, &fresh_index));
            assert_eq!(
                plan.evaluate_boolean_with(tree, &index, &mut scratch),
                plan.evaluate_boolean(tree, &fresh_index)
            );
            let mut warm_restricted: Vec<Assignment> = Vec::new();
            pplan
                .try_for_each_restricted_match_with(tree, &index, &keep, &mut scratch, |a| {
                    warm_restricted.push(a.clone());
                    Ok::<(), ()>(())
                })
                .unwrap();
            let mut fresh_restricted: Vec<Assignment> = Vec::new();
            pplan
                .try_for_each_restricted_match(tree, &fresh_index, &keep, |a| {
                    fresh_restricted.push(a.clone());
                    Ok::<(), ()>(())
                })
                .unwrap();
            assert_eq!(warm_restricted, fresh_restricted);
        }
    }

    #[test]
    fn assignment_store_merges_and_memoises() {
        let mut store = AssignStore::new();
        let mut a = Assignment::new();
        a.insert(Var::new("x"), Value::constant("1"));
        let mut b = Assignment::new();
        b.insert(Var::new("y"), Value::constant("2"));
        let mut clash = Assignment::new();
        clash.insert(Var::new("x"), Value::constant("other"));
        let (ia, ib, ic) = (
            store.intern(a.clone()),
            store.intern(b),
            store.intern(clash),
        );
        assert_eq!(store.intern(a), ia, "interning is idempotent");
        let merged = store.merge(ia, ib).unwrap();
        assert_eq!(store.get(merged).len(), 2);
        assert_eq!(store.merge(ib, ia).unwrap(), merged, "merge is symmetric");
        assert_eq!(store.merge(ia, ic), None, "clashes are detected");
        assert_eq!(store.merge(0, ia), Some(ia), "empty is the unit");
        assert_eq!(store.merge(merged, merged), Some(merged));
    }
}
