//! Compile-once, evaluate-many data exchange settings.
//!
//! Every entry point of this crate used to recompute per call (and often per
//! *node*) artefacts that only depend on the setting: regex→NFA compilation,
//! pattern variable analyses, attribute-erased patterns, `D°`/`D*`
//! transformations, Parikh images for the repair machinery. A
//! [`CompiledSetting`] is built once per [`DataExchangeSetting`] and caches
//! all of it:
//!
//! * the [`CompiledDtd`]s of both schemas (interned symbols + dense-table
//!   DFAs; shared with the `Dtd` itself, so repeated `CompiledSetting`
//!   construction is cheap);
//! * per-STD compiled patterns ([`CompiledPattern`]), shared/target-only
//!   variable sets and fully-specified/wildcard flags;
//! * lazily, per-element [`RepairContext`]s for the chase (`ChangeReg`), the
//!   `D°`/`D*` unique-tree plan for the nested-relational consistency check
//!   of Theorem 4.5, and the automata solvers of the general check of
//!   Theorem 4.1.
//!
//! The original implementations remain available as `*_reference` functions
//! in [`crate::solution`] and [`crate::consistency`]; the compiled paths are
//! differential-tested against them.

use crate::consistency::{ConsistencyMethod, ConsistencyVerdict};
use crate::setting::DataExchangeSetting;
use crate::solution::{apply_change_reg, chase_budget, children_multiset, SolutionError};
use crate::template::TargetTemplate;
use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock, RwLock};
use xdx_automata::PatternSatisfiability;
use xdx_patterns::compiled::{holds_in_matches, CompiledPattern, InternedLabels};
use xdx_patterns::plan::{EvalScratch, PatternPlan, TreeIndex};
use xdx_patterns::{TreePattern, Var};
use xdx_relang::repair::{RepairConfig, RepairContext};
use xdx_xmltree::{CompiledDtd, Dtd, DtdError, ElementType, NodeId, NullGen, Sym, Value, XmlTree};

/// One STD with its setting-dependent analyses precomputed.
#[derive(Debug, Clone)]
pub struct CompiledStd {
    /// Variables shared between source and target patterns (`x̄`).
    pub shared_vars: BTreeSet<Var>,
    /// Target-only variables (`z̄`), precomputed so every instantiation of
    /// the target pattern skips the per-match set algebra.
    pub target_only_vars: Vec<Var>,
    /// The source pattern compiled against the source DTD's interner.
    pub source_compiled: CompiledPattern,
    /// The target pattern compiled against the target DTD's interner.
    pub target_compiled: CompiledPattern,
    /// The source pattern's join-ordered evaluation plan, built on first
    /// document and reused across every source document of every batch.
    /// Lazy so consistency-only callers (which never evaluate STD patterns
    /// against documents) pay nothing for it.
    source_plan: OnceLock<PatternPlan>,
    /// The target pattern's join-ordered evaluation plan (lazy, see above).
    target_plan: OnceLock<PatternPlan>,
    /// The target pattern flattened for template stamping (`None` exactly
    /// when the target uses a wildcard or is not fully specified — those
    /// STDs error out of pre-solution construction before instantiation).
    target_template: Option<TargetTemplate>,
    /// `ϕ°` — the attribute-erased source pattern (Claim 4.2).
    pub erased_source: TreePattern,
    /// `ψ°` — the attribute-erased target pattern.
    pub erased_target: TreePattern,
    /// Is the target pattern fully specified (Definition 5.10)?
    pub target_fully_specified: bool,
    /// Does the target pattern use a wildcard?
    pub target_uses_wildcard: bool,
}

impl CompiledStd {
    /// The source pattern's join-ordered evaluation plan.
    pub fn source_plan(&self) -> &PatternPlan {
        self.source_plan
            .get_or_init(|| PatternPlan::from_compiled(&self.source_compiled))
    }

    /// The target pattern's join-ordered evaluation plan.
    pub fn target_plan(&self) -> &PatternPlan {
        self.target_plan
            .get_or_init(|| PatternPlan::from_compiled(&self.target_compiled))
    }
}

/// Precomputed plan for the nested-relational consistency check of
/// Theorem 4.5. The `D°_S`/`D*_T` unique trees and the erased STD patterns
/// are all fixed by the setting, so the per-STD pattern verdicts are
/// evaluated **once** here (with the planned evaluator) and every
/// consistency call after the first reads the cached booleans.
struct NestedRelationalPlan {
    /// Per STD: does the erased source pattern hold in the `D°_S` tree?
    source_holds: Vec<bool>,
    /// Per STD: does the erased target pattern hold in the `D*_T` tree?
    target_holds: Vec<bool>,
}

/// Per-worker reusable document-processing state.
///
/// The per-*setting* artefacts (compiled DTDs, plans, repair contexts) are
/// amortised by [`CompiledSetting`]; what remains per *document* is heap
/// churn: the source-tree [`TreeIndex`], the solution-tree index of the
/// certain-answer path, the pattern evaluator's assignment store
/// ([`EvalScratch`]) and the template-stamping value buffers. An
/// `ExchangeScratch` owns all of them, and the `*_with` methods of
/// [`CompiledSetting`] reset-and-reuse instead of reallocating — the
/// ROADMAP's per-document amortisation step for batch and serving hot
/// paths. [`crate::engine::BatchEngine`] keeps one per worker thread, as
/// does the `xdx-server` dispatcher.
///
/// Per-request engine work counters, accumulated on the worker's
/// [`ExchangeScratch`]: chase node visits and applied repairs. The serving
/// layer zeroes them before a request and reads them after, turning them
/// into per-request histograms — no atomics, because a scratch belongs to
/// one worker by construction.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineCounters {
    /// Worklist pops of the chase (each is one node visit: a fast accept
    /// or a repair attempt).
    pub chase_steps: u64,
    /// Repairs the chase actually applied (the budgeted step count).
    pub chase_repairs: u64,
}

/// Deliberately not `Sync`: one scratch belongs to one worker.
#[derive(Debug, Default)]
pub struct ExchangeScratch {
    /// Source-document index slot (rebuilt in place per document).
    pub(crate) source_index: Option<TreeIndex>,
    /// Canonical-solution index slot (certain-answer evaluation).
    pub(crate) solution_index: Option<TreeIndex>,
    /// Assignment-store scratch shared by presolution and query evaluation
    /// (never live at the same time).
    pub(crate) eval: EvalScratch,
    /// Template-stamping buffer: shared-variable values of one match.
    shared_vals: Vec<Value>,
    /// Template-stamping buffer: per-instantiation null values.
    null_vals: Vec<Value>,
    /// Chase work counters of requests run on this scratch (see
    /// [`EngineCounters`]); the caller zeroes and reads them per request.
    pub counters: EngineCounters,
}

impl ExchangeScratch {
    /// A fresh scratch (what the non-`_with` entry points build per call).
    pub fn new() -> Self {
        ExchangeScratch::default()
    }

    /// Zero the per-request [`EngineCounters`] (serving-layer hook: call
    /// before a request, read `self.counters` after).
    pub fn reset_counters(&mut self) {
        self.counters = EngineCounters::default();
    }

    /// The assignment-store high-watermark of the pattern evaluator (see
    /// [`xdx_patterns::plan::EvalScratch::assign_highwater`]).
    pub fn assign_highwater(&self) -> usize {
        self.eval.assign_highwater()
    }

    /// The index slot for `tree`, rebuilt in place (or built on first use).
    pub(crate) fn index_for<'a>(
        slot: &'a mut Option<TreeIndex>,
        tree: &XmlTree,
        dtd: &CompiledDtd,
    ) -> &'a TreeIndex {
        match slot {
            Some(index) => {
                index.rebuild(tree, dtd);
                index
            }
            None => slot.insert(TreeIndex::new(tree, dtd)),
        }
    }
}

/// Number of shards of the repair-context cache. Shard contention is rare
/// (the cache is read-mostly after warm-up), so a small power of two keeps
/// the footprint negligible while letting unrelated element types warm up
/// concurrently.
const REPAIR_SHARDS: usize = 8;

/// A sharded, thread-safe map from target element symbols to their (lazily
/// built, then immutable) repair contexts. Shard selection hashes the `Sym`
/// so consecutive symbol ids spread across shards; each shard is a
/// `RwLock`-protected map, and contexts are handed out behind `Arc`s so a
/// reader never holds a lock while chasing.
#[derive(Debug)]
struct RepairContextCache {
    shards: [RwLock<HashMap<Sym, Arc<RepairContext<ElementType>>>>; REPAIR_SHARDS],
}

impl RepairContextCache {
    fn new() -> Self {
        RepairContextCache {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        }
    }

    fn shard(&self, sym: Sym) -> &RwLock<HashMap<Sym, Arc<RepairContext<ElementType>>>> {
        let mut hasher = DefaultHasher::new();
        sym.hash(&mut hasher);
        &self.shards[hasher.finish() as usize % REPAIR_SHARDS]
    }

    /// The context for `sym`, building it with `build` on first use. Two
    /// threads racing on a cold symbol at worst build twice and keep one —
    /// `build` is pure, so this is only wasted work, never inconsistency.
    fn get_or_build(
        &self,
        sym: Sym,
        build: impl FnOnce() -> RepairContext<ElementType>,
    ) -> Arc<RepairContext<ElementType>> {
        let shard = self.shard(sym);
        if let Some(ctx) = shard.read().expect("repair cache lock poisoned").get(&sym) {
            return Arc::clone(ctx);
        }
        let built = Arc::new(build());
        let mut guard = shard.write().expect("repair cache lock poisoned");
        Arc::clone(guard.entry(sym).or_insert(built))
    }
}

/// A [`DataExchangeSetting`] compiled for repeated evaluation (see the
/// module docs). Borrows the setting; build it once and reuse it for every
/// source document / consistency query.
///
/// Every cache inside is thread-safe (`OnceLock`s and a sharded
/// [`RwLock`] map), so a `CompiledSetting` is `Send + Sync`: one compiled
/// setting can serve concurrent requests — share it behind an `Arc` or via
/// scoped threads, or use [`crate::engine::BatchEngine`] for whole batches.
pub struct CompiledSetting<'s> {
    setting: SettingHold<'s>,
    source: Arc<CompiledDtd>,
    target: Arc<CompiledDtd>,
    stds: Vec<CompiledStd>,
    /// Element types forced by target patterns; repair contexts must cover
    /// them in addition to the content-model alphabet.
    forced_target_elements: BTreeSet<ElementType>,
    /// Per-target-element repair contexts, built on first `ChangeReg` use
    /// and reused across chase invocations (and across threads).
    repair_contexts: RepairContextCache,
    nested: OnceLock<Option<NestedRelationalPlan>>,
    source_solver: OnceLock<PatternSatisfiability>,
    target_solver: OnceLock<PatternSatisfiability>,
    /// Is the chase the identity on every canonical pre-solution of this
    /// setting (see [`CompiledSetting::chase_free`])?
    chase_free: bool,
}

/// How a [`CompiledSetting`] holds its setting: borrowed (the historical
/// embed-in-your-stack shape, zero indirection) or owned behind an `Arc`
/// (what a *registry* of settings uploaded at runtime needs — a
/// `CompiledSetting<'static>` with no external lifetime to thread through
/// caches and worker pools).
#[derive(Debug)]
enum SettingHold<'s> {
    Borrowed(&'s DataExchangeSetting),
    Owned(Arc<DataExchangeSetting>),
}

impl std::ops::Deref for SettingHold<'_> {
    type Target = DataExchangeSetting;

    fn deref(&self) -> &DataExchangeSetting {
        match self {
            SettingHold::Borrowed(s) => s,
            SettingHold::Owned(s) => s,
        }
    }
}

// Compile-time audit: the whole compiled layer must stay shareable across
// threads — `BatchEngine` and the server's worker pool depend on it. If a
// refactor reintroduces `RefCell`/`Rc`/raw-`OnceCell` state anywhere in
// these types, this function stops compiling.
#[allow(dead_code)]
fn assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<CompiledSetting<'static>>();
    check::<CompiledStd>();
    check::<CompiledDtd>();
    check::<CompiledPattern>();
    check::<InternedLabels>();
    check::<PatternPlan>();
    check::<TreeIndex>();
    check::<NestedRelationalPlan>();
    check::<RepairContextCache>();
    check::<PatternSatisfiability>();
}

impl<'s> CompiledSetting<'s> {
    /// Compile `setting`. The DTD compilations are shared with the `Dtd`
    /// values themselves, so this is cheap to call repeatedly; the heavier
    /// caches (repair contexts, consistency plans) fill in lazily on first
    /// use and then persist for the lifetime of this value.
    pub fn new(setting: &'s DataExchangeSetting) -> Self {
        CompiledSetting::from_hold(SettingHold::Borrowed(setting))
    }

    /// As [`CompiledSetting::new`], but owning the setting behind an `Arc`.
    /// The result is `'static`: the shape a setting *registry* needs, where
    /// settings arrive over the wire at runtime and compiled artefacts are
    /// cached and shared with no enclosing stack frame to borrow from.
    pub fn new_owned(setting: Arc<DataExchangeSetting>) -> CompiledSetting<'static> {
        CompiledSetting::from_hold(SettingHold::Owned(setting))
    }

    fn from_hold(hold: SettingHold<'s>) -> Self {
        let setting: &DataExchangeSetting = &hold;
        let source = setting.source_dtd.compiled_arc();
        let target = setting.target_dtd.compiled_arc();
        let target_root = setting.target_dtd.root();
        let mut forced_target_elements: BTreeSet<ElementType> = BTreeSet::new();
        let stds = setting
            .stds
            .iter()
            .map(|std| {
                forced_target_elements.extend(std.target.element_types());
                let source_compiled = CompiledPattern::new(&std.source, &source);
                let target_compiled = CompiledPattern::new(&std.target, &target);
                // One free-vars pass per side covers both variable sets
                // (`Std::{shared,target_only}_vars` would each redo both).
                let source_vars = std.source.free_vars();
                let target_vars = std.target.free_vars();
                let shared_vars: BTreeSet<Var> =
                    source_vars.intersection(&target_vars).cloned().collect();
                CompiledStd {
                    target_template: TargetTemplate::new(&std.target, &shared_vars),
                    shared_vars,
                    target_only_vars: target_vars.difference(&source_vars).cloned().collect(),
                    source_plan: OnceLock::new(),
                    target_plan: OnceLock::new(),
                    source_compiled,
                    target_compiled,
                    erased_source: std.source.erase_attributes(),
                    erased_target: std.target.erase_attributes(),
                    target_fully_specified: std.target.is_fully_specified(target_root),
                    target_uses_wildcard: std.target.uses_wildcard(),
                }
            })
            .collect::<Vec<_>>();
        let chase_free = is_chase_free(&setting.target_dtd, &stds);
        CompiledSetting {
            setting: hold,
            source,
            target,
            stds,
            forced_target_elements,
            repair_contexts: RepairContextCache::new(),
            nested: OnceLock::new(),
            source_solver: OnceLock::new(),
            target_solver: OnceLock::new(),
            chase_free,
        }
    }

    /// The underlying setting.
    pub fn setting(&self) -> &DataExchangeSetting {
        &self.setting
    }

    /// The compiled source DTD.
    pub fn source_dtd(&self) -> &CompiledDtd {
        &self.source
    }

    /// The compiled target DTD.
    pub fn target_dtd(&self) -> &CompiledDtd {
        &self.target
    }

    /// The compiled STDs, in setting order.
    pub fn stds(&self) -> &[CompiledStd] {
        &self.stds
    }

    /// Is the chase of Section 6.1 provably the identity on every canonical
    /// pre-solution of this setting? Decided once, from the target DTD and
    /// the STD target patterns alone: the target DTD is nested-relational,
    /// its root declares no attributes and only `?`/`*` factors, every
    /// label an STD stamps at the root is `*`, every STD target is fully
    /// specified and wildcard-free, and every other stamped node carries
    /// exactly its declared attributes and child counts its rule allows.
    /// `crates/core/DESIGN.md` shows why each chase step is then a no-op.
    ///
    /// When true, [`CompiledSetting::canonical_solution_with`] returns the
    /// pre-solution without chasing it and
    /// [`CompiledSetting::check_instance_consistency_with`] is source
    /// conformance alone; settings that fail any premise take the chase.
    pub fn chase_free(&self) -> bool {
        self.chase_free
    }

    // ------------------------------------------------------------------
    // Canonical pre-solution and chase (Section 6.1)
    // ------------------------------------------------------------------

    /// Build the canonical pre-solution `cps(T)` (compiled fast path of
    /// [`crate::solution::canonical_presolution`]).
    pub fn canonical_presolution(
        &self,
        source_tree: &XmlTree,
        nulls: &mut NullGen,
    ) -> Result<XmlTree, SolutionError> {
        self.canonical_presolution_with(source_tree, nulls, &mut ExchangeScratch::new())
    }

    /// As [`CompiledSetting::canonical_presolution`] on a caller-held
    /// [`ExchangeScratch`]: the source-tree index and the evaluator's
    /// assignment store keep their heap blocks across documents.
    pub fn canonical_presolution_with(
        &self,
        source_tree: &XmlTree,
        nulls: &mut NullGen,
        scratch: &mut ExchangeScratch,
    ) -> Result<XmlTree, SolutionError> {
        let mut tree = XmlTree::new(self.setting.target_dtd.root().clone());
        let root = tree.root();
        let ExchangeScratch {
            source_index,
            eval,
            shared_vals: shared_scratch,
            null_vals: null_scratch,
            ..
        } = scratch;
        let index = ExchangeScratch::index_for(source_index, source_tree, &self.source);
        for (std_index, cstd) in self.stds.iter().enumerate() {
            if cstd.target_uses_wildcard {
                return Err(SolutionError::WildcardInTarget { std_index });
            }
            if !cstd.target_fully_specified {
                return Err(SolutionError::NotFullySpecified { std_index });
            }
            let template = cstd
                .target_template
                .as_ref()
                .expect("fully-specified, wildcard-free targets always have a template");
            // Matches restricted to the shared variables, deduplicated
            // (instantiations that differ only in source-only variables are
            // homomorphically equivalent); restriction and dedup run on
            // interned assignment ids inside the plan's store, and each
            // surviving match is template-stamped — bulk arena reservation
            // plus slot fills, no per-match recursion or `BTreeMap`.
            cstd.source_plan().try_for_each_restricted_match_with(
                source_tree,
                index,
                &cstd.shared_vars,
                &mut *eval,
                |restricted| {
                    template.stamp(
                        &mut tree,
                        root,
                        restricted,
                        nulls,
                        shared_scratch,
                        null_scratch,
                    );
                    Ok::<(), SolutionError>(())
                },
            )?;
        }
        Ok(tree)
    }

    /// Run the chase of Section 6.1 (`ChangeAtt` / `ChangeReg`) on `tree`
    /// (compiled fast path of [`crate::solution::chase`]).
    ///
    /// Unlike the reference (which re-snapshots `tree.nodes()` and restarts
    /// its full scan after every `ChangeReg` — `O(n)` per repair, `O(n²)`
    /// chases on repair-heavy trees), this is a **worklist chase**: both
    /// chase steps are local to one node (`ChangeAtt` reads and writes only
    /// the node's own attributes; `ChangeReg` only its child multiset), so
    /// a repair at `n` cannot invalidate the check of any node it did not
    /// create or merge. The queue is seeded with every node once, in
    /// document order; after a repair only `n` itself and the nodes the
    /// step created (fresh empty children, the merge survivor) are
    /// re-enqueued, and merged-away children are skipped when popped. Each
    /// node is therefore visited `1 + (its own repairs)` times.
    ///
    /// The chase is confluent up to null renaming and sibling order, so the
    /// different visit order produces [`XmlTree::unordered_eq`]-identical
    /// results; when several *independent* unrepairable violations exist,
    /// which one is reported can differ from the reference (whose own
    /// report order is an artefact of its restart scan). The randomized
    /// harness in `tests/chase_differential.rs` pins both behaviours.
    pub fn chase(&self, tree: &mut XmlTree, nulls: &mut NullGen) -> Result<(), SolutionError> {
        self.chase_with_budget(tree, nulls, chase_budget(tree.size()))
    }

    /// As [`CompiledSetting::chase`] with an explicit step budget — a
    /// testing hook so the differential harness can drive both chase
    /// implementations into `ChaseBudgetExceeded` without 100 000-step
    /// runs. One *applied repair* is one step, closely mirroring the
    /// reference, whose restart scans perform at most one repair each (it
    /// additionally counts repair-free scans, so exact step counts differ
    /// by a small constant and tiny budgets can split the verdict — only
    /// exhaustion on unboundedly growing chases is pinned across the two).
    /// Pops that repair nothing are not counted; they are bounded by
    /// `initial nodes + nodes created by counted repairs`, so termination
    /// still only depends on the budget.
    pub fn chase_with_budget(
        &self,
        tree: &mut XmlTree,
        nulls: &mut NullGen,
        budget: usize,
    ) -> Result<(), SolutionError> {
        self.chase_worklist(tree, nulls, budget, None)
    }

    /// As [`CompiledSetting::chase`], but charging pops and applied repairs
    /// to `counters` — the instrumented path [`canonical_solution_with`]
    /// (and through it the serving dispatcher) takes so per-request chase
    /// work is observable without taxing the public entry points.
    ///
    /// [`canonical_solution_with`]: CompiledSetting::canonical_solution_with
    fn chase_counted(
        &self,
        tree: &mut XmlTree,
        nulls: &mut NullGen,
        counters: &mut EngineCounters,
    ) -> Result<(), SolutionError> {
        self.chase_worklist(tree, nulls, chase_budget(tree.size()), Some(counters))
    }

    /// The worklist chase proper, shared by the plain and counted entry
    /// points: seeds the queue with every reachable node in document order
    /// and pops until the seeded-plus-cascaded queue drains.
    fn chase_worklist(
        &self,
        tree: &mut XmlTree,
        nulls: &mut NullGen,
        budget: usize,
        mut counters: Option<&mut EngineCounters>,
    ) -> Result<(), SolutionError> {
        let mut queue: VecDeque<NodeId> = tree.preorder().collect();
        let mut queued = vec![false; tree.arena_len()];
        for &n in &queue {
            queued[n.index()] = true;
        }
        let repair_config = RepairConfig::default();
        let mut steps = 0usize;
        // The children multiset is accumulated in a `Sym`-indexed dense
        // count vector (`dense`, one slot per target element type, zeroed
        // between nodes by walking `touched`): counting is `O(children)`
        // with no comparisons, and the sparse `(Sym, count)` view handed to
        // the fast accept — and, on the slow path, the `ElementType`-keyed
        // multiset handed to the repair machinery — costs one entry per
        // *distinct* child label, not one `BTreeMap` operation per child.
        // Only nodes with children the target DTD does not declare fall
        // back to the label-keyed map walk ([`children_multiset`]).
        let mut dense: Vec<u64> = vec![0; self.target.num_elements()];
        let mut touched: Vec<Sym> = Vec::new();
        let mut counts_sparse: Vec<(Sym, u64)> = Vec::new();
        // Contexts whose alphabet had to be extended beyond the precomputed
        // one (labels forced by neither content models nor STDs).
        let mut overrides: BTreeMap<ElementType, RepairContext<ElementType>> = BTreeMap::new();

        // `queued` (indexed by arena slot) keeps queue membership O(1).
        fn enqueue(queue: &mut VecDeque<NodeId>, queued: &mut Vec<bool>, node: NodeId) {
            if queued.len() <= node.index() {
                queued.resize(node.index() + 1, false);
            }
            if !queued[node.index()] {
                queued[node.index()] = true;
                queue.push_back(node);
            }
        }

        while let Some(node) = queue.pop_front() {
            queued[node.index()] = false;
            // Work accounting is written through immediately (not at the
            // end), so budget-exceeded and unrepairable exits still report
            // the work done. One predictable branch per pop — noise next
            // to the per-node attribute walk and child scan.
            if let Some(c) = counters.as_deref_mut() {
                c.chase_steps += 1;
            }
            // Merged-away children are detached by `ChangeReg`; their queue
            // entries are stale and simply expire here.
            if node != tree.root() && tree.parent(node).is_none() {
                continue;
            }
            let Some(sym) = self.target.sym(tree.label(node)) else {
                // An undeclared label at the root has no repairing parent:
                // report it. Anywhere else the node's *parent* is doomed —
                // no multiset containing an undeclared symbol is repairable
                // — and the parent is popped (or merged into a survivor
                // that is re-enqueued) in every run, so deferring to its
                // `NoRepair` reproduces the reference scan, which always
                // reaches the failing parent before the undeclared child.
                if node == tree.root() {
                    return Err(SolutionError::UnknownTargetElement {
                        element: tree.label(node).clone(),
                    });
                }
                continue;
            };
            let label = self.target.element(sym);
            // --- ChangeAtt -------------------------------------------------
            // Filling allowed-but-missing attributes cannot invalidate any
            // check (no other step reads this node's attributes), so attr
            // fills never re-enqueue anything.
            let allowed = self.target.attrs(sym);
            for attr in tree.attrs(node).keys() {
                if allowed.binary_search(attr).is_err() {
                    return Err(SolutionError::DisallowedAttribute {
                        element: label.clone(),
                        attr: attr.clone(),
                    });
                }
            }
            for attr in allowed {
                if tree.attr(node, attr).is_none() {
                    tree.set_attr(node, attr.clone(), nulls.fresh_value());
                }
            }
            // --- ChangeReg -------------------------------------------------
            // Fast accept: all children interned and the count vector is
            // in the permutation language (bounds or bitset search).
            let mut all_known = true;
            for &c in tree.children(node) {
                match self.target.sym(tree.label(c)) {
                    Some(s) => {
                        if dense[s.index()] == 0 {
                            touched.push(s);
                        }
                        dense[s.index()] += 1;
                    }
                    None => {
                        all_known = false;
                        break;
                    }
                }
            }
            counts_sparse.clear();
            if all_known {
                // One entry per distinct child symbol, ascending `Sym`
                // order (what `perm_accepts_counts` requires).
                touched.sort_unstable();
                counts_sparse.extend(touched.iter().map(|&s| (s, dense[s.index()])));
            }
            for &s in &touched {
                dense[s.index()] = 0;
            }
            touched.clear();
            if all_known && self.target.perm_accepts_counts(sym, &counts_sparse) {
                continue;
            }
            // Slow path: full repair machinery, mirroring the reference
            // chase step for step. The shared per-element context covers
            // the content-model alphabet plus every STD-forced element;
            // when a child label falls outside even that, a per-chase
            // override context is built exactly as the reference does.
            let child_counts: BTreeMap<ElementType, u64> = if all_known {
                counts_sparse
                    .iter()
                    .map(|&(s, c)| (self.target.element(s).clone(), c))
                    .collect()
            } else {
                children_multiset(tree, node)
            };
            let shared = self.repair_contexts.get_or_build(sym, || {
                RepairContext::new(
                    &self.setting.target_dtd.rule(label),
                    self.forced_target_elements.iter().cloned(),
                )
            });
            let ctx: &RepairContext<ElementType> = if child_counts
                .keys()
                .any(|k| shared.alphabet().index(k).is_none())
            {
                let needs_rebuild = match overrides.get(label) {
                    Some(ctx) => child_counts
                        .keys()
                        .any(|k| ctx.alphabet().index(k).is_none()),
                    None => true,
                };
                if needs_rebuild {
                    overrides.insert(
                        label.clone(),
                        RepairContext::new(
                            &self.setting.target_dtd.rule(label),
                            child_counts.keys().cloned(),
                        ),
                    );
                }
                overrides.get(label).expect("context ensured above")
            } else {
                &shared
            };
            if ctx.perm_contains(&child_counts) {
                continue;
            }
            let maximum = match ctx.maximum_repair(&child_counts, &repair_config) {
                Ok(m) => m,
                Err(e) => {
                    return Err(SolutionError::RepairBudgetExceeded {
                        message: e.to_string(),
                    })
                }
            };
            let Some(target_counts) = maximum else {
                let any = ctx
                    .rep(&child_counts, &repair_config)
                    .map(|r| !r.is_empty())
                    .unwrap_or(false);
                return Err(if any {
                    SolutionError::NoMaximumRepair {
                        element: label.clone(),
                    }
                } else {
                    SolutionError::NoRepair {
                        element: label.clone(),
                    }
                });
            };
            steps += 1;
            if let Some(c) = counters.as_deref_mut() {
                c.chase_repairs += 1;
            }
            if steps > budget {
                return Err(SolutionError::ChaseBudgetExceeded { steps });
            }
            let arena_before = tree.arena_len();
            apply_change_reg(
                tree,
                node,
                label,
                &child_counts,
                &target_counts,
                &self.setting.target_dtd,
            )?;
            // Re-enqueue the repaired node (defensive: its new multiset is a
            // repair, hence already in the permutation language — the
            // re-visit is one cheap fast-accept) and every node the step
            // allocated: fresh empty children need their own `ChangeAtt` /
            // `ChangeReg`, and a merge survivor's unioned child multiset
            // must be re-checked. Nothing else can have been invalidated.
            enqueue(&mut queue, &mut queued, node);
            for created in arena_before..tree.arena_len() {
                enqueue(&mut queue, &mut queued, NodeId::from_index(created));
            }
        }
        Ok(())
    }

    /// Canonical pre-solution followed by the chase (compiled fast path of
    /// [`crate::solution::canonical_solution`]).
    pub fn canonical_solution(&self, source_tree: &XmlTree) -> Result<XmlTree, SolutionError> {
        self.canonical_solution_with(source_tree, &mut ExchangeScratch::new())
    }

    /// As [`CompiledSetting::canonical_solution`] on a caller-held
    /// [`ExchangeScratch`] — the per-document amortisation hook used by
    /// [`crate::engine::BatchEngine`] workers and the serving dispatcher.
    /// Nulls still start at `⊥0` per document, so results are identical to
    /// the scratch-free call.
    ///
    /// On a [chase-free](CompiledSetting::chase_free) setting the
    /// pre-solution is already a fixpoint of the chase, so it is returned
    /// as is: no chase runs and `scratch.counters` stay untouched.
    pub fn canonical_solution_with(
        &self,
        source_tree: &XmlTree,
        scratch: &mut ExchangeScratch,
    ) -> Result<XmlTree, SolutionError> {
        let mut nulls = NullGen::new();
        let mut tree = self.canonical_presolution_with(source_tree, &mut nulls, scratch)?;
        if !self.chase_free {
            self.chase_counted(&mut tree, &mut nulls, &mut scratch.counters)?;
        }
        Ok(tree)
    }

    /// Is `source_tree` a conforming source instance that admits a solution
    /// (the per-document consistency check of
    /// [`crate::engine::BatchEngine::check_consistency_batch`])?
    ///
    /// On a [chase-free](CompiledSetting::chase_free) setting every
    /// pre-solution is a solution (its STDs are fully specified and
    /// wildcard-free, so building it cannot fail, and the chase is the
    /// identity), so the check is source conformance alone. Otherwise it
    /// builds the canonical solution and reports whether that succeeded.
    pub fn check_instance_consistency_with(
        &self,
        source_tree: &XmlTree,
        scratch: &mut ExchangeScratch,
    ) -> bool {
        self.source.conforms(source_tree)
            && (self.chase_free || self.canonical_solution_with(source_tree, scratch).is_ok())
    }

    /// Canonical solution plus the certain answers of a pre-planned query
    /// over it (the per-document body of
    /// [`crate::engine::BatchEngine::certain_answers_batch`], also used by
    /// the serving dispatcher). `plan` must have been built against this
    /// setting's target DTD.
    pub fn certain_answers_planned_with(
        &self,
        source_tree: &XmlTree,
        plan: &xdx_patterns::plan::QueryPlan,
        scratch: &mut ExchangeScratch,
    ) -> Result<crate::certain::CertainAnswers, SolutionError> {
        let solution = self.canonical_solution_with(source_tree, scratch)?;
        let ExchangeScratch {
            solution_index,
            eval,
            ..
        } = scratch;
        let index = ExchangeScratch::index_for(solution_index, &solution, &self.target);
        let tuples = crate::certain::certain_tuples_planned_with(&solution, plan, index, eval);
        Ok(crate::certain::CertainAnswers { tuples, solution })
    }

    /// Canonical solution plus the Boolean certain answer of a pre-planned
    /// query (the scratch-reusing analogue of
    /// [`crate::certain::certain_answers_boolean`]).
    pub fn certain_boolean_planned_with(
        &self,
        source_tree: &XmlTree,
        plan: &xdx_patterns::plan::QueryPlan,
        scratch: &mut ExchangeScratch,
    ) -> Result<bool, SolutionError> {
        let solution = self.canonical_solution_with(source_tree, scratch)?;
        let ExchangeScratch {
            solution_index,
            eval,
            ..
        } = scratch;
        let index = ExchangeScratch::index_for(solution_index, &solution, &self.target);
        Ok(plan.evaluate_boolean_with(&solution, index, eval))
    }

    /// Is `target_tree` a solution for `source_tree` (Definition 3.3;
    /// compiled fast path of [`crate::solution::is_solution`])?
    ///
    /// Unlike the reference, the match relation `ψ(T')` of each STD is
    /// computed once per STD instead of once per source-side match.
    pub fn is_solution(&self, source_tree: &XmlTree, target_tree: &XmlTree, ordered: bool) -> bool {
        let conforms = if ordered {
            self.target.conforms(target_tree)
        } else {
            self.target.conforms_unordered(target_tree)
        };
        if !conforms {
            return false;
        }
        let source_index = TreeIndex::new(source_tree, &self.source);
        let target_index = TreeIndex::new(target_tree, &self.target);
        for cstd in &self.stds {
            let target_matches = cstd.target_plan().all_matches(target_tree, &target_index);
            let all_hold = cstd
                .source_plan()
                .try_for_each_restricted_match(
                    source_tree,
                    &source_index,
                    &cstd.shared_vars,
                    |restricted| {
                        if holds_in_matches(&target_matches, restricted) {
                            Ok(())
                        } else {
                            Err(())
                        }
                    },
                )
                .is_ok();
            if !all_hold {
                return false;
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Consistency (Section 4)
    // ------------------------------------------------------------------

    fn nested_plan(&self) -> Option<&NestedRelationalPlan> {
        self.nested
            .get_or_init(|| {
                let circle = self.setting.source_dtd.to_circle().ok()?;
                let star = self.setting.target_dtd.to_star().ok()?;
                let fill = |_: &_, _: &_| Value::constant("s0");
                let circle_tree = circle.unique_conforming_tree_with(fill).ok()?;
                let star_tree = star.unique_conforming_tree_with(fill).ok()?;
                let circle_index = TreeIndex::new(&circle_tree, circle.compiled());
                let star_index = TreeIndex::new(&star_tree, star.compiled());
                // The trees and patterns are fixed per setting: evaluate
                // every erased pattern once, cache only the verdicts.
                let source_holds = self
                    .stds
                    .iter()
                    .map(|c| {
                        !PatternPlan::new(&c.erased_source, circle.compiled())
                            .all_matches(&circle_tree, &circle_index)
                            .is_empty()
                    })
                    .collect();
                let target_holds = self
                    .stds
                    .iter()
                    .map(|c| {
                        !PatternPlan::new(&c.erased_target, star.compiled())
                            .all_matches(&star_tree, &star_index)
                            .is_empty()
                    })
                    .collect();
                Some(NestedRelationalPlan {
                    source_holds,
                    target_holds,
                })
            })
            .as_ref()
    }

    /// The `O(n·m²)` nested-relational consistency check of Theorem 4.5
    /// (compiled fast path of
    /// [`crate::consistency::check_consistency_nested_relational`]): the
    /// `D°`/`D*` trees are built and the (erased, planned) STD patterns
    /// evaluated over them once per setting; every call reads the cached
    /// per-STD verdicts.
    pub fn check_consistency_nested_relational(&self) -> Result<bool, DtdError> {
        let Some(plan) = self.nested_plan() else {
            // Reproduce the reference error (which DTD fails, and why).
            self.setting.source_dtd.to_circle()?;
            self.setting.target_dtd.to_star()?;
            unreachable!("nested plan construction only fails on non-nested-relational DTDs");
        };
        Ok((0..self.stds.len()).all(|i| !plan.source_holds[i] || plan.target_holds[i]))
    }

    /// The general (worst-case exponential) consistency check of Theorem 4.1
    /// (compiled fast path of
    /// [`crate::consistency::check_consistency_general`]): the two automata
    /// solvers are built once, and the subset loop passes pattern
    /// *references* instead of cloning patterns per subset.
    pub fn check_consistency_general(&self) -> bool {
        let n = self.stds.len();
        if n == 0 {
            return self.setting.source_dtd.is_satisfiable()
                && self.setting.target_dtd.is_satisfiable();
        }
        let source_solver = self
            .source_solver
            .get_or_init(|| PatternSatisfiability::new(&self.setting.source_dtd));
        let target_solver = self
            .target_solver
            .get_or_init(|| PatternSatisfiability::new(&self.setting.target_dtd));
        assert!(
            n < usize::BITS as usize,
            "the general consistency check enumerates 2^|Σ_ST| subsets; {n} STDs is not supported"
        );
        for mask in 0usize..(1usize << n) {
            let mut tgt_pos: Vec<&TreePattern> = Vec::new();
            let mut src_pos: Vec<&TreePattern> = Vec::new();
            let mut src_neg: Vec<&TreePattern> = Vec::new();
            for (i, cstd) in self.stds.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    tgt_pos.push(&cstd.erased_target);
                    src_pos.push(&cstd.erased_source);
                } else {
                    src_neg.push(&cstd.erased_source);
                }
            }
            // Check the cheaper target side first.
            if !target_solver.satisfiable(&tgt_pos, &[]) {
                continue;
            }
            if source_solver.satisfiable(&src_pos, &src_neg) {
                return true;
            }
        }
        false
    }

    /// Check consistency, dispatching to the nested-relational fast path
    /// when both DTDs belong to that class (compiled fast path of
    /// [`crate::consistency::check_consistency`]).
    pub fn check_consistency(&self) -> ConsistencyVerdict {
        if self.setting.is_nested_relational() {
            let consistent = self
                .check_consistency_nested_relational()
                .expect("is_nested_relational() checked the precondition");
            ConsistencyVerdict {
                consistent,
                method: ConsistencyMethod::NestedRelational,
            }
        } else {
            ConsistencyVerdict {
                consistent: self.check_consistency_general(),
                method: ConsistencyMethod::General,
            }
        }
    }
}

/// The compile-time premise of [`CompiledSetting::chase_free`].
fn is_chase_free(target: &Dtd, stds: &[CompiledStd]) -> bool {
    let root = target.root();
    let Some(root_factors) = target.rule(root).nested_relational_factors() else {
        return false;
    };
    target.is_nested_relational()
        && target.attrs_of(root).is_empty()
        && root_factors.iter().all(|f| f.multiplicity.min() == 0)
        && stds.iter().all(|cstd| {
            cstd.target_fully_specified
                && !cstd.target_uses_wildcard
                && cstd
                    .target_template
                    .as_ref()
                    .is_some_and(|t| t.stamps_chase_clean(target, &root_factors))
        })
}

impl std::fmt::Debug for CompiledSetting<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledSetting")
            .field("stds", &self.stds.len())
            .field("source_elements", &self.source.num_elements())
            .field("target_elements", &self.target.num_elements())
            .field("chase_free", &self.chase_free)
            .finish()
    }
}

/// Convenience: compile `setting`. Prefer holding a [`CompiledSetting`] when
/// processing many documents against the same setting.
pub fn compile(setting: &DataExchangeSetting) -> CompiledSetting<'_> {
    CompiledSetting::new(setting)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::{
        check_consistency_general_reference, check_consistency_nested_relational_reference,
    };
    use crate::setting::{books_to_writers_setting, figure_1_source_tree, Std};
    use crate::solution::{canonical_solution_reference, is_solution_reference};
    use xdx_xmltree::Dtd;

    #[test]
    fn compiled_canonical_solution_matches_reference_on_running_example() {
        let setting = books_to_writers_setting();
        let source = figure_1_source_tree();
        let compiled = CompiledSetting::new(&setting);
        let fast = compiled.canonical_solution(&source).unwrap();
        let reference = canonical_solution_reference(&setting, &source).unwrap();
        // Same shape up to null renaming and sibling order.
        assert_eq!(fast.size(), reference.size());
        assert!(setting.target_dtd.conforms_unordered(&fast));
        assert!(compiled.is_solution(&source, &fast, false));
        assert!(is_solution_reference(&setting, &source, &fast, false));
        assert!(compiled.is_solution(&source, &reference, false));
    }

    #[test]
    fn compiled_chase_errors_match_reference() {
        // Forced merge with clashing constants (Example from Section 6.1).
        let source_dtd = Dtd::builder("db")
            .rule("db", "book*")
            .rule("book", "author*")
            .attributes("book", ["@title"])
            .attributes("author", ["@name", "@aff"])
            .build()
            .unwrap();
        let target_dtd = Dtd::builder("bib")
            .rule("bib", "writer")
            .rule("writer", "work*")
            .attributes("writer", ["@name"])
            .attributes("work", ["@title", "@year"])
            .build()
            .unwrap();
        let std = Std::parse(
            "bib[writer(@name=$y)[work(@title=$x, @year=$z)]] :- db[book(@title=$x)[author(@name=$y)]]",
        )
        .unwrap();
        let setting = DataExchangeSetting::new(source_dtd, target_dtd, vec![std]);
        let source = figure_1_source_tree();
        let compiled = CompiledSetting::new(&setting);
        let fast = compiled.canonical_solution(&source).unwrap_err();
        let reference = canonical_solution_reference(&setting, &source).unwrap_err();
        assert!(matches!(fast, SolutionError::AttributeClash { .. }));
        assert!(matches!(reference, SolutionError::AttributeClash { .. }));
    }

    #[test]
    fn undeclared_source_labels_still_drive_the_exchange() {
        // Settings are not validated by default, and pattern semantics never
        // require the source tree to conform: an STD whose source pattern
        // mentions an element type the source DTD does not declare must
        // still fire on a source tree carrying that label, exactly as the
        // reference path does (regression test for the compiled pattern
        // resolver treating undeclared labels as statically unsatisfiable).
        let source_dtd = Dtd::builder("db").rule("db", "book*").build().unwrap();
        let target_dtd = Dtd::builder("bib")
            .rule("bib", "entry*")
            .attributes("entry", ["@t"])
            .build()
            .unwrap();
        let std = Std::parse("bib[entry(@t=$x)] :- db[journal(@t=$x)]").unwrap();
        let setting = DataExchangeSetting::new(source_dtd, target_dtd, vec![std]);
        let mut source = XmlTree::new("db");
        let j = source.add_child(source.root(), "journal");
        source.set_attr(j, "@t", "JACM");

        let compiled = CompiledSetting::new(&setting);
        let fast = compiled.canonical_solution(&source).unwrap();
        let reference = canonical_solution_reference(&setting, &source).unwrap();
        assert_eq!(fast.size(), 2, "the journal match must produce an entry");
        assert_eq!(fast.size(), reference.size());
        assert_eq!(
            compiled.is_solution(&source, &fast, false),
            is_solution_reference(&setting, &source, &fast, false)
        );
    }

    #[test]
    fn compiled_consistency_agrees_with_reference() {
        let nested = books_to_writers_setting();
        let compiled = CompiledSetting::new(&nested);
        assert_eq!(
            compiled.check_consistency_nested_relational().unwrap(),
            check_consistency_nested_relational_reference(&nested).unwrap()
        );
        assert_eq!(
            compiled.check_consistency_general(),
            check_consistency_general_reference(&nested)
        );

        // An inconsistent general setting.
        let source = Dtd::builder("r").rule("r", "a*").build().unwrap();
        let target = Dtd::builder("r2")
            .rule("r2", "one|two")
            .rule("one", "eps")
            .rule("two", "eps")
            .build()
            .unwrap();
        let std = Std::parse("r2[one[two(@a=$x)]] :- r").unwrap();
        let setting = DataExchangeSetting::new(source, target, vec![std]);
        let compiled = CompiledSetting::new(&setting);
        assert_eq!(
            compiled.check_consistency_general(),
            check_consistency_general_reference(&setting)
        );
        assert!(!compiled.check_consistency().consistent);
    }

    #[test]
    fn compiled_setting_is_reusable_across_documents() {
        let setting = books_to_writers_setting();
        let compiled = CompiledSetting::new(&setting);
        let empty = XmlTree::new("db");
        let s1 = compiled.canonical_solution(&empty).unwrap();
        assert_eq!(s1.size(), 1);
        let source = figure_1_source_tree();
        let s2 = compiled.canonical_solution(&source).unwrap();
        assert!(compiled.is_solution(&source, &s2, false));
        // A third run on the first document again (caches warm).
        let s3 = compiled.canonical_solution(&empty).unwrap();
        assert_eq!(s3.size(), 1);
    }
}
