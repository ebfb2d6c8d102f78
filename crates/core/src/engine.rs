//! Parallel batches: compile once, fan documents out over threads.
//!
//! Data-exchange workloads are naturally batch-shaped — many source trees
//! checked, chased and queried against one fixed setting. The compiled layer
//! ([`CompiledSetting`]) already amortises every setting-dependent artefact
//! across documents; since it is `Send + Sync`, a single compiled setting
//! can also serve documents *concurrently*. A [`BatchEngine`] wraps one
//! compiled setting and runs whole slices of source trees across a scoped
//! thread pool:
//!
//! * workers are plain `std::thread::scope` threads (no external runtime);
//! * work distribution is a shared atomic next-index counter, so fast
//!   documents never wait behind slow ones (work stealing at item
//!   granularity);
//! * results are written back by input index, so output order always
//!   matches input order regardless of which worker finished first — the
//!   batch APIs are deterministic drop-in replacements for a sequential
//!   `iter().map(...)` over the same slice.
//!
//! `BatchEngine` is the library's batch API and the oracle the serving
//! tests and the repository benchmark check served answers against. The
//! server does not use it: its workers call the same per-document
//! [`CompiledSetting`] methods directly, each with its own warm
//! [`ExchangeScratch`], so the server's worker pool is the only set of
//! threads that computes there.

use crate::certain::CertainAnswers;
use crate::compiled::{CompiledSetting, ExchangeScratch};
use crate::setting::DataExchangeSetting;
use crate::solution::SolutionError;
use std::sync::atomic::{AtomicUsize, Ordering};
use xdx_patterns::plan::QueryPlan;
use xdx_patterns::query::UnionQuery;
use xdx_xmltree::XmlTree;

/// A compiled setting plus a thread pool configuration; see the module docs.
///
/// Build one per setting with [`BatchEngine::new`], tune the worker count
/// with [`BatchEngine::parallelism`], then call the `*_batch` methods as
/// often as needed — all per-setting caches (repair contexts, consistency
/// plans, solvers) warm up once and are shared by every worker of every
/// batch.
#[derive(Debug)]
pub struct BatchEngine<'s> {
    compiled: CompiledSetting<'s>,
    parallelism: usize,
}

impl<'s> BatchEngine<'s> {
    /// Compile `setting` and configure as many workers as the machine has
    /// available parallelism.
    pub fn new(setting: &'s DataExchangeSetting) -> Self {
        BatchEngine {
            compiled: CompiledSetting::new(setting),
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Set the number of worker threads (clamped to ≥ 1). `parallelism(1)`
    /// runs batches on the calling thread with no pool at all.
    pub fn parallelism(mut self, n: usize) -> Self {
        self.parallelism = n.max(1);
        self
    }

    /// The configured worker count.
    pub fn configured_parallelism(&self) -> usize {
        self.parallelism
    }

    /// The underlying compiled setting (for single-document calls on the
    /// same warm caches).
    pub fn compiled(&self) -> &CompiledSetting<'s> {
        &self.compiled
    }

    /// For every source tree: is it a conforming source instance that admits
    /// a solution? Per-instance consistency is decided by running the chase
    /// (a canonical solution exists iff any solution does — Lemma 6.15), so
    /// like [`CompiledSetting::canonical_solution`] this requires
    /// fully-specified STDs; outside that class the per-tree answer is
    /// `false` exactly when the sequential call would error. On a
    /// [chase-free](CompiledSetting::chase_free) setting the answer is
    /// source conformance alone.
    pub fn check_consistency_batch(&self, trees: &[XmlTree]) -> Vec<bool> {
        self.run(trees, |scratch, tree| {
            self.compiled.check_instance_consistency_with(tree, scratch)
        })
    }

    /// The canonical solution of every source tree, in input order
    /// (parallel analogue of [`CompiledSetting::canonical_solution`]).
    pub fn canonical_solutions_batch(
        &self,
        trees: &[XmlTree],
    ) -> Vec<Result<XmlTree, SolutionError>> {
        self.run(trees, |scratch, tree| {
            self.compiled.canonical_solution_with(tree, scratch)
        })
    }

    /// The certain answers of `query` for every source tree, in input order
    /// (parallel analogue of [`crate::certain::certain_answers`] against one
    /// shared compiled setting). The query is planned **once** per batch
    /// against the target DTD; every worker evaluates the shared plan over a
    /// per-solution index kept warm in its [`ExchangeScratch`].
    pub fn certain_answers_batch(
        &self,
        trees: &[XmlTree],
        query: &UnionQuery,
    ) -> Vec<Result<CertainAnswers, SolutionError>> {
        let plan = QueryPlan::new(query, self.compiled.target_dtd());
        self.run(trees, |scratch, tree| {
            self.compiled
                .certain_answers_planned_with(tree, &plan, scratch)
        })
    }

    /// Map `f` over `items` on the worker pool, returning results in input
    /// order. Workers claim items through a shared atomic cursor; each
    /// worker holds one [`ExchangeScratch`] for the whole batch (per-document
    /// heap blocks — tree indexes, assignment stores — are reused across
    /// every item it claims) and accumulates `(index, result)` pairs locally;
    /// the results are stitched together by index after the scope joins, so
    /// no locks are held while working and the output permutation is the
    /// identity.
    fn run<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&mut ExchangeScratch, &T) -> R + Sync,
    {
        let workers = self.parallelism.min(items.len());
        if workers <= 1 {
            let mut scratch = ExchangeScratch::new();
            return items.iter().map(|item| f(&mut scratch, item)).collect();
        }
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut scratch = ExchangeScratch::new();
                        let mut local: Vec<(usize, R)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            local.push((i, f(&mut scratch, item)));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                for (i, result) in handle.join().expect("batch worker panicked") {
                    slots[i] = Some(result);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every input index was claimed by exactly one worker"))
            .collect()
    }
}

// Compile-time audit (issue requirement): everything reachable from the
// batch engine must be shareable across its worker threads.
#[allow(dead_code)]
fn assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<BatchEngine<'static>>();
    check::<CertainAnswers>();
    check::<SolutionError>();
    check::<XmlTree>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setting::{books_to_writers_setting, figure_1_source_tree};
    use xdx_patterns::parse_pattern;
    use xdx_patterns::query::{ConjunctiveTreeQuery, UnionQuery};

    fn sources(n: usize) -> Vec<XmlTree> {
        // Distinct documents of growing size (book i has i authors).
        (0..n)
            .map(|i| {
                let mut t = XmlTree::new("db");
                for b in 0..=i {
                    let book = t.add_child(t.root(), "book");
                    t.set_attr(book, "@title", format!("T{b}"));
                    for a in 0..b {
                        let author = t.add_child(book, "author");
                        t.set_attr(author, "@name", format!("N{a}"));
                        t.set_attr(author, "@aff", format!("U{a}"));
                    }
                }
                t
            })
            .collect()
    }

    fn title_query() -> UnionQuery {
        UnionQuery::single(
            ConjunctiveTreeQuery::new(["t"], vec![parse_pattern("work(@title=$t)").unwrap()])
                .unwrap(),
        )
    }

    #[test]
    fn batch_results_match_sequential_for_every_parallelism() {
        let setting = books_to_writers_setting();
        let trees = sources(9);
        let query = title_query();
        let reference = BatchEngine::new(&setting).parallelism(1);
        let expected_solutions = reference.canonical_solutions_batch(&trees);
        let expected_answers = reference.certain_answers_batch(&trees, &query);
        let expected_consistent = reference.check_consistency_batch(&trees);
        for p in 1..=8 {
            let engine = BatchEngine::new(&setting).parallelism(p);
            assert_eq!(engine.configured_parallelism(), p);
            let solutions = engine.canonical_solutions_batch(&trees);
            for (got, want) in solutions.iter().zip(&expected_solutions) {
                // Canonical solutions are unique up to null renaming and
                // sibling order; sizes and solution-hood pin them down.
                assert_eq!(got.as_ref().unwrap().size(), want.as_ref().unwrap().size());
            }
            let answers = engine.certain_answers_batch(&trees, &query);
            for (got, want) in answers.iter().zip(&expected_answers) {
                assert_eq!(got.as_ref().unwrap().tuples, want.as_ref().unwrap().tuples);
            }
            assert_eq!(engine.check_consistency_batch(&trees), expected_consistent);
        }
    }

    #[test]
    fn batch_preserves_input_order() {
        // Each source is identifiable by its certain answer set, so a
        // permuted output would be caught immediately.
        let setting = books_to_writers_setting();
        let trees = sources(16);
        let query = title_query();
        let engine = BatchEngine::new(&setting).parallelism(4);
        let answers = engine.certain_answers_batch(&trees, &query);
        for (i, ans) in answers.iter().enumerate() {
            let tuples = &ans.as_ref().unwrap().tuples;
            // Source i carries titles T0..=Ti (T0 has no authors so it
            // produces no work node — titles reach the target via authors).
            let expect: std::collections::BTreeSet<Vec<String>> = (0..=i)
                .filter(|&b| b > 0)
                .map(|b| vec![format!("T{b}")])
                .collect();
            assert_eq!(tuples, &expect, "source {i}");
        }
    }

    #[test]
    fn repair_heavy_batches_match_the_reference_chase() {
        // A target whose chase must do real structural work per document:
        // every exported entry forces a `detail` sibling chain
        // (entry → meta detail, both invented by `ChangeReg`), so this
        // drives the worklist chase — concurrently, on shared warm repair
        // contexts — and pins its results to the restart-scan reference.
        use crate::setting::Std;
        use crate::solution::canonical_solution_reference;
        use xdx_xmltree::Dtd;
        let source_dtd = Dtd::builder("src")
            .rule("src", "rec*")
            .attributes("rec", ["@k"])
            .build()
            .unwrap();
        let target_dtd = Dtd::builder("out")
            .rule("out", "entry*")
            .rule("entry", "meta detail")
            .rule("meta", "eps")
            .rule("detail", "eps")
            .attributes("entry", ["@k"])
            .attributes("detail", ["@d"])
            .build()
            .unwrap();
        let std = Std::parse("out[entry(@k=$x)] :- src[rec(@k=$x)]").unwrap();
        let setting = DataExchangeSetting::new(source_dtd, target_dtd, vec![std]);
        let trees: Vec<XmlTree> = (1..10)
            .map(|n| {
                let mut t = XmlTree::new("src");
                for i in 0..n {
                    let r = t.add_child(t.root(), "rec");
                    t.set_attr(r, "@k", format!("k{i}"));
                }
                t
            })
            .collect();
        let engine = BatchEngine::new(&setting).parallelism(4);
        let got = engine.canonical_solutions_batch(&trees);
        for (tree, result) in trees.iter().zip(got) {
            let want = canonical_solution_reference(&setting, tree).unwrap();
            assert!(result.unwrap().unordered_eq(&want));
        }
    }

    #[test]
    fn inconsistent_documents_are_reported_in_place() {
        let setting = books_to_writers_setting();
        let mut trees = sources(3);
        // A non-conforming source (wrong root) in the middle of the batch.
        trees.insert(1, XmlTree::new("not_db"));
        let engine = BatchEngine::new(&setting).parallelism(3);
        let consistent = engine.check_consistency_batch(&trees);
        assert_eq!(consistent, vec![true, false, true, true]);
    }

    #[test]
    fn empty_batches_and_oversized_pools_are_fine() {
        let setting = books_to_writers_setting();
        let engine = BatchEngine::new(&setting).parallelism(64);
        assert!(engine.canonical_solutions_batch(&[]).is_empty());
        let one = vec![figure_1_source_tree()];
        assert_eq!(engine.canonical_solutions_batch(&one).len(), 1);
        // parallelism(0) clamps to 1.
        let engine = BatchEngine::new(&setting).parallelism(0);
        assert_eq!(engine.configured_parallelism(), 1);
    }
}
