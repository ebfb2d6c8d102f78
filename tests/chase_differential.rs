//! Differential harness for the worklist (dirty-queue) chase and the
//! template-stamped target instantiation.
//!
//! `solution::chase_reference` (restart-the-world scan) and
//! `solution::canonical_presolution_reference` (per-match recursion) are the
//! frozen oracles; the compiled paths — `CompiledSetting::chase` (worklist)
//! and `CompiledSetting::canonical_presolution` (template stamping) — must
//! agree with them on randomized inputs:
//!
//! * **conforming presolutions** — both chases succeed without structural
//!   repairs and agree up to sibling order and null renaming;
//! * **repair-heavy presolutions** (labels respect each parent's
//!   content-model alphabet) — merges and extensions everywhere; the only
//!   reachable failure is `AttributeClash`, so error *kinds* must match too;
//! * **off-model presolutions** (any declared label anywhere, plus
//!   undeclared labels) — the only reachable failure is `NoRepair`;
//! * **end-to-end canonical solutions** over a pool of settings including
//!   STD-forced labels outside content models (exercising the shared
//!   forced-element repair contexts) and chase-forced merges;
//! * **chase-free settings** (`CompiledSetting::chase_free`) — on the
//!   pool's chase-free settings the reference chase leaves every stamped
//!   pre-solution unchanged, and one fixture per premise of the flag
//!   violates only that premise, keeps the chase, and agrees with the
//!   reference pipeline;
//! * deterministic single-fault cases for every error path:
//!   `DisallowedAttribute`, `NoRepair`, `NoMaximumRepair`,
//!   `AttributeClash`, `UnknownTargetElement` and budget exhaustion
//!   (via the `*_with_budget` hooks).
//!
//! The chase is confluent up to null renaming and sibling order, but when a
//! tree carries several *independent* unrepairable violations, which one is
//! reported depends on visit order (in the reference it is an artefact of
//! the restart scan). The generators therefore keep each family to a single
//! reachable error kind, which makes kind equality assertable everywhere.
//!
//! Sampling is deterministic (the proptest shim derives each property's
//! seed from its name); `PROPTEST_CASES` scales the sweep (the scheduled CI
//! deep job runs with `PROPTEST_CASES=2048`). The default case counts below
//! sum to > 500 generated cases per run.

use proptest::prelude::*;
use xml_data_exchange::core::setting::{books_to_writers_setting, DataExchangeSetting, Std};
use xml_data_exchange::core::solution::{
    canonical_presolution, canonical_presolution_reference, canonical_solution,
    canonical_solution_reference, chase_reference, chase_reference_with_budget, SolutionError,
};
use xml_data_exchange::core::{CompiledSetting, ExchangeScratch};
use xml_data_exchange::xmltree::{NodeId, NullGen};
use xml_data_exchange::{Dtd, XmlTree};

/// The number of cases for one property: the env override when set,
/// `default` otherwise.
fn cases(default: u32) -> u32 {
    ProptestConfig::env_cases().unwrap_or(default)
}

/// The univocal, everywhere-repairable target schema of bench E13 — the
/// same fixture the chase benches measure, so the harness verifies exactly
/// the workload shape the numbers are reported for: `sec` needs exactly one
/// `title` (duplicates merge, absences extend), `meta` is at-most-one
/// (duplicates merge), `par` is free. The STD forces `doc/sec/title`, so
/// those are in the compiled chase's shared forced-element alphabet.
fn doc_setting() -> DataExchangeSetting {
    xdx_bench::chase_setting()
}

/// Run both chase implementations on clones of `tree`.
fn chase_pair(
    setting: &DataExchangeSetting,
    tree: &XmlTree,
) -> (
    Result<XmlTree, SolutionError>,
    Result<XmlTree, SolutionError>,
) {
    let mut reference_tree = tree.clone();
    let mut reference_nulls = NullGen::starting_at(1_000_000);
    let reference = chase_reference(&mut reference_tree, setting, &mut reference_nulls)
        .map(|()| reference_tree);
    let compiled = CompiledSetting::new(setting);
    let mut worklist_tree = tree.clone();
    let mut worklist_nulls = NullGen::starting_at(1_000_000);
    let worklist = compiled
        .chase(&mut worklist_tree, &mut worklist_nulls)
        .map(|()| worklist_tree);
    (reference, worklist)
}

/// Same verdict; on success, same tree up to sibling order and null
/// renaming; on failure, same error kind.
fn assert_chases_agree(setting: &DataExchangeSetting, tree: &XmlTree) -> Result<(), TestCaseError> {
    let (reference, worklist) = chase_pair(setting, tree);
    match (&reference, &worklist) {
        (Ok(r), Ok(w)) => {
            w.validate().expect("worklist chase corrupted the tree");
            prop_assert!(
                w.unordered_eq(r),
                "chase results diverged on a {}-node tree:\n{r}\nvs\n{w}",
                tree.size()
            );
            prop_assert!(setting.target_dtd.conforms_unordered(w));
        }
        (Err(re), Err(we)) => {
            prop_assert!(
                std::mem::discriminant(re) == std::mem::discriminant(we),
                "chase error kinds diverged on a {}-node tree: {re:?} vs {we:?}",
                tree.size()
            );
        }
        _ => prop_assert!(
            false,
            "chase verdicts diverged on a {}-node tree: {reference:?} vs {worklist:?}",
            tree.size()
        ),
    }
    Ok(())
}

fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
    &items[rng.next_u64() as usize % items.len()]
}

/// A presolution-shaped tree conforming (unordered) to [`doc_setting`]'s
/// target DTD, with all attributes present.
fn conforming_tree(rng: &mut TestRng, budget: usize) -> XmlTree {
    let mut tree = XmlTree::new("doc");
    let mut nodes = 1usize;
    let mut nulls = NullGen::new();
    while nodes + 2 < budget {
        let sec = tree.add_child(tree.root(), "sec");
        tree.set_attr(sec, "@id", format!("s{}", rng.next_u64() % 4));
        let title = tree.add_child(sec, "title");
        tree.set_attr(title, "@t", *pick(rng, &["a", "b"]));
        nodes += 2;
        for _ in 0..rng.next_u64() % 3 {
            if nodes >= budget {
                break;
            }
            let par = tree.add_child(sec, "par");
            // Nulls bind like any other value and must survive both chases.
            if rng.next_u64().is_multiple_of(4) {
                tree.set_attr(par, "@w", nulls.fresh_value());
            } else {
                tree.set_attr(par, "@w", "w");
            }
            nodes += 1;
        }
    }
    if rng.next_u64().is_multiple_of(2) {
        tree.add_child(tree.root(), "meta");
    }
    tree
}

/// A repair-heavy tree: every label sits under a parent whose content-model
/// alphabet contains it, but counts are arbitrary (0–3 titles per sec, 0–3
/// metas) and attributes are randomly missing. `@t` draws from two
/// constants, so title merges sometimes clash — the only reachable error.
fn repair_heavy_tree(rng: &mut TestRng, budget: usize) -> XmlTree {
    let mut tree = XmlTree::new("doc");
    let mut nodes = 1usize;
    for _ in 0..rng.next_u64() % 4 {
        tree.add_child(tree.root(), "meta");
        nodes += 1;
    }
    while nodes < budget {
        let sec = tree.add_child(tree.root(), "sec");
        if rng.next_u64().is_multiple_of(2) {
            tree.set_attr(sec, "@id", "s");
        }
        nodes += 1;
        for _ in 0..rng.next_u64() % 4 {
            if nodes >= budget {
                break;
            }
            let child = if rng.next_u64().is_multiple_of(2) {
                let title = tree.add_child(sec, "title");
                if rng.next_u64().is_multiple_of(2) {
                    tree.set_attr(title, "@t", *pick(rng, &["a", "b"]));
                }
                title
            } else {
                tree.add_child(sec, "par")
            };
            let _ = child;
            nodes += 1;
        }
    }
    tree
}

/// An off-model tree: any declared label (plus the undeclared `z`) can
/// appear under any node. `@t` is fixed to one constant, so merges never
/// clash and the only reachable error is `NoRepair`.
fn off_model_tree(rng: &mut TestRng, budget: usize) -> XmlTree {
    let labels = ["sec", "title", "par", "meta", "z"];
    let mut tree = XmlTree::new("doc");
    for _ in 0..budget {
        let nodes = tree.nodes();
        let parent = *pick(rng, &nodes);
        let label = *pick(rng, &labels);
        let node = tree.add_child(parent, label);
        if label == "title" {
            tree.set_attr(node, "@t", "a");
        }
    }
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(160)))]

    /// Conforming presolutions: both chases fill the missing attributes and
    /// nothing else.
    #[test]
    fn worklist_chase_equals_reference_on_conforming_trees(
        seed in 0u64..u64::MAX,
        budget in 3usize..28,
    ) {
        let setting = doc_setting();
        let mut rng = TestRng::new(seed);
        let tree = conforming_tree(&mut rng, budget);
        assert_chases_agree(&setting, &tree)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(160)))]

    /// Repair-heavy presolutions: merges and extensions at every node;
    /// `AttributeClash` is the only reachable failure and both chases must
    /// report it (or both succeed with equal trees).
    #[test]
    fn worklist_chase_equals_reference_on_repair_heavy_trees(
        seed in 0u64..u64::MAX,
        budget in 2usize..26,
    ) {
        let setting = doc_setting();
        let mut rng = TestRng::new(seed);
        let tree = repair_heavy_tree(&mut rng, budget);
        assert_chases_agree(&setting, &tree)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(96)))]

    /// Off-model presolutions (declared labels in forbidden places and the
    /// undeclared label `z`): `NoRepair` is the only reachable failure.
    #[test]
    fn worklist_chase_equals_reference_on_off_model_trees(
        seed in 0u64..u64::MAX,
        budget in 1usize..20,
    ) {
        let setting = doc_setting();
        let mut rng = TestRng::new(seed);
        let tree = off_model_tree(&mut rng, budget);
        assert_chases_agree(&setting, &tree)?;
    }
}

// ---------------------------------------------------------------------------
// End-to-end: template-stamped presolution + worklist chase vs references
// ---------------------------------------------------------------------------

/// Settings whose STDs drive different instantiation/chase shapes:
/// the running example, a chase-forced merge (clash-prone), and an STD
/// forcing a declared label (`note`) that no content model mentions.
fn setting_pool() -> Vec<DataExchangeSetting> {
    let merge_forcing = {
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
        DataExchangeSetting::new(source_dtd, target_dtd, vec![std])
    };
    let forced_off_model = {
        let source_dtd = Dtd::builder("src")
            .rule("src", "item*")
            .attributes("item", ["@v"])
            .build()
            .unwrap();
        // `note` is declared but appears in no content model: presolutions
        // that instantiate it are unrepairable, and `note` still sits in the
        // compiled chase's shared forced-element alphabet.
        let target_dtd = Dtd::builder("doc")
            .rule("doc", "sec*")
            .rule("sec", "title")
            .rule("title", "eps")
            .rule("note", "eps")
            .attributes("sec", ["@id"])
            .build()
            .unwrap();
        let std = Std::parse("doc[sec(@id=$x)[note]] :- src[item(@v=$x)]").unwrap();
        DataExchangeSetting::new(source_dtd, target_dtd, vec![std])
    };
    vec![
        books_to_writers_setting(),
        doc_setting(),
        merge_forcing,
        forced_off_model,
    ]
}

/// A random source tree for any setting in the pool: the generic shape
/// `root[rec(@a=v)[sub(@a=v, @b=v)*]*]` relabelled to the setting's source
/// schema. Values come from a small pool so merges and clashes happen.
fn random_source(setting: &DataExchangeSetting, rng: &mut TestRng, budget: usize) -> XmlTree {
    let root = setting.source_dtd.root().clone();
    let mut tree = XmlTree::new(root.as_str());
    let (rec, rec_attrs, sub, sub_attrs): (&str, &[&str], Option<&str>, &[&str]) =
        match root.as_str() {
            "db" => ("book", &["@title"], Some("author"), &["@name", "@aff"]),
            _ => ("item", &["@v"], None, &[]),
        };
    let mut nodes = 1usize;
    while nodes < budget {
        let r = tree.add_child(tree.root(), rec);
        for attr in rec_attrs {
            tree.set_attr(r, *attr, format!("c{}", rng.next_u64() % 3));
        }
        nodes += 1;
        if let Some(sub) = sub {
            for _ in 0..rng.next_u64() % 3 {
                if nodes >= budget {
                    break;
                }
                let s = tree.add_child(r, sub);
                for attr in sub_attrs {
                    tree.set_attr(s, *attr, format!("c{}", rng.next_u64() % 3));
                }
                nodes += 1;
            }
        }
    }
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(128)))]

    /// Template-stamped presolutions equal the recursive reference ones,
    /// and full canonical solutions (presolution + chase) agree end to end.
    #[test]
    fn compiled_pipeline_equals_reference_pipeline(
        seed in 0u64..u64::MAX,
        budget in 1usize..24,
    ) {
        let mut rng = TestRng::new(seed);
        let settings = setting_pool();
        let setting = pick(&mut rng, &settings);
        let source = random_source(setting, &mut rng, budget);

        let mut compiled_nulls = NullGen::new();
        let compiled_pre =
            canonical_presolution(setting, &source, &mut compiled_nulls).unwrap();
        let mut reference_nulls = NullGen::new();
        let reference_pre =
            canonical_presolution_reference(setting, &source, &mut reference_nulls).unwrap();
        compiled_pre.validate().expect("stamped presolution is a tree");
        prop_assert!(
            compiled_pre.unordered_eq(&reference_pre),
            "presolutions diverged:\n{compiled_pre}\nvs\n{reference_pre}"
        );

        let compiled_solution = canonical_solution(setting, &source);
        let reference_solution = canonical_solution_reference(setting, &source);
        match (&compiled_solution, &reference_solution) {
            (Ok(c), Ok(r)) => prop_assert!(
                c.unordered_eq(r),
                "canonical solutions diverged:\n{c}\nvs\n{r}"
            ),
            (Err(ce), Err(re)) => prop_assert!(
                std::mem::discriminant(ce) == std::mem::discriminant(re),
                "solution error kinds diverged: {ce:?} vs {re:?}"
            ),
            _ => prop_assert!(
                false,
                "solution verdicts diverged: {compiled_solution:?} vs {reference_solution:?}"
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic single-fault error paths
// ---------------------------------------------------------------------------

/// Both chases must report exactly this error on a single-fault tree.
fn assert_both_fail_with(
    setting: &DataExchangeSetting,
    tree: &XmlTree,
    expect: impl Fn(&SolutionError) -> bool,
) {
    let (reference, worklist) = chase_pair(setting, tree);
    let reference = reference.expect_err("reference chase must fail");
    let worklist = worklist.expect_err("worklist chase must fail");
    assert!(
        expect(&reference),
        "unexpected reference error: {reference:?}"
    );
    assert!(expect(&worklist), "unexpected worklist error: {worklist:?}");
    assert_eq!(
        std::mem::discriminant(&reference),
        std::mem::discriminant(&worklist)
    );
}

#[test]
fn disallowed_attribute_is_reported_by_both_chases() {
    let setting = doc_setting();
    let mut tree = conforming_tree(&mut TestRng::new(7), 12);
    let sec = tree.children(tree.root())[0];
    tree.set_attr(sec, "@bogus", "x");
    assert_both_fail_with(
        &setting,
        &tree,
        |e| matches!(e, SolutionError::DisallowedAttribute { attr, .. } if attr.as_str() == "@bogus"),
    );
}

#[test]
fn no_repair_is_reported_by_both_chases() {
    // `meta → eps` can never host a child.
    let setting = doc_setting();
    let mut tree = XmlTree::new("doc");
    let meta = tree.add_child(tree.root(), "meta");
    tree.add_child(meta, "par");
    assert_both_fail_with(
        &setting,
        &tree,
        |e| matches!(e, SolutionError::NoRepair { element } if element.as_str() == "meta"),
    );
}

#[test]
fn unknown_target_element_is_reported_by_both_chases() {
    let setting = doc_setting();
    let tree = XmlTree::new("zzz");
    assert_both_fail_with(
        &setting,
        &tree,
        |e| matches!(e, SolutionError::UnknownTargetElement { element } if element.as_str() == "zzz"),
    );
}

#[test]
fn attribute_clash_is_reported_by_both_chases() {
    // Two titles with distinct constants under one sec: the forced merge
    // clashes on `@t` in both chases.
    let setting = doc_setting();
    let mut tree = XmlTree::new("doc");
    let sec = tree.add_child(tree.root(), "sec");
    for value in ["a", "b"] {
        let title = tree.add_child(sec, "title");
        tree.set_attr(title, "@t", value);
    }
    assert_both_fail_with(
        &setting,
        &tree,
        |e| matches!(e, SolutionError::AttributeClash { attr, .. } if attr.as_str() == "@t"),
    );
}

#[test]
fn no_maximum_repair_is_reported_by_both_chases() {
    // `x → a|b` with no children: rep = {{a}, {b}}, no ⊑-maximum.
    let source_dtd = Dtd::builder("src").rule("src", "eps").build().unwrap();
    let target_dtd = Dtd::builder("x")
        .rule("x", "a|b")
        .rule("a", "eps")
        .rule("b", "eps")
        .build()
        .unwrap();
    let setting = DataExchangeSetting::new(source_dtd, target_dtd, vec![]);
    let tree = XmlTree::new("x");
    assert_both_fail_with(
        &setting,
        &tree,
        |e| matches!(e, SolutionError::NoMaximumRepair { element } if element.as_str() == "x"),
    );
}

#[test]
fn budget_exhaustion_is_reported_by_both_chases() {
    // `g → g`: every repair adds a `g` child that itself needs one — the
    // chase never terminates and must trip the (shrunken) budget in both
    // implementations. Step counts differ slightly (the reference counts
    // restart scans, the worklist counts applied repairs), so only the
    // kind is pinned.
    let source_dtd = Dtd::builder("src").rule("src", "eps").build().unwrap();
    let target_dtd = Dtd::builder("r")
        .rule("r", "g")
        .rule("g", "g")
        .build()
        .unwrap();
    let setting = DataExchangeSetting::new(source_dtd, target_dtd, vec![]);
    let budget = 300;

    let mut reference_tree = XmlTree::new("r");
    let mut reference_nulls = NullGen::new();
    let reference =
        chase_reference_with_budget(&mut reference_tree, &setting, &mut reference_nulls, budget)
            .expect_err("the reference chase must exhaust its budget");
    assert!(matches!(
        reference,
        SolutionError::ChaseBudgetExceeded { .. }
    ));

    let compiled = CompiledSetting::new(&setting);
    let mut worklist_tree = XmlTree::new("r");
    let mut worklist_nulls = NullGen::new();
    let worklist = compiled
        .chase_with_budget(&mut worklist_tree, &mut worklist_nulls, budget)
        .expect_err("the worklist chase must exhaust its budget");
    assert!(matches!(
        worklist,
        SolutionError::ChaseBudgetExceeded { .. }
    ));
}

#[test]
fn budget_counts_repairs_not_visited_nodes() {
    // A tiny tree whose chase *grows* a large mandatory fan-out: `r` needs
    // 40 `a` children, every `a` needs 40 `b`s — 41 repairs materialise
    // 1641 nodes. Both implementations must finish within a 100-step
    // budget, because a step is one repair (reference: one restart scan),
    // not one visited node; a pop-per-step worklist would spuriously
    // exhaust the budget here (regression test).
    let fan: String = vec!["a"; 40].join(" ");
    let fan_b: String = vec!["b"; 40].join(" ");
    let source_dtd = Dtd::builder("src").rule("src", "eps").build().unwrap();
    let target_dtd = Dtd::builder("r")
        .rule("r", &fan)
        .rule("a", &fan_b)
        .rule("b", "eps")
        .build()
        .unwrap();
    let setting = DataExchangeSetting::new(source_dtd, target_dtd, vec![]);
    let budget = 100;

    let mut reference_tree = XmlTree::new("r");
    chase_reference_with_budget(&mut reference_tree, &setting, &mut NullGen::new(), budget)
        .expect("41 repairs fit in a 100-step budget");

    let compiled = CompiledSetting::new(&setting);
    let mut worklist_tree = XmlTree::new("r");
    compiled
        .chase_with_budget(&mut worklist_tree, &mut NullGen::new(), budget)
        .expect("41 repairs fit in a 100-step budget");
    assert_eq!(worklist_tree.size(), 1 + 40 + 40 * 40);
    assert!(worklist_tree.unordered_eq(&reference_tree));
}

#[test]
fn worklist_chase_visits_created_subtrees() {
    // A repair that *creates* nodes which themselves need repairs three
    // levels deep: doc → sec → title, where an empty doc must grow the
    // whole spine (regression test for the re-enqueue rule).
    let source_dtd = Dtd::builder("src").rule("src", "eps").build().unwrap();
    let target_dtd = Dtd::builder("doc")
        .rule("doc", "sec")
        .rule("sec", "title")
        .rule("title", "leaf")
        .rule("leaf", "eps")
        .attributes("leaf", ["@v"])
        .build()
        .unwrap();
    let setting = DataExchangeSetting::new(source_dtd, target_dtd, vec![]);
    let tree = XmlTree::new("doc");
    let (reference, worklist) = chase_pair(&setting, &tree);
    let reference = reference.unwrap();
    let worklist = worklist.unwrap();
    assert_eq!(worklist.size(), 4, "doc/sec/title/leaf spine");
    assert!(worklist.unordered_eq(&reference));
    assert!(setting.target_dtd.conforms_unordered(&worklist));
    // The deepest created node got its ChangeAtt fill.
    let leaf = worklist
        .preorder()
        .find(|&n| worklist.label(n).as_str() == "leaf")
        .unwrap();
    assert!(worklist.attr(leaf, &"@v".into()).unwrap().is_null());
}

#[test]
fn repeated_target_only_variables_stay_correlated_across_sites() {
    // `unordered_eq` anonymises nulls, so the randomized properties cannot
    // see null *identity*. This pins it directly: a target-only variable
    // occurring at two attribute sites must receive the SAME null within
    // one instantiation (a query joining the two sites on `$z` must keep
    // matching) and distinct nulls across instantiations — in both the
    // template-stamped and the reference presolution.
    let source_dtd = Dtd::builder("src")
        .rule("src", "item*")
        .attributes("item", ["@v"])
        .build()
        .unwrap();
    let target_dtd = Dtd::builder("r")
        .rule("r", "a* b*")
        .attributes("a", ["@p", "@k"])
        .attributes("b", ["@q"])
        .build()
        .unwrap();
    let std = Std::parse("r[a(@p=$z, @k=$x), b(@q=$z)] :- src[item(@v=$x)]").unwrap();
    let setting = DataExchangeSetting::new(source_dtd, target_dtd, vec![std]);
    let mut source = XmlTree::new("src");
    for v in ["1", "2"] {
        let item = source.add_child(source.root(), "item");
        source.set_attr(item, "@v", v);
    }
    let mut nulls = NullGen::new();
    let stamped = canonical_presolution(&setting, &source, &mut nulls).unwrap();
    let mut reference_nulls = NullGen::new();
    let reference =
        canonical_presolution_reference(&setting, &source, &mut reference_nulls).unwrap();
    for pre in [&stamped, &reference] {
        // Each stamp appends its `a` then its `b`: children = a₁ b₁ a₂ b₂.
        let tops = pre.children(pre.root());
        assert_eq!(tops.len(), 4);
        let z1 = pre.attr(tops[0], &"@p".into()).unwrap();
        let z2 = pre.attr(tops[2], &"@p".into()).unwrap();
        assert!(z1.is_null() && z2.is_null());
        assert_eq!(
            z1,
            pre.attr(tops[1], &"@q".into()).unwrap(),
            "within one instantiation the two $z sites share one null"
        );
        assert_eq!(z2, pre.attr(tops[3], &"@q".into()).unwrap());
        assert_ne!(z1, z2, "instantiations draw fresh nulls");
    }
}

/// `NodeId` sanity for the stamped presolutions: ids handed out by
/// `append_forest` slot arithmetic are real arena ids.
#[test]
fn stamped_presolution_node_ids_are_dense() {
    let setting = doc_setting();
    let mut source = XmlTree::new("src");
    for v in ["1", "2", "3"] {
        let item = source.add_child(source.root(), "item");
        source.set_attr(item, "@v", v);
    }
    let mut nulls = NullGen::new();
    let pre = canonical_presolution(&setting, &source, &mut nulls).unwrap();
    assert_eq!(pre.size(), 1 + 3 * 2, "root + (sec + title) per item");
    assert_eq!(pre.arena_len(), pre.size(), "stamping leaves no gaps");
    for i in 0..pre.arena_len() {
        let node = NodeId::from_index(i);
        let _ = pre.label(node);
    }
}

// ---------------------------------------------------------------------------
// Chase-free settings: the compile-time premise under which the chase is the
// identity on every canonical pre-solution (`CompiledSetting::chase_free`)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(96)))]

    /// On every chase-free setting of the pool, the frozen reference chase
    /// leaves the stamped pre-solution unchanged and draws no null, and the
    /// compiled solution (which skips the chase) is that pre-solution.
    #[test]
    fn reference_chase_is_the_identity_on_chase_free_presolutions(
        seed in 0u64..u64::MAX,
        budget in 1usize..24,
    ) {
        let mut rng = TestRng::new(seed);
        let settings: Vec<DataExchangeSetting> = setting_pool()
            .into_iter()
            .filter(|s| CompiledSetting::new(s).chase_free())
            .collect();
        let setting = pick(&mut rng, &settings);
        let source = random_source(setting, &mut rng, budget);

        let mut nulls = NullGen::new();
        let pre = canonical_presolution(setting, &source, &mut nulls).unwrap();
        let nulls_before = nulls.count();
        let mut chased = pre.clone();
        chase_reference(&mut chased, setting, &mut nulls).unwrap();
        prop_assert!(
            chased.unordered_eq(&pre),
            "the reference chase changed a chase-free pre-solution:\n{pre}\nvs\n{chased}"
        );
        prop_assert!(nulls.count() == nulls_before, "the reference chase drew a null");

        let compiled = CompiledSetting::new(setting);
        let solution = compiled.canonical_solution(&source).unwrap();
        prop_assert!(solution.unordered_eq(&pre));
        prop_assert!(compiled.check_instance_consistency_with(&source, &mut ExchangeScratch::new()));
    }
}

#[test]
fn benchmark_and_running_example_settings_are_chase_free() {
    let clio = xdx_bench::clio_setting(4, 4);
    assert!(CompiledSetting::new(&clio).chase_free());
    assert!(CompiledSetting::new(&books_to_writers_setting()).chase_free());
    // The pool holds both kinds, so neither property above is vacuous.
    let verdicts: Vec<bool> = setting_pool()
        .iter()
        .map(|s| CompiledSetting::new(s).chase_free())
        .collect();
    assert_eq!(verdicts, [true, true, false, false]);

    // The chase-skipping path leaves the chase counters untouched.
    let compiled = CompiledSetting::new(&clio);
    let source = xdx_bench::clio_source(4, 64, 3);
    let mut scratch = ExchangeScratch::new();
    let solution = compiled
        .canonical_solution_with(&source, &mut scratch)
        .unwrap();
    assert_eq!(scratch.counters.chase_steps, 0);
    let reference = canonical_solution_reference(&clio, &source).unwrap();
    assert!(solution.unordered_eq(&reference));
}

/// The chase-free base fixture: `tgt → g*`, `g → h? k*`, every stamped node
/// carries exactly its declared attributes. Each entry of
/// [`premise_violations`] changes this in exactly one way.
fn premise_fixture(target_dtd: Dtd, std: &str) -> DataExchangeSetting {
    let source_dtd = Dtd::builder("src")
        .rule("src", "item*")
        .attributes("item", ["@v"])
        .build()
        .unwrap();
    DataExchangeSetting::new(source_dtd, target_dtd, vec![Std::parse(std).unwrap()])
}

fn premise_target(root_rule: &str, g_rule: &str) -> Dtd {
    Dtd::builder("tgt")
        .rule("tgt", root_rule)
        .rule("g", g_rule)
        .rule("h", "eps")
        .rule("k", "eps")
        .attributes("g", ["@v", "@w"])
        .attributes("h", ["@u"])
        .build()
        .unwrap()
}

const BASE_STD: &str = "tgt[g(@v=$x, @w=$z)[h(@u=$x)]] :- src[item(@v=$x)]";

/// One fixture per premise of `chase_free`, each violating only that one.
fn premise_violations() -> Vec<(&'static str, DataExchangeSetting)> {
    // `restricted_to` is the one way to a DTD whose root declares
    // attributes (the builder rejects them, the paper's `D_ℓ` does not).
    let root_attribute = Dtd::builder("top")
        .rule("top", "tgt")
        .rule("tgt", "g*")
        .rule("g", "h? k*")
        .attributes("tgt", ["@r"])
        .attributes("g", ["@v", "@w"])
        .attributes("h", ["@u"])
        .build()
        .unwrap()
        .restricted_to(&"tgt".into());
    vec![
        (
            "root g+",
            premise_fixture(premise_target("g+", "h? k*"), BASE_STD),
        ),
        (
            "root g? stamped by an STD",
            premise_fixture(premise_target("g?", "h? k*"), BASE_STD),
        ),
        (
            "missing declared attribute",
            premise_fixture(
                premise_target("g*", "h? k*"),
                "tgt[g(@v=$x)[h(@u=$x)]] :- src[item(@v=$x)]",
            ),
        ),
        (
            "disallowed attribute",
            premise_fixture(
                premise_target("g*", "h? k*"),
                "tgt[g(@v=$x, @w=$z, @bogus=$x)[h(@u=$x)]] :- src[item(@v=$x)]",
            ),
        ),
        (
            "h? stamped twice in one template",
            premise_fixture(
                premise_target("g*", "h? k*"),
                "tgt[g(@v=$x, @w=$z)[h(@u=$x), h(@u=$z)]] :- src[item(@v=$x)]",
            ),
        ),
        (
            "undeclared child label",
            premise_fixture(
                premise_target("g*", "h? k*"),
                "tgt[g(@v=$x, @w=$z)[h(@u=$x), zz]] :- src[item(@v=$x)]",
            ),
        ),
        ("root attribute", premise_fixture(root_attribute, BASE_STD)),
        (
            "(h|k)* rule",
            premise_fixture(premise_target("g*", "(h|k)*"), BASE_STD),
        ),
        (
            "wildcard STD",
            premise_fixture(
                premise_target("g*", "h? k*"),
                "tgt[_(@v=$x, @w=$z)[h(@u=$x)]] :- src[item(@v=$x)]",
            ),
        ),
        (
            "not fully specified STD",
            premise_fixture(
                premise_target("g*", "h? k*"),
                "tgt[//g(@v=$x, @w=$z)[h(@u=$x)]] :- src[item(@v=$x)]",
            ),
        ),
    ]
}

#[test]
fn each_violated_premise_keeps_the_chase() {
    let base = premise_fixture(premise_target("g*", "h? k*"), BASE_STD);
    assert!(CompiledSetting::new(&base).chase_free());
    for (name, setting) in premise_violations() {
        let compiled = CompiledSetting::new(&setting);
        assert!(!compiled.chase_free(), "{name}: the flag must be false");
        let mut scratch = ExchangeScratch::new();
        for seed in 0..24u64 {
            let mut rng = TestRng::new(seed);
            let mut source = random_source(&setting, &mut rng, (seed % 6) as usize);
            if seed % 5 == 4 {
                // A non-conforming source: `check` must say no on both paths.
                source.add_child(source.root(), "junk");
            }
            let reference = canonical_solution_reference(&setting, &source);
            let fast = compiled.canonical_solution_with(&source, &mut scratch);
            match (&fast, &reference) {
                (Ok(f), Ok(r)) => assert!(
                    f.unordered_eq(r),
                    "{name}: solutions diverged:\n{f}\nvs\n{r}"
                ),
                (Err(fe), Err(re)) => assert_eq!(
                    std::mem::discriminant(fe),
                    std::mem::discriminant(re),
                    "{name}: error kinds diverged: {fe:?} vs {re:?}"
                ),
                _ => panic!("{name}: verdicts diverged: {fast:?} vs {reference:?}"),
            }
            let expected = setting.source_dtd.conforms(&source) && reference.is_ok();
            assert_eq!(
                compiled.check_instance_consistency_with(&source, &mut scratch),
                expected,
                "{name}: check diverged on seed {seed}"
            );
        }
    }
}
