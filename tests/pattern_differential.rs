//! Differential proptest harness for the join-ordered pattern evaluator.
//!
//! Random DTD-conforming trees (and mutated, non-conforming variants with
//! undeclared labels and null attribute values) × random tree patterns,
//! asserting that every planned evaluation path produces exactly the match
//! relation of the enumerate-then-merge oracle
//! (`eval::all_matches_reference`):
//!
//! * `PatternPlan::new` + `TreeIndex::new` (the DTD-interned path the
//!   compiled layer runs),
//! * `PatternPlan::without_dtd` + `TreeIndex::without_dtd` (string-compare
//!   fallback),
//! * the public `eval::all_matches` entry point,
//! * `QueryPlan` joins vs a hand-rolled reference join.
//!
//! Sampling is deterministic (the proptest shim derives its seed from the
//! test name), so CI runs are reproducible; `PROPTEST_CASES` scales the
//! sweep (the scheduled deep job runs with `PROPTEST_CASES=2048`). The
//! default case counts below sum to > 1000 generated `(tree, pattern)`
//! cases per run.

use proptest::prelude::*;
use std::collections::BTreeSet;
use xml_data_exchange::patterns::eval::{all_matches, all_matches_reference, merge_assignments};
use xml_data_exchange::patterns::plan::{PatternPlan, QueryPlan, TreeIndex};
use xml_data_exchange::patterns::{
    Assignment, AttrFormula, ConjunctiveTreeQuery, TreePattern, UnionQuery, Var,
};
use xml_data_exchange::xmltree::{NodeId, NullGen, Value};
use xml_data_exchange::{Dtd, XmlTree};

/// The number of cases for one property: the env override when set
/// (`PROPTEST_CASES=2048` in the deep-sweep CI job), `default` otherwise.
fn cases(default: u32) -> u32 {
    ProptestConfig::env_cases().unwrap_or(default)
}

/// A fixed schema with recursion (`c → d*` under `a → (c|d)*`), optional
/// fields, and attributes on every non-root element.
fn harness_dtd() -> Dtd {
    Dtd::builder("r")
        .rule("r", "a* b*")
        .rule("a", "(c|d)*")
        .rule("b", "c? d?")
        .rule("c", "d*")
        .rule("d", "eps")
        .attributes("a", ["@x"])
        .attributes("b", ["@x", "@y"])
        .attributes("c", ["@v"])
        .attributes("d", ["@v"])
        .build()
        .expect("well-formed harness DTD")
}

const VALUES: [&str; 4] = ["s0", "s1", "s2", "s3"];
const ATTRS_OF: [(&str, &[&str]); 5] = [
    ("r", &[]),
    ("a", &["@x"]),
    ("b", &["@x", "@y"]),
    ("c", &["@v"]),
    ("d", &["@v"]),
];

fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
    &items[rng.next_u64() as usize % items.len()]
}

fn fill_attrs(tree: &mut XmlTree, node: NodeId, rng: &mut TestRng) {
    let label = tree.label(node).as_str().to_string();
    let attrs = ATTRS_OF
        .iter()
        .find(|(l, _)| *l == label)
        .map(|(_, a)| *a)
        .unwrap_or(&[]);
    for attr in attrs {
        let value = *pick(rng, &VALUES);
        tree.set_attr(node, *attr, value);
    }
}

/// Add one child within the node budget, with its required attributes.
fn grow(
    tree: &mut XmlTree,
    parent: NodeId,
    label: &str,
    budget: &mut usize,
    rng: &mut TestRng,
) -> Option<NodeId> {
    if *budget == 0 {
        return None;
    }
    *budget -= 1;
    let node = tree.add_child(parent, label);
    fill_attrs(tree, node, rng);
    Some(node)
}

/// A random tree conforming (ordered) to [`harness_dtd`], with at most
/// `budget` nodes beyond the root.
fn random_conforming_tree(rng: &mut TestRng, mut budget: usize) -> XmlTree {
    let mut tree = XmlTree::new("r");
    let root = tree.root();
    // r → a* b* — children grouped so the ordered check also passes.
    let na = rng.next_u64() as usize % 4;
    let nb = rng.next_u64() as usize % 3;
    for _ in 0..na {
        let Some(a) = grow(&mut tree, root, "a", &mut budget, rng) else {
            break;
        };
        // a → (c|d)*
        for _ in 0..(rng.next_u64() as usize % 4) {
            let label = if rng.next_u64().is_multiple_of(2) {
                "c"
            } else {
                "d"
            };
            let Some(child) = grow(&mut tree, a, label, &mut budget, rng) else {
                break;
            };
            if label == "c" {
                // c → d*
                for _ in 0..(rng.next_u64() as usize % 3) {
                    if grow(&mut tree, child, "d", &mut budget, rng).is_none() {
                        break;
                    }
                }
            }
        }
    }
    for _ in 0..nb {
        let Some(b) = grow(&mut tree, root, "b", &mut budget, rng) else {
            break;
        };
        // b → c? d? (in rule order)
        if rng.next_u64().is_multiple_of(2) {
            if let Some(c) = grow(&mut tree, b, "c", &mut budget, rng) {
                for _ in 0..(rng.next_u64() as usize % 2) {
                    grow(&mut tree, c, "d", &mut budget, rng);
                }
            }
        }
        if rng.next_u64().is_multiple_of(2) {
            grow(&mut tree, b, "d", &mut budget, rng);
        }
    }
    tree
}

/// Mutate a conforming tree into a (usually) non-conforming one: undeclared
/// labels, missing attributes, null values, out-of-content-model children.
/// Pattern semantics never require `T ⊨ D`, so every evaluator must keep
/// agreeing on these trees — including the string fallback for labels the
/// DTD does not declare.
fn mutate_tree(tree: &mut XmlTree, rng: &mut TestRng) {
    let mut nulls = NullGen::new();
    let ops = 1 + rng.next_u64() as usize % 4;
    for _ in 0..ops {
        let nodes = tree.nodes();
        let node = *pick(rng, &nodes);
        match rng.next_u64() % 4 {
            0 => {
                // Undeclared label, carrying attributes patterns ask about.
                let label = if rng.next_u64().is_multiple_of(2) {
                    "z"
                } else {
                    "w"
                };
                let added = tree.add_child(node, label);
                tree.set_attr(added, "@x", *pick(rng, &VALUES));
                tree.set_attr(added, "@v", *pick(rng, &VALUES));
            }
            1 => {
                // Drop one attribute, if the node has any.
                if let Some(attr) = tree.attrs(node).keys().next().cloned() {
                    tree.remove_attr(node, &attr);
                }
            }
            2 => {
                // A null value: nulls bind like any other value.
                tree.set_attr(node, "@x", nulls.fresh_value());
            }
            _ => {
                // A declared label somewhere its content model forbids it.
                let label = *pick(rng, &["a", "b", "c", "d"]);
                let added = tree.add_child(node, label);
                fill_attrs(tree, added, rng);
            }
        }
    }
}

/// A random tree pattern over declared labels, undeclared labels, wildcards,
/// descendant steps, repeated variables and constants (hitting and missing).
fn random_pattern(rng: &mut TestRng, depth: usize) -> TreePattern {
    if depth > 0 && rng.next_u64().is_multiple_of(4) {
        return TreePattern::descendant(random_pattern(rng, depth - 1));
    }
    let labels = ["r", "a", "b", "c", "d", "z", "missing"];
    let mut attr = if rng.next_u64().is_multiple_of(5) {
        AttrFormula::wildcard()
    } else {
        AttrFormula::element(*pick(rng, &labels))
    };
    for _ in 0..(rng.next_u64() % 3) {
        let name = *pick(rng, &["@x", "@y", "@v", "@none"]);
        if rng.next_u64().is_multiple_of(3) {
            let value = if rng.next_u64().is_multiple_of(4) {
                "nohit"
            } else {
                *pick(rng, &VALUES)
            };
            attr = attr.bind_const(name, value);
        } else {
            attr = attr.bind_var(name, format!("v{}", rng.next_u64() % 4));
        }
    }
    let num_children = if depth == 0 {
        0
    } else {
        rng.next_u64() as usize % 3
    };
    let children = (0..num_children)
        .map(|_| random_pattern(rng, depth - 1))
        .collect();
    TreePattern::node(attr, children)
}

/// Every planned path must equal the oracle on `(tree, pattern)`.
fn assert_all_paths_agree(tree: &XmlTree, pattern: &TreePattern) -> Result<(), TestCaseError> {
    let dtd = harness_dtd();
    let mut oracle = all_matches_reference(tree, pattern);
    oracle.sort();

    let plan = PatternPlan::new(pattern, dtd.compiled());
    let index = TreeIndex::new(tree, dtd.compiled());
    let mut planned = plan.all_matches(tree, &index);
    planned.sort();
    prop_assert!(
        planned == oracle,
        "DTD-interned plan diverged on {} over a {}-node tree: {:?} vs {:?}",
        pattern,
        tree.size(),
        planned,
        oracle
    );

    let plan = PatternPlan::without_dtd(pattern);
    let index = TreeIndex::without_dtd(tree);
    let mut planned = plan.all_matches(tree, &index);
    planned.sort();
    prop_assert!(
        planned == oracle,
        "DTD-less plan diverged on {}: {:?} vs {:?}",
        pattern,
        planned,
        oracle
    );

    let mut public = all_matches(tree, pattern);
    public.sort();
    prop_assert!(
        public == oracle,
        "eval::all_matches diverged on {}: {:?} vs {:?}",
        pattern,
        public,
        oracle
    );
    Ok(())
}

/// Reference join of a conjunctive query, built only from oracle parts.
fn reference_join(tree: &XmlTree, query: &ConjunctiveTreeQuery) -> BTreeSet<Vec<Value>> {
    let mut assignments: Vec<Assignment> = vec![Assignment::new()];
    for pattern in query.patterns() {
        let relation = all_matches_reference(tree, pattern);
        let mut next: Vec<Assignment> = Vec::new();
        for a in &assignments {
            for b in &relation {
                if let Some(merged) = merge_assignments(a, b) {
                    if !next.contains(&merged) {
                        next.push(merged);
                    }
                }
            }
        }
        assignments = next;
        if assignments.is_empty() {
            return BTreeSet::new();
        }
    }
    assignments
        .into_iter()
        .map(|a| {
            query
                .head()
                .iter()
                .map(|v| a.get(v).cloned().expect("head variable bound"))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(448)))]

    /// Conforming trees: the planned evaluator (all three paths) is the
    /// oracle's equal on every generated `(tree, pattern)` case.
    #[test]
    fn planned_equals_reference_on_conforming_trees(
        seed in 0u64..u64::MAX,
        budget in 4usize..28,
        depth in 0usize..4,
    ) {
        let mut rng = TestRng::new(seed);
        let tree = random_conforming_tree(&mut rng, budget);
        let pattern = random_pattern(&mut rng, depth);
        assert_all_paths_agree(&tree, &pattern)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(448)))]

    /// Non-conforming trees — undeclared labels, missing attributes, nulls,
    /// broken content models. Undeclared pattern labels must keep the
    /// string-comparison fallback semantics.
    #[test]
    fn planned_equals_reference_on_mutated_trees(
        seed in 0u64..u64::MAX,
        budget in 0usize..24,
        depth in 0usize..4,
    ) {
        let mut rng = TestRng::new(seed);
        let mut tree = random_conforming_tree(&mut rng, budget);
        mutate_tree(&mut tree, &mut rng);
        let pattern = random_pattern(&mut rng, depth);
        assert_all_paths_agree(&tree, &pattern)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(192)))]

    /// Query plans: DTD-interned and DTD-less joins, and the public
    /// `UnionQuery::evaluate{,_boolean}` that run on them, all equal a
    /// reference join assembled from oracle relations only.
    #[test]
    fn query_plans_equal_reference_join(
        seed in 0u64..u64::MAX,
        budget in 2usize..20,
    ) {
        let mut rng = TestRng::new(seed);
        let mut tree = random_conforming_tree(&mut rng, budget);
        if rng.next_u64().is_multiple_of(2) {
            mutate_tree(&mut tree, &mut rng);
        }
        let num_patterns = 1 + rng.next_u64() as usize % 2;
        let patterns: Vec<TreePattern> =
            (0..num_patterns).map(|_| random_pattern(&mut rng, 2)).collect();
        let mut body_vars: Vec<Var> = Vec::new();
        for p in &patterns {
            body_vars.extend(p.free_vars());
        }
        body_vars.sort();
        body_vars.dedup();
        let head: Vec<Var> = body_vars
            .into_iter()
            .filter(|_| rng.next_u64().is_multiple_of(2))
            .collect();
        let query = ConjunctiveTreeQuery::new(head, patterns).expect("head from body vars");
        let expected = reference_join(&tree, &query);
        let union = UnionQuery::single(query);

        let dtd = harness_dtd();
        let holds = !expected.is_empty();
        let (plan, index) = (
            QueryPlan::new(&union, dtd.compiled()),
            TreeIndex::new(&tree, dtd.compiled()),
        );
        prop_assert!(
            plan.evaluate(&tree, &index) == expected,
            "DTD-interned query plan diverged on {}",
            union
        );
        prop_assert!(
            plan.evaluate_boolean(&tree, &index) == holds,
            "DTD-interned Boolean plan diverged on {}",
            union
        );
        let (plan, index) = (QueryPlan::without_dtd(&union), TreeIndex::without_dtd(&tree));
        prop_assert!(
            plan.evaluate(&tree, &index) == expected,
            "DTD-less query plan diverged on {}",
            union
        );
        prop_assert!(
            plan.evaluate_boolean(&tree, &index) == holds,
            "DTD-less Boolean plan diverged on {}",
            union
        );
        prop_assert!(
            union.evaluate(&tree) == expected,
            "UnionQuery::evaluate diverged on {}",
            union
        );
        prop_assert!(
            union.evaluate_boolean(&tree) == holds,
            "UnionQuery::evaluate_boolean diverged on {}",
            union
        );
    }
}
