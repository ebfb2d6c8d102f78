//! Evaluation of tree-pattern formulae over XML trees.
//!
//! Following Section 3.1: a pattern `ϕ(x̄)` holds in a tree `T` under a value
//! assignment `σ` iff *some* node of `T` is a witness for `ϕ(σ(x̄))`. The
//! functions here compute all assignments (over the pattern's free variables)
//! for which a witness exists, which is what both source-side STD evaluation
//! and target-side query evaluation need.

use crate::pattern::{AttrFormula, Term, TreePattern, Var};
use std::collections::BTreeMap;
use xdx_xmltree::{NodeId, Value, XmlTree};

/// A (partial) assignment of values to variables.
pub type Assignment = BTreeMap<Var, Value>;

/// Merge two assignments; `None` if they disagree on a shared variable.
pub fn merge_assignments(a: &Assignment, b: &Assignment) -> Option<Assignment> {
    let mut out = a.clone();
    for (k, v) in b {
        match out.get(k) {
            Some(existing) if existing != v => return None,
            _ => {
                out.insert(k.clone(), v.clone());
            }
        }
    }
    Some(out)
}

/// All assignments under which `node` is a witness for `pattern`.
pub fn matches_at(tree: &XmlTree, node: NodeId, pattern: &TreePattern) -> Vec<Assignment> {
    match pattern {
        TreePattern::Node { attr, children } => {
            let Some(base) = match_attr_formula(tree, node, attr) else {
                return Vec::new();
            };
            let mut partials = vec![base];
            for child_pattern in children {
                let mut next: Vec<Assignment> = Vec::new();
                for partial in &partials {
                    for &child in tree.children(node) {
                        for m in matches_at(tree, child, child_pattern) {
                            if let Some(merged) = merge_assignments(partial, &m) {
                                if !next.contains(&merged) {
                                    next.push(merged);
                                }
                            }
                        }
                    }
                }
                partials = next;
                if partials.is_empty() {
                    return Vec::new();
                }
            }
            partials
        }
        TreePattern::Descendant(inner) => {
            let mut out: Vec<Assignment> = Vec::new();
            for d in tree.descendants(node) {
                for m in matches_at(tree, d, inner) {
                    if !out.contains(&m) {
                        out.push(m);
                    }
                }
            }
            out
        }
    }
}

fn match_attr_formula(tree: &XmlTree, node: NodeId, attr: &AttrFormula) -> Option<Assignment> {
    if !attr.label.accepts(tree.label(node)) {
        return None;
    }
    let mut assignment = Assignment::new();
    for binding in &attr.bindings {
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

/// All assignments (over the free variables of `pattern`) under which some
/// node of `tree` witnesses the pattern — i.e. the relation `ϕ(T)`.
///
/// Runs on the join-ordered planned evaluator ([`crate::plan`]), planning
/// the pattern DTD-less per call; hold a [`crate::plan::PatternPlan`] and a
/// per-tree [`crate::plan::TreeIndex`] to amortise the planning across many
/// evaluations. The original enumerate-then-merge evaluator is kept as
/// [`all_matches_reference`] — the differential-testing oracle.
pub fn all_matches(tree: &XmlTree, pattern: &TreePattern) -> Vec<Assignment> {
    let plan = crate::plan::PatternPlan::without_dtd(pattern);
    let index = crate::plan::TreeIndex::without_dtd(tree);
    plan.all_matches(tree, &index)
}

/// Reference implementation of [`all_matches`]: enumerate every node and
/// merge recursively through [`matches_at`], deduplicating by linear scans.
/// Kept verbatim as the oracle the planned evaluator is differential-tested
/// against (`tests/pattern_differential.rs`).
pub fn all_matches_reference(tree: &XmlTree, pattern: &TreePattern) -> Vec<Assignment> {
    let mut out: Vec<Assignment> = Vec::new();
    for node in tree.nodes() {
        for m in matches_at(tree, node, pattern) {
            if !out.contains(&m) {
                out.push(m);
            }
        }
    }
    out
}

/// Does `T ⊨ ϕ(σ)` hold for a (total) assignment `σ` of the free variables,
/// on the reference evaluator? Variables of the pattern missing from `σ` are
/// treated existentially. Used by the `*_reference` pipeline functions in
/// `xdx-core` so they stay a frozen baseline.
pub fn holds_reference(tree: &XmlTree, pattern: &TreePattern, assignment: &Assignment) -> bool {
    holds_in(&all_matches_reference(tree, pattern), assignment)
}

fn holds_in(matches: &[Assignment], assignment: &Assignment) -> bool {
    matches.iter().any(|m| {
        m.iter().all(|(var, value)| match assignment.get(var) {
            Some(expected) => expected == value,
            None => true,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_pattern;
    use xdx_xmltree::TreeBuilder;

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

    fn get<'a>(a: &'a Assignment, v: &str) -> &'a Value {
        a.get(&Var::new(v)).expect("variable bound")
    }

    #[test]
    fn example_from_section_3_1() {
        // ψ(x, y) = book(@title = x)[author(@name = y)] is true iff x is a
        // title and y one of its authors.
        let t = figure1_tree();
        let p = parse_pattern("book(@title=$x)[author(@name=$y)]").unwrap();
        let matches = all_matches(&t, &p);
        assert_eq!(matches.len(), 3);
        let pairs: Vec<(String, String)> = matches
            .iter()
            .map(|m| {
                (
                    get(m, "x").as_const().unwrap().to_string(),
                    get(m, "y").as_const().unwrap().to_string(),
                )
            })
            .collect();
        assert!(pairs.contains(&(
            "Combinatorial Optimization".to_string(),
            "Papadimitriou".to_string()
        )));
        assert!(pairs.contains(&(
            "Combinatorial Optimization".to_string(),
            "Steiglitz".to_string()
        )));
        assert!(pairs.contains(&(
            "Computational Complexity".to_string(),
            "Papadimitriou".to_string()
        )));
    }

    #[test]
    fn patterns_are_not_root_anchored_by_default() {
        // author(@name=$y) matches at author nodes even though they are deep
        // in the tree.
        let t = figure1_tree();
        let p = parse_pattern("author(@name=$y)").unwrap();
        assert_eq!(all_matches(&t, &p).len(), 2); // two distinct names
    }

    #[test]
    fn descendant_requires_a_proper_descendant() {
        let t = figure1_tree();
        // //author is witnessed at db and book nodes (their descendants
        // include authors) but the top-level semantics only asks for
        // existence of a witness.
        let p = parse_pattern("//author").unwrap();
        assert!(!all_matches(&t, &p).is_empty());
        // db[//db] cannot hold: db has no proper descendant labelled db.
        let q = parse_pattern("db[//db]").unwrap();
        assert!(all_matches(&t, &q).is_empty());
        // db[//author(@aff=$a)] binds affiliations reachable below a child.
        let r = parse_pattern("db[//author(@aff=$a)]").unwrap();
        let ms = all_matches(&t, &r);
        assert_eq!(ms.len(), 2);
    }

    #[test]
    fn wildcard_matches_any_label() {
        let t = figure1_tree();
        let p = parse_pattern("_(@name=$n)").unwrap();
        assert_eq!(all_matches(&t, &p).len(), 2);
        let q = parse_pattern("db[_[_(@aff=$a)]]").unwrap();
        assert_eq!(all_matches(&t, &q).len(), 2);
    }

    #[test]
    fn repeated_variables_enforce_equality() {
        // _(@name=$v, @aff=$v) requires the two attributes to be equal: never
        // true in Figure 1.
        let t = figure1_tree();
        let p = parse_pattern("_(@name=$v, @aff=$v)").unwrap();
        assert!(all_matches(&t, &p).is_empty());

        let mut t2 = XmlTree::new("r");
        let n = t2.add_child(t2.root(), "l");
        t2.set_attr(n, "@a1", "same");
        t2.set_attr(n, "@a2", "same");
        let q = parse_pattern("l(@a1=$z, @a2=$z)").unwrap();
        assert_eq!(all_matches(&t2, &q).len(), 1);
    }

    #[test]
    fn constants_filter_matches() {
        let t = figure1_tree();
        let p =
            parse_pattern("book(@title=\"Computational Complexity\")[author(@name=$y)]").unwrap();
        let ms = all_matches(&t, &p);
        assert_eq!(ms.len(), 1);
        assert_eq!(get(&ms[0], "y").as_const(), Some("Papadimitriou"));
        let none = parse_pattern("book(@title=\"No Such Book\")").unwrap();
        assert!(all_matches(&t, &none).is_empty());
    }

    #[test]
    fn missing_attribute_means_no_match() {
        let t = figure1_tree();
        let p = parse_pattern("book(@year=$y)").unwrap();
        assert!(all_matches(&t, &p).is_empty());
    }

    #[test]
    fn multiple_child_patterns_may_share_a_witness_child() {
        // db[book(@title=$x), book(@title=$y)] — the two sub-patterns may be
        // witnessed by the same child, so x = y is among the matches.
        let t = figure1_tree();
        let p = parse_pattern("db[book(@title=$x), book(@title=$y)]").unwrap();
        let ms = all_matches(&t, &p);
        assert_eq!(ms.len(), 4);
        assert!(ms.iter().any(|m| get(m, "x") == get(m, "y")));
        assert!(ms.iter().any(|m| get(m, "x") != get(m, "y")));
    }

    #[test]
    fn holds_with_total_and_partial_assignments() {
        let t = figure1_tree();
        let p = parse_pattern("book(@title=$x)[author(@name=$y)]").unwrap();
        let mut sigma = Assignment::new();
        sigma.insert(Var::new("x"), Value::constant("Computational Complexity"));
        sigma.insert(Var::new("y"), Value::constant("Papadimitriou"));
        assert!(holds_reference(&t, &p, &sigma));
        sigma.insert(Var::new("y"), Value::constant("Steiglitz"));
        assert!(!holds_reference(&t, &p, &sigma));
        // partial assignment: y existential
        let mut partial = Assignment::new();
        partial.insert(Var::new("x"), Value::constant("Combinatorial Optimization"));
        assert!(holds_reference(&t, &p, &partial));
    }

    #[test]
    fn matches_at_specific_nodes() {
        let t = figure1_tree();
        let book1 = t.children(t.root())[0];
        let book2 = t.children(t.root())[1];
        let p = parse_pattern("book(@title=$x)").unwrap();
        assert_eq!(matches_at(&t, book1, &p).len(), 1);
        assert_eq!(matches_at(&t, book2, &p).len(), 1);
        assert!(matches_at(&t, t.root(), &p).is_empty());
    }

    #[test]
    fn null_values_bind_like_any_other_value() {
        use xdx_xmltree::{NullGen, Value};
        let mut t = XmlTree::new("bib");
        let mut gen = NullGen::new();
        let w = t.add_child(t.root(), "work");
        let null = gen.fresh_value();
        t.set_attr(w, "@year", null.clone());
        let p = parse_pattern("work(@year=$y)").unwrap();
        let ms = all_matches(&t, &p);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].get(&Var::new("y")), Some(&null));
        assert!(!Value::is_const(&ms[0][&Var::new("y")]));
    }
}
