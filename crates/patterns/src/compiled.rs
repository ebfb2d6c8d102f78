//! Interned-symbol patterns — the input of the planned evaluator.
//!
//! [`crate::eval::all_matches_reference`] compares element-type labels by
//! string content at every candidate node and deduplicates assignments by
//! linear scans. For the compile-once/evaluate-many pipeline
//! (`CompiledSetting` in `xdx-core`), patterns are instead resolved **once**
//! against a [`CompiledDtd`]'s symbol interner: label tests become dense
//! `u32` [`Sym`] comparisons (a pattern label the DTD does not declare falls
//! back to a direct label comparison, preserving the reference semantics on
//! trees that do not conform to the DTD), and the tree's labels are interned
//! once per evaluation. [`crate::plan`] evaluates the result.
//!
//! The reference evaluator stays the source of truth;
//! [`all_matches_compiled`] is differential-tested against
//! [`crate::eval::all_matches_reference`].

use crate::eval::Assignment;
use crate::pattern::{AttrBinding, LabelTest, Term, TreePattern};
use xdx_xmltree::{CompiledDtd, ElementType, NodeId, Sym, XmlTree};

/// A label test resolved against an interner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompiledLabelTest {
    /// Wildcard `_`: accepts every node.
    Any,
    /// A concrete element type, as its dense symbol id.
    Is(Sym),
    /// A concrete element type the DTD does not declare. On a conforming
    /// tree this never matches, but patterns are also evaluated against
    /// unvalidated trees (the paper never requires `T ⊨ D` for pattern
    /// semantics), so it falls back to comparing the node label directly —
    /// exactly what the reference evaluator does.
    Uninterned(ElementType),
}

/// A [`TreePattern`] compiled against a [`CompiledDtd`]'s symbol table.
#[derive(Debug, Clone)]
pub enum CompiledPattern {
    /// Attribute formula with child sub-patterns.
    Node {
        /// The resolved label test.
        label: CompiledLabelTest,
        /// The attribute bindings of the formula (shared with the source
        /// pattern).
        bindings: Vec<AttrBinding>,
        /// Child sub-patterns.
        children: Vec<CompiledPattern>,
    },
    /// `//ϕ` — witnessed by a proper descendant.
    Descendant(Box<CompiledPattern>),
}

impl CompiledPattern {
    /// Resolve `pattern`'s label tests against `dtd`'s interner.
    pub fn new(pattern: &TreePattern, dtd: &CompiledDtd) -> CompiledPattern {
        match pattern {
            TreePattern::Node { attr, children } => CompiledPattern::Node {
                label: match &attr.label {
                    LabelTest::Wildcard => CompiledLabelTest::Any,
                    LabelTest::Element(e) => match dtd.sym(e) {
                        Some(s) => CompiledLabelTest::Is(s),
                        None => CompiledLabelTest::Uninterned(e.clone()),
                    },
                },
                bindings: attr.bindings.clone(),
                children: children
                    .iter()
                    .map(|c| CompiledPattern::new(c, dtd))
                    .collect(),
            },
            TreePattern::Descendant(inner) => {
                CompiledPattern::Descendant(Box::new(CompiledPattern::new(inner, dtd)))
            }
        }
    }

    /// Does any label test fall outside the DTD's symbol table
    /// ([`CompiledLabelTest::Uninterned`])? Such a pattern can only be
    /// witnessed by a tree that does not conform to the DTD.
    pub fn mentions_undeclared_label(&self) -> bool {
        match self {
            CompiledPattern::Node {
                label, children, ..
            } => {
                matches!(label, CompiledLabelTest::Uninterned(_))
                    || children.iter().any(|c| c.mentions_undeclared_label())
            }
            CompiledPattern::Descendant(inner) => inner.mentions_undeclared_label(),
        }
    }
}

/// Pre-interned labels of a tree, indexed by `NodeId::index()`.
pub struct InternedLabels {
    labels: Vec<Option<Sym>>,
}

impl InternedLabels {
    /// Intern every label of `tree` against `dtd` once.
    pub fn new(tree: &XmlTree, dtd: &CompiledDtd) -> Self {
        InternedLabels {
            labels: dtd.intern_tree(tree),
        }
    }

    /// The interned label per arena slot (used by
    /// [`crate::plan::TreeIndex`] to build candidate buckets without
    /// re-interning).
    pub(crate) fn slots(&self) -> &[Option<Sym>] {
        &self.labels
    }
}

/// All assignments under which some node of `tree` witnesses `pattern`
/// (compiled analogue of [`crate::eval::all_matches`]).
///
/// Runs on the join-ordered planned evaluator ([`crate::plan`]), planning
/// `pattern` per call; the compiled layer in `xdx-core` holds
/// [`crate::plan::PatternPlan`]s and per-tree [`crate::plan::TreeIndex`]es
/// directly so the plan is built once per pattern and the index once per
/// tree.
pub fn all_matches_compiled(
    tree: &XmlTree,
    pattern: &CompiledPattern,
    labels: &InternedLabels,
) -> Vec<Assignment> {
    let plan = crate::plan::PatternPlan::from_compiled(pattern);
    let index = crate::plan::TreeIndex::from_interned(tree, labels);
    plan.all_matches(tree, &index)
}

// Compile-time audit: compiled patterns and interned label tables are shared
// across threads by `xdx-core`'s `CompiledSetting`/`BatchEngine`.
#[allow(dead_code)]
fn assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<CompiledPattern>();
    check::<CompiledLabelTest>();
    check::<InternedLabels>();
    check::<TreePattern>();
}

pub(crate) fn match_bindings(
    tree: &XmlTree,
    node: NodeId,
    bindings: &[AttrBinding],
) -> Option<Assignment> {
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

/// Does `T ⊨ ϕ(σ)` hold, given the pre-computed match relation `ϕ(T)`?
///
/// Compiled analogue of [`crate::eval::holds`], but taking the match set so
/// callers evaluating many assignments against one target tree (e.g.
/// `is_solution`) compute `ϕ(T)` once instead of per assignment.
pub fn holds_in_matches(matches: &[Assignment], assignment: &Assignment) -> bool {
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
    use crate::eval::all_matches_reference;
    use crate::parser::parse_pattern;
    use xdx_xmltree::{Dtd, TreeBuilder, Value};

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

    fn assert_same_matches(pattern_src: &str) {
        let d = dtd();
        let t = tree();
        let p = parse_pattern(pattern_src).unwrap();
        let compiled = CompiledPattern::new(&p, d.compiled());
        let labels = InternedLabels::new(&t, d.compiled());
        let mut reference = all_matches_reference(&t, &p);
        let mut fast = all_matches_compiled(&t, &compiled, &labels);
        reference.sort();
        fast.sort();
        assert_eq!(reference, fast, "pattern {pattern_src}");
    }

    #[test]
    fn compiled_matches_agree_with_reference() {
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
        ] {
            assert_same_matches(src);
        }
    }

    #[test]
    fn unknown_labels_never_match_conforming_trees() {
        let d = dtd();
        let t = tree();
        let p = parse_pattern("journal(@title=$x)").unwrap();
        let compiled = CompiledPattern::new(&p, d.compiled());
        assert!(compiled.mentions_undeclared_label());
        let labels = InternedLabels::new(&t, d.compiled());
        assert!(all_matches_compiled(&t, &compiled, &labels).is_empty());
        assert!(all_matches_reference(&t, &p).is_empty());
    }

    #[test]
    fn unknown_labels_still_match_non_conforming_trees() {
        // Pattern semantics never require T ⊨ D: a pattern label the DTD
        // does not declare must still match a node carrying that label,
        // exactly as the reference evaluator does.
        let d = dtd();
        let mut t = XmlTree::new("db");
        let j = t.add_child(t.root(), "journal");
        t.set_attr(j, "@title", "JACM");
        let p = parse_pattern("journal(@title=$x)").unwrap();
        let compiled = CompiledPattern::new(&p, d.compiled());
        let labels = InternedLabels::new(&t, d.compiled());
        let mut fast = all_matches_compiled(&t, &compiled, &labels);
        let mut reference = all_matches_reference(&t, &p);
        fast.sort();
        reference.sort();
        assert_eq!(fast, reference);
        assert_eq!(fast.len(), 1);
    }

    #[test]
    fn holds_in_matches_agrees_with_eval_holds() {
        use crate::eval::holds;
        use crate::pattern::Var;
        let _d = dtd();
        let t = tree();
        let p = parse_pattern("book(@title=$x)[author(@name=$y)]").unwrap();
        let matches = all_matches_reference(&t, &p);
        let mut sigma = Assignment::new();
        sigma.insert(Var::new("x"), Value::constant("CC"));
        sigma.insert(Var::new("y"), Value::constant("P"));
        assert_eq!(holds(&t, &p, &sigma), holds_in_matches(&matches, &sigma));
        sigma.insert(Var::new("y"), Value::constant("S"));
        assert_eq!(holds(&t, &p, &sigma), holds_in_matches(&matches, &sigma));
    }
}
