//! Template-stamped target instantiation.
//!
//! The canonical pre-solution instantiates every STD's target pattern once
//! per (shared-variable-restricted) source match. The reference path
//! ([`crate::solution::instantiate_target_with`]) rebuilds a
//! `BTreeMap<Var, Value>` of the whole assignment and recurses over the
//! pattern label by label for every match — per-match allocation and
//! pointer-chasing that dominates pre-solution construction once pattern
//! evaluation itself is fast.
//!
//! A [`TargetTemplate`] is built **once per STD** (inside
//! [`crate::compiled::CompiledStd`]): the fully-specified target pattern is
//! flattened into a preorder forest of `(parent slot, label)` pairs plus a
//! flat list of attribute slots classified at build time as
//!
//! * [`AttrSlot::Const`] — a constant fixed by the pattern (the `Value` is
//!   pre-built; stamping clones an `Arc`),
//! * [`AttrSlot::Shared`] — a variable shared with the source pattern
//!   (dense index into the template's shared-variable order; stamping does
//!   one assignment lookup per *variable*, not per binding), or
//! * [`AttrSlot::TargetOnly`] — a target-only variable (dense null slot; one
//!   fresh null per variable per stamp, shared by all its occurrences).
//!
//! Stamping a match then bulk-reserves the arena nodes with
//! [`XmlTree::append_forest`] and fills the slots — no recursion, no
//! per-match `BTreeMap`, no label re-hashing. The reference path is kept
//! verbatim and the two are differential-tested (unit tests below and the
//! randomized `tests/chase_differential.rs` harness).

use std::collections::{BTreeMap, BTreeSet};
use xdx_patterns::eval::Assignment;
use xdx_patterns::{LabelTest, Term, TreePattern, Var};
use xdx_relang::{Multiplicity, NestedFactor};
use xdx_xmltree::{AttrName, Dtd, ElementType, NodeId, NullGen, Value, XmlTree};

/// Where one stamped attribute value comes from (see the module docs).
#[derive(Debug, Clone)]
enum AttrSlot {
    /// A constant fixed by the pattern.
    Const(Value),
    /// A shared variable: index into [`TargetTemplate::shared`].
    Shared(u32),
    /// A target-only variable: index into the per-stamp fresh-null table.
    TargetOnly(u32),
}

/// A fully-specified STD target pattern flattened for stamping; build with
/// [`TargetTemplate::new`], instantiate matches with
/// [`TargetTemplate::stamp`].
#[derive(Debug, Clone)]
pub(crate) struct TargetTemplate {
    /// Preorder forest encoding for [`XmlTree::append_forest`]: the target
    /// pattern is `r[ϕ1, …, ϕk]` and the pre-solution root plays the role
    /// of `r`, so the template holds the `ϕi` subtrees (`u32::MAX` parent =
    /// the pre-solution root).
    nodes: Vec<(u32, ElementType)>,
    /// `(slot, attribute, value source)` triples, grouped by slot.
    attrs: Vec<(u32, AttrName, AttrSlot)>,
    /// Shared variables in dense-index order ([`AttrSlot::Shared`]).
    shared: Vec<Var>,
    /// Number of distinct target-only variables (fresh nulls per stamp).
    num_target_only: u32,
}

impl TargetTemplate {
    /// Flatten `target` against the STD's shared-variable set. Returns
    /// `None` when the pattern uses a wildcard or a descendant step — those
    /// STDs are rejected with `WildcardInTarget` / `NotFullySpecified`
    /// before instantiation ever runs, so every fully-specified,
    /// wildcard-free target has a template.
    pub(crate) fn new(target: &TreePattern, shared_vars: &BTreeSet<Var>) -> Option<TargetTemplate> {
        let TreePattern::Node { attr: _, children } = target else {
            return None; // rooted at a descendant step: not fully specified
        };
        let mut template = TargetTemplate {
            nodes: Vec::new(),
            attrs: Vec::new(),
            shared: Vec::new(),
            num_target_only: 0,
        };
        let mut target_only: Vec<Var> = Vec::new();
        for child in children {
            template.flatten(child, u32::MAX, shared_vars, &mut target_only)?;
        }
        template.num_target_only = target_only.len() as u32;
        Some(template)
    }

    fn flatten(
        &mut self,
        pattern: &TreePattern,
        parent_slot: u32,
        shared_vars: &BTreeSet<Var>,
        target_only: &mut Vec<Var>,
    ) -> Option<()> {
        let TreePattern::Node { attr, children } = pattern else {
            return None;
        };
        let LabelTest::Element(label) = &attr.label else {
            return None;
        };
        let slot = self.nodes.len() as u32;
        self.nodes.push((parent_slot, label.clone()));
        for binding in &attr.bindings {
            let source = match &binding.term {
                Term::Const(c) => AttrSlot::Const(Value::constant(c)),
                Term::Var(v) if shared_vars.contains(v) => {
                    AttrSlot::Shared(dense_index(&mut self.shared, v))
                }
                Term::Var(v) => AttrSlot::TargetOnly(dense_index(target_only, v)),
            };
            self.attrs.push((slot, binding.attr.clone(), source));
        }
        for child in children {
            self.flatten(child, slot, shared_vars, target_only)?;
        }
        Some(())
    }

    /// Stamp one restricted match below `root`, inventing fresh nulls for
    /// the target-only variables. `assignment` must bind every shared
    /// variable of the template (source matches always bind every shared
    /// variable). `shared_scratch` / `null_scratch` are caller-held buffers
    /// so a pre-solution's stamp loop allocates nothing per match.
    pub(crate) fn stamp(
        &self,
        tree: &mut XmlTree,
        root: NodeId,
        assignment: &Assignment,
        nulls: &mut NullGen,
        shared_scratch: &mut Vec<Value>,
        null_scratch: &mut Vec<Value>,
    ) {
        if self.nodes.is_empty() {
            return;
        }
        shared_scratch.clear();
        for var in &self.shared {
            shared_scratch.push(
                assignment
                    .get(var)
                    .expect("every shared template variable is bound by the source match")
                    .clone(),
            );
        }
        null_scratch.clear();
        for _ in 0..self.num_target_only {
            null_scratch.push(nulls.fresh_value());
        }
        let base = tree
            .append_forest(root, &self.nodes)
            .expect("non-empty template forest")
            .index();
        for (slot, name, source) in &self.attrs {
            let value = match source {
                AttrSlot::Const(v) => v.clone(),
                AttrSlot::Shared(i) => shared_scratch[*i as usize].clone(),
                AttrSlot::TargetOnly(i) => null_scratch[*i as usize].clone(),
            };
            tree.set_attr(
                NodeId::from_index(base + *slot as usize),
                name.clone(),
                value,
            );
        }
    }

    /// Is every fragment this template stamps already a fixpoint of the
    /// chase under the nested-relational `dtd`, whatever the match? True
    /// when every label stamped directly below the root is a `*` factor of
    /// `root_factors`, and every stamped node has a declared label, carries
    /// exactly that label's declared attributes, and has child counts its
    /// label's factors allow. The argument is in `crates/core/DESIGN.md`.
    pub(crate) fn stamps_chase_clean(
        &self,
        dtd: &Dtd,
        root_factors: &[NestedFactor<ElementType>],
    ) -> bool {
        // Child-label counts per slot (the root's children under `u32::MAX`).
        let mut children: BTreeMap<u32, BTreeMap<&ElementType, u64>> = BTreeMap::new();
        for (parent, label) in &self.nodes {
            *children
                .entry(*parent)
                .or_default()
                .entry(label)
                .or_default() += 1;
        }
        let root_ok = children.get(&u32::MAX).is_none_or(|counts| {
            counts.keys().all(|&label| {
                root_factors
                    .iter()
                    .any(|f| &f.symbol == label && f.multiplicity == Multiplicity::Star)
            })
        });
        root_ok
            && self.nodes.iter().enumerate().all(|(slot, (_, label))| {
                let slot = slot as u32;
                let stamped: BTreeSet<&AttrName> = self
                    .attrs
                    .iter()
                    .filter(|(s, ..)| *s == slot)
                    .map(|(_, name, _)| name)
                    .collect();
                let Some(factors) = dtd.rule(label).nested_relational_factors() else {
                    return false;
                };
                let empty = BTreeMap::new();
                let counts = children.get(&slot).unwrap_or(&empty);
                dtd.has_element(label)
                    && stamped.into_iter().eq(dtd.attrs_of(label).iter())
                    && counts_fit(&factors, counts)
            })
    }
}

/// Do these fixed child-label counts satisfy a nested-relational rule? No
/// label outside the factors, count 0 only for `?`/`*`, count > 1 only for
/// `+`/`*`.
fn counts_fit(factors: &[NestedFactor<ElementType>], counts: &BTreeMap<&ElementType, u64>) -> bool {
    counts
        .keys()
        .all(|&label| factors.iter().any(|f| &f.symbol == label))
        && factors.iter().all(|f| {
            let count = counts.get(&f.symbol).copied().unwrap_or(0);
            (count > 0 || f.multiplicity.min() == 0) && (count <= 1 || f.multiplicity.unbounded())
        })
}

/// The dense index of `var` in `table`, appending it on first sight. Target
/// patterns bind a handful of variables, so a linear probe beats a map.
fn dense_index(table: &mut Vec<Var>, var: &Var) -> u32 {
    match table.iter().position(|v| v == var) {
        Some(i) => i as u32,
        None => {
            table.push(var.clone());
            (table.len() - 1) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setting::Std;
    use crate::solution::instantiate_target_with;

    /// Stamp and reference-instantiate the same matches; the trees must be
    /// identical (same construction order ⇒ same null ids, ordered-equal).
    fn assert_stamp_matches_reference(std_src: &str, assignments: Vec<Assignment>) {
        let std = Std::parse(std_src).unwrap();
        let shared = std.shared_vars();
        let target_only: Vec<Var> = std.target_only_vars().into_iter().collect();
        let template = TargetTemplate::new(&std.target, &shared).expect("fully-specified target");

        let mut stamped = XmlTree::new("root");
        let mut reference = XmlTree::new("root");
        let mut stamped_nulls = NullGen::new();
        let mut reference_nulls = NullGen::new();
        let (mut shared_scratch, mut null_scratch) = (Vec::new(), Vec::new());
        for assignment in &assignments {
            let root = stamped.root();
            template.stamp(
                &mut stamped,
                root,
                assignment,
                &mut stamped_nulls,
                &mut shared_scratch,
                &mut null_scratch,
            );
            instantiate_target_with(
                &mut reference,
                &std.target,
                &target_only,
                assignment,
                &mut reference_nulls,
            )
            .unwrap();
        }
        stamped.validate().unwrap();
        assert_eq!(
            stamped.ordered_canonical_form(),
            reference.ordered_canonical_form(),
            "template stamp diverged from instantiate_target_with on {std_src}"
        );
    }

    fn assign(pairs: &[(&str, Value)]) -> Assignment {
        pairs
            .iter()
            .map(|(v, value)| (Var::new(v), value.clone()))
            .collect()
    }

    #[test]
    fn stamping_agrees_with_reference_instantiation() {
        assert_stamp_matches_reference(
            "bib[writer(@name=$y)[work(@title=$x, @year=$z)]] :- db[book(@title=$x)[author(@name=$y)]]",
            vec![
                assign(&[("x", Value::constant("CO")), ("y", Value::constant("P"))]),
                assign(&[("x", Value::constant("CC")), ("y", Value::constant("P"))]),
            ],
        );
        // Constants, repeated target-only variables, siblings and depth.
        assert_stamp_matches_reference(
            "r[a(@k=\"fixed\", @v=$x)[b(@m=$z, @n=$z)], c(@v=$x)[d[e(@w=$u)]]] :- s[t(@v=$x)]",
            vec![
                assign(&[("x", Value::constant("1"))]),
                assign(&[("x", Value::constant("2"))]),
            ],
        );
        // No shared variables at all (Boolean source side).
        assert_stamp_matches_reference("r[a(@v=$z)] :- s", vec![assign(&[]), assign(&[])]);
        // Root-only target: nothing to stamp.
        assert_stamp_matches_reference(
            "r :- s[t(@v=$x)]",
            vec![assign(&[("x", Value::constant("1"))])],
        );
    }

    #[test]
    fn wildcard_and_descendant_targets_have_no_template() {
        let std = Std::parse("//writer(@name=$y) :- db[book[author(@name=$y)]]").unwrap();
        assert!(TargetTemplate::new(&std.target, &std.shared_vars()).is_none());
        let std = Std::parse("bib[_(@name=$y)] :- db[author(@name=$y)]").unwrap();
        assert!(TargetTemplate::new(&std.target, &std.shared_vars()).is_none());
    }

    #[test]
    fn shared_and_target_only_slots_are_deduplicated() {
        let std = Std::parse("r[a(@p=$x, @q=$x)[b(@m=$z)], c(@n=$z)] :- s[t(@v=$x)]").unwrap();
        let template = TargetTemplate::new(&std.target, &std.shared_vars()).unwrap();
        assert_eq!(template.shared.len(), 1, "repeated $x shares one slot");
        assert_eq!(template.num_target_only, 1, "repeated $z shares one null");
        // The repeated target-only variable really receives ONE null per
        // stamp (both occurrences equal), fresh across stamps.
        let mut tree = XmlTree::new("root");
        let mut nulls = NullGen::new();
        let (mut s1, mut s2) = (Vec::new(), Vec::new());
        let a = assign(&[("x", Value::constant("1"))]);
        let root = tree.root();
        template.stamp(&mut tree, root, &a, &mut nulls, &mut s1, &mut s2);
        template.stamp(&mut tree, root, &a, &mut nulls, &mut s1, &mut s2);
        let tops = tree.children(tree.root()).to_vec();
        assert_eq!(tops.len(), 4); // a, c (twice)
        let b1 = tree.children(tops[0])[0];
        let z1 = tree.attr(b1, &"@m".into()).unwrap().clone();
        assert_eq!(tree.attr(tops[1], &"@n".into()), Some(&z1));
        let b2 = tree.children(tops[2])[0];
        let z2 = tree.attr(b2, &"@m".into()).unwrap();
        assert_ne!(&z1, z2, "nulls are fresh per stamp");
    }
}
