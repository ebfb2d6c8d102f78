//! Conjunctive tree queries and their unions (Section 5).
//!
//! The query language `CTQ//` is the closure of tree-pattern formulae under
//! conjunction and existential quantification:
//!
//! ```text
//! Q ::= ϕ | Q ∧ Q | ∃x Q
//! ```
//!
//! Disallowing descendant gives `CTQ`; closing under union gives `CTQ∪` and
//! `CTQ//,∪`. A query evaluates to a set of tuples of attribute values (its
//! head), which is what the certain-answer semantics of data exchange needs.

use crate::pattern::{TreePattern, Var};
use crate::plan::{QueryPlan, TreeIndex};
use std::collections::BTreeSet;
use std::fmt;
use xdx_xmltree::{Value, XmlTree};

/// The syntactic class of a query, following the paper's naming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    /// Conjunctive tree queries without descendant (`CTQ`).
    Ctq,
    /// Conjunctive tree queries with descendant (`CTQ//`).
    CtqDescendant,
    /// Unions of conjunctive tree queries without descendant (`CTQ∪`).
    CtqUnion,
    /// Unions of conjunctive tree queries with descendant (`CTQ//,∪`).
    CtqDescendantUnion,
}

impl fmt::Display for QueryClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            QueryClass::Ctq => "CTQ",
            QueryClass::CtqDescendant => "CTQ//",
            QueryClass::CtqUnion => "CTQ∪",
            QueryClass::CtqDescendantUnion => "CTQ//,∪",
        };
        write!(f, "{s}")
    }
}

/// Errors raised when constructing queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A head (output) variable does not occur in any pattern of the body.
    UnboundHeadVariable {
        /// The offending variable.
        var: Var,
    },
    /// The branches of a union have different head arities.
    MismatchedArity {
        /// Arity of the first branch.
        expected: usize,
        /// Arity of the offending branch.
        found: usize,
    },
    /// A union with no branches.
    EmptyUnion,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnboundHeadVariable { var } => {
                write!(f, "head variable {var} does not occur in the query body")
            }
            QueryError::MismatchedArity { expected, found } => {
                write!(
                    f,
                    "union branches have different arities: {expected} vs {found}"
                )
            }
            QueryError::EmptyUnion => write!(f, "a union query must have at least one branch"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A conjunctive tree query: a conjunction of tree patterns with a tuple of
/// output (free) variables; all other variables are existentially
/// quantified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConjunctiveTreeQuery {
    head: Vec<Var>,
    patterns: Vec<TreePattern>,
}

impl ConjunctiveTreeQuery {
    /// Build a query with the given head variables and body patterns.
    pub fn new<V: Into<Var>>(
        head: impl IntoIterator<Item = V>,
        patterns: Vec<TreePattern>,
    ) -> Result<Self, QueryError> {
        let head: Vec<Var> = head.into_iter().map(Into::into).collect();
        let mut body_vars: BTreeSet<Var> = BTreeSet::new();
        for p in &patterns {
            body_vars.extend(p.free_vars());
        }
        for v in &head {
            if !body_vars.contains(v) {
                return Err(QueryError::UnboundHeadVariable { var: v.clone() });
            }
        }
        Ok(ConjunctiveTreeQuery { head, patterns })
    }

    /// A Boolean query (empty head).
    pub fn boolean(patterns: Vec<TreePattern>) -> Self {
        ConjunctiveTreeQuery {
            head: Vec::new(),
            patterns,
        }
    }

    /// The head (output) variables.
    pub fn head(&self) -> &[Var] {
        &self.head
    }

    /// The body patterns.
    pub fn patterns(&self) -> &[TreePattern] {
        &self.patterns
    }

    /// Is this a Boolean query?
    pub fn is_boolean(&self) -> bool {
        self.head.is_empty()
    }

    /// Number of output columns.
    pub fn arity(&self) -> usize {
        self.head.len()
    }

    /// Does the query use the descendant axis?
    pub fn uses_descendant(&self) -> bool {
        self.patterns.iter().any(|p| p.uses_descendant())
    }

    /// Does the query use the wildcard?
    pub fn uses_wildcard(&self) -> bool {
        self.patterns.iter().any(|p| p.uses_wildcard())
    }

    /// The syntactic class of the query (`CTQ` or `CTQ//`).
    pub fn class(&self) -> QueryClass {
        if self.uses_descendant() {
            QueryClass::CtqDescendant
        } else {
            QueryClass::Ctq
        }
    }

    /// A size measure (total pattern size plus head arity).
    pub fn size(&self) -> usize {
        self.head.len() + self.patterns.iter().map(|p| p.size()).sum::<usize>()
    }

    /// Evaluate the query over a tree, returning the set of head tuples.
    ///
    /// For a Boolean query the result is either `{()}` (true: one empty
    /// tuple) or `{}` (false). Runs on the DTD-less planned evaluator
    /// ([`crate::plan::QueryPlan`]), planning per call.
    pub fn evaluate(&self, tree: &XmlTree) -> BTreeSet<Vec<Value>> {
        QueryPlan::build(std::slice::from_ref(self), None)
            .evaluate(tree, &TreeIndex::without_dtd(tree))
    }

    /// Evaluate a Boolean query.
    pub fn evaluate_boolean(&self, tree: &XmlTree) -> bool {
        !self.evaluate(tree).is_empty()
    }
}

impl fmt::Display for ConjunctiveTreeQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let head: Vec<String> = self.head.iter().map(|v| v.to_string()).collect();
        let body: Vec<String> = self.patterns.iter().map(|p| p.to_string()).collect();
        write!(f, "({}) :- {}", head.join(", "), body.join(" ∧ "))
    }
}

/// A union of conjunctive tree queries (all branches with the same arity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnionQuery {
    branches: Vec<ConjunctiveTreeQuery>,
}

impl UnionQuery {
    /// Build a union query; all branches must have the same arity.
    pub fn new(branches: Vec<ConjunctiveTreeQuery>) -> Result<Self, QueryError> {
        let Some(first) = branches.first() else {
            return Err(QueryError::EmptyUnion);
        };
        let expected = first.arity();
        for b in &branches {
            if b.arity() != expected {
                return Err(QueryError::MismatchedArity {
                    expected,
                    found: b.arity(),
                });
            }
        }
        Ok(UnionQuery { branches })
    }

    /// A union with a single branch.
    pub fn single(q: ConjunctiveTreeQuery) -> Self {
        UnionQuery { branches: vec![q] }
    }

    /// The branches of the union.
    pub fn branches(&self) -> &[ConjunctiveTreeQuery] {
        &self.branches
    }

    /// Number of output columns.
    pub fn arity(&self) -> usize {
        self.branches.first().map(|b| b.arity()).unwrap_or(0)
    }

    /// Is this a Boolean query?
    pub fn is_boolean(&self) -> bool {
        self.arity() == 0
    }

    /// Does any branch use the descendant axis?
    pub fn uses_descendant(&self) -> bool {
        self.branches.iter().any(|b| b.uses_descendant())
    }

    /// The syntactic class of the query.
    pub fn class(&self) -> QueryClass {
        match (self.branches.len() > 1, self.uses_descendant()) {
            (false, false) => QueryClass::Ctq,
            (false, true) => QueryClass::CtqDescendant,
            (true, false) => QueryClass::CtqUnion,
            (true, true) => QueryClass::CtqDescendantUnion,
        }
    }

    /// Evaluate the union over a tree (on the DTD-less planned evaluator,
    /// planning per call; hold a [`QueryPlan`] to plan once).
    pub fn evaluate(&self, tree: &XmlTree) -> BTreeSet<Vec<Value>> {
        QueryPlan::without_dtd(self).evaluate(tree, &TreeIndex::without_dtd(tree))
    }

    /// Evaluate a Boolean union query.
    pub fn evaluate_boolean(&self, tree: &XmlTree) -> bool {
        QueryPlan::without_dtd(self).evaluate_boolean(tree, &TreeIndex::without_dtd(tree))
    }

    /// A size measure.
    pub fn size(&self) -> usize {
        self.branches.iter().map(|b| b.size()).sum()
    }
}

impl fmt::Display for UnionQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.branches.iter().map(|b| b.to_string()).collect();
        write!(f, "{}", parts.join(" ∪ "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_pattern;
    use xdx_xmltree::TreeBuilder;

    fn figure2_tree() -> XmlTree {
        use xdx_xmltree::{NullGen, XmlTree};
        // The target document of Figure 2(b), with ⊥1 shared between the two
        // "Combinatorial Optimization" works and ⊥2 on the other one.
        let mut gen = NullGen::new();
        let n1 = gen.fresh_value();
        let n2 = gen.fresh_value();
        let mut t = XmlTree::new("bib");
        let w1 = t.add_child(t.root(), "writer");
        t.set_attr(w1, "@name", "Papadimitriou");
        let k1 = t.add_child(w1, "work");
        t.set_attr(k1, "@title", "Combinatorial Optimization");
        t.set_attr(k1, "@year", n1.clone());
        let k2 = t.add_child(w1, "work");
        t.set_attr(k2, "@title", "Computational Complexity");
        t.set_attr(k2, "@year", n2);
        let w2 = t.add_child(t.root(), "writer");
        t.set_attr(w2, "@name", "Steiglitz");
        let k3 = t.add_child(w2, "work");
        t.set_attr(k3, "@title", "Combinatorial Optimization");
        t.set_attr(k3, "@year", n1);
        t
    }

    #[test]
    fn who_wrote_computational_complexity() {
        // The introduction's query: who is the writer of the work named
        // "Computational Complexity"?
        let t = figure2_tree();
        let q = ConjunctiveTreeQuery::new(
            ["w"],
            vec![
                parse_pattern("writer(@name=$w)[work(@title=\"Computational Complexity\")]")
                    .unwrap(),
            ],
        )
        .unwrap();
        let result = q.evaluate(&t);
        assert_eq!(result.len(), 1);
        assert_eq!(
            result.iter().next().unwrap()[0],
            Value::constant("Papadimitriou")
        );
    }

    #[test]
    fn works_written_in_a_year_returns_nulls() {
        // "What are the works written in 1994?" cannot be answered with
        // certainty; over this particular tree the year attributes are nulls,
        // so selecting a constant year returns nothing.
        let t = figure2_tree();
        let q = ConjunctiveTreeQuery::new(
            ["t"],
            vec![parse_pattern("work(@title=$t, @year=\"1994\")").unwrap()],
        )
        .unwrap();
        assert!(q.evaluate(&t).is_empty());
        // projecting the year returns null values (to be filtered by the
        // certain-answer layer)
        let q2 = ConjunctiveTreeQuery::new(["y"], vec![parse_pattern("work(@year=$y)").unwrap()])
            .unwrap();
        let years = q2.evaluate(&t);
        assert_eq!(years.len(), 2);
        assert!(years.iter().all(|row| row[0].is_null()));
    }

    #[test]
    fn conjunction_joins_on_shared_variables() {
        // Writers x and y of a common work title z.
        let t = figure2_tree();
        let q = ConjunctiveTreeQuery::new(
            ["x", "y"],
            vec![
                parse_pattern("writer(@name=$x)[work(@title=$z)]").unwrap(),
                parse_pattern("writer(@name=$y)[work(@title=$z)]").unwrap(),
            ],
        )
        .unwrap();
        let result = q.evaluate(&t);
        // Pairs sharing a title: (P,P) via both titles, (S,S), (P,S), (S,P).
        assert_eq!(result.len(), 4);
        assert!(result.contains(&vec![
            Value::constant("Papadimitriou"),
            Value::constant("Steiglitz")
        ]));
    }

    #[test]
    fn boolean_queries() {
        let t = figure2_tree();
        let yes =
            ConjunctiveTreeQuery::boolean(vec![
                parse_pattern("bib[writer(@name=\"Steiglitz\")]").unwrap()
            ]);
        assert!(yes.evaluate_boolean(&t));
        assert_eq!(yes.evaluate(&t).len(), 1); // one empty tuple
        let no = ConjunctiveTreeQuery::boolean(vec![
            parse_pattern("bib[writer(@name=\"Knuth\")]").unwrap()
        ]);
        assert!(!no.evaluate_boolean(&t));
        assert!(yes.is_boolean() && no.is_boolean());
    }

    #[test]
    fn union_queries_union_results_and_check_arity() {
        let t = figure2_tree();
        let q1 = ConjunctiveTreeQuery::new(
            ["n"],
            vec![
                parse_pattern("writer(@name=$n)[work(@title=\"Computational Complexity\")]")
                    .unwrap(),
            ],
        )
        .unwrap();
        let q2 = ConjunctiveTreeQuery::new(
            ["n"],
            vec![
                parse_pattern("writer(@name=$n)[work(@title=\"Combinatorial Optimization\")]")
                    .unwrap(),
            ],
        )
        .unwrap();
        let u = UnionQuery::new(vec![q1.clone(), q2]).unwrap();
        assert_eq!(u.evaluate(&t).len(), 2);
        assert_eq!(u.class(), QueryClass::CtqUnion);

        let bad = UnionQuery::new(vec![
            q1,
            ConjunctiveTreeQuery::boolean(vec![parse_pattern("bib").unwrap()]),
        ]);
        assert!(matches!(bad, Err(QueryError::MismatchedArity { .. })));
        assert!(matches!(
            UnionQuery::new(vec![]),
            Err(QueryError::EmptyUnion)
        ));
    }

    #[test]
    fn query_classes() {
        let ctq =
            ConjunctiveTreeQuery::new(["x"], vec![parse_pattern("writer(@name=$x)").unwrap()])
                .unwrap();
        assert_eq!(ctq.class(), QueryClass::Ctq);
        let ctq_desc =
            ConjunctiveTreeQuery::new(["x"], vec![parse_pattern("//work(@title=$x)").unwrap()])
                .unwrap();
        assert_eq!(ctq_desc.class(), QueryClass::CtqDescendant);
        let u = UnionQuery::new(vec![ctq.clone(), ctq_desc]).unwrap();
        assert_eq!(u.class(), QueryClass::CtqDescendantUnion);
        assert_eq!(UnionQuery::single(ctq).class(), QueryClass::Ctq);
    }

    #[test]
    fn unbound_head_variable_is_rejected() {
        let err =
            ConjunctiveTreeQuery::new(["ghost"], vec![parse_pattern("writer(@name=$x)").unwrap()])
                .unwrap_err();
        assert!(matches!(err, QueryError::UnboundHeadVariable { .. }));
    }

    #[test]
    fn evaluation_over_empty_and_tiny_trees() {
        let t = TreeBuilder::new("bib").build();
        let q = ConjunctiveTreeQuery::new(["x"], vec![parse_pattern("writer(@name=$x)").unwrap()])
            .unwrap();
        assert!(q.evaluate(&t).is_empty());
        let b = ConjunctiveTreeQuery::boolean(vec![parse_pattern("bib").unwrap()]);
        assert!(b.evaluate_boolean(&t));
    }

    #[test]
    fn display_shows_rule_like_syntax() {
        let q = ConjunctiveTreeQuery::new(["x"], vec![parse_pattern("writer(@name=$x)").unwrap()])
            .unwrap();
        let s = q.to_string();
        assert!(s.contains(":-"));
        assert!(s.contains("$x"));
    }
}
