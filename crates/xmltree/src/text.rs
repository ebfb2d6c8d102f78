//! A compact, lossless text serialization of [`XmlTree`]s.
//!
//! The wire protocol of `xdx-server` ships whole documents (source trees in
//! requests, canonical solutions in responses) as text inside binary frames,
//! so trees need a serialization that
//!
//! * round-trips **exactly** — labels, attribute names, constant values
//!   (arbitrary strings), null identifiers, sibling order;
//! * is safe against adversarial input — the parser is **iterative** (an
//!   explicit parent stack instead of recursion), so a deeply nested
//!   document cannot overflow the stack of the thread decoding it, and
//!   every malformed input is a structured [`TreeTextError`], never a
//!   panic;
//! * stays human-readable for the common case (`db[book(@title="CO")]`).
//!
//! ## Grammar
//!
//! ```text
//! tree     ::= node
//! node     ::= name attrs? children?
//! attrs    ::= '(' binding (',' binding)* ')'
//! binding  ::= name '=' value
//! value    ::= quoted                (constant)
//!            | ('⊥' | '~') DIGITS   (null; the serializer emits '⊥')
//! children ::= '[' node (',' node)* ']'
//! name     ::= IDENT | quoted        (IDENT: [A-Za-z0-9_@.-]+)
//! quoted   ::= '"' ( [^"\\] | '\\' '"' | '\\' '\\' )* '"'
//! ```
//!
//! Whitespace between tokens is ignored when parsing; the serializer emits
//! none. Names that are not plain identifiers (or are empty) are emitted
//! quoted, so *every* tree — whatever its labels contain — round-trips.

use crate::lexer::{Cursor, LexError};
use crate::limits::{MAX_DOCUMENT_BYTES, MAX_DOCUMENT_DEPTH, MAX_DOCUMENT_NODES};
use crate::name::ElementType;
use crate::tree::{NodeId, XmlTree};
use crate::value::{NullId, Value};
use std::fmt;

/// Error raised by [`parse_tree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeTextError {
    /// Byte offset of the error in the input.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for TreeTextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tree text error at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for TreeTextError {}

impl From<LexError> for TreeTextError {
    fn from(e: LexError) -> Self {
        TreeTextError {
            position: e.position,
            message: e.message,
        }
    }
}

/// The identifier alphabet of this grammar (deliberately ASCII-only — the
/// serializer quotes anything else).
fn ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '@' | '.' | '-')
}

/// Is `s` a plain identifier the serializer may emit unquoted?
fn is_ident(s: &str) -> bool {
    !s.is_empty() && s.chars().all(ident_char)
}

fn push_name(out: &mut String, name: &str) {
    if is_ident(name) {
        out.push_str(name);
    } else {
        push_quoted(out, name);
    }
}

fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            _ => out.push(c),
        }
    }
    out.push('"');
}

/// Serialize `tree` to its text form (see the module docs). Iterative — the
/// traversal stack lives on the heap, bounded by the tree depth, so
/// arbitrarily deep documents (e.g. the chase's `d → d? e` chains) cannot
/// overflow the thread stack.
pub fn tree_to_text(tree: &XmlTree) -> String {
    let mut out = String::new();
    // Work items: either "emit this node (as the `index`-th child of its
    // parent's list)" or "close a bracket".
    enum Item {
        Node(NodeId, bool),
        Close,
    }
    let mut stack = vec![Item::Node(tree.root(), true)];
    while let Some(item) = stack.pop() {
        match item {
            Item::Close => out.push(']'),
            Item::Node(node, first) => {
                if !first {
                    out.push(',');
                }
                push_name(&mut out, tree.label(node).as_str());
                let attrs = tree.attrs(node);
                if !attrs.is_empty() {
                    out.push('(');
                    for (i, (name, value)) in attrs.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        push_name(&mut out, name.as_ref());
                        out.push('=');
                        match value {
                            Value::Const(s) => push_quoted(&mut out, s),
                            Value::Null(NullId(id)) => {
                                out.push('⊥');
                                out.push_str(&id.to_string());
                            }
                        }
                    }
                    out.push(')');
                }
                let children = tree.children(node);
                if !children.is_empty() {
                    out.push('[');
                    stack.push(Item::Close);
                    for (i, &c) in children.iter().enumerate().rev() {
                        stack.push(Item::Node(c, i == 0));
                    }
                }
            }
        }
    }
    out
}

/// The grammar layer over the shared [`Cursor`]: tree-text names, values
/// and node headers. Tokenization itself lives in [`crate::lexer`].
struct Parser<'a> {
    cur: Cursor<'a>,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> TreeTextError {
        self.cur.error(message).into()
    }

    /// A name: bare identifier or quoted string (with escapes).
    fn parse_name(&mut self) -> Result<String, TreeTextError> {
        self.cur.skip_ws();
        if self.cur.peek() == Some('"') {
            return Ok(self.cur.quoted_escaped()?);
        }
        Ok(self
            .cur
            .ident(ident_char, "a name (identifier or quoted string)")?
            .to_string())
    }

    fn parse_value(&mut self) -> Result<Value, TreeTextError> {
        self.cur.skip_ws();
        match self.cur.peek() {
            Some('"') => Ok(Value::constant(self.cur.quoted_escaped()?)),
            Some('⊥') | Some('~') => {
                self.cur.bump();
                let digits = self.cur.take_while(|c| c.is_ascii_digit());
                if digits.is_empty() {
                    return Err(self.error("expected digits after the null marker"));
                }
                let id: u64 = digits
                    .parse()
                    .map_err(|_| self.error("null identifier does not fit in u64"))?;
                Ok(Value::Null(NullId(id)))
            }
            _ => Err(self.error("expected a value: \"constant\" or ⊥<id>")),
        }
    }

    /// One node header (name + optional attribute list), attached under
    /// `parent` (or as the root when `parent` is `None`).
    fn parse_node(
        &mut self,
        tree: &mut Option<XmlTree>,
        parent: Option<NodeId>,
    ) -> Result<NodeId, TreeTextError> {
        let name = self.parse_name()?;
        let node = match (tree.as_mut(), parent) {
            (None, _) => {
                *tree = Some(XmlTree::new(ElementType::new(name)));
                tree.as_ref().expect("just set").root()
            }
            (Some(t), Some(p)) => {
                if t.arena_len() >= MAX_DOCUMENT_NODES {
                    return Err(self.error(format!("document exceeds {MAX_DOCUMENT_NODES} nodes")));
                }
                t.add_child(p, ElementType::new(name))
            }
            (Some(_), None) => unreachable!("only the root parses without a parent"),
        };
        if self.cur.eat('(') {
            let t = tree.as_mut().expect("tree exists once a node was made");
            loop {
                let attr = self.parse_name()?;
                self.cur.expect('=')?;
                let value = self.parse_value()?;
                if t.attr(node, &attr.as_str().into()).is_some() {
                    return Err(self.error(format!("duplicate attribute {attr}")));
                }
                t.set_attr(node, attr, value);
                if self.cur.eat(',') {
                    continue;
                }
                self.cur.expect(')')?;
                break;
            }
        }
        Ok(node)
    }
}

/// Parse a tree from its text form. The inverse of [`tree_to_text`]:
/// `parse_tree(&tree_to_text(t))` reconstructs `t` exactly (same labels,
/// attributes, null ids and sibling order). Iterative — nesting depth is
/// bounded only by the input length, never by the thread stack.
pub fn parse_tree(input: &str) -> Result<XmlTree, TreeTextError> {
    if input.len() > MAX_DOCUMENT_BYTES {
        return Err(TreeTextError {
            position: 0,
            message: format!(
                "input of {} bytes exceeds the {MAX_DOCUMENT_BYTES}-byte document cap",
                input.len()
            ),
        });
    }
    let mut p = Parser {
        cur: Cursor::new(input),
    };
    let mut tree: Option<XmlTree> = None;
    // Stack of open `[` scopes: the parent node awaiting further children.
    let mut open: Vec<NodeId> = Vec::new();
    let mut node = p.parse_node(&mut tree, None)?;
    loop {
        if p.cur.eat('[') {
            // The node just parsed opens a child scope; parse its first child.
            if open.len() >= MAX_DOCUMENT_DEPTH {
                return Err(p.error(format!(
                    "document exceeds the nesting-depth cap of {MAX_DOCUMENT_DEPTH}"
                )));
            }
            open.push(node);
            node = p.parse_node(&mut tree, Some(node))?;
            continue;
        }
        // Close as many scopes as the input does, then either continue with
        // a sibling or finish.
        loop {
            if p.cur.eat(',') {
                let Some(&parent) = open.last() else {
                    return Err(p.error("',' outside a child list"));
                };
                node = p.parse_node(&mut tree, Some(parent))?;
                break;
            } else if p.cur.eat(']') {
                // A closed node cannot reopen a child list (`a[b][c]` is not
                // in the grammar), so the scope is simply popped.
                if open.pop().is_none() {
                    return Err(p.error("unmatched ']'"));
                }
                continue;
            } else {
                if !p.cur.at_end() {
                    return Err(p.error("unexpected trailing input"));
                }
                if !open.is_empty() {
                    return Err(p.error("unclosed '['"));
                }
                return Ok(tree.expect("at least the root was parsed"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;
    use crate::value::NullGen;

    /// Exact structural equality (labels, attrs incl. null ids, order).
    fn assert_round_trip(tree: &XmlTree) {
        let text = tree_to_text(tree);
        let back = parse_tree(&text).unwrap_or_else(|e| panic!("{e} in {text:?}"));
        // Preorder sequence + per-node child count pins the exact shape
        // (iteratively — `ordered_canonical_form` would recurse and cannot
        // handle the deep-tree case below); labels and attrs pin the rest,
        // including exact null ids.
        let (a, b): (Vec<_>, Vec<_>) = (tree.preorder().collect(), back.preorder().collect());
        assert_eq!(a.len(), b.len(), "size mismatch for {text:?}");
        for (&x, &y) in a.iter().zip(&b) {
            assert_eq!(tree.children(x).len(), back.children(y).len());
            assert_eq!(tree.label(x), back.label(y));
            assert_eq!(tree.attrs(x), back.attrs(y));
        }
        // And serialization is a fixed point.
        assert_eq!(text, tree_to_text(&back));
    }

    #[test]
    fn round_trips_the_running_example() {
        let tree = TreeBuilder::new("db")
            .child("book", |b| {
                b.attr("@title", "Combinatorial Optimization")
                    .child("author", |a| {
                        a.attr("@name", "Papadimitriou").attr("@aff", "UCB")
                    })
                    .child("author", |a| a.attr("@name", "Steiglitz"))
            })
            .child("book", |b| b.attr("@title", "Computational Complexity"))
            .build();
        assert_round_trip(&tree);
        let text = tree_to_text(&tree);
        assert!(text.starts_with("db[book(@title=\"Combinatorial Optimization\")"));
    }

    #[test]
    fn round_trips_nulls_and_hostile_strings() {
        let mut gen = NullGen::starting_at(41);
        let mut t = XmlTree::new("r");
        let a = t.add_child(t.root(), "a");
        t.set_attr(a, "@x", gen.fresh_value());
        t.set_attr(a, "@y", "quote \" backslash \\ comma , bracket ] ⊥9");
        t.set_attr(a, "@z", "");
        let weird = t.add_child(t.root(), "label with spaces");
        t.set_attr(weird, "odd attr (name)", "v");
        assert_round_trip(&t);
        let text = tree_to_text(&t);
        assert!(text.contains("⊥41"));
        assert!(text.contains("\"label with spaces\""));
    }

    #[test]
    fn deep_trees_do_not_recurse() {
        // Deeper than any default thread stack could handle recursively at
        // ~100 bytes/frame × 200k frames; both directions must be iterative.
        let mut t = XmlTree::new("d");
        let mut n = t.root();
        for _ in 0..200_000 {
            n = t.add_child(n, "d");
        }
        assert_round_trip(&t);
    }

    #[test]
    fn whitespace_and_ascii_null_marker_are_accepted() {
        let t = parse_tree(" r ( @a = \"v\" , @b = ~7 ) [ x , y [ z ] ] ").unwrap();
        assert_eq!(t.size(), 4);
        let r = t.root();
        assert_eq!(t.attr(r, &"@b".into()), Some(&Value::Null(NullId(7))));
        assert_eq!(t.label(t.children(r)[1]).as_str(), "y");
    }

    #[test]
    fn malformed_inputs_are_structured_errors() {
        for bad in [
            "",
            "r[",
            "r]",
            "r[a,]",
            "r[,a]",
            "r(@a)",
            "r(@a=)",
            "r(@a=\"x\"",
            "r(@a=⊥)",
            "r(@a=\"x\") trailing",
            "r[a] trailing",
            "\"unterminated",
            "r(@a=\"bad escape \\n\")",
            "r(@a=\"x\", @a=\"y\")",
            "r()",
            "r[]",
            "r(@a=⊥99999999999999999999999999)",
        ] {
            let err = parse_tree(bad).expect_err(bad);
            assert!(!err.message.is_empty());
            assert!(err.to_string().contains("byte"));
        }
    }

    #[test]
    fn randomized_round_trips() {
        // A deterministic LCG drives random tree construction: shapes,
        // labels (some hostile), attrs (consts, empties, nulls).
        let mut state = 0x9E37_79B9u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for _ in 0..200 {
            let labels = ["a", "b", "weird \"l\"", "@x-1._", "c,d[e]", "⊥", ""];
            let mut t = XmlTree::new(labels[next(7) as usize]);
            let mut nodes = vec![t.root()];
            for _ in 0..next(40) {
                let parent = nodes[next(nodes.len() as u64) as usize];
                let n = t.add_child(parent, labels[next(7) as usize]);
                for _ in 0..next(3) {
                    let name = ["@a", "@b", "odd name", ""][next(4) as usize];
                    if next(3) == 0 {
                        t.set_attr(n, name, Value::Null(NullId(next(1000))));
                    } else {
                        t.set_attr(n, name, format!("v{}\\\"", next(50)));
                    }
                }
                nodes.push(n);
            }
            assert_round_trip(&t);
        }
    }
}
