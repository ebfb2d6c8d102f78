//! Bitset-based NFA simulation — the compiled fast path.
//!
//! The reference automaton code in [`crate::nfa`] manipulates
//! `BTreeSet<StateId>` state sets and `BTreeMap`-keyed transition tables;
//! that is the clearest possible transcription of the subset construction,
//! but every conformance check, chase step and ordering query pays tree
//! allocations and pointer chasing per symbol. This module compiles an
//! [`Nfa`] once into dense bit-parallel form:
//!
//! * state sets are [`StateMask`]s — `u64` blocks, one bit per state;
//! * ε-closures are precomputed per state ([`BitsetNfa::state_closure`]);
//! * for every `(symbol, state)` pair the *ε-closed* successor set is
//!   precomputed, so simulating one input symbol is a handful of `OR`s;
//! * permutation-language membership (`π(r)`, Proposition 5.3) runs the same
//!   memoised counting search as [`crate::parikh::perm_accepts`] but keyed on
//!   bit masks instead of `BTreeSet`s.
//!
//! The semantics are differential-tested against the reference
//! implementation; see the tests below and `tests/properties.rs` at the
//! workspace root.

use crate::nfa::{Dfa, Nfa, StateId};
use crate::Alphabet;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A set of NFA states as a fixed-width bit mask (`u64` blocks).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateMask {
    blocks: Vec<u64>,
}

impl StateMask {
    /// The empty set over `num_states` states.
    pub fn empty(num_states: usize) -> Self {
        StateMask {
            blocks: vec![0; num_states.div_ceil(64)],
        }
    }

    /// Insert state `q`.
    pub fn insert(&mut self, q: StateId) {
        self.blocks[q / 64] |= 1u64 << (q % 64);
    }

    /// Is state `q` in the set?
    pub fn contains(&self, q: StateId) -> bool {
        self.blocks[q / 64] & (1u64 << (q % 64)) != 0
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// `self |= other`.
    pub fn union_with(&mut self, other: &StateMask) {
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// Do the two sets share a state?
    pub fn intersects(&self, other: &StateMask) -> bool {
        self.blocks
            .iter()
            .zip(&other.blocks)
            .any(|(a, b)| a & b != 0)
    }

    /// Clear all bits (reuse the allocation).
    pub fn clear(&mut self) {
        for b in &mut self.blocks {
            *b = 0;
        }
    }

    /// Iterate over the states in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = StateId> + '_ {
        self.blocks.iter().enumerate().flat_map(|(i, &block)| {
            let mut b = block;
            std::iter::from_fn(move || {
                if b == 0 {
                    return None;
                }
                let bit = b.trailing_zeros() as usize;
                b &= b - 1;
                Some(i * 64 + bit)
            })
        })
    }

    /// Convert to the reference representation.
    pub fn to_btree(&self) -> BTreeSet<StateId> {
        self.iter().collect()
    }

    /// The mask's only block, when the state space fits in 64 bits.
    #[inline]
    fn single_block(&self) -> Option<u64> {
        match self.blocks.as_slice() {
            [b] => Some(*b),
            _ => None,
        }
    }

    /// Build from the reference representation.
    pub fn from_btree(num_states: usize, set: &BTreeSet<StateId>) -> Self {
        let mut m = StateMask::empty(num_states);
        for &q in set {
            m.insert(q);
        }
        m
    }
}

/// Alphabet width up to which permutation-memo keys use the packed
/// encoding: counts at 16 bits each fill two `u64`s at 8 symbols.
const PACKED_SYMS: usize = 8;
/// Bits per count in a packed key.
const PACKED_BITS: u32 = 16;
const PACKED_PER_WORD: usize = (u64::BITS / PACKED_BITS) as usize;

/// A memoisation key of the permutation-language search. Small automata
/// (≤ 64 states, ≤ [`PACKED_SYMS`] alphabet symbols) with small counts
/// (< 2¹⁶ each) pack the whole subproblem into three machine words; only
/// automata or counts outside that envelope pay for a mask clone and a
/// heap-allocated count vector per memo entry.
///
/// The choice of variant is deterministic per logical key (the envelope test
/// depends only on the automaton — fixed per memo — and on the count values
/// themselves), and within a variant the encoding is injective, so mixing
/// packed and spilled keys in one table is sound.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum MemoKey {
    Packed { mask: u64, counts: [u64; 2] },
    Spilled(StateMask, Vec<u64>),
}

/// Memo table for [`BitsetNfa::perm_accepts_counts_memo`] with the small-key
/// packed encoding. Obtain one from [`BitsetNfa::perm_memo`]; it is tied to
/// that automaton (keys are masks over its states and vectors over its
/// alphabet) and must not be shared across automata. Unlike the previous
/// `HashMap<(StateMask, Vec<u64>), bool>` table this owns no borrowed state,
/// so callers keep one per rule (or per call) and the compiled layer stays
/// `Send + Sync`.
#[derive(Debug, Clone, Default)]
pub struct PermMemo {
    packable: bool,
    map: HashMap<MemoKey, bool>,
}

impl PermMemo {
    fn key(&self, mask: &StateMask, counts: &[u64]) -> MemoKey {
        if self.packable {
            if let Some(block) = mask.single_block() {
                if counts.iter().all(|&c| c < 1 << PACKED_BITS) {
                    let mut packed = [0u64; 2];
                    for (i, &c) in counts.iter().enumerate() {
                        packed[i / PACKED_PER_WORD] |=
                            c << ((i % PACKED_PER_WORD) as u32 * PACKED_BITS);
                    }
                    return MemoKey::Packed {
                        mask: block,
                        counts: packed,
                    };
                }
            }
        }
        MemoKey::Spilled(mask.clone(), counts.to_vec())
    }

    /// Number of memoised subproblems.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing has been memoised yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drop every memoised entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

/// An [`Nfa`] compiled into bit-parallel form (see the module docs).
#[derive(Debug, Clone)]
pub struct BitsetNfa<S> {
    num_states: usize,
    /// Sorted alphabet; symbols are addressed by index.
    alphabet: Vec<S>,
    /// ε-closure of the start state.
    start_closure: StateMask,
    /// Accepting states.
    accepting: StateMask,
    /// Per state, its labelled transitions as `(alphabet index, ε-closure
    /// of δ(q, a))` pairs sorted by index. Sparse on purpose: a Thompson
    /// state carries at most one labelled transition, so storing a mask per
    /// `(symbol, state)` pair would cost `O(alphabet × states²)` bits on
    /// wide content models.
    trans: Vec<Vec<(u32, StateMask)>>,
    /// `state_closure[q]`: ε-closure of `{q}` (used by `matches_from`).
    state_closure: Vec<StateMask>,
}

impl<S: Alphabet> BitsetNfa<S> {
    /// Compile `nfa` (one-off cost linear in states × alphabet × closure
    /// size; every later query is bit-parallel).
    pub fn from_nfa(nfa: &Nfa<S>) -> Self {
        let n = nfa.num_states();
        let alphabet: Vec<S> = nfa.alphabet().to_vec();
        let state_closure: Vec<StateMask> = (0..n)
            .map(|q| {
                let closure = nfa.eps_closure(&[q].into_iter().collect());
                StateMask::from_btree(n, &closure)
            })
            .collect();
        let trans: Vec<Vec<(u32, StateMask)>> = (0..n)
            .map(|q| {
                let singleton: BTreeSet<StateId> = [q].into_iter().collect();
                let mut out = Vec::new();
                for (idx, sym) in alphabet.iter().enumerate() {
                    let nexts = nfa.step(&singleton, sym);
                    if nexts.is_empty() {
                        continue;
                    }
                    let mut mask = StateMask::empty(n);
                    for nxt in nexts {
                        mask.union_with(&state_closure[nxt]);
                    }
                    out.push((idx as u32, mask));
                }
                out
            })
            .collect();
        let accepting = StateMask::from_btree(n, nfa.accepting());
        let start_closure = state_closure[nfa.start()].clone();
        BitsetNfa {
            num_states: n,
            alphabet,
            start_closure,
            accepting,
            trans,
            state_closure,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// The sorted alphabet.
    pub fn alphabet(&self) -> &[S] {
        &self.alphabet
    }

    /// Index of `sym` in the alphabet, if present.
    pub fn sym_index(&self, sym: &S) -> Option<usize> {
        self.alphabet.binary_search(sym).ok()
    }

    /// ε-closure of the initial state.
    pub fn start_mask(&self) -> &StateMask {
        &self.start_closure
    }

    /// ε-closure of a single state.
    pub fn state_closure(&self, q: StateId) -> &StateMask {
        &self.state_closure[q]
    }

    /// Does the (ε-closed) set contain an accepting state?
    pub fn accepts(&self, mask: &StateMask) -> bool {
        mask.intersects(&self.accepting)
    }

    /// One ε-closed step: all states reachable from `mask` by reading the
    /// symbol with alphabet index `sym_idx`.
    pub fn step_mask(&self, mask: &StateMask, sym_idx: usize) -> StateMask {
        let mut out = StateMask::empty(self.num_states);
        self.step_mask_into(mask, sym_idx, &mut out);
        out
    }

    /// As [`Self::step_mask`], writing into `out` (cleared first) to avoid
    /// allocation in simulation loops.
    pub fn step_mask_into(&self, mask: &StateMask, sym_idx: usize, out: &mut StateMask) {
        out.clear();
        let sym_idx = sym_idx as u32;
        for q in mask.iter() {
            let row = &self.trans[q];
            if let Ok(j) = row.binary_search_by_key(&sym_idx, |&(i, _)| i) {
                out.union_with(&row[j].1);
            }
        }
    }

    /// Does the automaton accept `word` from the initial state?
    pub fn matches(&self, word: &[S]) -> bool {
        self.matches_mask(self.start_closure.clone(), word)
    }

    /// Does the automaton accept `word` started in state `q` (the language
    /// `r_q` of Proposition 5.2)?
    pub fn matches_from(&self, q: StateId, word: &[S]) -> bool {
        self.matches_mask(self.state_closure[q].clone(), word)
    }

    fn matches_mask(&self, mut current: StateMask, word: &[S]) -> bool {
        let mut next = StateMask::empty(self.num_states);
        for sym in word {
            let Some(idx) = self.sym_index(sym) else {
                return false;
            };
            if current.is_empty() {
                return false;
            }
            self.step_mask_into(&current, idx, &mut next);
            std::mem::swap(&mut current, &mut next);
        }
        self.accepts(&current)
    }

    /// Membership of a count vector in the permutation language `π(r)`
    /// starting from the initial state (bitset analogue of
    /// [`crate::parikh::perm_accepts`]).
    pub fn perm_accepts(&self, counts: &BTreeMap<S, u64>) -> bool {
        self.perm_accepts_mask(&self.start_closure.clone(), counts)
    }

    /// Membership of a count vector in `π(r)` starting from an arbitrary
    /// ε-closed state set.
    pub fn perm_accepts_mask(&self, start: &StateMask, counts: &BTreeMap<S, u64>) -> bool {
        // Counts on symbols outside the alphabet can never be consumed.
        let mut vec_counts = vec![0u64; self.alphabet.len()];
        for (sym, &c) in counts {
            if c == 0 {
                continue;
            }
            match self.sym_index(sym) {
                Some(i) => vec_counts[i] = c,
                None => return false,
            }
        }
        let mut memo = self.perm_memo();
        self.perm_search(start, &mut vec_counts, &mut memo)
    }

    /// A fresh memo table for this automaton's permutation search, with the
    /// small-key encoding enabled whenever the automaton qualifies (see
    /// [`PermMemo`]). A memo must only ever be used with the automaton that
    /// created it.
    pub fn perm_memo(&self) -> PermMemo {
        PermMemo {
            packable: self.num_states <= 64 && self.alphabet.len() <= PACKED_SYMS,
            map: HashMap::new(),
        }
    }

    /// Memo-reusing variant of [`Self::perm_accepts_mask`]: `counts` is a
    /// vector indexed by this automaton's alphabet (see [`Self::sym_index`])
    /// and `memo` can be shared across calls with *different* masks/counts —
    /// the sibling-ordering algorithm issues O(children²) membership queries
    /// whose subproblems overlap heavily.
    ///
    /// `counts` is restored to its input value before returning.
    pub fn perm_accepts_counts_memo(
        &self,
        mask: &StateMask,
        counts: &mut Vec<u64>,
        memo: &mut PermMemo,
    ) -> bool {
        debug_assert_eq!(counts.len(), self.alphabet.len());
        self.perm_search(mask, counts, memo)
    }

    fn perm_search(&self, mask: &StateMask, counts: &mut Vec<u64>, memo: &mut PermMemo) -> bool {
        if counts.iter().all(|&c| c == 0) {
            return self.accepts(mask);
        }
        let key = memo.key(mask, counts);
        if let Some(&cached) = memo.map.get(&key) {
            return cached;
        }
        let mut found = false;
        for i in 0..counts.len() {
            if counts[i] == 0 {
                continue;
            }
            let next = self.step_mask(mask, i);
            if next.is_empty() {
                continue;
            }
            counts[i] -= 1;
            let ok = self.perm_search(&next, counts, memo);
            counts[i] += 1;
            if ok {
                found = true;
                break;
            }
        }
        memo.map.insert(key, found);
        found
    }

    /// Subset construction over bit masks with hashed keys; produces the same
    /// dense [`Dfa`] as [`Dfa::from_nfa`].
    pub fn to_dfa(&self) -> Dfa<S> {
        self.to_dfa_capped(usize::MAX)
            .expect("uncapped subset construction cannot bail")
    }

    /// As [`Self::to_dfa`], but gives up (returning `None`) as soon as the
    /// DFA's transition table would exceed `max_cells` entries
    /// (`states × alphabet`). Subset construction is worst-case exponential
    /// in NFA states — e.g. `(a|b)* a (a|b)^n` determinizes to ~2^n states —
    /// so compile-once callers bound the *output*, not the input, and fall
    /// back to NFA simulation when the bound trips.
    pub fn to_dfa_capped(&self, max_cells: usize) -> Option<Dfa<S>> {
        let alphabet = self.alphabet.clone();
        let width = alphabet.len().max(1);
        let mut index: HashMap<StateMask, usize> = HashMap::new();
        let mut sets: Vec<StateMask> = Vec::new();
        let mut table: Vec<Vec<usize>> = Vec::new();
        index.insert(self.start_closure.clone(), 0);
        sets.push(self.start_closure.clone());
        let mut i = 0;
        while i < sets.len() {
            if sets.len().saturating_mul(width) > max_cells {
                return None;
            }
            let current = sets[i].clone();
            let mut row = Vec::with_capacity(alphabet.len());
            for sym_idx in 0..alphabet.len() {
                let next = self.step_mask(&current, sym_idx);
                let id = match index.get(&next) {
                    Some(&id) => id,
                    None => {
                        let id = sets.len();
                        index.insert(next.clone(), id);
                        sets.push(next);
                        id
                    }
                };
                row.push(id);
            }
            table.push(row);
            i += 1;
        }
        if sets.len().saturating_mul(width) > max_cells {
            return None;
        }
        let accepting = sets.iter().map(|s| self.accepts(s)).collect();
        Some(Dfa::from_parts(table, alphabet, 0, accepting))
    }
}

// Compile-time audit: the bit-parallel layer is shareable across threads
// (no interior mutability anywhere). `xdx-core`'s `BatchEngine` relies on it.
#[allow(dead_code)]
fn assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<StateMask>();
    check::<PermMemo>();
    check::<BitsetNfa<String>>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parikh::{perm_accepts, perm_accepts_from};
    use crate::parser::parse;
    use crate::Regex;

    fn nfa(src: &str) -> Nfa<String> {
        Nfa::from_regex(&parse(src).unwrap())
    }

    fn w(src: &str) -> Vec<String> {
        src.split_whitespace().map(|s| s.to_string()).collect()
    }

    fn all_words(alphabet: &[String], max_len: usize) -> Vec<Vec<String>> {
        let mut all: Vec<Vec<String>> = vec![vec![]];
        let mut layer: Vec<Vec<String>> = vec![vec![]];
        for _ in 0..max_len {
            let mut next = Vec::new();
            for word in &layer {
                for s in alphabet {
                    let mut nw = word.clone();
                    nw.push(s.clone());
                    next.push(nw);
                }
            }
            all.extend(next.iter().cloned());
            layer = next;
        }
        all
    }

    #[test]
    fn mask_basics() {
        let mut m = StateMask::empty(130);
        assert!(m.is_empty());
        m.insert(0);
        m.insert(63);
        m.insert(64);
        m.insert(129);
        assert!(m.contains(129) && m.contains(64) && !m.contains(1));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
        let round = StateMask::from_btree(130, &m.to_btree());
        assert_eq!(m, round);
    }

    #[test]
    fn bitset_matches_agrees_with_reference() {
        for src in [
            "(a|b)* c",
            "b c+ d* e?",
            "(b c)* (d e)*",
            "a|a a b*",
            "eps",
            "(a b)|(a c)",
        ] {
            let reference = nfa(src);
            let fast = BitsetNfa::from_nfa(&reference);
            let alphabet: Vec<String> = reference.alphabet().to_vec();
            for word in all_words(&alphabet, 4) {
                assert_eq!(
                    reference.matches(&word),
                    fast.matches(&word),
                    "{src} on {word:?}"
                );
            }
        }
    }

    #[test]
    fn bitset_matches_from_agrees_with_reference() {
        let reference = nfa("a b c*");
        let fast = BitsetNfa::from_nfa(&reference);
        for q in 0..reference.num_states() {
            for word in [w("b c"), w("a b"), w("c c"), w("")] {
                assert_eq!(
                    reference.matches_from(q, &word),
                    fast.matches_from(q, &word),
                    "state {q} on {word:?}"
                );
            }
        }
    }

    #[test]
    fn bitset_perm_accepts_agrees_with_reference() {
        for src in ["(a b)* (c d)*", "a b* c?", "(a b c)*", "a | a a b*"] {
            let reference = nfa(src);
            let fast = BitsetNfa::from_nfa(&reference);
            for ca in 0u64..3 {
                for cb in 0u64..3 {
                    for cc in 0u64..3 {
                        let counts: BTreeMap<String, u64> =
                            [("a".into(), ca), ("b".into(), cb), ("c".into(), cc)]
                                .into_iter()
                                .filter(|&(_, c)| c > 0)
                                .collect();
                        assert_eq!(
                            perm_accepts(&reference, &counts),
                            fast.perm_accepts(&counts),
                            "{src} on {counts:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bitset_perm_accepts_from_intermediate_states() {
        let reference = nfa("(a b)* (c d)*");
        let fast = BitsetNfa::from_nfa(&reference);
        let counts: BTreeMap<String, u64> = [
            ("b".to_string(), 1u64),
            ("c".to_string(), 1),
            ("d".to_string(), 1),
        ]
        .into_iter()
        .collect();
        for q in 0..reference.num_states() {
            assert_eq!(
                perm_accepts_from(&reference, q, &counts),
                fast.perm_accepts_mask(fast.state_closure(q), &counts),
                "state {q}"
            );
        }
    }

    #[test]
    fn bitset_to_dfa_agrees_with_reference_construction() {
        for src in ["(a|b)* c", "b c+ d* e?", "(b c)* (d e)*", "a|a a b*"] {
            let reference = nfa(src);
            let fast = BitsetNfa::from_nfa(&reference);
            let dfa_ref = Dfa::from_nfa_reference(&reference);
            let dfa_fast = fast.to_dfa();
            let alphabet: Vec<String> = reference.alphabet().to_vec();
            for word in all_words(&alphabet, 4) {
                assert_eq!(
                    dfa_ref.matches(&word),
                    dfa_fast.matches(&word),
                    "{src} on {word:?}"
                );
            }
        }
    }

    #[test]
    fn counts_outside_the_alphabet_are_rejected() {
        let fast = BitsetNfa::from_nfa(&nfa("a*"));
        let counts: BTreeMap<String, u64> = [("z".to_string(), 1u64)].into_iter().collect();
        assert!(!fast.perm_accepts(&counts));
        let empty: BTreeMap<String, u64> = BTreeMap::new();
        assert!(fast.perm_accepts(&empty));
    }

    #[test]
    fn packed_memo_keys_agree_with_reference() {
        // ≤ 64 states, 4-symbol alphabet: every key of this search packs.
        let reference = nfa("(a b)* (c d)*");
        let fast = BitsetNfa::from_nfa(&reference);
        let mut memo = fast.perm_memo();
        let idx = |s: &str| fast.sym_index(&s.to_string()).unwrap();
        for ca in 0u64..4 {
            for cb in 0u64..4 {
                let mut counts = vec![0u64; fast.alphabet().len()];
                counts[idx("a")] = ca;
                counts[idx("b")] = cb;
                counts[idx("c")] = 1;
                counts[idx("d")] = 1;
                let shared =
                    fast.perm_accepts_counts_memo(fast.start_mask(), &mut counts, &mut memo);
                let map: BTreeMap<String, u64> = [
                    ("a".to_string(), ca),
                    ("b".to_string(), cb),
                    ("c".to_string(), 1),
                    ("d".to_string(), 1),
                ]
                .into_iter()
                .filter(|&(_, c)| c > 0)
                .collect();
                assert_eq!(shared, perm_accepts(&reference, &map), "a={ca} b={cb}");
                // The counts vector is restored by the search.
                assert_eq!(counts[idx("a")], ca);
            }
        }
        assert!(!memo.is_empty());
        // Re-asking a warmed query must agree with a cold memo.
        let mut counts = vec![0u64; fast.alphabet().len()];
        counts[idx("a")] = 2;
        counts[idx("b")] = 2;
        let warm = fast.perm_accepts_counts_memo(fast.start_mask(), &mut counts, &mut memo);
        let mut cold = fast.perm_memo();
        let cold_r = fast.perm_accepts_counts_memo(fast.start_mask(), &mut counts, &mut cold);
        assert_eq!(warm, cold_r);
        memo.clear();
        assert!(memo.is_empty());
    }

    #[test]
    fn wide_alphabets_spill_and_still_agree() {
        // 10 symbols > PACKED_SYMS: keys spill to the generic encoding.
        let src = (0..10)
            .map(|i| format!("s{i}?"))
            .collect::<Vec<_>>()
            .join(" ");
        let reference = nfa(&src);
        let fast = BitsetNfa::from_nfa(&reference);
        let mut memo = fast.perm_memo();
        assert!(
            !memo.packable,
            "10 symbols must be outside the packed envelope"
        );
        for picks in [[0usize, 3, 7], [1, 1, 9], [2, 5, 5]] {
            let mut counts = vec![0u64; fast.alphabet().len()];
            let mut map: BTreeMap<String, u64> = BTreeMap::new();
            for p in picks {
                let s = format!("s{p}");
                counts[fast.sym_index(&s).unwrap()] += 1;
                *map.entry(s).or_insert(0) += 1;
            }
            assert_eq!(
                fast.perm_accepts_counts_memo(fast.start_mask(), &mut counts, &mut memo),
                perm_accepts(&reference, &map),
                "{picks:?}"
            );
        }
    }

    #[test]
    fn empty_language_never_matches() {
        let reference = Nfa::from_regex(&Regex::<String>::Empty);
        let fast = BitsetNfa::from_nfa(&reference);
        assert!(!fast.matches(&[]));
        assert!(!fast.matches(&w("a")));
    }
}
