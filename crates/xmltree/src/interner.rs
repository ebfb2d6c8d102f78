//! Symbol interning: dense `u32` ids for element types and attribute names.
//!
//! The reference code paths key everything by [`ElementType`] /
//! [`AttrName`] — `Arc<str>` newtypes whose comparisons walk string bytes and
//! whose maps are `BTreeMap`s. The compiled fast path
//! ([`crate::compiled::CompiledDtd`]) instead interns every name occurring in
//! a DTD into a dense [`Sym`] id, so per-node work indexes flat `Vec`s and
//! compares `u32`s.
//!
//! The interner is per-DTD (not global): ids are dense in `0..len`, which is
//! what lets the compiled transition tables be plain `states × alphabet`
//! arrays, and dropping a DTD drops its symbol table with it.
//!
//! [`ElementType`]: crate::ElementType
//! [`AttrName`]: crate::AttrName

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

/// A dense interned symbol id (index into an [`Interner`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(u32);

impl Sym {
    /// The dense index of the symbol.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Build a symbol from a dense index (must come from the same interner).
    #[inline]
    pub fn from_index(i: usize) -> Sym {
        Sym(u32::try_from(i).expect("symbol table exceeds u32::MAX entries"))
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A name-to-dense-id table (generic over the name type so both
/// [`ElementType`] and [`AttrName`] use the same machinery).
///
/// [`ElementType`]: crate::name::ElementType
/// [`AttrName`]: crate::name::AttrName
#[derive(Debug, Clone, Default)]
pub struct Interner<T> {
    map: HashMap<T, Sym>,
    names: Vec<T>,
}

impl<T: Clone + Eq + Hash> Interner<T> {
    /// An empty interner.
    pub fn new() -> Self {
        Interner {
            map: HashMap::new(),
            names: Vec::new(),
        }
    }

    /// Intern `name`, returning its (possibly pre-existing) id.
    pub fn intern(&mut self, name: &T) -> Sym {
        if let Some(&sym) = self.map.get(name) {
            return sym;
        }
        let sym = Sym::from_index(self.names.len());
        self.map.insert(name.clone(), sym);
        self.names.push(name.clone());
        sym
    }

    /// Look up an already-interned name.
    #[inline]
    pub fn get(&self, name: &T) -> Option<Sym> {
        self.map.get(name).copied()
    }

    /// The name behind a symbol.
    #[inline]
    pub fn resolve(&self, sym: Sym) -> &T {
        &self.names[sym.index()]
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All interned names in id order.
    pub fn names(&self) -> &[T] {
        &self.names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::ElementType;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut i: Interner<ElementType> = Interner::new();
        let a = i.intern(&ElementType::new("a"));
        let b = i.intern(&ElementType::new("b"));
        let a2 = i.intern(&ElementType::new("a"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(a), &ElementType::new("a"));
        assert_eq!(i.get(&ElementType::new("b")), Some(b));
        assert_eq!(i.get(&ElementType::new("zzz")), None);
    }

    #[test]
    fn sym_round_trips_through_index() {
        let s = Sym::from_index(17);
        assert_eq!(s.index(), 17);
        assert_eq!(format!("{s}"), "s17");
    }
}
