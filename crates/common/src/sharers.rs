//! Compact sharer sets: which cores hold a copy of a block.
//!
//! Directory entries carry a full-map bit vector of sharers. A set of up
//! to 64 cores lives inline in one `u64`, so cloning a directory view of a
//! 16–64-core machine never allocates; larger meshes keep their
//! `capacity.div_ceil(64)` words behind a box. Either way the set is 16
//! bytes, which keeps `Option<DirView>` — one directory slot's payload —
//! at 16 bytes too.

use crate::ids::CoreId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A set of cores, implemented as a full-map bit vector.
///
/// # Examples
///
/// ```
/// use stashdir_common::{CoreId, SharerSet};
/// let mut s = SharerSet::new(16);
/// s.insert(CoreId::new(3));
/// s.insert(CoreId::new(7));
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(CoreId::new(3)));
/// assert_eq!(s.sole_member(), None); // two members, not private
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct SharerSet {
    repr: Repr,
}

/// The storage behind a [`SharerSet`]; which variant a set uses depends
/// only on its capacity. The capacity sits inside each variant so the
/// enum tag and the capacity share the first word.
#[derive(Clone, Serialize, Deserialize)]
enum Repr {
    /// Capacity up to 64: every member bit in one word.
    Inline { bits: u64, capacity: u16 },
    /// Capacity above 64: `capacity.div_ceil(64)` words. The slice is
    /// boxed twice so the variant stays one thin pointer wide.
    Heap {
        words: Box<Box<[u64]>>,
        capacity: u16,
    },
}

impl SharerSet {
    /// Creates an empty set able to hold cores `0..capacity`.
    pub fn new(capacity: u16) -> Self {
        let repr = if capacity <= 64 {
            Repr::Inline { bits: 0, capacity }
        } else {
            let nwords = (capacity as usize).div_ceil(64);
            Repr::Heap {
                words: Box::new(vec![0; nwords].into_boxed_slice()),
                capacity,
            }
        };
        SharerSet { repr }
    }

    /// Creates a set holding exactly one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside `0..capacity`.
    pub fn singleton(capacity: u16, core: CoreId) -> Self {
        let mut set = SharerSet::new(capacity);
        set.insert(core);
        set
    }

    /// The maximum number of distinct cores the set can hold.
    pub fn capacity(&self) -> u16 {
        match self.repr {
            Repr::Inline { capacity, .. } | Repr::Heap { capacity, .. } => capacity,
        }
    }

    /// The member words, lowest cores first (one word for an inline set).
    fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline { bits, .. } => std::slice::from_ref(bits),
            Repr::Heap { words, .. } => words,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.repr {
            Repr::Inline { bits, .. } => std::slice::from_mut(bits),
            Repr::Heap { words, .. } => words,
        }
    }

    fn slot(&self, core: CoreId) -> (usize, u64) {
        assert!(
            core.get() < self.capacity(),
            "core {core} out of range (capacity {})",
            self.capacity()
        );
        (core.index() / 64, 1u64 << (core.index() % 64))
    }

    /// Adds a core. Returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside `0..capacity`.
    pub fn insert(&mut self, core: CoreId) -> bool {
        let (w, bit) = self.slot(core);
        let word = &mut self.words_mut()[w];
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Removes a core. Returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside `0..capacity`.
    pub fn remove(&mut self, core: CoreId) -> bool {
        let (w, bit) = self.slot(core);
        let word = &mut self.words_mut()[w];
        let present = *word & bit != 0;
        *word &= !bit;
        present
    }

    /// Tests membership.
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside `0..capacity`.
    pub fn contains(&self, core: CoreId) -> bool {
        let (w, bit) = self.slot(core);
        self.words()[w] & bit != 0
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when no core is a member.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// If exactly one core is a member, returns it. This is the *private
    /// block* test at the heart of the stash directory: entries whose
    /// sharer set has a sole member may be evicted silently.
    pub fn sole_member(&self) -> Option<CoreId> {
        if self.len() != 1 {
            return None;
        }
        self.iter().next()
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.words_mut().iter_mut().for_each(|w| *w = 0);
    }

    /// Iterates members in ascending core order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: self.words(),
            next: 0,
        }
    }

    /// Storage cost of the full-map vector in bits (one bit per trackable
    /// core), used by the directory area model.
    pub fn storage_bits(&self) -> u64 {
        self.capacity() as u64
    }
}

/// Equal when capacity and members are equal, as for the plain
/// `(words, capacity)` pair.
impl PartialEq for SharerSet {
    fn eq(&self, other: &Self) -> bool {
        self.capacity() == other.capacity() && self.words() == other.words()
    }
}

impl Eq for SharerSet {}

/// Hashes the word slice, then the capacity: the same stream a derived
/// `Hash` over `{ words: Vec<u64>, capacity: u16 }` feeds the hasher.
impl Hash for SharerSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.words().hash(state);
        self.capacity().hash(state);
    }
}

/// Prints `SharerSet { words: [..], capacity: N }` whichever storage the
/// set uses.
impl fmt::Debug for SharerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharerSet")
            .field("words", &self.words())
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl fmt::Display for SharerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, core) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", core.get())?;
        }
        write!(f, "}}")
    }
}

impl<'a> IntoIterator for &'a SharerSet {
    type Item = CoreId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl Extend<CoreId> for SharerSet {
    fn extend<T: IntoIterator<Item = CoreId>>(&mut self, iter: T) {
        for core in iter {
            self.insert(core);
        }
    }
}

/// Iterator over the members of a [`SharerSet`] in ascending order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    words: &'a [u64],
    next: u32,
}

impl Iterator for Iter<'_> {
    type Item = CoreId;

    fn next(&mut self) -> Option<CoreId> {
        while (self.next as usize) < self.words.len() * 64 {
            let w = self.next as usize / 64;
            let rest = self.words[w] >> (self.next % 64);
            if rest == 0 {
                self.next = (w as u32 + 1) * 64;
                continue;
            }
            let found = self.next + rest.trailing_zeros();
            self.next = found + 1;
            return Some(CoreId::new(found as u16));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = SharerSet::new(16);
        assert!(s.insert(CoreId::new(5)));
        assert!(!s.insert(CoreId::new(5)), "double insert is not fresh");
        assert!(s.contains(CoreId::new(5)));
        assert!(s.remove(CoreId::new(5)));
        assert!(!s.remove(CoreId::new(5)), "double remove not present");
        assert!(s.is_empty());
    }

    #[test]
    fn sole_member_detects_private_blocks() {
        let mut s = SharerSet::new(16);
        assert_eq!(s.sole_member(), None);
        s.insert(CoreId::new(9));
        assert_eq!(s.sole_member(), Some(CoreId::new(9)));
        s.insert(CoreId::new(1));
        assert_eq!(s.sole_member(), None);
    }

    #[test]
    fn iter_ascending_across_word_boundary() {
        let mut s = SharerSet::new(130);
        for c in [0u16, 63, 64, 65, 127, 128, 129] {
            s.insert(CoreId::new(c));
        }
        let got: Vec<u16> = s.iter().map(CoreId::get).collect();
        assert_eq!(got, vec![0, 63, 64, 65, 127, 128, 129]);
        assert_eq!(s.len(), 7);
    }

    #[test]
    fn singleton_and_clear() {
        let mut s = SharerSet::singleton(8, CoreId::new(2));
        assert_eq!(s.len(), 1);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn extend_collects_cores() {
        let mut s = SharerSet::new(8);
        s.extend([CoreId::new(1), CoreId::new(3)]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn display_lists_members() {
        let mut s = SharerSet::new(8);
        s.insert(CoreId::new(1));
        s.insert(CoreId::new(4));
        assert_eq!(s.to_string(), "{1,4}");
        assert_eq!(SharerSet::new(8).to_string(), "{}");
    }

    #[test]
    fn storage_bits_equals_capacity() {
        assert_eq!(SharerSet::new(48).storage_bits(), 48);
    }

    #[test]
    fn a_set_is_two_words_inline_or_boxed() {
        assert_eq!(std::mem::size_of::<SharerSet>(), 16);
        assert_eq!(std::mem::size_of::<Option<SharerSet>>(), 16);
    }

    #[test]
    fn debug_prints_the_word_vector() {
        let mut s = SharerSet::new(16);
        s.insert(CoreId::new(0));
        s.insert(CoreId::new(2));
        assert_eq!(format!("{s:?}"), "SharerSet { words: [5], capacity: 16 }");
        let mut big = SharerSet::new(130);
        big.insert(CoreId::new(64));
        assert_eq!(
            format!("{big:?}"),
            "SharerSet { words: [0, 1, 0], capacity: 130 }"
        );
    }

    #[test]
    fn equal_members_at_different_capacities_differ() {
        let a = SharerSet::singleton(64, CoreId::new(1));
        let b = SharerSet::singleton(65, CoreId::new(1));
        let c = SharerSet::singleton(16, CoreId::new(1));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, a.clone());
        assert_eq!(b, b.clone());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_core_panics() {
        SharerSet::new(4).contains(CoreId::new(4));
    }
}
