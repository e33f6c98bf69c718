//! Size-adaptive set: array below the threshold, open hash above.

use std::fmt;
use std::hash::Hash;

use crate::kind::LibraryProfile;
use crate::set::{ArraySet, OpenHashSet};
use crate::traits::{HeapSize, SetOps};

use super::SET_THRESHOLD;

#[derive(Debug, Clone)]
enum Repr<T: Eq + Hash> {
    Array(ArraySet<T>),
    Open(OpenHashSet<T>),
}

/// A set that starts array-backed and transitions to an open-addressing hash
/// table once it outgrows its threshold — the paper's `AdaptiveSet`
/// (NLP/Google `ArraySet` → Koloboke open hash, threshold 40).
///
/// The transition is *instant* (paper §2.1): every element is rehashed into
/// the new table in one step when an insertion first pushes the size past
/// the threshold. [`transitions`](AdaptiveSet::transitions) reports how often
/// that happened (at most once unless the set is cleared).
///
/// # Examples
///
/// ```
/// use cs_collections::AdaptiveSet;
///
/// let mut s = AdaptiveSet::with_threshold(4);
/// for v in 0..4 {
///     s.insert(v);
/// }
/// assert!(s.is_array_backed());
/// s.insert(4);
/// assert!(!s.is_array_backed());
/// assert_eq!(s.transitions(), 1);
/// ```
pub struct AdaptiveSet<T: Eq + Hash + Clone> {
    repr: Repr<T>,
    threshold: usize,
    transitions: u32,
}

impl<T: Eq + Hash + Clone> AdaptiveSet<T> {
    /// Creates an empty set with the paper's default threshold (40).
    pub fn new() -> Self {
        Self::with_threshold(SET_THRESHOLD)
    }

    /// Creates an empty set that transitions when its size exceeds
    /// `threshold`.
    pub fn with_threshold(threshold: usize) -> Self {
        AdaptiveSet {
            repr: Repr::Array(ArraySet::new()),
            threshold,
            transitions: 0,
        }
    }

    /// The size above which the set switches to a hash representation.
    #[inline]
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Number of representation transitions performed so far.
    #[inline]
    pub fn transitions(&self) -> u32 {
        self.transitions
    }

    /// Returns `true` while the set still uses the array representation.
    #[inline]
    pub fn is_array_backed(&self) -> bool {
        matches!(self.repr, Repr::Array(_))
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Array(s) => s.len(),
            Repr::Open(s) => s.len(),
        }
    }

    /// Returns `true` if the set holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn transition_to_hash(&mut self) {
        let old = std::mem::replace(
            &mut self.repr,
            Repr::Open(OpenHashSet::with_profile(LibraryProfile::Koloboke)),
        );
        if let (Repr::Array(mut array), Repr::Open(open)) = (old, &mut self.repr) {
            SetOps::drain_into(&mut array, &mut |v| {
                open.insert(v);
            });
        }
        self.transitions += 1;
    }

    /// Adds `value`; returns `true` if it was not already present.
    ///
    /// Triggers the one-time array → openhash transition when the insertion
    /// pushes the size past the threshold.
    pub fn insert(&mut self, value: T) -> bool {
        if let Repr::Array(s) = &mut self.repr {
            let added = s.insert(value);
            if added && s.len() > self.threshold {
                self.transition_to_hash();
            }
            added
        } else if let Repr::Open(s) = &mut self.repr {
            s.insert(value)
        } else {
            unreachable!()
        }
    }

    /// Returns `true` if `value` is present.
    pub fn contains(&self, value: &T) -> bool {
        match &self.repr {
            Repr::Array(s) => s.contains(value),
            Repr::Open(s) => s.contains(value),
        }
    }

    /// Removes `value`; returns `true` if it was present.
    ///
    /// Shrinking below the threshold does **not** transition back — the
    /// paper's adaptive collections only ever move array → hash.
    pub fn remove(&mut self, value: &T) -> bool {
        match &mut self.repr {
            Repr::Array(s) => s.remove(value),
            Repr::Open(s) => s.remove(value),
        }
    }

    /// Visits every element.
    pub fn for_each(&self, mut f: impl FnMut(&T)) {
        match &self.repr {
            Repr::Array(s) => {
                for v in s.iter() {
                    f(v);
                }
            }
            Repr::Open(s) => {
                for v in s.iter() {
                    f(v);
                }
            }
        }
    }

    /// Removes every element and resets to the array representation.
    pub fn clear(&mut self) {
        self.repr = Repr::Array(ArraySet::new());
    }
}

impl<T: Eq + Hash + Clone> Default for AdaptiveSet<T> {
    fn default() -> Self {
        AdaptiveSet::new()
    }
}

impl<T: Eq + Hash + Clone> Clone for AdaptiveSet<T> {
    fn clone(&self) -> Self {
        AdaptiveSet {
            repr: self.repr.clone(),
            threshold: self.threshold,
            transitions: self.transitions,
        }
    }
}

impl<T: Eq + Hash + Clone + fmt::Debug> fmt::Debug for AdaptiveSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut set = f.debug_set();
        self.for_each(|v| {
            set.entry(v);
        });
        set.finish()
    }
}

impl<T: Eq + Hash + Clone> FromIterator<T> for AdaptiveSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut set = AdaptiveSet::new();
        for v in iter {
            set.insert(v);
        }
        set
    }
}

impl<T: Eq + Hash + Clone> Extend<T> for AdaptiveSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<T: Eq + Hash + Clone> HeapSize for AdaptiveSet<T> {
    fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Array(s) => s.heap_bytes(),
            Repr::Open(s) => s.heap_bytes(),
        }
    }

    fn allocated_bytes(&self) -> u64 {
        // The array phase's allocations are lost on transition; the hash
        // representation's counter alone still dominates, and the sum of the
        // live representation is the paper's "allocation" dimension.
        match &self.repr {
            Repr::Array(s) => s.allocated_bytes(),
            Repr::Open(s) => s.allocated_bytes(),
        }
    }
}

impl<T: Eq + Hash + Clone> SetOps<T> for AdaptiveSet<T> {
    fn len(&self) -> usize {
        AdaptiveSet::len(self)
    }
    fn insert(&mut self, value: T) -> bool {
        AdaptiveSet::insert(self, value)
    }
    fn contains(&self, value: &T) -> bool {
        AdaptiveSet::contains(self, value)
    }
    fn set_remove(&mut self, value: &T) -> bool {
        AdaptiveSet::remove(self, value)
    }
    fn for_each_value(&self, f: &mut dyn FnMut(&T)) {
        self.for_each(f);
    }
    fn clear(&mut self) {
        AdaptiveSet::clear(self);
    }
    fn drain_into(&mut self, sink: &mut dyn FnMut(T)) {
        match &mut self.repr {
            Repr::Array(s) => SetOps::drain_into(s, sink),
            Repr::Open(s) => SetOps::drain_into(s, sink),
        }
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threshold_matches_table_1() {
        let s: AdaptiveSet<i64> = AdaptiveSet::new();
        assert_eq!(s.threshold(), 40);
    }

    #[test]
    fn transitions_exactly_at_threshold_crossing() {
        let mut s = AdaptiveSet::new();
        for v in 0..40_i64 {
            s.insert(v);
        }
        assert!(s.is_array_backed(), "at threshold: still array");
        s.insert(40);
        assert!(!s.is_array_backed(), "past threshold: hash");
        assert_eq!(s.transitions(), 1);
    }

    #[test]
    fn contents_preserved_across_transition() {
        let mut s = AdaptiveSet::with_threshold(10);
        for v in 0..50_i64 {
            s.insert(v);
        }
        assert_eq!(s.len(), 50);
        for v in 0..50_i64 {
            assert!(s.contains(&v), "{v} lost in transition");
        }
    }

    #[test]
    fn duplicate_inserts_do_not_trigger_transition() {
        let mut s = AdaptiveSet::with_threshold(3);
        for _ in 0..100 {
            s.insert(1_i64);
        }
        assert!(s.is_array_backed());
        assert_eq!(s.transitions(), 0);
    }

    #[test]
    fn no_transition_back_on_shrink() {
        let mut s = AdaptiveSet::with_threshold(5);
        for v in 0..10_i64 {
            s.insert(v);
        }
        for v in 0..10_i64 {
            s.remove(&v);
        }
        assert!(!s.is_array_backed(), "shrink must not revert to array");
        assert!(s.is_empty());
    }

    #[test]
    fn clear_resets_to_array() {
        let mut s = AdaptiveSet::with_threshold(2);
        for v in 0..10_i64 {
            s.insert(v);
        }
        s.clear();
        assert!(s.is_array_backed());
        assert!(s.is_empty());
    }

    #[test]
    fn small_sets_have_array_footprint() {
        use crate::set::ChainedHashSet;
        let mut adaptive = AdaptiveSet::new();
        let mut chained = ChainedHashSet::new();
        for v in 0..10_i64 {
            adaptive.insert(v);
            chained.insert(v);
        }
        assert!(adaptive.heap_bytes() < chained.heap_bytes());
    }

    #[test]
    fn drain_into_resets_and_yields_all() {
        let mut s: AdaptiveSet<i64> = (0..60).collect();
        assert!(!s.is_array_backed());
        let mut got = Vec::new();
        SetOps::drain_into(&mut s, &mut |v| got.push(v));
        got.sort_unstable();
        assert_eq!(got, (0..60).collect::<Vec<_>>());
        assert!(s.is_array_backed());
    }
}
