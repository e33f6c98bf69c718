//! Set variants: [`ChainedHashSet`], [`OpenHashSet`], [`LinkedHashSet`],
//! [`ArraySet`], [`CompactHashSet`].
//!
//! Following the JDK (whose `HashSet` wraps `HashMap`), the hash-backed sets
//! here wrap their map counterparts with a `()` value — the value payload is
//! zero-sized in Rust, so the footprint matches a dedicated set
//! implementation. [`ArraySet`] has its own array-backed implementation.
//! The sixth set variant of the paper, `AdaptiveSet`, lives in
//! [`crate::adaptive`].

mod array;

pub use array::ArraySet;

use std::fmt;
use std::hash::Hash;

use crate::kind::LibraryProfile;
use crate::map::{ChainedHashMap, CompactHashMap, LinkedHashMap, OpenHashMap};
use crate::traits::{HeapSize, MapOps, SetOps};

/// Generates a set type wrapping one of the map implementations with a `()`
/// value, mirroring how JDK `HashSet` wraps `HashMap`.
macro_rules! map_backed_set {
    (
        $(#[$doc:meta])*
        $name:ident, $map:ident
    ) => {
        $(#[$doc])*
        pub struct $name<T> {
            inner: $map<T, ()>,
        }

        impl<T: Eq + Hash> $name<T> {
            /// Creates an empty set without allocating.
            pub fn new() -> Self {
                Self { inner: $map::new() }
            }

            /// Number of elements in the set.
            #[inline]
            pub fn len(&self) -> usize {
                self.inner.len()
            }

            /// Returns `true` if the set holds no elements.
            #[inline]
            pub fn is_empty(&self) -> bool {
                self.inner.is_empty()
            }

            /// Adds `value`; returns `true` if it was not already present.
            pub fn insert(&mut self, value: T) -> bool {
                self.inner.insert(value, ()).is_none()
            }

            /// Returns `true` if `value` is present.
            pub fn contains(&self, value: &T) -> bool {
                self.inner.contains_key(value)
            }

            /// Removes `value`; returns `true` if it was present.
            pub fn remove(&mut self, value: &T) -> bool {
                self.inner.remove(value).is_some()
            }

            /// Returns an iterator over the elements.
            pub fn iter(&self) -> impl Iterator<Item = &T> {
                self.inner.iter().map(|(k, _)| k)
            }

            /// Removes every element.
            pub fn clear(&mut self) {
                self.inner.clear();
            }
        }

        impl<T: Eq + Hash> Default for $name<T> {
            fn default() -> Self {
                Self::new()
            }
        }

        impl<T: Eq + Hash + Clone> Clone for $name<T> {
            fn clone(&self) -> Self {
                Self {
                    inner: self.inner.clone(),
                }
            }
        }

        impl<T: Eq + Hash + fmt::Debug> fmt::Debug for $name<T> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.iter()).finish()
            }
        }

        impl<T: Eq + Hash> PartialEq for $name<T> {
            fn eq(&self, other: &Self) -> bool {
                self.len() == other.len() && self.iter().all(|v| other.contains(v))
            }
        }

        impl<T: Eq + Hash> Eq for $name<T> {}

        impl<T: Eq + Hash> FromIterator<T> for $name<T> {
            fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
                let mut set = Self::new();
                for v in iter {
                    set.insert(v);
                }
                set
            }
        }

        impl<T: Eq + Hash> Extend<T> for $name<T> {
            fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
                for v in iter {
                    self.insert(v);
                }
            }
        }

        impl<T> HeapSize for $name<T> {
            fn heap_bytes(&self) -> usize {
                self.inner.heap_bytes()
            }
            fn allocated_bytes(&self) -> u64 {
                self.inner.allocated_bytes()
            }
        }

        impl<T: Eq + Hash + Clone> SetOps<T> for $name<T> {
            fn len(&self) -> usize {
                self.inner.len()
            }
            fn insert(&mut self, value: T) -> bool {
                $name::insert(self, value)
            }
            fn contains(&self, value: &T) -> bool {
                $name::contains(self, value)
            }
            fn set_remove(&mut self, value: &T) -> bool {
                $name::remove(self, value)
            }
            fn for_each_value(&self, f: &mut dyn FnMut(&T)) {
                for v in self.iter() {
                    f(v);
                }
            }
            fn clear(&mut self) {
                $name::clear(self);
            }
            fn drain_into(&mut self, sink: &mut dyn FnMut(T)) {
                MapOps::drain_into(&mut self.inner, &mut |k, ()| sink(k));
            }
        }
    };
}

map_backed_set!(
    /// A separate-chaining hash set, the reproduction of JDK `HashSet`.
    ///
    /// # Examples
    ///
    /// ```
    /// use cs_collections::ChainedHashSet;
    ///
    /// let mut s = ChainedHashSet::new();
    /// assert!(s.insert(1));
    /// assert!(!s.insert(1));
    /// assert!(s.contains(&1));
    /// ```
    ChainedHashSet,
    ChainedHashMap
);

map_backed_set!(
    /// An insertion-ordered hash set, the reproduction of JDK
    /// `LinkedHashSet`.
    ///
    /// # Examples
    ///
    /// ```
    /// use cs_collections::LinkedHashSet;
    ///
    /// let mut s = LinkedHashSet::new();
    /// s.insert("b");
    /// s.insert("a");
    /// let in_order: Vec<&str> = s.iter().copied().collect();
    /// assert_eq!(in_order, ["b", "a"]);
    /// ```
    LinkedHashSet,
    LinkedHashMap
);

map_backed_set!(
    /// A dense-storage hash set, the reproduction of the VLSI
    /// `CompactHashSet` ("byte-serialized" in the paper's Table 2).
    ///
    /// # Examples
    ///
    /// ```
    /// use cs_collections::CompactHashSet;
    ///
    /// let s: CompactHashSet<i32> = (0..100).collect();
    /// assert!(s.contains(&42));
    /// assert_eq!(s.len(), 100);
    /// ```
    CompactHashSet,
    CompactHashMap
);

map_backed_set!(
    /// An open-addressing hash set reproducing the Koloboke / Eclipse /
    /// fastutil open-hash sets; see [`OpenHashSet::with_profile`].
    ///
    /// # Examples
    ///
    /// ```
    /// use cs_collections::{LibraryProfile, OpenHashSet};
    ///
    /// let mut s = OpenHashSet::with_profile(LibraryProfile::Eclipse);
    /// s.insert(7);
    /// assert!(s.contains(&7));
    /// ```
    OpenHashSet,
    OpenHashMap
);

impl<T: Eq + Hash> OpenHashSet<T> {
    /// Creates an empty set with the given tuning profile.
    pub fn with_profile(profile: LibraryProfile) -> Self {
        OpenHashSet {
            inner: OpenHashMap::with_profile(profile),
        }
    }

    /// The tuning profile this set was created with.
    pub fn profile(&self) -> LibraryProfile {
        self.inner.profile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chained_set_round_trip() {
        let mut s = ChainedHashSet::new();
        for i in 0..200_i64 {
            assert!(s.insert(i));
        }
        for i in 0..200_i64 {
            assert!(!s.insert(i), "duplicate {i} must be rejected");
            assert!(s.contains(&i));
        }
        for i in 0..200_i64 {
            assert!(s.remove(&i));
            assert!(!s.remove(&i));
        }
        assert!(s.is_empty());
    }

    #[test]
    fn linked_set_preserves_order() {
        let mut s = LinkedHashSet::new();
        for i in [9_i64, 2, 7, 4] {
            s.insert(i);
        }
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![9, 2, 7, 4]);
    }

    #[test]
    fn open_set_profile_is_carried() {
        let s: OpenHashSet<i64> = OpenHashSet::with_profile(LibraryProfile::FastUtil);
        assert_eq!(s.profile(), LibraryProfile::FastUtil);
    }

    #[test]
    fn compact_set_is_densest_hash_set() {
        let mut compact = CompactHashSet::new();
        let mut chained = ChainedHashSet::new();
        for i in 0..1000_i64 {
            compact.insert(i);
            chained.insert(i);
        }
        assert!(compact.heap_bytes() < chained.heap_bytes());
    }

    #[test]
    fn equality_across_insert_orders() {
        let a: ChainedHashSet<i64> = (0..50).collect();
        let b: ChainedHashSet<i64> = (0..50).rev().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn setops_drain_into() {
        let mut s: OpenHashSet<i64> = (0..20).collect();
        let mut got = Vec::new();
        SetOps::drain_into(&mut s, &mut |v| got.push(v));
        got.sort_unstable();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        assert!(s.is_empty());
    }

    #[test]
    fn zero_sized_value_adds_no_bytes() {
        // A set must not pay for a value payload.
        let mut set = OpenHashSet::new();
        let mut map: OpenHashMap<i64, i64> = OpenHashMap::new();
        for i in 0..100_i64 {
            set.insert(i);
            map.insert(i, i);
        }
        assert!(set.heap_bytes() < map.heap_bytes());
    }

    #[test]
    fn debug_formats_as_set() {
        let mut s = ChainedHashSet::new();
        s.insert(1);
        assert_eq!(format!("{s:?}"), "{1}");
    }
}
