//! Closed-world dynamic dispatch over the variant sets.
//!
//! The framework must be able to instantiate *some* list/set/map whose
//! concrete variant is chosen at runtime, and to move the contents of one
//! variant into another (the paper's *instant transition*). Boxed trait
//! objects would work but fight the ownership model and cost an indirection
//! on every call; since the candidate set is closed (paper Table 2), an enum
//! per abstraction does the same job with owned data and match dispatch.

use std::fmt;
use std::hash::Hash;

use crate::adaptive::{AdaptiveList, AdaptiveMap, AdaptiveSet};
use crate::kind::{ListKind, MapKind, SetKind};
use crate::list::{ArrayList, HashArrayList, LinkedList};
use crate::map::{ArrayMap, ChainedHashMap, CompactHashMap, LinkedHashMap, OpenHashMap};
use crate::set::{ArraySet, ChainedHashSet, CompactHashSet, LinkedHashSet, OpenHashSet};
use crate::traits::{HeapSize, ListOps, MapOps, SetOps};

macro_rules! dispatch_list {
    ($self:expr, $l:ident => $body:expr) => {
        match $self {
            AnyList::Array($l) => $body,
            AnyList::Linked($l) => $body,
            AnyList::HashArray($l) => $body,
            AnyList::Adaptive($l) => $body,
        }
    };
}

/// A list whose concrete variant is chosen at runtime.
///
/// # Examples
///
/// ```
/// use cs_collections::{AnyList, ListKind, ListOps};
///
/// let mut list = AnyList::new(ListKind::Linked);
/// list.push(1);
/// list.push(2);
/// // Instant transition: move contents into a different variant.
/// let list = list.switched_to(ListKind::HashArray);
/// assert_eq!(list.kind(), ListKind::HashArray);
/// assert!(list.contains(&2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnyList<T: Eq + Hash + Clone> {
    /// JDK-style `ArrayList`.
    Array(ArrayList<T>),
    /// JDK-style `LinkedList`.
    Linked(LinkedList<T>),
    /// `HashArrayList`.
    HashArray(HashArrayList<T>),
    /// Size-adaptive list.
    Adaptive(AdaptiveList<T>),
}

impl<T: Eq + Hash + Clone> AnyList<T> {
    /// Instantiates an empty list of the given variant.
    pub fn new(kind: ListKind) -> Self {
        match kind {
            ListKind::Array => AnyList::Array(ArrayList::new()),
            ListKind::Linked => AnyList::Linked(LinkedList::new()),
            ListKind::HashArray => AnyList::HashArray(HashArrayList::new()),
            ListKind::Adaptive => AnyList::Adaptive(AdaptiveList::new()),
        }
    }

    /// The variant this list currently is.
    pub fn kind(&self) -> ListKind {
        match self {
            AnyList::Array(_) => ListKind::Array,
            AnyList::Linked(_) => ListKind::Linked,
            AnyList::HashArray(_) => ListKind::HashArray,
            AnyList::Adaptive(_) => ListKind::Adaptive,
        }
    }

    /// Moves the contents into a fresh list of variant `kind` (the paper's
    /// instant transition). Returns `self` unchanged if the variant already
    /// matches.
    pub fn switched_to(mut self, kind: ListKind) -> Self {
        if self.kind() == kind {
            return self;
        }
        let mut out = AnyList::new(kind);
        dispatch_list!(&mut self, l => {
            ListOps::drain_into(l, &mut |v| ListOps::push(&mut out, v));
        });
        out
    }
}

impl<T: Eq + Hash + Clone> Default for AnyList<T> {
    /// Defaults to the JDK default, `ArrayList`.
    fn default() -> Self {
        AnyList::new(ListKind::Array)
    }
}

impl<T: Eq + Hash + Clone> HeapSize for AnyList<T> {
    fn heap_bytes(&self) -> usize {
        dispatch_list!(self, l => l.heap_bytes())
    }
    fn allocated_bytes(&self) -> u64 {
        dispatch_list!(self, l => l.allocated_bytes())
    }
}

impl<T: Eq + Hash + Clone> ListOps<T> for AnyList<T> {
    fn len(&self) -> usize {
        dispatch_list!(self, l => ListOps::len(l))
    }
    fn push(&mut self, value: T) {
        dispatch_list!(self, l => ListOps::push(l, value))
    }
    fn pop(&mut self) -> Option<T> {
        dispatch_list!(self, l => ListOps::pop(l))
    }
    fn list_insert(&mut self, index: usize, value: T) {
        dispatch_list!(self, l => ListOps::list_insert(l, index, value))
    }
    fn list_remove(&mut self, index: usize) -> T {
        dispatch_list!(self, l => ListOps::list_remove(l, index))
    }
    fn get(&self, index: usize) -> Option<&T> {
        dispatch_list!(self, l => ListOps::get(l, index))
    }
    fn set(&mut self, index: usize, value: T) -> T {
        dispatch_list!(self, l => ListOps::set(l, index, value))
    }
    fn contains(&self, value: &T) -> bool {
        dispatch_list!(self, l => ListOps::contains(l, value))
    }
    // Kept out of line: the walk takes a `dyn` callback so every caller
    // runs the same per-element call. Inlined, a caller with a trivial
    // closure can see through it and fold the walk into a length read, and
    // whether that happens depends on how the caller's crate is split into
    // codegen units, so a raw `AnyList` walk and a handle walk would stop
    // being comparable.
    #[inline(never)]
    fn for_each_value(&self, f: &mut dyn FnMut(&T)) {
        dispatch_list!(self, l => ListOps::for_each_value(l, f))
    }
    fn clear(&mut self) {
        dispatch_list!(self, l => ListOps::clear(l))
    }
    fn drain_into(&mut self, sink: &mut dyn FnMut(T)) {
        dispatch_list!(self, l => ListOps::drain_into(l, sink))
    }
}

macro_rules! dispatch_set {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            AnySet::Chained($s) => $body,
            AnySet::Open($s) => $body,
            AnySet::Linked($s) => $body,
            AnySet::Array($s) => $body,
            AnySet::Compact($s) => $body,
            AnySet::Adaptive($s) => $body,
        }
    };
}

/// A set whose concrete variant is chosen at runtime.
///
/// # Examples
///
/// ```
/// use cs_collections::{AnySet, SetKind, SetOps, LibraryProfile};
///
/// let mut set = AnySet::new(SetKind::Chained);
/// set.insert(7);
/// let set = set.switched_to(SetKind::Open(LibraryProfile::Koloboke));
/// assert!(set.contains(&7));
/// ```
#[derive(Debug, Clone)]
pub enum AnySet<T: Eq + Hash + Clone> {
    /// JDK-style chained `HashSet`.
    Chained(ChainedHashSet<T>),
    /// Open-addressing set (profile carried by the value).
    Open(OpenHashSet<T>),
    /// JDK-style `LinkedHashSet`.
    Linked(LinkedHashSet<T>),
    /// Array-backed set.
    Array(ArraySet<T>),
    /// Dense-storage compact set.
    Compact(CompactHashSet<T>),
    /// Size-adaptive set.
    Adaptive(AdaptiveSet<T>),
}

impl<T: Eq + Hash + Clone> AnySet<T> {
    /// Instantiates an empty set of the given variant.
    pub fn new(kind: SetKind) -> Self {
        match kind {
            SetKind::Chained => AnySet::Chained(ChainedHashSet::new()),
            SetKind::Open(profile) => AnySet::Open(OpenHashSet::with_profile(profile)),
            SetKind::Linked => AnySet::Linked(LinkedHashSet::new()),
            SetKind::Array => AnySet::Array(ArraySet::new()),
            SetKind::Compact => AnySet::Compact(CompactHashSet::new()),
            SetKind::Adaptive => AnySet::Adaptive(AdaptiveSet::new()),
        }
    }

    /// The variant this set currently is.
    pub fn kind(&self) -> SetKind {
        match self {
            AnySet::Chained(_) => SetKind::Chained,
            AnySet::Open(s) => SetKind::Open(s.profile()),
            AnySet::Linked(_) => SetKind::Linked,
            AnySet::Array(_) => SetKind::Array,
            AnySet::Compact(_) => SetKind::Compact,
            AnySet::Adaptive(_) => SetKind::Adaptive,
        }
    }

    /// Moves the contents into a fresh set of variant `kind`.
    pub fn switched_to(mut self, kind: SetKind) -> Self {
        if self.kind() == kind {
            return self;
        }
        let mut out = AnySet::new(kind);
        dispatch_set!(&mut self, s => {
            SetOps::drain_into(s, &mut |v| {
                SetOps::insert(&mut out, v);
            });
        });
        out
    }
}

impl<T: Eq + Hash + Clone> Default for AnySet<T> {
    /// Defaults to the JDK default, chained `HashSet`.
    fn default() -> Self {
        AnySet::new(SetKind::Chained)
    }
}

impl<T: Eq + Hash + Clone> HeapSize for AnySet<T> {
    fn heap_bytes(&self) -> usize {
        dispatch_set!(self, s => s.heap_bytes())
    }
    fn allocated_bytes(&self) -> u64 {
        dispatch_set!(self, s => s.allocated_bytes())
    }
}

impl<T: Eq + Hash + Clone> SetOps<T> for AnySet<T> {
    fn len(&self) -> usize {
        dispatch_set!(self, s => SetOps::len(s))
    }
    fn insert(&mut self, value: T) -> bool {
        dispatch_set!(self, s => SetOps::insert(s, value))
    }
    fn contains(&self, value: &T) -> bool {
        dispatch_set!(self, s => SetOps::contains(s, value))
    }
    fn set_remove(&mut self, value: &T) -> bool {
        dispatch_set!(self, s => SetOps::set_remove(s, value))
    }
    fn for_each_value(&self, f: &mut dyn FnMut(&T)) {
        dispatch_set!(self, s => SetOps::for_each_value(s, f))
    }
    fn clear(&mut self) {
        dispatch_set!(self, s => SetOps::clear(s))
    }
    fn drain_into(&mut self, sink: &mut dyn FnMut(T)) {
        dispatch_set!(self, s => SetOps::drain_into(s, sink))
    }
}

macro_rules! dispatch_map {
    ($self:expr, $m:ident => $body:expr) => {
        match $self {
            AnyMap::Chained($m) => $body,
            AnyMap::Open($m) => $body,
            AnyMap::Linked($m) => $body,
            AnyMap::Array($m) => $body,
            AnyMap::Compact($m) => $body,
            AnyMap::Adaptive($m) => $body,
        }
    };
}

/// A map whose concrete variant is chosen at runtime.
///
/// # Examples
///
/// ```
/// use cs_collections::{AnyMap, MapKind, MapOps};
///
/// let mut map = AnyMap::new(MapKind::Array);
/// map.map_insert("k", 1);
/// let map = map.switched_to(MapKind::Compact);
/// assert_eq!(map.map_get(&"k"), Some(&1));
/// ```
#[derive(Debug, Clone)]
pub enum AnyMap<K: Eq + Hash + Clone, V: Clone> {
    /// JDK-style chained `HashMap`.
    Chained(ChainedHashMap<K, V>),
    /// Open-addressing map (profile carried by the value).
    Open(OpenHashMap<K, V>),
    /// JDK-style `LinkedHashMap`.
    Linked(LinkedHashMap<K, V>),
    /// Parallel-array map.
    Array(ArrayMap<K, V>),
    /// Dense-storage compact map.
    Compact(CompactHashMap<K, V>),
    /// Size-adaptive map.
    Adaptive(AdaptiveMap<K, V>),
}

impl<K: Eq + Hash + Clone, V: Clone> AnyMap<K, V> {
    /// Instantiates an empty map of the given variant.
    pub fn new(kind: MapKind) -> Self {
        match kind {
            MapKind::Chained => AnyMap::Chained(ChainedHashMap::new()),
            MapKind::Open(profile) => AnyMap::Open(OpenHashMap::with_profile(profile)),
            MapKind::Linked => AnyMap::Linked(LinkedHashMap::new()),
            MapKind::Array => AnyMap::Array(ArrayMap::new()),
            MapKind::Compact => AnyMap::Compact(CompactHashMap::new()),
            MapKind::Adaptive => AnyMap::Adaptive(AdaptiveMap::new()),
        }
    }

    /// The variant this map currently is.
    pub fn kind(&self) -> MapKind {
        match self {
            AnyMap::Chained(_) => MapKind::Chained,
            AnyMap::Open(m) => MapKind::Open(m.profile()),
            AnyMap::Linked(_) => MapKind::Linked,
            AnyMap::Array(_) => MapKind::Array,
            AnyMap::Compact(_) => MapKind::Compact,
            AnyMap::Adaptive(_) => MapKind::Adaptive,
        }
    }

    /// Moves the contents into a fresh map of variant `kind`.
    pub fn switched_to(mut self, kind: MapKind) -> Self {
        if self.kind() == kind {
            return self;
        }
        let mut out = AnyMap::new(kind);
        dispatch_map!(&mut self, m => {
            MapOps::drain_into(m, &mut |k, v| {
                MapOps::map_insert(&mut out, k, v);
            });
        });
        out
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Default for AnyMap<K, V> {
    /// Defaults to the JDK default, chained `HashMap`.
    fn default() -> Self {
        AnyMap::new(MapKind::Chained)
    }
}

impl<K: Eq + Hash + Clone, V: Clone> HeapSize for AnyMap<K, V> {
    fn heap_bytes(&self) -> usize {
        dispatch_map!(self, m => m.heap_bytes())
    }
    fn allocated_bytes(&self) -> u64 {
        dispatch_map!(self, m => m.allocated_bytes())
    }
}

impl<K: Eq + Hash + Clone, V: Clone> MapOps<K, V> for AnyMap<K, V> {
    fn len(&self) -> usize {
        dispatch_map!(self, m => MapOps::len(m))
    }
    fn map_insert(&mut self, key: K, value: V) -> Option<V> {
        dispatch_map!(self, m => MapOps::map_insert(m, key, value))
    }
    fn map_get(&self, key: &K) -> Option<&V> {
        dispatch_map!(self, m => MapOps::map_get(m, key))
    }
    fn map_remove(&mut self, key: &K) -> Option<V> {
        dispatch_map!(self, m => MapOps::map_remove(m, key))
    }
    fn contains_key(&self, key: &K) -> bool {
        dispatch_map!(self, m => MapOps::contains_key(m, key))
    }
    fn for_each_entry(&self, f: &mut dyn FnMut(&K, &V)) {
        dispatch_map!(self, m => MapOps::for_each_entry(m, f))
    }
    fn clear(&mut self) {
        dispatch_map!(self, m => MapOps::clear(m))
    }
    fn drain_into(&mut self, sink: &mut dyn FnMut(K, V)) {
        dispatch_map!(self, m => MapOps::drain_into(m, sink))
    }
}

impl<T: Eq + Hash + Clone + fmt::Display> fmt::Display for AnyList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[len={}]", self.kind(), ListOps::len(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::LibraryProfile;

    #[test]
    fn every_list_kind_instantiates() {
        for kind in ListKind::ALL {
            let mut l: AnyList<i64> = AnyList::new(kind);
            assert_eq!(l.kind(), kind);
            l.push(1);
            assert_eq!(ListOps::len(&l), 1);
            assert!(ListOps::contains(&l, &1));
        }
    }

    #[test]
    fn every_set_kind_instantiates() {
        for kind in SetKind::ALL {
            let mut s: AnySet<i64> = AnySet::new(kind);
            assert_eq!(s.kind(), kind);
            assert!(SetOps::insert(&mut s, 1));
            assert!(!SetOps::insert(&mut s, 1));
            assert!(SetOps::contains(&s, &1));
        }
    }

    #[test]
    fn every_map_kind_instantiates() {
        for kind in MapKind::ALL {
            let mut m: AnyMap<i64, i64> = AnyMap::new(kind);
            assert_eq!(m.kind(), kind);
            assert_eq!(m.map_insert(1, 10), None);
            assert_eq!(m.map_get(&1), Some(&10));
        }
    }

    #[test]
    fn list_switch_preserves_order_across_all_pairs() {
        for from in ListKind::ALL {
            for to in ListKind::ALL {
                let mut l: AnyList<i64> = AnyList::new(from);
                for v in 0..20 {
                    ListOps::push(&mut l, v);
                }
                let l = l.switched_to(to);
                assert_eq!(l.kind(), to);
                let mut got = Vec::new();
                l.for_each_value(&mut |v| got.push(*v));
                assert_eq!(got, (0..20).collect::<Vec<_>>(), "{from} -> {to}");
            }
        }
    }

    #[test]
    fn set_switch_preserves_elements_across_all_pairs() {
        for from in SetKind::ALL {
            for to in SetKind::ALL {
                let mut s: AnySet<i64> = AnySet::new(from);
                for v in 0..50 {
                    SetOps::insert(&mut s, v);
                }
                let s = s.switched_to(to);
                assert_eq!(s.kind(), to);
                assert_eq!(SetOps::len(&s), 50, "{from} -> {to}");
                for v in 0..50 {
                    assert!(SetOps::contains(&s, &v), "{from} -> {to}: lost {v}");
                }
            }
        }
    }

    #[test]
    fn map_switch_preserves_entries_across_all_pairs() {
        for from in MapKind::ALL {
            for to in MapKind::ALL {
                let mut m: AnyMap<i64, i64> = AnyMap::new(from);
                for k in 0..50 {
                    MapOps::map_insert(&mut m, k, k * 2);
                }
                let m = m.switched_to(to);
                assert_eq!(m.kind(), to);
                assert_eq!(MapOps::len(&m), 50, "{from} -> {to}");
                for k in 0..50 {
                    assert_eq!(m.map_get(&k), Some(&(k * 2)), "{from} -> {to}");
                }
            }
        }
    }

    #[test]
    fn switch_to_same_kind_is_identity() {
        let mut l: AnyList<i64> = AnyList::new(ListKind::Array);
        ListOps::push(&mut l, 1);
        let l = l.switched_to(ListKind::Array);
        assert_eq!(ListOps::len(&l), 1);
    }

    #[test]
    fn open_profile_round_trips_through_kind() {
        let s: AnySet<i64> = AnySet::new(SetKind::Open(LibraryProfile::FastUtil));
        assert_eq!(s.kind(), SetKind::Open(LibraryProfile::FastUtil));
    }

    #[test]
    fn defaults_are_the_jdk_defaults() {
        assert_eq!(AnyList::<i64>::default().kind(), ListKind::Array);
        assert_eq!(AnySet::<i64>::default().kind(), SetKind::Chained);
        assert_eq!(AnyMap::<i64, i64>::default().kind(), MapKind::Chained);
    }

    #[test]
    fn display_names_variant() {
        let l: AnyList<i64> = AnyList::default();
        assert_eq!(l.to_string(), "array[len=0]");
    }
}
