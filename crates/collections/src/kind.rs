//! Variant identifiers: the closed candidate sets of the paper's Table 2.
//!
//! The selection framework reasons about collection *kinds* — small `Copy`
//! identifiers naming each implementation variant — rather than about
//! concrete generic types. Performance models are keyed by kind, allocation
//! contexts store their current kind atomically, and the
//! [`AnyList`](crate::AnyList) family instantiates a variant from its kind.

use std::fmt;
use std::str::FromStr;

/// The three collection abstractions considered by the paper.
///
/// # Examples
///
/// ```
/// use cs_collections::Abstraction;
///
/// assert_eq!(Abstraction::List.to_string(), "list");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Abstraction {
    /// Sequences with positional access (`List` in the paper).
    List,
    /// Unordered unique-element containers (`Set`).
    Set,
    /// Key-value containers (`Map`).
    Map,
}

impl fmt::Display for Abstraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Abstraction::List => "list",
            Abstraction::Set => "set",
            Abstraction::Map => "map",
        };
        f.write_str(s)
    }
}

/// Error returned when parsing a kind or profile from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseKindError {
    input: String,
    expected: &'static str,
}

impl fmt::Display for ParseKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown {} name: `{}`", self.expected, self.input)
    }
}

impl std::error::Error for ParseKindError {}

/// Tuning presets reproducing the third-party open-addressing hash libraries
/// benchmarked by the paper (Koloboke, Eclipse Collections, fastutil).
///
/// The presets differ in load factor and growth policy, which reproduces the
/// time/memory frontier the paper observed: fastutil is the most
/// memory-frugal (densest table, longest probe chains), Koloboke the fastest
/// (sparsest table), Eclipse in between.
///
/// # Examples
///
/// ```
/// use cs_collections::LibraryProfile;
///
/// let fast = LibraryProfile::Koloboke;
/// let dense = LibraryProfile::FastUtil;
/// assert!(fast.max_load_factor() < dense.max_load_factor());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LibraryProfile {
    /// Sparse table (load factor 0.5): fastest lookups, highest memory.
    Koloboke,
    /// Balanced table (load factor 0.75).
    Eclipse,
    /// Dense table (load factor 0.90): lowest memory, slower lookups.
    FastUtil,
}

impl LibraryProfile {
    /// All profiles, in Koloboke → Eclipse → FastUtil order.
    pub const ALL: [LibraryProfile; 3] = [
        LibraryProfile::Koloboke,
        LibraryProfile::Eclipse,
        LibraryProfile::FastUtil,
    ];

    /// Maximum table occupancy before the table grows.
    #[inline]
    pub fn max_load_factor(self) -> f64 {
        match self {
            LibraryProfile::Koloboke => 0.5,
            LibraryProfile::Eclipse => 0.75,
            LibraryProfile::FastUtil => 0.90,
        }
    }

    /// Minimum (initial) table capacity in slots.
    #[inline]
    pub fn min_capacity(self) -> usize {
        match self {
            LibraryProfile::Koloboke => 16,
            LibraryProfile::Eclipse => 8,
            LibraryProfile::FastUtil => 4,
        }
    }
}

impl fmt::Display for LibraryProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LibraryProfile::Koloboke => "koloboke",
            LibraryProfile::Eclipse => "eclipse",
            LibraryProfile::FastUtil => "fastutil",
        };
        f.write_str(s)
    }
}

impl FromStr for LibraryProfile {
    type Err = ParseKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "koloboke" => Ok(LibraryProfile::Koloboke),
            "eclipse" => Ok(LibraryProfile::Eclipse),
            "fastutil" => Ok(LibraryProfile::FastUtil),
            _ => Err(ParseKindError {
                input: s.to_owned(),
                expected: "library profile",
            }),
        }
    }
}

/// List variant identifiers (paper Table 2, "Lists").
///
/// # Examples
///
/// ```
/// use cs_collections::ListKind;
///
/// assert_eq!(ListKind::ALL.len(), 4);
/// assert_eq!("hasharray".parse::<ListKind>(), Ok(ListKind::HashArray));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ListKind {
    /// Array-backed list (JDK `ArrayList`).
    Array,
    /// Doubly-linked list (JDK `LinkedList`).
    Linked,
    /// Array list plus a hash multiset index for O(1) `contains`
    /// (the paper's `HashArrayList`).
    HashArray,
    /// Array-backed on small sizes, hash-array-backed on large sizes
    /// (the paper's `AdaptiveList`, threshold 80).
    Adaptive,
}

impl ListKind {
    /// Every list variant.
    pub const ALL: [ListKind; 4] = [
        ListKind::Array,
        ListKind::Linked,
        ListKind::HashArray,
        ListKind::Adaptive,
    ];
}

impl fmt::Display for ListKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ListKind::Array => "array",
            ListKind::Linked => "linked",
            ListKind::HashArray => "hasharray",
            ListKind::Adaptive => "adaptive",
        };
        f.write_str(s)
    }
}

impl FromStr for ListKind {
    type Err = ParseKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "array" => Ok(ListKind::Array),
            "linked" => Ok(ListKind::Linked),
            "hasharray" => Ok(ListKind::HashArray),
            "adaptive" => Ok(ListKind::Adaptive),
            _ => Err(ParseKindError {
                input: s.to_owned(),
                expected: "list kind",
            }),
        }
    }
}

/// Set variant identifiers (paper Table 2, "Sets").
///
/// # Examples
///
/// ```
/// use cs_collections::{LibraryProfile, SetKind};
///
/// let k = SetKind::Open(LibraryProfile::Koloboke);
/// assert_eq!(k.to_string(), "open-koloboke");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SetKind {
    /// Chained hash set (JDK `HashSet`).
    Chained,
    /// Open-addressing hash set with a library tuning profile.
    Open(LibraryProfile),
    /// Chained hash set with insertion-order links (JDK `LinkedHashSet`).
    Linked,
    /// Array-backed set with linear scans (fastutil/Google/NLP `ArraySet`).
    Array,
    /// Dense-storage hash set (VLSI `CompactHashSet`).
    Compact,
    /// Array-backed below the threshold, open-hash above (paper's
    /// `AdaptiveSet`, threshold 40).
    Adaptive,
}

impl SetKind {
    /// Every set variant (open-hash expanded per library profile).
    pub const ALL: [SetKind; 8] = [
        SetKind::Chained,
        SetKind::Open(LibraryProfile::Koloboke),
        SetKind::Open(LibraryProfile::Eclipse),
        SetKind::Open(LibraryProfile::FastUtil),
        SetKind::Linked,
        SetKind::Array,
        SetKind::Compact,
        SetKind::Adaptive,
    ];
}

impl fmt::Display for SetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetKind::Chained => f.write_str("chained"),
            SetKind::Open(p) => write!(f, "open-{p}"),
            SetKind::Linked => f.write_str("linkedhash"),
            SetKind::Array => f.write_str("array"),
            SetKind::Compact => f.write_str("compact"),
            SetKind::Adaptive => f.write_str("adaptive"),
        }
    }
}

impl FromStr for SetKind {
    type Err = ParseKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(profile) = s.strip_prefix("open-") {
            return Ok(SetKind::Open(profile.parse()?));
        }
        match s {
            "chained" => Ok(SetKind::Chained),
            "linkedhash" => Ok(SetKind::Linked),
            "array" => Ok(SetKind::Array),
            "compact" => Ok(SetKind::Compact),
            "adaptive" => Ok(SetKind::Adaptive),
            _ => Err(ParseKindError {
                input: s.to_owned(),
                expected: "set kind",
            }),
        }
    }
}

/// Map variant identifiers (paper Table 2, "Maps").
///
/// # Examples
///
/// ```
/// use cs_collections::MapKind;
///
/// assert!(MapKind::ALL.contains(&MapKind::Compact));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MapKind {
    /// Chained hash map (JDK `HashMap`).
    Chained,
    /// Open-addressing hash map with a library tuning profile.
    Open(LibraryProfile),
    /// Chained hash map with insertion-order links (JDK `LinkedHashMap`).
    Linked,
    /// Parallel-array map with linear scans (fastutil/Google/NLP `ArrayMap`).
    Array,
    /// Dense-storage hash map (VLSI `CompactHashMap`).
    Compact,
    /// Array-backed below the threshold, open-hash above (paper's
    /// `AdaptiveMap`, threshold 50).
    Adaptive,
}

impl MapKind {
    /// Every map variant (open-hash expanded per library profile).
    pub const ALL: [MapKind; 8] = [
        MapKind::Chained,
        MapKind::Open(LibraryProfile::Koloboke),
        MapKind::Open(LibraryProfile::Eclipse),
        MapKind::Open(LibraryProfile::FastUtil),
        MapKind::Linked,
        MapKind::Array,
        MapKind::Compact,
        MapKind::Adaptive,
    ];
}

impl fmt::Display for MapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapKind::Chained => f.write_str("chained"),
            MapKind::Open(p) => write!(f, "open-{p}"),
            MapKind::Linked => f.write_str("linkedhash"),
            MapKind::Array => f.write_str("array"),
            MapKind::Compact => f.write_str("compact"),
            MapKind::Adaptive => f.write_str("adaptive"),
        }
    }
}

impl FromStr for MapKind {
    type Err = ParseKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(profile) = s.strip_prefix("open-") {
            return Ok(MapKind::Open(profile.parse()?));
        }
        match s {
            "chained" => Ok(MapKind::Chained),
            "linkedhash" => Ok(MapKind::Linked),
            "array" => Ok(MapKind::Array),
            "compact" => Ok(MapKind::Compact),
            "adaptive" => Ok(MapKind::Adaptive),
            _ => Err(ParseKindError {
                input: s.to_owned(),
                expected: "map kind",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_kind_round_trips_through_display() {
        for kind in ListKind::ALL {
            assert_eq!(kind.to_string().parse::<ListKind>(), Ok(kind));
        }
    }

    #[test]
    fn set_kind_round_trips_through_display() {
        for kind in SetKind::ALL {
            assert_eq!(kind.to_string().parse::<SetKind>(), Ok(kind));
        }
    }

    #[test]
    fn map_kind_round_trips_through_display() {
        for kind in MapKind::ALL {
            assert_eq!(kind.to_string().parse::<MapKind>(), Ok(kind));
        }
    }

    #[test]
    fn unknown_names_error() {
        let err = "frobnicate".parse::<ListKind>().unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
        assert!("open-guava".parse::<SetKind>().is_err());
        assert!("".parse::<MapKind>().is_err());
    }

    #[test]
    fn profiles_order_by_density() {
        assert!(
            LibraryProfile::Koloboke.max_load_factor()
                < LibraryProfile::Eclipse.max_load_factor()
        );
        assert!(
            LibraryProfile::Eclipse.max_load_factor()
                < LibraryProfile::FastUtil.max_load_factor()
        );
    }

    #[test]
    fn all_arrays_have_no_duplicates() {
        let mut lists = ListKind::ALL.to_vec();
        lists.dedup();
        assert_eq!(lists.len(), ListKind::ALL.len());
        let mut sets = SetKind::ALL.to_vec();
        sets.sort();
        sets.dedup();
        assert_eq!(sets.len(), SetKind::ALL.len());
        let mut maps = MapKind::ALL.to_vec();
        maps.sort();
        maps.dedup();
        assert_eq!(maps.len(), MapKind::ALL.len());
    }
}
