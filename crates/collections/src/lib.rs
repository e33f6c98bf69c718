//! # cs-collections
//!
//! The collection-variant substrate of the CollectionSwitch reproduction.
//!
//! The original paper (Costa & Andrzejak, CGO'18, Table 2) draws its
//! candidate variants from the JDK and from third-party Java libraries
//! (Koloboke, Eclipse Collections, fastutil, Google HTTP Client,
//! Stanford NLP, VLSI). This crate rebuilds every one of those variants from
//! scratch in Rust:
//!
//! | Abstraction | Variants |
//! |---|---|
//! | List | [`ArrayList`], [`LinkedList`], [`HashArrayList`], [`AdaptiveList`] |
//! | Set  | [`ChainedHashSet`], [`OpenHashSet`] (three library profiles), [`LinkedHashSet`], [`ArraySet`], [`CompactHashSet`], [`AdaptiveSet`] |
//! | Map  | [`ChainedHashMap`], [`OpenHashMap`] (three library profiles), [`LinkedHashMap`], [`ArrayMap`], [`CompactHashMap`], [`AdaptiveMap`] |
//!
//! Beyond Table 2, the crate also ships a sharded concurrent map
//! ([`ShardedHashMap`]): not a switch candidate, but the lock-striping
//! design the concurrent runtime's registry and handles are built on.
//!
//! Two cross-cutting facilities make the variants usable by the selection
//! framework:
//!
//! * [`HeapSize`] — exact byte accounting for the paper's two memory cost
//!   dimensions (current footprint and cumulative allocation).
//! * The [`AnyList`]/[`AnySet`]/[`AnyMap`] enums — closed-world dynamic
//!   dispatch over the variants, so an allocation context can instantiate a
//!   different variant for future instances without boxed trait objects.
//!
//! The *adaptive* variants ([`AdaptiveList`], [`AdaptiveSet`],
//! [`AdaptiveMap`]) implement the paper's instance-level adaptation: they
//! start on an array representation and switch to a hash representation when
//! the collection grows past a calibrated threshold (Table 1: list 80,
//! set 40, map 50).
//!
//! ## Example
//!
//! ```
//! use cs_collections::{AdaptiveSet, SetOps};
//!
//! let mut set = AdaptiveSet::new();
//! assert!(set.is_array_backed());
//! for v in 0..100 {
//!     set.insert(v);
//! }
//! // Crossed the default threshold of 40: now hash-backed.
//! assert!(!set.is_array_backed());
//! assert!(set.contains(&99));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
pub mod any;
pub mod hash;
pub mod kind;
pub mod list;
pub mod map;
pub mod set;
pub mod traits;

pub use adaptive::{AdaptiveList, AdaptiveMap, AdaptiveSet};
pub use any::{AnyList, AnyMap, AnySet};
pub use hash::{hash_one, FxBuildHasher, FxHasher};
pub use kind::{Abstraction, LibraryProfile, ListKind, MapKind, SetKind};
pub use list::{ArrayList, HashArrayList, LinkedList};
pub use map::{
    ArrayMap, ChainedHashMap, CompactHashMap, LinkedHashMap, OpenHashMap, ShardedHashMap,
};
pub use set::{ArraySet, ChainedHashSet, CompactHashSet, LinkedHashSet, OpenHashSet};
pub use traits::{HeapSize, ListOps, MapOps, SetOps};
