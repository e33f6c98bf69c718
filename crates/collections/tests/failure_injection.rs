//! Failure injection: element types whose `Clone`, `Eq` or `Hash` panic
//! mid-operation must never corrupt a structure — after catching the panic,
//! the collection is still usable and internally consistent.
//!
//! This matters doubly here because the framework (`cs-core`) drains whole
//! collections through `drain_into` during instant transitions; a panic
//! leaking corruption would poison the destination variant too.

use std::cell::Cell;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

use cs_collections::{
    AdaptiveSet, ArrayList, ChainedHashMap, HashArrayList, LinkedList, OpenHashMap, SetOps,
};

thread_local! {
    /// Countdown: when it reaches zero, the next instrumented operation
    /// panics. Negative = disarmed.
    static FUSE: Cell<i64> = const { Cell::new(-1) };
}

fn arm(after: i64) {
    FUSE.with(|f| f.set(after));
}

fn disarm() {
    FUSE.with(|f| f.set(-1));
}

fn burn() {
    FUSE.with(|f| {
        let v = f.get();
        if v == 0 {
            f.set(-1);
            panic!("fuse burned");
        }
        if v > 0 {
            f.set(v - 1);
        }
    });
}

/// An element whose `Clone` trips the fuse.
#[derive(Debug, PartialEq, Eq, Hash)]
struct BombClone(i64);

impl Clone for BombClone {
    fn clone(&self) -> Self {
        burn();
        BombClone(self.0)
    }
}

/// An element whose `Hash` trips the fuse.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BombHash(i64);

impl Hash for BombHash {
    fn hash<H: Hasher>(&self, state: &mut H) {
        burn();
        self.0.hash(state);
    }
}

#[test]
fn array_list_survives_panicking_clone() {
    let mut list = ArrayList::new();
    for v in 0..10 {
        list.push(BombClone(v));
    }
    arm(3);
    let result = catch_unwind(AssertUnwindSafe(|| list.clone()));
    disarm();
    assert!(result.is_err(), "clone must have panicked");
    // Original is untouched and fully usable.
    assert_eq!(list.len(), 10);
    list.push(BombClone(10));
    assert_eq!(list.len(), 11);
    assert!(list.contains(&BombClone(5)));
}

#[test]
fn linked_list_survives_panicking_clone() {
    let mut list = LinkedList::new();
    for v in 0..10 {
        list.push_back(BombClone(v));
    }
    arm(5);
    let result = catch_unwind(AssertUnwindSafe(|| list.clone()));
    disarm();
    assert!(result.is_err());
    assert_eq!(list.len(), 10);
    assert_eq!(list.pop_front(), Some(BombClone(0)));
}

#[test]
fn hash_array_list_survives_panicking_clone_on_push() {
    // HashArrayList clones elements into its index; a panicking clone aborts
    // the push, and the list must stay consistent for further use.
    let mut list: HashArrayList<BombClone> = HashArrayList::new();
    for v in 0..8 {
        list.push(BombClone(v));
    }
    arm(0);
    let result = catch_unwind(AssertUnwindSafe(|| list.push(BombClone(99))));
    disarm();
    assert!(result.is_err());
    // All pre-panic elements still resolve through both array and index.
    for v in 0..8 {
        assert!(list.contains(&BombClone(v)), "{v} lost after panic");
    }
    list.push(BombClone(100));
    assert!(list.contains(&BombClone(100)));
}

#[test]
fn open_hash_map_survives_panicking_hash() {
    let mut map = OpenHashMap::new();
    for v in 0..20 {
        map.insert(BombHash(v), v);
    }
    arm(0);
    let result = catch_unwind(AssertUnwindSafe(|| map.insert(BombHash(99), 99)));
    disarm();
    assert!(result.is_err());
    assert_eq!(map.len(), 20);
    for v in 0..20 {
        assert_eq!(map.get(&BombHash(v)), Some(&v));
    }
    map.insert(BombHash(21), 21);
    assert_eq!(map.len(), 21);
}

#[test]
fn chained_hash_map_survives_panicking_hash_during_lookup() {
    let mut map = ChainedHashMap::new();
    for v in 0..20 {
        map.insert(BombHash(v), v);
    }
    arm(0);
    let result = catch_unwind(AssertUnwindSafe(|| map.get(&BombHash(3)).copied()));
    disarm();
    assert!(result.is_err());
    assert_eq!(map.len(), 20);
    assert_eq!(map.get(&BombHash(3)), Some(&3));
    assert_eq!(map.remove(&BombHash(3)), Some(3));
}

#[test]
fn adaptive_set_survives_panic_during_transition() {
    // Panic in the middle of the array -> hash instant transition: the set
    // may lose un-migrated elements (they were mid-move) but must not be
    // corrupted — len() and contains() stay coherent with each other.
    let mut set: AdaptiveSet<BombHash> = AdaptiveSet::with_threshold(8);
    for v in 0..8 {
        set.insert(BombHash(v));
    }
    assert!(set.is_array_backed());
    arm(4); // blow up mid-rehash
    let result = catch_unwind(AssertUnwindSafe(|| set.insert(BombHash(8))));
    disarm();
    assert!(result.is_err());
    let mut live = Vec::new();
    set.for_each(|v| live.push(v.0));
    assert_eq!(
        live.len(),
        SetOps::len(&set),
        "len out of sync with contents"
    );
    for v in live {
        assert!(set.contains(&BombHash(v)), "{v} listed but not found");
    }
    // Still usable after the wreck.
    set.insert(BombHash(50));
    assert!(set.contains(&BombHash(50)));
}

#[test]
fn drop_after_caught_panic_is_clean() {
    // Dropping a structure that panicked mid-operation must not double-drop
    // (would abort) or leak elements observably.
    use std::rc::Rc;
    let marker = Rc::new(());
    {
        let mut list = ArrayList::new();
        for _ in 0..5 {
            list.push((Rc::clone(&marker), BombClone(1)));
        }
        arm(2);
        let _ = catch_unwind(AssertUnwindSafe(|| list.clone()));
        disarm();
        // list dropped here
    }
    assert_eq!(
        Rc::strong_count(&marker),
        1,
        "elements leaked or double-freed"
    );
}
