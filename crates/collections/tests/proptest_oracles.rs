//! Property tests: every variant against a std-collection oracle.
//!
//! Each strategy generates a random operation script; the property asserts
//! that the variant under test and the std oracle produce identical results
//! and identical observable state after every step. Live-switch scripts
//! interleave `switched_to` with the same ops and compare the full contents
//! with the oracle after every step.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use cs_collections::{
    AdaptiveList, AdaptiveMap, AdaptiveSet, AnyList, AnyMap, AnySet, ArrayList, ArrayMap, ArraySet,
    ChainedHashMap, ChainedHashSet, CompactHashMap, CompactHashSet, HashArrayList, LibraryProfile,
    LinkedHashMap, LinkedHashSet, LinkedList, ListKind, ListOps, MapKind, MapOps, OpenHashMap,
    OpenHashSet, SetKind, SetOps,
};

#[derive(Debug, Clone)]
enum ListOp {
    Push(i64),
    Pop,
    Insert(usize, i64),
    Remove(usize),
    Get(usize),
    Set(usize, i64),
    Contains(i64),
    Clear,
}

fn list_op() -> impl Strategy<Value = ListOp> {
    prop_oneof![
        4 => (-50_i64..50).prop_map(ListOp::Push),
        1 => Just(ListOp::Pop),
        2 => (0usize..64, -50_i64..50).prop_map(|(i, v)| ListOp::Insert(i, v)),
        2 => (0usize..64).prop_map(ListOp::Remove),
        2 => (0usize..64).prop_map(ListOp::Get),
        1 => (0usize..64, -50_i64..50).prop_map(|(i, v)| ListOp::Set(i, v)),
        2 => (-50_i64..50).prop_map(ListOp::Contains),
        1 => Just(ListOp::Clear),
    ]
}

fn list_ops() -> impl Strategy<Value = Vec<ListOp>> {
    proptest::collection::vec(list_op(), 1..120)
}

/// Applies `op` to `list` and to its `oracle`, asserting that both return
/// the same result and hold as many elements.
fn apply_list_op<L: ListOps<i64>>(list: &mut L, oracle: &mut Vec<i64>, op: &ListOp) {
    match *op {
        ListOp::Push(v) => {
            list.push(v);
            oracle.push(v);
        }
        ListOp::Pop => {
            assert_eq!(list.pop(), oracle.pop());
        }
        ListOp::Insert(i, v) => {
            if i <= oracle.len() {
                list.list_insert(i, v);
                oracle.insert(i, v);
            }
        }
        ListOp::Remove(i) => {
            if i < oracle.len() {
                assert_eq!(list.list_remove(i), oracle.remove(i));
            }
        }
        ListOp::Get(i) => {
            assert_eq!(list.get(i), oracle.get(i));
        }
        ListOp::Set(i, v) => {
            if i < oracle.len() {
                assert_eq!(list.set(i, v), std::mem::replace(&mut oracle[i], v));
            }
        }
        ListOp::Contains(v) => {
            assert_eq!(list.contains(&v), oracle.contains(&v));
        }
        ListOp::Clear => {
            list.clear();
            oracle.clear();
        }
    }
    assert_eq!(list.len(), oracle.len());
}

/// The list's elements in iteration order.
fn list_values<L: ListOps<i64>>(list: &L) -> Vec<i64> {
    let mut values = Vec::new();
    list.for_each_value(&mut |v| values.push(*v));
    values
}

fn run_list_script<L: ListOps<i64>>(list: &mut L, ops: &[ListOp]) {
    let mut oracle: Vec<i64> = Vec::new();
    for op in ops {
        apply_list_op(list, &mut oracle, op);
    }
    assert_eq!(
        list_values(list),
        oracle,
        "final iteration order must match"
    );
}

proptest! {
    #[test]
    fn array_list_matches_vec(ops in list_ops()) {
        run_list_script(&mut ArrayList::new(), &ops);
    }

    #[test]
    fn linked_list_matches_vec(ops in list_ops()) {
        run_list_script(&mut LinkedList::new(), &ops);
    }

    #[test]
    fn hash_array_list_matches_vec(ops in list_ops()) {
        run_list_script(&mut HashArrayList::new(), &ops);
    }

    #[test]
    fn adaptive_list_matches_vec(ops in list_ops()) {
        // Small threshold so scripts regularly cross it.
        run_list_script(&mut AdaptiveList::with_threshold(8), &ops);
    }

    #[test]
    fn any_list_matches_vec(ops in list_ops(), kind_idx in 0usize..4) {
        run_list_script(&mut AnyList::new(ListKind::ALL[kind_idx]), &ops);
    }
}

#[derive(Debug, Clone)]
enum SetOp {
    Insert(i64),
    Remove(i64),
    Contains(i64),
    Clear,
}

fn set_op() -> impl Strategy<Value = SetOp> {
    prop_oneof![
        5 => (-40_i64..40).prop_map(SetOp::Insert),
        2 => (-40_i64..40).prop_map(SetOp::Remove),
        3 => (-40_i64..40).prop_map(SetOp::Contains),
        1 => Just(SetOp::Clear),
    ]
}

fn set_ops() -> impl Strategy<Value = Vec<SetOp>> {
    proptest::collection::vec(set_op(), 1..150)
}

/// Applies `op` to `set` and to its `oracle`, asserting that both return
/// the same result and hold as many elements.
fn apply_set_op<S: SetOps<i64>>(set: &mut S, oracle: &mut HashSet<i64>, op: &SetOp) {
    match *op {
        SetOp::Insert(v) => assert_eq!(set.insert(v), oracle.insert(v)),
        SetOp::Remove(v) => assert_eq!(set.set_remove(&v), oracle.remove(&v)),
        SetOp::Contains(v) => assert_eq!(set.contains(&v), oracle.contains(&v)),
        SetOp::Clear => {
            set.clear();
            oracle.clear();
        }
    }
    assert_eq!(set.len(), oracle.len());
}

/// The set's elements, sorted.
fn set_values<S: SetOps<i64>>(set: &S) -> Vec<i64> {
    let mut values = Vec::new();
    set.for_each_value(&mut |v| values.push(*v));
    values.sort_unstable();
    values
}

fn sorted<T: Ord>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut items: Vec<T> = items.into_iter().collect();
    items.sort_unstable();
    items
}

fn run_set_script<S: SetOps<i64>>(set: &mut S, ops: &[SetOp]) {
    let mut oracle = HashSet::new();
    for op in ops {
        apply_set_op(set, &mut oracle, op);
    }
    assert_eq!(set_values(set), sorted(oracle));
}

proptest! {
    #[test]
    fn chained_set_matches_std(ops in set_ops()) {
        run_set_script(&mut ChainedHashSet::new(), &ops);
    }

    #[test]
    fn open_set_matches_std(ops in set_ops(), profile_idx in 0usize..3) {
        run_set_script(
            &mut OpenHashSet::with_profile(LibraryProfile::ALL[profile_idx]),
            &ops,
        );
    }

    #[test]
    fn linked_set_matches_std(ops in set_ops()) {
        run_set_script(&mut LinkedHashSet::new(), &ops);
    }

    #[test]
    fn array_set_matches_std(ops in set_ops()) {
        run_set_script(&mut ArraySet::new(), &ops);
    }

    #[test]
    fn compact_set_matches_std(ops in set_ops()) {
        run_set_script(&mut CompactHashSet::new(), &ops);
    }

    #[test]
    fn adaptive_set_matches_std(ops in set_ops()) {
        run_set_script(&mut AdaptiveSet::with_threshold(6), &ops);
    }

    #[test]
    fn any_set_matches_std(ops in set_ops(), kind_idx in 0usize..8) {
        run_set_script(&mut AnySet::new(SetKind::ALL[kind_idx]), &ops);
    }
}

#[derive(Debug, Clone)]
enum MapOp {
    Insert(i64, i64),
    Remove(i64),
    Get(i64),
    ContainsKey(i64),
    Clear,
}

fn map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        5 => (-40_i64..40, -1000_i64..1000).prop_map(|(k, v)| MapOp::Insert(k, v)),
        2 => (-40_i64..40).prop_map(MapOp::Remove),
        3 => (-40_i64..40).prop_map(MapOp::Get),
        2 => (-40_i64..40).prop_map(MapOp::ContainsKey),
        1 => Just(MapOp::Clear),
    ]
}

fn map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    proptest::collection::vec(map_op(), 1..150)
}

/// Applies `op` to `map` and to its `oracle`, asserting that both return
/// the same result and hold as many entries.
fn apply_map_op<M: MapOps<i64, i64>>(map: &mut M, oracle: &mut HashMap<i64, i64>, op: &MapOp) {
    match *op {
        MapOp::Insert(k, v) => assert_eq!(map.map_insert(k, v), oracle.insert(k, v)),
        MapOp::Remove(k) => assert_eq!(map.map_remove(&k), oracle.remove(&k)),
        MapOp::Get(k) => assert_eq!(map.map_get(&k), oracle.get(&k)),
        MapOp::ContainsKey(k) => assert_eq!(map.contains_key(&k), oracle.contains_key(&k)),
        MapOp::Clear => {
            map.clear();
            oracle.clear();
        }
    }
    assert_eq!(map.len(), oracle.len());
}

/// The map's entries, sorted.
fn map_entries<M: MapOps<i64, i64>>(map: &M) -> Vec<(i64, i64)> {
    let mut entries = Vec::new();
    map.for_each_entry(&mut |k, v| entries.push((*k, *v)));
    entries.sort_unstable();
    entries
}

fn run_map_script<M: MapOps<i64, i64>>(map: &mut M, ops: &[MapOp]) {
    let mut oracle = HashMap::new();
    for op in ops {
        apply_map_op(map, &mut oracle, op);
    }
    assert_eq!(map_entries(map), sorted(oracle));
}

proptest! {
    #[test]
    fn chained_map_matches_std(ops in map_ops()) {
        run_map_script(&mut ChainedHashMap::new(), &ops);
    }

    #[test]
    fn open_map_matches_std(ops in map_ops(), profile_idx in 0usize..3) {
        run_map_script(
            &mut OpenHashMap::with_profile(LibraryProfile::ALL[profile_idx]),
            &ops,
        );
    }

    #[test]
    fn linked_map_matches_std(ops in map_ops()) {
        run_map_script(&mut LinkedHashMap::new(), &ops);
    }

    #[test]
    fn array_map_matches_std(ops in map_ops()) {
        run_map_script(&mut ArrayMap::new(), &ops);
    }

    #[test]
    fn compact_map_matches_std(ops in map_ops()) {
        run_map_script(&mut CompactHashMap::new(), &ops);
    }

    #[test]
    fn adaptive_map_matches_std(ops in map_ops()) {
        run_map_script(&mut AdaptiveMap::with_threshold(6), &ops);
    }

    #[test]
    fn any_map_matches_std(ops in map_ops(), kind_idx in 0usize..8) {
        run_map_script(&mut AnyMap::new(MapKind::ALL[kind_idx]), &ops);
    }
}

proptest! {
    /// Switching an AnyList between variants preserves the element sequence.
    #[test]
    fn any_list_switch_chain_preserves_sequence(
        values in proptest::collection::vec(-100_i64..100, 0..60),
        kinds in proptest::collection::vec(0usize..4, 1..6),
    ) {
        let mut list: AnyList<i64> = AnyList::default();
        for &v in &values {
            ListOps::push(&mut list, v);
        }
        for k in kinds {
            list = list.switched_to(ListKind::ALL[k]);
            let mut got = Vec::new();
            list.for_each_value(&mut |v| got.push(*v));
            prop_assert_eq!(&got, &values);
        }
    }

    /// Switching an AnySet between variants preserves the element set.
    #[test]
    fn any_set_switch_chain_preserves_elements(
        values in proptest::collection::vec(-100_i64..100, 0..60),
        kinds in proptest::collection::vec(0usize..8, 1..6),
    ) {
        let mut set: AnySet<i64> = AnySet::default();
        for &v in &values {
            SetOps::insert(&mut set, v);
        }
        let expected = sorted(values.iter().copied().collect::<HashSet<_>>());
        for k in kinds {
            set = set.switched_to(SetKind::ALL[k]);
            prop_assert_eq!(set_values(&set), expected.clone());
        }
    }

    /// Switching an AnyMap between variants preserves the entry set.
    #[test]
    fn any_map_switch_chain_preserves_entries(
        entries in proptest::collection::hash_map(-100_i64..100, -100_i64..100, 0..60),
        kinds in proptest::collection::vec(0usize..8, 1..6),
    ) {
        let mut map: AnyMap<i64, i64> = AnyMap::default();
        for (&k, &v) in &entries {
            MapOps::map_insert(&mut map, k, v);
        }
        for k in kinds {
            map = map.switched_to(MapKind::ALL[k]);
            prop_assert_eq!(MapOps::len(&map), entries.len());
            for (&k, &v) in &entries {
                prop_assert_eq!(map.map_get(&k), Some(&v));
            }
        }
    }

    /// Adaptive collections report the same footprint ordering the paper
    /// relies on: array phase is never larger than what the hash phase costs
    /// immediately after a transition with identical contents.
    #[test]
    fn adaptive_set_transition_monotonic_footprint(n in 1usize..40) {
        use cs_collections::HeapSize;
        let mut before = AdaptiveSet::with_threshold(1000);
        let mut after = AdaptiveSet::with_threshold(0);
        for v in 0..n as i64 {
            before.insert(v);
            after.insert(v);
        }
        prop_assert!(before.is_array_backed());
        prop_assert!(!after.is_array_backed());
        prop_assert!(before.heap_bytes() <= after.heap_bytes());
    }
}

/// One step of a live-switch script: an op, or a switch to the variant at
/// this index of the abstraction's `ALL` (the current variant included).
#[derive(Debug, Clone)]
enum Step<Op> {
    Op(Op),
    SwitchTo(usize),
}

/// Scripts that switch at any step, to any of `kinds` variants.
fn steps<Op: 'static>(
    op: impl Strategy<Value = Op> + 'static,
    kinds: usize,
) -> impl Strategy<Value = Vec<Step<Op>>> {
    let step = prop_oneof![
        6 => op.prop_map(Step::Op),
        1 => (0..kinds).prop_map(Step::SwitchTo),
    ];
    proptest::collection::vec(step, 1..150)
}

proptest! {
    /// Switches interleaved with ops keep an AnyList equal to its oracle,
    /// in iteration order, after every step.
    #[test]
    fn any_list_interleaved_switches_match_vec(
        start in 0..ListKind::ALL.len(),
        script in steps(list_op(), ListKind::ALL.len()),
    ) {
        let mut list: AnyList<i64> = AnyList::new(ListKind::ALL[start]);
        let mut oracle = Vec::new();
        for step in &script {
            match *step {
                Step::Op(ref op) => apply_list_op(&mut list, &mut oracle, op),
                Step::SwitchTo(k) => {
                    list = list.switched_to(ListKind::ALL[k]);
                    prop_assert_eq!(list.kind(), ListKind::ALL[k]);
                }
            }
            prop_assert_eq!(list_values(&list), oracle.clone());
        }
    }

    /// Switches interleaved with ops keep an AnySet equal to its oracle
    /// after every step.
    #[test]
    fn any_set_interleaved_switches_match_std(
        start in 0..SetKind::ALL.len(),
        script in steps(set_op(), SetKind::ALL.len()),
    ) {
        let mut set: AnySet<i64> = AnySet::new(SetKind::ALL[start]);
        let mut oracle = HashSet::new();
        for step in &script {
            match *step {
                Step::Op(ref op) => apply_set_op(&mut set, &mut oracle, op),
                Step::SwitchTo(k) => {
                    set = set.switched_to(SetKind::ALL[k]);
                    prop_assert_eq!(set.kind(), SetKind::ALL[k]);
                }
            }
            prop_assert_eq!(set_values(&set), sorted(oracle.iter().copied()));
        }
    }

    /// Switches interleaved with ops keep an AnyMap equal to its oracle
    /// after every step.
    #[test]
    fn any_map_interleaved_switches_match_std(
        start in 0..MapKind::ALL.len(),
        script in steps(map_op(), MapKind::ALL.len()),
    ) {
        let mut map: AnyMap<i64, i64> = AnyMap::new(MapKind::ALL[start]);
        let mut oracle = HashMap::new();
        for step in &script {
            match *step {
                Step::Op(ref op) => apply_map_op(&mut map, &mut oracle, op),
                Step::SwitchTo(k) => {
                    map = map.switched_to(MapKind::ALL[k]);
                    prop_assert_eq!(map.kind(), MapKind::ALL[k]);
                }
            }
            prop_assert_eq!(map_entries(&map), sorted(oracle.iter().map(|(&k, &v)| (k, v))));
        }
    }
}
