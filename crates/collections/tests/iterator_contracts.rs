//! Iterator-contract tests across variants: `size_hint` exactness,
//! `ExactSizeIterator` agreement, and iteration/`for_each` equivalence —
//! the guarantees generic user code (and the framework's drain-based
//! transitions) lean on.

use cs_collections::{
    AnyList, AnyMap, AnySet, ArrayList, ChainedHashMap, CompactHashMap, LinkedHashMap, LinkedList,
    ListKind, ListOps, MapKind, MapOps, OpenHashMap, SetKind, SetOps,
};

fn check_exact_size<I: ExactSizeIterator>(mut it: I, expected: usize) {
    assert_eq!(it.len(), expected);
    assert_eq!(it.size_hint(), (expected, Some(expected)));
    let mut remaining = expected;
    while it.next().is_some() {
        remaining -= 1;
        assert_eq!(it.len(), remaining, "len must track consumption");
    }
    assert_eq!(remaining, 0);
    assert_eq!(it.size_hint(), (0, Some(0)));
}

#[test]
fn array_list_iter_is_exact() {
    let l: ArrayList<i64> = (0..37).collect();
    check_exact_size(l.iter(), 37);
    check_exact_size(l.into_iter(), 37);
}

#[test]
fn linked_list_iter_is_exact() {
    let l: LinkedList<i64> = (0..37).collect();
    check_exact_size(l.iter(), 37);
}

#[test]
fn hash_map_iters_are_exact() {
    let chained: ChainedHashMap<i64, i64> = (0..41).map(|k| (k, k)).collect();
    check_exact_size(chained.iter(), 41);
    let open: OpenHashMap<i64, i64> = (0..41).map(|k| (k, k)).collect();
    check_exact_size(open.iter(), 41);
    let linked: LinkedHashMap<i64, i64> = (0..41).map(|k| (k, k)).collect();
    check_exact_size(linked.iter(), 41);
    let compact: CompactHashMap<i64, i64> = (0..41).map(|k| (k, k)).collect();
    check_exact_size(compact.iter(), 41);
}

#[test]
fn iteration_after_removals_stays_exact() {
    let mut m: OpenHashMap<i64, i64> = (0..50).map(|k| (k, k)).collect();
    for k in (0..50).step_by(2) {
        m.remove(&k);
    }
    check_exact_size(m.iter(), 25);
}

#[test]
fn for_each_matches_concrete_iteration_for_every_list_kind() {
    for kind in ListKind::ALL {
        let mut l: AnyList<i64> = AnyList::new(kind);
        for v in 0..30 {
            ListOps::push(&mut l, v);
        }
        let mut via_for_each = Vec::new();
        l.for_each_value(&mut |v| via_for_each.push(*v));
        assert_eq!(via_for_each, (0..30).collect::<Vec<_>>(), "{kind}");
    }
}

#[test]
fn for_each_visits_each_set_element_exactly_once() {
    for kind in SetKind::ALL {
        let mut s: AnySet<i64> = AnySet::new(kind);
        for v in 0..40 {
            SetOps::insert(&mut s, v);
        }
        let mut seen = vec![0u8; 40];
        s.for_each_value(&mut |v| seen[*v as usize] += 1);
        assert!(seen.iter().all(|&n| n == 1), "{kind}: {seen:?}");
    }
}

#[test]
fn for_each_visits_each_map_entry_exactly_once() {
    for kind in MapKind::ALL {
        let mut m: AnyMap<i64, i64> = AnyMap::new(kind);
        for k in 0..40 {
            MapOps::map_insert(&mut m, k, -k);
        }
        let mut seen = vec![0u8; 40];
        m.for_each_entry(&mut |k, v| {
            assert_eq!(*v, -*k, "{kind}: wrong value for {k}");
            seen[*k as usize] += 1;
        });
        assert!(seen.iter().all(|&n| n == 1), "{kind}: {seen:?}");
    }
}

#[test]
fn drain_into_count_equals_len_for_every_variant() {
    for kind in ListKind::ALL {
        let mut l: AnyList<i64> = AnyList::new(kind);
        for v in 0..25 {
            ListOps::push(&mut l, v);
        }
        let mut n = 0;
        ListOps::drain_into(&mut l, &mut |_| n += 1);
        assert_eq!(n, 25, "{kind}");
        assert_eq!(ListOps::len(&l), 0, "{kind}");
    }
    for kind in SetKind::ALL {
        let mut s: AnySet<i64> = AnySet::new(kind);
        for v in 0..25 {
            SetOps::insert(&mut s, v);
        }
        let mut n = 0;
        SetOps::drain_into(&mut s, &mut |_| n += 1);
        assert_eq!(n, 25, "{kind}");
        assert_eq!(SetOps::len(&s), 0, "{kind}");
    }
    for kind in MapKind::ALL {
        let mut m: AnyMap<i64, i64> = AnyMap::new(kind);
        for k in 0..25 {
            MapOps::map_insert(&mut m, k, k);
        }
        let mut n = 0;
        MapOps::drain_into(&mut m, &mut |_, _| n += 1);
        assert_eq!(n, 25, "{kind}");
        assert_eq!(MapOps::len(&m), 0, "{kind}");
    }
}

#[test]
fn empty_iterators_are_well_behaved() {
    let l: ArrayList<i64> = ArrayList::new();
    check_exact_size(l.iter(), 0);
    let o: OpenHashMap<i64, i64> = OpenHashMap::new();
    check_exact_size(o.iter(), 0);
}
