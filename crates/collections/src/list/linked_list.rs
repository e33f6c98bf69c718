//! A doubly-linked list built on a slab arena, mirroring JDK `LinkedList`.

use std::fmt;
use std::mem;

use crate::traits::{HeapSize, ListOps};

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
enum Slot<T> {
    Occupied { value: T, prev: usize, next: usize },
    Free { next_free: usize },
}

/// A doubly-linked list with O(1) end operations and O(n) positional access.
///
/// Reproduces JDK `LinkedList`: every element lives in its own node carrying
/// two link words, so iteration is pointer chasing and `get(i)` walks from
/// the nearer end. Nodes are stored in a slab arena (`Vec` of slots with an
/// intrusive free list) — this keeps the per-node footprint that makes
/// `LinkedList` memory-hungry in the paper's models while avoiding raw
/// pointers.
///
/// # Examples
///
/// ```
/// use cs_collections::LinkedList;
///
/// let mut list = LinkedList::new();
/// list.push_back(2);
/// list.push_front(1);
/// list.push_back(3);
/// assert_eq!(list.iter().copied().collect::<Vec<_>>(), [1, 2, 3]);
/// assert_eq!(list.pop_front(), Some(1));
/// ```
pub struct LinkedList<T> {
    slots: Vec<Slot<T>>,
    head: usize,
    tail: usize,
    len: usize,
    free_head: usize,
    allocated: u64,
}

impl<T> LinkedList<T> {
    /// Creates an empty list without allocating.
    pub fn new() -> Self {
        LinkedList {
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
            free_head: NIL,
            allocated: 0,
        }
    }

    /// Number of elements in the list.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the list holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn alloc_slot(&mut self, value: T, prev: usize, next: usize) -> usize {
        if self.free_head != NIL {
            let idx = self.free_head;
            match self.slots[idx] {
                Slot::Free { next_free } => self.free_head = next_free,
                Slot::Occupied { .. } => unreachable!("free list points at occupied slot"),
            }
            self.slots[idx] = Slot::Occupied { value, prev, next };
            idx
        } else {
            let old_cap = self.slots.capacity();
            self.slots.push(Slot::Occupied { value, prev, next });
            let new_cap = self.slots.capacity();
            if new_cap != old_cap {
                self.allocated += ((new_cap - old_cap) * mem::size_of::<Slot<T>>()) as u64;
            }
            self.slots.len() - 1
        }
    }

    fn free_slot(&mut self, idx: usize) -> T {
        let slot = mem::replace(
            &mut self.slots[idx],
            Slot::Free {
                next_free: self.free_head,
            },
        );
        self.free_head = idx;
        match slot {
            Slot::Occupied { value, .. } => value,
            Slot::Free { .. } => unreachable!("freeing an already-free slot"),
        }
    }

    fn links(&self, idx: usize) -> (usize, usize) {
        match &self.slots[idx] {
            Slot::Occupied { prev, next, .. } => (*prev, *next),
            Slot::Free { .. } => unreachable!("walking into a free slot"),
        }
    }

    fn set_prev(&mut self, idx: usize, new_prev: usize) {
        if idx == NIL {
            return;
        }
        match &mut self.slots[idx] {
            Slot::Occupied { prev, .. } => *prev = new_prev,
            Slot::Free { .. } => unreachable!(),
        }
    }

    fn set_next(&mut self, idx: usize, new_next: usize) {
        if idx == NIL {
            return;
        }
        match &mut self.slots[idx] {
            Slot::Occupied { next, .. } => *next = new_next,
            Slot::Free { .. } => unreachable!(),
        }
    }

    /// Walks to the node at `index`, starting from the nearer end.
    fn node_at(&self, index: usize) -> usize {
        debug_assert!(index < self.len);
        if index <= self.len / 2 {
            let mut idx = self.head;
            for _ in 0..index {
                idx = self.links(idx).1;
            }
            idx
        } else {
            let mut idx = self.tail;
            for _ in 0..(self.len - 1 - index) {
                idx = self.links(idx).0;
            }
            idx
        }
    }

    /// Appends `value` at the front.
    pub fn push_front(&mut self, value: T) {
        let old_head = self.head;
        let idx = self.alloc_slot(value, NIL, old_head);
        self.set_prev(old_head, idx);
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
        self.len += 1;
    }

    /// Appends `value` at the back.
    pub fn push_back(&mut self, value: T) {
        let old_tail = self.tail;
        let idx = self.alloc_slot(value, old_tail, NIL);
        self.set_next(old_tail, idx);
        self.tail = idx;
        if self.head == NIL {
            self.head = idx;
        }
        self.len += 1;
    }

    fn unlink(&mut self, idx: usize) -> T {
        let (prev, next) = self.links(idx);
        if prev == NIL {
            self.head = next;
        } else {
            self.set_next(prev, next);
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.set_prev(next, prev);
        }
        self.len -= 1;
        self.free_slot(idx)
    }

    /// Removes and returns the first element.
    pub fn pop_front(&mut self) -> Option<T> {
        if self.head == NIL {
            return None;
        }
        Some(self.unlink(self.head))
    }

    /// Removes and returns the last element.
    pub fn pop_back(&mut self) -> Option<T> {
        if self.tail == NIL {
            return None;
        }
        Some(self.unlink(self.tail))
    }

    /// Inserts `value` at `index`, walking from the nearer end.
    ///
    /// # Panics
    ///
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, value: T) {
        assert!(
            index <= self.len,
            "insert index {index} out of bounds (len {})",
            self.len
        );
        if index == 0 {
            self.push_front(value);
        } else if index == self.len {
            self.push_back(value);
        } else {
            let after = self.node_at(index);
            let before = self.links(after).0;
            let idx = self.alloc_slot(value, before, after);
            self.set_next(before, idx);
            self.set_prev(after, idx);
            self.len += 1;
        }
    }

    /// Removes and returns the element at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn remove(&mut self, index: usize) -> T {
        assert!(
            index < self.len,
            "remove index {index} out of bounds (len {})",
            self.len
        );
        let idx = self.node_at(index);
        self.unlink(idx)
    }

    /// Returns a reference to the element at `index`, if in bounds.
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len {
            return None;
        }
        match &self.slots[self.node_at(index)] {
            Slot::Occupied { value, .. } => Some(value),
            Slot::Free { .. } => unreachable!(),
        }
    }

    /// Replaces the element at `index`, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: usize, value: T) -> T {
        assert!(
            index < self.len,
            "set index {index} out of bounds (len {})",
            self.len
        );
        let idx = self.node_at(index);
        match &mut self.slots[idx] {
            Slot::Occupied { value: v, .. } => mem::replace(v, value),
            Slot::Free { .. } => unreachable!(),
        }
    }

    /// Returns `true` if some element equals `value` (linear link walk).
    pub fn contains(&self, value: &T) -> bool
    where
        T: PartialEq,
    {
        self.iter().any(|v| v == value)
    }

    /// Returns an iterator over the elements in list order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            list: self,
            cursor: self.head,
            remaining: self.len,
        }
    }

    /// Removes every element, keeping the arena allocation.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
        self.free_head = NIL;
    }
}

impl<T> Default for LinkedList<T> {
    fn default() -> Self {
        LinkedList::new()
    }
}

impl<T: Clone> Clone for LinkedList<T> {
    fn clone(&self) -> Self {
        let mut out = LinkedList::new();
        for v in self.iter() {
            out.push_back(v.clone());
        }
        out
    }
}

impl<T: fmt::Debug> fmt::Debug for LinkedList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq> PartialEq for LinkedList<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<T: Eq> Eq for LinkedList<T> {}

impl<T> FromIterator<T> for LinkedList<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = LinkedList::new();
        for v in iter {
            list.push_back(v);
        }
        list
    }
}

impl<T> Extend<T> for LinkedList<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.push_back(v);
        }
    }
}

/// Borrowing iterator over a [`LinkedList`], following the links.
#[derive(Debug)]
pub struct Iter<'a, T> {
    list: &'a LinkedList<T>,
    cursor: usize,
    remaining: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        if self.cursor == NIL {
            return None;
        }
        match &self.list.slots[self.cursor] {
            Slot::Occupied { value, next, .. } => {
                self.cursor = *next;
                self.remaining -= 1;
                Some(value)
            }
            Slot::Free { .. } => unreachable!("iterator walked into a free slot"),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

impl<'a, T> IntoIterator for &'a LinkedList<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

impl<T> HeapSize for LinkedList<T> {
    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * mem::size_of::<Slot<T>>()
    }

    fn allocated_bytes(&self) -> u64 {
        self.allocated
    }
}

impl<T: Eq + std::hash::Hash + Clone> ListOps<T> for LinkedList<T> {
    fn len(&self) -> usize {
        self.len
    }
    fn push(&mut self, value: T) {
        self.push_back(value);
    }
    fn pop(&mut self) -> Option<T> {
        self.pop_back()
    }
    fn list_insert(&mut self, index: usize, value: T) {
        LinkedList::insert(self, index, value);
    }
    fn list_remove(&mut self, index: usize) -> T {
        LinkedList::remove(self, index)
    }
    fn get(&self, index: usize) -> Option<&T> {
        LinkedList::get(self, index)
    }
    fn set(&mut self, index: usize, value: T) -> T {
        LinkedList::set(self, index, value)
    }
    fn contains(&self, value: &T) -> bool {
        LinkedList::contains(self, value)
    }
    fn for_each_value(&self, f: &mut dyn FnMut(&T)) {
        for v in self.iter() {
            f(v);
        }
    }
    fn clear(&mut self) {
        LinkedList::clear(self);
    }
    fn drain_into(&mut self, sink: &mut dyn FnMut(T)) {
        while let Some(v) = self.pop_front() {
            sink(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_back_preserves_order() {
        let l: LinkedList<i32> = (0..10).collect();
        assert_eq!(
            l.iter().copied().collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn push_front_reverses_order() {
        let mut l = LinkedList::new();
        for i in 0..5 {
            l.push_front(i);
        }
        assert_eq!(l.iter().copied().collect::<Vec<_>>(), vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn pop_both_ends() {
        let mut l: LinkedList<i32> = (0..4).collect();
        assert_eq!(l.pop_front(), Some(0));
        assert_eq!(l.pop_back(), Some(3));
        assert_eq!(l.pop_front(), Some(1));
        assert_eq!(l.pop_back(), Some(2));
        assert_eq!(l.pop_back(), None);
        assert_eq!(l.pop_front(), None);
        assert!(l.is_empty());
    }

    #[test]
    fn insert_in_middle_links_correctly() {
        let mut l: LinkedList<i32> = (0..6).collect();
        l.insert(3, 99);
        assert_eq!(
            l.iter().copied().collect::<Vec<_>>(),
            vec![0, 1, 2, 99, 3, 4, 5]
        );
        assert_eq!(l.len(), 7);
    }

    #[test]
    fn remove_in_middle_relinks() {
        let mut l: LinkedList<i32> = (0..6).collect();
        assert_eq!(l.remove(3), 3);
        assert_eq!(l.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2, 4, 5]);
        // Removed slot is recycled by the free list.
        l.push_back(9);
        assert_eq!(l.len(), 6);
        assert_eq!(l.get(5), Some(&9));
    }

    #[test]
    fn node_walk_from_both_ends() {
        let l: LinkedList<i32> = (0..101).collect();
        assert_eq!(l.get(0), Some(&0));
        assert_eq!(l.get(50), Some(&50));
        assert_eq!(l.get(100), Some(&100));
        assert_eq!(l.get(101), None);
    }

    #[test]
    fn set_replaces_value() {
        let mut l: LinkedList<i32> = (0..3).collect();
        assert_eq!(l.set(2, 7), 2);
        assert_eq!(l.get(2), Some(&7));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn remove_out_of_bounds_panics() {
        let mut l: LinkedList<i32> = (0..3).collect();
        l.remove(5);
    }

    #[test]
    fn contains_walks_links() {
        let l: LinkedList<i32> = (0..20).collect();
        assert!(l.contains(&19));
        assert!(!l.contains(&20));
    }

    #[test]
    fn free_list_recycles_slots() {
        let mut l = LinkedList::new();
        for i in 0..100 {
            l.push_back(i);
        }
        let cap_before = l.slots.capacity();
        for _ in 0..50 {
            l.pop_front();
        }
        for i in 0..50 {
            l.push_back(i);
        }
        assert_eq!(l.slots.capacity(), cap_before, "slots must be recycled");
        assert_eq!(l.len(), 100);
    }

    #[test]
    fn heap_bytes_counts_node_overhead() {
        let mut l = LinkedList::new();
        l.push_back(1_u64);
        // Each slot carries at least the value plus two link words.
        assert!(l.heap_bytes() >= mem::size_of::<u64>() + 2 * mem::size_of::<usize>());
    }

    #[test]
    fn clear_resets_everything() {
        let mut l: LinkedList<i32> = (0..10).collect();
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l.pop_front(), None);
        l.push_back(1);
        assert_eq!(l.get(0), Some(&1));
    }

    #[test]
    fn equality_is_elementwise() {
        let a: LinkedList<i32> = (0..5).collect();
        let mut b: LinkedList<i32> = (1..5).collect();
        b.push_front(0);
        assert_eq!(a, b);
    }

    #[test]
    fn drain_into_front_to_back() {
        let mut l: LinkedList<i32> = (0..5).collect();
        let mut out = Vec::new();
        ListOps::drain_into(&mut l, &mut |v| out.push(v));
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert!(l.is_empty());
    }

    #[test]
    fn single_element_head_equals_tail() {
        let mut l = LinkedList::new();
        l.push_back(42);
        assert_eq!(l.head, l.tail);
        assert_eq!(l.pop_front(), Some(42));
        assert_eq!(l.head, NIL);
        assert_eq!(l.tail, NIL);
    }
}
