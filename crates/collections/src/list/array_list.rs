//! A growable array list built from scratch, mirroring JDK `ArrayList`.

use std::fmt;
use std::mem::{self, MaybeUninit};
use std::ops::Index;
use std::ptr;

use crate::traits::{HeapSize, ListOps};

/// Default capacity allocated on the first insertion, like JDK `ArrayList`.
const DEFAULT_CAPACITY: usize = 10;

/// A contiguous growable list backed by a single heap buffer.
///
/// This is the reproduction of JDK `ArrayList`: lazily allocated backing
/// array of default capacity 10, growth factor 1.5 (`old + (old >> 1)`),
/// linear `contains`, O(1) amortized append, O(n) insertion/removal in the
/// middle.
///
/// # Examples
///
/// ```
/// use cs_collections::ArrayList;
///
/// let mut list: ArrayList<i32> = (0..5).collect();
/// list.insert(2, 99);
/// assert_eq!(list.remove(0), 0);
/// assert_eq!(list.iter().copied().collect::<Vec<_>>(), [1, 99, 2, 3, 4]);
/// ```
pub struct ArrayList<T> {
    buf: Box<[MaybeUninit<T>]>,
    len: usize,
    allocated: u64,
}

impl<T> ArrayList<T> {
    /// Creates an empty list without allocating.
    ///
    /// # Examples
    ///
    /// ```
    /// use cs_collections::ArrayList;
    ///
    /// let list: ArrayList<u8> = ArrayList::new();
    /// assert!(list.is_empty());
    /// assert_eq!(list.capacity(), 0);
    /// ```
    pub fn new() -> Self {
        ArrayList {
            buf: Box::new([]),
            len: 0,
            allocated: 0,
        }
    }

    /// Creates an empty list with space for at least `capacity` elements.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut list = ArrayList::new();
        if capacity > 0 {
            list.reallocate(capacity);
        }
        list
    }

    /// Number of elements the list can hold without reallocating.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.buf.len()
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

    #[inline]
    fn as_ptr(&self) -> *const T {
        self.buf.as_ptr() as *const T
    }

    #[inline]
    fn as_mut_ptr(&mut self) -> *mut T {
        self.buf.as_mut_ptr() as *mut T
    }

    /// Returns the initialized prefix as a slice.
    ///
    /// # Examples
    ///
    /// ```
    /// use cs_collections::ArrayList;
    ///
    /// let list: ArrayList<i32> = (0..3).collect();
    /// assert_eq!(list.as_slice(), &[0, 1, 2]);
    /// ```
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: the first `len` slots are always initialized.
        unsafe { std::slice::from_raw_parts(self.as_ptr(), self.len) }
    }

    /// Returns the initialized prefix as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        let len = self.len;
        // SAFETY: the first `len` slots are always initialized.
        unsafe { std::slice::from_raw_parts_mut(self.as_mut_ptr(), len) }
    }

    /// Moves the buffer to a new allocation of exactly `new_cap` slots.
    fn reallocate(&mut self, new_cap: usize) {
        debug_assert!(new_cap >= self.len);
        let mut new_buf: Box<[MaybeUninit<T>]> =
            (0..new_cap).map(|_| MaybeUninit::uninit()).collect();
        // SAFETY: source and destination do not overlap; the first `len`
        // slots of `buf` are initialized and `new_cap >= len`.
        unsafe {
            ptr::copy_nonoverlapping(self.buf.as_ptr(), new_buf.as_mut_ptr(), self.len);
        }
        // The old buffer's slots are now logically moved out; dropping the
        // old Box must not drop elements (MaybeUninit never drops contents).
        self.buf = new_buf;
        self.allocated += (new_cap * mem::size_of::<T>()) as u64;
    }

    /// Ensures room for one more element, applying the ×1.5 growth policy.
    fn grow_for_push(&mut self) {
        if self.len == self.capacity() {
            let new_cap = if self.capacity() == 0 {
                DEFAULT_CAPACITY
            } else {
                self.capacity() + (self.capacity() >> 1)
            };
            self.reallocate(new_cap.max(self.len + 1));
        }
    }

    /// Reserves capacity for at least `additional` more elements.
    pub fn reserve(&mut self, additional: usize) {
        let needed = self.len + additional;
        if needed > self.capacity() {
            let grown = self.capacity() + (self.capacity() >> 1);
            self.reallocate(needed.max(grown).max(DEFAULT_CAPACITY));
        }
    }

    /// Appends `value` to the end of the list.
    ///
    /// # Examples
    ///
    /// ```
    /// use cs_collections::ArrayList;
    ///
    /// let mut list = ArrayList::new();
    /// list.push("a");
    /// assert_eq!(list.len(), 1);
    /// ```
    pub fn push(&mut self, value: T) {
        self.grow_for_push();
        self.buf[self.len].write(value);
        self.len += 1;
    }

    /// Removes and returns the last element, or `None` if empty.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        // SAFETY: slot `len` was initialized; we just marked it unused.
        Some(unsafe { self.buf[self.len].assume_init_read() })
    }

    /// Inserts `value` at `index`, shifting all later elements right.
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
        self.grow_for_push();
        // SAFETY: capacity > len after grow_for_push; shifting the
        // initialized tail right by one stays in bounds.
        unsafe {
            let p = self.as_mut_ptr().add(index);
            ptr::copy(p, p.add(1), self.len - index);
            ptr::write(p, value);
        }
        self.len += 1;
    }

    /// Removes and returns the element at `index`, shifting later elements
    /// left.
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
        // SAFETY: `index < len`, so the slot is initialized; the shift copies
        // initialized slots left over the vacated one.
        unsafe {
            let p = self.as_mut_ptr().add(index);
            let value = ptr::read(p);
            ptr::copy(p.add(1), p, self.len - index - 1);
            self.len -= 1;
            value
        }
    }

    /// Returns a reference to the element at `index`, if in bounds.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&T> {
        self.as_slice().get(index)
    }

    /// Returns a mutable reference to the element at `index`, if in bounds.
    #[inline]
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        self.as_mut_slice().get_mut(index)
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
        mem::replace(&mut self.as_mut_slice()[index], value)
    }

    /// Returns `true` if some element equals `value` (linear scan).
    pub fn contains(&self, value: &T) -> bool
    where
        T: PartialEq,
    {
        self.as_slice().contains(value)
    }

    /// Returns an iterator over the elements.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            inner: self.as_slice().iter(),
        }
    }

    /// Drops every element, keeping the allocation.
    pub fn clear(&mut self) {
        let elems: *mut [T] = self.as_mut_slice();
        // Set len first so a panicking Drop cannot cause double-drops.
        self.len = 0;
        // SAFETY: the slice covered exactly the initialized prefix.
        unsafe { ptr::drop_in_place(elems) };
    }
}

impl<T> Default for ArrayList<T> {
    fn default() -> Self {
        ArrayList::new()
    }
}

impl<T> Drop for ArrayList<T> {
    fn drop(&mut self) {
        self.clear();
    }
}

impl<T: Clone> Clone for ArrayList<T> {
    fn clone(&self) -> Self {
        let mut out = ArrayList::with_capacity(self.len);
        for v in self.iter() {
            out.push(v.clone());
        }
        out
    }
}

impl<T: fmt::Debug> fmt::Debug for ArrayList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq> PartialEq for ArrayList<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq> Eq for ArrayList<T> {}

impl<T> Index<usize> for ArrayList<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        &self.as_slice()[index]
    }
}

impl<T> FromIterator<T> for ArrayList<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut list = ArrayList::with_capacity(iter.size_hint().0);
        for v in iter {
            list.push(v);
        }
        list
    }
}

impl<T> Extend<T> for ArrayList<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

/// Borrowing iterator over an [`ArrayList`].
#[derive(Debug, Clone)]
pub struct Iter<'a, T> {
    inner: std::slice::Iter<'a, T>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    #[inline]
    fn next(&mut self) -> Option<&'a T> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

/// Owning iterator over an [`ArrayList`].
#[derive(Debug)]
pub struct IntoIter<T> {
    list: ArrayList<T>,
    front: usize,
}

impl<T> Iterator for IntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if self.front >= self.list.len {
            return None;
        }
        let i = self.front;
        self.front += 1;
        // SAFETY: each slot in [front, len) is read exactly once; Drop below
        // only drops the unread remainder.
        Some(unsafe { self.list.buf[i].assume_init_read() })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.list.len - self.front;
        (rem, Some(rem))
    }
}

impl<T> ExactSizeIterator for IntoIter<T> {}

impl<T> Drop for IntoIter<T> {
    fn drop(&mut self) {
        // Drop the unread tail, then tell the list it is empty so its own
        // Drop does not double-drop.
        let (front, len) = (self.front, self.list.len);
        self.list.len = 0;
        for i in front..len {
            // SAFETY: slots in [front, len) were initialized and not yet read.
            unsafe { self.list.buf[i].assume_init_drop() };
        }
    }
}

impl<T> IntoIterator for ArrayList<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;

    fn into_iter(self) -> IntoIter<T> {
        IntoIter {
            list: self,
            front: 0,
        }
    }
}

impl<'a, T> IntoIterator for &'a ArrayList<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

impl<T> HeapSize for ArrayList<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * mem::size_of::<T>()
    }

    fn allocated_bytes(&self) -> u64 {
        self.allocated
    }
}

impl<T: Eq + std::hash::Hash + Clone> ListOps<T> for ArrayList<T> {
    fn len(&self) -> usize {
        self.len
    }
    fn push(&mut self, value: T) {
        ArrayList::push(self, value);
    }
    fn pop(&mut self) -> Option<T> {
        ArrayList::pop(self)
    }
    fn list_insert(&mut self, index: usize, value: T) {
        ArrayList::insert(self, index, value);
    }
    fn list_remove(&mut self, index: usize) -> T {
        ArrayList::remove(self, index)
    }
    fn get(&self, index: usize) -> Option<&T> {
        ArrayList::get(self, index)
    }
    fn set(&mut self, index: usize, value: T) -> T {
        ArrayList::set(self, index, value)
    }
    fn contains(&self, value: &T) -> bool {
        ArrayList::contains(self, value)
    }
    fn for_each_value(&self, f: &mut dyn FnMut(&T)) {
        for v in self.iter() {
            f(v);
        }
    }
    fn clear(&mut self) {
        ArrayList::clear(self);
    }
    fn drain_into(&mut self, sink: &mut dyn FnMut(T)) {
        let list = mem::take(self);
        for v in list {
            sink(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn starts_unallocated() {
        let l: ArrayList<u64> = ArrayList::new();
        assert_eq!(l.capacity(), 0);
        assert_eq!(l.heap_bytes(), 0);
        assert_eq!(l.allocated_bytes(), 0);
    }

    #[test]
    fn first_push_allocates_default_capacity() {
        let mut l = ArrayList::new();
        l.push(1_u64);
        assert_eq!(l.capacity(), 10);
        assert_eq!(l.heap_bytes(), 10 * 8);
    }

    #[test]
    fn growth_is_one_point_five() {
        let mut l = ArrayList::new();
        for i in 0..11_u64 {
            l.push(i);
        }
        assert_eq!(l.capacity(), 15);
        for i in 11..16_u64 {
            l.push(i);
        }
        assert_eq!(l.capacity(), 22);
    }

    #[test]
    fn allocated_bytes_accumulate_across_growth() {
        let mut l = ArrayList::new();
        for i in 0..16_u64 {
            l.push(i);
        }
        // 10-slot then 15-slot then 22-slot buffers were allocated.
        assert_eq!(l.allocated_bytes(), (10 + 15 + 22) * 8);
        assert_eq!(l.heap_bytes(), 22 * 8);
    }

    #[test]
    fn push_pop_round_trip() {
        let mut l = ArrayList::new();
        for i in 0..100 {
            l.push(i);
        }
        for i in (0..100).rev() {
            assert_eq!(l.pop(), Some(i));
        }
        assert_eq!(l.pop(), None);
    }

    #[test]
    fn insert_shifts_right() {
        let mut l: ArrayList<i32> = (0..5).collect();
        l.insert(0, -1);
        l.insert(6, 99);
        l.insert(3, 42);
        assert_eq!(l.as_slice(), &[-1, 0, 1, 42, 2, 3, 4, 99]);
    }

    #[test]
    fn remove_shifts_left() {
        let mut l: ArrayList<i32> = (0..5).collect();
        assert_eq!(l.remove(2), 2);
        assert_eq!(l.remove(0), 0);
        assert_eq!(l.as_slice(), &[1, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn insert_past_len_panics() {
        let mut l: ArrayList<i32> = ArrayList::new();
        l.insert(1, 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn remove_at_len_panics() {
        let mut l: ArrayList<i32> = (0..3).collect();
        l.remove(3);
    }

    #[test]
    fn set_replaces_and_returns_old() {
        let mut l: ArrayList<i32> = (0..3).collect();
        assert_eq!(l.set(1, 9), 1);
        assert_eq!(l.as_slice(), &[0, 9, 2]);
    }

    #[test]
    fn contains_scans_linearly() {
        let l: ArrayList<i32> = (0..50).collect();
        assert!(l.contains(&49));
        assert!(!l.contains(&50));
    }

    #[test]
    fn clear_drops_elements() {
        let marker = Rc::new(());
        let mut l = ArrayList::new();
        for _ in 0..5 {
            l.push(Rc::clone(&marker));
        }
        assert_eq!(Rc::strong_count(&marker), 6);
        l.clear();
        assert_eq!(Rc::strong_count(&marker), 1);
        assert!(l.is_empty());
    }

    #[test]
    fn drop_releases_elements() {
        let marker = Rc::new(());
        {
            let mut l = ArrayList::new();
            for _ in 0..5 {
                l.push(Rc::clone(&marker));
            }
        }
        assert_eq!(Rc::strong_count(&marker), 1);
    }

    #[test]
    fn into_iter_partial_consumption_drops_rest() {
        let marker = Rc::new(());
        let mut l = ArrayList::new();
        for _ in 0..5 {
            l.push(Rc::clone(&marker));
        }
        let mut it = l.into_iter();
        let _first = it.next().unwrap();
        drop(it);
        drop(_first);
        assert_eq!(Rc::strong_count(&marker), 1);
    }

    #[test]
    fn clone_is_deep() {
        let mut a: ArrayList<i32> = (0..4).collect();
        let b = a.clone();
        a.push(9);
        assert_eq!(b.len(), 4);
        assert_eq!(b.as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn equality_compares_contents() {
        let a: ArrayList<i32> = (0..4).collect();
        let mut b: ArrayList<i32> = ArrayList::with_capacity(100);
        b.extend(0..4);
        assert_eq!(a, b);
        b.push(4);
        assert_ne!(a, b);
    }

    #[test]
    fn indexing_works() {
        let l: ArrayList<i32> = (10..13).collect();
        assert_eq!(l[0], 10);
        assert_eq!(l[2], 12);
    }

    #[test]
    fn iter_is_exact_size() {
        let l: ArrayList<i32> = (0..7).collect();
        let it = l.iter();
        assert_eq!(it.len(), 7);
        assert_eq!(it.copied().sum::<i32>(), 21);
    }

    #[test]
    fn listops_drain_into_empties_in_order() {
        let mut l: ArrayList<i32> = (0..5).collect();
        let mut out = Vec::new();
        ListOps::drain_into(&mut l, &mut |v| out.push(v));
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert!(l.is_empty());
    }

    #[test]
    fn with_capacity_preallocates() {
        let l: ArrayList<u32> = ArrayList::with_capacity(64);
        assert!(l.capacity() >= 64);
        assert_eq!(l.len(), 0);
    }

    #[test]
    fn zero_sized_elements_work() {
        let mut l = ArrayList::new();
        for _ in 0..1000 {
            l.push(());
        }
        assert_eq!(l.len(), 1000);
        assert_eq!(l.heap_bytes(), 0);
        assert_eq!(l.pop(), Some(()));
        assert_eq!(l.len(), 999);
    }
}
