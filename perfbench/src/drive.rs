//! The op-clocking wrapper every workload script drives its collections
//! through, in both configurations, so the harness cost is the same on
//! each side of a comparison.

use std::hash::Hash;

use cs_collections::{AnyList, AnyMap, AnySet, HeapSize};
use cs_core::{SwitchList, SwitchMap, SwitchSet};
use cs_workloads::drive::{DriveList, DriveMap, DriveSet};

use crate::trace::OpClock;

/// A collection instance as the runners see it: its footprint, and
/// whether the framework sampled it for monitoring.
pub trait Instance: HeapSize {
    /// `true` for a handle whose context is recording its ops.
    fn monitored(&self) -> bool;
}

impl<T: Eq + Hash + Clone> Instance for AnyList<T> {
    fn monitored(&self) -> bool {
        false
    }
}
impl<T: Eq + Hash + Clone> Instance for AnySet<T> {
    fn monitored(&self) -> bool {
        false
    }
}
impl<K: Eq + Hash + Clone, V: Clone> Instance for AnyMap<K, V> {
    fn monitored(&self) -> bool {
        false
    }
}
impl<T: Eq + Hash + Clone> Instance for SwitchList<T> {
    fn monitored(&self) -> bool {
        self.is_monitored()
    }
}
impl<T: Eq + Hash + Clone> Instance for SwitchSet<T> {
    fn monitored(&self) -> bool {
        self.is_monitored()
    }
}
impl<K: Eq + Hash + Clone, V: Clone> Instance for SwitchMap<K, V> {
    fn monitored(&self) -> bool {
        self.is_monitored()
    }
}

/// Routes every critical op of `inner` through `clock`.
#[derive(Debug)]
pub struct Timed<'a, C> {
    /// The driven collection.
    pub inner: &'a mut C,
    /// The clock counting (and sampling) its ops.
    pub clock: &'a mut OpClock,
}

impl<T: Eq + Hash + Clone, L: DriveList<T>> DriveList<T> for Timed<'_, L> {
    fn push(&mut self, value: T) {
        let inner = &mut *self.inner;
        self.clock.op(|| inner.push(value))
    }
    fn contains(&mut self, value: &T) -> bool {
        let inner = &mut *self.inner;
        self.clock.op(|| inner.contains(value))
    }
    fn insert_at(&mut self, index: usize, value: T) {
        let inner = &mut *self.inner;
        self.clock.op(|| inner.insert_at(index, value))
    }
    fn remove_at(&mut self, index: usize) -> T {
        let inner = &mut *self.inner;
        self.clock.op(|| inner.remove_at(index))
    }
    fn iterate(&mut self) -> usize {
        let inner = &mut *self.inner;
        self.clock.op(|| inner.iterate())
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }
    fn allocated_bytes(&self) -> u64 {
        self.inner.allocated_bytes()
    }
}

impl<T: Eq + Hash + Clone, S: DriveSet<T>> DriveSet<T> for Timed<'_, S> {
    fn insert(&mut self, value: T) -> bool {
        let inner = &mut *self.inner;
        self.clock.op(|| inner.insert(value))
    }
    fn contains(&mut self, value: &T) -> bool {
        let inner = &mut *self.inner;
        self.clock.op(|| inner.contains(value))
    }
    fn remove(&mut self, value: &T) -> bool {
        let inner = &mut *self.inner;
        self.clock.op(|| inner.remove(value))
    }
    fn iterate(&mut self) -> usize {
        let inner = &mut *self.inner;
        self.clock.op(|| inner.iterate())
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }
    fn allocated_bytes(&self) -> u64 {
        self.inner.allocated_bytes()
    }
}

impl<K: Eq + Hash + Clone, V: Clone, M: DriveMap<K, V>> DriveMap<K, V> for Timed<'_, M> {
    fn insert(&mut self, key: K, value: V) -> Option<V> {
        let inner = &mut *self.inner;
        self.clock.op(|| inner.insert(key, value))
    }
    fn get(&mut self, key: &K) -> bool {
        let inner = &mut *self.inner;
        self.clock.op(|| inner.get(key))
    }
    fn remove(&mut self, key: &K) -> Option<V> {
        let inner = &mut *self.inner;
        self.clock.op(|| inner.remove(key))
    }
    fn iterate(&mut self) -> usize {
        let inner = &mut *self.inner;
        self.clock.op(|| inner.iterate())
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }
    fn allocated_bytes(&self) -> u64 {
        self.inner.allocated_bytes()
    }
}
