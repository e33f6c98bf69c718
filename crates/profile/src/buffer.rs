//! Mergeable local window buffers — the thread-local accumulation unit of
//! the concurrent runtime.
//!
//! An [`OpRecorder`](crate::OpRecorder) is carried by exactly one monitored
//! handle and reports once, on drop. Long-lived *concurrent* collections
//! need the dual shape: many threads each accumulate op events privately
//! and periodically fold their buffer into the site's shared profile. A
//! [`LocalWindowBuffer`] is that unit: plain fields (no atomics — it is
//! owned by one thread), cheap to record into, mergeable, and drainable
//! into a [`WorkloadProfile`] at an epoch boundary.

use crate::op::{OpCounters, OpKind};
use crate::WorkloadProfile;

/// A thread-local accumulation buffer for one site's op events.
///
/// Recording is branch-light field arithmetic; nothing is shared, so the
/// hot path performs zero shared-memory writes. [`LocalWindowBuffer::drain`]
/// empties the buffer into a [`WorkloadProfile`] suitable for
/// a site's profile sink, and [`LocalWindowBuffer::merge`] folds one buffer
/// into another (used when a thread retires its buffers).
///
/// # Examples
///
/// ```
/// use cs_profile::{LocalWindowBuffer, OpKind};
///
/// let mut buf = LocalWindowBuffer::new();
/// buf.record(OpKind::Populate, 10);
/// buf.record(OpKind::Contains, 10);
/// buf.add_nanos(250);
/// assert_eq!(buf.ops_buffered(), 2);
/// let profile = buf.drain();
/// assert_eq!(profile.total_ops(), 2);
/// assert_eq!(profile.elapsed_nanos(), 250);
/// assert!(buf.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct LocalWindowBuffer {
    counters: OpCounters,
    max_size: usize,
    nanos: u64,
    ops: u64,
    contended: u64,
    alloc_count: u64,
    alloc_bytes: u64,
}

impl LocalWindowBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one execution of `op` against a collection whose
    /// post-operation size is `size`.
    #[inline]
    pub fn record(&mut self, op: OpKind, size: usize) {
        self.counters.increment(op);
        self.ops += 1;
        if size > self.max_size {
            self.max_size = size;
        }
    }

    /// Adds measured (or sampled-and-scaled) wall time spent in critical
    /// operations.
    #[inline]
    pub fn add_nanos(&mut self, nanos: u64) {
        self.nanos = self.nanos.saturating_add(nanos);
    }

    /// Notes that the most recent operation observed contention (had to
    /// wait for a shard lock). The count rides the drained profile into
    /// the runtime's per-site contention counter.
    #[inline]
    pub fn note_contended(&mut self) {
        self.contended += 1;
    }

    /// Contended operations recorded since the last drain.
    #[inline]
    pub fn contended_buffered(&self) -> u64 {
        self.contended
    }

    /// Adds measured (or sampled-and-scaled) heap churn attributed to
    /// critical operations: allocation events and bytes requested.
    #[inline]
    pub fn add_alloc(&mut self, count: u64, bytes: u64) {
        self.alloc_count = self.alloc_count.saturating_add(count);
        self.alloc_bytes = self.alloc_bytes.saturating_add(bytes);
    }

    /// Allocation events buffered since the last drain.
    #[inline]
    pub fn alloc_count_buffered(&self) -> u64 {
        self.alloc_count
    }

    /// Allocation bytes buffered since the last drain.
    #[inline]
    pub fn alloc_bytes_buffered(&self) -> u64 {
        self.alloc_bytes
    }

    /// Operations recorded since the last drain.
    #[inline]
    pub fn ops_buffered(&self) -> u64 {
        self.ops
    }

    /// Returns `true` when nothing has been recorded since the last drain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops == 0 && self.nanos == 0 && self.contended == 0 && self.alloc_count == 0
    }

    /// Wall time buffered since the last drain.
    #[inline]
    pub fn nanos_buffered(&self) -> u64 {
        self.nanos
    }

    /// Folds `other` into this buffer, leaving `other` empty.
    pub fn merge(&mut self, other: &mut LocalWindowBuffer) {
        self.counters.merge(&other.counters);
        self.max_size = self.max_size.max(other.max_size);
        self.nanos = self.nanos.saturating_add(other.nanos);
        self.ops += other.ops;
        self.contended = self.contended.saturating_add(other.contended);
        self.alloc_count = self.alloc_count.saturating_add(other.alloc_count);
        self.alloc_bytes = self.alloc_bytes.saturating_add(other.alloc_bytes);
        *other = LocalWindowBuffer::default();
    }

    /// Empties the buffer into a [`WorkloadProfile`] (the epoch flush).
    pub fn drain(&mut self) -> WorkloadProfile {
        let out = WorkloadProfile::with_nanos(self.counters, self.max_size, self.nanos)
            .with_contended(self.contended)
            .with_alloc(self.alloc_count, self.alloc_bytes);
        *self = LocalWindowBuffer::default();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_counts_size_and_ops() {
        let mut buf = LocalWindowBuffer::new();
        assert!(buf.is_empty());
        buf.record(OpKind::Populate, 1);
        buf.record(OpKind::Populate, 5);
        buf.record(OpKind::Contains, 3);
        assert_eq!(buf.ops_buffered(), 3);
        let p = buf.drain();
        assert_eq!(p.count(OpKind::Populate), 2);
        assert_eq!(p.count(OpKind::Contains), 1);
        assert_eq!(p.max_size(), 5);
    }

    #[test]
    fn drain_resets_everything() {
        let mut buf = LocalWindowBuffer::new();
        buf.record(OpKind::Middle, 9);
        buf.add_nanos(100);
        let _ = buf.drain();
        assert!(buf.is_empty());
        assert_eq!(buf.ops_buffered(), 0);
        assert_eq!(buf.nanos_buffered(), 0);
        let p = buf.drain();
        assert_eq!(p.total_ops(), 0);
        assert_eq!(p.max_size(), 0);
    }

    #[test]
    fn merge_folds_and_empties_source() {
        let mut a = LocalWindowBuffer::new();
        a.record(OpKind::Contains, 4);
        a.add_nanos(10);
        let mut b = LocalWindowBuffer::new();
        b.record(OpKind::Iterate, 20);
        b.record(OpKind::Contains, 2);
        b.add_nanos(30);
        a.merge(&mut b);
        assert!(b.is_empty());
        assert_eq!(a.ops_buffered(), 3);
        assert_eq!(a.nanos_buffered(), 40);
        let p = a.drain();
        assert_eq!(p.count(OpKind::Contains), 2);
        assert_eq!(p.count(OpKind::Iterate), 1);
        assert_eq!(p.max_size(), 20);
    }

    #[test]
    fn contended_flows_through_merge_and_drain() {
        let mut a = LocalWindowBuffer::new();
        a.record(OpKind::Populate, 1);
        a.note_contended();
        let mut b = LocalWindowBuffer::new();
        b.record(OpKind::Populate, 1);
        b.note_contended();
        b.note_contended();
        a.merge(&mut b);
        assert_eq!(a.contended_buffered(), 3);
        assert_eq!(b.contended_buffered(), 0);
        let p = a.drain();
        assert_eq!(p.contended(), 3);
        assert_eq!(a.contended_buffered(), 0);
    }

    #[test]
    fn alloc_flows_through_merge_and_drain() {
        let mut a = LocalWindowBuffer::new();
        a.record(OpKind::Populate, 1);
        a.add_alloc(2, 128);
        let mut b = LocalWindowBuffer::new();
        b.record(OpKind::Populate, 1);
        b.add_alloc(3, 512);
        a.merge(&mut b);
        assert_eq!(a.alloc_count_buffered(), 5);
        assert_eq!(a.alloc_bytes_buffered(), 640);
        assert_eq!(b.alloc_bytes_buffered(), 0);
        let p = a.drain();
        assert_eq!(p.alloc_count(), 5);
        assert_eq!(p.alloc_bytes(), 640);
        assert_eq!(a.alloc_count_buffered(), 0);
        // alloc alone makes the buffer non-empty (a window can observe
        // churn without sampling any op's timing).
        let mut c = LocalWindowBuffer::new();
        c.add_alloc(1, 8);
        assert!(!c.is_empty());
    }

    #[test]
    fn nanos_saturate() {
        let mut buf = LocalWindowBuffer::new();
        buf.add_nanos(u64::MAX);
        buf.add_nanos(1);
        assert_eq!(buf.nanos_buffered(), u64::MAX);
    }
}
