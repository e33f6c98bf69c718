//! Critical operations and their counters.

use std::fmt;

/// The paper's *critical operations* (§4.1.2): operations with at least
/// linear asymptotic cost in some variant, which are therefore the only ones
/// the performance models need to distinguish variants.
///
/// # Examples
///
/// ```
/// use cs_profile::OpKind;
///
/// assert_eq!(OpKind::ALL.len(), 4);
/// assert_eq!(OpKind::Middle.to_string(), "middle");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Adding elements to the collection (append / insert / put).
    Populate,
    /// Searching for an element (`contains`, `get(key)`).
    Contains,
    /// Traversing the whole collection.
    Iterate,
    /// Adding/removing an element in the middle (linear on array and linked
    /// implementations).
    Middle,
}

impl OpKind {
    /// All critical operations, in a fixed order usable for indexing.
    pub const ALL: [OpKind; 4] = [
        OpKind::Populate,
        OpKind::Contains,
        OpKind::Iterate,
        OpKind::Middle,
    ];

    /// Stable index of this operation in [`OpKind::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        match self {
            OpKind::Populate => 0,
            OpKind::Contains => 1,
            OpKind::Iterate => 2,
            OpKind::Middle => 3,
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::Populate => "populate",
            OpKind::Contains => "contains",
            OpKind::Iterate => "iterate",
            OpKind::Middle => "middle",
        };
        f.write_str(s)
    }
}

/// Per-operation execution counts (`N_op` in the paper's total-cost formula).
///
/// # Examples
///
/// ```
/// use cs_profile::{OpCounters, OpKind};
///
/// let mut c = OpCounters::new();
/// c.add(OpKind::Contains, 10);
/// c.increment(OpKind::Contains);
/// assert_eq!(c.count(OpKind::Contains), 11);
/// assert_eq!(c.total(), 11);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    counts: [u64; 4],
}

impl OpCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments the counter for `op` by one.
    #[inline]
    pub fn increment(&mut self, op: OpKind) {
        self.counts[op.index()] += 1;
    }

    /// Adds `n` to the counter for `op`.
    #[inline]
    pub fn add(&mut self, op: OpKind, n: u64) {
        self.counts[op.index()] += n;
    }

    /// The count for `op`.
    #[inline]
    pub fn count(&self, op: OpKind) -> u64 {
        self.counts[op.index()]
    }

    /// Total count over all operations.
    #[inline]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Returns counters scaled by `factor` (used for history decay).
    pub fn scaled(&self, factor: f64) -> OpCounters {
        let mut out = OpCounters::new();
        for (i, &n) in self.counts.iter().enumerate() {
            out.counts[i] = (n as f64 * factor) as u64;
        }
        out
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &OpCounters) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Iterates over `(op, count)` pairs with nonzero counts.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (OpKind, u64)> + '_ {
        OpKind::ALL
            .iter()
            .map(move |&op| (op, self.count(op)))
            .filter(|&(_, n)| n > 0)
    }
}

/// Per-instance recorder carried by a monitored collection handle, and by
/// each shard of a `cs-runtime` concurrent handle, behind the shard's lock.
///
/// Single-owner by design: a monitored handle is not shared, and a shard's
/// recorder is only touched under its lock, so plain fields beat atomics —
/// this is where the framework's "very low overhead" claim is won or lost
/// (paper Fig. 7).
///
/// # Examples
///
/// ```
/// use cs_profile::{OpKind, OpRecorder};
///
/// let mut rec = OpRecorder::new();
/// rec.record(OpKind::Populate);
/// rec.observe_size(3);
/// let profile = rec.finish();
/// assert_eq!(profile.max_size(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OpRecorder {
    counters: OpCounters,
    max_size: usize,
    elapsed_nanos: u64,
    contended: u64,
    alloc_count: u64,
    alloc_bytes: u64,
}

impl OpRecorder {
    /// Creates a recorder with zeroed state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one execution of `op`.
    #[inline]
    pub fn record(&mut self, op: OpKind) {
        self.counters.increment(op);
    }

    /// Updates the maximum observed collection size.
    #[inline]
    pub fn observe_size(&mut self, size: usize) {
        if size > self.max_size {
            self.max_size = size;
        }
    }

    /// Adds wall time spent inside critical operations. The selection
    /// guardrails use the accumulated nanos to verify that a switch
    /// realized the improvement the cost model predicted. Callers that
    /// sample the clock ([`ClockSampler`](crate::ClockSampler)) pass the
    /// sampled op's nanos already scaled to the ops it stands for.
    #[inline]
    pub fn add_nanos(&mut self, nanos: u64) {
        self.elapsed_nanos = self.elapsed_nanos.saturating_add(nanos);
    }

    /// Notes that the most recent op waited for a lock (a concurrent
    /// handle's contended shard); the count rides the profile into the
    /// runtime's per-site contention counter.
    #[inline]
    pub fn note_contended(&mut self) {
        self.contended += 1;
    }

    /// Current counters.
    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    /// Largest size observed so far.
    pub fn max_size(&self) -> usize {
        self.max_size
    }

    /// Wall time accumulated via [`OpRecorder::add_nanos`].
    pub fn elapsed_nanos(&self) -> u64 {
        self.elapsed_nanos
    }

    /// Adds heap churn attributed to critical operations: allocation events
    /// and requested bytes, measured per-site by `cs-heap` guards the same
    /// way sampled wall time is measured for [`add_nanos`](OpRecorder::add_nanos).
    #[inline]
    pub fn add_alloc(&mut self, count: u64, bytes: u64) {
        self.alloc_count = self.alloc_count.saturating_add(count);
        self.alloc_bytes = self.alloc_bytes.saturating_add(bytes);
    }

    /// Allocation events accumulated via [`OpRecorder::add_alloc`].
    pub fn alloc_count(&self) -> u64 {
        self.alloc_count
    }

    /// Allocation bytes accumulated via [`OpRecorder::add_alloc`].
    pub fn alloc_bytes(&self) -> u64 {
        self.alloc_bytes
    }

    /// Consumes the recorder into an immutable [`WorkloadProfile`](crate::WorkloadProfile).
    pub fn finish(self) -> crate::WorkloadProfile {
        crate::WorkloadProfile::with_nanos(self.counters, self.max_size, self.elapsed_nanos)
            .with_contended(self.contended)
            .with_alloc(self.alloc_count, self.alloc_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_are_stable_and_distinct() {
        let mut seen = [false; 4];
        for op in OpKind::ALL {
            assert!(!seen[op.index()]);
            seen[op.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn counters_accumulate() {
        let mut c = OpCounters::new();
        for _ in 0..5 {
            c.increment(OpKind::Iterate);
        }
        c.add(OpKind::Middle, 3);
        assert_eq!(c.count(OpKind::Iterate), 5);
        assert_eq!(c.count(OpKind::Middle), 3);
        assert_eq!(c.count(OpKind::Populate), 0);
        assert_eq!(c.total(), 8);
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = OpCounters::new();
        a.add(OpKind::Populate, 1);
        a.add(OpKind::Contains, 2);
        let mut b = OpCounters::new();
        b.add(OpKind::Contains, 5);
        a.merge(&b);
        assert_eq!(a.count(OpKind::Contains), 7);
        assert_eq!(a.count(OpKind::Populate), 1);
    }

    #[test]
    fn iter_nonzero_skips_zeroes() {
        let mut c = OpCounters::new();
        c.add(OpKind::Middle, 2);
        let pairs: Vec<_> = c.iter_nonzero().collect();
        assert_eq!(pairs, vec![(OpKind::Middle, 2)]);
    }

    #[test]
    fn recorder_tracks_running_max() {
        let mut r = OpRecorder::new();
        r.observe_size(5);
        r.observe_size(3);
        r.observe_size(9);
        r.observe_size(7);
        assert_eq!(r.max_size(), 9);
    }

    #[test]
    fn finish_carries_state_into_profile() {
        let mut r = OpRecorder::new();
        r.record(OpKind::Contains);
        r.record(OpKind::Contains);
        r.observe_size(4);
        r.add_nanos(250);
        r.note_contended();
        let p = r.finish();
        assert_eq!(p.count(OpKind::Contains), 2);
        assert_eq!(p.max_size(), 4);
        assert_eq!(p.elapsed_nanos(), 250);
        assert_eq!(p.contended(), 1);
    }

    #[test]
    fn alloc_accumulates_into_profile() {
        let mut r = OpRecorder::new();
        r.record(OpKind::Populate);
        r.add_alloc(3, 96);
        r.add_alloc(1, 32);
        assert_eq!(r.alloc_count(), 4);
        assert_eq!(r.alloc_bytes(), 128);
        let p = r.finish();
        assert_eq!(p.alloc_count(), 4);
        assert_eq!(p.alloc_bytes(), 128);
    }

    #[test]
    fn nanos_accumulate_and_saturate() {
        let mut r = OpRecorder::new();
        r.add_nanos(40);
        r.add_nanos(2);
        assert_eq!(r.elapsed_nanos(), 42);
        r.add_nanos(u64::MAX);
        assert_eq!(r.elapsed_nanos(), u64::MAX);
        assert_eq!(r.finish().elapsed_nanos(), u64::MAX);
    }
}
