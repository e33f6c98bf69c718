//! The workload profile of a finished collection instance.

use crate::op::{OpCounters, OpKind};

/// The workload observed over one monitored collection instance's lifetime:
/// per-operation counts `N_op` plus the maximum size `s` the instance reached
/// (the `W` of the paper's total-cost formula, §3.1.1).
///
/// # Examples
///
/// ```
/// use cs_profile::{OpCounters, OpKind, WorkloadProfile};
///
/// let mut counters = OpCounters::new();
/// counters.add(OpKind::Populate, 100);
/// counters.add(OpKind::Contains, 1000);
/// let profile = WorkloadProfile::new(counters, 100);
/// assert!(profile.is_lookup_heavy());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkloadProfile {
    counters: OpCounters,
    max_size: usize,
    elapsed_nanos: u64,
    contended: u64,
    alloc_count: u64,
    alloc_bytes: u64,
}

impl WorkloadProfile {
    /// Builds a profile from operation counters and a maximum size.
    pub fn new(counters: OpCounters, max_size: usize) -> Self {
        WorkloadProfile {
            counters,
            max_size,
            elapsed_nanos: 0,
            contended: 0,
            alloc_count: 0,
            alloc_bytes: 0,
        }
    }

    /// Builds a profile that also carries measured wall time spent in
    /// critical operations (what monitored handles record).
    pub fn with_nanos(counters: OpCounters, max_size: usize, elapsed_nanos: u64) -> Self {
        WorkloadProfile {
            counters,
            max_size,
            elapsed_nanos,
            contended: 0,
            alloc_count: 0,
            alloc_bytes: 0,
        }
    }

    /// Sets the number of operations that observed contention (found their
    /// shard lock held) and returns `self` — builder style, so existing
    /// call sites keep their two-/three-argument constructors.
    pub fn with_contended(mut self, contended: u64) -> Self {
        self.contended = contended;
        self
    }

    /// Sets the heap churn attributed to this profile's operations —
    /// allocation events and requested bytes, measured per-site by
    /// `cs-heap` attribution guards — and returns `self`, builder style
    /// like [`with_contended`](WorkloadProfile::with_contended).
    pub fn with_alloc(mut self, alloc_count: u64, alloc_bytes: u64) -> Self {
        self.alloc_count = alloc_count;
        self.alloc_bytes = alloc_bytes;
        self
    }

    /// Allocation events attributed to this profile's operations.
    #[inline]
    pub fn alloc_count(&self) -> u64 {
        self.alloc_count
    }

    /// Allocation bytes attributed to this profile's operations (requested
    /// sizes — the churn measure, not live footprint).
    #[inline]
    pub fn alloc_bytes(&self) -> u64 {
        self.alloc_bytes
    }

    /// Mean allocation bytes per operation; `0.0` when the profile is
    /// empty. The per-site gauge the alloc-rate dimension selects on.
    pub fn alloc_bytes_per_op(&self) -> f64 {
        let total = self.total_ops();
        if total == 0 {
            0.0
        } else {
            self.alloc_bytes as f64 / total as f64
        }
    }

    /// Operations that observed contention. Always ≤ [`total_ops`]
    /// (each op reports the flag at most once). A plain observable, summed
    /// into the runtime's per-site contention counter; no cost model
    /// prices it.
    ///
    /// [`total_ops`]: WorkloadProfile::total_ops
    #[inline]
    pub fn contended(&self) -> u64 {
        self.contended
    }

    /// Measured wall time (nanoseconds) spent in critical operations over
    /// the instance's lifetime; 0 when timing was not recorded.
    #[inline]
    pub fn elapsed_nanos(&self) -> u64 {
        self.elapsed_nanos
    }

    /// The count for `op` over the instance's lifetime.
    #[inline]
    pub fn count(&self, op: OpKind) -> u64 {
        self.counters.count(op)
    }

    /// The full counter set.
    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    /// Maximum size the instance reached.
    #[inline]
    pub fn max_size(&self) -> usize {
        self.max_size
    }

    /// Total number of critical operations executed.
    pub fn total_ops(&self) -> u64 {
        self.counters.total()
    }

    /// `true` when lookups dominate mutations — the situation where
    /// hash-indexed variants pay off.
    pub fn is_lookup_heavy(&self) -> bool {
        self.count(OpKind::Contains) > self.total_ops() / 2
    }

    /// Merges another profile into this one, keeping the larger max size.
    /// Used when summing workload over all monitored instances of a context.
    pub fn merge(&mut self, other: &WorkloadProfile) {
        self.counters.merge(&other.counters);
        self.max_size = self.max_size.max(other.max_size);
        self.elapsed_nanos = self.elapsed_nanos.saturating_add(other.elapsed_nanos);
        self.contended = self.contended.saturating_add(other.contended);
        self.alloc_count = self.alloc_count.saturating_add(other.alloc_count);
        self.alloc_bytes = self.alloc_bytes.saturating_add(other.alloc_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(pop: u64, con: u64, max: usize) -> WorkloadProfile {
        let mut c = OpCounters::new();
        c.add(OpKind::Populate, pop);
        c.add(OpKind::Contains, con);
        WorkloadProfile::new(c, max)
    }

    #[test]
    fn lookup_heavy_threshold() {
        assert!(profile(10, 11, 5).is_lookup_heavy());
        assert!(!profile(10, 10, 5).is_lookup_heavy());
        assert!(!profile(100, 5, 5).is_lookup_heavy());
    }

    #[test]
    fn merge_sums_counts_and_maxes_size() {
        let mut a = profile(5, 10, 30);
        let b = profile(2, 3, 80);
        a.merge(&b);
        assert_eq!(a.count(OpKind::Populate), 7);
        assert_eq!(a.count(OpKind::Contains), 13);
        assert_eq!(a.max_size(), 80);
    }

    #[test]
    fn default_is_empty() {
        let p = WorkloadProfile::default();
        assert_eq!(p.total_ops(), 0);
        assert_eq!(p.max_size(), 0);
        assert_eq!(p.elapsed_nanos(), 0);
        assert!(!p.is_lookup_heavy());
    }

    #[test]
    fn contended_merges() {
        let mut a = profile(10, 10, 5).with_contended(4);
        let b = profile(20, 20, 5).with_contended(6);
        a.merge(&b);
        assert_eq!(a.contended(), 10);
        assert_eq!(WorkloadProfile::default().contended(), 0);
    }

    #[test]
    fn alloc_merges_and_rates() {
        let mut a = profile(10, 10, 5).with_alloc(4, 400);
        let b = profile(20, 20, 5).with_alloc(6, 800);
        assert_eq!(a.alloc_bytes_per_op(), 20.0);
        a.merge(&b);
        assert_eq!(a.alloc_count(), 10);
        assert_eq!(a.alloc_bytes(), 1200);
        assert_eq!(a.alloc_bytes_per_op(), 20.0);
        assert_eq!(WorkloadProfile::default().alloc_bytes_per_op(), 0.0);
    }

    #[test]
    fn merge_sums_elapsed_nanos() {
        let mut a = WorkloadProfile::with_nanos(OpCounters::new(), 3, 100);
        let b = WorkloadProfile::with_nanos(OpCounters::new(), 5, 50);
        a.merge(&b);
        assert_eq!(a.elapsed_nanos(), 150);
        assert_eq!(a.max_size(), 5);
    }
}
