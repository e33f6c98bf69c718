//! Compact aggregation of workload profiles, bucketed by maximum size.
//!
//! The paper reports an analysis cost of under 285 ns per pass (Fig. 7) —
//! which rules out re-walking every monitored profile at every analysis.
//! `ProfileHistogram` folds profiles into power-of-two size buckets: the
//! total-cost formula `TC_D(V) = Σ tc_W(V)` only consumes each profile's
//! operation counts and maximum size, so profiles in the same size bucket
//! can be summed, with the bucket's largest observed size standing in as the
//! evaluation point. The paper already evaluates costs at the *maximum*
//! size ("the value of tc(V) is an overestimate", §3.1.1); bucketing by
//! max-size is the same conservative rounding, one step coarser.

use crate::op::{OpCounters, OpKind};
use crate::profile::WorkloadProfile;

/// Number of power-of-two buckets (covers sizes up to 2⁶³).
const BUCKETS: usize = 64;

/// Aggregated workload of all profiles falling into one size bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketAgg {
    /// Summed operation counts over the bucket's instances.
    pub counters: OpCounters,
    /// Number of instances folded into this bucket.
    pub instances: u64,
    /// Smallest max-size observed in this bucket.
    pub min_size: usize,
    /// Largest max-size observed in this bucket (the evaluation point).
    pub max_size: usize,
}

/// A fixed-size aggregation of workload profiles (paper §3.1.1 `W` data,
/// collapsed for O(1)-per-analysis cost).
///
/// # Examples
///
/// ```
/// use cs_profile::{OpCounters, OpKind, ProfileHistogram, WorkloadProfile};
///
/// let mut h = ProfileHistogram::new();
/// let mut ops = OpCounters::new();
/// ops.add(OpKind::Contains, 5);
/// h.add(&WorkloadProfile::new(ops, 10));
/// h.add(&WorkloadProfile::new(OpCounters::new(), 1000));
/// assert_eq!(h.instances(), 2);
/// assert_eq!(h.count(OpKind::Contains), 5);
/// assert_eq!(h.max_size(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct ProfileHistogram {
    buckets: Vec<Option<BucketAgg>>,
    /// Bit `i` set when bucket `i` is occupied: cost evaluation walks the
    /// few occupied buckets, not all 64 slots.
    occupancy: u64,
    instances: u64,
    totals: OpCounters,
    total_nanos: u64,
    alloc_count: u64,
    alloc_bytes: u64,
}

impl Default for ProfileHistogram {
    fn default() -> Self {
        ProfileHistogram::new()
    }
}

impl ProfileHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        ProfileHistogram {
            buckets: vec![None; BUCKETS],
            occupancy: 0,
            instances: 0,
            totals: OpCounters::new(),
            total_nanos: 0,
            alloc_count: 0,
            alloc_bytes: 0,
        }
    }

    /// Builds a histogram from a batch of profiles.
    pub fn from_profiles<'a>(profiles: impl IntoIterator<Item = &'a WorkloadProfile>) -> Self {
        let mut h = ProfileHistogram::new();
        for p in profiles {
            h.add(p);
        }
        h
    }

    fn bucket_index(size: usize) -> usize {
        // Sizes 0 and 1 share bucket 0; otherwise ⌈log2(size)⌉.
        (usize::BITS - size.saturating_sub(1).leading_zeros()) as usize
    }

    /// Folds one finished profile into the histogram.
    pub fn add(&mut self, profile: &WorkloadProfile) {
        let idx = Self::bucket_index(profile.max_size()).min(BUCKETS - 1);
        let slot = &mut self.buckets[idx];
        match slot {
            Some(b) => {
                b.counters.merge(profile.counters());
                b.instances += 1;
                b.min_size = b.min_size.min(profile.max_size());
                b.max_size = b.max_size.max(profile.max_size());
            }
            None => {
                *slot = Some(BucketAgg {
                    counters: *profile.counters(),
                    instances: 1,
                    min_size: profile.max_size(),
                    max_size: profile.max_size(),
                });
                self.occupancy |= 1 << idx;
            }
        }
        self.instances += 1;
        self.totals.merge(profile.counters());
        self.total_nanos = self.total_nanos.saturating_add(profile.elapsed_nanos());
        self.alloc_count = self.alloc_count.saturating_add(profile.alloc_count());
        self.alloc_bytes = self.alloc_bytes.saturating_add(profile.alloc_bytes());
    }

    /// Number of instances aggregated.
    pub fn instances(&self) -> u64 {
        self.instances
    }

    /// Returns `true` if no profiles were added.
    pub fn is_empty(&self) -> bool {
        self.instances == 0
    }

    /// Total count of `op` over all aggregated instances.
    pub fn count(&self, op: OpKind) -> u64 {
        self.totals.count(op)
    }

    /// Total critical operations over all aggregated instances.
    pub fn total_ops(&self) -> u64 {
        self.totals.total()
    }

    /// Total measured wall time (nanoseconds) over all aggregated instances;
    /// 0 when the profiles carried no timing.
    pub fn total_nanos(&self) -> u64 {
        self.total_nanos
    }

    /// Total allocation events attributed over all aggregated instances.
    pub fn alloc_count(&self) -> u64 {
        self.alloc_count
    }

    /// Total allocation bytes attributed over all aggregated instances.
    pub fn alloc_bytes(&self) -> u64 {
        self.alloc_bytes
    }

    /// Mean attributed allocation bytes per aggregated operation; `0.0` for
    /// an empty histogram. This is the measured counterpart of the cost
    /// model's alloc-rate dimension.
    pub fn alloc_bytes_per_op(&self) -> f64 {
        let total = self.total_ops();
        if total == 0 {
            0.0
        } else {
            self.alloc_bytes as f64 / total as f64
        }
    }

    /// Largest max-size observed, or 0 if empty.
    pub fn max_size(&self) -> usize {
        self.occupied().map(|b| b.max_size).max().unwrap_or(0)
    }

    /// Smallest max-size observed, or 0 if empty.
    pub fn min_size(&self) -> usize {
        self.occupied().map(|b| b.min_size).min().unwrap_or(0)
    }

    /// Iterates over the occupied buckets, smallest sizes first.
    pub fn occupied(&self) -> impl Iterator<Item = &BucketAgg> {
        let mut rest = self.occupancy;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let idx = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            self.buckets[idx].as_ref()
        })
    }

    /// Number of occupied buckets (the per-analysis work factor).
    pub fn occupied_len(&self) -> usize {
        self.occupied().count()
    }

    /// Exponentially decays all aggregated counts by `factor` (0..=1).
    ///
    /// Called by the analyzer at the start of each round so that recent
    /// monitoring windows dominate the selection — this is what lets an
    /// allocation context re-converge when the program enters a new phase
    /// (the paper's multi-phase scenario, Fig. 6). Bucket size bounds are
    /// kept, so the adaptive-eligibility gate stays stable.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not within `0.0..=1.0`.
    pub fn decay(&mut self, factor: f64) {
        assert!(
            (0.0..=1.0).contains(&factor),
            "decay factor must be in 0..=1, got {factor}"
        );
        let scale = |n: u64| (n as f64 * factor) as u64;
        for bucket in self.buckets.iter_mut().flatten() {
            bucket.instances = scale(bucket.instances);
            bucket.counters = bucket.counters.scaled(factor);
        }
        self.instances = scale(self.instances);
        self.totals = self.totals.scaled(factor);
        self.total_nanos = scale(self.total_nanos);
        self.alloc_count = scale(self.alloc_count);
        self.alloc_bytes = scale(self.alloc_bytes);
    }

    /// Resets the histogram.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            *b = None;
        }
        self.occupancy = 0;
        self.instances = 0;
        self.totals = OpCounters::new();
        self.total_nanos = 0;
        self.alloc_count = 0;
        self.alloc_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(contains: u64, size: usize) -> WorkloadProfile {
        let mut c = OpCounters::new();
        c.add(OpKind::Contains, contains);
        WorkloadProfile::new(c, size)
    }

    #[test]
    fn bucket_indices_are_log2() {
        assert_eq!(ProfileHistogram::bucket_index(0), 0);
        assert_eq!(ProfileHistogram::bucket_index(1), 0);
        assert_eq!(ProfileHistogram::bucket_index(2), 1);
        assert_eq!(ProfileHistogram::bucket_index(3), 2);
        assert_eq!(ProfileHistogram::bucket_index(4), 2);
        assert_eq!(ProfileHistogram::bucket_index(5), 3);
        assert_eq!(ProfileHistogram::bucket_index(1024), 10);
    }

    #[test]
    fn default_folds_profiles_like_new() {
        let profiles = [
            profile(3, 1),
            profile(4, 100),
            profile(5, 120),
            profile(6, 5000),
        ];
        let mut from_default = ProfileHistogram::default();
        let mut from_new = ProfileHistogram::new();
        for p in &profiles {
            from_default.add(p);
            from_new.add(p);
        }
        assert_eq!(from_default.instances(), from_new.instances());
        assert_eq!(from_default.total_ops(), 18);
        assert_eq!(
            from_default.count(OpKind::Contains),
            from_new.count(OpKind::Contains)
        );
        assert!(from_default.occupied().eq(from_new.occupied()));
        assert_eq!(from_default.occupied_len(), 3);
    }

    #[test]
    fn same_bucket_profiles_are_merged() {
        let mut h = ProfileHistogram::new();
        h.add(&profile(3, 100));
        h.add(&profile(4, 120));
        assert_eq!(h.occupied_len(), 1);
        let b = h.occupied().next().unwrap();
        assert_eq!(b.instances, 2);
        assert_eq!(b.counters.count(OpKind::Contains), 7);
        assert_eq!(b.min_size, 100);
        assert_eq!(b.max_size, 120);
    }

    #[test]
    fn different_magnitudes_get_different_buckets() {
        let mut h = ProfileHistogram::new();
        h.add(&profile(1, 10));
        h.add(&profile(1, 1000));
        assert_eq!(h.occupied_len(), 2);
        assert_eq!(h.min_size(), 10);
        assert_eq!(h.max_size(), 1000);
    }

    #[test]
    fn totals_track_all_additions() {
        let mut h = ProfileHistogram::new();
        for i in 0..100 {
            h.add(&profile(2, i));
        }
        assert_eq!(h.instances(), 100);
        assert_eq!(h.count(OpKind::Contains), 200);
        assert_eq!(h.total_ops(), 200);
    }

    #[test]
    fn bucket_count_is_bounded_regardless_of_volume() {
        let mut h = ProfileHistogram::new();
        for i in 0..100_000usize {
            h.add(&profile(1, i % 5000));
        }
        assert!(h.occupied_len() <= 14, "got {}", h.occupied_len());
        assert_eq!(h.instances(), 100_000);
    }

    #[test]
    fn clear_resets() {
        let mut h = ProfileHistogram::new();
        h.add(&profile(1, 10));
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.occupied_len(), 0);
        assert_eq!(h.max_size(), 0);
    }

    #[test]
    fn from_profiles_builds_in_one_call() {
        let ps = vec![profile(1, 5), profile(2, 6), profile(3, 600)];
        let h = ProfileHistogram::from_profiles(&ps);
        assert_eq!(h.instances(), 3);
        assert_eq!(h.count(OpKind::Contains), 6);
    }

    #[test]
    fn decay_halves_counts_but_keeps_size_bounds() {
        let mut h = ProfileHistogram::new();
        for _ in 0..10 {
            h.add(&profile(4, 30));
        }
        h.add(&profile(4, 900));
        h.decay(0.5);
        assert_eq!(h.instances(), 5);
        assert_eq!(h.count(OpKind::Contains), 22);
        // The eligibility gate depends on size bounds, which must survive.
        assert_eq!(h.min_size(), 30);
        assert_eq!(h.max_size(), 900);
    }

    #[test]
    fn decay_one_is_identity() {
        let mut h = ProfileHistogram::new();
        h.add(&profile(7, 42));
        h.decay(1.0);
        assert_eq!(h.instances(), 1);
        assert_eq!(h.count(OpKind::Contains), 7);
    }

    #[test]
    fn repeated_decay_reaches_zero() {
        let mut h = ProfileHistogram::new();
        h.add(&profile(100, 10));
        for _ in 0..20 {
            h.decay(0.5);
        }
        assert_eq!(h.total_ops(), 0);
        assert_eq!(h.instances(), 0);
    }

    #[test]
    #[should_panic(expected = "decay factor")]
    fn decay_rejects_out_of_range_factor() {
        ProfileHistogram::new().decay(1.5);
    }

    #[test]
    fn total_nanos_accumulates_decays_and_clears() {
        let mut h = ProfileHistogram::new();
        let mut c = OpCounters::new();
        c.add(OpKind::Contains, 1);
        h.add(&WorkloadProfile::with_nanos(c, 10, 600));
        h.add(&WorkloadProfile::with_nanos(c, 10, 400));
        assert_eq!(h.total_nanos(), 1000);
        h.decay(0.5);
        assert_eq!(h.total_nanos(), 500);
        h.clear();
        assert_eq!(h.total_nanos(), 0);
    }

    #[test]
    fn alloc_accumulates_decays_and_rates() {
        let mut h = ProfileHistogram::new();
        let mut c = OpCounters::new();
        c.add(OpKind::Populate, 10);
        h.add(&WorkloadProfile::new(c, 10).with_alloc(4, 240));
        h.add(&WorkloadProfile::new(c, 10).with_alloc(6, 160));
        assert_eq!(h.alloc_count(), 10);
        assert_eq!(h.alloc_bytes(), 400);
        assert_eq!(h.alloc_bytes_per_op(), 400.0 / 20.0);
        h.decay(0.5);
        assert_eq!(h.alloc_count(), 5);
        assert_eq!(h.alloc_bytes(), 200);
        h.clear();
        assert_eq!(h.alloc_bytes(), 0);
        assert_eq!(h.alloc_bytes_per_op(), 0.0);
    }

    #[test]
    fn huge_sizes_fold_into_last_bucket() {
        let mut h = ProfileHistogram::new();
        h.add(&profile(1, usize::MAX));
        assert_eq!(h.instances(), 1);
        assert_eq!(h.max_size(), usize::MAX);
    }
}
