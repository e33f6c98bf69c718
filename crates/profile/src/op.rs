//! Critical operations, their counters, and the recorder of a monitored
//! op stream.

use std::fmt;
use std::time::Instant;

use cs_heap::AllocGuard;

use crate::{ClockSampler, WorkloadProfile};

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

/// Whether recorded ops must take the instrumented path — an alloc guard
/// and an op span on every op — because heap counting or tracing is on.
/// A monitored handle reads it once, when its monitor is claimed; a
/// `cs-runtime` shard on each of its slow-path ops.
#[inline]
pub fn ops_instrumented() -> bool {
    cs_heap::counting_active() || cs_trace::enabled()
}

/// The record of one monitored op stream: a monitored collection handle's,
/// or one shard's of a `cs-runtime` concurrent handle, behind the shard's
/// lock. It owns the stream's [`ClockSampler`] and the one instrumented op,
/// [`measure`](OpRecorder::measure). Each caller keeps its own fast path,
/// which ticks the sampler and [`count`](OpRecorder::count)s.
///
/// Single-owner by design: a monitored handle is not shared, and a shard's
/// recorder is only touched under its lock, so plain fields beat atomics —
/// this is where the framework's "very low overhead" claim is won or lost
/// (paper Fig. 7).
///
/// # Examples
///
/// ```
/// use cs_profile::{ClockSampler, OpKind, OpRecorder};
///
/// let mut rec = OpRecorder::new(ClockSampler::new(8, 0));
/// let mut list = Vec::new();
/// for v in 0..42 {
///     if rec.tick() {
///         rec.measure(0, OpKind::Populate, true, || (list.push(v), list.len()));
///     } else {
///         list.push(v);
///         rec.count(OpKind::Populate, list.len());
///     }
/// }
/// let profile = rec.finish();
/// assert_eq!(profile.count(OpKind::Populate), 42);
/// assert_eq!(profile.max_size(), 42);
/// ```
#[derive(Debug, Clone)]
pub struct OpRecorder {
    profile: WorkloadProfile,
    clock: ClockSampler,
}

impl OpRecorder {
    /// An empty record whose ops are clocked on `clock`'s schedule.
    pub fn new(clock: ClockSampler) -> Self {
        let profile = WorkloadProfile::default();
        OpRecorder { profile, clock }
    }

    /// Advances the sampler past one op and returns whether that op reads
    /// the clock.
    #[inline]
    pub fn tick(&mut self) -> bool {
        self.clock.tick()
    }

    /// The stream's sampler.
    #[inline]
    pub fn clock(&self) -> ClockSampler {
        self.clock
    }

    /// Takes up clock period `period`, keeping the running countdown when
    /// it is unchanged; a new period starts a fresh sampler at `seed`'s
    /// phase.
    #[inline]
    pub fn arm(&mut self, period: u64, seed: u64) {
        if self.clock.period() != period {
            self.clock = ClockSampler::new(period, seed);
        }
    }

    /// A fast-path op's whole bookkeeping: its count and the collection's
    /// size after it.
    #[inline]
    pub fn count(&mut self, op: OpKind, size: usize) {
        self.profile.counters.increment(op);
        if size > self.profile.max_size {
            self.profile.max_size = size;
        }
    }

    /// The instrumented op. `body` runs the op and returns its output and
    /// the size to record, read after the op. It runs inside an alloc
    /// guard and, when `clocked`, between two clock reads. The guard
    /// closes first, so the bookkeeping never pollutes the attribution
    /// window; then, under an op span of `site`, the op's count and size,
    /// its nanos scaled by the sampler's period (its block's) and its
    /// attributed allocation are recorded. Out of line, so the callers'
    /// fast paths stay small.
    #[inline(never)]
    pub fn measure<R>(
        &mut self,
        site: u64,
        op: OpKind,
        clocked: bool,
        body: impl FnOnce() -> (R, usize),
    ) -> R {
        let guard = AllocGuard::begin();
        let start = clocked.then(Instant::now);
        let (out, size) = body();
        let nanos = start.map_or(0, |start| start.elapsed().as_nanos() as u64);
        let alloc = guard.finish();

        // Spans the bookkeeping only: the op stays outside the framework's
        // account.
        let _span = cs_trace::op_span(site);
        self.count(op, size);
        let p = &mut self.profile;
        let scaled = nanos.saturating_mul(self.clock.period());
        p.elapsed_nanos = p.elapsed_nanos.saturating_add(scaled);
        p.alloc_count = p.alloc_count.saturating_add(alloc.count);
        p.alloc_bytes = p.alloc_bytes.saturating_add(alloc.bytes);
        out
    }

    /// Notes that the most recent op waited for a lock (a concurrent
    /// handle's contended shard); the count rides the profile into the
    /// runtime's per-site contention counter.
    #[inline]
    pub fn note_contended(&mut self) {
        self.profile.contended += 1;
    }

    /// Ops recorded so far.
    #[inline]
    pub fn total_ops(&self) -> u64 {
        self.profile.total_ops()
    }

    /// Measured wall time so far: each clocked op's nanos scaled by the
    /// period it stands for. The selection guardrails use it to verify
    /// that a switch realized the improvement the cost model predicted.
    pub fn elapsed_nanos(&self) -> u64 {
        self.profile.elapsed_nanos()
    }

    /// Empties the record into a profile, keeping the clock running.
    pub fn drain(&mut self) -> WorkloadProfile {
        std::mem::take(&mut self.profile)
    }

    /// Consumes the recorder into an immutable [`WorkloadProfile`].
    pub fn finish(self) -> WorkloadProfile {
        self.profile
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

    fn recorder() -> OpRecorder {
        OpRecorder::new(ClockSampler::new(8, 0))
    }

    /// A body that runs until the clock has moved, so a clocked `measure`
    /// of it reads at least one nanosecond.
    fn spin() -> ((), usize) {
        let start = Instant::now();
        while start.elapsed().is_zero() {}
        ((), 0)
    }

    #[test]
    fn recorder_tracks_running_max() {
        let mut r = recorder();
        r.count(OpKind::Populate, 5);
        r.count(OpKind::Populate, 3);
        r.measure(0, OpKind::Populate, false, || ((), 9));
        r.count(OpKind::Populate, 7);
        assert_eq!(r.finish().max_size(), 9);
    }

    #[test]
    fn finish_carries_state_into_profile() {
        let mut r = recorder();
        r.count(OpKind::Contains, 4);
        let found = r.measure(0, OpKind::Contains, false, || (true, 2));
        assert!(found, "measure returns the body's output");
        r.note_contended();
        assert_eq!(r.total_ops(), 2);
        let p = r.finish();
        assert_eq!(p.count(OpKind::Contains), 2);
        assert_eq!(p.max_size(), 4);
        assert_eq!(p.elapsed_nanos(), 0, "no op was clocked");
        assert_eq!(p.contended(), 1);
    }

    #[test]
    fn nanos_accumulate_and_saturate() {
        // Period 1: every clocked op adds its own nanos; an unclocked one
        // adds none.
        let mut r = OpRecorder::new(ClockSampler::new(1, 0));
        r.measure(0, OpKind::Iterate, true, spin);
        let first = r.elapsed_nanos();
        assert!(first > 0);
        r.measure(0, OpKind::Iterate, false, spin);
        assert_eq!(r.elapsed_nanos(), first);
        r.measure(0, OpKind::Iterate, true, spin);
        assert!(r.elapsed_nanos() > first);
        // Scaled by a period of u64::MAX, one clocked op saturates, and
        // the sum stays saturated.
        let mut r = OpRecorder::new(ClockSampler::new(u64::MAX, 0));
        r.measure(0, OpKind::Iterate, true, spin);
        assert_eq!(r.elapsed_nanos(), u64::MAX);
        r.measure(0, OpKind::Iterate, true, spin);
        assert_eq!(r.elapsed_nanos(), u64::MAX);
        assert_eq!(r.finish().elapsed_nanos(), u64::MAX);
    }

    #[test]
    fn drain_empties_the_record_and_keeps_the_clock_running() {
        let mut r = recorder();
        let mut oracle = r.clock();
        for size in 0..5 {
            assert_eq!(r.tick(), oracle.tick());
            r.count(OpKind::Middle, size);
        }
        r.note_contended();
        let p = r.drain();
        assert_eq!(
            (p.count(OpKind::Middle), p.max_size(), p.contended()),
            (5, 4, 1)
        );
        assert_eq!(r.clock(), oracle, "the countdown runs on");
        assert_eq!(r.total_ops(), 0);
        assert_eq!(r.drain(), WorkloadProfile::default());
    }
}
