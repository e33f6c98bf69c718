//! Cross-thread trace snapshots and the self-overhead accountant.

use std::borrow::Borrow;

use crate::phase::PHASE_COUNT;
use crate::ring::{SpanRecord, ThreadRing, SPAN_BUCKET_COUNT};
use crate::span::{all_rings, now_ns, tracer_costs, with_rings};

/// Frozen view of one thread's ring: its retained spans plus the monotonic
/// aggregates the overhead accountant is built on.
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    /// Registration index of the thread.
    pub thread: u64,
    /// Whether the thread has exited (its aggregates are final).
    pub retired: bool,
    /// Spans ever recorded by the thread.
    pub recorded: u64,
    /// Spans evicted by ring wrap-around.
    pub overwritten: u64,
    /// The retained spans, oldest first. Diagnostic data: a record being
    /// overwritten during the snapshot may be torn (see the ring docs).
    pub spans: Vec<SpanRecord>,
    /// Per-phase span counts (indexed by [`Phase::index`](crate::Phase::index)).
    pub phase_counts: [u64; PHASE_COUNT],
    /// Per-phase measured nanos (sampled spans only, unscaled).
    pub phase_nanos: [u64; PHASE_COUNT],
    /// Per-phase sampling-scaled nanos. Nested phases overlap their
    /// parents; sum [`ThreadTrace::outer_scaled_nanos`] instead of these
    /// when totalling framework time.
    pub phase_scaled_nanos: [u64; PHASE_COUNT],
    /// Scaled nanos of depth-0 spans only — the double-count-free total.
    pub outer_scaled_nanos: u64,
    /// Per-phase duration-bucket counts; bounds in
    /// [`SPAN_BUCKET_BOUNDS_NS`](crate::SPAN_BUCKET_BOUNDS_NS), last bucket
    /// is `+Inf`.
    pub bucket_counts: [[u64; SPAN_BUCKET_COUNT]; PHASE_COUNT],
    /// Application ops credited via [`add_app_time`](crate::add_app_time).
    pub app_ops: u64,
    /// Application nanos credited via [`add_app_time`](crate::add_app_time).
    pub app_nanos: u64,
}

/// A frozen cross-thread view of every registered ring.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// One entry per thread that ever recorded a span, in registration
    /// order.
    pub threads: Vec<ThreadTrace>,
    /// Monotonic time the snapshot was taken (tracer-epoch nanos).
    pub taken_ns: u64,
}

/// Snapshots every registered thread ring. Takes the registry lock (never
/// contended with span recording) and reads the rings racily — safe to
/// call from any thread at any time.
pub fn snapshot() -> TraceSnapshot {
    let threads = all_rings()
        .iter()
        .map(|ring| {
            let mut thread = ThreadTrace::aggregates(ring);
            ring.collect_spans(&mut thread.spans);
            thread
        })
        .collect();
    TraceSnapshot {
        threads,
        taken_ns: now_ns(),
    }
}

/// The self-overhead account, read from each ring's aggregates under the
/// registry lock: what `snapshot().overhead()` returns, without copying a
/// span or the registry. Allocation-free once [`tracer_costs`] has been
/// measured, so an analysis-pass hook can call it.
pub fn overhead() -> OverheadReport {
    with_rings(|rings| overhead_of(rings.iter().map(|ring| ThreadTrace::aggregates(ring))))
}

impl ThreadTrace {
    /// `ring`'s aggregates, with no spans copied.
    fn aggregates(ring: &ThreadRing) -> ThreadTrace {
        let (app_ops, app_nanos) = ring.app();
        ThreadTrace {
            thread: ring.thread(),
            retired: ring.is_retired(),
            recorded: ring.recorded(),
            overwritten: ring.overwritten(),
            spans: Vec::new(),
            phase_counts: ring.counts(),
            phase_nanos: ring.nanos(),
            phase_scaled_nanos: ring.scaled_nanos(),
            outer_scaled_nanos: ring.outer_scaled(),
            bucket_counts: ring.buckets(),
            app_ops,
            app_nanos,
        }
    }
}

/// Sums per-thread aggregates into the overhead account: the one
/// summation behind [`overhead`] and [`TraceSnapshot::overhead`].
fn overhead_of<T: Borrow<ThreadTrace>>(threads: impl Iterator<Item = T>) -> OverheadReport {
    let costs = tracer_costs();
    let mut report = OverheadReport::default();
    let mut recorded = 0u64;
    for thread in threads {
        let t = thread.borrow();
        recorded += t.recorded;
        report.framework_nanos += t.outer_scaled_nanos;
        report.app_nanos += t.app_nanos;
        report.app_ops += t.app_ops;
        for p in 0..PHASE_COUNT {
            report.phase_counts[p] += t.phase_counts[p];
            report.phase_scaled_nanos[p] += t.phase_scaled_nanos[p];
        }
    }
    report.tracer_nanos = recorded
        .saturating_mul(costs.span_ns)
        .saturating_add(report.app_ops.saturating_mul(costs.check_ns));
    report
}

impl TraceSnapshot {
    /// Per-phase span counts summed over all threads.
    pub fn phase_counts(&self) -> [u64; PHASE_COUNT] {
        self.sum(|t| t.phase_counts)
    }

    /// Per-phase measured nanos summed over all threads.
    pub fn phase_nanos(&self) -> [u64; PHASE_COUNT] {
        self.sum(|t| t.phase_nanos)
    }

    /// Per-phase sampling-scaled nanos summed over all threads.
    pub fn phase_scaled_nanos(&self) -> [u64; PHASE_COUNT] {
        self.sum(|t| t.phase_scaled_nanos)
    }

    /// Per-phase duration-bucket counts summed over all threads.
    pub fn bucket_totals(&self) -> [[u64; SPAN_BUCKET_COUNT]; PHASE_COUNT] {
        let mut out = [[0u64; SPAN_BUCKET_COUNT]; PHASE_COUNT];
        for t in &self.threads {
            for (phase, buckets) in out.iter_mut().zip(t.bucket_counts.iter()) {
                for (total, count) in phase.iter_mut().zip(buckets.iter()) {
                    *total += count;
                }
            }
        }
        out
    }

    /// Total spans recorded (including ring-evicted ones).
    pub fn total_recorded(&self) -> u64 {
        self.threads.iter().map(|t| t.recorded).sum()
    }

    /// Total spans lost to ring wrap-around.
    pub fn total_overwritten(&self) -> u64 {
        self.threads.iter().map(|t| t.overwritten).sum()
    }

    /// The `n` most recent retained spans across all threads, sorted by
    /// start time — what the flight recorder freezes into an incident.
    pub fn last_spans(&self, n: usize) -> Vec<SpanRecord> {
        let mut all: Vec<SpanRecord> = self
            .threads
            .iter()
            .flat_map(|t| t.spans.iter().copied())
            .collect();
        all.sort_by_key(|s| (s.start_ns, s.thread, s.depth));
        let skip = all.len().saturating_sub(n);
        all.split_off(skip)
    }

    /// The self-overhead account: tracer and framework time vs.
    /// application time.
    pub fn overhead(&self) -> OverheadReport {
        overhead_of(self.threads.iter())
    }

    fn sum(&self, f: impl Fn(&ThreadTrace) -> [u64; PHASE_COUNT]) -> [u64; PHASE_COUNT] {
        let mut out = [0u64; PHASE_COUNT];
        for t in &self.threads {
            let a = f(t);
            for (o, v) in out.iter_mut().zip(a) {
                *o += v;
            }
        }
        out
    }
}

/// The attribution of wall time between the tracer, the framework's
/// adaptation pipeline, and the application they monitor — the numbers
/// behind the paper's "negligible overhead" claim, measured instead of
/// asserted.
///
/// Two distinct overheads live here:
///
/// * [`ratio`](OverheadReport::ratio) — the **tracer's own** cost
///   ([`tracer_nanos`](OverheadReport::tracer_nanos)), from calibrated
///   unit costs × observed counts. This is what the `overhead_sweep`
///   bench gates below 5% in sampled mode and what
///   `cs_trace_overhead_ratio` exposes: turning the tracer on must stay
///   cheap.
/// * [`pipeline_ratio`](OverheadReport::pipeline_ratio) — the **whole
///   framework's** span-measured share (monitoring bookkeeping plus
///   analysis phases). A conservative upper bound: the measured spans
///   include clock granularity, and on collection-op-only
///   microbenchmarks the denominator contains little besides monitored
///   ops.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverheadReport {
    /// Estimated total framework nanos: sampling-scaled, depth-0 spans
    /// only (nested spans lie inside their parents and are not re-counted).
    pub framework_nanos: u64,
    /// Estimated nanos the tracer itself cost: recorded spans ×
    /// calibrated span cost plus credited ops × calibrated fast-path
    /// check cost (see [`tracer_costs`](crate::tracer_costs)).
    pub tracer_nanos: u64,
    /// Application nanos credited via [`add_app_time`](crate::add_app_time)
    /// (in-op time, scaled by callers) and
    /// [`credit_app_ops`](crate::credit_app_ops) (wall intervals).
    pub app_nanos: u64,
    /// Application ops credited.
    pub app_ops: u64,
    /// Per-phase span counts.
    pub phase_counts: [u64; PHASE_COUNT],
    /// Per-phase sampling-scaled nanos (overlapping for nested phases).
    pub phase_scaled_nanos: [u64; PHASE_COUNT],
}

impl OverheadReport {
    /// The tracer's self-overhead: `tracer / (tracer + app)`, in `[0, 1]`;
    /// `0.0` when nothing was accounted yet. The gated number — see the
    /// type docs for how it differs from [`pipeline_ratio`](Self::pipeline_ratio).
    pub fn ratio(&self) -> f64 {
        let total = self.tracer_nanos as f64 + self.app_nanos as f64;
        if total <= 0.0 {
            0.0
        } else {
            self.tracer_nanos as f64 / total
        }
    }

    /// Framework share of the total accounted time:
    /// `framework / (framework + app)`, in `[0, 1]`; `0.0` when nothing
    /// was accounted yet.
    pub fn pipeline_ratio(&self) -> f64 {
        let total = self.framework_nanos as f64 + self.app_nanos as f64;
        if total <= 0.0 {
            0.0
        } else {
            self.framework_nanos as f64 / total
        }
    }

    /// Average framework nanos charged per application op (0 when no ops
    /// were accounted).
    pub fn framework_nanos_per_op(&self) -> f64 {
        if self.app_ops == 0 {
            0.0
        } else {
            self.framework_nanos as f64 / self.app_ops as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::tests::mode_lock;
    use crate::span::{add_app_time, set_mode, span, TraceMode};
    use crate::Phase;

    #[test]
    fn snapshot_aggregates_and_overhead_ratio() {
        let _guard = mode_lock();
        set_mode(TraceMode::Full);
        crate::reset();
        {
            let _d = span(Phase::Decision, 5);
            let _m = span(Phase::ModelEval, 5);
        }
        add_app_time(4, 1_000_000);
        set_mode(TraceMode::Off);

        let snap = snapshot();
        let counts = snap.phase_counts();
        assert_eq!(counts[Phase::Decision.index()], 1);
        assert_eq!(counts[Phase::ModelEval.index()], 1);
        assert!(snap.total_recorded() >= 2);

        let overhead = snap.overhead();
        assert_eq!(overhead.app_ops, 4);
        assert_eq!(overhead.app_nanos, 1_000_000);
        // Only the outer Decision span counts toward framework time.
        assert!(overhead.framework_nanos > 0);
        assert!(overhead.framework_nanos <= snap.phase_scaled_nanos()[Phase::Decision.index()]);
        // Two recorded spans and four checked ops at calibrated unit cost.
        assert!(overhead.tracer_nanos > 0);
        let ratio = overhead.ratio();
        assert!(
            ratio > 0.0 && ratio < 1.0,
            "self ratio {ratio} out of range"
        );
        let pipeline = overhead.pipeline_ratio();
        assert!(
            pipeline > 0.0 && pipeline < 1.0,
            "pipeline ratio {pipeline} out of range"
        );
        assert!(overhead.framework_nanos_per_op() > 0.0);
    }

    #[test]
    fn the_aggregate_read_matches_the_snapshot_account() {
        let _guard = mode_lock();
        set_mode(TraceMode::Full);
        crate::reset();
        {
            let _d = span(Phase::Decision, 5);
            let _m = span(Phase::ModelEval, 5);
        }
        add_app_time(4, 1_000_000);
        set_mode(TraceMode::Off);
        assert_eq!(overhead(), snapshot().overhead());
    }

    #[test]
    fn empty_overhead_is_zero() {
        let report = OverheadReport {
            framework_nanos: 0,
            tracer_nanos: 0,
            app_nanos: 0,
            app_ops: 0,
            phase_counts: [0; PHASE_COUNT],
            phase_scaled_nanos: [0; PHASE_COUNT],
        };
        assert_eq!(report.ratio(), 0.0);
        assert_eq!(report.pipeline_ratio(), 0.0);
        assert_eq!(report.framework_nanos_per_op(), 0.0);
    }

    #[test]
    fn last_spans_sorts_and_limits() {
        let _guard = mode_lock();
        set_mode(TraceMode::Full);
        crate::reset();
        for _ in 0..5 {
            let _s = span(Phase::Ingest, 1);
        }
        set_mode(TraceMode::Off);
        let snap = snapshot();
        let last = snap.last_spans(3);
        assert_eq!(last.len(), 3);
        assert!(last.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        assert!(snap.last_spans(10_000).len() >= 5);
    }
}
