//! Per-thread fixed-capacity span rings and phase aggregates.
//!
//! Each tracing thread owns exactly one [`ThreadRing`]; the owning thread
//! is the only writer, so every store is an uncontended relaxed atomic —
//! the atomics exist for the *readers* ([`snapshot`](crate::snapshot)), not
//! for synchronization between writers. The ring is allocated once, at
//! thread registration; the span path itself ([`ThreadRing::push`]) touches
//! only pre-allocated slots and never takes a lock — the invariant the
//! workspace self-lint's `no-alloc-in-span-path` rule pins down.
//!
//! ## Read consistency
//!
//! Readers walk the ring while the owner may still be writing. The `head`
//! release-store after each slot write gives readers a consistent prefix,
//! but a slot being overwritten *during* a snapshot can yield one torn
//! record (fields from two different spans). The rings feed diagnostics —
//! overhead accounting uses the separate monotonic aggregates, never the
//! slots — so a rare torn record in a flight-recorder dump is an accepted
//! trade for a lock-free hot path.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::phase::{Phase, PHASE_COUNT};

/// Spans retained per thread. Power of two so the ring index is a mask.
pub const RING_CAPACITY: usize = 1024;

/// Upper bucket bounds (nanoseconds, inclusive) of the per-phase span
/// duration histograms. A final implicit `+Inf` bucket catches the rest;
/// see [`SPAN_BUCKET_COUNT`].
pub const SPAN_BUCKET_BOUNDS_NS: [u64; 10] = [
    64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304, 16_777_216,
];

/// Number of duration buckets per phase, including the implicit `+Inf`.
pub const SPAN_BUCKET_COUNT: usize = SPAN_BUCKET_BOUNDS_NS.len() + 1;

/// Site ids are packed into 48 bits of the slot metadata word; ids above
/// this are truncated (they do not occur in practice — engines mint ids
/// sequentially from zero).
const SITE_MASK: u64 = (1 << 48) - 1;

/// One ring slot: `start` nanoseconds, duration nanoseconds, and a packed
/// metadata word (`site << 16 | depth << 8 | phase`).
#[derive(Debug)]
struct SlotCell {
    start: AtomicU64,
    dur: AtomicU64,
    meta: AtomicU64,
}

/// One completed span as read back out of a ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Registration index of the thread that recorded the span.
    pub thread: u64,
    /// Allocation-site id the span worked on (0 for engine-global phases).
    pub site: u64,
    /// Pipeline phase.
    pub phase: Phase,
    /// Nesting depth at entry (0 = outermost).
    pub depth: u8,
    /// Monotonic start time, nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// Wall duration in nanoseconds.
    pub dur_ns: u64,
}

impl SpanRecord {
    /// End time of the span (start + duration).
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

/// The per-thread recording unit: a fixed ring of recent spans plus
/// monotonic per-phase aggregates (counts, nanos, sampling-scaled nanos,
/// duration-bucket counts) and the application-time tally.
#[derive(Debug)]
pub struct ThreadRing {
    thread: u64,
    slots: Box<[SlotCell]>,
    /// Total spans ever pushed; `head % RING_CAPACITY` is the next slot.
    head: AtomicU64,
    phase_counts: [AtomicU64; PHASE_COUNT],
    phase_nanos: [AtomicU64; PHASE_COUNT],
    /// Measured nanos scaled by the span's sampling factor — the estimate
    /// of *total* framework time this phase cost, including unsampled ops.
    phase_scaled_nanos: [AtomicU64; PHASE_COUNT],
    /// Scaled nanos of depth-0 spans only. Nested spans lie inside their
    /// parent's wall time, so summing all phases double-counts; this is the
    /// double-count-free total the overhead ratio is built on.
    outer_scaled_nanos: AtomicU64,
    bucket_counts: [[AtomicU64; SPAN_BUCKET_COUNT]; PHASE_COUNT],
    app_ops: AtomicU64,
    app_nanos: AtomicU64,
    /// End of the last wall-credited interval (see [`ThreadRing::credit_wall`]);
    /// 0 means no interval is open.
    last_credit_ns: AtomicU64,
    retired: AtomicBool,
}

fn atomic_array<const N: usize>() -> [AtomicU64; N] {
    std::array::from_fn(|_| AtomicU64::new(0))
}

impl ThreadRing {
    /// Allocates an empty ring for the thread with registration index
    /// `thread`. Called once per thread, never from the span path.
    pub(crate) fn new(thread: u64) -> Self {
        let slots = (0..RING_CAPACITY)
            .map(|_| SlotCell {
                start: AtomicU64::new(0),
                dur: AtomicU64::new(0),
                meta: AtomicU64::new(0),
            })
            .collect();
        ThreadRing {
            thread,
            slots,
            head: AtomicU64::new(0),
            phase_counts: atomic_array(),
            phase_nanos: atomic_array(),
            phase_scaled_nanos: atomic_array(),
            outer_scaled_nanos: AtomicU64::new(0),
            bucket_counts: std::array::from_fn(|_| atomic_array()),
            app_ops: AtomicU64::new(0),
            app_nanos: AtomicU64::new(0),
            last_credit_ns: AtomicU64::new(0),
            retired: AtomicBool::new(false),
        }
    }

    /// Registration index of the owning thread.
    pub fn thread(&self) -> u64 {
        self.thread
    }

    /// Records one completed span. Owner thread only; lock-free and
    /// allocation-free — pre-sized slots and plain atomic stores.
    #[inline]
    pub(crate) fn push(
        &self,
        site: u64,
        phase: Phase,
        depth: u8,
        start_ns: u64,
        dur_ns: u64,
        scale: u64,
    ) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h as usize) & (RING_CAPACITY - 1)];
        slot.start.store(start_ns, Ordering::Relaxed);
        slot.dur.store(dur_ns, Ordering::Relaxed);
        let meta = ((site & SITE_MASK) << 16) | ((depth as u64) << 8) | phase.index() as u64;
        slot.meta.store(meta, Ordering::Relaxed);
        self.head.store(h + 1, Ordering::Release);

        let p = phase.index();
        let scaled = dur_ns.saturating_mul(scale);
        self.phase_counts[p].fetch_add(1, Ordering::Relaxed);
        self.phase_nanos[p].fetch_add(dur_ns, Ordering::Relaxed);
        self.phase_scaled_nanos[p].fetch_add(scaled, Ordering::Relaxed);
        if depth == 0 {
            self.outer_scaled_nanos.fetch_add(scaled, Ordering::Relaxed);
        }
        let mut b = SPAN_BUCKET_BOUNDS_NS.len();
        let mut i = 0;
        while i < SPAN_BUCKET_BOUNDS_NS.len() {
            if dur_ns <= SPAN_BUCKET_BOUNDS_NS[i] {
                b = i;
                break;
            }
            i += 1;
        }
        self.bucket_counts[p][b].fetch_add(1, Ordering::Relaxed);
    }

    /// Adds application operation time — the denominator of the overhead
    /// ratio. Owner thread only; lock- and allocation-free.
    #[inline]
    pub(crate) fn add_app(&self, ops: u64, nanos: u64) {
        self.app_ops.fetch_add(ops, Ordering::Relaxed);
        self.app_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Opens the thread's wall-credit interval at `now` without crediting
    /// anything. Called at registration so the first [`credit_wall`]
    /// covers real elapsed time.
    ///
    /// [`credit_wall`]: ThreadRing::credit_wall
    pub(crate) fn prime_credit(&self, now: u64) {
        self.last_credit_ns.store(now, Ordering::Relaxed);
    }

    /// Credits the wall time elapsed since the previous credit on this
    /// thread as application time carrying `ops` operations, then starts
    /// the next interval at `now`. Per-*thread* intervals: two sites
    /// flushing back-to-back on one thread split the elapsed wall time
    /// between them instead of both claiming it. Owner thread only;
    /// lock- and allocation-free.
    #[inline]
    pub(crate) fn credit_wall(&self, ops: u64, now: u64) {
        let last = self.last_credit_ns.swap(now, Ordering::Relaxed);
        if last != 0 && now > last {
            self.app_nanos.fetch_add(now - last, Ordering::Relaxed);
        }
        self.app_ops.fetch_add(ops, Ordering::Relaxed);
    }

    /// Marks the owning thread as exited; its aggregates stay readable.
    pub(crate) fn retire(&self) {
        self.retired.store(true, Ordering::Release);
    }

    /// Whether the owning thread has exited.
    pub fn is_retired(&self) -> bool {
        self.retired.load(Ordering::Acquire)
    }

    /// Total spans ever recorded by this thread.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Spans evicted by ring wrap-around (recorded minus retained).
    pub fn overwritten(&self) -> u64 {
        self.recorded().saturating_sub(RING_CAPACITY as u64)
    }

    /// Copies the retained spans out, oldest first. Racy against the
    /// owner's concurrent writes (see the module docs); the result is for
    /// diagnostics, not accounting.
    pub(crate) fn collect_spans(&self, out: &mut Vec<SpanRecord>) {
        let head = self.head.load(Ordering::Acquire);
        let len = (head as usize).min(RING_CAPACITY);
        let first = head - len as u64;
        for i in 0..len as u64 {
            let slot = &self.slots[((first + i) as usize) & (RING_CAPACITY - 1)];
            let meta = slot.meta.load(Ordering::Relaxed);
            let Some(phase) = Phase::from_index((meta & 0xff) as usize) else {
                continue; // torn or unwritten slot
            };
            out.push(SpanRecord {
                thread: self.thread,
                site: meta >> 16,
                phase,
                depth: ((meta >> 8) & 0xff) as u8,
                start_ns: slot.start.load(Ordering::Relaxed),
                dur_ns: slot.dur.load(Ordering::Relaxed),
            });
        }
    }

    /// Monotonic per-phase span counts.
    pub(crate) fn counts(&self) -> [u64; PHASE_COUNT] {
        std::array::from_fn(|p| self.phase_counts[p].load(Ordering::Relaxed))
    }

    /// Monotonic per-phase measured nanos.
    pub(crate) fn nanos(&self) -> [u64; PHASE_COUNT] {
        std::array::from_fn(|p| self.phase_nanos[p].load(Ordering::Relaxed))
    }

    /// Monotonic per-phase sampling-scaled nanos.
    pub(crate) fn scaled_nanos(&self) -> [u64; PHASE_COUNT] {
        std::array::from_fn(|p| self.phase_scaled_nanos[p].load(Ordering::Relaxed))
    }

    /// Scaled nanos of depth-0 spans — the double-count-free framework
    /// time total.
    pub(crate) fn outer_scaled(&self) -> u64 {
        self.outer_scaled_nanos.load(Ordering::Relaxed)
    }

    /// Per-phase duration-bucket counts (last bucket is `+Inf`).
    pub(crate) fn buckets(&self) -> [[u64; SPAN_BUCKET_COUNT]; PHASE_COUNT] {
        std::array::from_fn(|p| {
            std::array::from_fn(|b| self.bucket_counts[p][b].load(Ordering::Relaxed))
        })
    }

    /// Application op/nanos tally.
    pub(crate) fn app(&self) -> (u64, u64) {
        (
            self.app_ops.load(Ordering::Relaxed),
            self.app_nanos.load(Ordering::Relaxed),
        )
    }

    /// Zeroes every slot and aggregate — a bench/test convenience, only
    /// sound while the owning thread is quiescent.
    pub(crate) fn reset(&self) {
        self.head.store(0, Ordering::Release);
        for slot in self.slots.iter() {
            slot.start.store(0, Ordering::Relaxed);
            slot.dur.store(0, Ordering::Relaxed);
            slot.meta.store(0, Ordering::Relaxed);
        }
        self.outer_scaled_nanos.store(0, Ordering::Relaxed);
        for p in 0..PHASE_COUNT {
            self.phase_counts[p].store(0, Ordering::Relaxed);
            self.phase_nanos[p].store(0, Ordering::Relaxed);
            self.phase_scaled_nanos[p].store(0, Ordering::Relaxed);
            for b in 0..SPAN_BUCKET_COUNT {
                self.bucket_counts[p][b].store(0, Ordering::Relaxed);
            }
        }
        self.app_ops.store(0, Ordering::Relaxed);
        self.app_nanos.store(0, Ordering::Relaxed);
        self.last_credit_ns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_then_collect_round_trips() {
        let ring = ThreadRing::new(3);
        ring.push(7, Phase::Decision, 0, 100, 50, 1);
        ring.push(7, Phase::ModelEval, 1, 110, 20, 1);
        let mut spans = Vec::new();
        ring.collect_spans(&mut spans);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].phase, Phase::Decision);
        assert_eq!(spans[0].site, 7);
        assert_eq!(spans[0].thread, 3);
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[0].end_ns(), 150);
        assert_eq!(spans[1].depth, 1);
        assert_eq!(ring.recorded(), 2);
        assert_eq!(ring.overwritten(), 0);
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let ring = ThreadRing::new(0);
        for i in 0..(RING_CAPACITY as u64 + 10) {
            ring.push(1, Phase::OpRecord, 0, i, 1, 1);
        }
        let mut spans = Vec::new();
        ring.collect_spans(&mut spans);
        assert_eq!(spans.len(), RING_CAPACITY);
        assert_eq!(spans[0].start_ns, 10, "oldest retained span");
        assert_eq!(spans.last().unwrap().start_ns, RING_CAPACITY as u64 + 9);
        assert_eq!(ring.overwritten(), 10);
    }

    #[test]
    fn aggregates_accumulate_and_scale() {
        let ring = ThreadRing::new(0);
        ring.push(1, Phase::OpRecord, 0, 0, 100, 8);
        ring.push(1, Phase::OpRecord, 0, 200, 50, 8);
        ring.push(1, Phase::Flush, 1, 300, 1_000, 1);
        let counts = ring.counts();
        assert_eq!(counts[Phase::OpRecord.index()], 2);
        assert_eq!(counts[Phase::Flush.index()], 1);
        assert_eq!(ring.nanos()[Phase::OpRecord.index()], 150);
        assert_eq!(ring.scaled_nanos()[Phase::OpRecord.index()], 1_200);
        assert_eq!(ring.scaled_nanos()[Phase::Flush.index()], 1_000);
        // The depth-1 flush is nested inside another span's wall time:
        // only the two depth-0 op spans count toward the outer total.
        assert_eq!(ring.outer_scaled(), 1_200);
        ring.add_app(10, 5_000);
        assert_eq!(ring.app(), (10, 5_000));
    }

    #[test]
    fn buckets_classify_durations() {
        let ring = ThreadRing::new(0);
        ring.push(1, Phase::Ingest, 0, 0, 64, 1); // first bucket (<= 64)
        ring.push(1, Phase::Ingest, 0, 0, 65, 1); // second bucket
        ring.push(1, Phase::Ingest, 0, 0, u64::MAX / 2, 1); // +Inf
        let b = ring.buckets()[Phase::Ingest.index()];
        assert_eq!(b[0], 1);
        assert_eq!(b[1], 1);
        assert_eq!(b[SPAN_BUCKET_COUNT - 1], 1);
        assert_eq!(b.iter().sum::<u64>(), 3);
    }

    #[test]
    fn wall_credit_intervals_do_not_double_count() {
        let ring = ThreadRing::new(0);
        // Unprimed: the first credit only opens the interval.
        ring.credit_wall(10, 1_000);
        assert_eq!(ring.app(), (10, 0));
        // Two sites crediting back-to-back split the wall time.
        ring.credit_wall(5, 1_400);
        ring.credit_wall(5, 1_400);
        assert_eq!(ring.app(), (20, 400));
        // Primed ring: first credit covers time since priming.
        let primed = ThreadRing::new(1);
        primed.prime_credit(100);
        primed.credit_wall(1, 350);
        assert_eq!(primed.app(), (1, 250));
    }

    #[test]
    fn reset_clears_everything() {
        let ring = ThreadRing::new(0);
        ring.push(1, Phase::Verify, 0, 5, 5, 1);
        ring.add_app(1, 1);
        ring.reset();
        assert_eq!(ring.recorded(), 0);
        assert_eq!(ring.counts().iter().sum::<u64>(), 0);
        assert_eq!(ring.app(), (0, 0));
        let mut spans = Vec::new();
        ring.collect_spans(&mut spans);
        assert!(spans.is_empty());
    }
}
