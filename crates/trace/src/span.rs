//! Span guards, the tracer mode switch, and per-thread registration.
//!
//! The hot-path contract, pinned by the workspace self-lint's
//! `no-alloc-in-span-path` rule: [`span`], [`op_span`], span exit, and
//! [`add_app_time`] never allocate and never take a lock. The only
//! allocating step is the *first* span a thread ever records, which
//! registers the thread's ring ([`register_current_thread`] — deliberately
//! outside the lint's span-path item set, and outside the steady state).

use std::cell::{Cell, OnceCell};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::phase::Phase;
use crate::ring::ThreadRing;

/// How much the tracer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceMode {
    /// Nothing is recorded; every span call is one relaxed atomic load.
    Off = 0,
    /// Analysis-side phases are always recorded; the per-op
    /// [`op_span`] records one op in `OP_SAMPLE_MASK + 1` and scales its
    /// duration back up in the overhead aggregates.
    Sampled = 1,
    /// Every span is recorded, including every op. The honest worst case —
    /// what the `overhead_sweep` bench's `full` row measures.
    Full = 2,
}

static MODE: AtomicU8 = AtomicU8::new(TraceMode::Off as u8);

/// The op-record sampling mask of [`TraceMode::Sampled`]: `tick & mask == 0`
/// selects the sampled op, so 63 samples one op in 64 — chosen so sampled
/// tracing stays well inside the 5% self-overhead budget even on
/// collection-op-only microbenchmarks (see the `overhead_sweep` bench).
pub const OP_SAMPLE_MASK: u64 = 63;

/// Sets the global tracing mode. Takes effect on the next span call on
/// every thread; spans already entered complete under their old mode.
pub fn set_mode(mode: TraceMode) {
    MODE.store(mode as u8, Ordering::Relaxed);
}

/// The current tracing mode.
pub fn mode() -> TraceMode {
    match MODE.load(Ordering::Relaxed) {
        0 => TraceMode::Off,
        1 => TraceMode::Sampled,
        _ => TraceMode::Full,
    }
}

/// Returns `true` when any tracing is active — the single branch the
/// instrumented hot paths pay when tracing is off.
#[inline]
pub fn enabled() -> bool {
    MODE.load(Ordering::Relaxed) != TraceMode::Off as u8
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the tracer epoch (the first call in the
/// process). Allocation- and lock-free after the first call.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadRing>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadRing>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Runs `f` over every ring ever registered, including rings of exited
/// threads, under the registry lock.
pub(crate) fn with_rings<R>(f: impl FnOnce(&[Arc<ThreadRing>]) -> R) -> R {
    f(&registry().lock().unwrap_or_else(|e| e.into_inner()))
}

/// Every ring ever registered, including rings of exited threads.
pub(crate) fn all_rings() -> Vec<Arc<ThreadRing>> {
    with_rings(<[_]>::to_vec)
}

/// Number of threads that have ever recorded a span.
pub fn registered_threads() -> usize {
    with_rings(<[_]>::len)
}

/// Zeroes every registered ring and aggregate. A bench/test convenience:
/// only sound while no instrumented workload is running.
pub fn reset() {
    for ring in all_rings() {
        ring.reset();
    }
}

struct LocalTrace {
    ring: Arc<ThreadRing>,
    depth: Cell<u8>,
    tick: Cell<u64>,
}

impl Drop for LocalTrace {
    fn drop(&mut self) {
        self.ring.retire();
    }
}

thread_local! {
    static LOCAL: OnceCell<LocalTrace> = const { OnceCell::new() };
}

/// Allocates and registers the calling thread's ring. Runs once per
/// thread, on its first armed span — never in the steady-state span path.
fn register_current_thread() -> LocalTrace {
    static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
    let thread = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    let ring = Arc::new(ThreadRing::new(thread));
    // Open the wall-credit interval at registration: the thread's first
    // `credit_app_ops` then covers real elapsed time.
    ring.prime_credit(now_ns());
    registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(Arc::clone(&ring));
    LocalTrace {
        ring,
        depth: Cell::new(0),
        tick: Cell::new(0),
    }
}

/// Runs `f` against the calling thread's trace state. Returns `None` when
/// thread-local storage is already torn down (spans recorded from TLS
/// destructors late in thread exit are silently dropped).
#[inline]
fn with_local<R>(f: impl FnOnce(&LocalTrace) -> R) -> Option<R> {
    LOCAL
        .try_with(|cell| match cell.get() {
            Some(local) => f(local),
            None => f(cell.get_or_init(register_current_thread)),
        })
        .ok()
}

/// An in-flight span. Records itself into the calling thread's ring when
/// dropped; a disarmed span (tracing off, op not sampled) is inert.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct Span {
    start_ns: u64,
    site: u64,
    phase: Phase,
    scale: u64,
    depth: u8,
    armed: bool,
}

impl Span {
    #[inline]
    fn disarmed() -> Span {
        Span {
            start_ns: 0,
            site: 0,
            phase: Phase::OpRecord,
            scale: 1,
            depth: 0,
            armed: false,
        }
    }

    /// Whether this span will record on drop.
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    #[inline]
    fn exit(&mut self) {
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        let _ = with_local(|local| {
            local.depth.set(local.depth.get().saturating_sub(1));
            local.ring.push(
                self.site,
                self.phase,
                self.depth,
                self.start_ns,
                dur_ns,
                self.scale,
            );
        });
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if self.armed {
            self.exit();
        }
    }
}

#[inline]
fn enter(phase: Phase, site: u64, scale: u64) -> Span {
    let depth = match with_local(|local| {
        let depth = local.depth.get();
        local.depth.set(depth.saturating_add(1));
        depth
    }) {
        Some(depth) => depth,
        None => return Span::disarmed(),
    };
    Span {
        start_ns: now_ns(),
        site,
        phase,
        scale,
        depth,
        armed: true,
    }
}

/// Opens a span of `phase` at allocation site `site` (0 when no site
/// applies). Records on every call while tracing is enabled — use for the
/// analysis-side phases, which run orders of magnitude less often than ops.
#[inline]
pub fn span(phase: Phase, site: u64) -> Span {
    if !enabled() {
        return Span::disarmed();
    }
    enter(phase, site, 1)
}

/// Opens an op-record span at `site`, honouring the sampling fast path: in
/// [`TraceMode::Sampled`] only one op in `OP_SAMPLE_MASK + 1` is
/// measured, and its duration is scaled back up in the overhead
/// aggregates. The unsampled op pays one atomic load, one thread-local
/// tick, and no clock read.
#[inline]
pub fn op_span(site: u64) -> Span {
    match MODE.load(Ordering::Relaxed) {
        0 => Span::disarmed(),
        1 => {
            let sampled = with_local(|local| {
                let tick = local.tick.get().wrapping_add(1);
                local.tick.set(tick);
                tick & OP_SAMPLE_MASK == 0
            })
            .unwrap_or(false);
            if sampled {
                enter(Phase::OpRecord, site, OP_SAMPLE_MASK + 1)
            } else {
                Span::disarmed()
            }
        }
        _ => enter(Phase::OpRecord, site, 1),
    }
}

/// Credits `ops` application operations taking `nanos` wall nanoseconds
/// (already scaled, when the caller sampled) to the calling thread — the
/// denominator of the overhead ratio. No-op while tracing is off.
#[inline]
pub fn add_app_time(ops: u64, nanos: u64) {
    if !enabled() {
        return;
    }
    let _ = with_local(|local| local.ring.add_app(ops, nanos));
}

/// Credits the wall time since the calling thread's previous credit (or
/// since its ring registration) as application time carrying `ops`
/// operations — the epoch-boundary variant of [`add_app_time`], used by
/// the concurrent runtime at flush time.
///
/// Wall-interval crediting counts *everything* the thread did since the
/// last credit — op bodies, workload driver code, even the framework's own
/// bookkeeping — so the resulting overhead ratio is measured against real
/// application runtime, as the paper measures it, rather than against
/// in-collection time only. Intervals are per thread: multiple sites
/// flushing on one thread split the elapsed time instead of each claiming
/// all of it. No-op while tracing is off.
#[inline]
pub fn credit_app_ops(ops: u64) {
    if !enabled() {
        return;
    }
    let _ = with_local(|local| local.ring.credit_wall(ops, now_ns()));
}

/// Calibrated per-call costs of the tracer itself, in nanoseconds — what
/// the self-overhead accountant charges the tracer for its own activity.
///
/// `span_ns` is the cost of recording one armed span (two clock reads, two
/// thread-local touches, one ring push); `check_ns` is the cost of the
/// disarmed sampled-mode fast path every unsampled op still pays (a mode
/// load, a thread-local tick, a mask test). Measured once per process on
/// first use; see [`tracer_costs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracerCosts {
    /// Cost of one recorded span, nanoseconds.
    pub span_ns: u64,
    /// Cost of one disarmed op-span check, nanoseconds.
    pub check_ns: u64,
}

thread_local! {
    /// Scratch cell for calibration loops: same TLS access shape as the
    /// real span path, but never touches (or registers) the real ring.
    static CAL_SCRATCH: Cell<u64> = const { Cell::new(0) };
}

/// Measures [`TracerCosts`] with tight loops over the same operations the
/// span path performs, against a scratch ring and scratch thread-local —
/// the calibration neither registers a ring nor perturbs real aggregates.
/// Runs once per process (~a few microseconds), on the first call; later
/// calls return the cached result.
///
/// This is the honest way to account for sampled tracing: the *measured*
/// span duration cannot see its own clock reads, and unsampled ops record
/// nothing at all, so the accountant instead multiplies calibrated unit
/// costs by the observed span and op counts.
pub fn tracer_costs() -> TracerCosts {
    static COSTS: OnceLock<TracerCosts> = OnceLock::new();
    *COSTS.get_or_init(measure_tracer_costs)
}

fn measure_tracer_costs() -> TracerCosts {
    const ITERS: u64 = 8 * 1024;
    // Disarmed fast path: mode load + TLS tick + mask test.
    let t0 = now_ns();
    for _ in 0..ITERS {
        let armed = CAL_SCRATCH
            .try_with(|c| {
                let tick = c.get().wrapping_add(1);
                c.set(tick);
                tick & OP_SAMPLE_MASK == 0
            })
            .unwrap_or(false);
        std::hint::black_box(armed);
    }
    let check_ns = ((now_ns() - t0) / ITERS).max(1);

    // Armed span: TLS enter, clock pair, TLS exit, ring push.
    let ring = ThreadRing::new(u64::MAX);
    let t0 = now_ns();
    for _ in 0..ITERS {
        let _ = CAL_SCRATCH.try_with(|c| c.set(c.get().wrapping_add(1)));
        let start = now_ns();
        let dur = now_ns().saturating_sub(start);
        let _ = CAL_SCRATCH.try_with(|c| c.set(c.get().wrapping_sub(1)));
        ring.push(0, Phase::OpRecord, 0, start, dur, 1);
    }
    let span_ns = ((now_ns() - t0) / ITERS).max(1);
    TracerCosts { span_ns, check_ns }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Tracing mode is process-global; tests that flip it serialize here.
    pub(crate) fn mode_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = mode_lock();
        set_mode(TraceMode::Off);
        let before: u64 = all_rings().iter().map(|r| r.recorded()).sum();
        {
            let _s = span(Phase::Decision, 1);
            let _o = op_span(1);
        }
        add_app_time(1, 100);
        let after: u64 = all_rings().iter().map(|r| r.recorded()).sum();
        assert_eq!(before, after);
    }

    #[test]
    fn full_mode_records_nested_spans_with_depth() {
        let _guard = mode_lock();
        set_mode(TraceMode::Full);
        let outer = span(Phase::Decision, 42);
        assert!(outer.is_armed());
        {
            let inner = span(Phase::ModelEval, 42);
            assert!(inner.is_armed());
        }
        drop(outer);
        set_mode(TraceMode::Off);

        let mut spans = Vec::new();
        for ring in all_rings() {
            ring.collect_spans(&mut spans);
        }
        let inner = spans
            .iter()
            .rev()
            .find(|s| s.phase == Phase::ModelEval && s.site == 42)
            .expect("inner span recorded");
        let outer = spans
            .iter()
            .rev()
            .find(|s| s.phase == Phase::Decision && s.site == 42)
            .expect("outer span recorded");
        assert_eq!(outer.depth, inner.depth - 1, "nesting depth recorded");
        // Well-nested: the inner span lies within the outer one.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.end_ns() <= outer.end_ns());
    }

    #[test]
    fn sampled_op_spans_honor_the_mask() {
        let _guard = mode_lock();
        set_mode(TraceMode::Sampled);
        let armed = (0..128).filter(|_| op_span(9).is_armed()).count();
        set_mode(TraceMode::Off);
        assert_eq!(armed, 2, "one op in OP_SAMPLE_MASK + 1 is sampled");
    }

    #[test]
    fn mode_round_trips() {
        let _guard = mode_lock();
        for m in [TraceMode::Sampled, TraceMode::Full, TraceMode::Off] {
            set_mode(m);
            assert_eq!(mode(), m);
            assert_eq!(enabled(), m != TraceMode::Off);
        }
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn tracer_costs_are_sane_and_cached() {
        let costs = tracer_costs();
        assert!(costs.span_ns >= 1);
        assert!(costs.check_ns >= 1);
        assert!(
            costs.span_ns < 100_000 && costs.check_ns < 100_000,
            "calibration wildly off: {costs:?}"
        );
        assert_eq!(tracer_costs(), costs, "calibration runs once");
    }

    #[test]
    fn wall_credit_requires_enabled_mode() {
        let _guard = mode_lock();
        set_mode(TraceMode::Off);
        let before: u64 = all_rings().iter().map(|r| r.app().0).sum();
        credit_app_ops(50);
        let after: u64 = all_rings().iter().map(|r| r.app().0).sum();
        assert_eq!(before, after, "off mode credits nothing");

        set_mode(TraceMode::Sampled);
        credit_app_ops(50);
        std::thread::sleep(std::time::Duration::from_millis(1));
        credit_app_ops(25);
        set_mode(TraceMode::Off);
        let (ops, nanos): (u64, u64) = all_rings()
            .iter()
            .map(|r| r.app())
            .fold((0, 0), |(o, n), (ro, rn)| (o + ro, n + rn));
        assert!(ops >= before + 75);
        assert!(nanos > 0, "second credit covers the elapsed sleep");
    }
}
