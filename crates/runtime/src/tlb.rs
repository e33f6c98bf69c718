//! Thread-local profile buffers: the zero-shared-write hot path.
//!
//! Every op on a concurrent handle records into a buffer owned by the
//! calling thread ([`LocalWindowBuffer`]); nothing is shared until an
//! *epoch boundary* — the buffer reaching
//! [`FlushPolicy::flush_ops`](crate::site::FlushPolicy) recorded ops
//! (count trigger) or ageing past `flush_nanos` (time trigger, probed every
//! 64 ops) — at which point the whole buffer is folded into the site's
//! [`SiteShared`] in one batch of atomic adds plus one sink push.
//!
//! ## Memory-ordering contract
//!
//! * Buffer fields are plain (non-atomic) thread-local state: they need no
//!   ordering at all, which is what makes recording an op a handful of
//!   arithmetic instructions.
//! * A flush publishes the buffer via `SiteShared`'s relaxed atomic adds
//!   and the profile sink's mutex. The mutex release/acquire pair is the
//!   happens-before edge to the analyzer; the relaxed totals are *counters*,
//!   read only after joining worker threads (join provides the edge) or as
//!   monotonic monitoring values where momentary staleness is fine.
//! * Timing is sampled: each (thread, site) buffer owns a
//!   [`ClockSampler`] that wall-clocks one of its ops in `sample_period`
//!   and scales the nanos up, so the common op pays no `Instant::now()`
//!   call, and sites whose ops interleave on one thread are each clocked
//!   at the full rate.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use cs_profile::{ClockSampler, LocalWindowBuffer, OpKind};

use crate::site::{FlushPolicy, SiteShared};

struct LocalEntry {
    site: Arc<SiteShared>,
    buf: LocalWindowBuffer,
    clock: ClockSampler,
    last_flush: Instant,
}

impl LocalEntry {
    fn flush(&mut self, now: Instant) {
        if !self.buf.is_empty() {
            let ops = self.buf.ops_buffered();
            // The flush span covers the whole epoch handoff: the batched
            // atomic adds plus the engine-core ingest (a nested Ingest
            // span) and the sink push.
            let _span = cs_trace::span(cs_trace::Phase::Flush, self.site.id());
            self.site.ingest(self.buf.drain());
            // Credit the wall interval since this thread's previous flush
            // as application time: flush boundaries bracket pure app work,
            // so per-thread intervals can never double-count across sites.
            cs_trace::credit_app_ops(ops);
        }
        self.last_flush = now;
    }
}

#[derive(Default)]
struct LocalBuffers {
    // Linear scan by site id: a thread touches a handful of sites, and a
    // four-entry scan beats a hash lookup at that scale.
    entries: Vec<LocalEntry>,
}

impl LocalBuffers {
    /// Index of `site`'s entry, created on the thread's first op there.
    /// Entries are only ever appended, so an index stays valid while an op
    /// body touches other sites.
    fn index(&mut self, site: &Arc<SiteShared>) -> usize {
        // Keyed by Arc identity, not site id: ids are only unique within one
        // engine, and a process may run several runtimes.
        if let Some(i) = self.entries.iter().position(|e| Arc::ptr_eq(&e.site, site)) {
            return i;
        }
        self.entries.push(LocalEntry {
            site: Arc::clone(site),
            buf: LocalWindowBuffer::new(),
            clock: ClockSampler::new(site.policy().sample_period, site.id()),
            last_flush: Instant::now(),
        });
        self.entries.len() - 1
    }

    fn flush_all(&mut self) {
        let now = Instant::now();
        for e in &mut self.entries {
            e.flush(now);
        }
    }
}

impl Drop for LocalBuffers {
    // Thread exit retires every residual buffer, so no recorded op is ever
    // lost — the invariant the concurrent stress test asserts.
    fn drop(&mut self) {
        self.flush_all();
    }
}

thread_local! {
    static TLB: RefCell<LocalBuffers> = RefCell::new(LocalBuffers::default());
}

/// Runs `body` as one critical op of `site`, recording it into the calling
/// thread's local buffer and flushing on epoch boundaries.
///
/// `body` returns `(result, post_op_size)`; it executes *outside* any
/// thread-local borrow, so collection code (including user `Hash`/`Eq`
/// impls) can never conflict with the buffer bookkeeping.
#[inline]
// Every product op path now reports a contention flag and calls
// `site_op_tracked` directly; this untracked wrapper stays as the
// single-threaded-handle entry point (and is exercised by the unit tests).
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn site_op<R>(
    site: &Arc<SiteShared>,
    op: OpKind,
    body: impl FnOnce() -> (R, usize),
) -> R {
    site_op_tracked(site, op, || {
        let (result, size) = body();
        (result, size, false)
    })
}

/// Like [`site_op`], for ops that also observe whether they were
/// *contended* (found their shard lock held). `body` returns
/// `(result, post_op_size, contended)`; the contended flag is counted in
/// the thread-local buffer and flows into the flushed
/// [`WorkloadProfile`](cs_profile::WorkloadProfile) and the site's
/// [`SiteStats::contended`](crate::SiteStats::contended) counter.
#[inline]
pub(crate) fn site_op_tracked<R>(
    site: &Arc<SiteShared>,
    op: OpKind,
    body: impl FnOnce() -> (R, usize, bool),
) -> R {
    let policy = site.policy();
    let (index, timed) = TLB.with(|tlb| {
        let mut tlb = tlb.borrow_mut();
        let index = tlb.index(site);
        (index, tlb.entries[index].clock.tick())
    });
    let (result, size, contended, nanos, alloc) = if timed {
        // The sampled op is measured on both axes at once: wall time and
        // heap churn. The attribution guard nests correctly, so a user
        // `Hash` impl touching *another* monitored site never charges its
        // allocations to this one.
        let guard = cs_heap::AllocGuard::begin();
        let start = Instant::now();
        let (result, size, contended) = body();
        let nanos = start.elapsed().as_nanos() as u64;
        let alloc = guard.finish();
        (result, size, contended, nanos, alloc)
    } else {
        let (result, size, contended) = body();
        (result, size, contended, 0, cs_heap::AllocDelta::default())
    };
    // Spans only the monitoring bookkeeping below — the application op
    // itself (`body`) stays outside the framework's account. Sampled in
    // `TraceMode::Sampled`, so the common op adds one atomic load.
    let _record_span = cs_trace::op_span(site.id());
    TLB.with(|tlb| {
        let entry = &mut tlb.borrow_mut().entries[index];
        entry.buf.record(op, size);
        if contended {
            entry.buf.note_contended();
        }
        if timed {
            // Scale the sampled measurements back up to the full op stream.
            let scale = entry.clock.period();
            entry.buf.add_nanos(nanos.saturating_mul(scale));
            if alloc.count > 0 {
                entry.buf.add_alloc(
                    alloc.count.saturating_mul(scale),
                    alloc.bytes.saturating_mul(scale),
                );
            }
        }
        let buffered = entry.buf.ops_buffered();
        if buffered >= policy.flush_ops {
            entry.flush(Instant::now());
        } else if buffered & FlushPolicy::CLOCK_CHECK_MASK == 0 {
            let now = Instant::now();
            if now.duration_since(entry.last_flush).as_nanos() as u64 >= policy.flush_nanos {
                entry.flush(now);
            }
        }
    });
    result
}

/// Flushes every buffer owned by the *calling* thread into its site.
///
/// Buffers also flush automatically on epoch boundaries and when the thread
/// exits; this exists for synchronous checkpoints — before an assertion in
/// a test, before a deliberate [`analyze_now`](cs_core::Switch::analyze_now).
pub fn flush_current_thread() {
    TLB.with(|tlb| tlb.borrow_mut().flush_all());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::CoreRef;
    use cs_collections::MapKind;
    use cs_core::Switch;

    fn test_site(flush_ops: u64) -> Arc<SiteShared> {
        let engine = Switch::builder().build();
        let ctx = engine.named_map_context::<u64, u64>(MapKind::Chained, "tlb-test");
        Arc::new(SiteShared::new(
            ctx.id(),
            "tlb-test".into(),
            CoreRef::Map(Arc::clone(ctx.core())),
            FlushPolicy {
                flush_ops,
                flush_nanos: u64::MAX,
                sample_period: 1,
            },
        ))
    }

    #[test]
    fn ops_buffer_locally_until_count_trigger() {
        let site = test_site(10);
        for i in 0..9 {
            site_op(&site, OpKind::Populate, || ((), i));
        }
        // Nine ops buffered: nothing shared yet.
        assert_eq!(site.stats().total_ops, 0);
        assert_eq!(site.stats().flushes, 0);
        site_op(&site, OpKind::Populate, || ((), 9));
        // The tenth op crossed the epoch: one flush carrying all ten.
        let stats = site.stats();
        assert_eq!(stats.total_ops, 10);
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.max_size, 9);
        flush_current_thread();
        assert_eq!(site.stats().flushes, 1, "empty buffers do not flush");
    }

    #[test]
    fn explicit_flush_retires_partial_buffers() {
        let site = test_site(1_000_000);
        for _ in 0..5 {
            site_op(&site, OpKind::Contains, || ((), 3));
        }
        assert_eq!(site.stats().total_ops, 0);
        flush_current_thread();
        let stats = site.stats();
        assert_eq!(stats.total_ops, 5);
        assert_eq!(stats.ops[OpKind::Contains.index()], 5);
        assert_eq!(stats.flushes, 1);
    }

    #[test]
    fn thread_exit_flushes_residue() {
        let site = test_site(1_000_000);
        let s = Arc::clone(&site);
        std::thread::spawn(move || {
            for _ in 0..17 {
                site_op(&s, OpKind::Middle, || ((), 1));
            }
            // No explicit flush: the TLS destructor must retire the buffer.
        })
        .join()
        .unwrap();
        assert_eq!(site.stats().total_ops, 17);
    }

    #[test]
    fn interleaved_sites_on_one_thread_are_each_clocked() {
        // Default rate, one op in 8 per (thread, site) buffer. A single
        // per-thread tick would give every clocked op to one of two sites
        // whose ops strictly alternate.
        let runtime = crate::Runtime::new(Switch::builder().build());
        let a = runtime.named_concurrent_map::<u64, u64>(MapKind::Chained, "tlb-a");
        let b = runtime.named_concurrent_map::<u64, u64>(MapKind::Chained, "tlb-b");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for k in 0..64 {
                    a.insert(k, k);
                    b.insert(k, k);
                }
                flush_current_thread();
            });
        });
        for map in [a.id(), b.id()] {
            let stats = runtime.site_stats(map).expect("registered site");
            assert_eq!(stats.total_ops, 64);
            assert!(stats.sampled_nanos > 0, "site {map} was clocked");
        }
    }

    #[test]
    fn sampled_timing_accumulates_scaled_nanos() {
        let site = test_site(4);
        for _ in 0..64 {
            site_op(&site, OpKind::Contains, || {
                std::hint::black_box((0..50).sum::<u64>());
                ((), 1)
            });
        }
        flush_current_thread();
        assert!(
            site.stats().sampled_nanos > 0,
            "period 1 times every op, so nanos must accumulate"
        );
    }
}
