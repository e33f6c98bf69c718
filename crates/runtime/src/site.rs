//! Shared per-site state: exact op totals, flush/contention counters, and
//! the type-erased engine context the flush path feeds.
//!
//! A [`SiteShared`] is the only state an op on a concurrent handle shares
//! beyond the shard it locks, and it is touched only on epoch boundaries
//! and migration cuts, never per op. The hot path lives in the `shard`
//! module; this module is where drained shard buffers land.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use cs_core::AnyContext;
use cs_profile::{OpKind, WorkloadProfile};

/// Shared state of one runtime site: exact cumulative op totals (updated in
/// batch when a shard publishes its buffer), flush and shard-contention
/// counters, and the engine context, erased to an [`AnyContext`], that
/// receives flushed profiles.
#[derive(Debug)]
pub struct SiteShared {
    /// The context's id, copied out of it: every op's span reads it.
    id: u64,
    core: Arc<dyn AnyContext>,
    op_totals: [AtomicU64; 4],
    nanos_total: AtomicU64,
    max_size: AtomicUsize,
    flushes: AtomicU64,
    contended: AtomicU64,
    alloc_count: AtomicU64,
    alloc_bytes: AtomicU64,
}

impl SiteShared {
    pub(crate) fn new(core: Arc<dyn AnyContext>) -> Self {
        SiteShared {
            id: core.id(),
            core,
            op_totals: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
            nanos_total: AtomicU64::new(0),
            max_size: AtomicUsize::new(0),
            flushes: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            alloc_count: AtomicU64::new(0),
            alloc_bytes: AtomicU64::new(0),
        }
    }

    /// The site's id (shared with its engine context).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The site's allocation-site label.
    pub fn name(&self) -> &str {
        self.core.name()
    }

    /// This site's row in [`Runtime::site_manifest`](crate::Runtime::site_manifest).
    pub fn manifest_entry(&self) -> cs_core::SiteManifestEntry {
        let total_ops: u64 = (0..4)
            .map(|i| self.op_totals[i].load(Ordering::Relaxed))
            .sum();
        let alloc_bytes = self.alloc_bytes.load(Ordering::Relaxed);
        cs_core::SiteManifestEntry {
            id: self.id,
            name: self.name().to_owned(),
            abstraction: self.core.abstraction(),
            default_kind: self.core.default_kind_name(),
            current_kind: self.core.current_kind_name(),
            alloc_bytes_per_op: if total_ops == 0 {
                0.0
            } else {
                alloc_bytes as f64 / total_ops as f64
            },
        }
    }

    /// Adds a drained shard buffer to the exact totals — op counts, nanos,
    /// contention, allocation, max size — without handing it to the
    /// engine: the migration cut, which keeps ops that ran on the old
    /// variant out of the window that verifies a switch.
    pub(crate) fn publish_totals(&self, profile: &WorkloadProfile) {
        for op in OpKind::ALL {
            let n = profile.count(op);
            if n > 0 {
                self.op_totals[op.index()].fetch_add(n, Ordering::Relaxed);
            }
        }
        let nanos = profile.elapsed_nanos();
        if nanos > 0 {
            self.nanos_total.fetch_add(nanos, Ordering::Relaxed);
        }
        if profile.contended() > 0 {
            self.contended
                .fetch_add(profile.contended(), Ordering::Relaxed);
        }
        if profile.alloc_count() > 0 {
            self.alloc_count
                .fetch_add(profile.alloc_count(), Ordering::Relaxed);
            self.alloc_bytes
                .fetch_add(profile.alloc_bytes(), Ordering::Relaxed);
        }
        self.max_size
            .fetch_max(profile.max_size(), Ordering::Relaxed);
    }

    /// Folds one flushed shard buffer into the shared state: exact totals
    /// first (atomics, never lost even when the engine is frozen), then the
    /// profile into the engine core's sink, where the analyzer treats it as
    /// one finished monitored instance.
    pub(crate) fn ingest(&self, profile: WorkloadProfile) {
        self.publish_totals(&profile);
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.core.ingest_profile(profile);
    }

    /// Exact cumulative count for `op` over every published buffer.
    pub fn op_total(&self, op: OpKind) -> u64 {
        self.op_totals[op.index()].load(Ordering::Relaxed)
    }

    /// A point-in-time snapshot of the site's counters and engine state.
    pub fn stats(&self) -> SiteStats {
        let core_stats = self.core.stats();
        let ops = [
            self.op_totals[0].load(Ordering::Relaxed),
            self.op_totals[1].load(Ordering::Relaxed),
            self.op_totals[2].load(Ordering::Relaxed),
            self.op_totals[3].load(Ordering::Relaxed),
        ];
        SiteStats {
            id: self.id,
            name: self.name().to_owned(),
            current_kind: self.core.current_kind_name(),
            ops,
            total_ops: ops.iter().sum(),
            sampled_nanos: self.nanos_total.load(Ordering::Relaxed),
            max_size: self.max_size.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
            alloc_count: self.alloc_count.load(Ordering::Relaxed),
            alloc_bytes: self.alloc_bytes.load(Ordering::Relaxed),
            rounds: core_stats.rounds,
            switches: core_stats.switches,
            rollbacks: core_stats.rollbacks,
        }
    }
}

/// A snapshot of one runtime site, as returned by
/// [`Runtime::site_stats`](crate::Runtime::site_stats) and
/// [`Runtime::sites`](crate::Runtime::sites).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteStats {
    /// Site id (shared with the engine context).
    pub id: u64,
    /// Allocation-site label.
    pub name: String,
    /// Variant the site currently instantiates (shards migrate lazily).
    pub current_kind: String,
    /// Exact per-op totals, indexed by [`OpKind::index`].
    pub ops: [u64; 4],
    /// Sum of [`SiteStats::ops`].
    pub total_ops: u64,
    /// Sampled-and-scaled wall time attributed to critical ops (the op
    /// body and any migration, not the wait for the shard lock).
    pub sampled_nanos: u64,
    /// Largest post-op shard size observed.
    pub max_size: usize,
    /// Shard buffer flushes into this site (migration cuts not included).
    pub flushes: u64,
    /// Contended shard-lock acquisitions.
    pub contended: u64,
    /// Allocation events attributed to critical ops (exact while a
    /// counting allocator is active, else 0).
    pub alloc_count: u64,
    /// Allocation bytes attributed to critical ops (exact while a counting
    /// allocator is active, else 0).
    pub alloc_bytes: u64,
    /// Engine analysis rounds completed for this site.
    pub rounds: u64,
    /// Variant switches the analyzer performed.
    pub switches: u64,
    /// Switches undone by post-switch verification.
    pub rollbacks: u64,
}

impl SiteStats {
    /// Mean attributed allocation bytes per critical op; `0.0` before any
    /// ops flushed.
    pub fn alloc_bytes_per_op(&self) -> f64 {
        if self.total_ops == 0 {
            0.0
        } else {
            self.alloc_bytes as f64 / self.total_ops as f64
        }
    }
}

impl std::fmt::Display for SiteStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}]: {} ops ({} flushes, {} contended), rounds {}, switches {}, rollbacks {}",
            self.name,
            self.current_kind,
            self.total_ops,
            self.flushes,
            self.contended,
            self.rounds,
            self.switches,
            self.rollbacks
        )
    }
}
