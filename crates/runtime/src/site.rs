//! Shared per-site state: exact op totals, flush/contention counters, and
//! the kind-generic engine core the flush path feeds.
//!
//! A [`SiteShared`] is the *only* state an op on a concurrent handle ever
//! shares with other threads — and it is touched exclusively on the flush
//! path (epoch boundaries), never per op. The hot path lives in
//! [`tlb`](crate::tlb); this module is where flushed buffers land.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use cs_collections::{ListKind, MapKind, SetKind};
use cs_core::{ContextCore, ContextStats};
use cs_profile::{OpKind, WorkloadProfile};

/// Flush policy stamped onto every site at creation (from
/// [`RuntimeConfig`](crate::RuntimeConfig)): when a thread-local buffer
/// spills into the shared profile, and how timing is sampled.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlushPolicy {
    /// Count trigger: flush once this many ops are buffered locally.
    pub flush_ops: u64,
    /// Time trigger: flush once the buffer is older than this many nanos
    /// (checked every [`FlushPolicy::CLOCK_CHECK_MASK`]+1 ops, so an idle
    /// buffer can exceed it until the next op or an explicit flush).
    pub flush_nanos: u64,
    /// Timing-sample mask: an op is wall-clocked when
    /// `tick & sample_mask == 0`, and the measured nanos are scaled by
    /// `sample_mask + 1` at record time. `0` times every op.
    pub sample_mask: u64,
}

impl FlushPolicy {
    /// The time trigger is only probed every 64 ops — one `Instant::now()`
    /// per 64 ops instead of one per op.
    pub(crate) const CLOCK_CHECK_MASK: u64 = 63;
}

/// The kind-generic engine context behind a site, type-erased over the
/// element types (a [`ContextCore`] is generic over the *kind* only, which
/// is what makes a non-generic registry possible).
#[derive(Debug)]
pub(crate) enum CoreRef {
    /// A list site.
    #[allow(dead_code)] // registered for symmetry; no concurrent list handle yet
    List(Arc<ContextCore<ListKind>>),
    /// A set site.
    Set(Arc<ContextCore<SetKind>>),
    /// A map site.
    Map(Arc<ContextCore<MapKind>>),
}

impl CoreRef {
    fn ingest(&self, profile: WorkloadProfile) -> bool {
        match self {
            CoreRef::List(c) => c.ingest_profile(profile),
            CoreRef::Set(c) => c.ingest_profile(profile),
            CoreRef::Map(c) => c.ingest_profile(profile),
        }
    }

    fn stats(&self) -> ContextStats {
        match self {
            CoreRef::List(c) => c.stats(),
            CoreRef::Set(c) => c.stats(),
            CoreRef::Map(c) => c.stats(),
        }
    }

    fn current_kind(&self) -> String {
        match self {
            CoreRef::List(c) => c.current_kind().to_string(),
            CoreRef::Set(c) => c.current_kind().to_string(),
            CoreRef::Map(c) => c.current_kind().to_string(),
        }
    }

    fn default_kind(&self) -> String {
        match self {
            CoreRef::List(c) => c.default_kind().to_string(),
            CoreRef::Set(c) => c.default_kind().to_string(),
            CoreRef::Map(c) => c.default_kind().to_string(),
        }
    }

    fn abstraction(&self) -> cs_collections::Abstraction {
        match self {
            CoreRef::List(_) => cs_collections::Abstraction::List,
            CoreRef::Set(_) => cs_collections::Abstraction::Set,
            CoreRef::Map(_) => cs_collections::Abstraction::Map,
        }
    }
}

/// Shared state of one runtime site: exact cumulative op totals (updated in
/// batch at flush time), flush and shard-contention counters, and the engine
/// core that receives flushed profiles.
#[derive(Debug)]
pub struct SiteShared {
    id: u64,
    name: String,
    core: CoreRef,
    policy: FlushPolicy,
    op_totals: [AtomicU64; 4],
    nanos_total: AtomicU64,
    max_size: AtomicUsize,
    flushes: AtomicU64,
    contended: AtomicU64,
    alloc_count: AtomicU64,
    alloc_bytes: AtomicU64,
}

impl SiteShared {
    pub(crate) fn new(id: u64, name: String, core: CoreRef, policy: FlushPolicy) -> Self {
        SiteShared {
            id,
            name,
            core,
            policy,
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
        &self.name
    }

    pub(crate) fn policy(&self) -> FlushPolicy {
        self.policy
    }

    /// This site's row in [`Runtime::site_manifest`](crate::Runtime::site_manifest).
    pub fn manifest_entry(&self) -> cs_core::SiteManifestEntry {
        let total_ops: u64 = (0..4)
            .map(|i| self.op_totals[i].load(Ordering::Relaxed))
            .sum();
        let alloc_bytes = self.alloc_bytes.load(Ordering::Relaxed);
        cs_core::SiteManifestEntry {
            id: self.id,
            name: self.name.clone(),
            abstraction: self.core.abstraction(),
            default_kind: self.core.default_kind(),
            current_kind: self.core.current_kind(),
            alloc_bytes_per_op: if total_ops == 0 {
                0.0
            } else {
                alloc_bytes as f64 / total_ops as f64
            },
        }
    }

    /// Folds one flushed thread-local buffer into the shared state: exact
    /// totals first (atomics, never lost even when the engine is frozen),
    /// then the profile into the engine core's sink, where the analyzer
    /// treats it as one finished monitored instance.
    pub(crate) fn ingest(&self, profile: WorkloadProfile) {
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
        self.max_size.fetch_max(profile.max_size(), Ordering::Relaxed);
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.core.ingest(profile);
    }

    /// Exact cumulative count for `op` over every flushed buffer.
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
            name: self.name.clone(),
            current_kind: self.core.current_kind(),
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
    /// Sampled-and-scaled wall time attributed to critical ops.
    pub sampled_nanos: u64,
    /// Largest post-op shard size observed.
    pub max_size: usize,
    /// Thread-local buffer flushes into this site.
    pub flushes: u64,
    /// Contended shard-lock acquisitions.
    pub contended: u64,
    /// Sampled-and-scaled allocation events attributed to critical ops.
    pub alloc_count: u64,
    /// Sampled-and-scaled allocation bytes attributed to critical ops.
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
    /// ops flushed. Sampled estimate under `sample_mask > 0`.
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
