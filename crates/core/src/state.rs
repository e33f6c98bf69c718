//! Engine-side durability: warm-start accounting.
//!
//! The byte-level guarantees (atomic writes, per-record checksums,
//! lenient salvage) live in `cs-state`; this module owns the *policy*
//! side: how a loaded snapshot is validated against live sites, and what
//! the import reports.
//!
//! The flow across a restart:
//!
//! 1. Process N saves its learned state with
//!    [`Switch::save_state`](crate::Switch::save_state), which writes the
//!    snapshot atomically.
//! 2. Process N+1 builds its engine with
//!    [`SwitchBuilder::warm_start_from`](crate::SwitchBuilder::warm_start_from):
//!    temp files a writer killed mid-save left beside the snapshot are
//!    swept, the snapshot is loaded leniently (corruption quarantined, never
//!    fatal), model blobs re-validate through `cs-model`'s parser, and
//!    each site record waits for a live site with a matching name.
//! 3. As allocation contexts register, matching records are validated
//!    per-site — same abstraction, same declared default variant
//!    (the *fingerprint*), a variant name this build knows — and applied,
//!    or rejected *for that site only* with a
//!    [`WarmStartSiteEvent`](crate::WarmStartSiteEvent) recorded.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use cs_collections::Abstraction;
use parking_lot::Mutex;

/// Warm-start state stashed in the engine: the salvage account from load
/// time plus the still-unclaimed site records, consumed as live sites
/// register.
#[derive(Debug)]
pub(crate) struct WarmState {
    pub(crate) source: String,
    /// Snapshot site records not yet claimed by a live site, keyed by
    /// `(abstraction, site name)`.
    pub(crate) sites: Mutex<HashMap<(Abstraction, String), cs_state::SiteRecord>>,
    pub(crate) sites_in_snapshot: usize,
    pub(crate) models_in_snapshot: usize,
    pub(crate) applied: AtomicU64,
    pub(crate) rejected_stale: AtomicU64,
    pub(crate) rejected_unknown: AtomicU64,
    pub(crate) records_loaded: u64,
    pub(crate) records_quarantined: u64,
    pub(crate) duplicates_dropped: u64,
}

impl WarmState {
    pub(crate) fn report(&self) -> WarmStartReport {
        WarmStartReport {
            source: self.source.clone(),
            sites_in_snapshot: self.sites_in_snapshot,
            models_in_snapshot: self.models_in_snapshot,
            applied: self.applied.load(Ordering::Relaxed),
            rejected_stale: self.rejected_stale.load(Ordering::Relaxed),
            rejected_unknown: self.rejected_unknown.load(Ordering::Relaxed),
            unclaimed: self.sites.lock().len(),
            records_loaded: self.records_loaded,
            records_quarantined: self.records_quarantined,
            duplicates_dropped: self.duplicates_dropped,
        }
    }
}

/// Point-in-time account of a warm-start import, from
/// [`Switch::warm_start_report`](crate::Switch::warm_start_report).
///
/// `applied + rejected_stale + rejected_unknown + unclaimed ==
/// sites_in_snapshot` at every instant: every salvaged site record is
/// either consumed by a live site (one way or another) or still waiting
/// for one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmStartReport {
    /// Where the snapshot came from.
    pub source: String,
    /// Site records salvaged from the snapshot.
    pub sites_in_snapshot: usize,
    /// Model blobs salvaged from the snapshot.
    pub models_in_snapshot: usize,
    /// Site records validated and installed on live sites.
    pub applied: u64,
    /// Site records rejected for a default-variant fingerprint mismatch.
    pub rejected_stale: u64,
    /// Site records rejected because their variant is unknown here.
    pub rejected_unknown: u64,
    /// Site records no live site has claimed (yet).
    pub unclaimed: usize,
    /// Records the lenient loader salvaged.
    pub records_loaded: u64,
    /// Records the lenient loader quarantined as corrupt.
    pub records_quarantined: u64,
    /// Records dropped by last-wins deduplication.
    pub duplicates_dropped: u64,
}

impl WarmStartReport {
    /// Fraction of snapshot sites whose learned state was applied:
    /// `applied / sites_in_snapshot` (0 when the snapshot had none).
    pub fn hit_ratio(&self) -> f64 {
        if self.sites_in_snapshot == 0 {
            0.0
        } else {
            self.applied as f64 / self.sites_in_snapshot as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_report_hit_ratio() {
        let mut report = WarmStartReport {
            source: "s".into(),
            sites_in_snapshot: 4,
            models_in_snapshot: 3,
            applied: 3,
            rejected_stale: 1,
            rejected_unknown: 0,
            unclaimed: 0,
            records_loaded: 8,
            records_quarantined: 0,
            duplicates_dropped: 0,
        };
        assert!((report.hit_ratio() - 0.75).abs() < 1e-12);
        report.sites_in_snapshot = 0;
        assert_eq!(report.hit_ratio(), 0.0);
    }
}
