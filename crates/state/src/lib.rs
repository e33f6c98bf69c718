//! # cs-state
//!
//! Crash-safe persistence for learned CollectionSwitch selection state —
//! the durability layer behind fleet-mode warm start.
//!
//! The paper's value proposition is *amortized* learning: monitoring cost
//! is paid once, better collection choices keep paying off. That breaks at
//! every process restart unless the learned state (per-site decisions and
//! calibrated model coefficients) survives the restart
//! — and it only *safely* survives if a half-written or bit-flipped
//! snapshot can never poison the next process. This crate provides that
//! guarantee with three pieces:
//!
//! * **A framed record format** ([`record`]): a 16-byte checksummed
//!   header, then one independently framed record per unit of state, each
//!   carrying a sync marker and its own CRC-32. Damage is contained to the
//!   records it touches.
//! * **An atomic writer** ([`writer`]): temp file + `fsync` + rename +
//!   parent-directory `fsync`. The target path always holds a complete
//!   old or complete new snapshot, never a mix; stale temps are swept on
//!   the next start.
//! * **A lenient loader** ([`reader`]): salvages every record that frames,
//!   checksums and decodes cleanly; **quarantines** everything else with
//!   per-reason counters and localized [`CorruptionIncident`]s — and never
//!   panics, whatever the input bytes.
//!
//! `cs-state` sits at the bottom of the workspace: it has no dependencies,
//! and both `cs-model` (atomic model-file saves) and `cs-core` (snapshot
//! export, warm-start import) build on it. The engine-facing surface —
//! *when* to snapshot, how to validate a warm-start record against the
//! live site manifest — lives in `cs-core`; this crate only guarantees
//! that whatever was written is either recovered intact or accounted as
//! lost.
//!
//! ## Quickstart
//!
//! ```
//! use cs_state::{load_lenient, write_atomic, MetaRecord, SiteRecord, Snapshot};
//!
//! let dir = std::env::temp_dir().join(format!("cs-state-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("selection.css");
//!
//! let snapshot = Snapshot {
//!     meta: Some(MetaRecord {
//!         seq: 1,
//!         created_unix_nanos: 0,
//!         rule: "R_time".into(),
//!         site_count: 1,
//!     }),
//!     sites: vec![SiteRecord {
//!         name: "IndexCursor:70".into(),
//!         abstraction: "list".into(),
//!         default_kind: "array".into(),
//!         current_kind: "hasharray".into(),
//!         rounds: 12,
//!         switches: 1,
//!         history_instances: 480,
//!     }],
//!     models: Vec::new(),
//! };
//! write_atomic(&path, &snapshot).unwrap();
//!
//! let report = load_lenient(&path).unwrap();
//! assert!(report.stats.is_clean());
//! assert_eq!(report.snapshot.sites[0].current_kind, "hasharray");
//! std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod crc;
pub mod reader;
pub mod record;
pub mod writer;

pub use crc::{crc32, Crc32};
pub use reader::{
    decode_lenient, load_lenient, CorruptionIncident, CorruptionReason, LoadReport, SalvageStats,
    MAX_INCIDENTS,
};
pub use record::{MetaRecord, ModelBlobRecord, Record, SiteRecord, Snapshot};
pub use writer::{
    encode_snapshot, sweep_stale_temps, write_atomic, write_atomic_bytes, WriteReport,
    FORMAT_VERSION, MAX_PAYLOAD,
};

// Snapshots and load reports cross threads (an engine shared by many
// threads saves from whichever calls it); keep them Send + Sync by
// construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Snapshot>();
    assert_send_sync::<LoadReport>();
    assert_send_sync::<WriteReport>();
};
