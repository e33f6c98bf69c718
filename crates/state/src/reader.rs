//! The lenient snapshot loader: salvage everything intact, quarantine the
//! rest, never panic.
//!
//! The loader's contract is the inverse of a strict parser's: *any* byte
//! string is a valid input. Corruption — a truncated tail, a flipped bit,
//! a torn in-place overwrite, duplicated or reordered records — costs
//! exactly the records it damaged. Each frame carries a sync marker and
//! its own CRC, so after bad bytes the loader scans forward to the next
//! sync marker and resumes framing; every salvaged record re-verified its
//! checksum, so a salvaged record is bit-identical to one the writer
//! produced.
//!
//! Nothing here returns `Err` for corruption (only for the file being
//! missing or unreadable), and nothing panics: the damage is *accounted*
//! instead, in [`SalvageStats`] (counters) and [`CorruptionIncident`]s
//! (one localized description per damaged region, for the flight
//! recorder).

use std::fmt;
use std::path::Path;

use crate::crc::Crc32;
use crate::record::{Record, Snapshot, KIND_RETIRED_PROFILE};
use crate::writer::{FORMAT_VERSION, FRAME_OVERHEAD, HEADER_LEN, MAGIC, MAX_PAYLOAD, SYNC};

/// Loss counters for one load. All zero (and `header_ok`) for a clean
/// file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SalvageStats {
    /// Whether the file header (magic, version, header CRC) verified.
    pub header_ok: bool,
    /// Total bytes in the file.
    pub bytes_total: u64,
    /// Bytes discarded while scanning for the next sync marker.
    pub bytes_skipped: u64,
    /// Records that framed, checksummed and decoded cleanly.
    pub records_loaded: u64,
    /// Frames whose stored CRC did not match their content.
    pub crc_failures: u64,
    /// Frames cut off by the end of the file (or by a length field
    /// pointing past it).
    pub truncated_frames: u64,
    /// Frames whose length field exceeded [`MAX_PAYLOAD`].
    pub oversized_frames: u64,
    /// Checksum-valid payloads that still failed to decode (unknown
    /// record kind, bad field layout) — forward-compatibility quarantine.
    pub decode_failures: u64,
    /// Gaps where the loader lost framing entirely and had to scan to the
    /// next sync marker (each gap is at least one destroyed record).
    pub resync_gaps: u64,
    /// Well-formed records dropped by last-wins deduplication.
    pub duplicates_dropped: u64,
}

impl SalvageStats {
    /// Total records quarantined: every counted way a record can be lost
    /// short of deduplication.
    pub fn records_quarantined(&self) -> u64 {
        self.crc_failures
            + self.truncated_frames
            + self.oversized_frames
            + self.decode_failures
            + self.resync_gaps
    }

    /// True when the file loaded with no loss of any kind.
    pub fn is_clean(&self) -> bool {
        self.header_ok && self.records_quarantined() == 0 && self.bytes_skipped == 0
    }
}

/// Why a region of the file was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorruptionReason {
    /// The 16-byte file header failed verification.
    BadHeader,
    /// Framing was lost; bytes were skipped scanning for the next sync.
    ResyncGap,
    /// A frame's stored CRC did not match its content.
    CrcMismatch,
    /// A frame ran past the end of the file.
    TruncatedFrame,
    /// A frame declared a payload larger than [`MAX_PAYLOAD`].
    OversizedFrame,
    /// A checksum-valid payload failed to decode.
    DecodeFailure,
}

impl CorruptionReason {
    /// Stable snake_case tag, for telemetry labels and incident logs.
    pub fn name(self) -> &'static str {
        match self {
            CorruptionReason::BadHeader => "bad_header",
            CorruptionReason::ResyncGap => "resync_gap",
            CorruptionReason::CrcMismatch => "crc_mismatch",
            CorruptionReason::TruncatedFrame => "truncated_frame",
            CorruptionReason::OversizedFrame => "oversized_frame",
            CorruptionReason::DecodeFailure => "decode_failure",
        }
    }
}

impl fmt::Display for CorruptionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One localized description of damage found during a load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptionIncident {
    /// Byte offset where the damaged region starts.
    pub offset: u64,
    /// What kind of damage.
    pub reason: CorruptionReason,
    /// Human-readable detail (decode error message, bytes skipped, …).
    pub detail: String,
}

impl fmt::Display for CorruptionIncident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at offset {}: {}",
            self.reason, self.offset, self.detail
        )
    }
}

/// Incidents past this count are still *counted* in [`SalvageStats`] but
/// not individually described, bounding memory on pathological input.
pub const MAX_INCIDENTS: usize = 1024;

/// The result of a lenient load: the maximal salvageable snapshot plus a
/// full loss account.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadReport {
    /// Everything that survived, deduplicated last-wins.
    pub snapshot: Snapshot,
    /// Loss counters.
    pub stats: SalvageStats,
    /// Localized damage descriptions (capped at [`MAX_INCIDENTS`]).
    pub incidents: Vec<CorruptionIncident>,
}

/// Loads `path` leniently.
///
/// # Errors
///
/// Only for the file being missing or unreadable. Corrupt *content* never
/// errors: it is salvaged and accounted in the returned [`LoadReport`].
pub fn load_lenient(path: impl AsRef<Path>) -> std::io::Result<LoadReport> {
    let bytes = std::fs::read(path)?;
    Ok(decode_lenient(&bytes))
}

/// Decodes an in-memory snapshot image leniently. Pure; never panics.
pub fn decode_lenient(bytes: &[u8]) -> LoadReport {
    let mut stats = SalvageStats {
        bytes_total: bytes.len() as u64,
        ..SalvageStats::default()
    };
    let mut incidents = Vec::new();
    let mut records = Vec::new();

    let push_incident = |incidents: &mut Vec<CorruptionIncident>,
                         offset: usize,
                         reason: CorruptionReason,
                         detail: String| {
        if incidents.len() < MAX_INCIDENTS {
            incidents.push(CorruptionIncident {
                offset: offset as u64,
                reason,
                detail,
            });
        }
    };

    // --- header ---
    let header_valid = bytes.len() >= HEADER_LEN
        && bytes[..8] == MAGIC
        && bytes[8..12] == FORMAT_VERSION.to_le_bytes()
        && {
            let mut crc = Crc32::new();
            crc.update(&bytes[..12]);
            bytes[12..16] == crc.finish().to_le_bytes()
        };
    stats.header_ok = header_valid;
    let mut off = if header_valid { HEADER_LEN } else { 0 };
    // After a bad region we already accounted for, the scan to the next
    // sync is expected — don't bill the same damage twice.
    let mut gap_already_accounted = !header_valid;
    if !header_valid {
        push_incident(
            &mut incidents,
            0,
            CorruptionReason::BadHeader,
            format!("header failed verification ({} bytes in file)", bytes.len()),
        );
    }

    // --- record frames ---
    loop {
        let Some(sync_at) = find_sync(bytes, off) else {
            let remaining = bytes.len().saturating_sub(off);
            if remaining > 0 {
                stats.bytes_skipped += remaining as u64;
                if !gap_already_accounted {
                    stats.resync_gaps += 1;
                    push_incident(
                        &mut incidents,
                        off,
                        CorruptionReason::ResyncGap,
                        format!("{remaining} trailing bytes with no sync marker"),
                    );
                }
            }
            break;
        };
        if sync_at > off {
            let skipped = sync_at - off;
            stats.bytes_skipped += skipped as u64;
            if !gap_already_accounted {
                stats.resync_gaps += 1;
                push_incident(
                    &mut incidents,
                    off,
                    CorruptionReason::ResyncGap,
                    format!("{skipped} bytes skipped to regain framing"),
                );
            }
        }
        gap_already_accounted = false;
        let p = sync_at;

        // Frame fields: kind at p+4, payload length at p+5.
        if p + 9 > bytes.len() {
            stats.truncated_frames += 1;
            push_incident(
                &mut incidents,
                p,
                CorruptionReason::TruncatedFrame,
                "file ends inside a frame header".to_owned(),
            );
            stats.bytes_skipped += (bytes.len() - p) as u64;
            break;
        }
        let kind = bytes[p + 4];
        let plen = u32::from_le_bytes(bytes[p + 5..p + 9].try_into().expect("4 bytes")) as usize;
        if plen > MAX_PAYLOAD {
            stats.oversized_frames += 1;
            push_incident(
                &mut incidents,
                p,
                CorruptionReason::OversizedFrame,
                format!("declared payload of {plen} bytes exceeds cap {MAX_PAYLOAD}"),
            );
            // The length field is untrustworthy: rescan just past this
            // sync marker rather than jumping by it.
            off = p + 4;
            gap_already_accounted = true;
            continue;
        }
        let frame_end = p + FRAME_OVERHEAD + plen;
        if frame_end > bytes.len() {
            stats.truncated_frames += 1;
            push_incident(
                &mut incidents,
                p,
                CorruptionReason::TruncatedFrame,
                format!(
                    "frame needs {} bytes, file has {}",
                    frame_end - p,
                    bytes.len() - p
                ),
            );
            off = p + 4;
            gap_already_accounted = true;
            continue;
        }
        let mut crc = Crc32::new();
        crc.update(&bytes[p + 4..p + 9 + plen]);
        let stored =
            u32::from_le_bytes(bytes[p + 9 + plen..frame_end].try_into().expect("4 bytes"));
        if crc.finish() != stored {
            stats.crc_failures += 1;
            push_incident(
                &mut incidents,
                p,
                CorruptionReason::CrcMismatch,
                format!("record kind {kind}, {plen}-byte payload failed its checksum"),
            );
            // The damage could be anywhere in the frame, including the
            // length field itself: rescan rather than trust `frame_end`.
            off = p + 4;
            gap_already_accounted = true;
            continue;
        }
        // An intact frame of a retired kind is not damage: drop it unread.
        if kind == KIND_RETIRED_PROFILE {
            off = frame_end;
            continue;
        }
        match Record::decode(kind, &bytes[p + 9..p + 9 + plen]) {
            Ok(record) => {
                stats.records_loaded += 1;
                records.push(record);
            }
            Err(e) => {
                stats.decode_failures += 1;
                push_incident(
                    &mut incidents,
                    p,
                    CorruptionReason::DecodeFailure,
                    format!("record kind {kind}: {e}"),
                );
            }
        }
        off = frame_end;
    }

    let (snapshot, duplicates) = Snapshot::assemble(records);
    stats.duplicates_dropped = duplicates;
    LoadReport {
        snapshot,
        stats,
        incidents,
    }
}

/// Position of the next sync marker at or after `from`.
fn find_sync(bytes: &[u8], from: usize) -> Option<usize> {
    if from >= bytes.len() {
        return None;
    }
    bytes[from..]
        .windows(SYNC.len())
        .position(|w| w == SYNC)
        .map(|i| from + i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{MetaRecord, ModelBlobRecord, SiteRecord};
    use crate::writer::encode_snapshot;

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            meta: Some(MetaRecord {
                seq: 3,
                created_unix_nanos: 99,
                rule: "R_time".into(),
                site_count: 2,
            }),
            sites: vec![
                SiteRecord {
                    name: "alpha".into(),
                    abstraction: "list".into(),
                    default_kind: "array".into(),
                    current_kind: "hasharray".into(),
                    rounds: 5,
                    switches: 1,
                    history_instances: 100,
                },
                SiteRecord {
                    name: "beta".into(),
                    abstraction: "set".into(),
                    default_kind: "chained".into(),
                    current_kind: "array".into(),
                    rounds: 4,
                    switches: 1,
                    history_instances: 80,
                },
            ],
            models: vec![ModelBlobRecord {
                family: "lists".into(),
                text: "# collectionswitch model v1\n".into(),
            }],
        }
    }

    #[test]
    fn clean_image_loads_clean() {
        let bytes = encode_snapshot(&sample_snapshot());
        let report = decode_lenient(&bytes);
        assert!(report.stats.is_clean(), "{:?}", report.stats);
        assert_eq!(report.stats.records_loaded, 4);
        assert_eq!(report.snapshot, sample_snapshot());
        assert!(report.incidents.is_empty());
    }

    #[test]
    fn empty_and_garbage_inputs_never_panic() {
        let empty = decode_lenient(&[]);
        assert!(!empty.stats.header_ok);
        assert_eq!(empty.stats.records_loaded, 0);
        let garbage: Vec<u8> = (0..1000).map(|i| (i * 31 % 251) as u8).collect();
        let report = decode_lenient(&garbage);
        assert_eq!(report.stats.records_loaded, 0);
        assert_eq!(report.snapshot.record_count(), 0);
    }

    #[test]
    fn corrupt_header_still_salvages_every_record() {
        let mut bytes = encode_snapshot(&sample_snapshot());
        bytes[3] ^= 0xFF;
        let report = decode_lenient(&bytes);
        assert!(!report.stats.header_ok);
        assert_eq!(report.stats.records_loaded, 4);
        assert_eq!(report.stats.records_quarantined(), 0);
        assert_eq!(report.snapshot, sample_snapshot());
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load_lenient("/nonexistent/cs-state/state.css").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }
}
