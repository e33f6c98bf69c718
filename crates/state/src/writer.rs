//! Snapshot encoding and the atomic (crash-safe) write protocol.
//!
//! The writer never modifies a snapshot file in place. Every save:
//!
//! 1. encodes the full snapshot into memory,
//! 2. writes it to a fresh uniquely named temp file *next to* the target
//!    (same filesystem, so the rename below cannot cross devices),
//! 3. `fsync`s the temp file (data reaches the disk before the name does),
//! 4. atomically renames it over the target,
//! 5. `fsync`s the parent directory (the rename itself is durable).
//!
//! A crash at any step leaves either the complete old file or the
//! complete new file at the target path — never a mix — plus at most a
//! stale temp file, which [`sweep_stale_temps`] reclaims on the next
//! start. Torn *content* (a partially flushed temp renamed by a buggy
//! kernel, bit rot, manual tampering) is the reader's problem: every
//! record is independently checksummed, so the loader salvages whatever
//! is intact (see [`crate::reader`]).

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::crc::{crc32, Crc32};
use crate::record::{Record, Snapshot};

/// File magic: `CSSTATE` plus a format byte.
pub const MAGIC: [u8; 8] = *b"CSSTATE\x01";

/// Current format version, stored in the header.
pub const FORMAT_VERSION: u32 = 1;

/// Per-record sync marker. The reader scans for this to re-frame after
/// corruption; it was chosen to not collide with ASCII text or small
/// little-endian integers.
pub const SYNC: [u8; 4] = [0xC5, 0xA1, 0x1E, 0x57];

/// Total bytes of the file header: magic + version + header CRC.
pub const HEADER_LEN: usize = 16;

/// Bytes of record framing around a payload: sync + kind + length + CRC.
pub const FRAME_OVERHEAD: usize = 13;

/// Hard cap on a record payload. A frame whose length field exceeds this
/// is corruption by definition; the reader quarantines it instead of
/// trusting a 4 GiB allocation request.
pub const MAX_PAYLOAD: usize = 1 << 24;

/// Serializes `snapshot` into the framed on-disk format (header + one
/// frame per record).
pub fn encode_snapshot(snapshot: &Snapshot) -> Vec<u8> {
    let records = snapshot.records();
    let mut out = Vec::with_capacity(HEADER_LEN + records.len() * 96);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    let header_crc = crc32(&out[..12]);
    out.extend_from_slice(&header_crc.to_le_bytes());
    for record in &records {
        append_record(&mut out, record);
    }
    out
}

/// Appends one framed record to `buf`:
/// `SYNC | kind:u8 | len:u32 | payload | crc32(kind+len+payload):u32`.
pub fn append_record(buf: &mut Vec<u8>, record: &Record) {
    let payload = record.encode_payload();
    debug_assert!(payload.len() <= MAX_PAYLOAD, "oversized record payload");
    buf.extend_from_slice(&SYNC);
    let kind = record.kind();
    let len = (payload.len() as u32).to_le_bytes();
    buf.push(kind);
    buf.extend_from_slice(&len);
    buf.extend_from_slice(&payload);
    let mut crc = Crc32::new();
    crc.update(&[kind]);
    crc.update(&len);
    crc.update(&payload);
    buf.extend_from_slice(&crc.finish().to_le_bytes());
}

/// What one atomic save did, for latency accounting and telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteReport {
    /// Final path of the snapshot.
    pub path: PathBuf,
    /// Encoded size, in bytes.
    pub bytes: u64,
    /// Records written.
    pub records: u64,
    /// Wall-clock time of the full protocol (encode excluded), in
    /// nanoseconds.
    pub elapsed_nanos: u64,
}

/// Monotone counter making temp names unique within a process, so
/// concurrent savers (or a save racing a crashed predecessor's leftovers)
/// never collide.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_path_for(path: &Path) -> PathBuf {
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "snapshot".to_owned());
    let unique = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    path.with_file_name(format!("{file_name}.tmp-{}-{unique}", std::process::id()))
}

/// Atomically replaces `path` with the encoding of `snapshot` using the
/// temp + fsync + rename protocol described in the module docs.
///
/// # Errors
///
/// Any I/O error from creating, writing, syncing or renaming the temp
/// file. On error the target file is untouched; a temp file may remain
/// and will be collected by [`sweep_stale_temps`].
pub fn write_atomic(path: impl AsRef<Path>, snapshot: &Snapshot) -> std::io::Result<WriteReport> {
    let records = snapshot.record_count() as u64;
    let bytes = encode_snapshot(snapshot);
    write_atomic_bytes_inner(path.as_ref(), &bytes, records)
}

/// Atomically replaces `path` with raw `bytes` using the same protocol —
/// for persistence paths that own their own format (e.g. `cs-model` text
/// files) but must not be left half-written by a crash.
pub fn write_atomic_bytes(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<WriteReport> {
    write_atomic_bytes_inner(path.as_ref(), bytes, 0)
}

fn write_atomic_bytes_inner(
    path: &Path,
    bytes: &[u8],
    records: u64,
) -> std::io::Result<WriteReport> {
    let started = Instant::now();
    let tmp = temp_path_for(path);
    let result = (|| {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        // Data must be durable before the rename publishes the name.
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        // And the rename must be durable before we report success.
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::File::open(parent)?.sync_all()?;
        }
        Ok(())
    })();
    if let Err(e) = result {
        // Best-effort cleanup; the sweep catches what this misses.
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(WriteReport {
        path: path.to_path_buf(),
        bytes: bytes.len() as u64,
        records,
        elapsed_nanos: started.elapsed().as_nanos() as u64,
    })
}

/// Removes temp files a crashed predecessor left next to `path` (any
/// sibling named `<file>.tmp-<pid>-<n>`). Returns how many were removed.
///
/// Call once at startup, *before* the first save: a temp file from the
/// current process is never older than the sweep, so everything matching
/// the prefix is garbage from a previous incarnation.
pub fn sweep_stale_temps(path: impl AsRef<Path>) -> std::io::Result<u64> {
    let path = path.as_ref();
    let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) else {
        return Ok(0);
    };
    let Some(file_name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
        return Ok(0);
    };
    let prefix = format!("{file_name}.tmp-");
    let mut removed = 0;
    let entries = match fs::read_dir(parent) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        if name.to_string_lossy().starts_with(&prefix) && fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{MetaRecord, SiteRecord};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cs-state-writer-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            meta: Some(MetaRecord {
                seq: 1,
                created_unix_nanos: 42,
                rule: "R_time".into(),
                site_count: 1,
            }),
            sites: vec![SiteRecord {
                name: "s".into(),
                abstraction: "list".into(),
                default_kind: "array".into(),
                current_kind: "hasharray".into(),
                rounds: 3,
                switches: 1,
                history_instances: 60,
            }],
            models: Vec::new(),
        }
    }

    #[test]
    fn encoding_starts_with_magic_and_checksummed_header() {
        let bytes = encode_snapshot(&sample_snapshot());
        assert_eq!(&bytes[..8], &MAGIC);
        assert_eq!(&bytes[8..12], &FORMAT_VERSION.to_le_bytes());
        let stored = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        assert_eq!(stored, crc32(&bytes[..12]));
        assert_eq!(&bytes[16..20], &SYNC);
    }

    #[test]
    fn atomic_write_replaces_and_survives_reload() {
        let dir = temp_dir("replace");
        let path = dir.join("state.css");
        let report = write_atomic(&path, &sample_snapshot()).unwrap();
        assert_eq!(report.records, 2);
        assert!(report.bytes > HEADER_LEN as u64);
        let mut second = sample_snapshot();
        second.meta.as_mut().unwrap().seq = 2;
        write_atomic(&path, &second).unwrap();
        let loaded = crate::load_lenient(&path).unwrap();
        assert_eq!(loaded.snapshot.meta.unwrap().seq, 2);
        assert_eq!(loaded.stats.records_quarantined(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_temp_files_remain_after_a_clean_write() {
        let dir = temp_dir("clean");
        let path = dir.join("state.css");
        write_atomic(&path, &sample_snapshot()).unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "stray temps: {leftovers:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_removes_only_matching_temps() {
        let dir = temp_dir("sweep");
        let path = dir.join("state.css");
        write_atomic(&path, &sample_snapshot()).unwrap();
        fs::write(dir.join("state.css.tmp-999-0"), b"partial").unwrap();
        fs::write(dir.join("unrelated.txt"), b"keep me").unwrap();
        let removed = sweep_stale_temps(&path).unwrap();
        assert_eq!(removed, 1);
        assert!(path.exists());
        assert!(dir.join("unrelated.txt").exists());
        assert_eq!(sweep_stale_temps(&path).unwrap(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_of_missing_directory_is_ok() {
        assert_eq!(
            sweep_stale_temps("/nonexistent/cs-state/state.css").unwrap(),
            0
        );
    }
}
