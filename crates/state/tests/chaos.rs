//! The torn-write chaos harness (ISSUE 6 tentpole).
//!
//! Injects every fault class the durability story promises to survive —
//! prefix truncation, single-bit flips, torn in-place mixes of two
//! snapshot generations, duplicated/reordered records, and a simulated
//! kill during the atomic write protocol — and checks the loader's
//! contract exactly:
//!
//! * load always succeeds (no panic, no `Err` for corrupt content),
//! * every intact record is salvaged (maximal salvage),
//! * every salvaged record is bit-identical to a record some writer
//!   produced (decode-what-you-salvage),
//! * the quarantine counters account for exactly the damaged records.
//!
//! The workloads here use ASCII site names and small counters, so record
//! payloads cannot contain the sync marker — which makes the *exact*
//! quarantine accounting assertions deterministic (a flipped byte damages
//! exactly one frame, and resynchronization always lands on a true frame
//! boundary).

use cs_state::writer::{FRAME_OVERHEAD, HEADER_LEN, SYNC};
use cs_state::{
    crc32, decode_lenient, encode_snapshot, load_lenient, sweep_stale_temps, write_atomic,
    CorruptionReason, MetaRecord, ModelBlobRecord, Record, SiteRecord, Snapshot,
};

fn sample_snapshot() -> Snapshot {
    Snapshot {
        meta: Some(MetaRecord {
            seq: 11,
            created_unix_nanos: 1_000,
            rule: "R_time".into(),
            site_count: 4,
        }),
        sites: vec![
            site("cursor", "list", "array", "hasharray", 12, 1, 240),
            site("queue", "list", "linked", "array", 9, 1, 180),
            site("dedup", "set", "chained", "array", 7, 1, 140),
            site("index", "map", "chained", "open-koloboke", 15, 2, 300),
        ],
        models: vec![ModelBlobRecord {
            family: "lists".into(),
            text: "# collectionswitch model v1\nabstraction list\n".into(),
        }],
    }
}

fn site(
    name: &str,
    abstraction: &str,
    default_kind: &str,
    current_kind: &str,
    rounds: u64,
    switches: u64,
    history: u64,
) -> SiteRecord {
    SiteRecord {
        name: name.into(),
        abstraction: abstraction.into(),
        default_kind: default_kind.into(),
        current_kind: current_kind.into(),
        rounds,
        switches,
        history_instances: history,
    }
}

/// Byte ranges `[start, end)` of every frame in an encoded image, found
/// by scanning for the sync marker (valid for payloads that cannot
/// contain it, which holds for this harness's ASCII/small-integer data).
fn frame_ranges(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut starts: Vec<usize> = Vec::new();
    let mut i = HEADER_LEN;
    while i + SYNC.len() <= bytes.len() {
        if bytes[i..i + SYNC.len()] == SYNC {
            starts.push(i);
            let plen = u32::from_le_bytes(bytes[i + 5..i + 9].try_into().unwrap()) as usize;
            i += FRAME_OVERHEAD + plen;
        } else {
            i += 1;
        }
    }
    let mut ranges = Vec::with_capacity(starts.len());
    for (idx, &start) in starts.iter().enumerate() {
        let end = starts.get(idx + 1).copied().unwrap_or(bytes.len());
        ranges.push((start, end));
    }
    ranges
}

/// Asserts every salvaged record is bit-identical to one of `originals`.
fn assert_salvaged_subset(salvaged: &Snapshot, originals: &[Record]) {
    for record in salvaged.records() {
        assert!(
            originals.contains(&record),
            "salvaged record not among originals: {record:?}"
        );
    }
}

#[test]
fn truncation_at_every_byte_salvages_the_intact_prefix() {
    let snapshot = sample_snapshot();
    let bytes = encode_snapshot(&snapshot);
    let originals = snapshot.records();
    let ranges = frame_ranges(&bytes);
    assert_eq!(ranges.len(), originals.len());

    for cut in 0..=bytes.len() {
        let report = decode_lenient(&bytes[..cut]);
        let expected_loaded = ranges.iter().filter(|&&(_, end)| end <= cut).count() as u64;
        assert_eq!(
            report.stats.records_loaded, expected_loaded,
            "cut at {cut}: every fully contained record must be salvaged"
        );
        assert_salvaged_subset(&report.snapshot, &originals);
        // Exact accounting: a cut strictly inside a frame quarantines
        // exactly that frame; a cut on a boundary (or inside the header)
        // quarantines nothing.
        let inside_frame = ranges.iter().any(|&(start, end)| cut > start && cut < end);
        let expected_quarantined = u64::from(inside_frame);
        assert_eq!(
            report.stats.records_quarantined(),
            expected_quarantined,
            "cut at {cut}"
        );
        assert_eq!(report.stats.header_ok, cut >= HEADER_LEN, "cut at {cut}");
    }
}

#[test]
fn single_bit_flip_quarantines_exactly_one_record() {
    let snapshot = sample_snapshot();
    let bytes = encode_snapshot(&snapshot);
    let originals = snapshot.records();
    let total = originals.len() as u64;

    for i in 0..bytes.len() {
        for bit in [0u8, 3, 7] {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << bit;
            let report = decode_lenient(&corrupt);
            assert_salvaged_subset(&report.snapshot, &originals);
            if i < HEADER_LEN {
                // Header damage costs the header, never a record.
                assert!(!report.stats.header_ok, "flip at header byte {i}");
                assert_eq!(report.stats.records_loaded, total, "flip at {i}");
                assert_eq!(report.stats.records_quarantined(), 0, "flip at {i}");
            } else {
                assert_eq!(
                    report.stats.records_loaded,
                    total - 1,
                    "flip at byte {i} bit {bit}: exactly one record lost"
                );
                assert_eq!(
                    report.stats.records_quarantined(),
                    1,
                    "flip at byte {i} bit {bit}: exactly one record quarantined"
                );
                assert!(report.stats.header_ok);
                assert_eq!(report.incidents.len(), 1, "flip at byte {i} bit {bit}");
            }
        }
    }
}

#[test]
fn torn_mix_of_two_generations_salvages_only_real_records() {
    let old = sample_snapshot();
    let mut new = sample_snapshot();
    new.meta.as_mut().unwrap().seq = 12;
    new.sites[0].current_kind = "adaptive".into();
    new.sites[2].current_kind = "open-fastutil".into();
    new.models.clear(); // generations may differ in length
    let old_bytes = encode_snapshot(&old);
    let new_bytes = encode_snapshot(&new);
    let mut union = old.records();
    union.extend(new.records());

    let limit = old_bytes.len().min(new_bytes.len());
    for k in 0..=limit {
        // An unsafe in-place writer dying mid-overwrite: new prefix, old
        // suffix. (The atomic writer makes this impossible at the file
        // level; the loader must survive it anyway.)
        let mut torn = Vec::with_capacity(old_bytes.len());
        torn.extend_from_slice(&new_bytes[..k]);
        torn.extend_from_slice(&old_bytes[k..]);
        let report = decode_lenient(&torn);
        assert_salvaged_subset(&report.snapshot, &union);
        // The seam destroys at most a bounded window of records; the
        // stream before and after it must still be salvaged.
        let lost = report.stats.records_quarantined();
        assert!(lost <= 2, "seam at {k} lost {lost} records");
    }
}

#[test]
fn duplicated_and_reordered_records_dedupe_last_wins() {
    let snapshot = sample_snapshot();
    let bytes = encode_snapshot(&snapshot);
    let ranges = frame_ranges(&bytes);
    let originals = snapshot.records();

    // Rebuild the image with the frames reversed and two of them
    // duplicated (the replay shape a torn append-log would produce).
    let mut shuffled = bytes[..HEADER_LEN].to_vec();
    for &(start, end) in ranges.iter().rev() {
        shuffled.extend_from_slice(&bytes[start..end]);
    }
    shuffled.extend_from_slice(&bytes[ranges[0].0..ranges[0].1]);
    shuffled.extend_from_slice(&bytes[ranges[2].0..ranges[2].1]);

    let report = decode_lenient(&shuffled);
    assert!(report.stats.header_ok);
    assert_eq!(report.stats.records_loaded, originals.len() as u64 + 2);
    assert_eq!(report.stats.records_quarantined(), 0);
    assert_eq!(report.stats.duplicates_dropped, 2);
    assert_salvaged_subset(&report.snapshot, &originals);
    assert_eq!(report.snapshot.record_count(), originals.len());
    // Same content regardless of record order.
    assert_eq!(report.snapshot.sites.len(), snapshot.sites.len());
    for site in &snapshot.sites {
        assert!(report.snapshot.sites.contains(site), "missing {site:?}");
    }
}

#[test]
fn kill_during_snapshot_leaves_previous_generation_intact() {
    let dir = std::env::temp_dir().join(format!("cs-state-chaos-kill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.css");

    let old = sample_snapshot();
    write_atomic(&path, &old).unwrap();

    // A process killed mid-save leaves a partial temp next to the target;
    // the target itself is never touched until the rename.
    let mut new = sample_snapshot();
    new.meta.as_mut().unwrap().seq = 12;
    let new_bytes = encode_snapshot(&new);
    std::fs::write(
        dir.join("state.css.tmp-99999-7"),
        &new_bytes[..new_bytes.len() / 2],
    )
    .unwrap();

    let report = load_lenient(&path).unwrap();
    assert!(report.stats.is_clean(), "{:?}", report.stats);
    assert_eq!(report.snapshot, old, "previous generation must load intact");

    // Next start reclaims the garbage, then saves normally.
    assert_eq!(sweep_stale_temps(&path).unwrap(), 1);
    write_atomic(&path, &new).unwrap();
    let report = load_lenient(&path).unwrap();
    assert!(report.stats.is_clean());
    assert_eq!(report.snapshot.meta.as_ref().unwrap().seq, 12);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multi_region_corruption_is_accounted_per_region() {
    let snapshot = sample_snapshot();
    let bytes = encode_snapshot(&snapshot);
    let ranges = frame_ranges(&bytes);
    let originals = snapshot.records();

    // Damage the payloads of two non-adjacent frames.
    let mut corrupt = bytes.clone();
    corrupt[ranges[1].0 + FRAME_OVERHEAD] ^= 0xFF;
    corrupt[ranges[4].0 + FRAME_OVERHEAD] ^= 0xFF;
    let report = decode_lenient(&corrupt);
    assert_eq!(report.stats.records_loaded, originals.len() as u64 - 2);
    assert_eq!(report.stats.records_quarantined(), 2);
    assert_eq!(report.stats.crc_failures, 2);
    assert_eq!(report.incidents.len(), 2);
    for incident in &report.incidents {
        assert_eq!(incident.reason, CorruptionReason::CrcMismatch);
    }
    assert_salvaged_subset(&report.snapshot, &originals);
}

/// Frames `payload` as a record with wire tag `kind`:
/// `SYNC | kind:u8 | len:u32 | payload | crc32(kind+len+payload):u32`.
fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = SYNC.to_vec();
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[SYNC.len()..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// A per-site profile-summary payload (wire tag 4) as earlier versions
/// wrote one per site: the site name, a `u32` entry count, then each
/// entry's key and `u64` value; strings carry a `u32` length prefix, and
/// integers are little-endian.
fn profile_summary_payload(site: &str, entries: &[(&str, u64)]) -> Vec<u8> {
    fn put_str(out: &mut Vec<u8>, s: &str) {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
    let mut out = Vec::new();
    put_str(&mut out, site);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for &(key, value) in entries {
        put_str(&mut out, key);
        out.extend_from_slice(&value.to_le_bytes());
    }
    out
}

#[test]
fn retired_profile_summary_frames_load_clean() {
    let snapshot = Snapshot {
        meta: None,
        sites: vec![
            site("cursor", "list", "array", "hasharray", 12, 1, 240),
            site("dedup", "set", "chained", "array", 7, 1, 140),
        ],
        models: Vec::new(),
    };
    let bytes = encode_snapshot(&snapshot);
    let second_site = frame_ranges(&bytes)[1].0;
    let summary = profile_summary_payload(
        "cursor",
        &[
            ("profiles_ingested", 240),
            ("profiles_dropped", 0),
            ("alloc_count", 480),
            ("alloc_bytes", 23_040),
        ],
    );
    let with_frame = |kind: u8| {
        let mut image = bytes[..second_site].to_vec();
        image.extend(frame(kind, &summary));
        image.extend_from_slice(&bytes[second_site..]);
        image
    };

    // A snapshot written before profile summaries were retired holds one
    // between its site records: it loads clean, both sites intact.
    let report = decode_lenient(&with_frame(4));
    assert_eq!(
        report.stats.records_quarantined(),
        0,
        "{:?}",
        report.incidents
    );
    assert!(report.stats.is_clean(), "{:?}", report.stats);
    assert_eq!(report.stats.records_loaded, 2);
    assert_eq!(report.snapshot, snapshot);

    // A tag no version has written is still quarantined.
    let report = decode_lenient(&with_frame(9));
    assert_eq!(report.stats.decode_failures, 1);
    assert_eq!(report.incidents[0].reason, CorruptionReason::DecodeFailure);
    assert_eq!(report.snapshot, snapshot);
}
