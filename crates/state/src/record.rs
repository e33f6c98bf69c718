//! The snapshot record vocabulary and its binary payload encoding.
//!
//! A snapshot is a flat sequence of independently framed records (framing
//! lives in [`crate::writer`] / [`crate::reader`]); this module defines
//! what goes *inside* a frame. Payloads use a tiny fixed-endian cursor
//! format — little-endian integers and length-prefixed UTF-8 strings — so
//! decoding is bounds-checked at every step and a corrupt payload can
//! fail cleanly without panicking.
//!
//! Everything here is stringly typed on purpose: the store persists
//! variant *names* (`"hasharray"`, `"open-koloboke"`), not enum indices,
//! so a snapshot written by one build loads under another even if the
//! kind enums were reordered — the engine validates names against its
//! live site manifest at import time and degrades to cold start on
//! mismatch, instead of silently installing the wrong variant.

use std::fmt;

/// Upper bound on any single string field, in bytes. A length prefix
/// beyond this is treated as corruption, not an allocation request.
pub const MAX_STRING_LEN: usize = 4096;

/// Snapshot-level metadata: one per snapshot, written first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaRecord {
    /// Writer-assigned snapshot sequence number (monotone per process).
    pub seq: u64,
    /// Wall-clock write time, nanoseconds since the Unix epoch.
    pub created_unix_nanos: u64,
    /// Name of the selection rule the writing engine ran.
    pub rule: String,
    /// Site records the writer intended to persist (a load that salvages
    /// fewer knows it lost some).
    pub site_count: u32,
}

/// Learned per-site selection state: the decision the engine reached for
/// one allocation context, plus enough counters to judge its maturity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteRecord {
    /// Allocation-site name (the engine's context name).
    pub name: String,
    /// Abstraction name: `"list"`, `"set"` or `"map"`.
    pub abstraction: String,
    /// Developer-declared default variant at the time of the snapshot —
    /// the site's *fingerprint*: import refuses to apply the record when
    /// the live site declares a different default.
    pub default_kind: String,
    /// The variant the engine had selected.
    pub current_kind: String,
    /// Analysis rounds the site had completed.
    pub rounds: u64,
    /// Switches the site had performed.
    pub switches: u64,
    /// Instances aggregated into the site's workload history.
    pub history_instances: u64,
}

/// A calibrated cost model, carried as an opaque `cs-model` text blob.
///
/// `cs-state` deliberately does not parse the blob: model validation
/// (coefficient magnitude, NaN rejection) belongs to
/// `cs_model::persist::from_text`, which the engine invokes at import
/// with its own lenient fallback path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelBlobRecord {
    /// Model family: `"lists"`, `"sets"` or `"maps"`.
    pub family: String,
    /// The `cs-model` text format, verbatim.
    pub text: String,
}

/// Any record a snapshot can carry.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Snapshot metadata.
    Meta(MetaRecord),
    /// Per-site selection state.
    Site(SiteRecord),
    /// A calibrated model blob.
    Model(ModelBlobRecord),
}

/// Wire tags. Unknown tags are quarantined by the reader (forward
/// compatibility), so these values are append-only: never reuse one.
pub(crate) const KIND_META: u8 = 1;
pub(crate) const KIND_SITE: u8 = 2;
pub(crate) const KIND_MODEL: u8 = 3;
/// Retired: per-site profile summaries, which earlier versions wrote and
/// nothing read. The reader drops these frames unread, so snapshots that
/// hold them still load clean.
pub(crate) const KIND_RETIRED_PROFILE: u8 = 4;

impl Record {
    /// The record's wire tag.
    pub(crate) fn kind(&self) -> u8 {
        match self {
            Record::Meta(_) => KIND_META,
            Record::Site(_) => KIND_SITE,
            Record::Model(_) => KIND_MODEL,
        }
    }

    /// Stable name of the record type, for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Record::Meta(_) => "meta",
            Record::Site(_) => "site",
            Record::Model(_) => "model",
        }
    }

    /// Encodes the payload (frame excluded).
    pub(crate) fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            Record::Meta(m) => {
                put_u64(&mut out, m.seq);
                put_u64(&mut out, m.created_unix_nanos);
                put_str(&mut out, &m.rule);
                put_u32(&mut out, m.site_count);
            }
            Record::Site(s) => {
                put_str(&mut out, &s.name);
                put_str(&mut out, &s.abstraction);
                put_str(&mut out, &s.default_kind);
                put_str(&mut out, &s.current_kind);
                put_u64(&mut out, s.rounds);
                put_u64(&mut out, s.switches);
                put_u64(&mut out, s.history_instances);
            }
            Record::Model(m) => {
                put_str(&mut out, &m.family);
                put_str(&mut out, &m.text);
            }
        }
        out
    }

    /// Decodes a payload for `kind`.
    pub(crate) fn decode(kind: u8, payload: &[u8]) -> Result<Record, DecodeError> {
        let mut c = Cursor::new(payload);
        let record = match kind {
            KIND_META => Record::Meta(MetaRecord {
                seq: c.u64()?,
                created_unix_nanos: c.u64()?,
                rule: c.str(MAX_STRING_LEN)?,
                site_count: c.u32()?,
            }),
            KIND_SITE => Record::Site(SiteRecord {
                name: c.str(MAX_STRING_LEN)?,
                abstraction: c.str(MAX_STRING_LEN)?,
                default_kind: c.str(MAX_STRING_LEN)?,
                current_kind: c.str(MAX_STRING_LEN)?,
                rounds: c.u64()?,
                switches: c.u64()?,
                history_instances: c.u64()?,
            }),
            KIND_MODEL => Record::Model(ModelBlobRecord {
                family: c.str(MAX_STRING_LEN)?,
                // Model text can exceed the field cap: allow the full
                // payload (already bounded by the frame's MAX_PAYLOAD).
                text: c.str(usize::MAX)?,
            }),
            other => {
                return Err(DecodeError::new(format!("unknown record kind {other}")));
            }
        };
        c.finish()?;
        Ok(record)
    }
}

/// Why a checksum-valid payload still failed to decode (wrong field
/// layout, oversized string, trailing bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    message: String,
}

impl DecodeError {
    fn new(message: impl Into<String>) -> DecodeError {
        DecodeError {
            message: message.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DecodeError {}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked payload reader: every accessor either yields a value or
/// a [`DecodeError`] — no indexing, no panics, regardless of input.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Cursor<'a> {
        Cursor { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.data.len())
            .ok_or_else(|| {
                DecodeError::new(format!(
                    "payload truncated: need {n} bytes at offset {}, have {}",
                    self.pos,
                    self.data.len().saturating_sub(self.pos)
                ))
            })?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn str(&mut self, cap: usize) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        if len > cap {
            return Err(DecodeError::new(format!(
                "string length {len} exceeds cap {cap}"
            )));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DecodeError::new("string field is not valid UTF-8"))
    }

    /// Rejects trailing bytes: a payload that decodes but is longer than
    /// its fields is corrupt (or from an incompatible future layout).
    fn finish(self) -> Result<(), DecodeError> {
        if self.pos != self.data.len() {
            return Err(DecodeError::new(format!(
                "{} trailing bytes after last field",
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// The assembled, deduplicated content of a snapshot.
///
/// Built either directly (by the engine, for writing) or from a salvaged
/// record stream (by [`Snapshot::assemble`], which applies last-wins
/// deduplication so replayed or reordered records cannot double-apply).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Snapshot metadata, when a meta record survived.
    pub meta: Option<MetaRecord>,
    /// Per-site selection state, in first-seen order.
    pub sites: Vec<SiteRecord>,
    /// Calibrated model blobs, in first-seen order.
    pub models: Vec<ModelBlobRecord>,
}

impl Snapshot {
    /// Flattens the snapshot back into its record stream, in write order:
    /// meta, sites, models.
    pub fn records(&self) -> Vec<Record> {
        let mut out = Vec::with_capacity(self.record_count());
        if let Some(meta) = &self.meta {
            out.push(Record::Meta(meta.clone()));
        }
        out.extend(self.sites.iter().cloned().map(Record::Site));
        out.extend(self.models.iter().cloned().map(Record::Model));
        out
    }

    /// Assembles a snapshot from a salvaged record stream, deduplicating
    /// with last-wins semantics: sites key on `(abstraction, name)`,
    /// models on `family`, meta on itself. Returns
    /// the snapshot and the number of duplicate records dropped.
    ///
    /// Last-wins matches the append-oriented write path: if a writer ever
    /// emits a revised record for the same key later in the stream, the
    /// revision is the one that counts — and a *duplicated* record (the
    /// torn-write chaos case) collapses to one copy either way.
    pub fn assemble(records: Vec<Record>) -> (Snapshot, u64) {
        let mut snapshot = Snapshot::default();
        let mut duplicates = 0u64;
        for record in records {
            match record {
                Record::Meta(meta) => {
                    if snapshot.meta.replace(meta).is_some() {
                        duplicates += 1;
                    }
                }
                Record::Site(site) => {
                    let key = (site.abstraction.clone(), site.name.clone());
                    if let Some(existing) = snapshot.sites.iter_mut().find(|s| {
                        (s.abstraction.as_str(), s.name.as_str())
                            == (key.0.as_str(), key.1.as_str())
                    }) {
                        *existing = site;
                        duplicates += 1;
                    } else {
                        snapshot.sites.push(site);
                    }
                }
                Record::Model(model) => {
                    if let Some(existing) = snapshot
                        .models
                        .iter_mut()
                        .find(|m| m.family == model.family)
                    {
                        *existing = model;
                        duplicates += 1;
                    } else {
                        snapshot.models.push(model);
                    }
                }
            }
        }
        (snapshot, duplicates)
    }

    /// Total records the snapshot would serialize to.
    pub fn record_count(&self) -> usize {
        usize::from(self.meta.is_some()) + self.sites.len() + self.models.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Meta(MetaRecord {
                seq: 7,
                created_unix_nanos: 123_456,
                rule: "R_time".into(),
                site_count: 2,
            }),
            Record::Site(SiteRecord {
                name: "IndexCursor:70".into(),
                abstraction: "list".into(),
                default_kind: "array".into(),
                current_kind: "hasharray".into(),
                rounds: 12,
                switches: 1,
                history_instances: 480,
            }),
            Record::Model(ModelBlobRecord {
                family: "lists".into(),
                text: "# collectionswitch model v1\n".into(),
            }),
        ]
    }

    #[test]
    fn payloads_round_trip() {
        for record in sample_records() {
            let payload = record.encode_payload();
            let decoded = Record::decode(record.kind(), &payload).expect("round trip");
            assert_eq!(decoded, record);
        }
    }

    #[test]
    fn truncated_payload_errors_without_panicking() {
        for record in sample_records() {
            let payload = record.encode_payload();
            for cut in 0..payload.len() {
                assert!(
                    Record::decode(record.kind(), &payload[..cut]).is_err(),
                    "{} truncated at {cut} must fail",
                    record.kind_name()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let record = &sample_records()[1];
        let mut payload = record.encode_payload();
        payload.push(0);
        assert!(Record::decode(record.kind(), &payload).is_err());
    }

    #[test]
    fn oversized_string_prefix_is_rejected_not_allocated() {
        // A length prefix of ~4 GiB must fail the cap check, not try to
        // allocate.
        let mut payload = Vec::new();
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Record::decode(KIND_SITE, &payload).is_err());
    }

    #[test]
    fn unknown_kind_is_a_decode_error() {
        assert!(Record::decode(250, &[]).is_err());
    }

    #[test]
    fn assemble_dedupes_last_wins() {
        let mut records = sample_records();
        let mut revised = match &records[1] {
            Record::Site(s) => s.clone(),
            _ => unreachable!(),
        };
        revised.current_kind = "adaptive".into();
        records.push(Record::Site(revised.clone()));
        records.push(records[2].clone()); // duplicate model blob
        let (snapshot, duplicates) = Snapshot::assemble(records);
        assert_eq!(duplicates, 2);
        assert_eq!(snapshot.sites.len(), 1);
        assert_eq!(snapshot.sites[0].current_kind, "adaptive");
        assert_eq!(snapshot.models.len(), 1);
        assert_eq!(snapshot.record_count(), 3);
    }
}
