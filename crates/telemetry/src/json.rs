//! A minimal JSON document model and serializer.
//!
//! The build environment pins every external dependency to a local shim, so
//! there is no `serde`; this module is the crate's single JSON encoder,
//! shared by the JSONL event sink, [`TelemetrySnapshot::to_json`]
//! (crate::TelemetrySnapshot::to_json), and the bench binaries' result
//! files. It emits strict RFC 8259 output: strings are escaped, non-finite
//! floats become `null` (JSON has no NaN), and object key order is the
//! insertion order so output is deterministic.

use std::fmt::Write as _;

use cs_core::{CandidateEstimate, EngineEvent, SelectionExplanation};

/// A JSON value.
///
/// # Examples
///
/// ```
/// use cs_telemetry::Json;
///
/// let doc = Json::object()
///     .field("site", Json::str("IndexCursor:70"))
///     .field("ops", Json::from(12_u64))
///     .field("ratio", Json::from(0.5));
/// assert_eq!(
///     doc.render(),
///     r#"{"site":"IndexCursor:70","ops":12,"ratio":0.5}"#
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (rendered without a decimal point).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A float; non-finite values render as `null`.
    Float(f64),
    /// A string (escaped on render).
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::UInt(v as u64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::UInt(u64::from(v))
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::String(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::String(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

impl Json {
    /// An empty object, ready for [`Json::field`] chaining.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// A string value (shorthand for `Json::from`).
    pub fn str(s: impl Into<String>) -> Json {
        Json::String(s.into())
    }

    /// Appends a key to an object (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not [`Json::Object`].
    #[must_use]
    pub fn field(mut self, key: impl Into<String>, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Object(fields) => fields.push((key.into(), value.into())),
            other => panic!("Json::field on non-object {other:?}"),
        }
        self
    }

    /// Serializes to a compact (single-line) JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serializes with two-space indentation, for human-facing files.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => write_f64(out, *v),
            Json::String(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

/// Error from [`Json::parse`]: a message and the byte offset it refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonParseError> {
        Err(JsonParseError {
            message: message.into(),
            offset: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected `{}`", b as char))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected `{word}`"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => self.err(format!("unexpected byte `{}`", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return self.err("expected `,` or `]`"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return self.err("expected `,` or `}`"),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(code) = hex else {
                                return self.err("bad \\u escape");
                            };
                            // Surrogate pairs are not recombined; the
                            // workspace's own output never emits them (it
                            // escapes only control characters).
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is &str, so the
                    // boundaries are valid by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ASCII digits are valid UTF-8");
        if float {
            match text.parse::<f64>() {
                Ok(v) => Ok(Json::Float(v)),
                Err(_) => self.err(format!("bad number `{text}`")),
            }
        } else if let Ok(v) = text.parse::<u64>() {
            Ok(Json::UInt(v))
        } else if let Ok(v) = text.parse::<i64>() {
            Ok(Json::Int(v))
        } else {
            self.err(format!("bad number `{text}`"))
        }
    }
}

impl Json {
    /// Parses a JSON document — the read half of this module, used by
    /// `cs-analyzer` to load committed baselines and runtime manifests.
    /// Accepts strict RFC 8259 documents (everything [`Json::render`] and
    /// [`Json::render_pretty`] emit round-trips); integers that fit `u64`
    /// parse as [`Json::UInt`], other integers as [`Json::Int`], the rest
    /// as [`Json::Float`].
    ///
    /// # Examples
    ///
    /// ```
    /// use cs_telemetry::Json;
    ///
    /// let doc = Json::parse(r#"{"site":"a:1","ops":[1,2],"ok":true}"#).unwrap();
    /// assert_eq!(doc.get("site"), Some(&Json::String("a:1".into())));
    /// assert_eq!(doc.render(), r#"{"site":"a:1","ops":[1,2],"ok":true}"#);
    /// ```
    pub fn parse(input: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return p.err("trailing garbage after document");
        }
        Ok(value)
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen), if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(v) => Some(*v),
            Json::UInt(v) => Some(*v as f64),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The items, if the value is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        // JSON has no NaN/Infinity; `null` keeps the document parseable and
        // makes the hole explicit instead of inventing a sentinel number.
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn candidate_to_json(c: &CandidateEstimate) -> Json {
    Json::object()
        .field("variant", c.variant.as_str())
        .field("primary_cost", c.primary_cost)
        .field("primary_ratio", c.primary_ratio)
        // NaN (excluded candidates are never costed) renders as null.
        .field("alloc_cost", c.alloc_cost)
        .field("satisfied", c.satisfied)
        .field("excluded", c.excluded)
}

/// Serializes a [`SelectionExplanation`] — the decision audit record — with
/// every candidate's estimate, for the JSONL stream and `explain` tooling.
pub fn explanation_to_json(e: &SelectionExplanation) -> Json {
    Json::object()
        .field("context_id", e.context_id)
        .field("context_name", e.context_name.as_str())
        .field("abstraction", e.abstraction.to_string())
        .field("rule", e.rule.as_str())
        .field("round", e.round)
        .field("current", e.current.as_str())
        .field("current_primary_cost", e.current_primary_cost)
        .field("current_alloc_cost", e.current_alloc_cost)
        .field("alloc_bytes_per_op", e.alloc_bytes_per_op)
        .field("alloc_driven", e.alloc_driven)
        .field(
            "candidates",
            Json::Array(e.candidates.iter().map(candidate_to_json).collect()),
        )
        .field("winner", e.winner.as_deref())
        .field("winning_margin", e.winning_margin)
        .field("outcome", e.outcome.to_string())
}

/// Serializes a [`HeapAccount`](cs_heap::HeapAccount) — a process or thread
/// allocation ledger — with its derived `live_bytes`, for flight-recorder
/// incidents and the bench artifacts' `process` stamp.
pub fn heap_account_to_json(a: &cs_heap::HeapAccount) -> Json {
    Json::object()
        .field("alloc_count", a.alloc_count)
        .field("alloc_bytes", a.alloc_bytes)
        .field("dealloc_count", a.dealloc_count)
        .field("dealloc_bytes", a.dealloc_bytes)
        .field("realloc_count", a.realloc_count)
        .field("realloc_bytes", a.realloc_bytes)
        .field("live_bytes", a.live_bytes())
}

/// Serializes an [`EngineHealth`](cs_core::EngineHealth) — the liveness
/// summary behind `cs-obs`'s `/health` endpoint — field for field.
pub fn health_to_json(h: &cs_core::EngineHealth) -> Json {
    Json::object()
        .field("degraded", h.degraded)
        .field("contexts", h.contexts as u64)
        .field("analysis_passes", h.analysis_passes)
        .field("transitions_used", h.transitions_used)
        .field("events_recorded", h.events_recorded)
        .field("events_dropped", h.events_dropped)
        .field("profiles_ingested", h.profiles_ingested)
        .field("profiles_dropped", h.profiles_dropped)
        .field("analyzer_panics", h.analyzer_panics)
        .field("sink_disconnects", h.sink_disconnects)
}

/// Serializes a [`SiteManifestEntry`](cs_core::SiteManifestEntry) — one row
/// of `cs-obs`'s `/sites` endpoint and of the drift tooling's manifests.
pub fn manifest_entry_to_json(e: &cs_core::SiteManifestEntry) -> Json {
    Json::object()
        .field("id", e.id)
        .field("name", e.name.as_str())
        .field("abstraction", e.abstraction.to_string())
        .field("default_kind", e.default_kind.as_str())
        .field("current_kind", e.current_kind.as_str())
        .field("alloc_bytes_per_op", e.alloc_bytes_per_op)
}

/// Serializes any [`EngineEvent`] as a self-describing object whose `"event"`
/// field is [`EngineEvent::kind_name`]. This is the line format of the JSONL
/// sink, one event per line.
///
/// # Examples
///
/// ```
/// use cs_core::{EngineEvent, ModelFallbackEvent};
/// use cs_telemetry::event_to_json;
///
/// let event = EngineEvent::ModelFallback(ModelFallbackEvent {
///     file: "lists.model".into(),
///     reason: "garbage".into(),
/// });
/// assert_eq!(
///     event_to_json(&event).render(),
///     r#"{"event":"model_fallback","file":"lists.model","reason":"garbage"}"#
/// );
/// ```
pub fn event_to_json(event: &EngineEvent) -> Json {
    let doc = Json::object().field("event", event.kind_name());
    match event {
        EngineEvent::Transition(t) => doc
            .field("context_id", t.context_id)
            .field("context_name", t.context_name.as_str())
            .field("abstraction", t.abstraction.to_string())
            .field("from", t.from.as_str())
            .field("to", t.to.as_str())
            .field("round", t.round),
        EngineEvent::Selection(e) => {
            let Json::Object(audit) = explanation_to_json(e) else {
                unreachable!("explanation_to_json returns an object");
            };
            let Json::Object(mut fields) = doc else {
                unreachable!("doc is an object");
            };
            fields.extend(audit);
            Json::Object(fields)
        }
        EngineEvent::Rollback(r) => doc
            .field("context_id", r.context_id)
            .field("context_name", r.context_name.as_str())
            .field("abstraction", r.abstraction.to_string())
            .field("from", r.from.as_str())
            .field("to", r.to.as_str())
            .field("predicted_ratio", r.predicted_ratio)
            .field("realized_ratio", r.realized_ratio)
            .field("round", r.round),
        EngineEvent::Quarantine(q) => doc
            .field("context_id", q.context_id)
            .field("context_name", q.context_name.as_str())
            .field("abstraction", q.abstraction.to_string())
            .field("candidate", q.candidate.as_str())
            .field("until_round", q.until_round)
            .field("strikes", q.strikes)
            .field("round", q.round),
        EngineEvent::ModelFallback(m) => doc
            .field("file", m.file.as_str())
            .field("reason", m.reason.as_str()),
        EngineEvent::AnalyzerPanic(p) => doc
            .field("consecutive", p.consecutive)
            .field("message", p.message.as_str()),
        EngineEvent::DegradedEntered(d) => {
            doc.field("consecutive_failures", d.consecutive_failures)
        }
        EngineEvent::WarmStart(w) => doc
            .field("source", w.source.as_str())
            .field("sites_in_snapshot", w.sites_in_snapshot as u64)
            .field("models_in_snapshot", w.models_in_snapshot as u64)
            .field("records_loaded", w.records_loaded)
            .field("records_quarantined", w.records_quarantined)
            .field("duplicates_dropped", w.duplicates_dropped)
            .field("note", w.note.as_str()),
        EngineEvent::WarmStartSite(s) => doc
            .field("context_id", s.context_id)
            .field("context_name", s.context_name.as_str())
            .field("abstraction", s.abstraction.to_string())
            .field("snapshot_kind", s.snapshot_kind.as_str())
            .field("outcome", s.outcome.name())
            .field("detail", s.detail.as_str()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::UInt(42).render(), "42");
        assert_eq!(Json::Int(-7).render(), "-7");
        assert_eq!(Json::Float(1.5).render(), "1.5");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::str("a\"b\\c\nd\te\u{1}").render(),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\""
        );
    }

    #[test]
    fn nested_structures_render_compact() {
        let doc = Json::object()
            .field("xs", vec![1_u64, 2, 3])
            .field("inner", Json::object().field("ok", true))
            .field("nothing", Json::Null);
        assert_eq!(
            doc.render(),
            r#"{"xs":[1,2,3],"inner":{"ok":true},"nothing":null}"#
        );
    }

    #[test]
    fn pretty_rendering_is_parseable_shape() {
        let doc = Json::object().field("xs", vec![1_u64]).field("n", 2_u64);
        let text = doc.render_pretty();
        assert!(text.contains("\"xs\": [\n"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn parse_round_trips_render() {
        let doc = Json::object()
            .field("site", Json::str("crates/a/src/b.rs::f#0"))
            .field("xs", vec![1_u64, 2, 3])
            .field("neg", Json::Int(-7))
            .field("ratio", 3.25)
            .field(
                "inner",
                Json::object().field("ok", true).field("gap", Json::Null),
            );
        let compact = Json::parse(&doc.render()).expect("compact parses");
        assert_eq!(compact, doc);
        let pretty = Json::parse(&doc.render_pretty()).expect("pretty parses");
        assert_eq!(pretty, doc);
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let doc = Json::parse(r#"{"k":"a\"b\\c\ndAé"}"#).unwrap();
        assert_eq!(doc.get("k").and_then(Json::as_str), Some("a\"b\\c\ndAé"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("nul").is_err());
        let err = Json::parse("[1, x]").unwrap_err();
        assert!(err.to_string().contains("byte"), "{err}");
    }

    #[test]
    fn parse_number_shapes() {
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("1.5e2").unwrap(), Json::Float(150.0));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX)
        );
    }

    #[test]
    fn accessors_narrow_types() {
        let doc = Json::parse(r#"{"a":1,"b":[2],"c":"s","d":1.5}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(
            doc.get("b").and_then(Json::as_array).map(|a| a.len()),
            Some(1)
        );
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("s"));
        assert_eq!(doc.get("d").and_then(Json::as_f64), Some(1.5));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Null.get("a"), None);
    }

    #[test]
    fn option_maps_to_null() {
        let none: Option<&str> = None;
        assert_eq!(Json::from(none).render(), "null");
        assert_eq!(Json::from(Some("x")).render(), "\"x\"");
    }
}
