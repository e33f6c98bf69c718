//! Prometheus text exposition (format version 0.0.4) and a strict
//! validator for it.
//!
//! The renderer turns a [`TelemetrySnapshot`] into the plain-text format
//! every Prometheus-compatible scraper accepts: `# HELP` / `# TYPE`
//! comments followed by one sample per line, histograms expanded into
//! cumulative `_bucket{le=…}` series plus `_sum` and `_count`. The
//! validator re-parses that grammar from scratch — shared code would
//! let one bug hide another — and is wired into CI so a malformed
//! exposition fails the build, not the scrape. Metadata is mandatory:
//! every sampled family must carry both `# HELP` and `# TYPE`, so the
//! renderer emits a HELP line even for families registered with empty
//! help text.

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::metrics::{FamilySnapshot, TelemetrySnapshot, ValueSnapshot};

fn write_help_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn write_label_value_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Renders `{k="v",…}`; `extra` appends one more pair (used for `le`).
fn write_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        write_label_value_escaped(out, v);
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        write_label_value_escaped(out, v);
        out.push('"');
    }
    out.push('}');
}

fn format_bound(bound: f64) -> String {
    format!("{bound}")
}

fn render_family(out: &mut String, family: &FamilySnapshot) {
    // HELP is unconditional: the validator requires metadata for every
    // sampled family, so a family registered with empty help still gets
    // its (bare) HELP line.
    out.push_str("# HELP ");
    out.push_str(&family.name);
    if !family.help.is_empty() {
        out.push(' ');
        write_help_escaped(out, &family.help);
    }
    out.push('\n');
    let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.as_str());
    for series in &family.series {
        match &series.value {
            ValueSnapshot::Counter(v) => {
                out.push_str(&family.name);
                write_labels(out, &series.labels, None);
                let _ = writeln!(out, " {v}");
            }
            ValueSnapshot::Gauge(v) => {
                out.push_str(&family.name);
                write_labels(out, &series.labels, None);
                let _ = writeln!(out, " {v}");
            }
            ValueSnapshot::FloatGauge(v) => {
                out.push_str(&family.name);
                write_labels(out, &series.labels, None);
                let _ = writeln!(out, " {v}");
            }
            ValueSnapshot::Histogram(h) => {
                let mut cumulative = 0u64;
                for (bound, count) in h.bounds.iter().zip(&h.counts) {
                    cumulative += count;
                    out.push_str(&family.name);
                    out.push_str("_bucket");
                    write_labels(out, &series.labels, Some(("le", &format_bound(*bound))));
                    let _ = writeln!(out, " {cumulative}");
                }
                out.push_str(&family.name);
                out.push_str("_bucket");
                write_labels(out, &series.labels, Some(("le", "+Inf")));
                let _ = writeln!(out, " {}", h.count);
                out.push_str(&family.name);
                out.push_str("_sum");
                write_labels(out, &series.labels, None);
                let _ = writeln!(out, " {}", h.sum);
                out.push_str(&family.name);
                out.push_str("_count");
                write_labels(out, &series.labels, None);
                let _ = writeln!(out, " {}", h.count);
            }
        }
    }
}

impl TelemetrySnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4). The output always passes
    /// [`validate_prometheus_text`].
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for family in &self.families {
            render_family(&mut out, family);
        }
        out
    }
}

/// Validates a Prometheus text exposition: comment structure, metric and
/// label grammar, parseable sample values, `# TYPE` at most once per family
/// and before that family's samples, **required metadata** (every sampled
/// family must be declared with both `# TYPE` and `# HELP` — an untyped
/// exposition makes a scraper guess at rate semantics), no duplicate
/// `(name, labelset)` series, and — for every declared histogram that has
/// samples — complete child sets: each labelset must carry an
/// `le="+Inf"` bucket, a `_sum`, and a `_count` (a scraper quietly
/// computes garbage rates from a histogram missing any of them). Returns
/// every violation with its 1-based line number (metadata and completeness
/// violations, detectable only at end of input, carry the family instead).
///
/// # Errors
///
/// A `Vec` with one entry per violation (never empty on `Err`).
///
/// # Examples
///
/// ```
/// use cs_telemetry::validate_prometheus_text;
///
/// let text = concat!(
///     "# HELP cs_up Whether the engine is up.\n",
///     "# TYPE cs_up gauge\n",
///     "cs_up 1\n",
/// );
/// assert!(validate_prometheus_text(text).is_ok());
/// // Metadata is mandatory: a bare sample is rejected.
/// assert!(validate_prometheus_text("cs_up 1\n").is_err());
/// assert!(validate_prometheus_text("2bad_name 1\n").is_err());
/// ```
pub fn validate_prometheus_text(text: &str) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    let mut typed: HashSet<String> = HashSet::new();
    let mut helped: HashSet<String> = HashSet::new();
    let mut histogram_families: HashSet<String> = HashSet::new();
    // BTreeSet so the end-of-input metadata errors come out in
    // deterministic order.
    let mut sampled: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut seen_series: HashSet<String> = HashSet::new();
    // Histogram children observed so far, keyed by (family, labelset
    // without `le`): [saw +Inf bucket, saw _sum, saw _count]. BTreeMap so
    // the post-loop completeness errors come out in deterministic order.
    let mut hist_children: std::collections::BTreeMap<(String, String), [bool; 3]> =
        std::collections::BTreeMap::new();

    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.splitn(2, ' ');
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("").trim();
                if !is_metric_name(name) {
                    errors.push(format!("line {lineno}: TYPE for invalid name {name:?}"));
                    continue;
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    errors.push(format!("line {lineno}: unknown TYPE {kind:?} for {name}"));
                }
                if !typed.insert(name.to_owned()) {
                    errors.push(format!("line {lineno}: duplicate TYPE for {name}"));
                }
                if kind == "histogram" {
                    histogram_families.insert(name.to_owned());
                }
                if sampled.contains(name) {
                    errors.push(format!("line {lineno}: TYPE for {name} after its samples"));
                }
            } else if let Some(rest) = comment.strip_prefix("HELP ") {
                let name = rest.split(' ').next().unwrap_or("");
                if !is_metric_name(name) {
                    errors.push(format!("line {lineno}: HELP for invalid name {name:?}"));
                } else {
                    helped.insert(name.to_owned());
                }
            }
            // Other comments are free-form and always legal.
            continue;
        }
        match parse_sample(line) {
            Ok((name, labelset)) => {
                let base = histogram_base(&name, &typed);
                sampled.insert(base.to_owned());
                let series_key = format!("{name}{{{labelset}}}");
                if !seen_series.insert(series_key) {
                    errors.push(format!(
                        "line {lineno}: duplicate series {name}{{{labelset}}}"
                    ));
                }
                if base != name && histogram_families.contains(base) {
                    let flags = hist_children
                        .entry((base.to_owned(), strip_le_label(&labelset)))
                        .or_default();
                    match &name[base.len()..] {
                        "_bucket" if labelset.split(',').any(|kv| kv == "le=\"+Inf\"") => {
                            flags[0] = true;
                        }
                        "_sum" => flags[1] = true,
                        "_count" => flags[2] = true,
                        _ => {}
                    }
                }
            }
            Err(why) => errors.push(format!("line {lineno}: {why}")),
        }
    }
    // Metadata requirement, judged at end of input: every family that had
    // samples must have declared both TYPE and HELP somewhere in the
    // exposition (TYPE placement relative to samples is checked above).
    for family in &sampled {
        if !typed.contains(family) {
            errors.push(format!(
                "family {family} has samples but no # TYPE metadata"
            ));
        }
        if !helped.contains(family) {
            errors.push(format!(
                "family {family} has samples but no # HELP metadata"
            ));
        }
    }
    for ((family, labels), &[saw_inf, saw_sum, saw_count]) in &hist_children {
        let at = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        if !saw_inf {
            errors.push(format!("histogram {family}{at} has no le=\"+Inf\" bucket"));
        }
        if !saw_sum {
            errors.push(format!("histogram {family}{at} is missing {family}_sum"));
        }
        if !saw_count {
            errors.push(format!("histogram {family}{at} is missing {family}_count"));
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Drops the `le` pair from a canonical labelset, so bucket samples group
/// with their `_sum`/`_count` siblings.
fn strip_le_label(labelset: &str) -> String {
    labelset
        .split(',')
        .filter(|kv| !kv.starts_with("le="))
        .collect::<Vec<_>>()
        .join(",")
}

/// Maps `x_bucket`/`x_sum`/`x_count` back to the histogram family `x` when
/// `x` was declared via `# TYPE x histogram`; otherwise the sample name is
/// its own family.
fn histogram_base<'a>(name: &'a str, typed: &HashSet<String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if typed.contains(base) {
                return base;
            }
        }
    }
    name
}

fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parses one sample line; returns `(metric name, canonical labelset)`.
fn parse_sample(line: &str) -> Result<(String, String), String> {
    let mut rest = line;
    let name_end = rest
        .find(['{', ' '])
        .ok_or_else(|| format!("sample has no value: {line:?}"))?;
    let name = &rest[..name_end];
    if !is_metric_name(name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    rest = &rest[name_end..];
    let mut labels: Vec<(String, String)> = Vec::new();
    if let Some(after_brace) = rest.strip_prefix('{') {
        rest = after_brace;
        loop {
            rest = rest.trim_start_matches(',');
            if let Some(after) = rest.strip_prefix('}') {
                rest = after;
                break;
            }
            let eq = rest
                .find('=')
                .ok_or_else(|| format!("label without '=' in {line:?}"))?;
            let label = &rest[..eq];
            if !is_label_name(label) {
                return Err(format!("invalid label name {label:?}"));
            }
            rest = rest[eq + 1..]
                .strip_prefix('"')
                .ok_or_else(|| format!("label value for {label} not quoted"))?;
            let mut value = String::new();
            let mut chars = rest.char_indices();
            let mut consumed = None;
            while let Some((i, c)) = chars.next() {
                match c {
                    '"' => {
                        consumed = Some(i + 1);
                        break;
                    }
                    '\\' => match chars.next() {
                        Some((_, 'n')) => value.push('\n'),
                        Some((_, '\\')) => value.push('\\'),
                        Some((_, '"')) => value.push('"'),
                        other => {
                            return Err(format!(
                                "bad escape {:?} in label value",
                                other.map(|(_, c)| c)
                            ))
                        }
                    },
                    c => value.push(c),
                }
            }
            let consumed =
                consumed.ok_or_else(|| format!("unterminated label value in {line:?}"))?;
            rest = &rest[consumed..];
            labels.push((label.to_owned(), value));
        }
    }
    let rest = rest.trim_start();
    let mut fields = rest.split_whitespace();
    let value = fields
        .next()
        .ok_or_else(|| format!("sample has no value: {line:?}"))?;
    let value_ok = matches!(value, "+Inf" | "-Inf" | "NaN") || value.parse::<f64>().is_ok();
    if !value_ok {
        return Err(format!("unparseable sample value {value:?}"));
    }
    if let Some(ts) = fields.next() {
        if ts.parse::<i64>().is_err() {
            return Err(format!("unparseable timestamp {ts:?}"));
        }
    }
    if fields.next().is_some() {
        return Err(format!("trailing garbage in {line:?}"));
    }
    let mut canonical: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    canonical.sort();
    Ok((name.to_owned(), canonical.join(",")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample_registry() -> MetricsRegistry {
        let registry = MetricsRegistry::new();
        registry
            .counter("cs_transitions_total", "Transitions.", &[("site", "a\"b")])
            .add(3);
        registry.gauge("cs_degraded", "Degraded flag.", &[]).set(0);
        let h = registry.histogram("cs_pass_seconds", "Pass duration.", &[], &[0.001, 0.1]);
        h.observe(0.0005);
        h.observe(0.05);
        h.observe(3.0);
        registry
    }

    #[test]
    fn exposition_round_trips_through_the_validator() {
        let text = sample_registry().snapshot().to_prometheus_text();
        assert!(
            validate_prometheus_text(&text).is_ok(),
            "invalid exposition:\n{text}"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let text = sample_registry().snapshot().to_prometheus_text();
        assert!(text.contains("cs_pass_seconds_bucket{le=\"0.001\"} 1"));
        assert!(text.contains("cs_pass_seconds_bucket{le=\"0.1\"} 2"));
        assert!(text.contains("cs_pass_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("cs_pass_seconds_count 3"));
    }

    #[test]
    fn label_values_are_escaped() {
        let text = sample_registry().snapshot().to_prometheus_text();
        assert!(text.contains(r#"cs_transitions_total{site="a\"b"} 3"#));
    }

    #[test]
    fn validator_rejects_duplicate_series() {
        let text = "# TYPE cs_x counter\ncs_x{a=\"1\"} 1\ncs_x{a=\"1\"} 2\n";
        let errors = validate_prometheus_text(text).unwrap_err();
        assert!(errors[0].contains("duplicate series"));
    }

    #[test]
    fn validator_rejects_type_after_samples() {
        let text = "cs_x 1\n# TYPE cs_x counter\n";
        let errors = validate_prometheus_text(text).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("after its samples")));
    }

    #[test]
    fn validator_rejects_bad_names_and_values() {
        assert!(validate_prometheus_text("2bad 1\n").is_err());
        assert!(validate_prometheus_text("ok one\n").is_err());
        assert!(validate_prometheus_text("ok{0l=\"x\"} 1\n").is_err());
        assert!(validate_prometheus_text("ok{l=\"x} 1\n").is_err());
    }

    #[test]
    fn validator_accepts_inf_and_timestamps() {
        let text = "# HELP x_bucket Raw bucket counter.\n\
                    # TYPE x_bucket counter\n\
                    x_bucket{le=\"+Inf\"} 4 1700000000\n";
        assert!(validate_prometheus_text(text).is_ok());
    }

    #[test]
    fn validator_requires_type_and_help_metadata() {
        // A bare sample is no longer a legal exposition.
        let errors = validate_prometheus_text("cs_x 1\n").unwrap_err();
        assert!(errors.iter().any(|e| e.contains("no # TYPE")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("no # HELP")), "{errors:?}");
        // TYPE alone is not enough...
        let errors = validate_prometheus_text("# TYPE cs_x counter\ncs_x 1\n").unwrap_err();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("no # HELP"), "{errors:?}");
        // ...nor is HELP alone...
        let errors = validate_prometheus_text("# HELP cs_x X.\ncs_x 1\n").unwrap_err();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("no # TYPE"), "{errors:?}");
        // ...but both together are.
        let ok = "# HELP cs_x X.\n# TYPE cs_x counter\ncs_x 1\n";
        assert!(validate_prometheus_text(ok).is_ok());
        // A declared-but-never-sampled family needs no metadata pairing.
        let declared_only = "# TYPE cs_idle gauge\n# HELP cs_x X.\n# TYPE cs_x counter\ncs_x 1\n";
        assert!(validate_prometheus_text(declared_only).is_ok());
    }

    #[test]
    fn empty_help_still_renders_a_help_line() {
        let registry = MetricsRegistry::new();
        registry.counter("cs_bare_total", "", &[]).inc();
        let text = registry.snapshot().to_prometheus_text();
        assert!(text.contains("# HELP cs_bare_total\n"), "{text}");
        validate_prometheus_text(&text).expect("valid exposition");
    }

    #[test]
    fn validator_rejects_histogram_missing_inf_bucket() {
        let text = "# HELP h H.\n\
                    # TYPE h histogram\n\
                    h_bucket{le=\"0.1\"} 1\n\
                    h_sum 0.05\n\
                    h_count 1\n";
        let errors = validate_prometheus_text(text).unwrap_err();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("no le=\"+Inf\" bucket"), "{errors:?}");
    }

    #[test]
    fn validator_rejects_histogram_missing_sum_or_count() {
        let text = "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\n";
        let errors = validate_prometheus_text(text).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("missing h_sum")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("missing h_count")),
            "{errors:?}"
        );

        let no_count = "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1.5\n";
        let errors = validate_prometheus_text(no_count).unwrap_err();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("missing h_count"));
    }

    #[test]
    fn histogram_completeness_is_per_labelset() {
        // The "a" labelset is complete; "b" lacks its +Inf bucket and
        // must be called out on its own.
        let text = "# HELP h H.\n\
                    # TYPE h histogram\n\
                    h_bucket{site=\"a\",le=\"+Inf\"} 2\n\
                    h_sum{site=\"a\"} 1.0\n\
                    h_count{site=\"a\"} 2\n\
                    h_bucket{site=\"b\",le=\"0.1\"} 1\n\
                    h_sum{site=\"b\"} 0.5\n\
                    h_count{site=\"b\"} 1\n";
        let errors = validate_prometheus_text(text).unwrap_err();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("site=\"b\""), "{errors:?}");
        assert!(errors[0].contains("+Inf"), "{errors:?}");
    }

    #[test]
    fn undeclared_bucket_samples_are_not_histogram_children() {
        // Without a `# TYPE x histogram` declaration the suffix match is
        // meaningless — `x_bucket` is just a metric with an odd name, and
        // no histogram-completeness demand applies.
        let text = "# HELP x_bucket X.\n# TYPE x_bucket gauge\nx_bucket{le=\"0.5\"} 1\n";
        assert!(validate_prometheus_text(text).is_ok());
        assert!(
            validate_prometheus_text("# HELP x_sum X.\n# TYPE x_sum counter\nx_sum 3\n").is_ok()
        );
    }

    #[test]
    fn histogram_children_do_not_collide_with_family_type() {
        // _bucket/_sum/_count of a declared histogram must not be flagged
        // as samples preceding their own TYPE line.
        let text = sample_registry().snapshot().to_prometheus_text();
        let doubled = format!("{text}{text}");
        let errors = validate_prometheus_text(&doubled).unwrap_err();
        assert!(
            errors
                .iter()
                .all(|e| e.contains("duplicate") || e.contains("after its samples")),
            "only duplication errors expected, got {errors:?}"
        );
    }
}
