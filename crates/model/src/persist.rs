//! Plain-text persistence for performance models.
//!
//! Calibration (the paper's "Benchmark Run", Fig. 1) is expensive, so its
//! result is saved and reloaded at application startup. The format is a
//! line-oriented text file — one line per cost curve — kept deliberately
//! dependency-free:
//!
//! ```text
//! # collectionswitch model v1
//! op <variant> <dimension> <opkind> poly <scale> <c0> <c1> …
//! op <variant> <dimension> <opkind> pw <threshold> <scale> <c…> | <scale> <c…>
//! instance <variant> <dimension> poly <scale> <c0> <c1> …
//! ```
//!
//! Files written by earlier versions may carry curves along a dimension
//! that has since been retired (`energy`); the reader checks those lines
//! like any other and then skips them.

use std::fmt::{self, Display, Write as _};
use std::str::FromStr;

use cs_profile::OpKind;

use crate::curve::CostCurve;
use crate::dimension::CostDimension;
use crate::perf::PerformanceModel;
use crate::poly::Polynomial;

/// Error returned when parsing a persisted model fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelError {
    line: usize,
    message: String,
}

impl ParseModelError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseModelError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "model parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseModelError {}

/// Serializes a performance model to the text format.
///
/// # Examples
///
/// ```
/// use cs_model::{default_models, persist};
///
/// let text = persist::to_text(default_models::list_model());
/// assert!(text.starts_with("# collectionswitch model v1"));
/// let restored = persist::from_text(&text).unwrap();
/// assert_eq!(restored.len(), default_models::list_model().len());
/// # let _: cs_model::PerformanceModel<cs_collections::ListKind> = restored;
/// ```
pub fn to_text<K: Copy + Eq + Display>(model: &PerformanceModel<K>) -> String {
    let mut out = String::from("# collectionswitch model v1\n");
    for kind in model.kinds() {
        let vm = model.variant(kind).expect("kind listed but missing");
        let mut lines = Vec::new();
        for (dim, op, curve) in vm.iter_op_costs() {
            let mut line = format!("op {kind} {dim} {op} ");
            write_curve(&mut line, curve);
            lines.push(line);
        }
        for (dim, curve) in vm.iter_instance_costs() {
            let mut line = format!("instance {kind} {dim} ");
            write_curve(&mut line, curve);
            lines.push(line);
        }
        lines.sort();
        for line in lines {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

fn write_poly(line: &mut String, poly: &Polynomial) {
    let (coeffs, scale) = poly.parts();
    write!(line, "{scale}").unwrap();
    for c in coeffs {
        write!(line, " {c}").unwrap();
    }
}

fn write_curve(line: &mut String, curve: &CostCurve) {
    match curve {
        CostCurve::Poly(p) => {
            line.push_str("poly ");
            write_poly(line, p);
        }
        CostCurve::Piecewise {
            threshold,
            below,
            above,
        } => {
            write!(line, "pw {threshold} ").unwrap();
            write_poly(line, below);
            line.push_str(" | ");
            write_poly(line, above);
        }
    }
}

fn parse_op_kind(s: &str, line_no: usize) -> Result<OpKind, ParseModelError> {
    OpKind::ALL
        .into_iter()
        .find(|op| op.to_string() == s)
        .ok_or_else(|| ParseModelError::new(line_no, format!("unknown op `{s}`")))
}

/// A dimension name that older model files carry but no [`CostDimension`]
/// prices any more. A line along it is skipped, so such a file still
/// loads; any other unknown dimension is an error.
const RETIRED_DIMENSION: &str = "energy";

/// Largest magnitude accepted for any scale, coefficient, or threshold.
///
/// Calibrated costs are nanosecond/byte-scale figures; anything beyond this
/// is a corrupt or adversarial file, and letting it through would let one
/// absurd coefficient dominate (or, as `inf`/`NaN`, poison) every selection
/// the engine makes. Note that `"NaN".parse::<f64>()` *succeeds* and NaN
/// compares false to everything, so a plain `scale <= 0.0` check silently
/// admits NaN — magnitudes must be validated with `is_finite` explicitly.
const MAX_MAGNITUDE: f64 = 1e12;

fn validate_magnitude(value: f64, what: &str, line_no: usize) -> Result<(), ParseModelError> {
    if !value.is_finite() {
        return Err(ParseModelError::new(
            line_no,
            format!("{what} must be finite, got {value}"),
        ));
    }
    if value.abs() > MAX_MAGNITUDE {
        return Err(ParseModelError::new(
            line_no,
            format!("{what} magnitude {value:e} exceeds {MAX_MAGNITUDE:e}"),
        ));
    }
    Ok(())
}

fn parse_poly(tokens: &[&str], line_no: usize) -> Result<Polynomial, ParseModelError> {
    if tokens.len() < 2 {
        return Err(ParseModelError::new(
            line_no,
            "missing scale or coefficients",
        ));
    }
    let scale: f64 = tokens[0]
        .parse()
        .map_err(|e| ParseModelError::new(line_no, format!("bad scale: {e}")))?;
    validate_magnitude(scale, "scale", line_no)?;
    if scale <= 0.0 {
        return Err(ParseModelError::new(line_no, "scale must be positive"));
    }
    let coeffs: Vec<f64> = tokens[1..]
        .iter()
        .map(|c| {
            let coeff: f64 = c
                .parse()
                .map_err(|e| ParseModelError::new(line_no, format!("bad coefficient: {e}")))?;
            validate_magnitude(coeff, "coefficient", line_no)?;
            Ok(coeff)
        })
        .collect::<Result<_, _>>()?;
    Ok(Polynomial::from_parts(coeffs, scale))
}

fn parse_curve(tokens: &[&str], line_no: usize) -> Result<CostCurve, ParseModelError> {
    match tokens.first() {
        Some(&"poly") => Ok(CostCurve::Poly(parse_poly(&tokens[1..], line_no)?)),
        Some(&"pw") => {
            if tokens.len() < 2 {
                return Err(ParseModelError::new(line_no, "missing piecewise threshold"));
            }
            let threshold: f64 = tokens[1]
                .parse()
                .map_err(|e| ParseModelError::new(line_no, format!("bad threshold: {e}")))?;
            validate_magnitude(threshold, "threshold", line_no)?;
            let rest = &tokens[2..];
            let sep = rest
                .iter()
                .position(|&t| t == "|")
                .ok_or_else(|| ParseModelError::new(line_no, "missing `|` separator"))?;
            let below = parse_poly(&rest[..sep], line_no)?;
            let above = parse_poly(&rest[sep + 1..], line_no)?;
            Ok(CostCurve::piecewise(threshold, below, above))
        }
        Some(other) => Err(ParseModelError::new(
            line_no,
            format!("unknown curve form `{other}`"),
        )),
        None => Err(ParseModelError::new(line_no, "missing curve")),
    }
}

/// Parses a performance model from the text format.
///
/// # Errors
///
/// Returns [`ParseModelError`] on malformed lines, unknown variant /
/// dimension / op names, or non-numeric values. A well-formed line along a
/// retired dimension (`energy`) is skipped, not an error.
pub fn from_text<K>(text: &str) -> Result<PerformanceModel<K>, ParseModelError>
where
    K: Copy + Eq + Display + FromStr,
    <K as FromStr>::Err: fmt::Display,
{
    // Variants enter the model in the order the file first names them.
    let mut model: PerformanceModel<K> = PerformanceModel::new();

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let tag = tokens[0];
        let (kind_s, dim_s, op, curve_tokens) = match tag {
            "op" => {
                if tokens.len() < 5 {
                    return Err(ParseModelError::new(line_no, "truncated op record"));
                }
                (
                    tokens[1],
                    tokens[2],
                    Some(parse_op_kind(tokens[3], line_no)?),
                    &tokens[4..],
                )
            }
            "instance" => {
                if tokens.len() < 4 {
                    return Err(ParseModelError::new(line_no, "truncated instance record"));
                }
                (tokens[1], tokens[2], None, &tokens[3..])
            }
            other => {
                return Err(ParseModelError::new(
                    line_no,
                    format!("unknown record tag `{other}`"),
                ))
            }
        };
        let kind: K = kind_s
            .parse()
            .map_err(|e| ParseModelError::new(line_no, format!("{e}")))?;
        let dim = match dim_s.parse::<CostDimension>() {
            Ok(dim) => Some(dim),
            Err(_) if dim_s == RETIRED_DIMENSION => None,
            Err(e) => return Err(ParseModelError::new(line_no, format!("{e}"))),
        };
        let curve = parse_curve(curve_tokens, line_no)?;
        let Some(dim) = dim else {
            continue;
        };
        let vm = model.variant_entry(kind);
        match op {
            Some(op) => vm.set_op_cost(dim, op, curve),
            None => vm.set_instance_cost(dim, curve),
        }
    }
    Ok(model)
}

/// Atomically writes `model`'s text encoding to `path` via the
/// `cs-state` temp + `fsync` + rename protocol.
///
/// This is the sanctioned way to put a model file on disk: a raw
/// `std::fs::write` can be torn by a crash into a file that parses
/// partially or not at all, and `cs-analyzer`'s `no-raw-persist-write`
/// lint rejects it on persistence paths.
///
/// # Errors
///
/// Any I/O error from the atomic write protocol; on error `path` is
/// untouched.
pub fn save_to_path<K: Copy + Eq + Display>(
    model: &PerformanceModel<K>,
    path: impl AsRef<std::path::Path>,
) -> std::io::Result<()> {
    cs_state::write_atomic_bytes(path, to_text(model).as_bytes()).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_models;
    use cs_collections::{ListKind, MapKind, SetKind};
    use cs_profile::{OpCounters, WorkloadProfile};

    fn sample_profile(size: usize) -> WorkloadProfile {
        let mut c = OpCounters::new();
        c.add(OpKind::Populate, 100);
        c.add(OpKind::Contains, 300);
        c.add(OpKind::Iterate, 7);
        c.add(OpKind::Middle, 5);
        WorkloadProfile::new(c, size)
    }

    #[test]
    fn list_model_round_trips_exactly() {
        let original = default_models::list_model();
        let restored: PerformanceModel<ListKind> = from_text(&to_text(original)).unwrap();
        // Probe both sides of the adaptive piecewise threshold.
        for size in [15, 421] {
            let w = sample_profile(size);
            for kind in ListKind::ALL {
                for dim in CostDimension::ALL {
                    let a = original.total_cost(kind, dim, &w);
                    let b = restored.total_cost(kind, dim, &w);
                    assert!(
                        (a - b).abs() < 1e-9 * a.abs().max(1.0),
                        "{kind}/{dim}@{size}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn set_and_map_models_round_trip() {
        let sets: PerformanceModel<SetKind> =
            from_text(&to_text(default_models::set_model())).unwrap();
        assert_eq!(sets.len(), 8);
        let maps: PerformanceModel<MapKind> =
            from_text(&to_text(default_models::map_model())).unwrap();
        assert_eq!(maps.len(), 8);
    }

    #[test]
    fn identical_models_serialize_byte_identically() {
        // Two models built independently from the same variants, in the
        // same order, must write the same file, and a file read back must
        // write itself again.
        let build = || {
            let mut model: PerformanceModel<SetKind> = PerformanceModel::new();
            for kind in SetKind::ALL {
                let vm = default_models::set_model().variant(kind).unwrap();
                model.insert_variant(kind, vm.clone());
            }
            to_text(&model)
        };
        let text = build();
        for _ in 0..8 {
            assert_eq!(build(), text);
        }
        let restored: PerformanceModel<SetKind> = from_text(&text).unwrap();
        assert_eq!(to_text(&restored), text);
        assert!(restored.kinds().eq(SetKind::ALL), "file order kept");
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# header\n\n# another comment\nop array time contains poly 1 2.5 0.5\n";
        let m: PerformanceModel<ListKind> = from_text(text).unwrap();
        let v = m.variant(ListKind::Array).unwrap();
        assert!((v.op_cost(CostDimension::Time, OpKind::Contains, 2.0) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn piecewise_line_parses() {
        let text = "op adaptive time contains pw 40 1 1.0 | 1 9.0\n";
        let m: PerformanceModel<ListKind> = from_text(text).unwrap();
        let v = m.variant(ListKind::Adaptive).unwrap();
        assert_eq!(v.op_cost(CostDimension::Time, OpKind::Contains, 10.0), 1.0);
        assert_eq!(v.op_cost(CostDimension::Time, OpKind::Contains, 100.0), 9.0);
    }

    /// `to_text(default_models::list_model())` as written while the model
    /// still priced an energy dimension: every variant carries `energy`
    /// op and instance curves.
    const LISTS_WITH_ENERGY: &str = include_str!("../tests/fixtures/lists_with_energy.model");

    #[test]
    fn retired_dimension_lines_are_skipped() {
        let retired = |line: &&str| line.split_whitespace().nth(2) == Some("energy");
        assert_eq!(LISTS_WITH_ENERGY.lines().filter(retired).count(), 20);
        let without: String = LISTS_WITH_ENERGY
            .lines()
            .filter(|line| !retired(line))
            .map(|line| format!("{line}\n"))
            .collect();
        let with: PerformanceModel<ListKind> = from_text(LISTS_WITH_ENERGY).unwrap();
        let plain: PerformanceModel<ListKind> = from_text(&without).unwrap();
        // Every curve, written back out, is the one parsed without those
        // lines, and the file's other curves are today's defaults.
        assert_eq!(to_text(&with), to_text(&plain));
        assert_eq!(to_text(&with), to_text(default_models::list_model()));
    }

    #[test]
    fn unknown_dimension_is_an_error() {
        let err = from_text::<ListKind>("op array joules populate poly 1 0\n").unwrap_err();
        assert!(err.to_string().contains("joules"), "{err}");
        // A retired line is checked before it is skipped.
        assert!(from_text::<ListKind>("op zorp energy populate poly 1 0\n").is_err());
        assert!(from_text::<ListKind>("instance array energy poly 1 NaN\n").is_err());
    }

    #[test]
    fn unknown_variant_is_an_error() {
        let text = "op zorp time contains poly 1 1.0\n";
        let err = from_text::<ListKind>(text).unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn bad_coefficient_is_an_error() {
        let text = "op array time contains poly 1 banana\n";
        assert!(from_text::<ListKind>(text).is_err());
    }

    #[test]
    fn missing_coefficients_is_an_error() {
        let text = "op array time contains poly 1\n";
        assert!(from_text::<ListKind>(text).is_err());
    }

    #[test]
    fn negative_scale_is_an_error() {
        let text = "instance array footprint poly -5 1.0\n";
        assert!(from_text::<ListKind>(text).is_err());
    }

    #[test]
    fn unknown_tag_is_an_error() {
        let text = "frob array time contains poly 1 1.0\n";
        assert!(from_text::<ListKind>(text).is_err());
    }

    #[test]
    fn piecewise_without_separator_is_an_error() {
        let text = "op adaptive time contains pw 40 1 1.0 1 9.0\n";
        assert!(from_text::<ListKind>(text).is_err());
    }

    #[test]
    fn unknown_curve_form_is_an_error() {
        let text = "op array time contains spline 1 1.0\n";
        assert!(from_text::<ListKind>(text).is_err());
    }

    #[test]
    fn nan_scale_is_an_error() {
        // `"NaN".parse::<f64>()` succeeds, and NaN <= 0.0 is false — this
        // line sailed through the pre-validation parser.
        let text = "op array time contains poly NaN 1.0\n";
        let err = from_text::<ListKind>(text).unwrap_err();
        assert!(err.to_string().contains("finite"), "{err}");
    }

    #[test]
    fn nan_coefficient_is_an_error() {
        let text = "op array time contains poly 1 NaN\n";
        assert!(from_text::<ListKind>(text).is_err());
    }

    #[test]
    fn infinite_values_are_errors() {
        for text in [
            "op array time contains poly inf 1.0\n",
            "op array time contains poly 1 -inf\n",
            "op adaptive time contains pw inf 1 1.0 | 1 9.0\n",
        ] {
            let err = from_text::<ListKind>(text).unwrap_err();
            assert!(err.to_string().contains("finite"), "{text}: {err}");
        }
    }

    #[test]
    fn absurd_magnitudes_are_errors() {
        for text in [
            "op array time contains poly 1e13 1.0\n",
            "op array time contains poly 1 -5e250\n",
        ] {
            let err = from_text::<ListKind>(text).unwrap_err();
            assert!(err.to_string().contains("exceeds"), "{text}: {err}");
        }
    }

    #[test]
    fn nan_piecewise_branch_is_an_error() {
        let text = "op adaptive time contains pw 40 NaN 1.0 | 1 9.0\n";
        assert!(from_text::<ListKind>(text).is_err());
    }

    #[test]
    fn save_to_path_round_trips_atomically() {
        let dir = std::env::temp_dir().join(format!("cs-model-save-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lists.model");
        let model = crate::default_models::list_model();
        save_to_path(model, &path).unwrap();
        let restored: PerformanceModel<ListKind> =
            from_text(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(restored.len(), model.len());
        // No temp debris from the atomic protocol.
        let temps = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .count();
        assert_eq!(temps, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
