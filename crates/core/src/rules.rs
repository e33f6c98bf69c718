//! Configurable selection rules (paper §3.1.2, Table 4).

use std::fmt;
use std::str::FromStr;

use cs_model::CostDimension;

/// One criterion of a selection rule: the candidate variant's total cost
/// along `dimension`, divided by the current variant's, must not exceed
/// `threshold`.
///
/// `threshold < 1` demands an improvement; `threshold ≥ 1` caps the penalty
/// the candidate may incur on that dimension.
///
/// # Examples
///
/// ```
/// use cs_core::Criterion;
/// use cs_model::CostDimension;
///
/// let c = Criterion::new(CostDimension::Time, 0.8);
/// assert!(c.satisfied_by(0.5));
/// assert!(!c.satisfied_by(0.9));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Criterion {
    /// The cost dimension this criterion constrains.
    pub dimension: CostDimension,
    /// Maximum allowed `TC(candidate) / TC(current)` ratio.
    pub threshold: f64,
}

impl Criterion {
    /// Creates a criterion.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not finite and positive.
    pub fn new(dimension: CostDimension, threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "criterion threshold must be positive and finite, got {threshold}"
        );
        Criterion {
            dimension,
            threshold,
        }
    }

    /// Whether a cost ratio satisfies this criterion.
    #[inline]
    pub fn satisfied_by(&self, ratio: f64) -> bool {
        ratio <= self.threshold
    }
}

impl fmt::Display for Criterion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} < {}", self.dimension, self.threshold)
    }
}

/// A selection rule: an ordered list of criteria, all of which a candidate
/// must satisfy. The first criterion (`C1`) is the improvement target and
/// breaks ties: among satisfying candidates, the one with the largest
/// improvement on `C1` is selected (paper §3.1.2).
///
/// # Examples
///
/// ```
/// use cs_core::SelectionRule;
/// use cs_model::CostDimension;
///
/// let rule = SelectionRule::r_alloc(); // paper Table 4
/// assert_eq!(rule.primary().dimension, CostDimension::Alloc);
/// assert_eq!(rule.criteria().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionRule {
    name: &'static str,
    criteria: Vec<Criterion>,
}

impl SelectionRule {
    /// Builds a custom rule from ordered criteria.
    ///
    /// # Panics
    ///
    /// Panics if `criteria` is empty.
    pub fn custom(name: &'static str, criteria: Vec<Criterion>) -> Self {
        assert!(
            !criteria.is_empty(),
            "a selection rule needs at least one criterion"
        );
        SelectionRule { name, criteria }
    }

    /// The paper's `R_time`: time cost < 0.8 (Table 4).
    pub fn r_time() -> Self {
        SelectionRule::custom("R_time", vec![Criterion::new(CostDimension::Time, 0.8)])
    }

    /// The paper's `R_alloc`: alloc cost < 0.8, with a time penalty cap of
    /// 1.2 (Table 4). Without the cap, array-backed variants would always be
    /// prioritized for their low allocation.
    pub fn r_alloc() -> Self {
        SelectionRule::custom(
            "R_alloc",
            vec![
                Criterion::new(CostDimension::Alloc, 0.8),
                Criterion::new(CostDimension::Time, 1.2),
            ],
        )
    }

    /// A footprint-targeting rule (peak-memory analogue of `R_alloc`).
    pub fn r_footprint() -> Self {
        SelectionRule::custom(
            "R_footprint",
            vec![
                Criterion::new(CostDimension::Footprint, 0.8),
                Criterion::new(CostDimension::Time, 1.2),
            ],
        )
    }

    /// An energy-targeting rule over the synthetic energy dimension (the
    /// paper's named future-work direction).
    pub fn r_energy() -> Self {
        SelectionRule::custom("R_energy", vec![Criterion::new(CostDimension::Energy, 0.8)])
    }

    /// An allocation-*rate* rule: steady-state bytes/op < 0.8 with the same
    /// 1.2× time cap as `R_alloc`. Unlike `R_alloc`, the primary dimension
    /// carries no per-instance base term, so it targets long-lived churny
    /// sites (where `cs-heap` attribution measures the rate live) rather
    /// than many-tiny-instance workloads.
    pub fn r_alloc_rate() -> Self {
        SelectionRule::custom(
            "R_alloc_rate",
            vec![
                Criterion::new(CostDimension::AllocRate, 0.8),
                Criterion::new(CostDimension::Time, 1.2),
            ],
        )
    }

    /// The paper's §5.3 overhead-evaluation rule: a required 1000×
    /// improvement that no candidate can meet, so the full monitoring and
    /// analysis pipeline runs but no transition ever fires.
    pub fn impossible() -> Self {
        SelectionRule::custom(
            "R_impossible",
            vec![Criterion::new(CostDimension::Time, 0.001)],
        )
    }

    /// The rule's display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The ordered criteria.
    pub fn criteria(&self) -> &[Criterion] {
        &self.criteria
    }

    /// The first criterion, `C1` — the improvement dimension.
    pub fn primary(&self) -> Criterion {
        self.criteria[0]
    }

    /// Whether a candidate whose cost ratios are given by `ratio_of`
    /// satisfies every criterion.
    pub fn satisfied(&self, mut ratio_of: impl FnMut(CostDimension) -> f64) -> bool {
        self.criteria
            .iter()
            .all(|c| c.satisfied_by(ratio_of(c.dimension)))
    }
}

/// Error returned when parsing a [`SelectionRule`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRuleError(String);

impl fmt::Display for ParseRuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid selection rule: {}", self.0)
    }
}

impl std::error::Error for ParseRuleError {}

impl FromStr for SelectionRule {
    type Err = ParseRuleError;

    /// Parses the paper's rule notation: comma-separated criteria of the
    /// form `<dimension> < <threshold>`, first criterion = improvement
    /// target. Examples: `"time < 0.8"`, `"alloc < 0.8, time < 1.2"`.
    ///
    /// Named presets also parse: `R_time`, `R_alloc`, `R_footprint`,
    /// `R_energy`, `R_impossible`.
    fn from_str(input: &str) -> Result<Self, Self::Err> {
        match input.trim() {
            "R_time" => return Ok(SelectionRule::r_time()),
            "R_alloc" => return Ok(SelectionRule::r_alloc()),
            "R_footprint" => return Ok(SelectionRule::r_footprint()),
            "R_energy" => return Ok(SelectionRule::r_energy()),
            "R_alloc_rate" => return Ok(SelectionRule::r_alloc_rate()),
            "R_impossible" => return Ok(SelectionRule::impossible()),
            _ => {}
        }
        let mut criteria = Vec::new();
        for part in input.split(',') {
            let part = part.trim();
            let (dim_s, thr_s) = part.split_once('<').ok_or_else(|| {
                ParseRuleError(format!("criterion `{part}` is not `<dim> < <threshold>`"))
            })?;
            let dimension: CostDimension = dim_s
                .trim()
                .parse()
                .map_err(|e| ParseRuleError(format!("{e}")))?;
            let threshold: f64 = thr_s
                .trim()
                .parse()
                .map_err(|e| ParseRuleError(format!("bad threshold `{}`: {e}", thr_s.trim())))?;
            if !threshold.is_finite() || threshold <= 0.0 {
                return Err(ParseRuleError(format!(
                    "threshold must be positive and finite, got `{}`",
                    thr_s.trim()
                )));
            }
            criteria.push(Criterion::new(dimension, threshold));
        }
        if criteria.is_empty() {
            return Err(ParseRuleError("a rule needs at least one criterion".into()));
        }
        Ok(SelectionRule::custom("custom", criteria))
    }
}

impl fmt::Display for SelectionRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[", self.name)?;
        for (i, c) in self.criteria.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{c}")?;
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r_time_matches_table_4() {
        let r = SelectionRule::r_time();
        assert_eq!(r.criteria().len(), 1);
        assert_eq!(r.primary().dimension, CostDimension::Time);
        assert!((r.primary().threshold - 0.8).abs() < 1e-12);
    }

    #[test]
    fn r_alloc_matches_table_4() {
        let r = SelectionRule::r_alloc();
        assert_eq!(r.primary().dimension, CostDimension::Alloc);
        assert!((r.primary().threshold - 0.8).abs() < 1e-12);
        assert_eq!(r.criteria()[1].dimension, CostDimension::Time);
        assert!((r.criteria()[1].threshold - 1.2).abs() < 1e-12);
    }

    #[test]
    fn satisfied_requires_all_criteria() {
        let r = SelectionRule::r_alloc();
        assert!(r.satisfied(|d| match d {
            CostDimension::Alloc => 0.5,
            CostDimension::Time => 1.1,
            _ => 1.0,
        }));
        assert!(!r.satisfied(|d| match d {
            CostDimension::Alloc => 0.5,
            CostDimension::Time => 1.3, // penalty cap violated
            _ => 1.0,
        }));
        assert!(!r.satisfied(|d| match d {
            CostDimension::Alloc => 0.9, // improvement missed
            CostDimension::Time => 1.0,
            _ => 1.0,
        }));
    }

    #[test]
    fn impossible_rule_rejects_everything_realistic() {
        let r = SelectionRule::impossible();
        assert!(!r.satisfied(|_| 0.01));
        assert!(r.satisfied(|_| 0.0005), "a 1000x improvement would pass");
    }

    #[test]
    #[should_panic(expected = "at least one criterion")]
    fn empty_rule_panics() {
        let _ = SelectionRule::custom("empty", vec![]);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn non_finite_threshold_panics() {
        let _ = Criterion::new(CostDimension::Time, f64::NAN);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(SelectionRule::r_time().to_string(), "R_time[time < 0.8]");
    }

    #[test]
    fn parses_the_paper_notation() {
        let r: SelectionRule = "alloc < 0.8, time < 1.2".parse().unwrap();
        assert_eq!(r.criteria().len(), 2);
        assert_eq!(r.primary().dimension, CostDimension::Alloc);
        assert!((r.criteria()[1].threshold - 1.2).abs() < 1e-12);
    }

    #[test]
    fn r_alloc_rate_targets_the_rate_dimension_with_a_time_cap() {
        let r = SelectionRule::r_alloc_rate();
        assert_eq!(r.primary().dimension, CostDimension::AllocRate);
        assert!((r.primary().threshold - 0.8).abs() < 1e-12);
        assert_eq!(r.criteria()[1].dimension, CostDimension::Time);
        assert!((r.criteria()[1].threshold - 1.2).abs() < 1e-12);
        assert_eq!(
            "R_alloc_rate".parse::<SelectionRule>().unwrap(),
            SelectionRule::r_alloc_rate()
        );
        let parsed: SelectionRule = "alloc_rate < 0.8, time < 1.2".parse().unwrap();
        assert_eq!(parsed.primary().dimension, CostDimension::AllocRate);
    }

    #[test]
    fn parses_named_presets() {
        assert_eq!(
            "R_time".parse::<SelectionRule>().unwrap(),
            SelectionRule::r_time()
        );
        assert_eq!(
            "R_alloc".parse::<SelectionRule>().unwrap(),
            SelectionRule::r_alloc()
        );
        assert_eq!(
            "R_impossible".parse::<SelectionRule>().unwrap(),
            SelectionRule::impossible()
        );
    }

    #[test]
    fn parse_rejects_malformed_rules() {
        assert!("".parse::<SelectionRule>().is_err());
        assert!("time > 0.8".parse::<SelectionRule>().is_err());
        assert!("watts < 0.8".parse::<SelectionRule>().is_err());
        assert!("time < -1".parse::<SelectionRule>().is_err());
        assert!("time < banana".parse::<SelectionRule>().is_err());
    }
}
