//! Cost dimensions over which variants are compared (paper §2.1, §3.1.2).

use std::fmt;
use std::str::FromStr;

/// A performance-related criterion along which collection variants are
/// costed and compared.
///
/// The paper's evaluation optimizes `Time` and `Alloc` (rules `R_time` and
/// `R_alloc`, Table 4) and tracks `Footprint` as the peak-memory outcome.
///
/// # Examples
///
/// ```
/// use cs_model::CostDimension;
///
/// assert_eq!(CostDimension::Time.to_string(), "time");
/// assert_eq!("alloc".parse::<CostDimension>(), Ok(CostDimension::Alloc));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CostDimension {
    /// Execution time of the critical operations (nanoseconds in the
    /// calibrated models).
    Time,
    /// Bytes allocated over the workload (the paper's allocation dimension).
    Alloc,
    /// Peak heap footprint of the collection at its maximum size.
    Footprint,
    /// Allocation *rate*: bytes allocated per operation, with no
    /// per-instance term. Where `Alloc` prices the total churn of a
    /// workload (and so grows with instance count), `AllocRate` prices
    /// steady-state churn intensity — the observable `cs-heap` attribution
    /// measures live per site.
    AllocRate,
}

impl CostDimension {
    /// All dimensions, in a fixed order usable for indexing.
    pub const ALL: [CostDimension; 4] = [
        CostDimension::Time,
        CostDimension::Alloc,
        CostDimension::Footprint,
        CostDimension::AllocRate,
    ];

    /// Stable index of this dimension in [`CostDimension::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        match self {
            CostDimension::Time => 0,
            CostDimension::Alloc => 1,
            CostDimension::Footprint => 2,
            CostDimension::AllocRate => 3,
        }
    }
}

impl fmt::Display for CostDimension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CostDimension::Time => "time",
            CostDimension::Alloc => "alloc",
            CostDimension::Footprint => "footprint",
            CostDimension::AllocRate => "alloc_rate",
        };
        f.write_str(s)
    }
}

/// Error returned when parsing a [`CostDimension`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDimensionError(String);

impl fmt::Display for ParseDimensionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown cost dimension: `{}`", self.0)
    }
}

impl std::error::Error for ParseDimensionError {}

impl FromStr for CostDimension {
    type Err = ParseDimensionError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "time" => Ok(CostDimension::Time),
            "alloc" => Ok(CostDimension::Alloc),
            "footprint" => Ok(CostDimension::Footprint),
            "alloc_rate" => Ok(CostDimension::AllocRate),
            _ => Err(ParseDimensionError(s.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_round_trip() {
        for d in CostDimension::ALL {
            assert_eq!(d.to_string().parse::<CostDimension>(), Ok(d));
        }
    }

    #[test]
    fn indexes_cover_all() {
        let mut seen = [false; CostDimension::ALL.len()];
        for d in CostDimension::ALL {
            seen[d.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unknown_dimension_errors() {
        assert!("joules".parse::<CostDimension>().is_err());
    }
}
