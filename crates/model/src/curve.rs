//! Cost curves: plain polynomials or threshold-piecewise polynomials.

use std::fmt;

use crate::poly::Polynomial;

/// A cost curve over collection size.
///
/// The paper models every cost as a single degree-3 polynomial. For
/// *adaptive* variants that behaviour is actually piecewise (array-like
/// below the transition threshold, hash-like above), and a single cubic
/// fitted across the whole size range misrepresents the small-size half.
/// `CostCurve` therefore also supports a two-piece form; the model builder
/// still produces single polynomials (as in the paper), while the shipped
/// default models use the piecewise form for adaptive variants. DESIGN.md
/// lists this as an ablation-worthy deviation.
///
/// # Examples
///
/// ```
/// use cs_model::{CostCurve, Polynomial};
///
/// let flat = CostCurve::from(Polynomial::constant(2.0));
/// assert_eq!(flat.eval(123.0), 2.0);
///
/// let pw = CostCurve::piecewise(
///     40.0,
///     Polynomial::from_coeffs(vec![0.0, 1.0]), // x below
///     Polynomial::constant(10.0),              // 10 above
/// );
/// assert_eq!(pw.eval(5.0), 5.0);
/// assert_eq!(pw.eval(100.0), 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum CostCurve {
    /// A single polynomial, as in the paper.
    Poly(Polynomial),
    /// Two polynomials split at a size threshold (adaptive variants).
    Piecewise {
        /// Sizes `≤ threshold` use `below`, larger sizes use `above`.
        threshold: f64,
        /// The small-size polynomial.
        below: Polynomial,
        /// The large-size polynomial.
        above: Polynomial,
    },
}

impl CostCurve {
    /// A curve that is identically zero.
    pub fn zero() -> Self {
        CostCurve::Poly(Polynomial::zero())
    }

    /// Builds the piecewise form.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not finite.
    pub fn piecewise(threshold: f64, below: Polynomial, above: Polynomial) -> Self {
        assert!(threshold.is_finite(), "piecewise threshold must be finite");
        CostCurve::Piecewise {
            threshold,
            below,
            above,
        }
    }

    /// Evaluates the curve at size `x`.
    pub fn eval(&self, x: f64) -> f64 {
        match self {
            CostCurve::Poly(p) => p.eval(x),
            CostCurve::Piecewise {
                threshold,
                below,
                above,
            } => {
                if x <= *threshold {
                    below.eval(x)
                } else {
                    above.eval(x)
                }
            }
        }
    }
}

impl From<Polynomial> for CostCurve {
    fn from(p: Polynomial) -> Self {
        CostCurve::Poly(p)
    }
}

impl fmt::Display for CostCurve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostCurve::Poly(p) => write!(f, "{p}"),
            CostCurve::Piecewise {
                threshold,
                below,
                above,
            } => write!(f, "piecewise(t={threshold}; {below} | {above})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poly_form_delegates() {
        let c = CostCurve::from(Polynomial::from_coeffs(vec![1.0, 2.0]));
        assert_eq!(c.eval(3.0), 7.0);
    }

    #[test]
    fn piecewise_boundary_is_inclusive_below() {
        let c = CostCurve::piecewise(40.0, Polynomial::constant(1.0), Polynomial::constant(2.0));
        assert_eq!(c.eval(40.0), 1.0);
        assert_eq!(c.eval(40.0001), 2.0);
    }

    #[test]
    fn zero_curve() {
        assert_eq!(CostCurve::zero().eval(1e6), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_threshold_panics() {
        let _ = CostCurve::piecewise(f64::NAN, Polynomial::zero(), Polynomial::zero());
    }
}
