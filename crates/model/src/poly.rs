//! Degree-d polynomial models with least-squares fitting (paper §4.1.2).

use std::fmt;

/// Error returned when a least-squares fit cannot be computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// Fewer samples than coefficients.
    TooFewSamples {
        /// Samples provided.
        got: usize,
        /// Samples required (degree + 1).
        need: usize,
    },
    /// The x and y slices have different lengths.
    LengthMismatch,
    /// The normal equations are singular (e.g. all x values identical).
    Singular,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::TooFewSamples { got, need } => {
                write!(f, "too few samples for fit: got {got}, need {need}")
            }
            FitError::LengthMismatch => f.write_str("x and y sample lengths differ"),
            FitError::Singular => f.write_str("normal equations are singular"),
        }
    }
}

impl std::error::Error for FitError {}

/// A polynomial `cost(s) = Σ a_k (s / scale)^k`.
///
/// The internal x-scaling keeps the normal equations well conditioned when
/// fitting over collection sizes up to 10⁴ (x⁶ moments would otherwise reach
/// 10²⁴ and swamp the f64 mantissa).
///
/// # Examples
///
/// ```
/// use cs_model::Polynomial;
///
/// let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 50.0).collect();
/// let ys: Vec<f64> = xs.iter().map(|&x| 3.0 + 2.0 * x).collect();
/// let p = Polynomial::fit(&xs, &ys, 3)?;
/// assert!((p.eval(500.0) - 1003.0).abs() < 1e-6);
/// # Ok::<(), cs_model::FitError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polynomial {
    /// Coefficients in ascending order of the *scaled* variable.
    coeffs: Vec<f64>,
    /// Scale divisor applied to x before evaluation.
    scale: f64,
}

impl Polynomial {
    /// The degree used by the paper's models.
    pub const PAPER_DEGREE: usize = 3;

    /// A polynomial that is identically zero.
    pub fn zero() -> Self {
        Polynomial {
            coeffs: vec![0.0],
            scale: 1.0,
        }
    }

    /// A constant polynomial.
    pub fn constant(c: f64) -> Self {
        Polynomial {
            coeffs: vec![c],
            scale: 1.0,
        }
    }

    /// Builds a polynomial from unscaled coefficients (ascending powers of
    /// the raw variable).
    pub fn from_coeffs(coeffs: Vec<f64>) -> Self {
        assert!(
            !coeffs.is_empty(),
            "a polynomial needs at least one coefficient"
        );
        Polynomial { coeffs, scale: 1.0 }
    }

    /// Raw parts: `(coefficients, scale)`. Used by [`crate::persist`].
    pub fn parts(&self) -> (&[f64], f64) {
        (&self.coeffs, self.scale)
    }

    /// Rebuilds a polynomial from [`parts`](Polynomial::parts) output.
    pub fn from_parts(coeffs: Vec<f64>, scale: f64) -> Self {
        assert!(
            !coeffs.is_empty(),
            "a polynomial needs at least one coefficient"
        );
        assert!(scale > 0.0, "scale must be positive");
        Polynomial { coeffs, scale }
    }

    /// Evaluates the polynomial at `x` (Horner's scheme).
    ///
    /// # Examples
    ///
    /// ```
    /// use cs_model::Polynomial;
    ///
    /// let p = Polynomial::from_coeffs(vec![1.0, 0.0, 2.0]); // 1 + 2x²
    /// assert_eq!(p.eval(3.0), 19.0);
    /// ```
    pub fn eval(&self, x: f64) -> f64 {
        let t = x / self.scale;
        let mut acc = 0.0;
        for &c in self.coeffs.iter().rev() {
            acc = acc * t + c;
        }
        acc
    }

    /// Fits a degree-`degree` polynomial to `(xs, ys)` by least squares
    /// (normal equations with partial-pivot Gaussian elimination), as the
    /// paper does for its performance models.
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] if the sample slices disagree in length, contain
    /// fewer than `degree + 1` points, or produce a singular system.
    pub fn fit(xs: &[f64], ys: &[f64], degree: usize) -> Result<Self, FitError> {
        if xs.len() != ys.len() {
            return Err(FitError::LengthMismatch);
        }
        let n_coeffs = degree + 1;
        if xs.len() < n_coeffs {
            return Err(FitError::TooFewSamples {
                got: xs.len(),
                need: n_coeffs,
            });
        }
        let scale = xs.iter().fold(0.0_f64, |m, &x| m.max(x.abs())).max(1.0);

        // Normal equations: (Xᵀ X) a = Xᵀ y over the scaled variable.
        let mut moments = vec![0.0_f64; 2 * degree + 1];
        let mut rhs = vec![0.0_f64; n_coeffs];
        for (&x, &y) in xs.iter().zip(ys.iter()) {
            let t = x / scale;
            let mut tk = 1.0;
            for m in moments.iter_mut() {
                *m += tk;
                tk *= t;
            }
            let mut tk = 1.0;
            for r in rhs.iter_mut() {
                *r += tk * y;
                tk *= t;
            }
        }
        let mut a = vec![vec![0.0_f64; n_coeffs]; n_coeffs];
        for (i, row) in a.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = moments[i + j];
            }
        }
        let coeffs = solve(&mut a, &mut rhs)?;
        Ok(Polynomial { coeffs, scale })
    }

    /// Root-mean-square residual of this model over the given samples.
    pub fn rms_residual(&self, xs: &[f64], ys: &[f64]) -> f64 {
        assert_eq!(xs.len(), ys.len());
        if xs.is_empty() {
            return 0.0;
        }
        let sq_sum: f64 = xs
            .iter()
            .zip(ys.iter())
            .map(|(&x, &y)| {
                let e = self.eval(x) - y;
                e * e
            })
            .sum();
        (sq_sum / xs.len() as f64).sqrt()
    }
}

impl fmt::Display for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "poly(scale={}; ", self.scale)?;
        for (k, c) in self.coeffs.iter().enumerate() {
            if k > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c:.4}·t^{k}")?;
        }
        f.write_str(")")
    }
}

/// Solves `A x = b` in place by Gaussian elimination with partial pivoting.
fn solve(a: &mut [Vec<f64>], b: &mut [f64]) -> Result<Vec<f64>, FitError> {
    let n = b.len();
    for col in 0..n {
        // Partial pivot.
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("non-empty range");
        if a[pivot][col].abs() < 1e-12 {
            return Err(FitError::Singular);
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..n {
            let factor = a[row][col] / a[col][col];
            if factor == 0.0 {
                continue;
            }
            // Indexing (not iterators): `a[row]` and `a[col]` are two
            // rows of the same matrix, which split mutable borrows can't
            // express without restructuring the elimination.
            #[allow(clippy::needless_range_loop)]
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in (row + 1)..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Vec<f64> {
        (1..=30).map(|i| i as f64 * 33.0).collect()
    }

    #[test]
    fn recovers_constant() {
        let xs = grid();
        let ys: Vec<f64> = xs.iter().map(|_| 7.5).collect();
        let p = Polynomial::fit(&xs, &ys, 3).unwrap();
        for &x in &xs {
            assert!((p.eval(x) - 7.5).abs() < 1e-8, "at {x}: {}", p.eval(x));
        }
    }

    #[test]
    fn recovers_linear() {
        let xs = grid();
        let ys: Vec<f64> = xs.iter().map(|&x| 2.0 + 0.5 * x).collect();
        let p = Polynomial::fit(&xs, &ys, 3).unwrap();
        assert!((p.eval(500.0) - 252.0).abs() < 1e-6);
    }

    #[test]
    fn recovers_cubic_exactly() {
        let xs = grid();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| 1.0 - 2.0 * x + 0.003 * x * x + 1e-6 * x * x * x)
            .collect();
        let p = Polynomial::fit(&xs, &ys, 3).unwrap();
        assert!(p.rms_residual(&xs, &ys) < 1e-6);
    }

    #[test]
    fn paper_size_range_is_well_conditioned() {
        // Sizes up to 10k, as in the paper's models.
        let xs: Vec<f64> = (1..=100).map(|i| i as f64 * 100.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 10.0 + 0.25 * x).collect();
        let p = Polynomial::fit(&xs, &ys, 3).unwrap();
        assert!(p.rms_residual(&xs, &ys) < 1e-4);
    }

    #[test]
    fn noisy_fit_stays_close() {
        let xs = grid();
        // Deterministic "noise".
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| 5.0 + 3.0 * x + if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let p = Polynomial::fit(&xs, &ys, 3).unwrap();
        assert!(p.rms_residual(&xs, &ys) < 1.0);
        assert!((p.eval(330.0) - (5.0 + 3.0 * 330.0)).abs() < 5.0);
    }

    #[test]
    fn too_few_samples_is_an_error() {
        let err = Polynomial::fit(&[1.0, 2.0], &[1.0, 2.0], 3).unwrap_err();
        assert_eq!(err, FitError::TooFewSamples { got: 2, need: 4 });
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let err = Polynomial::fit(&[1.0, 2.0, 3.0, 4.0], &[1.0], 3).unwrap_err();
        assert_eq!(err, FitError::LengthMismatch);
    }

    #[test]
    fn identical_xs_are_singular() {
        let xs = [5.0; 10];
        let ys = [1.0; 10];
        assert_eq!(
            Polynomial::fit(&xs, &ys, 3).unwrap_err(),
            FitError::Singular
        );
    }

    #[test]
    fn zero_and_constant_constructors() {
        assert_eq!(Polynomial::zero().eval(123.0), 0.0);
        assert_eq!(Polynomial::constant(4.0).eval(123.0), 4.0);
    }

    #[test]
    fn parts_round_trip() {
        let p = Polynomial::fit(&grid(), &grid(), 2).unwrap();
        let (coeffs, scale) = p.parts();
        let q = Polynomial::from_parts(coeffs.to_vec(), scale);
        assert_eq!(p, q);
    }

    #[test]
    #[should_panic(expected = "at least one coefficient")]
    fn empty_coeffs_panics() {
        let _ = Polynomial::from_coeffs(vec![]);
    }
}
