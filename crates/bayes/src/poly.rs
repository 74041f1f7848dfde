//! Polynomial basis expansion for one-dimensional regression inputs.

/// Maps a scalar input `x` to the feature vector `[1, x, x², …, x^degree]`.
///
/// The Estimator regresses F1 score on pollution level; a degree-1 or
/// degree-2 basis captures the (often gently curved) degradation trends the
/// paper's Figure 1 illustrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolynomialBasis {
    degree: usize,
}

impl PolynomialBasis {
    /// Create a basis of the given degree (≥ 0; degree 0 is intercept-only).
    pub fn new(degree: usize) -> Self {
        PolynomialBasis { degree }
    }

    /// Number of output features (`degree + 1`).
    pub fn dim(self) -> usize {
        self.degree + 1
    }

    /// The polynomial degree.
    pub fn degree(self) -> usize {
        self.degree
    }

    /// Expand a single input.
    pub fn expand(self, x: f64) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dim());
        let mut p = 1.0;
        for _ in 0..=self.degree {
            out.push(p);
            p *= x;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expand_degree_two() {
        let basis = PolynomialBasis::new(2);
        assert_eq!(basis.dim(), 3);
        assert_eq!(basis.expand(3.0), vec![1.0, 3.0, 9.0]);
        assert_eq!(basis.expand(0.0), vec![1.0, 0.0, 0.0]);
        assert_eq!(basis.expand(-2.0), vec![1.0, -2.0, 4.0]);
    }

    #[test]
    fn degree_zero_is_intercept_only() {
        let basis = PolynomialBasis::new(0);
        assert_eq!(basis.expand(42.0), vec![1.0]);
    }
}
