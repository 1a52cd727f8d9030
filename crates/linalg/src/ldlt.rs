//! LDLᵀ factorisation for symmetric (possibly indefinite but non-singular
//! quasi-definite) matrices.
//!
//! The interior-point KKT systems solved in `bbs-conic` are symmetric
//! quasi-definite after regularisation, which is exactly the class for which
//! an unpivoted LDLᵀ factorisation is numerically acceptable. The solver
//! factors them with [`crate::SparseLdlt`], which reproduces this dense
//! factorisation bit for bit; `Ldlt` is its reference in the tests.

use crate::{DMatrix, DVector};
use std::error::Error;
use std::fmt;

/// Error returned when a matrix cannot be LDLᵀ-factorised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LdltError {
    /// The matrix is not square.
    NotSquare,
    /// A pivot was too close to zero, reporting the offending column.
    SingularPivot {
        /// Column index of the failing pivot.
        column: usize,
    },
}

impl fmt::Display for LdltError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LdltError::NotSquare => write!(f, "matrix is not square"),
            LdltError::SingularPivot { column } => {
                write!(f, "matrix is numerically singular (pivot {column})")
            }
        }
    }
}

impl Error for LdltError {}

/// Unpivoted LDLᵀ factorisation `A = L D Lᵀ` with unit lower-triangular `L`
/// and diagonal `D`.
///
/// # Example
///
/// ```
/// use bbs_linalg::{Ldlt, DMatrix, DVector};
/// # fn main() -> Result<(), bbs_linalg::LdltError> {
/// // A symmetric quasi-definite matrix (positive and negative diagonal blocks).
/// let a = DMatrix::from_rows(&[&[ 2.0,  1.0],
///                              &[ 1.0, -3.0]]);
/// let f = Ldlt::factor(&a)?;
/// let b = DVector::from_slice(&[1.0, 2.0]);
/// let x = f.solve(&b);
/// assert!((&a.matvec(&x) - &b).norm_inf() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ldlt {
    l: DMatrix,
    d: DVector,
}

impl Ldlt {
    /// Factorises a symmetric matrix without pivoting.
    ///
    /// Only the lower triangle of `a` is read.
    ///
    /// # Errors
    ///
    /// Returns [`LdltError::NotSquare`] when `a` is not square and
    /// [`LdltError::SingularPivot`] when a pivot magnitude drops below
    /// [`crate::tol::PIVOT_EPS`].
    pub fn factor(a: &DMatrix) -> Result<Self, LdltError> {
        if a.nrows() != a.ncols() {
            return Err(LdltError::NotSquare);
        }
        let n = a.nrows();
        let mut l = DMatrix::identity(n);
        let mut d = DVector::zeros(n);
        for j in 0..n {
            let mut dj = a[(j, j)];
            for k in 0..j {
                dj -= l[(j, k)] * l[(j, k)] * d[k];
            }
            if dj.abs() <= crate::tol::PIVOT_EPS {
                return Err(LdltError::SingularPivot { column: j });
            }
            d[j] = dj;
            for i in (j + 1)..n {
                let mut v = a[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)] * d[k];
                }
                l[(i, j)] = v / dj;
            }
        }
        Ok(Self { l, d })
    }

    /// The unit lower-triangular factor `L`.
    pub fn factor_l(&self) -> &DMatrix {
        &self.l
    }

    /// The diagonal factor `D` as a vector.
    pub fn factor_d(&self) -> &DVector {
        &self.d
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.d.len()
    }

    /// Number of negative pivots (the matrix inertia's negative count).
    pub fn negative_pivots(&self) -> usize {
        self.d.iter().filter(|&&v| v < 0.0).count()
    }

    /// Solves `A x = b` using the stored factorisation.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the factor dimension.
    pub fn solve(&self, b: &DVector) -> DVector {
        let n = self.dim();
        assert_eq!(b.len(), n, "ldlt solve: dimension mismatch");
        // Forward substitution with unit lower-triangular L.
        let mut y = b.clone();
        for i in 0..n {
            let mut acc = y[i];
            for j in 0..i {
                acc -= self.l[(i, j)] * y[j];
            }
            y[i] = acc;
        }
        // Diagonal solve.
        for i in 0..n {
            y[i] /= self.d[i];
        }
        // Backward substitution with Lᵀ.
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.l[(j, i)] * y[j];
            }
            y[i] = acc;
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn quasi_definite(n: usize, m: usize, seed: u64) -> DMatrix {
        // [ P   Gᵀ ]
        // [ G  -Q  ]  with P, Q SPD — the structure of IPM KKT systems.
        let mut rng = SmallRng::seed_from_u64(seed);
        let dim = n + m;
        let mut a = DMatrix::zeros(dim, dim);
        for i in 0..n {
            a[(i, i)] = rng.gen_range(1.0..3.0);
        }
        for i in 0..m {
            a[(n + i, n + i)] = -rng.gen_range(1.0..3.0);
        }
        for i in 0..m {
            for j in 0..n {
                let v = rng.gen_range(-1.0..1.0);
                a[(n + i, j)] = v;
                a[(j, n + i)] = v;
            }
        }
        a
    }

    #[test]
    fn factor_solve_roundtrip() {
        let a = quasi_definite(3, 2, 11);
        let f = Ldlt::factor(&a).unwrap();
        let b = DVector::from_slice(&[1.0, -1.0, 2.0, 0.5, -0.25]);
        let x = f.solve(&b);
        assert!((&a.matvec(&x) - &b).norm_inf() < 1e-9);
        assert_eq!(f.dim(), 5);
    }

    #[test]
    fn inertia_counts_negative_block() {
        let a = quasi_definite(3, 2, 3);
        let f = Ldlt::factor(&a).unwrap();
        assert_eq!(f.negative_pivots(), 2);
    }

    #[test]
    fn rejects_non_square() {
        assert_eq!(
            Ldlt::factor(&DMatrix::zeros(2, 3)),
            Err(LdltError::NotSquare)
        );
    }

    #[test]
    fn rejects_singular() {
        let a = DMatrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        match Ldlt::factor(&a) {
            Err(LdltError::SingularPivot { column }) => assert_eq!(column, 1),
            other => panic!("expected singular pivot, got {other:?}"),
        }
    }

    #[test]
    fn factors_accessible() {
        let a = DMatrix::from_rows(&[&[4.0, 2.0], &[2.0, 5.0]]);
        let f = Ldlt::factor(&a).unwrap();
        assert_eq!(f.factor_l()[(1, 0)], 0.5);
        assert_eq!(f.factor_d()[0], 4.0);
    }

    #[test]
    fn error_display_nonempty() {
        assert!(!LdltError::NotSquare.to_string().is_empty());
        assert!(LdltError::SingularPivot { column: 1 }
            .to_string()
            .contains('1'));
    }

    proptest! {
        #[test]
        fn prop_reconstruction(seed in 0u64..300, n in 1usize..5, m in 1usize..5) {
            let a = quasi_definite(n, m, seed);
            let f = Ldlt::factor(&a).unwrap();
            let l = f.factor_l();
            let d = DMatrix::from_diagonal(f.factor_d());
            let rec = l.matmul(&d).matmul(&l.transpose());
            prop_assert!((&rec - &a).norm_inf() < 1e-8 * (1.0 + a.norm_inf()));
        }

        #[test]
        fn prop_solve_residual(seed in 0u64..300, n in 1usize..5, m in 1usize..5) {
            let a = quasi_definite(n, m, seed);
            let f = Ldlt::factor(&a).unwrap();
            let b = DVector::from_vec((0..n + m).map(|i| (i as f64) * 0.7 - 1.0).collect());
            let x = f.solve(&b);
            prop_assert!((&a.matvec(&x) - &b).norm_inf() < 1e-7 * (1.0 + b.norm_inf()));
        }
    }
}
