//! Cholesky factorisation of symmetric positive definite matrices.

use crate::triangular::{solve_lower, solve_lower_transpose};
use crate::{DMatrix, DVector};
use std::error::Error;
use std::fmt;

/// Error returned when a matrix cannot be Cholesky-factorised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CholeskyError {
    /// The matrix is not square.
    NotSquare,
    /// A pivot was non-positive (matrix not positive definite), reporting the
    /// offending column.
    NotPositiveDefinite {
        /// Column index of the failing pivot.
        column: usize,
    },
}

impl fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CholeskyError::NotSquare => write!(f, "matrix is not square"),
            CholeskyError::NotPositiveDefinite { column } => {
                write!(f, "matrix is not positive definite (pivot {column})")
            }
        }
    }
}

impl Error for CholeskyError {}

/// Lower-triangular Cholesky factor `L` of an SPD matrix `A = L Lᵀ`.
///
/// # Example
///
/// ```
/// use bbs_linalg::{Cholesky, DMatrix, DVector};
/// # fn main() -> Result<(), bbs_linalg::CholeskyError> {
/// let a = DMatrix::from_rows(&[&[25.0, 15.0, -5.0],
///                              &[15.0, 18.0,  0.0],
///                              &[-5.0,  0.0, 11.0]]);
/// let chol = Cholesky::factor(&a)?;
/// let x = chol.solve(&DVector::from_slice(&[1.0, 2.0, 3.0]));
/// assert!((&a.matvec(&x) - &DVector::from_slice(&[1.0, 2.0, 3.0])).norm_inf() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    l: DMatrix,
}

impl Cholesky {
    /// Factorises a symmetric positive definite matrix.
    ///
    /// Only the lower triangle of `a` is read.
    ///
    /// # Errors
    ///
    /// Returns [`CholeskyError::NotSquare`] when `a` is not square and
    /// [`CholeskyError::NotPositiveDefinite`] when a pivot drops below the
    /// numerical threshold [`crate::tol::PIVOT_EPS`].
    pub fn factor(a: &DMatrix) -> Result<Self, CholeskyError> {
        if a.nrows() != a.ncols() {
            return Err(CholeskyError::NotSquare);
        }
        let n = a.nrows();
        let mut l = DMatrix::zeros(n, n);
        for j in 0..n {
            // Diagonal entry.
            let mut d = a[(j, j)];
            for k in 0..j {
                let ljk = l[(j, k)];
                d -= ljk * ljk;
            }
            if d <= crate::tol::PIVOT_EPS {
                return Err(CholeskyError::NotPositiveDefinite { column: j });
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            // Column below the diagonal.
            for i in (j + 1)..n {
                let mut v = a[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = v / dj;
            }
        }
        Ok(Self { l })
    }

    /// Solves `A x = b` using the stored factorisation.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the factor dimension.
    pub fn solve(&self, b: &DVector) -> DVector {
        let y = solve_lower(&self.l, b);
        solve_lower_transpose(&self.l, &y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// `M Mᵀ` for a square `M`.
    fn times_transpose(m: &DMatrix) -> DMatrix {
        let n = m.nrows();
        let data = (0..n * n)
            .map(|ij| {
                let (ri, rj) = (m.row(ij / n), m.row(ij % n));
                ri.iter().zip(rj).map(|(a, b)| a * b).sum()
            })
            .collect();
        DMatrix::from_row_major(n, n, data)
    }

    fn spd(n: usize, seed: u64) -> DMatrix {
        // Build A = B Bᵀ + n*I which is SPD by construction.
        let mut rng = SmallRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut a = times_transpose(&DMatrix::from_row_major(n, n, data));
        a.add_diagonal(n as f64);
        a
    }

    #[test]
    fn factor_solve_small() {
        let a = DMatrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let chol = Cholesky::factor(&a).unwrap();
        let b = DVector::from_slice(&[6.0, 5.0]);
        let x = chol.solve(&b);
        assert!((&a.matvec(&x) - &b).norm_inf() < 1e-12);
    }

    #[test]
    fn rejects_non_square() {
        let a = DMatrix::zeros(2, 3);
        assert_eq!(Cholesky::factor(&a), Err(CholeskyError::NotSquare));
    }

    #[test]
    fn rejects_indefinite() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        match Cholesky::factor(&a) {
            Err(CholeskyError::NotPositiveDefinite { column }) => assert_eq!(column, 1),
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn regularisation_recovers_singular() {
        let mut a = DMatrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert!(Cholesky::factor(&a).is_err());
        a.add_diagonal(1e-6);
        assert!(Cholesky::factor(&a).is_ok());
    }

    #[test]
    fn error_display_nonempty() {
        assert!(!CholeskyError::NotSquare.to_string().is_empty());
        assert!(CholeskyError::NotPositiveDefinite { column: 3 }
            .to_string()
            .contains('3'));
    }

    #[test]
    fn factor_l_is_lower_triangular() {
        let a = spd(5, 7);
        let l = Cholesky::factor(&a).unwrap().l;
        for i in 0..5 {
            for j in (i + 1)..5 {
                assert_eq!(l[(i, j)], 0.0);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_factor_reconstructs(seed in 0u64..500, n in 1usize..8) {
            let a = spd(n, seed);
            let reconstructed = times_transpose(&Cholesky::factor(&a).unwrap().l);
            prop_assert!((&reconstructed - &a).norm_inf() < 1e-8 * (1.0 + a.norm_inf()));
        }

        #[test]
        fn prop_solve_residual_small(seed in 0u64..500, n in 1usize..8) {
            let a = spd(n, seed);
            let chol = Cholesky::factor(&a).unwrap();
            let b = DVector::from_vec((0..n).map(|i| (i as f64) - 1.5).collect());
            let x = chol.solve(&b);
            prop_assert!((&a.matvec(&x) - &b).norm_inf() < 1e-8 * (1.0 + b.norm_inf()));
        }
    }
}
