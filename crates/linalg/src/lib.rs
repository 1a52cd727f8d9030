//! Small, dependency-free linear algebra kernels.
//!
//! The conic interior-point solver in `bbs-conic` needs two kinds of
//! kernels:
//!
//! * dense vectors and matrices with a Cholesky factorisation, for vector
//!   arithmetic and the least-squares starting point;
//! * a compressed-row matrix ([`CsrMatrix`]) and a sparse LDLᵀ
//!   factorisation ([`SparseLdlt`]), for the quasi-definite KKT system
//!   factored in every iteration. Its symbolic analysis, including an exact
//!   minimum-degree order of the pattern, runs once; the numeric factor is
//!   recomputed in place.
//!
//! The order depends on the sparsity pattern alone, so a factorisation
//! rounds the same way on every machine and for every caller. The crate
//! keeps a deliberately small, well-tested surface instead of pulling in a
//! large external linear-algebra dependency.
//!
//! # Example
//!
//! ```
//! use bbs_linalg::{DMatrix, DVector, Cholesky};
//!
//! // Solve the SPD system A x = b.
//! let a = DMatrix::from_rows(&[
//!     &[4.0, 1.0],
//!     &[1.0, 3.0],
//! ]);
//! let b = DVector::from_slice(&[1.0, 2.0]);
//! let chol = Cholesky::factor(&a).expect("matrix is SPD");
//! let x = chol.solve(&b);
//! let r = &a.matvec(&x) - &b;
//! assert!(r.norm_inf() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cholesky;
mod csr;
mod matrix;
mod ordering;
mod sparse_ldlt;
mod triangular;
mod vector;

pub use cholesky::{Cholesky, CholeskyError};
pub use csr::CsrMatrix;
pub use matrix::DMatrix;
pub use sparse_ldlt::{LdltError, SparseLdlt};
pub use triangular::{solve_lower, solve_lower_transpose};
pub use vector::DVector;

/// Numerical tolerance helpers shared by the factorisations and their tests.
pub mod tol {
    /// Default pivot threshold below which a factorisation reports a
    /// non-positive-definite / singular matrix.
    pub const PIVOT_EPS: f64 = 1e-13;

    /// Returns `true` when two floating point numbers agree to within an
    /// absolute tolerance `atol` or a relative tolerance `rtol`.
    ///
    /// ```
    /// assert!(bbs_linalg::tol::approx_eq(1.0, 1.0 + 1e-12, 1e-9, 1e-9));
    /// assert!(!bbs_linalg::tol::approx_eq(1.0, 1.1, 1e-9, 1e-9));
    /// ```
    pub fn approx_eq(a: f64, b: f64, atol: f64, rtol: f64) -> bool {
        let diff = (a - b).abs();
        diff <= atol || diff <= rtol * a.abs().max(b.abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_example_roundtrip() {
        let a = DMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let b = DVector::from_slice(&[1.0, 2.0]);
        let chol = Cholesky::factor(&a).unwrap();
        let x = chol.solve(&b);
        let r = &a.matvec(&x) - &b;
        assert!(r.norm_inf() < 1e-12);
    }

    #[test]
    fn approx_eq_is_symmetric() {
        assert_eq!(
            tol::approx_eq(3.0, 3.0000001, 1e-3, 0.0),
            tol::approx_eq(3.0000001, 3.0, 1e-3, 0.0)
        );
    }
}
