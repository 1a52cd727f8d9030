//! Small, dependency-free linear algebra kernels.
//!
//! The conic interior-point solver in `bbs-conic` needs three kinds of
//! kernels:
//!
//! * dense vectors ([`DVector`]) for the iterates and their arithmetic;
//! * a compressed-row matrix ([`CsrMatrix`]), the one form of the
//!   constraint matrix `G`: the lowering writes it, and every product with
//!   `G` reads it, including the dense `GᵀG` ([`CsrMatrix::gram`]) of the
//!   least-squares start, which a dense [`Cholesky`] factors;
//! * a sparse LDLᵀ factorisation ([`SparseLdlt`]) of the quasi-definite KKT
//!   system factored in every iteration. Its symbolic analysis, including
//!   an exact minimum-degree order of the pattern, runs once; the numeric
//!   factor is recomputed in place.
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
pub use vector::DVector;

/// Numerical tolerances shared by the factorisations.
pub mod tol {
    /// Default pivot threshold below which a factorisation reports a
    /// non-positive-definite / singular matrix.
    pub const PIVOT_EPS: f64 = 1e-13;
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
}
