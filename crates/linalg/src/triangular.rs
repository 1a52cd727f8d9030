//! Forward and backward substitution with triangular matrices, the two
//! halves of [`crate::Cholesky::solve`].

use crate::{DMatrix, DVector};

/// Solves `L x = b` where `L` is lower triangular (entries above the diagonal
/// are ignored).
///
/// # Panics
///
/// Panics if `L` is not square, if the dimensions do not match, or if a
/// diagonal entry is exactly zero.
pub(crate) fn solve_lower(l: &DMatrix, b: &DVector) -> DVector {
    let n = check_square(l, b);
    let mut x = DVector::zeros(n);
    for i in 0..n {
        let mut acc = b[i];
        let row = l.row(i);
        for (j, xv) in x.as_slice()[..i].iter().enumerate() {
            acc -= row[j] * xv;
        }
        let d = row[i];
        assert!(d != 0.0, "solve_lower: zero diagonal at {i}");
        x[i] = acc / d;
    }
    x
}

/// Solves `Lᵀ x = b` where `L` is lower triangular.
///
/// # Panics
///
/// Panics if `L` is not square, if the dimensions do not match, or if a
/// diagonal entry is exactly zero.
pub(crate) fn solve_lower_transpose(l: &DMatrix, b: &DVector) -> DVector {
    let n = check_square(l, b);
    let mut x = DVector::zeros(n);
    for i in (0..n).rev() {
        let mut acc = b[i];
        for j in (i + 1)..n {
            acc -= l[(j, i)] * x[j];
        }
        let d = l[(i, i)];
        assert!(d != 0.0, "solve_lower_transpose: zero diagonal at {i}");
        x[i] = acc / d;
    }
    x
}

fn check_square(m: &DMatrix, b: &DVector) -> usize {
    assert_eq!(m.nrows(), m.ncols(), "triangular solve: matrix not square");
    assert_eq!(m.nrows(), b.len(), "triangular solve: dimension mismatch");
    m.nrows()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower() -> DMatrix {
        DMatrix::from_rows(&[&[2.0, 0.0, 0.0], &[1.0, 3.0, 0.0], &[-1.0, 2.0, 4.0]])
    }

    #[test]
    fn lower_solve_roundtrip() {
        let l = lower();
        let x_true = DVector::from_slice(&[1.0, -2.0, 3.0]);
        let b = l.matvec(&x_true);
        let x = solve_lower(&l, &b);
        for i in 0..3 {
            assert!((x[i] - x_true[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn lower_transpose_solve_roundtrip() {
        let l = lower();
        let lt = DMatrix::from_rows(&[&[2.0, 1.0, -1.0], &[0.0, 3.0, 2.0], &[0.0, 0.0, 4.0]]);
        let x_true = DVector::from_slice(&[0.5, 1.5, -0.5]);
        let b = lt.matvec(&x_true);
        let x = solve_lower_transpose(&l, &b);
        for i in 0..3 {
            assert!((x[i] - x_true[i]).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "zero diagonal")]
    fn singular_lower_panics() {
        let l = DMatrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]);
        let _ = solve_lower(&l, &DVector::zeros(2));
    }

    #[test]
    #[should_panic(expected = "matrix not square")]
    fn non_square_panics() {
        let l = DMatrix::zeros(2, 3);
        let _ = solve_lower(&l, &DVector::zeros(2));
    }
}
