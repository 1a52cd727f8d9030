//! Dense, row-major `f64` matrices.

use crate::DVector;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense row-major matrix of `f64` values.
///
/// The interior-point solver keeps `G` in compressed rows; its only dense
/// matrix is the `n × n` product `GᵀG` of the least-squares start, which
/// [`crate::Cholesky`] factors.
///
/// # Example
///
/// ```
/// use bbs_linalg::{DMatrix, DVector};
///
/// let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let x = DVector::from_slice(&[1.0, 1.0]);
/// assert_eq!(a.matvec(&x).as_slice(), &[3.0, 7.0]);
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct DMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "from_rows: inconsistent row length");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_row_major: size mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Returns `true` when the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow a row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow a row as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols()`.
    pub fn matvec(&self, x: &DVector) -> DVector {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        let mut out = DVector::zeros(self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            out[r] = acc;
        }
        out
    }

    /// Transposed matrix–vector product `Aᵀ x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != nrows()`.
    pub fn matvec_transpose(&self, x: &DVector) -> DVector {
        assert_eq!(x.len(), self.rows, "matvec_transpose: dimension mismatch");
        let mut out = DVector::zeros(self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            let xr = x[r];
            for (c, a) in row.iter().enumerate() {
                out[c] += a * xr;
            }
        }
        out
    }

    /// Adds `value` to every diagonal entry (used for regularisation).
    pub fn add_diagonal(&mut self, value: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += value;
        }
    }

    /// Maximum absolute entry; `0.0` for an empty matrix.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Entry-wise `f(self, other)` of two same-shaped matrices.
    fn zip_map(&self, other: &DMatrix, f: impl Fn(f64, f64) -> f64) -> DMatrix {
        assert_eq!(self.rows, other.rows, "matrix arithmetic: shape mismatch");
        assert_eq!(self.cols, other.cols, "matrix arithmetic: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Self::from_row_major(self.rows, self.cols, data)
    }
}

impl fmt::Debug for DMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for DMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.4}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl Index<(usize, usize)> for DMatrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for DMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &DMatrix {
    type Output = DMatrix;
    fn add(self, rhs: &DMatrix) -> DMatrix {
        self.zip_map(rhs, |a, b| a + b)
    }
}

impl Sub for &DMatrix {
    type Output = DMatrix;
    fn sub(self, rhs: &DMatrix) -> DMatrix {
        self.zip_map(rhs, |a, b| a - b)
    }
}

impl Mul<&DVector> for &DMatrix {
    type Output = DVector;
    fn mul(self, rhs: &DVector) -> DVector {
        self.matvec(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_matrix() -> DMatrix {
        DMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])
    }

    #[test]
    fn construction_and_indexing() {
        let m = small_matrix();
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert!(!m.is_empty());
        assert!(DMatrix::zeros(0, 0).is_empty());
    }

    #[test]
    fn identity_and_diagonal() {
        let i = DMatrix::identity(3);
        let x = DVector::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(i.matvec(&x).as_slice(), x.as_slice());
        let d = DMatrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 2.0, 0.0], &[0.0, 0.0, 3.0]]);
        assert_eq!(d.matvec(&x).as_slice(), &[1.0, 4.0, 9.0]);
    }

    #[test]
    fn matvec_and_transpose() {
        let m = small_matrix();
        let x = DVector::from_slice(&[1.0, 0.0, -1.0]);
        assert_eq!(m.matvec(&x).as_slice(), &[-2.0, -2.0]);
        let y = DVector::from_slice(&[1.0, 1.0]);
        assert_eq!(m.matvec_transpose(&y).as_slice(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn add_sub_and_norms() {
        let a = DMatrix::identity(2);
        let b = DMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let c = &a + &b;
        assert_eq!(c.row(0), &[1.0, 1.0]);
        let d = &c - &b;
        assert_eq!(d, a);
        assert_eq!(b.norm_inf(), 1.0);
    }

    #[test]
    fn regularisation_and_checks() {
        let mut a = DMatrix::identity(2);
        a.add_diagonal(0.5);
        assert_eq!(a[(0, 0)], 1.5);
        assert_eq!(a[(1, 1)], 1.5);
        assert_eq!(a[(1, 0)], 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_wrong_size_panics() {
        let m = small_matrix();
        let _ = m.matvec(&DVector::zeros(2));
    }

    #[test]
    fn debug_and_display_nonempty() {
        let m = DMatrix::identity(1);
        assert!(format!("{m:?}").contains("DMatrix"));
        assert!(!format!("{m}").is_empty());
    }

    proptest! {
        #[test]
        fn prop_matvec_linearity(vals in proptest::collection::vec(-10.0f64..10.0, 12),
                                 alpha in -5.0f64..5.0) {
            let a = DMatrix::from_row_major(3, 4, vals);
            let x = DVector::from_slice(&[1.0, -2.0, 0.5, 3.0]);
            let y = DVector::from_slice(&[0.1, 0.2, 0.3, 0.4]);
            let mut xs = x.clone();
            xs.axpy(alpha, &y);
            let lhs = a.matvec(&xs);
            let mut rhs = a.matvec(&x);
            rhs.axpy(alpha, &a.matvec(&y));
            for i in 0..3 {
                prop_assert!((lhs[i] - rhs[i]).abs() < 1e-8);
            }
        }

        #[test]
        fn prop_matvec_transpose_adjoint(vals in proptest::collection::vec(-10.0f64..10.0, 12)) {
            // <A x, y> == <x, Aᵀ y>
            let a = DMatrix::from_row_major(3, 4, vals);
            let x = DVector::from_slice(&[1.0, 2.0, 3.0, 4.0]);
            let y = DVector::from_slice(&[-1.0, 0.5, 2.0]);
            let lhs = a.matvec(&x).dot(&y);
            let rhs = x.dot(&a.matvec_transpose(&y));
            prop_assert!((lhs - rhs).abs() < 1e-8);
        }
    }
}
