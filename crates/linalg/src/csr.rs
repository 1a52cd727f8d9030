//! Compressed sparse row (CSR) matrices.

use crate::{DMatrix, DVector};

/// A sparse `f64` matrix in compressed-row form: for every row, the column
/// indices of its stored entries in ascending order and their values.
///
/// The products [`CsrMatrix::matvec`], [`CsrMatrix::matvec_transpose`] and
/// [`CsrMatrix::gram`] perform the same floating-point operations, in the
/// same order, as the dense products over the matrix whose other entries
/// are zero, minus the terms whose matrix entry is not stored. A skipped
/// term is `±0` added to an accumulator that starts at `+0`, so for finite
/// operands the results are bit-identical.
///
/// # Example
///
/// ```
/// use bbs_linalg::{CsrMatrix, DMatrix, DVector};
///
/// // [1 0 2]
/// // [0 3 0]
/// let a = CsrMatrix::from_parts(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0]);
/// let dense = DMatrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0]]);
/// let x = DVector::from_slice(&[1.0, 1.0, 1.0]);
/// assert_eq!(a.matvec(&x), dense.matvec(&x));
/// assert_eq!(a.row(0), &[1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CsrMatrix {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) row_ptr: Vec<usize>,
    pub(crate) col_idx: Vec<usize>,
    pub(crate) values: Vec<f64>,
}

impl CsrMatrix {
    /// Assembles a matrix from its compressed-row arrays: row `r` stores
    /// columns `col_idx[row_ptr[r]..row_ptr[r + 1]]` with the matching
    /// `values`.
    ///
    /// # Panics
    ///
    /// Panics if `row_ptr` does not have `rows + 1` non-decreasing entries
    /// starting at 0 and ending at `col_idx.len()`, if `values` and `col_idx`
    /// differ in length, or if a row's columns are not strictly ascending
    /// and below `cols`.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "csr: row_ptr length");
        assert_eq!(row_ptr[0], 0, "csr: row_ptr must start at 0");
        assert_eq!(row_ptr[rows], col_idx.len(), "csr: row_ptr end");
        assert_eq!(col_idx.len(), values.len(), "csr: values length");
        for r in 0..rows {
            assert!(row_ptr[r] <= row_ptr[r + 1], "csr: row_ptr decreases");
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            assert!(
                row.windows(2).all(|w| w[0] < w[1]) && row.iter().all(|&c| c < cols),
                "csr: row {r} columns must be ascending and in range"
            );
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The stored values of row `r`, in ascending column order.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.values[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// The column indices (ascending) and values of row `r`.
    pub fn row_entries(&self, r: usize) -> (&[usize], &[f64]) {
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// The stored values, row by row, for updating in place under a fixed
    /// pattern.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Maximum absolute stored entry; `0.0` when nothing is stored.
    pub fn norm_inf(&self) -> f64 {
        self.values.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Matrix–vector product `A x`, bit-identical to [`DMatrix::matvec`]
    /// over the dense matrix.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols()`.
    pub fn matvec(&self, x: &DVector) -> DVector {
        assert_eq!(x.len(), self.cols, "csr matvec: dimension mismatch");
        let mut out = DVector::zeros(self.rows);
        for r in 0..self.rows {
            let (cols, vals) = self.row_entries(r);
            let mut acc = 0.0;
            for (&c, a) in cols.iter().zip(vals) {
                acc += a * x[c];
            }
            out[r] = acc;
        }
        out
    }

    /// Transposed product `Aᵀ x`, bit-identical to
    /// [`DMatrix::matvec_transpose`] over the dense matrix.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != nrows()`.
    pub fn matvec_transpose(&self, x: &DVector) -> DVector {
        let mut out = DVector::zeros(self.cols);
        self.add_matvec_transpose(x.as_slice(), out.as_mut_slice());
        out
    }

    /// Accumulates `out += Aᵀ x` row by row, in the order of
    /// [`CsrMatrix::matvec_transpose`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != nrows()` or `out.len() != ncols()`.
    pub fn add_matvec_transpose(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "csr transpose: dimension mismatch");
        assert_eq!(out.len(), self.cols, "csr transpose: output mismatch");
        for (r, &xr) in x.iter().enumerate() {
            let (cols, vals) = self.row_entries(r);
            for (&c, a) in cols.iter().zip(vals) {
                out[c] += a * xr;
            }
        }
    }

    /// The dense `ncols × ncols` product `AᵀA`. For each row `k` in
    /// ascending order, every pair `(i, j)` of its stored columns adds
    /// `A[k,i]·A[k,j]` to entry `(i, j)`: the terms of the dense
    /// `Aᵀ·A`, in its order, minus those with an unstored factor.
    pub fn gram(&self) -> DMatrix {
        let mut out = DMatrix::zeros(self.cols, self.cols);
        for r in 0..self.rows {
            let (cols, vals) = self.row_entries(r);
            for (&i, a) in cols.iter().zip(vals) {
                let out_row = out.row_mut(i);
                for (&j, b) in cols.iter().zip(vals) {
                    out_row[j] += a * b;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn bits(v: &DVector) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn rows_read_back_their_stored_entries_in_order() {
        // [0 2 0]
        // [3 0 4]
        let a = CsrMatrix::from_parts(2, 3, vec![0, 1, 3], vec![1, 0, 2], vec![2.0, 3.0, 4.0]);
        assert_eq!((a.nrows(), a.ncols(), a.nnz()), (2, 3, 3));
        assert_eq!(a.row(0), &[2.0]);
        assert_eq!(a.row_entries(0), (&[1usize][..], &[2.0][..]));
        assert_eq!(a.row_entries(1), (&[0usize, 2][..], &[3.0, 4.0][..]));
        assert_eq!(a.norm_inf(), 4.0);
        assert_eq!(CsrMatrix::default().norm_inf(), 0.0);
    }

    #[test]
    fn values_update_in_place() {
        let mut a = CsrMatrix::from_parts(2, 2, vec![0, 1, 3], vec![0, 0, 1], vec![1.0, 2.0, 3.0]);
        a.values_mut()[2] = -5.0;
        assert_eq!(a.row_entries(1), (&[0usize, 1][..], &[2.0, -5.0][..]));
        let y = a.matvec(&DVector::from_slice(&[1.0, 1.0]));
        assert_eq!(y.as_slice(), &[1.0, -3.0]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn from_parts_rejects_unsorted_rows() {
        let _ = CsrMatrix::from_parts(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_wrong_size_panics() {
        let a = CsrMatrix::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]);
        let _ = a.matvec(&DVector::zeros(3));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_products_are_bit_identical_to_dense(seed in 0u64..10_000,
                                                     rows in 1usize..40,
                                                     cols in 1usize..40,
                                                     density in 0.02f64..0.6) {
            // The dense matrix also holds unstored `-0.0` entries.
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut dense = DMatrix::zeros(rows, cols);
            let (mut row_ptr, mut col_idx, mut values) = (vec![0], Vec::new(), Vec::new());
            for r in 0..rows {
                for c in 0..cols {
                    if rng.gen_range(0.0..1.0) < density {
                        dense[(r, c)] = rng.gen_range(-1e3..1e3);
                        col_idx.push(c);
                        values.push(dense[(r, c)]);
                    } else if rng.gen_range(0.0..1.0) < 0.1 {
                        dense[(r, c)] = -0.0;
                    }
                }
                row_ptr.push(col_idx.len());
            }
            let sparse = CsrMatrix::from_parts(rows, cols, row_ptr, col_idx, values);
            let x: DVector = (0..cols).map(|_| rng.gen_range(-1e2..1e2)).collect();
            let z: DVector = (0..rows).map(|_| rng.gen_range(-1e2..1e2)).collect();
            prop_assert_eq!(bits(&sparse.matvec(&x)), bits(&dense.matvec(&x)));
            prop_assert_eq!(
                bits(&sparse.matvec_transpose(&z)),
                bits(&dense.matvec_transpose(&z))
            );
            prop_assert_eq!(sparse.norm_inf().to_bits(), dense.norm_inf().to_bits());
            // The dense `AᵀA`: for each (i, k), skip a zero `A[k,i]`, else
            // add `A[k,i]·A[k,j]` to every `(i, j)`.
            let mut gram = DMatrix::zeros(cols, cols);
            for i in 0..cols {
                for k in 0..rows {
                    let aki = dense[(k, i)];
                    if aki != 0.0 {
                        for j in 0..cols {
                            gram[(i, j)] += aki * dense[(k, j)];
                        }
                    }
                }
            }
            let entries = |m: &DMatrix| -> Vec<u64> {
                (0..cols).flat_map(|i| m.row(i).iter().map(|v| v.to_bits())).collect()
            };
            prop_assert_eq!(entries(&sparse.gram()), entries(&gram));
        }
    }
}
