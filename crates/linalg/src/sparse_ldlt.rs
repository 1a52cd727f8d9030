//! Sparse LDLᵀ factorisation in the natural elimination order.
//!
//! [`SparseLdlt`] factors the same symmetric quasi-definite matrices as
//! [`crate::Ldlt`] and yields the same bits. It computes exactly the dense
//! factorisation's floating-point operations, with every sum in the same
//! order and grouping, and leaves out only terms with a structurally zero
//! factor. Such a term is `±0`, so leaving it out changes at most the sign
//! of a zero. The elimination order is the given one: there is no
//! fill-reducing permutation, because a different order would round
//! differently.
//!
//! The symbolic analysis runs once per sparsity pattern: elimination tree,
//! row patterns of `L`, and a column index for the backward solve.
//! [`SparseLdlt::factor`] then recomputes the numeric factor in place, as
//! often as the values change, without allocating.

use crate::{CsrMatrix, DVector, LdltError};

const NONE: usize = usize::MAX;

/// Sparse unpivoted LDLᵀ factorisation `A = L D Lᵀ` with a symbolic
/// analysis that is computed once and reused by every numeric
/// factorisation of a matrix with the same pattern.
///
/// # Example
///
/// ```
/// use bbs_linalg::{CsrMatrix, DMatrix, DVector, Ldlt, SparseLdlt};
/// # fn main() -> Result<(), bbs_linalg::LdltError> {
/// let a = DMatrix::from_rows(&[&[ 2.0, 0.0,  1.0],
///                              &[ 0.0, 2.0,  1.0],
///                              &[ 1.0, 1.0, -3.0]]);
/// // The lower triangle, row by row, diagonal included.
/// let lower = CsrMatrix::from_parts(3, 3, vec![0, 1, 2, 5], vec![0, 1, 0, 1, 2],
///                                   vec![2.0, 2.0, 1.0, 1.0, -3.0]);
/// let mut f = SparseLdlt::analyse(&lower);
/// f.factor(&lower)?;
/// let b = DVector::from_slice(&[1.0, 2.0, 3.0]);
/// assert_eq!(f.solve(&b), Ldlt::factor(&a)?.solve(&b));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseLdlt {
    /// The analysed lower triangle's row offsets and columns: the pattern
    /// every [`SparseLdlt::factor`] call must match.
    a_row_ptr: Vec<usize>,
    a_col_idx: Vec<usize>,
    /// Strictly lower part of `L`, row by row with ascending columns.
    l: CsrMatrix,
    /// Column index of `L` for the backward solve: column `j` occupies
    /// `col_ptr[j]..col_ptr[j + 1]` of `col_rows` (its rows, ascending) and
    /// of `col_pos` (their positions in `l`'s values).
    col_ptr: Vec<usize>,
    col_rows: Vec<usize>,
    col_pos: Vec<usize>,
    d: Vec<f64>,
    /// Dense scatter row, all zeros between factorisations.
    work: Vec<f64>,
}

impl SparseLdlt {
    /// Symbolic analysis of a symmetric matrix given by its lower triangle
    /// (row `i` stores columns `≤ i`; the values are not read).
    ///
    /// # Panics
    ///
    /// Panics if `lower` is not square or stores an entry above the
    /// diagonal.
    pub fn analyse(lower: &CsrMatrix) -> Self {
        let n = lower.nrows();
        assert_eq!(n, lower.ncols(), "sparse ldlt: matrix not square");
        // Row i of L is the union of the elimination-tree paths from each
        // column j < i stored in row i of A up to i (Liu; Davis's LDL).
        let mut parent = vec![NONE; n];
        let mut mark = vec![NONE; n];
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        row_ptr.push(0);
        for i in 0..n {
            mark[i] = i;
            let start = col_idx.len();
            for &j in lower.row(i).0 {
                assert!(j <= i, "sparse ldlt: entry ({i}, {j}) above the diagonal");
                let mut k = j;
                while mark[k] != i {
                    if parent[k] == NONE {
                        parent[k] = i;
                    }
                    col_idx.push(k);
                    mark[k] = i;
                    k = parent[k];
                }
            }
            col_idx[start..].sort_unstable();
            row_ptr.push(col_idx.len());
        }
        let nnz = col_idx.len();

        let mut col_ptr = vec![0; n + 1];
        for &j in &col_idx {
            col_ptr[j + 1] += 1;
        }
        for j in 0..n {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut next = col_ptr.clone();
        let mut col_rows = vec![0; nnz];
        let mut col_pos = vec![0; nnz];
        for i in 0..n {
            for p in row_ptr[i]..row_ptr[i + 1] {
                let slot = &mut next[col_idx[p]];
                col_rows[*slot] = i;
                col_pos[*slot] = p;
                *slot += 1;
            }
        }

        Self {
            a_row_ptr: lower.row_ptr.clone(),
            a_col_idx: lower.col_idx.clone(),
            l: CsrMatrix {
                rows: n,
                cols: n,
                row_ptr,
                col_idx,
                values: vec![0.0; nnz],
            },
            col_rows,
            col_pos,
            col_ptr,
            d: vec![0.0; n],
            work: vec![0.0; n],
        }
    }

    /// Numerically factorises `a`, which must have the pattern given to
    /// [`SparseLdlt::analyse`], into the preallocated storage.
    ///
    /// Row by row, `l_ij = (a_ij − Σ_k (l_ik·l_jk)·d_k) / d_j` and
    /// `d_i = a_ii − Σ_k (l_ik·l_ik)·d_k`, with `k` ascending: the
    /// operations of [`crate::Ldlt::factor`].
    ///
    /// # Errors
    ///
    /// Returns [`LdltError::SingularPivot`] at the same column as
    /// [`crate::Ldlt::factor`] when a pivot magnitude drops below
    /// [`crate::tol::PIVOT_EPS`]; the factor is then invalid until the next
    /// successful call.
    ///
    /// # Panics
    ///
    /// Panics if `a`'s pattern differs from the analysed one.
    pub fn factor(&mut self, a: &CsrMatrix) -> Result<(), LdltError> {
        let n = self.dim();
        assert!(
            a.row_ptr == self.a_row_ptr && a.col_idx == self.a_col_idx,
            "sparse ldlt: pattern differs from the analysed one"
        );
        let (row_ptr, col_idx) = (&self.l.row_ptr, &self.l.col_idx);
        let (d, work) = (&mut self.d, &mut self.work);
        for i in 0..n {
            let mut aii = 0.0;
            let (a_cols, a_vals) = a.row(i);
            for (&j, &v) in a_cols.iter().zip(a_vals) {
                if j < i {
                    work[j] = v;
                } else {
                    aii = v;
                }
            }
            let span = row_ptr[i]..row_ptr[i + 1];
            let (done, rest) = self.l.values.split_at_mut(span.start);
            let row_vals = &mut rest[..span.len()];
            let row_cols = &col_idx[span];
            for (slot, &j) in row_vals.iter_mut().zip(row_cols) {
                // `work` holds l_ik for the k < j already done in this row
                // and 0 for every k outside the row's pattern. Those zero
                // terms are cheaper to compute than to skip: intersecting
                // the two rows' patterns costs a mispredicted branch.
                let row_j = row_ptr[j]..row_ptr[j + 1];
                let mut v = work[j];
                for (&k, &ljk) in col_idx[row_j.clone()].iter().zip(&done[row_j]) {
                    v -= work[k] * ljk * d[k];
                }
                let lij = v / d[j];
                work[j] = lij;
                *slot = lij;
            }
            let mut di = aii;
            for (&k, &lik) in row_cols.iter().zip(row_vals.iter()) {
                di -= lik * lik * d[k];
                work[k] = 0.0;
            }
            if di.abs() <= crate::tol::PIVOT_EPS {
                return Err(LdltError::SingularPivot { column: i });
            }
            d[i] = di;
        }
        Ok(())
    }

    /// The strictly lower part of the unit lower-triangular factor `L`.
    pub fn factor_l(&self) -> &CsrMatrix {
        &self.l
    }

    /// The diagonal factor `D`.
    pub fn factor_d(&self) -> &[f64] {
        &self.d
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.d.len()
    }

    /// Solves `A x = b` with the current factor, in the operation order of
    /// [`crate::Ldlt::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the factor dimension.
    pub fn solve(&self, b: &DVector) -> DVector {
        let n = self.dim();
        assert_eq!(b.len(), n, "sparse ldlt solve: dimension mismatch");
        let mut out = b.clone();
        let y = out.as_mut_slice();
        // Forward substitution with unit lower-triangular L, row by row.
        for i in 0..n {
            let (cols, vals) = self.l.row(i);
            let mut acc = y[i];
            for (&j, l) in cols.iter().zip(vals) {
                acc -= l * y[j];
            }
            y[i] = acc;
        }
        for (yi, di) in y.iter_mut().zip(&self.d) {
            *yi /= di;
        }
        // Backward substitution with Lᵀ, column by column.
        for i in (0..n).rev() {
            let span = self.col_ptr[i]..self.col_ptr[i + 1];
            let mut acc = y[i];
            for (&j, &p) in self.col_rows[span.clone()].iter().zip(&self.col_pos[span]) {
                acc -= self.l.values[p] * y[j];
            }
            y[i] = acc;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DMatrix, Ldlt};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The lower triangle of `a`: its diagonal and every other entry that is
    /// not `0.0`.
    fn lower_of(a: &DMatrix) -> CsrMatrix {
        let n = a.nrows();
        let (mut row_ptr, mut cols, mut vals) = (vec![0], Vec::new(), Vec::new());
        for i in 0..n {
            for j in 0..=i {
                if j == i || a[(i, j)] != 0.0 {
                    cols.push(j);
                    vals.push(a[(i, j)]);
                }
            }
            row_ptr.push(cols.len());
        }
        CsrMatrix::from_parts(n, n, row_ptr, cols, vals)
    }

    /// The interior-point KKT shape `[Dx, Gᵀ; G, −W]`: a positive x diagonal
    /// (sometimes as tiny as the solver's regularisation), and a negative
    /// definite `W` made of an orthant diagonal plus 3×3 and 4×4
    /// second-order-cone blocks, under a random-density `G`.
    fn kkt_like(
        rng: &mut SmallRng,
        n: usize,
        orthant: usize,
        socs: &[usize],
        density: f64,
    ) -> DMatrix {
        let m = orthant + socs.iter().sum::<usize>();
        let mut a = DMatrix::zeros(n + m, n + m);
        for i in 0..n {
            a[(i, i)] = if rng.gen_range(0.0..1.0) < 0.3 {
                1e-9
            } else {
                rng.gen_range(0.5..3.0)
            };
        }
        for r in 0..m {
            for c in 0..n {
                if rng.gen_range(0.0..1.0) < density {
                    let v = rng.gen_range(-2.0..2.0);
                    a[(n + r, c)] = v;
                    a[(c, n + r)] = v;
                }
            }
        }
        for q in 0..orthant {
            a[(n + q, n + q)] = -rng.gen_range(0.1..4.0);
        }
        let mut off = n + orthant;
        for &b in socs {
            // −(2 w wᵀ + I) scaled: symmetric negative definite.
            let w: Vec<f64> = (0..b).map(|_| rng.gen_range(-1.5..1.5)).collect();
            let eta = rng.gen_range(0.2..5.0);
            for i in 0..b {
                for j in 0..b {
                    let unit = if i == j { 1.0 } else { 0.0 };
                    a[(off + i, off + j)] = -(eta * (2.0 * w[i] * w[j] + unit));
                }
            }
            off += b;
        }
        a
    }

    fn assert_same_factor(sparse: &SparseLdlt, dense: &Ldlt) {
        let l = dense.factor_l();
        let n = sparse.dim();
        for i in 0..n {
            let (cols, vals) = sparse.factor_l().row(i);
            let mut p = 0;
            for j in 0..i {
                if p < cols.len() && cols[p] == j {
                    assert_eq!(vals[p].to_bits(), l[(i, j)].to_bits(), "L({i}, {j})");
                    p += 1;
                } else {
                    assert_eq!(l[(i, j)], 0.0, "L({i}, {j}) outside the pattern");
                }
            }
        }
        let d: Vec<u64> = sparse.factor_d().iter().map(|v| v.to_bits()).collect();
        let dd: Vec<u64> = dense.factor_d().iter().map(|v| v.to_bits()).collect();
        assert_eq!(d, dd, "D");
    }

    fn bits(v: &DVector) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn arrow_matrix_fills_in_and_matches_dense() {
        // The last row couples everything: no fill. The first row does:
        // eliminating it fills the whole trailing block.
        let a = DMatrix::from_rows(&[
            &[4.0, 1.0, 1.0, 1.0],
            &[1.0, 3.0, 0.0, 0.0],
            &[1.0, 0.0, 2.0, 0.0],
            &[1.0, 0.0, 0.0, -5.0],
        ]);
        let lower = lower_of(&a);
        let mut f = SparseLdlt::analyse(&lower);
        assert_eq!(f.factor_l().nnz(), 6);
        f.factor(&lower).unwrap();
        let dense = Ldlt::factor(&a).unwrap();
        assert_same_factor(&f, &dense);
        let b = DVector::from_slice(&[1.0, -2.0, 0.5, 3.0]);
        assert_eq!(bits(&f.solve(&b)), bits(&dense.solve(&b)));
    }

    #[test]
    fn singular_pivots_fail_at_the_dense_column() {
        let cases = [
            DMatrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]),
            // The unregularised KKT: a zero x diagonal fails at once.
            DMatrix::from_rows(&[&[0.0, 1.0], &[1.0, -1.0]]),
            // x diagonal 1, G rows (1, 1, 0) and (0, 1, 1): the first z
            // pivot is 2 − 1 − 1 = 0.
            DMatrix::from_rows(&[
                &[1.0, 0.0, 0.0, 1.0, 0.0],
                &[0.0, 1.0, 0.0, 1.0, 1.0],
                &[0.0, 0.0, 1.0, 0.0, 1.0],
                &[1.0, 1.0, 0.0, 2.0, 0.0],
                &[0.0, 1.0, 1.0, 0.0, -1.0],
            ]),
        ];
        for (case, a) in cases.iter().enumerate() {
            let expected = Ldlt::factor(a).unwrap_err();
            let lower = lower_of(a);
            let mut f = SparseLdlt::analyse(&lower);
            assert_eq!(f.factor(&lower), Err(expected), "case {case}");
        }
    }

    #[test]
    #[should_panic(expected = "above the diagonal")]
    fn analyse_rejects_upper_entries() {
        let upper = CsrMatrix::from_parts(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![1.0; 3]);
        let _ = SparseLdlt::analyse(&upper);
    }

    #[test]
    #[should_panic(expected = "pattern differs")]
    fn factor_rejects_another_pattern() {
        let diagonal = lower_of(&DMatrix::identity(2));
        let full = lower_of(&DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]));
        let _ = SparseLdlt::analyse(&diagonal).factor(&full);
    }

    #[test]
    fn empty_matrix_factors_and_solves() {
        let lower = CsrMatrix::from_parts(0, 0, vec![0], vec![], vec![]);
        let mut f = SparseLdlt::analyse(&lower);
        f.factor(&lower).unwrap();
        assert_eq!(f.solve(&DVector::zeros(0)).len(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn prop_factor_and_solve_are_bit_identical_to_dense(seed in 0u64..100_000,
                                                             n in 1usize..24,
                                                             orthant in 0usize..30,
                                                             soc3 in 0usize..4,
                                                             soc4 in 0usize..3,
                                                             density in 0.01f64..0.5) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut socs: Vec<usize> = (0..soc3).map(|_| 3).chain((0..soc4).map(|_| 4)).collect();
            // Interleave the block sizes deterministically per seed.
            if seed % 2 == 1 {
                socs.reverse();
            }
            let a = kkt_like(&mut rng, n, orthant, &socs, density);
            let lower = lower_of(&a);
            let mut f = SparseLdlt::analyse(&lower);
            match Ldlt::factor(&a) {
                Ok(dense) => {
                    f.factor(&lower).unwrap();
                    assert_same_factor(&f, &dense);
                    for _ in 0..3 {
                        let b: DVector = (0..a.nrows()).map(|_| rng.gen_range(-10.0..10.0)).collect();
                        prop_assert_eq!(bits(&f.solve(&b)), bits(&dense.solve(&b)));
                    }
                }
                Err(e) => prop_assert_eq!(f.factor(&lower), Err(e)),
            }
        }

        #[test]
        fn prop_singular_first_z_pivot_fails_at_the_same_column_then_refactors(
            seed in 0u64..100_000, n in 1usize..12, m in 1usize..12, density in 0.05f64..0.8) {
            // Integer G and a unit x diagonal make the first z pivot exact:
            // a_zz − Σ G² = 0 when a_zz counts G's first row.
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut a = kkt_like(&mut rng, n, m, &[], density);
            let mut first_row = 0.0;
            for c in 0..n {
                a[(c, c)] = 1.0;
                for r in 0..m {
                    let v = a[(n + r, c)];
                    if v != 0.0 {
                        let unit = if v > 0.0 { 1.0 } else { -1.0 };
                        a[(n + r, c)] = unit;
                        a[(c, n + r)] = unit;
                        if r == 0 {
                            first_row += 1.0;
                        }
                    }
                }
            }
            a[(n, n)] = first_row;
            let lower = lower_of(&a);
            let mut f = SparseLdlt::analyse(&lower);
            let expected = Ldlt::factor(&a).unwrap_err();
            prop_assert_eq!(expected, LdltError::SingularPivot { column: n });
            prop_assert_eq!(f.factor(&lower), Err(expected));
            // The retry path: the same pattern, refactored after a failure.
            a[(n, n)] = -1.0;
            let lower = lower_of(&a);
            let dense = Ldlt::factor(&a).unwrap();
            f.factor(&lower).unwrap();
            assert_same_factor(&f, &dense);
            let b: DVector = (0..n + m).map(|i| i as f64 - 2.5).collect();
            prop_assert_eq!(bits(&f.solve(&b)), bits(&dense.solve(&b)));
        }
    }
}
