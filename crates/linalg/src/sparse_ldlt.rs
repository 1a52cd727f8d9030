//! Sparse LDLᵀ factorisation in a fill-reducing order.
//!
//! [`SparseLdlt`] factors symmetric quasi-definite matrices, the class for
//! which an unpivoted LDLᵀ is numerically acceptable, as
//! `P A Pᵀ = L D Lᵀ`. The permutation `P` is the exact minimum-degree order
//! of A's pattern (see the `ordering` module). It depends on the pattern
//! alone, so every factorisation of one pattern rounds the same way on
//! every machine.
//!
//! [`SparseLdlt::analyse`] runs once per pattern. It computes the order, a
//! map from every stored entry of the caller's lower triangle to its slot
//! in the permuted one, the elimination tree, the row patterns of `L` and a
//! column index for the backward solve. [`SparseLdlt::factor`] then takes
//! the unpermuted lower triangle, scatters it through the map and
//! recomputes the numeric factor in place without allocating.
//! [`SparseLdlt::solve`] and [`SparseLdlt::solve_in_place`] permute in and
//! out, so callers never see the order.

use crate::ordering::minimum_degree;
use crate::{CsrMatrix, DVector};
use std::error::Error;
use std::fmt;

const NONE: usize = usize::MAX;

/// Error returned when [`SparseLdlt::factor`] meets a numerically zero
/// pivot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LdltError {
    /// A pivot's magnitude dropped below [`crate::tol::PIVOT_EPS`].
    SingularPivot {
        /// Row and column of the failing pivot in the unpermuted matrix.
        column: usize,
    },
}

impl fmt::Display for LdltError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LdltError::SingularPivot { column } => {
                write!(f, "matrix is numerically singular (pivot {column})")
            }
        }
    }
}

impl Error for LdltError {}

/// Sparse unpivoted LDLᵀ factorisation `P A Pᵀ = L D Lᵀ` in a
/// minimum-degree order, with a symbolic analysis that is computed once and
/// reused by every numeric factorisation of a matrix with the same pattern.
///
/// # Example
///
/// ```
/// use bbs_linalg::{CsrMatrix, DMatrix, DVector, SparseLdlt};
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
/// let x = f.solve(&b);
/// assert!((&a.matvec(&x) - &b).norm_inf() < 1e-14);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseLdlt {
    /// The analysed lower triangle's row offsets and columns: the pattern
    /// every [`SparseLdlt::factor`] call must match.
    a_row_ptr: Vec<usize>,
    a_col_idx: Vec<usize>,
    /// `perm[k]` is the row of `A` eliminated `k`-th.
    perm: Vec<usize>,
    /// Lower triangle of `P A Pᵀ`, its values rewritten by every factor.
    permuted: CsrMatrix,
    /// Slot in `permuted`'s values of every stored entry of `A`.
    scatter: Vec<usize>,
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
    /// The permuted right-hand side of [`SparseLdlt::solve_in_place`].
    permuted_rhs: Vec<f64>,
}

impl SparseLdlt {
    /// Symbolic analysis of a symmetric matrix given by its lower triangle
    /// (row `i` stores columns `≤ i`; the values are not read), in the
    /// exact minimum-degree order of its pattern.
    ///
    /// # Panics
    ///
    /// Panics if `lower` is not square or stores an entry above the
    /// diagonal.
    pub fn analyse(lower: &CsrMatrix) -> Self {
        let n = lower.nrows();
        assert_eq!(n, lower.ncols(), "sparse ldlt: matrix not square");
        for i in 0..n {
            if let Some(&j) = lower.row(i).0.last() {
                assert!(j <= i, "sparse ldlt: entry ({i}, {j}) above the diagonal");
            }
        }
        Self::with_order(lower, minimum_degree(lower))
    }

    /// Symbolic analysis in the elimination order `perm`.
    fn with_order(lower: &CsrMatrix, perm: Vec<usize>) -> Self {
        let n = lower.nrows();
        let nnz = lower.nnz();
        let mut position = vec![0; n];
        for (k, &v) in perm.iter().enumerate() {
            position[v] = k;
        }
        // Entry (i, j) of A lands at (max, min) of its two positions.
        let mut entries = Vec::with_capacity(nnz);
        for i in 0..n {
            for p in lower.row_ptr[i]..lower.row_ptr[i + 1] {
                let (a, b) = (position[i], position[lower.col_idx[p]]);
                entries.push((a.max(b), a.min(b), p));
            }
        }
        entries.sort_unstable();
        let mut c_row_ptr = vec![0; n + 1];
        let mut c_col_idx = Vec::with_capacity(nnz);
        let mut scatter = vec![0; nnz];
        for (slot, &(r, c, p)) in entries.iter().enumerate() {
            c_row_ptr[r + 1] += 1;
            c_col_idx.push(c);
            scatter[p] = slot;
        }
        for r in 0..n {
            c_row_ptr[r + 1] += c_row_ptr[r];
        }
        let permuted = CsrMatrix {
            rows: n,
            cols: n,
            row_ptr: c_row_ptr,
            col_idx: c_col_idx,
            values: vec![0.0; nnz],
        };

        // Row i of L is the union of the elimination-tree paths from each
        // column j < i stored in row i of P A Pᵀ up to i (Liu; Davis's LDL).
        let mut parent = vec![NONE; n];
        let mut mark = vec![NONE; n];
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for i in 0..n {
            mark[i] = i;
            let start = col_idx.len();
            for &j in permuted.row(i).0 {
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
        let l_nnz = col_idx.len();

        let mut col_ptr = vec![0; n + 1];
        for &j in &col_idx {
            col_ptr[j + 1] += 1;
        }
        for j in 0..n {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut next = col_ptr.clone();
        let mut col_rows = vec![0; l_nnz];
        let mut col_pos = vec![0; l_nnz];
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
            perm,
            permuted,
            scatter,
            l: CsrMatrix {
                rows: n,
                cols: n,
                row_ptr,
                col_idx,
                values: vec![0.0; l_nnz],
            },
            col_rows,
            col_pos,
            col_ptr,
            d: vec![0.0; n],
            work: vec![0.0; n],
            permuted_rhs: vec![0.0; n],
        }
    }

    /// Numerically factorises `a`, the unpermuted lower triangle with the
    /// pattern given to [`SparseLdlt::analyse`], into the preallocated
    /// storage.
    ///
    /// Row by row of `P A Pᵀ`, `l_ij = (a_ij − Σ_k (l_ik·l_jk)·d_k) / d_j`
    /// and `d_i = a_ii − Σ_k (l_ik·l_ik)·d_k`, with `k` ascending.
    ///
    /// # Errors
    ///
    /// Returns [`LdltError::SingularPivot`] when a pivot magnitude drops
    /// below [`crate::tol::PIVOT_EPS`]; the factor is then invalid until the
    /// next successful call.
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
        for (&slot, &v) in self.scatter.iter().zip(&a.values) {
            self.permuted.values[slot] = v;
        }
        let c = &self.permuted;
        let (row_ptr, col_idx) = (&self.l.row_ptr, &self.l.col_idx);
        let (d, work) = (&mut self.d, &mut self.work);
        for i in 0..n {
            let mut aii = 0.0;
            let (c_cols, c_vals) = c.row(i);
            for (&j, &v) in c_cols.iter().zip(c_vals) {
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
                return Err(LdltError::SingularPivot {
                    column: self.perm[i],
                });
            }
            d[i] = di;
        }
        Ok(())
    }

    /// The strictly lower part of the unit lower-triangular factor `L` of
    /// `P A Pᵀ`.
    pub fn factor_l(&self) -> &CsrMatrix {
        &self.l
    }

    /// The diagonal factor `D` of `P A Pᵀ`.
    pub fn factor_d(&self) -> &[f64] {
        &self.d
    }

    /// The elimination order: entry `k` is the row of `A` eliminated
    /// `k`-th, so row `k` of `P A Pᵀ` is row `permutation()[k]` of `A`.
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.d.len()
    }

    /// Solves `A x = b` with the current factor.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the factor dimension.
    pub fn solve(&mut self, b: &DVector) -> DVector {
        let mut x = b.clone();
        self.solve_in_place(x.as_mut_slice());
        x
    }

    /// Overwrites `x` with the solution of `A x = b`, where `x` holds `b` on
    /// entry, without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the factor dimension.
    pub fn solve_in_place(&mut self, x: &mut [f64]) {
        let n = self.dim();
        assert_eq!(x.len(), n, "sparse ldlt solve: dimension mismatch");
        let y = &mut self.permuted_rhs;
        for (yk, &v) in y.iter_mut().zip(&self.perm) {
            *yk = x[v];
        }
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
        for (&yk, &v) in y.iter().zip(&self.perm) {
            x[v] = yk;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DMatrix;
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

    fn is_permutation(order: &[usize]) -> bool {
        let mut seen = vec![false; order.len()];
        order
            .iter()
            .all(|&v| v < seen.len() && !std::mem::replace(&mut seen[v], true))
    }

    /// `|L| |D| |Lᵀ|`, the scale of the products that build each entry of
    /// `P A Pᵀ`; the backward error of the factor and of a solve is
    /// measured against it (Higham, ch. 10).
    fn product_scale(f: &SparseLdlt) -> DMatrix {
        let n = f.dim();
        let mut l = DMatrix::identity(n);
        for i in 0..n {
            let (cols, vals) = f.factor_l().row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                assert!(j < i, "L({i}, {j}) above the diagonal");
                l[(i, j)] = v.abs();
            }
        }
        let mut scale = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                scale[(i, j)] = (0..n)
                    .map(|k| l[(i, k)] * f.factor_d()[k].abs() * l[(j, k)])
                    .sum();
            }
        }
        scale
    }

    /// Checks `P A Pᵀ = L D Lᵀ` entry by entry, to 1e-12 relative to
    /// `scale`, the factor's [`product_scale`].
    fn assert_reconstructs(f: &SparseLdlt, a: &DMatrix, scale: &DMatrix) {
        let n = f.dim();
        let perm = f.permutation();
        assert!(is_permutation(perm));
        let l = |i: usize, k: usize| -> f64 {
            if i == k {
                return 1.0;
            }
            let (cols, vals) = f.factor_l().row(i);
            cols.iter().position(|&c| c == k).map_or(0.0, |p| vals[p])
        };
        for i in 0..n {
            for j in 0..=i {
                let sum: f64 = (0..=j).map(|k| l(i, k) * f.factor_d()[k] * l(j, k)).sum();
                let expected = a[(perm[i], perm[j])];
                assert!(
                    (sum - expected).abs() <= 1e-12 * scale[(i, j)],
                    "(PAPᵀ)({i}, {j}) = {expected}, LDLᵀ gives {sum}"
                );
            }
        }
    }

    /// The componentwise backward error of a solve, `|A x − b|` against
    /// `scale · |x| + |b|` (`scale` is the factor's [`product_scale`]),
    /// largest over the rows.
    fn backward_error(
        f: &SparseLdlt,
        scale: &DMatrix,
        a: &DMatrix,
        x: &DVector,
        b: &DVector,
    ) -> f64 {
        let perm = f.permutation();
        let residual = &a.matvec(x) - b;
        (0..f.dim())
            .map(|i| {
                let bound: f64 = (0..f.dim())
                    .map(|j| scale[(i, j)] * x[perm[j]].abs())
                    .sum::<f64>()
                    + b[perm[i]].abs();
                residual[perm[i]].abs() / bound.max(f64::MIN_POSITIVE)
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn arrow_matrix_fills_in_and_matches_dense() {
        // Row 0 couples everything. Eliminated first, as in the natural
        // order, it fills the whole trailing block; the minimum-degree
        // order takes the spokes first and adds no entry.
        let a = DMatrix::from_rows(&[
            &[4.0, 1.0, 1.0, 1.0],
            &[1.0, 3.0, 0.0, 0.0],
            &[1.0, 0.0, 2.0, 0.0],
            &[1.0, 0.0, 0.0, -5.0],
        ]);
        let lower = lower_of(&a);
        let natural = SparseLdlt::with_order(&lower, vec![0, 1, 2, 3]);
        assert_eq!(natural.factor_l().nnz(), 6);
        let mut f = SparseLdlt::analyse(&lower);
        assert_eq!(f.permutation(), &[1, 2, 0, 3]);
        assert_eq!(f.factor_l().nnz(), 3);
        f.factor(&lower).unwrap();
        let scale = product_scale(&f);
        assert_reconstructs(&f, &a, &scale);
        let b = DVector::from_slice(&[1.0, -2.0, 0.5, 3.0]);
        let x = f.solve(&b);
        assert!(backward_error(&f, &scale, &a, &x, &b) < 1e-15);
        let mut y = b.clone();
        f.solve_in_place(y.as_mut_slice());
        assert_eq!(x, y);
    }

    #[test]
    fn singular_pivots_fail_at_the_dense_column() {
        let cases = [
            (DMatrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]), 1),
            // The unregularised KKT: a zero x diagonal fails at once.
            (DMatrix::from_rows(&[&[0.0, 1.0], &[1.0, -1.0]]), 0),
            // Row 1 couples nothing, so it is eliminated first, and its
            // zero pivot fails before row 0's.
            (
                DMatrix::from_rows(&[&[2.0, 0.0, 1.0], &[0.0, 0.0, 0.0], &[1.0, 0.0, 3.0]]),
                1,
            ),
        ];
        // The reported column is the failing pivot's row and column in the
        // caller's (dense, unpermuted) matrix.
        for (case, (a, column)) in cases.iter().enumerate() {
            let lower = lower_of(a);
            let mut f = SparseLdlt::analyse(&lower);
            let expected = Err(LdltError::SingularPivot { column: *column });
            assert_eq!(f.factor(&lower), expected, "case {case}");
        }
        assert!(LdltError::SingularPivot { column: 1 }
            .to_string()
            .contains("pivot 1"));
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
        f.solve_in_place(&mut []);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn prop_factor_reconstructs_the_permuted_matrix_and_solves(
            seed in 0u64..100_000, n in 1usize..24, orthant in 0usize..30,
            soc3 in 0usize..4, soc4 in 0usize..3, density in 0.01f64..0.5) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut socs: Vec<usize> = (0..soc3).map(|_| 3).chain((0..soc4).map(|_| 4)).collect();
            // Interleave the block sizes deterministically per seed.
            if seed % 2 == 1 {
                socs.reverse();
            }
            let a = kkt_like(&mut rng, n, orthant, &socs, density);
            let lower = lower_of(&a);
            let mut f = SparseLdlt::analyse(&lower);
            let again = SparseLdlt::analyse(&lower);
            prop_assert_eq!(f.permutation(), again.permutation());
            // Quasi-definite: every symmetric order factors.
            f.factor(&lower).unwrap();
            let scale = product_scale(&f);
            assert_reconstructs(&f, &a, &scale);
            for _ in 0..3 {
                let b: DVector = (0..a.nrows()).map(|_| rng.gen_range(-10.0..10.0)).collect();
                let x = f.solve(&b);
                let error = backward_error(&f, &scale, &a, &x, &b);
                prop_assert!(error < 1e-12, "seed {}: backward error {}", seed, error);
            }
        }

        #[test]
        fn prop_a_failed_factor_leaves_no_trace_in_the_next(
            seed in 0u64..100_000, n in 2usize..12, m in 1usize..12, density in 0.05f64..0.8) {
            // Cut x variable `cut` off every constraint and zero its
            // diagonal: an isolated zero pivot. Then refactor the same
            // pattern with the diagonal restored.
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut a = kkt_like(&mut rng, n, m, &[], density);
            let cut = rng.gen_range(0..n);
            for r in 0..m {
                a[(n + r, cut)] = 0.0;
                a[(cut, n + r)] = 0.0;
            }
            a[(cut, cut)] = 0.0;
            let lower = lower_of(&a);
            let mut f = SparseLdlt::analyse(&lower);
            prop_assert_eq!(f.factor(&lower), Err(LdltError::SingularPivot { column: cut }));
            a[(cut, cut)] = 1.0;
            let lower = lower_of(&a);
            f.factor(&lower).unwrap();
            let mut fresh = SparseLdlt::analyse(&lower);
            fresh.factor(&lower).unwrap();
            prop_assert_eq!(&f, &fresh);
            assert_reconstructs(&f, &a, &product_scale(&f));
        }
    }
}
