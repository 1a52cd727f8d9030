//! The sparse augmented KKT system of the interior-point method.
//!
//! Every iteration solves
//!
//! ```text
//! [ 0   Gᵀ  ] [Δx]   [ r_x ]
//! [ G  −W²  ] [Δz] = [ r_z ]
//! ```
//!
//! by factoring the regularised quasi-definite matrix
//! `[ δI  Gᵀ ; G  −W² − δI ]` with a sparse LDLᵀ and refining against the
//! exact one. The unknowns stay in their natural order, `x` first and then
//! `z`, and [`SparseLdlt`] keeps the dense factorisation's operation order,
//! so every result is bit-identical to factoring the dense matrix with
//! [`bbs_linalg::Ldlt`]. The pattern is fixed per problem: G's nonzeros,
//! one diagonal entry per orthant row, and a dense lower triangle per
//! second-order cone block of `W²`. [`KktSystem::new`] builds it and the
//! symbolic analysis once; [`KktSystem::factor`] rewrites the values and
//! refactors in place.

use crate::cone::{Cone, ConeBlock};
use crate::error::ConicError;
use crate::scaling::NtScaling;
use bbs_linalg::{CsrMatrix, DVector, SparseLdlt};

/// Sparse quasi-definite KKT system for one conic problem.
#[derive(Debug)]
pub(crate) struct KktSystem<'a> {
    g: &'a CsrMatrix,
    cone: Cone,
    /// Lower triangle of the regularised KKT matrix, row by row: `x` rows
    /// hold their diagonal; `z` rows hold G's row, then their `W²` entries.
    lower: CsrMatrix,
    /// Position of every row's diagonal entry in `lower`'s values: the last
    /// entry of the row.
    diag: Vec<usize>,
    factor: SparseLdlt,
    /// `W²` packed block by block, see [`NtScaling::w_squared_blocks`].
    w_squared: Vec<f64>,
    /// Static regularisation `δ`.
    delta: f64,
}

impl<'a> KktSystem<'a> {
    /// Builds the KKT pattern for `g` and `cone` and analyses it.
    /// `regularization` is the `IpmSettings` value; `δ` scales it by
    /// `1 + ‖G‖∞`.
    pub(crate) fn new(g: &'a CsrMatrix, cone: &Cone, regularization: f64) -> Self {
        let (m, n) = (g.nrows(), g.ncols());
        let dim = n + m;
        let mut row_ptr = Vec::with_capacity(dim + 1);
        let mut cols = Vec::with_capacity(n + g.nnz() + m);
        row_ptr.push(0);
        for i in 0..n {
            cols.push(i);
            row_ptr.push(cols.len());
        }
        for (off, block) in cone.iter_offsets() {
            for a in 0..block.dim() {
                let q = off + a;
                cols.extend_from_slice(g.row(q).0);
                match block {
                    ConeBlock::NonNeg(_) => cols.push(n + q),
                    ConeBlock::Soc(_) => cols.extend((0..=a).map(|b| n + off + b)),
                }
                row_ptr.push(cols.len());
            }
        }
        let mut values = vec![0.0; cols.len()];
        for q in 0..m {
            let (_, g_row) = g.row(q);
            let start = row_ptr[n + q];
            values[start..start + g_row.len()].copy_from_slice(g_row);
        }
        let diag = row_ptr[1..].iter().map(|end| end - 1).collect();
        let lower = CsrMatrix::from_parts(dim, dim, row_ptr, cols, values);
        let factor = SparseLdlt::analyse(&lower);
        Self {
            delta: regularization * (1.0 + g.norm_inf()),
            g,
            cone: cone.clone(),
            lower,
            diag,
            factor,
            w_squared: Vec::new(),
        }
    }

    /// Factors the KKT matrix for `scaling`'s `W²`, regularised by `δ`; when
    /// that fails, retries once with the heavier `1e-7·(1 + ‖K‖∞)`, where
    /// `‖K‖∞` is the largest entry of G and `W²`.
    pub(crate) fn factor(
        &mut self,
        scaling: &NtScaling,
        iteration: usize,
    ) -> Result<(), ConicError> {
        scaling.w_squared_blocks(&mut self.w_squared);
        self.write_values(self.delta);
        if self.factor.factor(&self.lower).is_ok() {
            return Ok(());
        }
        let w_norm = self.w_squared.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        let bump = 1e-7 * (1.0 + self.g.norm_inf().max(w_norm));
        self.write_values(bump);
        self.factor
            .factor(&self.lower)
            .map_err(|_| ConicError::KktFactorisation { iteration })
    }

    /// Writes the diagonal shift `shift` and the current `W²` into the
    /// pattern: `0 + shift` on the `x` diagonal, `(−W²ᵣᵣ) − shift` on the
    /// `z` diagonal and `−W²` left of it. G's entries never change.
    fn write_values(&mut self, shift: f64) {
        let n = self.g.ncols();
        let (x_diag, z_diag) = self.diag.split_at(n);
        let values = self.lower.values_mut();
        for &p in x_diag {
            values[p] = 0.0 + shift;
        }
        let mut packed = 0;
        for (off, block) in self.cone.iter_offsets() {
            match block {
                ConeBlock::NonNeg(nb) => {
                    for (&p, w2) in z_diag[off..off + nb].iter().zip(&self.w_squared[packed..]) {
                        values[p] = (-w2) - shift;
                    }
                    packed += nb;
                }
                ConeBlock::Soc(nb) => {
                    for a in 0..nb {
                        let row = &self.w_squared[packed + a * nb..packed + a * nb + a + 1];
                        let p = z_diag[off + a];
                        let slots = &mut values[p - a..=p];
                        for (slot, w2) in slots.iter_mut().zip(row) {
                            *slot = -w2;
                        }
                        slots[a] = (-row[a]) - shift;
                    }
                    packed += nb * nb;
                }
            }
        }
    }

    /// The exact (unregularised) product `K v`, in the order of the dense
    /// `K.matvec(v)`: `x` rows sum `Gᵀ v_z`; `z` row `q` sums G's row
    /// against `v_x`, then row `q` of `−W²` against `v_z`.
    fn matvec(&self, v: &DVector) -> DVector {
        let n = self.g.ncols();
        let v = v.as_slice();
        let (vx, vz) = v.split_at(n);
        let mut out = DVector::zeros(v.len());
        let (out_x, out_z) = out.as_mut_slice().split_at_mut(n);
        self.g.add_matvec_transpose(vz, out_x);
        let mut packed = 0;
        for (off, block) in self.cone.iter_offsets() {
            let nb = block.dim();
            for a in 0..nb {
                let q = off + a;
                let (cols, vals) = self.g.row(q);
                let mut acc = 0.0;
                for (&c, g) in cols.iter().zip(vals) {
                    acc += g * vx[c];
                }
                match block {
                    ConeBlock::NonNeg(_) => acc += -self.w_squared[packed + a] * vz[q],
                    ConeBlock::Soc(_) => {
                        let row = &self.w_squared[packed + a * nb..packed + (a + 1) * nb];
                        for (w2, vb) in row.iter().zip(&vz[off..off + nb]) {
                            acc += -w2 * vb;
                        }
                    }
                }
                out_z[q] = acc;
            }
            packed += match block {
                ConeBlock::NonNeg(_) => nb,
                ConeBlock::Soc(_) => nb * nb,
            };
        }
        out
    }

    /// Solves the exact KKT system with the regularised factor as a
    /// preconditioner and three steps of iterative refinement.
    pub(crate) fn solve(&self, rhs: &DVector) -> DVector {
        let mut sol = self.factor.solve(rhs);
        for _ in 0..3 {
            let residual = rhs - &self.matvec(&sol);
            sol += &self.factor.solve(&residual);
        }
        sol
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_linalg::{DMatrix, Ldlt};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn bits(v: &DVector) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The dense KKT matrices the solver used to build, exact and
    /// regularised, from the same packed `W²`.
    fn dense_kkt(g: &DMatrix, cone: &Cone, w2: &[f64], shift: f64) -> (DMatrix, DMatrix) {
        let (m, n) = (g.nrows(), g.ncols());
        let mut w = DMatrix::zeros(m, m);
        let mut packed = 0;
        for (off, block) in cone.iter_offsets() {
            match block {
                ConeBlock::NonNeg(nb) => {
                    for i in 0..nb {
                        w[(off + i, off + i)] = w2[packed + i];
                    }
                    packed += nb;
                }
                ConeBlock::Soc(nb) => {
                    for i in 0..nb {
                        for j in 0..nb {
                            w[(off + i, off + j)] = w2[packed + i * nb + j];
                        }
                    }
                    packed += nb * nb;
                }
            }
        }
        let mut exact = DMatrix::zeros(n + m, n + m);
        for r in 0..m {
            for c in 0..n {
                exact[(n + r, c)] = g[(r, c)];
                exact[(c, n + r)] = g[(r, c)];
            }
            for c in 0..m {
                exact[(n + r, n + c)] = -w[(r, c)];
            }
        }
        let mut regularised = exact.clone();
        for i in 0..n {
            regularised[(i, i)] += shift;
        }
        for i in 0..m {
            regularised[(n + i, n + i)] -= shift;
        }
        (exact, regularised)
    }

    #[test]
    fn sparse_kkt_solves_bit_identically_to_the_dense_kkt() {
        let cone = Cone::new(vec![
            ConeBlock::NonNeg(7),
            ConeBlock::Soc(3),
            ConeBlock::Soc(4),
            ConeBlock::Soc(3),
        ]);
        let (m, n) = (cone.dim(), 6);
        for seed in 0..40u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut g = DMatrix::zeros(m, n);
            for r in 0..m {
                for c in 0..n {
                    if rng.gen_range(0.0..1.0) < 0.3 {
                        g[(r, c)] = rng.gen_range(-3.0..3.0);
                    }
                }
            }
            let mut s = cone.identity();
            let mut z = cone.identity();
            for i in 0..m {
                s[i] += rng.gen_range(0.0..0.4);
                z[i] += rng.gen_range(0.0..0.4);
            }
            for (off, block) in cone.iter_offsets() {
                if let ConeBlock::Soc(_) = block {
                    s[off] += 1.0;
                    z[off] += 2.0;
                }
            }
            let scaling = NtScaling::compute(&cone, &s, &z).unwrap();
            let sparse_g = CsrMatrix::from_dense(&g);
            let mut kkt = KktSystem::new(&sparse_g, &cone, 1e-10);
            kkt.factor(&scaling, 0).unwrap();
            let (exact, regularised) =
                dense_kkt(&g, &cone, &kkt.w_squared, 1e-10 * (1.0 + g.norm_inf()));
            let ldlt = Ldlt::factor(&regularised).unwrap();
            let rhs: DVector = (0..n + m).map(|_| rng.gen_range(-5.0..5.0)).collect();
            assert_eq!(bits(&kkt.matvec(&rhs)), bits(&exact.matvec(&rhs)));
            let mut sol = ldlt.solve(&rhs);
            for _ in 0..3 {
                let residual = &rhs - &exact.matvec(&sol);
                sol += &ldlt.solve(&residual);
            }
            assert_eq!(bits(&kkt.solve(&rhs)), bits(&sol), "seed {seed}");
        }
    }

    #[test]
    fn a_zero_regularisation_takes_the_retry_shift() {
        // Without δ the x diagonal is an exact zero pivot; the retry adds
        // 1e-7·(1 + ‖K‖∞) to both diagonals, as the dense path did.
        let cone = Cone::new(vec![ConeBlock::NonNeg(2)]);
        let g = DMatrix::from_rows(&[&[1.0], &[-2.0]]);
        let s = DVector::from_slice(&[1.0, 4.0]);
        let z = DVector::from_slice(&[1.0, 1.0]);
        let scaling = NtScaling::compute(&cone, &s, &z).unwrap();
        let sparse_g = CsrMatrix::from_dense(&g);
        let mut kkt = KktSystem::new(&sparse_g, &cone, 0.0);
        kkt.factor(&scaling, 3).unwrap();
        let bump = 1e-7 * (1.0 + 4.0_f64);
        let (_, regularised) = dense_kkt(&g, &cone, &kkt.w_squared, bump);
        assert!(Ldlt::factor(&dense_kkt(&g, &cone, &kkt.w_squared, 0.0).1).is_err());
        let ldlt = Ldlt::factor(&regularised).unwrap();
        let rhs = DVector::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(bits(&kkt.factor.solve(&rhs)), bits(&ldlt.solve(&rhs)));
    }
}
