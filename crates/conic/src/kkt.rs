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
//! exact one. [`SparseLdlt`] eliminates in the exact minimum-degree order of
//! the pattern, which depends on the pattern alone. The pattern is fixed per
//! problem: G's stored entries, one diagonal entry per orthant row, and a
//! dense lower triangle per second-order cone block of `W²`.
//! [`KktSystem::new`] builds it from the problem's own compressed-row G,
//! which the system borrows, and runs the symbolic analysis once;
//! [`KktSystem::factor`] rewrites the values and refactors in place.
//!
//! Three refinement steps always run. Near an infeasibility certificate the
//! system is so ill-conditioned that they can leave a residual large enough
//! to collapse the step length, so the solve keeps refining while the
//! residual is above [`REFINE_TOLERANCE`] and still falling, for at most
//! [`EXTRA_REFINE_STEPS`] more steps.

use crate::cone::{Cone, ConeBlock};
use crate::error::ConicError;
use crate::scaling::NtScaling;
use bbs_linalg::{CsrMatrix, DVector, SparseLdlt};

/// Refinement past the first three steps stops once
/// `‖K x − b‖∞ ≤ REFINE_TOLERANCE · (1 + ‖b‖∞)`.
const REFINE_TOLERANCE: f64 = 1e-10;

/// The most refinement steps taken after the first three.
const EXTRA_REFINE_STEPS: usize = 10;

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
    /// Refinement buffers, allocated once per system.
    buffers: Buffers,
}

/// The work vectors of [`KktSystem::solve`], one KKT dimension each.
#[derive(Debug, Default)]
struct Buffers {
    /// `b − K x` for the current solution.
    residual: Vec<f64>,
    /// A correction `K̃⁻¹ r`, then the trial solution it leads to.
    trial: Vec<f64>,
    /// `b − K x` for the trial solution.
    trial_residual: Vec<f64>,
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
                cols.extend_from_slice(g.row_entries(q).0);
                match block {
                    ConeBlock::NonNeg(_) => cols.push(n + q),
                    ConeBlock::Soc(_) => cols.extend((0..=a).map(|b| n + off + b)),
                }
                row_ptr.push(cols.len());
            }
        }
        let mut values = vec![0.0; cols.len()];
        for q in 0..m {
            let g_row = g.row(q);
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
            buffers: Buffers {
                residual: vec![0.0; dim],
                trial: vec![0.0; dim],
                trial_residual: vec![0.0; dim],
            },
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

    /// The residual `out = b − K v` of the exact (unregularised) system.
    /// `K v` sums, for `x` rows, `Gᵀ v_z`; for `z` row `q`, G's row against
    /// `v_x`, then row `q` of `−W²` against `v_z`.
    fn residual(&self, b: &[f64], v: &[f64], out: &mut [f64]) {
        let n = self.g.ncols();
        let (vx, vz) = v.split_at(n);
        let (out_x, out_z) = out.split_at_mut(n);
        out_x.fill(0.0);
        self.g.add_matvec_transpose(vz, out_x);
        let mut packed = 0;
        for (off, block) in self.cone.iter_offsets() {
            let nb = block.dim();
            for a in 0..nb {
                let q = off + a;
                let (cols, vals) = self.g.row_entries(q);
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
        for (r, &bi) in out.iter_mut().zip(b) {
            *r = bi - *r;
        }
    }

    /// Solves the exact KKT system with the regularised factor as a
    /// preconditioner: three steps of iterative refinement, then up to
    /// [`EXTRA_REFINE_STEPS`] more while `‖K x − b‖∞` exceeds
    /// [`REFINE_TOLERANCE`]` · (1 + ‖b‖∞)`. A further step is kept only if it
    /// lowers the residual, and the first that does not ends the solve.
    pub(crate) fn solve(&mut self, rhs: &DVector) -> DVector {
        let b = rhs.as_slice();
        let mut buffers = std::mem::take(&mut self.buffers);
        let Buffers {
            residual,
            trial,
            trial_residual,
        } = &mut buffers;
        let mut sol = rhs.clone();
        self.factor.solve_in_place(sol.as_mut_slice());
        for _ in 0..3 {
            self.residual(b, sol.as_slice(), residual);
            trial.copy_from_slice(residual);
            self.factor.solve_in_place(trial);
            for (x, c) in sol.iter_mut().zip(trial.iter()) {
                *x += c;
            }
        }
        let tolerance = REFINE_TOLERANCE * (1.0 + rhs.norm_inf());
        self.residual(b, sol.as_slice(), residual);
        let mut residual_norm = norm_inf(residual);
        for _ in 0..EXTRA_REFINE_STEPS {
            if residual_norm <= tolerance {
                break;
            }
            trial.copy_from_slice(residual);
            self.factor.solve_in_place(trial);
            for (c, x) in trial.iter_mut().zip(sol.iter()) {
                *c += x;
            }
            self.residual(b, trial, trial_residual);
            let trial_norm = norm_inf(trial_residual);
            if trial_norm.is_nan() || trial_norm >= residual_norm {
                break;
            }
            sol.as_mut_slice().copy_from_slice(trial);
            std::mem::swap(residual, trial_residual);
            residual_norm = trial_norm;
        }
        self.buffers = buffers;
        sol
    }
}

fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_linalg::DMatrix;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The dense KKT matrices, exact and shifted by `shift`, from the same
    /// packed `W²`.
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
        let mut shifted = exact.clone();
        for i in 0..n {
            shifted[(i, i)] += shift;
        }
        for i in 0..m {
            shifted[(n + i, n + i)] -= shift;
        }
        (exact, shifted)
    }

    /// `g`'s entries that are not `0.0`, in compressed rows.
    fn compressed(g: &DMatrix) -> CsrMatrix {
        let (mut row_ptr, mut cols, mut values) = (vec![0], Vec::new(), Vec::new());
        for r in 0..g.nrows() {
            for (c, &v) in g.row(r).iter().enumerate() {
                if v != 0.0 {
                    cols.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(cols.len());
        }
        CsrMatrix::from_parts(g.nrows(), g.ncols(), row_ptr, cols, values)
    }

    /// `‖K x − b‖∞ / (1 + ‖b‖∞)`.
    fn relative_residual(k: &DMatrix, x: &DVector, b: &DVector) -> f64 {
        (&k.matvec(x) - b).norm_inf() / (1.0 + b.norm_inf())
    }

    /// The scaling of the identity point in the cone: `W = I`.
    fn unit_scaling(cone: &Cone) -> NtScaling {
        NtScaling::compute(cone, &cone.identity(), &cone.identity()).unwrap()
    }

    #[test]
    fn refined_solves_meet_the_exact_system() {
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
            // A full column rank G makes the exact system nonsingular.
            for c in 0..n {
                g[(c, c)] = rng.gen_range(1.0..3.0);
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
            let sparse_g = compressed(&g);
            let mut kkt = KktSystem::new(&sparse_g, &cone, 1e-10);
            kkt.factor(&scaling, 0).unwrap();
            let (exact, _) = dense_kkt(&g, &cone, &kkt.w_squared, 0.0);
            for _ in 0..3 {
                let rhs: DVector = (0..n + m).map(|_| rng.gen_range(-5.0..5.0)).collect();
                let x = kkt.solve(&rhs);
                let error = relative_residual(&exact, &x, &rhs);
                assert!(error <= 1e-9, "seed {seed}: relative residual {error}");
            }
        }
    }

    #[test]
    fn a_zero_regularisation_takes_the_retry_shift() {
        // Without δ, an x that no constraint touches is an exact zero pivot
        // wherever the order puts it; the retry adds 1e-7·(1 + ‖K‖∞) to
        // both diagonals.
        let cone = Cone::new(vec![ConeBlock::NonNeg(2)]);
        let g = DMatrix::from_rows(&[&[1.0, 0.0], &[-2.0, 0.0]]);
        let s = DVector::from_slice(&[1.0, 4.0]);
        let z = DVector::from_slice(&[1.0, 1.0]);
        let scaling = NtScaling::compute(&cone, &s, &z).unwrap();
        let sparse_g = compressed(&g);
        let mut kkt = KktSystem::new(&sparse_g, &cone, 0.0);
        kkt.factor(&scaling, 3).unwrap();
        // W² = diag(4, 1) here, so ‖K‖∞ = 4.
        let bump = 1e-7 * (1.0 + 4.0_f64);
        let rhs = DVector::from_slice(&[1.0, 2.0, 3.0, -1.0]);
        let x = kkt.factor.solve(&rhs);
        assert_eq!(x[1], 2.0 / bump);
        let (_, shifted) = dense_kkt(&g, &cone, &kkt.w_squared, bump);
        assert!((&shifted.matvec(&x) - &rhs).norm_inf() <= 1e-15 * x.norm_inf());
        kkt.write_values(0.0);
        assert!(kkt.factor.factor(&kkt.lower).is_err());
    }

    #[test]
    fn the_refinement_tail_finishes_what_three_steps_leave() {
        // A heavy regularisation makes the factor a poor preconditioner:
        // each step cuts the residual by about δ/|λ_min(K)| ≈ 0.08, so
        // three steps leave it far above the tolerance.
        let cone = Cone::new(vec![ConeBlock::NonNeg(1)]);
        let g = DMatrix::from_rows(&[&[1.0]]);
        let sparse_g = compressed(&g);
        let mut kkt = KktSystem::new(&sparse_g, &cone, 0.025);
        kkt.factor(&unit_scaling(&cone), 0).unwrap();
        let (exact, _) = dense_kkt(&g, &cone, &kkt.w_squared, 0.0);
        let rhs = DVector::from_slice(&[1.0, -2.0]);
        let mut three_steps = kkt.factor.solve(&rhs);
        for _ in 0..3 {
            let residual = &rhs - &exact.matvec(&three_steps);
            three_steps += &kkt.factor.solve(&residual);
        }
        assert!(relative_residual(&exact, &three_steps, &rhs) > 1e-6);
        let x = kkt.solve(&rhs);
        assert!(relative_residual(&exact, &x, &rhs) <= REFINE_TOLERANCE);
    }
}
