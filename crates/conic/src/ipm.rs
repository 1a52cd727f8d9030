//! Primal–dual interior-point method for linear and second-order cone
//! programs in standard form.
//!
//! The implementation follows the classic Nesterov–Todd scaled
//! path-following scheme with a Mehrotra predictor–corrector, as popularised
//! by CVXOPT and ECOS, specialised to problems without equality
//! constraints:
//!
//! ```text
//! minimise    cᵀx
//! subject to  G x + s = h,   s ∈ K,
//! ```
//!
//! with `K` a product of a nonnegative orthant and second-order cones. Every
//! iteration solves the augmented KKT system
//!
//! ```text
//! [ 0   Gᵀ  ] [Δx]   [ r_x ]
//! [ G  −W²  ] [Δz] = [ r_z ]
//! ```
//!
//! twice (predictor and corrector), never the normal equations
//! `Gᵀ W⁻² G Δx = r`, which would square the condition number of the scaled
//! constraint matrix. The system is sparse: G's nonzeros, a diagonal for
//! the orthant part of `W²` and one small dense block per second-order
//! cone. It is regularised to the quasi-definite `[ δI  Gᵀ ; G  −W² − δI ]`,
//! factored by a sparse LDLᵀ whose symbolic analysis is computed once per
//! solve, and refined against the exact system (see the `kkt` module).
//!
//! G arrives in the compressed rows the lowering wrote, and every product
//! reads that one copy: the residuals, the KKT pattern and the
//! least-squares start, which forms the dense `GᵀG` from G's rows and
//! factors it by a dense Cholesky.
//!
//! The factor eliminates in the exact minimum-degree order of the KKT
//! pattern. The order depends on the pattern alone, so a solve rounds the
//! same way on every machine; a change to the order or to the refinement
//! changes raw results and is a new [`crate::SOLVER_REVISION`].

use crate::cone::Cone;
use crate::error::{ConicError, SolveStatus};
use crate::kkt::KktSystem;
use crate::problem::ConeProblem;
use crate::scaling::NtScaling;
use bbs_linalg::{Cholesky, DVector};
use serde::{Deserialize, Serialize};

/// Tunable parameters of the interior-point method.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IpmSettings {
    /// Maximum number of iterations before giving up.
    pub max_iterations: usize,
    /// Feasibility tolerance for the (relative) primal and dual residuals.
    pub tol_feasibility: f64,
    /// Absolute complementarity-gap tolerance.
    pub tol_gap_absolute: f64,
    /// Relative duality-gap tolerance.
    pub tol_gap_relative: f64,
    /// Threshold for declaring primal/dual infeasibility from the
    /// (normalised) certificate residuals.
    pub tol_infeasibility: f64,
    /// Static regularisation of the KKT system. Scaled by `1 + ‖G‖∞` it is
    /// the `δ` added to the `x` diagonal and subtracted from the `z`
    /// diagonal of the augmented matrix `[ δI  Gᵀ ; G  −W² − δI ]`, which
    /// makes it quasi-definite and so factorable by LDLᵀ without pivoting.
    /// Floored at `1e-12` and scaled by `1 + ‖GᵀG‖∞`, it also regularises
    /// the least-squares starting point.
    pub regularization: f64,
    /// Fraction of the maximum step to the cone boundary actually taken.
    pub step_fraction: f64,
}

impl Default for IpmSettings {
    fn default() -> Self {
        Self {
            max_iterations: 100,
            tol_feasibility: 1e-8,
            tol_gap_absolute: 1e-8,
            tol_gap_relative: 1e-8,
            tol_infeasibility: 1e-5,
            regularization: 1e-10,
            step_fraction: 0.99,
        }
    }
}

impl IpmSettings {
    /// Settings with loose tolerances, useful for warm exploratory sweeps.
    pub fn fast() -> Self {
        Self {
            max_iterations: 60,
            tol_feasibility: 1e-6,
            tol_gap_absolute: 1e-6,
            tol_gap_relative: 1e-6,
            ..Self::default()
        }
    }
}

/// Raw output of [`solve_cone_problem`].
#[derive(Debug, Clone)]
pub struct RawSolution {
    /// Primal variables `x`.
    pub x: DVector,
    /// Primal slacks `s ∈ K`.
    pub s: DVector,
    /// Dual variables `z ∈ K`.
    pub z: DVector,
    /// Termination status.
    pub status: SolveStatus,
    /// Iterations performed.
    pub iterations: usize,
    /// Primal objective `cᵀx`.
    pub primal_objective: f64,
    /// Dual objective `−hᵀz`.
    pub dual_objective: f64,
    /// Final normalised complementarity gap.
    pub gap: f64,
    /// Final relative primal residual.
    pub primal_residual: f64,
    /// Final relative dual residual.
    pub dual_residual: f64,
}

impl RawSolution {
    /// Returns `true` when the solver reached the requested tolerances.
    pub fn is_optimal(&self) -> bool {
        self.status.is_optimal()
    }
}

/// Solves a conic problem in standard form with the interior-point method.
///
/// # Errors
///
/// Returns [`ConicError`] when the problem data is inconsistent, when the
/// KKT systems cannot be factorised, or when the iterates break down
/// numerically. Infeasibility is *not* an error: it is reported through
/// [`SolveStatus::PrimalInfeasible`] / [`SolveStatus::DualInfeasible`].
pub fn solve_cone_problem(
    problem: &ConeProblem,
    settings: &IpmSettings,
) -> Result<RawSolution, ConicError> {
    problem.validate()?;
    let cone = &problem.cone;
    let (m, n) = (problem.g.nrows(), problem.g.ncols());

    if m == 0 {
        // No constraints: optimal iff c = 0, otherwise unbounded below.
        if problem.c.norm_inf() == 0.0 {
            return Ok(RawSolution {
                x: DVector::zeros(n),
                s: DVector::zeros(0),
                z: DVector::zeros(0),
                status: SolveStatus::Optimal,
                iterations: 0,
                primal_objective: 0.0,
                dual_objective: 0.0,
                gap: 0.0,
                primal_residual: 0.0,
                dual_residual: 0.0,
            });
        }
        return Err(ConicError::Unbounded);
    }

    let h = &problem.h;
    let c = &problem.c;
    let degree = cone.degree().max(1) as f64;
    let e = cone.identity();
    let g = &problem.g;
    let mut kkt = KktSystem::new(g, cone, settings.regularization);

    // --- Initialisation (CVXOPT-style least-squares start) -----------------
    let mut x;
    let mut s;
    let mut z;
    {
        let mut gtg = g.gram();
        let reg = settings.regularization.max(1e-12) * (1.0 + gtg.norm_inf());
        gtg.add_diagonal(reg);
        let chol =
            Cholesky::factor(&gtg).map_err(|_| ConicError::KktFactorisation { iteration: 0 })?;
        // Primal: x ≈ argmin ‖Gx − h‖, s = h − Gx shifted into the cone.
        x = chol.solve(&g.matvec_transpose(h));
        let s_cand = h - &g.matvec(&x);
        s = shift_into_cone(cone, s_cand, &e);
        // Dual: z = −G (GᵀG)⁻¹ c satisfies Gᵀz + c ≈ 0, then shift into cone.
        let w = chol.solve(c);
        let z_cand = -&g.matvec(&w);
        z = shift_into_cone(cone, z_cand, &e);
    }

    let h_norm = h.norm2().max(1.0);
    let c_norm = c.norm2().max(1.0);
    let mut best_status = SolveStatus::MaxIterations;
    let mut iterations_done = settings.max_iterations;

    for iteration in 0..settings.max_iterations {
        // Residuals.
        let rx = &g.matvec_transpose(&z) + c; // dual residual
        let rz = &(&g.matvec(&x) + &s) - h; // primal residual
        let gap = s.dot(&z) / degree;
        let pobj = c.dot(&x);
        let dobj = -h.dot(&z);
        let pres = rz.norm2() / h_norm;
        let dres = rx.norm2() / c_norm;
        let relgap = (pobj - dobj).abs() / pobj.abs().max(dobj.abs()).max(1.0);

        if pres <= settings.tol_feasibility
            && dres <= settings.tol_feasibility
            && (gap <= settings.tol_gap_absolute || relgap <= settings.tol_gap_relative)
        {
            best_status = SolveStatus::Optimal;
            iterations_done = iteration;
            break;
        }

        // Infeasibility certificates (normalised).
        let hz = h.dot(&z);
        if hz < -1e-12 {
            let cert = g.matvec_transpose(&z).norm2() / (-hz);
            if cert <= settings.tol_infeasibility && cone.contains(&z, 1e-9) {
                best_status = SolveStatus::PrimalInfeasible;
                iterations_done = iteration;
                break;
            }
        }
        let cx = c.dot(&x);
        if cx < -1e-12 {
            let cert = (&g.matvec(&x) + &s).norm2() / (-cx);
            if cert <= settings.tol_infeasibility && cone.contains(&s, 1e-9) {
                best_status = SolveStatus::DualInfeasible;
                iterations_done = iteration;
                break;
            }
        }

        // Nesterov–Todd scaling. Near the solution the slacks approach the
        // cone boundary and the scaling may become uncomputable in floating
        // point; in that case stop with the best status supported by the
        // current residuals instead of failing hard.
        let scaling = match NtScaling::compute(cone, &s, &z) {
            Some(w) => w,
            None => {
                let loose = 1e3;
                best_status = if pres <= loose * settings.tol_feasibility
                    && dres <= loose * settings.tol_feasibility
                    && (gap <= loose * settings.tol_gap_absolute
                        || relgap <= loose * settings.tol_gap_relative)
                {
                    SolveStatus::Optimal
                } else {
                    SolveStatus::MaxIterations
                };
                iterations_done = iteration;
                break;
            }
        };
        let lambda = scaling.lambda(&z);

        // Factor the sparse quasi-definite KKT matrix for this scaling.
        kkt.factor(&scaling, iteration)?;
        let mut direction =
            |bs: &DVector, rx: &DVector, rz: &DVector| -> (DVector, DVector, DVector) {
                // [ 0  Gᵀ ] [Δx]   [ −rx        ]
                // [ G −W² ] [Δz] = [ −rz − W bs ]
                let w_bs = scaling.apply(bs);
                let mut rhs = DVector::zeros(n + m);
                for i in 0..n {
                    rhs[i] = -rx[i];
                }
                for i in 0..m {
                    rhs[n + i] = -rz[i] - w_bs[i];
                }
                let sol = kkt.solve(&rhs);
                let dx = DVector::from_vec(sol.as_slice()[..n].to_vec());
                let dz = DVector::from_vec(sol.as_slice()[n..].to_vec());
                // Δs = −rz − G Δx  (exactly satisfies the primal equation)
                let ds = -&(&g.matvec(&dx) + rz);
                (dx, ds, dz)
            };

        // Predictor (affine-scaling) direction: bs = λ \ (−λ∘λ) = −λ.
        let bs_aff = -&lambda;
        let (_dx_aff, ds_aff, dz_aff) = direction(&bs_aff, &rx, &rz);
        let alpha_aff = cone
            .max_step(&s, &ds_aff, 1.0)
            .min(cone.max_step(&z, &dz_aff, 1.0))
            .min(1.0);
        let mut s_aff = s.clone();
        s_aff.axpy(alpha_aff, &ds_aff);
        let mut z_aff = z.clone();
        z_aff.axpy(alpha_aff, &dz_aff);
        let gap_aff = s_aff.dot(&z_aff) / degree;
        let sigma = if gap > 0.0 {
            (gap_aff / gap).clamp(0.0, 1.0).powi(3)
        } else {
            0.0
        };

        // Corrector (combined) direction.
        let ds_scaled = scaling.apply_inverse(&ds_aff);
        let dz_scaled = scaling.apply(&dz_aff);
        let correction = cone.jordan_product(&ds_scaled, &dz_scaled);
        let mut rhs_comp = -&cone.jordan_product(&lambda, &lambda);
        rhs_comp -= &correction;
        rhs_comp.axpy(sigma * gap, &e);
        let bs = cone.jordan_solve(&lambda, &rhs_comp);
        let (dx, ds, dz) = direction(&bs, &rx, &rz);

        let alpha = (settings.step_fraction
            * cone
                .max_step(&s, &ds, f64::INFINITY)
                .min(cone.max_step(&z, &dz, f64::INFINITY)))
        .min(1.0);

        if !dx.is_finite() || !ds.is_finite() || !dz.is_finite() || alpha <= 0.0 {
            return Err(ConicError::NumericalBreakdown {
                iteration,
                detail: "non-finite search direction or zero step".to_string(),
            });
        }

        x.axpy(alpha, &dx);
        s.axpy(alpha, &ds);
        z.axpy(alpha, &dz);
    }

    let rx = &g.matvec_transpose(&z) + c;
    let rz = &(&g.matvec(&x) + &s) - h;
    Ok(RawSolution {
        primal_objective: c.dot(&x),
        dual_objective: -h.dot(&z),
        gap: s.dot(&z) / degree,
        primal_residual: rz.norm2() / h_norm,
        dual_residual: rx.norm2() / c_norm,
        x,
        s,
        z,
        status: best_status,
        iterations: iterations_done,
    })
}

/// Shifts a candidate point into the cone interior: if the margin is not
/// comfortably positive, add `(1 + violation) · e`.
fn shift_into_cone(cone: &Cone, candidate: DVector, e: &DVector) -> DVector {
    let margin = cone.margin(&candidate);
    if margin > 1e-6 {
        candidate
    } else {
        let mut shifted = candidate;
        shifted.axpy(1.0 - margin, e);
        shifted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LinExpr, ModelBuilder};
    use crate::{Cone, ConeBlock};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn default_settings() -> IpmSettings {
        IpmSettings::default()
    }

    #[test]
    fn simple_lp_box_constrained() {
        // min x + 2y  s.t. 1 ≤ x ≤ 4, 2 ≤ y ≤ 5  → x=1, y=2.
        let mut m = ModelBuilder::new();
        let x = m.add_var_with_cost("x", 1.0);
        let y = m.add_var_with_cost("y", 2.0);
        m.bound_lower(x, 1.0);
        m.bound_upper(x, 4.0);
        m.bound_lower(y, 2.0);
        m.bound_upper(y, 5.0);
        let sol = m.build().unwrap().solve(&default_settings()).unwrap();
        assert!(sol.status().is_optimal());
        assert!((sol.value(x) - 1.0).abs() < 1e-6);
        assert!((sol.value(y) - 2.0).abs() < 1e-6);
        assert!((sol.objective() - 5.0).abs() < 1e-5);
    }

    #[test]
    fn lp_with_coupling_constraint() {
        // max x + y s.t. x + 2y ≤ 4, x ≤ 2, x,y ≥ 0  (as minimisation of the
        // negative) → x = 2, y = 1.
        let mut m = ModelBuilder::new();
        let x = m.add_var_with_cost("x", -1.0);
        let y = m.add_var_with_cost("y", -1.0);
        m.bound_lower(x, 0.0);
        m.bound_lower(y, 0.0);
        m.bound_upper(x, 2.0);
        m.add_le(LinExpr::term(1.0, x).plus(2.0, y), 4.0);
        let sol = m.build().unwrap().solve(&default_settings()).unwrap();
        assert!(sol.status().is_optimal());
        assert!((sol.value(x) - 2.0).abs() < 1e-6);
        assert!((sol.value(y) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn hyperbolic_constraint_am_gm() {
        // min x + y s.t. x·y ≥ 9 → x = y = 3.
        let mut m = ModelBuilder::new();
        let x = m.add_var_with_cost("x", 1.0);
        let y = m.add_var_with_cost("y", 1.0);
        m.bound_lower(x, 1e-6);
        m.bound_lower(y, 1e-6);
        m.add_hyperbolic(x, y, 9.0);
        let sol = m.build().unwrap().solve(&default_settings()).unwrap();
        assert!(sol.status().is_optimal());
        assert!((sol.value(x) - 3.0).abs() < 1e-4);
        assert!((sol.value(y) - 3.0).abs() < 1e-4);
    }

    #[test]
    fn hyperbolic_with_upper_bound() {
        // min x s.t. x·y ≥ 8, y ≤ 2 → y = 2, x = 4.
        let mut m = ModelBuilder::new();
        let x = m.add_var_with_cost("x", 1.0);
        let y = m.add_var("y");
        m.bound_lower(x, 1e-6);
        m.bound_lower(y, 1e-6);
        m.bound_upper(y, 2.0);
        m.add_hyperbolic(x, y, 8.0);
        let sol = m.build().unwrap().solve(&default_settings()).unwrap();
        assert!(sol.status().is_optimal());
        assert!((sol.value(x) - 4.0).abs() < 1e-4);
    }

    #[test]
    fn second_order_cone_projection() {
        // min t s.t. ‖(x−3, y−4)‖ ≤ t, x = y = 0 fixed via bounds → t = 5.
        use crate::problem::SocConstraint;
        let mut m = ModelBuilder::new();
        let t = m.add_var_with_cost("t", 1.0);
        let x = m.add_var("x");
        let y = m.add_var("y");
        m.bound_lower(x, 0.0);
        m.bound_upper(x, 0.0);
        m.bound_lower(y, 0.0);
        m.bound_upper(y, 0.0);
        m.add_soc(SocConstraint {
            bound: LinExpr::term(1.0, t),
            norm_terms: vec![
                LinExpr::term(1.0, x).plus_constant(-3.0),
                LinExpr::term(1.0, y).plus_constant(-4.0),
            ],
        });
        let sol = m.build().unwrap().solve(&default_settings()).unwrap();
        assert!(sol.status().is_optimal());
        assert!((sol.value(t) - 5.0).abs() < 1e-5);
    }

    #[test]
    fn detects_primal_infeasibility() {
        // x ≥ 3 and x ≤ 1 cannot both hold.
        let mut m = ModelBuilder::new();
        let x = m.add_var_with_cost("x", 1.0);
        m.bound_lower(x, 3.0);
        m.bound_upper(x, 1.0);
        let sol = m.build().unwrap().solve(&default_settings()).unwrap();
        assert_eq!(sol.status(), SolveStatus::PrimalInfeasible);
    }

    #[test]
    fn detects_unboundedness() {
        // min -x with only x ≥ 0 → unbounded below.
        let mut m = ModelBuilder::new();
        let x = m.add_var_with_cost("x", -1.0);
        m.bound_lower(x, 0.0);
        let sol = m.build().unwrap().solve(&default_settings()).unwrap();
        assert_eq!(sol.status(), SolveStatus::DualInfeasible);
    }

    #[test]
    fn empty_constraint_set() {
        use bbs_linalg::{CsrMatrix, DVector};
        let p = ConeProblem {
            c: DVector::zeros(2),
            g: CsrMatrix::from_parts(0, 2, vec![0], vec![], vec![]),
            h: DVector::zeros(0),
            cone: Cone::new(vec![]),
        };
        let sol = solve_cone_problem(&p, &default_settings()).unwrap();
        assert!(sol.is_optimal());
        let p_unbounded = ConeProblem {
            c: DVector::from_slice(&[1.0, 0.0]),
            g: CsrMatrix::from_parts(0, 2, vec![0], vec![], vec![]),
            h: DVector::zeros(0),
            cone: Cone::new(vec![]),
        };
        assert!(matches!(
            solve_cone_problem(&p_unbounded, &default_settings()),
            Err(ConicError::Unbounded)
        ));
    }

    #[test]
    fn fast_settings_still_converge() {
        let mut m = ModelBuilder::new();
        let x = m.add_var_with_cost("x", 1.0);
        let y = m.add_var_with_cost("y", 1.0);
        m.bound_lower(x, 1e-6);
        m.bound_lower(y, 1e-6);
        m.add_hyperbolic(x, y, 4.0);
        let sol = m.build().unwrap().solve(&IpmSettings::fast()).unwrap();
        assert!(sol.status().is_optimal());
        assert!((sol.value(x) - 2.0).abs() < 1e-3);
    }

    #[test]
    fn duality_gap_closed_at_optimum() {
        let mut m = ModelBuilder::new();
        let x = m.add_var_with_cost("x", 3.0);
        let y = m.add_var_with_cost("y", 2.0);
        m.bound_lower(x, 0.0);
        m.bound_lower(y, 0.0);
        m.add_ge(LinExpr::term(1.0, x).plus(1.0, y), 2.0);
        let sol = m.build().unwrap().solve(&default_settings()).unwrap();
        let raw = sol.raw();
        assert!((raw.primal_objective - raw.dual_objective).abs() < 1e-5);
        assert!(raw.gap < 1e-6);
        assert!(raw.primal_residual < 1e-6);
        assert!(raw.dual_residual < 1e-6);
    }

    #[test]
    fn cone_block_display_helpers() {
        // Exercise the re-exported cone API from the solver's perspective.
        let cone = Cone::new(vec![ConeBlock::NonNeg(2), ConeBlock::Soc(3)]);
        assert_eq!(cone.dim(), 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_random_box_lp_hits_bounds(seed in 0u64..1000, n in 1usize..6) {
            // min cᵀ x with li ≤ xi ≤ ui decomposes per coordinate:
            // xi* = li if ci > 0, ui if ci < 0.
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut m = ModelBuilder::new();
            let mut expected = Vec::new();
            let mut vars = Vec::new();
            for i in 0..n {
                let c: f64 = loop {
                    let v: f64 = rng.gen_range(-2.0..2.0);
                    if v.abs() > 0.1 { break v; }
                };
                let l = rng.gen_range(-5.0..0.0);
                let u = l + rng.gen_range(1.0..5.0);
                let v = m.add_var_with_cost(format!("x{i}"), c);
                m.bound_lower(v, l);
                m.bound_upper(v, u);
                vars.push(v);
                expected.push(if c > 0.0 { l } else { u });
            }
            let sol = m.build().unwrap().solve(&IpmSettings::default()).unwrap();
            prop_assert!(sol.status().is_optimal());
            for (v, &exp) in vars.iter().zip(expected.iter()) {
                prop_assert!((sol.value(*v) - exp).abs() < 1e-5,
                    "variable {:?}: got {}, expected {}", v, sol.value(*v), exp);
            }
        }

        #[test]
        fn prop_hyperbolic_min_matches_analytic(k in 0.5f64..20.0, ymax in 0.5f64..5.0) {
            // min x s.t. x·y ≥ k, y ≤ ymax  →  x = k / ymax.
            let mut m = ModelBuilder::new();
            let x = m.add_var_with_cost("x", 1.0);
            let y = m.add_var("y");
            m.bound_lower(x, 1e-9);
            m.bound_lower(y, 1e-9);
            m.bound_upper(y, ymax);
            m.add_hyperbolic(x, y, k);
            let sol = m.build().unwrap().solve(&IpmSettings::default()).unwrap();
            prop_assert!(sol.status().is_optimal());
            let expected = k / ymax;
            prop_assert!((sol.value(x) - expected).abs() < 1e-3 * (1.0 + expected));
        }
    }
}
