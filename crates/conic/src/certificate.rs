//! An independent check of what the interior-point method decided.
//!
//! [`check_certificate`] recomputes, from the problem data alone, the
//! quantities a [`RawSolution`]'s status rests on. It forms `Gx` and `Gᵀz`
//! with the compressed-row products of `bbs-linalg`, which that crate's
//! tests pin bit for bit to dense products, and otherwise works in plain
//! `f64` loops that share no code with the solver: not its KKT system, not
//! its cone arithmetic. A claim passes when it holds
//! at the IPM's loosest exit, `1e3` times the settings' tolerances for an
//! optimum, and at `tol_infeasibility` for a certificate of infeasibility.

use crate::cone::ConeBlock;
use crate::error::SolveStatus;
use crate::ipm::{IpmSettings, RawSolution};
use crate::problem::ConeProblem;
use std::error::Error;
use std::fmt;

/// How far an optimum's residuals and gap may exceed the tolerances: the
/// factor of the IPM's exit when the scaling breaks down near the optimum.
const LOOSE_EXIT: f64 = 1e3;

/// How far outside its cone a returned vector may lie.
const CONE_SLACK: f64 = 1e-9;

/// Why [`check_certificate`] rejected a solution.
#[derive(Debug, Clone, PartialEq)]
pub enum CertificateError {
    /// The status claims nothing a certificate could back
    /// ([`SolveStatus::MaxIterations`]).
    NoClaim(SolveStatus),
    /// The solution's vectors do not match the problem's dimensions.
    Dimensions,
    /// A recomputed quantity broke its limit.
    Failed {
        /// What was checked.
        check: &'static str,
        /// The recomputed value.
        value: f64,
        /// The limit it had to meet.
        limit: f64,
    },
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::NoClaim(status) => write!(f, "status `{status}` claims nothing"),
            CertificateError::Dimensions => write!(f, "solution dimensions do not fit"),
            CertificateError::Failed {
                check,
                value,
                limit,
            } => write!(f, "{check} is {value:e}, limit {limit:e}"),
        }
    }
}

impl Error for CertificateError {}

/// Checks the claim of `solution`'s status against `problem`:
///
/// * [`SolveStatus::Optimal`]: `s` and `z` lie in the cone, the relative
///   residuals `‖Gx + s − h‖ / max(1, ‖h‖)` and `‖Gᵀz + c‖ / max(1, ‖c‖)`
///   are within `1e3 · tol_feasibility`, and the gap `sᵀz / degree` is
///   within `1e3 · tol_gap_absolute` or the relative gap within
///   `1e3 · tol_gap_relative`;
/// * [`SolveStatus::PrimalInfeasible`]: `z ∈ K`, `hᵀz < 0` and
///   `‖Gᵀz‖ ≤ tol_infeasibility · |hᵀz|`;
/// * [`SolveStatus::DualInfeasible`]: `s ∈ K`, `cᵀx < 0` and
///   `‖Gx + s‖ ≤ tol_infeasibility · |cᵀx|`.
///
/// Norms are Euclidean, as in the IPM's own tests.
///
/// # Errors
///
/// [`CertificateError::NoClaim`] for [`SolveStatus::MaxIterations`],
/// [`CertificateError::Dimensions`] when the vectors do not fit the
/// problem, and [`CertificateError::Failed`] for the first check that does
/// not hold.
pub fn check_certificate(
    problem: &ConeProblem,
    solution: &RawSolution,
    settings: &IpmSettings,
) -> Result<(), CertificateError> {
    let (m, n) = (problem.g.nrows(), problem.g.ncols());
    let (c, h) = (problem.c.as_slice(), problem.h.as_slice());
    let (x, s, z) = (
        solution.x.as_slice(),
        solution.s.as_slice(),
        solution.z.as_slice(),
    );
    if c.len() != n || h.len() != m || x.len() != n || s.len() != m || z.len() != m {
        return Err(CertificateError::Dimensions);
    }
    let g_x = problem.g.matvec(&solution.x);
    let mut gt_z = vec![0.0; n];
    problem.g.add_matvec_transpose(z, &mut gt_z);
    match solution.status {
        SolveStatus::Optimal => {
            in_cone(problem, s, "cone margin of s")?;
            in_cone(problem, z, "cone margin of z")?;
            let primal: Vec<f64> = (0..m).map(|r| g_x[r] + s[r] - h[r]).collect();
            let dual: Vec<f64> = (0..n).map(|j| gt_z[j] + c[j]).collect();
            let loose = LOOSE_EXIT * settings.tol_feasibility;
            at_most("primal residual", norm(&primal) / norm(h).max(1.0), loose)?;
            at_most("dual residual", norm(&dual) / norm(c).max(1.0), loose)?;
            let degree: usize = problem
                .cone
                .blocks()
                .iter()
                .map(|block| match block {
                    ConeBlock::NonNeg(nb) => *nb,
                    ConeBlock::Soc(_) => 1,
                })
                .sum();
            let gap = dot(s, z) / degree.max(1) as f64;
            let (pobj, dobj) = (dot(c, x), -dot(h, z));
            let relgap = (pobj - dobj).abs() / pobj.abs().max(dobj.abs()).max(1.0);
            if gap <= LOOSE_EXIT * settings.tol_gap_absolute {
                Ok(())
            } else {
                at_most(
                    "relative gap",
                    relgap,
                    LOOSE_EXIT * settings.tol_gap_relative,
                )
            }
        }
        SolveStatus::PrimalInfeasible => {
            in_cone(problem, z, "cone margin of z")?;
            let hz = dot(h, z);
            negative("hᵀz", hz)?;
            at_most(
                "‖Gᵀz‖ / |hᵀz|",
                norm(&gt_z) / hz.abs(),
                settings.tol_infeasibility,
            )
        }
        SolveStatus::DualInfeasible => {
            in_cone(problem, s, "cone margin of s")?;
            let cx = dot(c, x);
            negative("cᵀx", cx)?;
            let ray: Vec<f64> = (0..m).map(|r| g_x[r] + s[r]).collect();
            at_most(
                "‖Gx + s‖ / |cᵀx|",
                norm(&ray) / cx.abs(),
                settings.tol_infeasibility,
            )
        }
        status @ SolveStatus::MaxIterations => Err(CertificateError::NoClaim(status)),
    }
}

/// `Ok` when `value ≤ limit` (so never for NaN).
fn at_most(check: &'static str, value: f64, limit: f64) -> Result<(), CertificateError> {
    if value <= limit {
        Ok(())
    } else {
        Err(CertificateError::Failed {
            check,
            value,
            limit,
        })
    }
}

/// `Ok` when `value < 0`.
fn negative(check: &'static str, value: f64) -> Result<(), CertificateError> {
    if value < 0.0 {
        Ok(())
    } else {
        Err(CertificateError::Failed {
            check,
            value,
            limit: 0.0,
        })
    }
}

/// `Ok` when every block of `v` lies in its cone, up to [`CONE_SLACK`]: an
/// orthant block's least entry, and a second-order block's `v₀ − ‖v̄‖`, is
/// at least `−CONE_SLACK`.
fn in_cone(problem: &ConeProblem, v: &[f64], check: &'static str) -> Result<(), CertificateError> {
    let mut off = 0;
    for block in problem.cone.blocks() {
        match *block {
            ConeBlock::NonNeg(nb) => {
                for &e in &v[off..off + nb] {
                    at_most(check, -e, CONE_SLACK)?;
                }
            }
            ConeBlock::Soc(nb) => {
                at_most(check, norm(&v[off + 1..off + nb]) - v[off], CONE_SLACK)?;
            }
        }
        off += block.dim();
    }
    Ok(())
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LinExpr, ModelBuilder};
    use crate::solve_cone_problem;
    use bbs_linalg::DVector;

    fn settings() -> IpmSettings {
        IpmSettings::default()
    }

    fn claim(x: &[f64], s: &[f64], z: &[f64], status: SolveStatus) -> RawSolution {
        RawSolution {
            x: DVector::from_slice(x),
            s: DVector::from_slice(s),
            z: DVector::from_slice(z),
            status,
            iterations: 0,
            primal_objective: 0.0,
            dual_objective: 0.0,
            gap: 0.0,
            primal_residual: 0.0,
            dual_residual: 0.0,
        }
    }

    /// min x + 2y s.t. x + y ≥ 1, x, y ≥ 0 (optimum x = 1, y = 0), or with
    /// `x + y ≤ −1` added, infeasible.
    fn lp(infeasible: bool) -> ConeProblem {
        let mut m = ModelBuilder::new();
        let x = m.add_var_with_cost("x", 1.0);
        let y = m.add_var_with_cost("y", 2.0);
        m.bound_lower(x, 0.0);
        m.bound_lower(y, 0.0);
        m.add_ge(LinExpr::term(1.0, x).plus(1.0, y), 1.0);
        if infeasible {
            m.add_le(LinExpr::term(1.0, x).plus(1.0, y), -1.0);
        }
        m.build().unwrap().problem().clone()
    }

    #[test]
    fn solver_decisions_pass() {
        for infeasible in [false, true] {
            let problem = lp(infeasible);
            let solution = solve_cone_problem(&problem, &settings()).unwrap();
            let expected = if infeasible {
                SolveStatus::PrimalInfeasible
            } else {
                SolveStatus::Optimal
            };
            assert_eq!(solution.status, expected);
            check_certificate(&problem, &solution, &settings()).unwrap();
        }
    }

    #[test]
    fn a_perturbed_optimum_fails() {
        let problem = lp(false);
        let mut solution = solve_cone_problem(&problem, &settings()).unwrap();
        solution.x[0] += 1e-3;
        let error = check_certificate(&problem, &solution, &settings()).unwrap_err();
        assert!(matches!(
            error,
            CertificateError::Failed {
                check: "primal residual",
                ..
            }
        ));
        // A claimed optimum that is not one: x moved off the optimum and s
        // recomputed, so both residuals vanish but the gap does not.
        let mut solution = solve_cone_problem(&problem, &settings()).unwrap();
        solution.x[0] += 1.0;
        solution.s = &problem.h - &problem.g.matvec(&solution.x);
        let error = check_certificate(&problem, &solution, &settings()).unwrap_err();
        assert!(matches!(
            error,
            CertificateError::Failed {
                check: "relative gap",
                ..
            }
        ));
    }

    #[test]
    fn a_ray_outside_the_cone_or_with_the_wrong_sign_fails() {
        let problem = lp(true);
        let good = solve_cone_problem(&problem, &settings()).unwrap();
        let mut flipped = good.clone();
        flipped.z = -&flipped.z;
        assert!(check_certificate(&problem, &flipped, &settings()).is_err());
        let zeros = vec![0.0; good.z.len()];
        let zero = claim(
            good.x.as_slice(),
            &zeros,
            &zeros,
            SolveStatus::PrimalInfeasible,
        );
        let error = check_certificate(&problem, &zero, &settings()).unwrap_err();
        assert!(matches!(
            error,
            CertificateError::Failed { check: "hᵀz", .. }
        ));
    }

    #[test]
    fn undecided_and_misshapen_solutions_are_not_certified() {
        let problem = lp(false);
        let mut solution = solve_cone_problem(&problem, &settings()).unwrap();
        solution.status = SolveStatus::MaxIterations;
        assert_eq!(
            check_certificate(&problem, &solution, &settings()),
            Err(CertificateError::NoClaim(SolveStatus::MaxIterations))
        );
        let short = claim(&[0.0], &[], &[], SolveStatus::Optimal);
        assert_eq!(
            check_certificate(&problem, &short, &settings()),
            Err(CertificateError::Dimensions)
        );
        assert!(CertificateError::Dimensions
            .to_string()
            .contains("dimensions"));
    }

    #[test]
    fn an_unbounded_ray_passes() {
        // min −x s.t. x ≥ 0: unbounded below, a dual infeasibility.
        let mut m = ModelBuilder::new();
        let x = m.add_var_with_cost("x", -1.0);
        m.bound_lower(x, 0.0);
        let problem = m.build().unwrap().problem().clone();
        let solution = solve_cone_problem(&problem, &settings()).unwrap();
        assert_eq!(solution.status, SolveStatus::DualInfeasible);
        check_certificate(&problem, &solution, &settings()).unwrap();
    }
}
