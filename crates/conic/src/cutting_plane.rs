//! Outer-approximation (cutting-plane) solver for models whose only
//! non-linear constraints are hyperbolic constraints `x·y ≥ k`.
//!
//! This provides an independent cross-check of the interior-point SOCP
//! solver and serves as an ablation point in the benchmarks: the paper's
//! formulation could in principle be solved by repeatedly linearising the
//! budget-reciprocal relation, at the cost of an outer iteration loop whose
//! length is data-dependent, whereas the SOCP formulation is solved in one
//! polynomial-complexity call.

use crate::error::ConicError;
use crate::ipm::IpmSettings;
use crate::problem::{LinExpr, ModelBuilder, Solution};
use serde::{Deserialize, Serialize};

/// Parameters for the cutting-plane loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CuttingPlaneSettings {
    /// Maximum number of LP rounds.
    pub max_rounds: usize,
    /// Relative violation below which a hyperbolic constraint is accepted.
    pub tol_violation: f64,
    /// Floor used when a linearisation point collapses towards zero.
    pub min_linearization_point: f64,
}

impl Default for CuttingPlaneSettings {
    fn default() -> Self {
        Self {
            max_rounds: 60,
            tol_violation: 1e-7,
            min_linearization_point: 1e-6,
        }
    }
}

/// Outcome of [`solve_with_cutting_planes`].
#[derive(Debug, Clone)]
pub struct CuttingPlaneOutcome {
    /// The solution of the final LP relaxation.
    pub solution: Solution,
    /// Number of LP rounds performed.
    pub rounds: usize,
    /// Total number of cuts added.
    pub cuts: usize,
    /// Whether every hyperbolic constraint is satisfied to tolerance.
    pub converged: bool,
}

/// Solves a model by outer approximation: hyperbolic constraints `x·y ≥ k`
/// are replaced by an increasing collection of tangent cuts
/// `y + (k/x₀²)·x ≥ 2k/x₀`, each LP relaxation being solved by the
/// interior-point method restricted to the nonnegative orthant.
///
/// # Errors
///
/// Propagates modelling and solver errors from the underlying LP solves.
pub fn solve_with_cutting_planes(
    builder: &ModelBuilder,
    ipm: &IpmSettings,
    settings: &CuttingPlaneSettings,
) -> Result<CuttingPlaneOutcome, ConicError> {
    let hyperbolics = builder.hyperbolic_constraints().to_vec();
    let mut working = builder.clone();
    working.clear_hyperbolic_constraints();

    // The accumulated tangent cuts are nearly parallel around the optimum,
    // which makes the LP relaxations increasingly degenerate. Solving them to
    // the (tight) SOCP tolerances is neither possible nor useful — the outer
    // loop only needs the iterate to decide where to cut next — so the LP
    // tolerances are floored at 1e-6.
    let mut ipm = ipm.clone();
    ipm.tol_feasibility = ipm.tol_feasibility.max(1e-6);
    ipm.tol_gap_absolute = ipm.tol_gap_absolute.max(1e-6);
    ipm.tol_gap_relative = ipm.tol_gap_relative.max(1e-6);
    let ipm = &ipm;

    // Seed one tangent per constraint at the geometric centre `x₀ = √k` so
    // the first relaxation is already sensible.
    let mut cuts = 0usize;
    for &(x, y, k) in &hyperbolics {
        add_tangent_cut(&mut working, x, y, k, k.sqrt());
        cuts += 1;
    }

    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let solution = working.build()?.solve(ipm)?;
        if !solution.status().is_optimal() {
            // Either the relaxation is already infeasible (adding cuts can
            // only make it more so) or the LP could not be solved reliably;
            // in both cases the iterate cannot be trusted to place further
            // cuts, so report immediately instead of looping.
            return Ok(CuttingPlaneOutcome {
                solution,
                rounds,
                cuts,
                converged: false,
            });
        }
        let mut violated = 0usize;
        for &(x, y, k) in &hyperbolics {
            let xv = solution.value(x);
            let yv = solution.value(y);
            if xv * yv < k * (1.0 - settings.tol_violation) {
                // Linearise around the better-conditioned estimate of x: the
                // current value of x itself, or the value implied by the
                // current y (x = k/y). Taking the maximum keeps the cut slope
                // k/x₀² bounded even when the LP drove x towards zero.
                let implied = if yv > settings.min_linearization_point {
                    k / yv
                } else {
                    0.0
                };
                let x0 = xv.max(implied).max(settings.min_linearization_point);
                add_tangent_cut(&mut working, x, y, k, x0);
                cuts += 1;
                violated += 1;
            }
        }
        if violated == 0 || rounds >= settings.max_rounds {
            return Ok(CuttingPlaneOutcome {
                solution,
                rounds,
                cuts,
                converged: violated == 0,
            });
        }
    }
}

/// Adds the tangent of `y ≥ k/x` at `x = x0`: `y + (k/x0²)·x ≥ 2k/x0`.
fn add_tangent_cut(builder: &mut ModelBuilder, x: crate::VarId, y: crate::VarId, k: f64, x0: f64) {
    let slope = k / (x0 * x0);
    builder.add_ge(LinExpr::term(1.0, y).plus(slope, x), 2.0 * k / x0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelBuilder;

    #[test]
    fn matches_ipm_on_symmetric_problem() {
        // min x + y s.t. x·y ≥ 9  → x = y = 3.
        let mut m = ModelBuilder::new();
        let x = m.add_var_with_cost("x", 1.0);
        let y = m.add_var_with_cost("y", 1.0);
        m.bound_lower(x, 1e-6);
        m.bound_lower(y, 1e-6);
        m.add_hyperbolic(x, y, 9.0);
        let outcome = solve_with_cutting_planes(
            &m,
            &IpmSettings::default(),
            &CuttingPlaneSettings::default(),
        )
        .unwrap();
        assert!(outcome.converged);
        assert!((outcome.solution.value(x) - 3.0).abs() < 1e-3);
        assert!((outcome.solution.value(y) - 3.0).abs() < 1e-3);
        // The seed tangent at x₀ = √k touches the hyperbola exactly at the
        // symmetric optimum, so a single cut suffices.
        assert!(outcome.cuts >= 1);
    }

    #[test]
    fn matches_analytic_with_bound() {
        // min x s.t. x·y ≥ 8, y ≤ 2 → x = 4.
        let mut m = ModelBuilder::new();
        let x = m.add_var_with_cost("x", 1.0);
        let y = m.add_var("y");
        m.bound_lower(x, 1e-6);
        m.bound_lower(y, 1e-6);
        m.bound_upper(y, 2.0);
        m.add_hyperbolic(x, y, 8.0);
        let outcome = solve_with_cutting_planes(
            &m,
            &IpmSettings::default(),
            &CuttingPlaneSettings::default(),
        )
        .unwrap();
        assert!(outcome.converged);
        assert!((outcome.solution.value(x) - 4.0).abs() < 1e-3);
    }

    #[test]
    fn pure_lp_converges_in_one_round() {
        let mut m = ModelBuilder::new();
        let x = m.add_var_with_cost("x", 1.0);
        m.bound_lower(x, 5.0);
        let outcome = solve_with_cutting_planes(
            &m,
            &IpmSettings::default(),
            &CuttingPlaneSettings::default(),
        )
        .unwrap();
        assert!(outcome.converged);
        assert_eq!(outcome.rounds, 1);
        assert_eq!(outcome.cuts, 0);
        assert!((outcome.solution.value(x) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn round_limit_is_respected() {
        let mut m = ModelBuilder::new();
        let x = m.add_var_with_cost("x", 1.0);
        let y = m.add_var_with_cost("y", 1.0);
        m.bound_lower(x, 1e-6);
        m.bound_lower(y, 1e-6);
        m.add_hyperbolic(x, y, 25.0);
        let strict = CuttingPlaneSettings {
            max_rounds: 1,
            ..CuttingPlaneSettings::default()
        };
        let outcome = solve_with_cutting_planes(&m, &IpmSettings::default(), &strict).unwrap();
        assert_eq!(outcome.rounds, 1);
    }
}
