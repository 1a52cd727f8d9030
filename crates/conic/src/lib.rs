//! Linear and second-order cone programming.
//!
//! This crate is the optimisation substrate of the budget/buffer
//! co-computation library. It provides:
//!
//! * a modelling layer ([`ModelBuilder`]) with named variables, affine
//!   inequalities, bounds, hyperbolic constraints `x·y ≥ k` and general
//!   second-order cone constraints;
//! * a from-scratch primal–dual interior-point solver
//!   ([`solve_cone_problem`]) using Nesterov–Todd scaling and a Mehrotra
//!   predictor–corrector, with polynomial iteration complexity — the
//!   property the paper relies on for its "milliseconds" run-time claim;
//! * a cutting-plane fallback ([`solve_with_cutting_planes`]) used as an
//!   independent cross-check and as an ablation baseline in the benches;
//! * a certificate checker ([`check_certificate`]) that recomputes, from
//!   the problem data alone, what a solution's status claims.
//!
//! # Example
//!
//! Minimise a weighted sum subject to a hyperbolic (budget-reciprocal style)
//! constraint:
//!
//! ```
//! use bbs_conic::{IpmSettings, ModelBuilder};
//!
//! # fn main() -> Result<(), bbs_conic::ConicError> {
//! let mut m = ModelBuilder::new();
//! let budget = m.add_var_with_cost("budget", 1.0);
//! let recip = m.add_var("reciprocal");
//! m.bound_lower(budget, 1e-6);
//! m.bound_lower(recip, 1e-6);
//! m.bound_upper(recip, 0.25); // reciprocal ≤ 1/4 ⇒ budget ≥ 4
//! m.add_hyperbolic(budget, recip, 1.0); // budget · reciprocal ≥ 1
//! let solution = m.build()?.solve(&IpmSettings::default())?;
//! assert!((solution.value(budget) - 4.0).abs() < 1e-4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod certificate;
mod cone;
mod cutting_plane;
mod error;
mod ipm;
mod kkt;
mod problem;
mod scaling;

pub use certificate::{check_certificate, CertificateError};
pub use cone::{Cone, ConeBlock};
pub use cutting_plane::{solve_with_cutting_planes, CuttingPlaneOutcome, CuttingPlaneSettings};
pub use error::{ConicError, SolveStatus};
pub use ipm::{solve_cone_problem, IpmSettings, RawSolution};
pub use problem::{ConeProblem, LinExpr, Model, ModelBuilder, SocConstraint, Solution, VarId};
pub use scaling::NtScaling;

/// The revision of the solver's arithmetic: the KKT order, the refinement
/// and every other choice that decides the bits of a raw solution. Raw
/// values, objectives and iteration counts are a function of the problem,
/// the settings and this revision. The solve store keys every entry by it,
/// so no store serves one revision's raw values to another.
///
/// Revision 1 factored the KKT system in the natural order. Revision 2
/// factors it in the exact minimum-degree order and refines while the
/// residual is large and still falling.
pub const SOLVER_REVISION: u64 = 2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_example_compiles_and_solves() {
        let mut m = ModelBuilder::new();
        let budget = m.add_var_with_cost("budget", 1.0);
        let recip = m.add_var("reciprocal");
        m.bound_lower(budget, 1e-6);
        m.bound_lower(recip, 1e-6);
        m.bound_upper(recip, 0.25);
        m.add_hyperbolic(budget, recip, 1.0);
        let solution = m.build().unwrap().solve(&IpmSettings::default()).unwrap();
        assert!((solution.value(budget) - 4.0).abs() < 1e-4);
    }

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelBuilder>();
        assert_send_sync::<Model>();
        assert_send_sync::<ConeProblem>();
        assert_send_sync::<RawSolution>();
        assert_send_sync::<ConicError>();
        assert_send_sync::<IpmSettings>();
    }
}
