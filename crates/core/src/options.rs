//! Options controlling the joint budget/buffer computation.

use bbs_conic::{CuttingPlaneSettings, IpmSettings};
use serde::{Deserialize, Serialize};

/// Which optimisation back-end solves Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverKind {
    /// The second-order cone program solved by the primal–dual
    /// interior-point method — the paper's approach, with polynomial
    /// complexity.
    #[default]
    InteriorPoint,
    /// An outer-approximation loop that replaces the hyperbolic constraints
    /// by tangent cuts and solves a sequence of LPs. Used as an ablation
    /// baseline and as an independent cross-check of the SOCP results.
    CuttingPlane,
}

impl SolverKind {
    /// The canonical string form used in scenario files and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            SolverKind::InteriorPoint => "interior-point",
            SolverKind::CuttingPlane => "cutting-plane",
        }
    }
}

// The vendored serde_derive shim does not handle enums, so the string form
// is implemented by hand: `"interior-point"` / `"cutting-plane"`.
impl Serialize for SolverKind {
    fn serialize_canonical(&self, out: &mut dyn serde::Serializer) {
        serde::canonical::write_json_string(out, self.as_str());
    }
}

impl Deserialize for SolverKind {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::Str(s) if s == "interior-point" => Ok(SolverKind::InteriorPoint),
            serde::Value::Str(s) if s == "cutting-plane" => Ok(SolverKind::CuttingPlane),
            other => Err(serde::Error::custom(format!(
                "expected \"interior-point\" or \"cutting-plane\", found {other:?}"
            ))),
        }
    }
}

/// Options of [`crate::compute_mapping`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveOptions {
    /// Optimisation back-end.
    pub solver: SolverKind,
    /// Interior-point solver parameters.
    pub ipm: IpmSettings,
    /// Cutting-plane parameters (only used by [`SolverKind::CuttingPlane`]).
    pub cutting_plane: CuttingPlaneSettings,
    /// Global multiplier applied to every task's budget weight `a(w)`.
    pub budget_weight_scale: f64,
    /// Global multiplier applied to every buffer's storage weight `b(b)`.
    pub storage_weight_scale: f64,
    /// Verify the rounded mapping with an independent dataflow analysis
    /// before returning it (cheap; enabled by default).
    pub verify: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            solver: SolverKind::InteriorPoint,
            ipm: IpmSettings::default(),
            cutting_plane: CuttingPlaneSettings::default(),
            budget_weight_scale: 1.0,
            storage_weight_scale: 1.0,
            verify: true,
        }
    }
}

impl SolveOptions {
    /// The weight setting used in the paper's experiments: budgets are
    /// minimised with priority, buffer storage only as a tie-breaker.
    #[must_use]
    pub fn prefer_budget_minimisation(mut self) -> Self {
        self.budget_weight_scale = 1.0;
        self.storage_weight_scale = 1e-3;
        self
    }

    /// The opposite trade-off: minimise storage first, budgets as a
    /// tie-breaker.
    #[must_use]
    pub fn prefer_storage_minimisation(mut self) -> Self {
        self.budget_weight_scale = 1e-3;
        self.storage_weight_scale = 1.0;
        self
    }

    /// Selects the cutting-plane back-end.
    #[must_use]
    pub fn with_cutting_plane(mut self) -> Self {
        self.solver = SolverKind::CuttingPlane;
        self
    }

    /// Disables the post-hoc verification step (it is cheap, but exact
    /// reproduction of solver-only timing measurements may want it off).
    #[must_use]
    pub fn without_verification(mut self) -> Self {
        self.verify = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_interior_point_with_verification() {
        let o = SolveOptions::default();
        assert_eq!(o.solver, SolverKind::InteriorPoint);
        assert!(o.verify);
        assert_eq!(o.budget_weight_scale, 1.0);
        assert_eq!(o.storage_weight_scale, 1.0);
    }

    #[test]
    fn options_round_trip_through_json() {
        let options = SolveOptions::default()
            .prefer_budget_minimisation()
            .with_cutting_plane();
        let json = serde_json::to_string(&options).unwrap();
        assert!(json.contains("\"cutting-plane\""));
        let back: SolveOptions = serde_json::from_str(&json).unwrap();
        assert_eq!(back, options);
        assert!(
            serde_json::from_str::<SolveOptions>(&json.replace("cutting-plane", "simplex"))
                .is_err()
        );
    }

    #[test]
    fn builder_style_modifiers() {
        let o = SolveOptions::default()
            .prefer_budget_minimisation()
            .with_cutting_plane()
            .without_verification();
        assert_eq!(o.solver, SolverKind::CuttingPlane);
        assert!(!o.verify);
        assert!(o.storage_weight_scale < o.budget_weight_scale);
        let o2 = SolveOptions::default().prefer_storage_minimisation();
        assert!(o2.budget_weight_scale < o2.storage_weight_scale);
    }
}
