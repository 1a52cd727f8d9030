//! Nesterov–Todd scaling for the symmetric cones used by the solver.
//!
//! Given a strictly feasible primal/dual slack pair `(s, z)` the NT scaling
//! is the unique symmetric, cone-automorphic linear map `W` with
//! `W² z = s`. The scaled point `λ = W z = W⁻¹ s` drives the predictor and
//! corrector directions of the interior-point method.

use crate::cone::{Cone, ConeBlock};
use bbs_linalg::DVector;

/// Per-block NT scaling data.
#[derive(Debug, Clone, PartialEq)]
enum BlockScaling {
    /// Orthant block: `W = diag(w)`, `w_i = sqrt(s_i / z_i)`.
    Orthant {
        /// Diagonal of `W`.
        w: Vec<f64>,
    },
    /// Second-order cone block:
    /// `W = sqrt(eta) [[w̄₀, w̄₁ᵀ], [w̄₁, I + w̄₁w̄₁ᵀ/(1+w̄₀)]]` with
    /// `w̄ᵀ J w̄ = 1` and `eta = sqrt((s₀²−‖s₁‖²)/(z₀²−‖z₁‖²))`.
    Soc {
        /// `sqrt(eta)` scale factor (i.e. `((s₀²−‖s₁‖²)/(z₀²−‖z₁‖²))^{1/4}`).
        eta_sqrt: f64,
        /// The hyperbolic-unit scaling point `w̄`.
        wbar: Vec<f64>,
    },
}

/// Nesterov–Todd scaling for a full cone product.
///
/// # Example
///
/// ```
/// use bbs_conic::{Cone, ConeBlock, NtScaling};
/// use bbs_linalg::DVector;
///
/// let cone = Cone::new(vec![ConeBlock::NonNeg(2), ConeBlock::Soc(3)]);
/// let s = DVector::from_slice(&[4.0, 1.0, 3.0, 1.0, 0.5]);
/// let z = DVector::from_slice(&[1.0, 2.0, 2.0, -0.5, 0.3]);
/// let w = NtScaling::compute(&cone, &s, &z).expect("both interior");
/// // W² z = s  (defining property)
/// let w2z = w.apply(&w.apply(&z));
/// assert!((&w2z - &s).norm_inf() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NtScaling {
    cone: Cone,
    blocks: Vec<BlockScaling>,
}

impl NtScaling {
    /// Computes the NT scaling for interior points `s`, `z` of `cone`.
    ///
    /// Returns `None` when either point is not strictly inside the cone
    /// (which the interior-point iteration guarantees by construction).
    ///
    /// # Panics
    ///
    /// Panics if the vector dimensions do not match the cone.
    pub fn compute(cone: &Cone, s: &DVector, z: &DVector) -> Option<Self> {
        assert_eq!(s.len(), cone.dim(), "nt scaling: dimension mismatch");
        assert_eq!(z.len(), cone.dim(), "nt scaling: dimension mismatch");
        let mut blocks = Vec::with_capacity(cone.blocks().len());
        for (off, block) in cone.iter_offsets() {
            match block {
                ConeBlock::NonNeg(n) => {
                    let mut w = Vec::with_capacity(n);
                    for i in 0..n {
                        let (si, zi) = (s[off + i], z[off + i]);
                        if si <= 0.0 || zi <= 0.0 {
                            return None;
                        }
                        w.push((si / zi).sqrt());
                    }
                    blocks.push(BlockScaling::Orthant { w });
                }
                ConeBlock::Soc(n) => {
                    let sres = soc_residual(s, off, n);
                    let zres = soc_residual(z, off, n);
                    if sres <= 0.0 || zres <= 0.0 || s[off] <= 0.0 || z[off] <= 0.0 {
                        return None;
                    }
                    let s_scale = sres.sqrt();
                    let z_scale = zres.sqrt();
                    // Normalised points on the unit hyperboloid.
                    let sbar: Vec<f64> = (0..n).map(|i| s[off + i] / s_scale).collect();
                    let zbar: Vec<f64> = (0..n).map(|i| z[off + i] / z_scale).collect();
                    let dot: f64 = sbar.iter().zip(zbar.iter()).map(|(a, b)| a * b).sum();
                    let gamma = ((1.0 + dot) / 2.0).sqrt();
                    // w̄ = (s̄ + J z̄) / (2γ)
                    let mut wbar = vec![0.0; n];
                    wbar[0] = (sbar[0] + zbar[0]) / (2.0 * gamma);
                    for i in 1..n {
                        wbar[i] = (sbar[i] - zbar[i]) / (2.0 * gamma);
                    }
                    let eta_sqrt = (s_scale / z_scale).sqrt();
                    blocks.push(BlockScaling::Soc { eta_sqrt, wbar });
                }
            }
        }
        Some(Self {
            cone: cone.clone(),
            blocks,
        })
    }

    /// The cone this scaling was computed for.
    pub fn cone(&self) -> &Cone {
        &self.cone
    }

    /// Applies `W` to a vector.
    ///
    /// # Panics
    ///
    /// Panics if the dimension does not match the cone.
    pub fn apply(&self, v: &DVector) -> DVector {
        self.apply_impl(v, false)
    }

    /// Applies `W⁻¹` to a vector.
    ///
    /// # Panics
    ///
    /// Panics if the dimension does not match the cone.
    pub fn apply_inverse(&self, v: &DVector) -> DVector {
        self.apply_impl(v, true)
    }

    /// The scaled point `λ = W z = W⁻¹ s`.
    pub fn lambda(&self, z: &DVector) -> DVector {
        self.apply(z)
    }

    /// `W²` block by block, packed into `out` (cleared first) in the cone's
    /// block order: an orthant block of dimension `n` contributes its `n`
    /// diagonal entries `wᵢ·wᵢ`; a second-order cone block of dimension `n`
    /// contributes all `n×n` entries `η·(2·w̄ᵢ·w̄ⱼ − Jᵢⱼ)` row by row (the
    /// quadratic representation of the scaling point). Every entry of `W²`
    /// outside these blocks is zero. The interior-point KKT system reads its
    /// `W²` entries from here, so `out` keeps its capacity across iterations.
    pub fn w_squared_blocks(&self, out: &mut Vec<f64>) {
        out.clear();
        for scaling in &self.blocks {
            match scaling {
                BlockScaling::Orthant { w } => out.extend(w.iter().map(|wi| wi * wi)),
                BlockScaling::Soc { eta_sqrt, wbar } => {
                    // W = sqrt(η)·W̄ with W̄² = 2w̄w̄ᵀ − J, hence W² = η·(2w̄w̄ᵀ − J)
                    // where η = (eta_sqrt)².
                    let eta = eta_sqrt * eta_sqrt;
                    for i in 0..wbar.len() {
                        for j in 0..wbar.len() {
                            let jordan = if i == j {
                                if i == 0 {
                                    1.0
                                } else {
                                    -1.0
                                }
                            } else {
                                0.0
                            };
                            out.push(eta * (2.0 * wbar[i] * wbar[j] - jordan));
                        }
                    }
                }
            }
        }
    }

    fn apply_impl(&self, v: &DVector, inverse: bool) -> DVector {
        assert_eq!(v.len(), self.cone.dim(), "nt apply: dimension mismatch");
        let mut out = DVector::zeros(v.len());
        for ((off, block), scaling) in self.cone.iter_offsets().zip(self.blocks.iter()) {
            match (block, scaling) {
                (ConeBlock::NonNeg(n), BlockScaling::Orthant { w }) => {
                    for i in 0..n {
                        let wi = if inverse { 1.0 / w[i] } else { w[i] };
                        out[off + i] = wi * v[off + i];
                    }
                }
                (ConeBlock::Soc(n), BlockScaling::Soc { eta_sqrt, wbar }) => {
                    // W v   = sqrt(eta) [[w̄₀, w̄₁ᵀ], [w̄₁, I + w̄₁w̄₁ᵀ/(1+w̄₀)]] v
                    // W⁻¹ v is the same map built from J w̄ (tail negated)
                    // with the reciprocal scale factor.
                    let scale = if inverse { 1.0 / eta_sqrt } else { *eta_sqrt };
                    let sign = if inverse { -1.0 } else { 1.0 };
                    let w0 = wbar[0];
                    // d = w̄₁ᵀ v₁ (using the original, un-negated tail).
                    let mut d = 0.0;
                    for i in 1..n {
                        d += wbar[i] * v[off + i];
                    }
                    out[off] = scale * (w0 * v[off] + sign * d);
                    for i in 1..n {
                        out[off + i] = scale
                            * (sign * v[off] * wbar[i] + v[off + i] + d / (1.0 + w0) * wbar[i]);
                    }
                }
                _ => unreachable!("cone/scaling block mismatch"),
            }
        }
        out
    }
}

fn soc_residual(v: &DVector, off: usize, n: usize) -> f64 {
    let mut tail = 0.0;
    for i in 1..n {
        tail += v[off + i] * v[off + i];
    }
    v[off] * v[off] - tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn interior_soc(head_extra: f64, tail: &[f64]) -> Vec<f64> {
        let norm = tail.iter().map(|t| t * t).sum::<f64>().sqrt();
        let mut v = vec![norm + head_extra];
        v.extend_from_slice(tail);
        v
    }

    #[test]
    fn orthant_scaling_is_diagonal_sqrt_ratio() {
        let cone = Cone::new(vec![ConeBlock::NonNeg(2)]);
        let s = DVector::from_slice(&[4.0, 9.0]);
        let z = DVector::from_slice(&[1.0, 1.0]);
        let w = NtScaling::compute(&cone, &s, &z).unwrap();
        let e = DVector::from_slice(&[1.0, 1.0]);
        assert_eq!(w.apply(&e).as_slice(), &[2.0, 3.0]);
        assert_eq!(w.apply_inverse(&e).as_slice(), &[0.5, 1.0 / 3.0]);
    }

    #[test]
    fn rejects_non_interior_points() {
        let cone = Cone::new(vec![ConeBlock::NonNeg(1)]);
        let s = DVector::from_slice(&[0.0]);
        let z = DVector::from_slice(&[1.0]);
        assert!(NtScaling::compute(&cone, &s, &z).is_none());
        let cone = Cone::new(vec![ConeBlock::Soc(3)]);
        let s = DVector::from_slice(&[1.0, 1.0, 0.0]); // boundary
        let z = DVector::from_slice(&[2.0, 0.0, 0.0]);
        assert!(NtScaling::compute(&cone, &s, &z).is_none());
    }

    #[test]
    fn identity_scaling_when_s_equals_z() {
        let cone = Cone::new(vec![ConeBlock::Soc(4)]);
        let s = DVector::from_vec(interior_soc(1.0, &[0.5, -0.2, 0.8]));
        let w = NtScaling::compute(&cone, &s, &s).unwrap();
        let v = DVector::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let wv = w.apply(&v);
        for i in 0..4 {
            assert!((wv[i] - v[i]).abs() < 1e-12, "W should be the identity");
        }
    }

    #[test]
    fn defining_property_w_squared_z_equals_s() {
        let cone = Cone::new(vec![ConeBlock::NonNeg(2), ConeBlock::Soc(3)]);
        let s = DVector::from_slice(&[4.0, 1.0, 3.0, 1.0, 0.5]);
        let z = DVector::from_slice(&[1.0, 2.0, 2.0, -0.5, 0.3]);
        let w = NtScaling::compute(&cone, &s, &z).unwrap();
        let w2z = w.apply(&w.apply(&z));
        assert!((&w2z - &s).norm_inf() < 1e-9);
    }

    #[test]
    fn lambda_consistency() {
        let cone = Cone::new(vec![ConeBlock::Soc(3)]);
        let s = DVector::from_vec(interior_soc(0.7, &[0.3, -0.1]));
        let z = DVector::from_vec(interior_soc(1.3, &[-0.4, 0.2]));
        let w = NtScaling::compute(&cone, &s, &z).unwrap();
        let lambda_from_z = w.apply(&z);
        let lambda_from_s = w.apply_inverse(&s);
        assert!((&lambda_from_z - &lambda_from_s).norm_inf() < 1e-9);
        // λ must be interior as well.
        assert!(cone.is_interior(&lambda_from_z));
    }

    #[test]
    fn w_squared_matches_double_application() {
        let cone = Cone::new(vec![ConeBlock::NonNeg(2), ConeBlock::Soc(4)]);
        let s = DVector::from_slice(&[4.0, 1.0, 3.0, 1.0, 0.5, -0.8]);
        let z = DVector::from_slice(&[1.0, 2.0, 2.0, -0.5, 0.3, 0.4]);
        let w = NtScaling::compute(&cone, &s, &z).unwrap();
        let mut packed = Vec::new();
        w.w_squared_blocks(&mut packed);
        assert_eq!(packed.len(), 2 + 4 * 4);
        // Unpack into the dense W²: the orthant diagonal, then the SOC block.
        let dim = cone.dim();
        let mut w2 = vec![vec![0.0; dim]; dim];
        w2[0][0] = packed[0];
        w2[1][1] = packed[1];
        for i in 0..4 {
            for j in 0..4 {
                w2[2 + i][2 + j] = packed[2 + 4 * i + j];
            }
        }
        let mut basis = DVector::zeros(dim);
        for j in 0..dim {
            basis[j] = 1.0;
            let expected = w.apply(&w.apply(&basis));
            for i in 0..dim {
                assert!(
                    (w2[i][j] - expected[i]).abs() < 1e-10,
                    "entry ({i}, {j}) mismatch"
                );
            }
            basis[j] = 0.0;
        }
        // The buffer is reused: a second call replaces, never appends.
        w.w_squared_blocks(&mut packed);
        assert_eq!(packed.len(), 18);
    }

    #[test]
    fn inverse_roundtrip() {
        let cone = Cone::new(vec![ConeBlock::NonNeg(1), ConeBlock::Soc(4)]);
        let s = DVector::from_slice(&[2.0, 3.0, 1.0, -0.5, 0.7]);
        let z = DVector::from_slice(&[5.0, 4.0, -1.0, 1.5, 0.2]);
        let w = NtScaling::compute(&cone, &s, &z).unwrap();
        let v = DVector::from_slice(&[0.3, -1.0, 2.0, 0.1, -0.7]);
        let back = w.apply_inverse(&w.apply(&v));
        assert!((&back - &v).norm_inf() < 1e-10);
    }

    proptest! {
        #[test]
        fn prop_soc_scaling_properties(s_extra in 0.1f64..3.0,
                                       s1 in -2.0f64..2.0, s2 in -2.0f64..2.0,
                                       z_extra in 0.1f64..3.0,
                                       z1 in -2.0f64..2.0, z2 in -2.0f64..2.0) {
            let cone = Cone::new(vec![ConeBlock::Soc(3)]);
            let s = DVector::from_vec(interior_soc(s_extra, &[s1, s2]));
            let z = DVector::from_vec(interior_soc(z_extra, &[z1, z2]));
            let w = NtScaling::compute(&cone, &s, &z).unwrap();
            // Defining property.
            let w2z = w.apply(&w.apply(&z));
            prop_assert!((&w2z - &s).norm_inf() < 1e-7 * (1.0 + s.norm_inf()));
            // Inverse property.
            let v = DVector::from_slice(&[1.0, -0.3, 0.6]);
            let round = w.apply_inverse(&w.apply(&v));
            prop_assert!((&round - &v).norm_inf() < 1e-8);
            // λ interior and symmetric in the two definitions.
            let l1 = w.apply(&z);
            let l2 = w.apply_inverse(&s);
            prop_assert!((&l1 - &l2).norm_inf() < 1e-7);
            prop_assert!(cone.margin(&l1) > 0.0);
        }
    }
}
