//! Problem modelling: named variables, affine constraints, second-order cone
//! constraints, and lowering to the standard conic form.

use crate::cone::{Cone, ConeBlock};
use crate::error::ConicError;
use bbs_linalg::{CsrMatrix, DVector};
use std::fmt;

/// Handle to a decision variable created by a [`ModelBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of the variable in the solution vector.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A linear expression `Σ coeffᵢ·xᵢ + constant`.
///
/// # Example
///
/// ```
/// use bbs_conic::{LinExpr, ModelBuilder};
///
/// let mut m = ModelBuilder::new();
/// let x = m.add_var("x");
/// let y = m.add_var("y");
/// let expr = LinExpr::new().plus(2.0, x).plus(-1.0, y).plus_constant(3.0);
/// assert_eq!(expr.terms().len(), 2);
/// assert_eq!(expr.constant(), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinExpr {
    terms: Vec<(VarId, f64)>,
    constant: f64,
}

impl LinExpr {
    /// Creates the zero expression.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an expression consisting of a single term `coeff · var`.
    pub fn term(coeff: f64, var: VarId) -> Self {
        Self::new().plus(coeff, var)
    }

    /// Creates a constant expression.
    pub fn constant_expr(value: f64) -> Self {
        Self {
            terms: Vec::new(),
            constant: value,
        }
    }

    /// Adds `coeff · var` and returns the updated expression.
    #[must_use]
    pub fn plus(mut self, coeff: f64, var: VarId) -> Self {
        self.terms.push((var, coeff));
        self
    }

    /// Adds a constant and returns the updated expression.
    #[must_use]
    pub fn plus_constant(mut self, value: f64) -> Self {
        self.constant += value;
        self
    }

    /// The (variable, coefficient) terms.
    pub fn terms(&self) -> &[(VarId, f64)] {
        &self.terms
    }

    /// The constant offset.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Evaluates the expression for a full solution vector.
    ///
    /// # Panics
    ///
    /// Panics if a referenced variable is out of bounds for `x`.
    pub fn eval(&self, x: &DVector) -> f64 {
        self.constant + self.terms.iter().map(|(v, c)| c * x[v.0]).sum::<f64>()
    }
}

/// Raw conic problem in standard form `min cᵀx  s.t. Gx + s = h, s ∈ K`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConeProblem {
    /// Objective vector `c`.
    pub c: DVector,
    /// Constraint matrix `G`, in compressed rows.
    pub g: CsrMatrix,
    /// Right-hand side `h`.
    pub h: DVector,
    /// Cone `K` (row blocks of `G`).
    pub cone: Cone,
}

impl ConeProblem {
    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.c.len()
    }

    /// Number of conic rows.
    pub fn num_rows(&self) -> usize {
        self.h.len()
    }

    /// Validates internal dimensional consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConicError::DimensionMismatch`] when the shapes of `c`,
    /// `G`, `h` and the cone do not line up, or when the data contains
    /// non-finite entries ([`ConicError::NonFiniteData`]).
    pub fn validate(&self) -> Result<(), ConicError> {
        if self.g.nrows() != self.h.len()
            || self.g.ncols() != self.c.len()
            || self.cone.dim() != self.h.len()
        {
            return Err(ConicError::DimensionMismatch {
                rows: self.g.nrows(),
                cols: self.g.ncols(),
                c_len: self.c.len(),
                h_len: self.h.len(),
                cone_dim: self.cone.dim(),
            });
        }
        let g_finite = (0..self.g.nrows()).all(|r| self.g.row(r).iter().all(|v| v.is_finite()));
        if !self.c.is_finite() || !self.h.is_finite() || !g_finite {
            return Err(ConicError::NonFiniteData);
        }
        Ok(())
    }
}

/// A named second-order cone constraint `‖A x + b‖₂ ≤ cᵀ x + d`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SocConstraint {
    /// The affine expression bounding the norm (the cone "head").
    pub bound: LinExpr,
    /// The affine expressions inside the norm (the cone "tail").
    pub norm_terms: Vec<LinExpr>,
}

/// Builder for conic optimisation models with named variables.
///
/// The builder supports exactly the constraint shapes needed by the
/// budget/buffer formulation (and by LPs in general):
///
/// * affine inequalities `expr ≤ rhs` / `expr ≥ rhs`,
/// * variable bounds,
/// * hyperbolic constraints `x·y ≥ k` (lowered to a 3-dimensional
///   second-order cone),
/// * general second-order cone constraints.
///
/// # Example
///
/// Minimise `x + y` subject to `x·y ≥ 4`, `x ≤ 8`:
///
/// ```
/// use bbs_conic::{ModelBuilder, IpmSettings};
///
/// let mut m = ModelBuilder::new();
/// let x = m.add_var("x");
/// let y = m.add_var("y");
/// m.set_objective(x, 1.0);
/// m.set_objective(y, 1.0);
/// m.bound_lower(x, 1e-6);
/// m.bound_lower(y, 1e-6);
/// m.bound_upper(x, 8.0);
/// m.add_hyperbolic(x, y, 4.0);
/// let model = m.build().unwrap();
/// let sol = model.solve(&IpmSettings::default()).unwrap();
/// // The optimum is x = y = 2 (AM-GM equality point).
/// assert!((sol.value(x) - 2.0).abs() < 1e-4);
/// assert!((sol.value(y) - 2.0).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ModelBuilder {
    names: Vec<String>,
    objective: Vec<f64>,
    lower: Vec<Option<f64>>,
    upper: Vec<Option<f64>>,
    // expr ≤ 0 rows (already normalised).
    le_rows: Vec<LinExpr>,
    hyperbolics: Vec<(VarId, VarId, f64)>,
    socs: Vec<SocConstraint>,
}

impl ModelBuilder {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a decision variable with objective coefficient 0.
    pub fn add_var(&mut self, name: impl Into<String>) -> VarId {
        let id = VarId(self.names.len());
        self.names.push(name.into());
        self.objective.push(0.0);
        self.lower.push(None);
        self.upper.push(None);
        id
    }

    /// Adds a decision variable with the given objective coefficient.
    pub fn add_var_with_cost(&mut self, name: impl Into<String>, cost: f64) -> VarId {
        let v = self.add_var(name);
        self.objective[v.0] = cost;
        v
    }

    /// Number of variables added so far.
    pub fn num_vars(&self) -> usize {
        self.names.len()
    }

    /// Sets (overwrites) the objective coefficient of a variable.
    pub fn set_objective(&mut self, var: VarId, cost: f64) {
        self.objective[var.0] = cost;
    }

    /// Adds `cost` to the objective coefficient of a variable.
    pub fn add_objective(&mut self, var: VarId, cost: f64) {
        self.objective[var.0] += cost;
    }

    /// Name of a variable.
    pub fn name(&self, var: VarId) -> &str {
        &self.names[var.0]
    }

    /// Imposes `var ≥ bound` (the tightest of repeated calls wins).
    pub fn bound_lower(&mut self, var: VarId, bound: f64) {
        let entry = &mut self.lower[var.0];
        *entry = Some(entry.map_or(bound, |b| b.max(bound)));
    }

    /// Imposes `var ≤ bound` (the tightest of repeated calls wins).
    pub fn bound_upper(&mut self, var: VarId, bound: f64) {
        let entry = &mut self.upper[var.0];
        *entry = Some(entry.map_or(bound, |b| b.min(bound)));
    }

    /// Adds the affine constraint `expr ≤ rhs`.
    pub fn add_le(&mut self, expr: LinExpr, rhs: f64) {
        self.le_rows.push(expr.plus_constant(-rhs));
    }

    /// Adds the affine constraint `expr ≥ rhs`.
    pub fn add_ge(&mut self, expr: LinExpr, rhs: f64) {
        // expr ≥ rhs  ⇔  −expr ≤ −rhs
        let negated = LinExpr {
            terms: expr.terms.iter().map(|&(v, c)| (v, -c)).collect(),
            constant: -expr.constant,
        };
        self.add_le(negated, -rhs);
    }

    /// Adds the hyperbolic constraint `x · y ≥ k` with `k > 0`.
    ///
    /// The constraint is lowered to the second-order cone
    /// `‖(2√k, x − y)‖₂ ≤ x + y`, which together with the cone's implied
    /// `x + y ≥ 0` encodes `x, y ≥ 0` and `x·y ≥ k`.
    ///
    /// # Panics
    ///
    /// Panics if `k ≤ 0` (use a plain bound instead).
    pub fn add_hyperbolic(&mut self, x: VarId, y: VarId, k: f64) {
        assert!(k > 0.0, "hyperbolic constraint requires k > 0, got {k}");
        self.hyperbolics.push((x, y, k));
    }

    /// Adds a general second-order cone constraint `‖norm_terms‖₂ ≤ bound`.
    pub fn add_soc(&mut self, constraint: SocConstraint) {
        self.socs.push(constraint);
    }

    /// The hyperbolic constraints `(x, y, k)` added so far (meaning
    /// `x·y ≥ k`). Used by the cutting-plane solver to build its outer
    /// approximation.
    pub fn hyperbolic_constraints(&self) -> &[(VarId, VarId, f64)] {
        &self.hyperbolics
    }

    /// Removes all hyperbolic constraints (their linear relaxations are then
    /// supplied as cuts by the cutting-plane solver).
    pub fn clear_hyperbolic_constraints(&mut self) {
        self.hyperbolics.clear();
    }

    /// Lowers the model to standard conic form, writing `G` in compressed
    /// rows.
    ///
    /// # Errors
    ///
    /// Returns an error when the generated data is dimensionally or
    /// numerically invalid (e.g. non-finite coefficients).
    pub fn build(&self) -> Result<Model, ConicError> {
        // Orthant rows: explicit ≤ rows plus bounds.
        let num_bounds = self.lower.iter().chain(&self.upper).flatten().count();
        let num_lin = self.le_rows.len() + num_bounds;
        let soc_rows = self
            .socs
            .iter()
            .flat_map(|s| std::iter::once(&s.bound).chain(&s.norm_terms));
        let rows = num_lin + 3 * self.hyperbolics.len() + soc_rows.clone().count();
        let exprs = self.le_rows.iter().chain(soc_rows);
        let terms: usize = exprs.map(|e| e.terms.len()).sum();
        // One update per bound and four per hyperbolic constraint.
        let mut g = RowAssembly::new(rows, terms + num_bounds + 4 * self.hyperbolics.len());
        let mut h = Vec::with_capacity(rows);
        let mut blocks = vec![ConeBlock::NonNeg(num_lin)];

        // expr ≤ 0  ⇔  expr_terms·x + s = −constant, s ≥ 0.
        for expr in &self.le_rows {
            g.push_row(expr.terms.iter().map(|&(v, c)| (v.0, c)));
            h.push(-expr.constant);
        }
        // Lower bounds x ≥ l as −x ≤ −l, then upper bounds x ≤ u.
        for (bounds, sign) in [(&self.lower, -1.0), (&self.upper, 1.0)] {
            for (i, bound) in bounds.iter().enumerate() {
                if let Some(bound) = bound {
                    g.push_row([(i, sign)]);
                    h.push(sign * bound);
                }
            }
        }
        // Hyperbolic constraints as 3-dimensional SOC blocks:
        // s = (x + y, x − y, 2√k) ∈ Q³.
        for &(x, y, k) in &self.hyperbolics {
            g.push_row([(x.0, -1.0), (y.0, -1.0)]);
            g.push_row([(x.0, -1.0), (y.0, 1.0)]);
            g.push_row([]);
            h.extend([0.0, 0.0, 2.0 * k.sqrt()]);
            blocks.push(ConeBlock::Soc(3));
        }
        // General SOC constraints: s = (bound, norm_terms…) ∈ Q^{1+t}.
        for soc in &self.socs {
            for expr in std::iter::once(&soc.bound).chain(&soc.norm_terms) {
                g.push_row(expr.terms.iter().map(|&(v, c)| (v.0, -c)));
                h.push(expr.constant);
            }
            blocks.push(ConeBlock::Soc(soc.norm_terms.len() + 1));
        }

        let problem = ConeProblem {
            c: DVector::from_slice(&self.objective),
            g: g.finish(self.names.len()),
            h: DVector::from_vec(h),
            cone: Cone::new(blocks),
        };
        problem.validate()?;
        Ok(Model { problem })
    }
}

/// `G` under assembly, row by row, into arrays sized once from a count of
/// the lowering's terms.
struct RowAssembly {
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl RowAssembly {
    fn new(rows: usize, terms: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        Self {
            row_ptr,
            col_idx: Vec::with_capacity(terms),
            values: Vec::with_capacity(terms),
        }
    }

    /// Appends a row of `(column, coefficient)` updates. A column's value is
    /// its coefficients summed in the given order, so a `-=` update adds its
    /// negated coefficient, and a column that sums to exactly `0.0` is not
    /// stored. That is the dense lowering's value bit for bit: its `+0.0`
    /// start can change only the sign of a zero sum.
    fn push_row(&mut self, updates: impl IntoIterator<Item = (usize, f64)>) {
        let start = self.col_idx.len();
        for (col, coeff) in updates {
            match self.col_idx[start..].binary_search(&col) {
                Ok(p) => self.values[start + p] += coeff,
                Err(p) => {
                    self.col_idx.insert(start + p, col);
                    self.values.insert(start + p, coeff);
                }
            }
        }
        let mut end = start;
        for p in start..self.col_idx.len() {
            if self.values[p] != 0.0 {
                self.col_idx[end] = self.col_idx[p];
                self.values[end] = self.values[p];
                end += 1;
            }
        }
        self.col_idx.truncate(end);
        self.values.truncate(end);
        self.row_ptr.push(end);
    }

    fn finish(self, cols: usize) -> CsrMatrix {
        let rows = self.row_ptr.len() - 1;
        CsrMatrix::from_parts(rows, cols, self.row_ptr, self.col_idx, self.values)
    }
}

/// A built conic model ready to be solved.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    problem: ConeProblem,
}

impl Model {
    /// The underlying standard-form problem.
    pub fn problem(&self) -> &ConeProblem {
        &self.problem
    }

    /// Solves the model with the interior-point method.
    ///
    /// # Errors
    ///
    /// Propagates solver failures; see [`crate::solve_cone_problem`].
    pub fn solve(&self, settings: &crate::IpmSettings) -> Result<Solution, ConicError> {
        let raw = crate::solve_cone_problem(&self.problem, settings)?;
        Ok(Solution { raw })
    }
}

/// Solution of a [`Model`], wrapping the raw solver output with named access.
#[derive(Debug, Clone)]
pub struct Solution {
    raw: crate::RawSolution,
}

impl Solution {
    /// Value of a variable.
    pub fn value(&self, var: VarId) -> f64 {
        self.raw.x[var.0]
    }

    /// Objective value `cᵀx`.
    pub fn objective(&self) -> f64 {
        self.raw.primal_objective
    }

    /// Termination status.
    pub fn status(&self) -> crate::SolveStatus {
        self.raw.status
    }

    /// Number of interior-point iterations performed.
    pub fn iterations(&self) -> usize {
        self.raw.iterations
    }

    /// The raw solver output (primal/dual iterates and residuals).
    pub fn raw(&self) -> &crate::RawSolution {
        &self.raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IpmSettings;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The dense reference lowering of `b`'s `G`, row by row: zero rows
    /// with every update applied in place, `+=`, `-=` and `=` as written.
    fn dense_lowering(b: &ModelBuilder) -> Vec<Vec<f64>> {
        let rows = |e: &[LinExpr]| e.len();
        let bounds = b.lower.iter().chain(&b.upper).flatten().count();
        let socs: usize = b.socs.iter().map(|s| 1 + rows(&s.norm_terms)).sum();
        let m = rows(&b.le_rows) + bounds + 3 * b.hyperbolics.len() + socs;
        let mut g = vec![vec![0.0; b.num_vars()]; m];
        let mut row = 0;
        for expr in &b.le_rows {
            for &(v, c) in expr.terms() {
                g[row][v.0] += c;
            }
            row += 1;
        }
        for (bounds, sign) in [(&b.lower, -1.0), (&b.upper, 1.0)] {
            for (i, bound) in bounds.iter().enumerate() {
                if bound.is_some() {
                    g[row][i] = sign;
                    row += 1;
                }
            }
        }
        for &(x, y, _) in &b.hyperbolics {
            g[row][x.0] -= 1.0;
            g[row][y.0] -= 1.0;
            g[row + 1][x.0] -= 1.0;
            g[row + 1][y.0] += 1.0;
            row += 3;
        }
        for soc in &b.socs {
            for expr in std::iter::once(&soc.bound).chain(&soc.norm_terms) {
                for &(v, c) in expr.terms() {
                    g[row][v.0] -= c;
                }
                row += 1;
            }
        }
        g
    }

    /// A random expression over `vars` that repeats variables and holds
    /// zero coefficients, pairs that cancel to exactly `0.0` and sums that
    /// cancel only up to rounding (`0.1 + 0.2 − 0.3`).
    fn random_expr(rng: &mut SmallRng, vars: &[VarId]) -> LinExpr {
        let mut e = LinExpr::constant_expr(rng.gen_range(-5.0..5.0));
        for _ in 0..rng.gen_range(0..6usize) {
            let v = vars[rng.gen_range(0..vars.len())];
            let c = match rng.gen_range(0..6u32) {
                0 => 0.0,
                1 => -0.0,
                2 => [0.1, 0.2, -0.3][rng.gen_range(0..3usize)],
                _ => rng.gen_range(-3.0..3.0),
            };
            e = e.plus(c, v);
            if rng.gen_bool(0.3) {
                e = e.plus(-c, v);
            }
        }
        e
    }

    /// A random model with every constraint shape, hyperbolic constraints
    /// on one variable twice included.
    fn random_builder(rng: &mut SmallRng) -> (ModelBuilder, Vec<VarId>) {
        let mut m = ModelBuilder::new();
        let vars: Vec<VarId> = (0..rng.gen_range(1..6usize))
            .map(|i| m.add_var_with_cost(format!("x{i}"), rng.gen_range(-2.0..2.0)))
            .collect();
        let pick = |rng: &mut SmallRng| vars[rng.gen_range(0..vars.len())];
        for _ in 0..rng.gen_range(0..5usize) {
            let e = random_expr(rng, &vars);
            if rng.gen_bool(0.5) {
                m.add_le(e, 1.0);
            } else {
                m.add_ge(e, -1.0);
            }
        }
        for _ in 0..rng.gen_range(0..4usize) {
            let v = pick(rng);
            if rng.gen_bool(0.5) {
                m.bound_lower(v, rng.gen_range(-2.0..0.0));
            } else {
                m.bound_upper(v, rng.gen_range(0.0..2.0));
            }
        }
        for _ in 0..rng.gen_range(0..3usize) {
            let x = pick(rng);
            let y = if rng.gen_bool(0.5) { x } else { pick(rng) };
            m.add_hyperbolic(x, y, rng.gen_range(0.5..4.0));
        }
        for _ in 0..rng.gen_range(0..3usize) {
            let bound = random_expr(rng, &vars);
            let norm_terms = (0..rng.gen_range(0..3usize))
                .map(|_| random_expr(rng, &vars))
                .collect();
            m.add_soc(SocConstraint { bound, norm_terms });
        }
        (m, vars)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn prop_lowering_stores_the_dense_lowering_without_zeros(seed in 0u64..100_000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (builder, vars) = random_builder(&mut rng);
            let g = builder.build().unwrap().problem().g.clone();
            let dense = dense_lowering(&builder);
            prop_assert_eq!((g.nrows(), g.ncols()), (dense.len(), builder.num_vars()));
            for (r, dense_row) in dense.iter().enumerate() {
                let (cols, vals) = g.row_entries(r);
                prop_assert!(vals.iter().all(|&v| v != 0.0), "row {} stores a zero", r);
                let mut row = vec![0.0_f64; builder.num_vars()];
                for (&c, &v) in cols.iter().zip(vals) {
                    row[c] = v;
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&row), bits(dense_row));
            }
            // A non-finite coefficient, alone or summed with its negation
            // into NaN, in an orthant row or a cone row, is still rejected.
            let mut bad = builder.clone();
            let c = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)];
            let e = random_expr(&mut rng, &vars).plus(c, vars[0]);
            match rng.gen_range(0..3u32) {
                0 => bad.add_le(e, 0.0),
                1 => bad.add_ge(e.plus(-c, vars[0]), 0.0),
                _ => bad.add_soc(SocConstraint { bound: LinExpr::new(), norm_terms: vec![e] }),
            }
            prop_assert!(matches!(bad.build(), Err(ConicError::NonFiniteData)));
        }
    }

    #[test]
    fn lin_expr_construction_and_eval() {
        let mut m = ModelBuilder::new();
        let x = m.add_var("x");
        let y = m.add_var("y");
        let e = LinExpr::term(2.0, x).plus(3.0, y).plus_constant(1.0);
        let v = DVector::from_slice(&[1.0, 2.0]);
        assert_eq!(e.eval(&v), 9.0);
        assert_eq!(LinExpr::constant_expr(5.0).eval(&v), 5.0);
        assert_eq!(format!("{x}"), "x0");
    }

    #[test]
    fn builder_counts_and_names() {
        let mut m = ModelBuilder::new();
        let a = m.add_var("alpha");
        let b = m.add_var_with_cost("beta", 2.0);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.name(a), "alpha");
        assert_eq!(m.name(b), "beta");
        m.add_objective(b, 1.0);
        m.set_objective(a, 4.0);
        let model = m.build().unwrap();
        assert_eq!(model.problem().c.as_slice(), &[4.0, 3.0]);
    }

    #[test]
    fn bounds_tighten() {
        let mut m = ModelBuilder::new();
        let x = m.add_var("x");
        m.bound_lower(x, 1.0);
        m.bound_lower(x, 3.0);
        m.bound_lower(x, 2.0);
        m.bound_upper(x, 10.0);
        m.bound_upper(x, 7.0);
        m.set_objective(x, 1.0);
        let model = m.build().unwrap();
        let sol = model.solve(&IpmSettings::default()).unwrap();
        assert!((sol.value(x) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn standard_form_shapes() {
        let mut m = ModelBuilder::new();
        let x = m.add_var("x");
        let y = m.add_var("y");
        m.add_le(LinExpr::term(1.0, x).plus(1.0, y), 4.0);
        m.add_ge(LinExpr::term(1.0, x), 1.0);
        m.bound_lower(y, 0.0);
        m.add_hyperbolic(x, y, 1.0);
        let model = m.build().unwrap();
        let p = model.problem();
        // rows: 2 linear + 1 bound + 3 SOC = 6
        assert_eq!(p.num_rows(), 6);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.cone.degree(), 4);
        p.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "requires k > 0")]
    fn hyperbolic_rejects_nonpositive_k() {
        let mut m = ModelBuilder::new();
        let x = m.add_var("x");
        let y = m.add_var("y");
        m.add_hyperbolic(x, y, 0.0);
    }

    #[test]
    fn validate_catches_nonfinite() {
        let p = ConeProblem {
            c: DVector::from_slice(&[f64::NAN]),
            g: CsrMatrix::from_parts(1, 1, vec![0, 0], vec![], vec![]),
            h: DVector::zeros(1),
            cone: Cone::new(vec![ConeBlock::NonNeg(1)]),
        };
        assert!(matches!(p.validate(), Err(ConicError::NonFiniteData)));
    }

    #[test]
    fn validate_catches_shape_mismatch() {
        let p = ConeProblem {
            c: DVector::zeros(2),
            g: CsrMatrix::from_parts(3, 1, vec![0; 4], vec![], vec![]),
            h: DVector::zeros(3),
            cone: Cone::new(vec![ConeBlock::NonNeg(3)]),
        };
        assert!(matches!(
            p.validate(),
            Err(ConicError::DimensionMismatch { .. })
        ));
    }
}
