//! LP modelling layer: variables, constraints, objective.
//!
//! The builder produces a sparse intermediate representation which the
//! simplex module densifies. All variables are non-negative (`x >= 0`);
//! upper bounds are expressed as ordinary constraints, which is the form the
//! SUU relaxations need.

use std::fmt;

/// Handle to a decision variable created by [`LpBuilder::add_var`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of the variable in [`LpSolution::x`].
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `=`
    Eq,
}

/// Objective sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    Minimize,
    Maximize,
}

/// Terminal status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic feasible solution was found.
    Optimal,
    /// The constraint system admits no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

/// Errors that prevent a solve from terminating normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// The pivot loop exceeded its hard iteration budget. With Bland's rule
    /// this indicates a bug or a pathologically conditioned model, so it is
    /// surfaced rather than silently looping.
    IterationLimit {
        /// Phase (1 or 2) in which the limit was hit.
        phase: u8,
        /// Number of pivots performed.
        iterations: usize,
    },
    /// A constraint referenced a variable id from a different model.
    BadVariable(usize),
    /// A coefficient or right-hand side was NaN/infinite.
    NotFinite,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::IterationLimit { phase, iterations } => write!(
                f,
                "simplex iteration limit reached in phase {phase} after {iterations} pivots"
            ),
            LpError::BadVariable(i) => write!(f, "constraint references unknown variable #{i}"),
            LpError::NotFinite => write!(f, "model contains NaN or infinite coefficients"),
        }
    }
}

impl std::error::Error for LpError {}

/// Solution returned by [`LpBuilder::solve`].
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Terminal status. `objective`/`x` are meaningful only for `Optimal`.
    pub status: LpStatus,
    /// Objective value in the *original* sense (max problems are negated
    /// internally and restored here).
    pub objective: f64,
    /// Value per variable, indexed by [`VarId::index`].
    pub x: Vec<f64>,
    /// Number of simplex pivots performed across both phases.
    pub pivots: usize,
}

impl LpSolution {
    /// Value of a single variable.
    #[inline]
    pub fn value(&self, v: VarId) -> f64 {
        self.x[v.0]
    }
}

/// Sparse row: list of `(column, coefficient)` plus comparison and rhs.
#[derive(Debug, Clone)]
pub(crate) struct Row {
    pub terms: Vec<(usize, f64)>,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// Incrementally built LP model.
///
/// All variables satisfy `x >= 0`. The objective is supplied per-variable at
/// creation time ([`LpBuilder::add_var`]).
#[derive(Debug, Clone)]
pub struct LpBuilder {
    pub(crate) sense: Sense,
    pub(crate) obj: Vec<f64>,
    pub(crate) rows: Vec<Row>,
}

impl LpBuilder {
    /// New minimization model.
    pub fn minimize() -> Self {
        LpBuilder {
            sense: Sense::Minimize,
            obj: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// New maximization model.
    pub fn maximize() -> Self {
        LpBuilder {
            sense: Sense::Maximize,
            obj: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Add a non-negative variable with the given objective coefficient.
    pub fn add_var(&mut self, obj_coeff: f64) -> VarId {
        self.obj.push(obj_coeff);
        VarId(self.obj.len() - 1)
    }

    /// Number of variables added so far.
    pub fn num_vars(&self) -> usize {
        self.obj.len()
    }

    /// Add the constraint `sum(terms) cmp rhs`.
    ///
    /// Duplicate variables within `terms` are allowed; their coefficients
    /// accumulate.
    pub fn add_constraint(&mut self, terms: &[(VarId, f64)], cmp: Cmp, rhs: f64) {
        let terms = terms.iter().map(|&(v, c)| (v.0, c)).collect();
        self.rows.push(Row { terms, cmp, rhs });
    }

    /// Solve the model.
    ///
    /// Returns `Ok` with a status of `Optimal`, `Infeasible` or `Unbounded`;
    /// `Err` only for malformed models or an exhausted pivot budget.
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        // Validate.
        for (ri, row) in self.rows.iter().enumerate() {
            let _ = ri;
            if !row.rhs.is_finite() {
                return Err(LpError::NotFinite);
            }
            for &(v, c) in &row.terms {
                if v >= self.obj.len() {
                    return Err(LpError::BadVariable(v));
                }
                if !c.is_finite() {
                    return Err(LpError::NotFinite);
                }
            }
        }
        if self.obj.iter().any(|c| !c.is_finite()) {
            return Err(LpError::NotFinite);
        }

        // Internally we always minimize.
        let obj: Vec<f64> = match self.sense {
            Sense::Minimize => self.obj.clone(),
            Sense::Maximize => self.obj.iter().map(|c| -c).collect(),
        };

        let mut sol = crate::solve_standard_form(&obj, &self.rows)?;
        if self.sense == Sense::Maximize {
            sol.objective = -sol.objective;
        }
        Ok(sol)
    }
}

#[cfg(test)]
mod model_tests {
    use super::*;

    #[test]
    fn var_ids_are_sequential() {
        let mut lp = LpBuilder::minimize();
        let a = lp.add_var(1.0);
        let b = lp.add_var(2.0);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(lp.num_vars(), 2);
    }

    #[test]
    fn bad_variable_is_reported() {
        let mut lp = LpBuilder::minimize();
        let _x = lp.add_var(1.0);
        // Forge a row referencing a variable that does not exist.
        lp.rows.push(Row {
            terms: vec![(7, 1.0)],
            cmp: Cmp::Ge,
            rhs: 0.0,
        });
        assert_eq!(lp.solve().unwrap_err(), LpError::BadVariable(7));
    }

    #[test]
    fn nan_rhs_is_reported() {
        let mut lp = LpBuilder::minimize();
        let x = lp.add_var(1.0);
        lp.add_constraint(&[(x, 1.0)], Cmp::Ge, f64::NAN);
        assert_eq!(lp.solve().unwrap_err(), LpError::NotFinite);
    }
}
