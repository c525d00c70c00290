//! Linear expressions over model variables.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

use crate::model::VarId;

/// A linear expression `sum(coeff_i * var_i) + constant`.
///
/// Expressions are built with ordinary operators; `(VarId, f64)` pairs and
/// bare [`VarId`]s convert implicitly.
///
/// # Examples
///
/// ```
/// use rfic_milp::{LinExpr, Model, Sense};
///
/// let mut m = Model::new(Sense::Minimize);
/// let x = m.add_continuous(0.0, 10.0, 0.0);
/// let y = m.add_continuous(0.0, 10.0, 0.0);
/// let expr = LinExpr::from(x) * 2.0 + (y, -1.0) + 3.0;
/// assert_eq!(expr.coeff(x), 2.0);
/// assert_eq!(expr.coeff(y), -1.0);
/// assert_eq!(expr.constant(), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinExpr {
    terms: BTreeMap<VarId, f64>,
    constant: f64,
}

impl LinExpr {
    /// The empty expression (`0`).
    pub fn new() -> LinExpr {
        LinExpr::default()
    }

    /// An expression consisting of a single constant.
    pub fn constant_term(value: f64) -> LinExpr {
        LinExpr {
            terms: BTreeMap::new(),
            constant: value,
        }
    }

    /// An expression that is a single variable with coefficient 1.
    pub fn var(v: VarId) -> LinExpr {
        LinExpr::from(v)
    }

    /// Sum of a set of variables, each with coefficient 1.
    pub fn sum<I: IntoIterator<Item = VarId>>(vars: I) -> LinExpr {
        let mut e = LinExpr::new();
        for v in vars {
            e.add_term(v, 1.0);
        }
        e
    }

    /// Adds `coeff * var` to the expression.
    pub fn add_term(&mut self, var: VarId, coeff: f64) -> &mut Self {
        let entry = self.terms.entry(var).or_insert(0.0);
        *entry += coeff;
        if entry.abs() < 1e-15 {
            self.terms.remove(&var);
        }
        self
    }

    /// The coefficient of `var` (0 if absent).
    pub fn coeff(&self, var: VarId) -> f64 {
        self.terms.get(&var).copied().unwrap_or(0.0)
    }

    /// The constant term.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Iterator over `(var, coeff)` terms in variable order.
    pub fn terms(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.terms.iter().map(|(&v, &c)| (v, c))
    }

    /// Evaluates the expression for a full assignment of variable values
    /// indexed by [`VarId`].
    pub fn evaluate(&self, values: &[f64]) -> f64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|(v, c)| c * values.get(v.index()).copied().unwrap_or(0.0))
                .sum::<f64>()
    }
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> Self {
        let mut e = LinExpr::new();
        e.add_term(v, 1.0);
        e
    }
}

impl From<(VarId, f64)> for LinExpr {
    fn from((v, c): (VarId, f64)) -> Self {
        let mut e = LinExpr::new();
        e.add_term(v, c);
        e
    }
}

impl From<f64> for LinExpr {
    fn from(c: f64) -> Self {
        LinExpr::constant_term(c)
    }
}

impl<T: Into<LinExpr>> Add<T> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: T) -> LinExpr {
        self += rhs.into();
        self
    }
}

impl AddAssign<LinExpr> for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
        self.constant += rhs.constant;
    }
}

impl<T: Into<LinExpr>> Sub<T> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: T) -> LinExpr {
        self -= rhs.into();
        self
    }
}

impl SubAssign<LinExpr> for LinExpr {
    fn sub_assign(&mut self, rhs: LinExpr) {
        for (v, c) in rhs.terms {
            self.add_term(v, -c);
        }
        self.constant -= rhs.constant;
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, rhs: f64) -> LinExpr {
        for c in self.terms.values_mut() {
            *c *= rhs;
        }
        self.constant *= rhs;
        self.terms.retain(|_, c| c.abs() > 1e-15);
        self
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self * -1.0
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in &self.terms {
            if first {
                write!(f, "{c}*x{}", v.index())?;
                first = false;
            } else {
                write!(f, " + {c}*x{}", v.index())?;
            }
        }
        if self.constant != 0.0 || first {
            if first {
                write!(f, "{}", self.constant)?;
            } else {
                write!(f, " + {}", self.constant)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, VarKind};
    use crate::Sense;

    fn vars() -> (Model, VarId, VarId) {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(VarKind::Continuous, 0.0, 1.0, 0.0);
        let y = m.add_var(VarKind::Continuous, 0.0, 1.0, 0.0);
        (m, x, y)
    }

    #[test]
    fn arithmetic_builds_expected_terms() {
        let (_m, x, y) = vars();
        let e = LinExpr::from(x) * 3.0 + (y, 2.0) - 1.0;
        assert_eq!(e.coeff(x), 3.0);
        assert_eq!(e.coeff(y), 2.0);
        assert_eq!(e.constant(), -1.0);
        assert_eq!(e.terms.len(), 2);
        let e2 = -e.clone() + e.clone();
        assert!(e2.terms.is_empty());
        assert_eq!(e2.constant(), 0.0);
    }

    #[test]
    fn cancelling_terms_are_removed() {
        let (_m, x, _y) = vars();
        let e = LinExpr::from(x) - x;
        assert!(e.terms.is_empty());
    }

    #[test]
    fn sum_and_evaluate() {
        let (_m, x, y) = vars();
        let e = LinExpr::sum([x, y]) + 1.5;
        assert_eq!(e.evaluate(&[2.0, 3.0]), 6.5);
        assert_eq!(LinExpr::constant_term(4.0).evaluate(&[]), 4.0);
    }

    #[test]
    fn display_is_readable() {
        let (_m, x, _y) = vars();
        let e = LinExpr::from((x, 2.0)) + 1.0;
        let s = e.to_string();
        assert!(s.contains("2*x0"));
        assert!(s.contains("+ 1"));
        assert_eq!(LinExpr::new().to_string(), "0");
    }
}
