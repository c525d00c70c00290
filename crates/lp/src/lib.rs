//! A self-contained sparse linear-programming solver.
//!
//! This crate is the numerical substrate underneath the MILP layer
//! (`rfic-milp`) and, transitively, the progressive-ILP RFIC layout engine.
//! The DAC 2016 paper solves its models with a commercial solver; this
//! crate provides the open equivalent: a **bounded-variable revised
//! simplex** over a compressed-sparse-column matrix ([`CscMatrix`]) with
//!
//! * arbitrary variable bounds handled natively (finite, one-sided or
//!   free — no variable splitting), plus bound-to-bound flips,
//! * `<=`, `>=` and `=` constraints,
//! * minimisation or maximisation objectives,
//! * an LU-factorised basis with product-form (eta) updates and periodic
//!   refactorisation,
//! * **warm starts**: [`LinearProgram::solve_warm`] accepts the [`Basis`]
//!   of a previous solve — also of a smaller model — and re-enters through
//!   the **dual simplex**, which makes branch-and-bound bound changes and
//!   lazily separated constraints cheap re-solves,
//! * **dual steepest-edge pricing** with a **bound-flipping (long-step)
//!   dual ratio test** ([`PricingRule::DualSteepestEdge`]): `δ²/β`
//!   leaving-row selection with Forrest–Goldfarb reference weights that
//!   survive warm-start handoff on the [`Basis`], and batched
//!   bound-to-bound flips of boxed nonbasics — the accelerator for the
//!   warm branch-and-bound re-solve path,
//! * an **objective cutoff** ([`LinearProgram::set_cutoff`]) that stops a
//!   warm dual re-solve as soon as its dual bound proves the optimum
//!   cannot beat it — branch and bound's incumbent pruning, applied
//!   inside the node LP,
//! * infeasibility and unboundedness detection, and
//! * Bland's anti-cycling rule as a fallback after degenerate stalls.
//!
//! The original dense two-phase tableau implementation is retained as a
//! hidden test oracle (`LinearProgram::solve_dense`); the golden regression
//! suite asserts that both solvers agree on objectives and status.
//!
//! # Examples
//!
//! ```
//! use rfic_lp::{ConstraintOp, LinearProgram, Sense};
//!
//! // maximise 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6,  x, y >= 0
//! let mut lp = LinearProgram::new(2, Sense::Maximize);
//! lp.set_objective_coeff(0, 3.0);
//! lp.set_objective_coeff(1, 2.0);
//! lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Le, 4.0);
//! lp.add_constraint(vec![(0, 1.0), (1, 3.0)], ConstraintOp::Le, 6.0);
//! let solution = lp.solve()?;
//! assert!((solution.objective - 12.0).abs() < 1e-6);
//! assert!((solution.values[0] - 4.0).abs() < 1e-6);
//! # Ok::<(), rfic_lp::LpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod basis;
mod dense;
pub mod fault;
mod presolve;
mod problem;
mod revised;
mod sparse;
pub mod sync;

pub use presolve::{Postsolve, PresolveConfig, PresolveStats, Presolved};

/// Hidden exports for the `rfic-bench` microbenches (`lp_ftran` /
/// `lp_btran` drive the factorisation kernels directly). Not a public
/// API — no stability promises.
#[doc(hidden)]
pub mod bench_support {
    pub use crate::basis::{Factorization, SingularBasis};
}
pub use problem::{
    CancelToken, Constraint, ConstraintOp, LinearProgram, LpError, LpSolution, PricingRule, Sense,
};
pub use revised::Basis;
pub use sparse::{CscMatrix, CsrMatrix, ScatterVec};

/// Numerical tolerance used by the solver for feasibility and optimality
/// tests.
pub const TOLERANCE: f64 = 1e-7;

// The warm-start state and the model itself cross thread boundaries in the
// parallel branch-and-bound layer; keep them `Send + Sync` by construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Basis>();
    assert_send_sync::<LinearProgram>();
    assert_send_sync::<LpSolution>();
};
