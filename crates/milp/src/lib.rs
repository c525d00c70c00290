//! Mixed-integer linear programming on top of [`rfic_lp`].
//!
//! The DAC 2016 P-ILP layout flow expresses concurrent placement and
//! routing as integer linear programs and solves them with a commercial
//! solver. This crate provides the open substitute used throughout this
//! repository:
//!
//! * a [`Model`] builder with continuous, binary and general-integer
//!   variables, linear expressions ([`LinExpr`]) and `<=`/`>=`/`=`
//!   constraints;
//! * the big-M indicator constraints the paper's model relies on
//!   (following Chen/Batson/Dang) in [`linearize`];
//! * a **parallel best-first branch-and-bound** solver over the LP
//!   relaxation: a shared node pool ordered by LP bound
//!   ([`SolveOptions::threads`] workers, deterministic objective regardless
//!   of the thread count), most-fractional branching with no cutting
//!   planes (every node LP solves the presolved root relaxation plus its
//!   own bound changes), a rounding primal heuristic,
//!   time/node/gap limits and **warm-started node LPs**: every node
//!   re-enters from its parent's optimal basis through the dual simplex,
//!   and [`Model::solve_warm`] carries the root basis across solves of a
//!   growing model (the lazy constraint-separation protocol of the layout
//!   engine).
//!
//! # Examples
//!
//! A tiny knapsack:
//!
//! ```
//! use rfic_milp::{Model, Sense, SolveOptions, VarKind};
//!
//! let mut m = Model::new(Sense::Maximize);
//! let items = [(10.0, 60.0), (20.0, 100.0), (30.0, 120.0)];
//! let vars: Vec<_> = items
//!     .iter()
//!     .map(|&(_, value)| m.add_var(VarKind::Binary, 0.0, 1.0, value))
//!     .collect();
//! let weight = vars
//!     .iter()
//!     .zip(&items)
//!     .fold(rfic_milp::LinExpr::new(), |e, (&v, &(w, _))| e + (v, w));
//! m.add_le(weight, 50.0);
//! let solution = m.solve(&SolveOptions::default())?;
//! assert_eq!(solution.objective.round(), 220.0);
//! # Ok::<(), rfic_milp::MilpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expr;
pub mod instances;
pub mod linearize;
mod model;
mod pool;
mod solve;

pub use expr::LinExpr;
pub use model::{Model, VarId, VarKind};
pub use pool::SolverPool;
pub use rfic_lp::{
    Basis, CancelToken, ConstraintOp, PresolveConfig, PresolveStats, PricingRule, Sense,
};
pub use solve::{
    panic_payload_string, BranchRule, MilpError, MilpSolution, SolveOptions, SolveStatus, WarmStart,
};

/// Integrality tolerance: a value within this distance of an integer is
/// considered integral.
pub const INT_TOLERANCE: f64 = 1e-6;

/// Resolves a requested worker count: `0` means the available hardware
/// parallelism, capped at 8 (the node pools of the layout MILPs are too
/// shallow to feed more); any other count passes through unchanged.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    } else {
        requested
    }
}
