//! Progressive ILP-based RFIC layout generation.
//!
//! This crate implements the primary contribution of the DAC 2016 paper
//! *"Novel CMOS RFIC Layout Generation with Concurrent Device Placement and
//! Fixed-Length Microstrip Routing"* (Tseng et al.):
//!
//! * [`model`] — the concurrent placement-and-routing ILP of Section 4
//!   (direction variables, chain-point bends, exact equivalent lengths,
//!   pad/pin constraints and big-M non-overlap disjunctions);
//! * [`pilp`] — the three-phase progressive flow of Section 5 that makes the
//!   model tractable (blurred-device global routing, device visualisation
//!   and overlap fixing, iterative refinement with chain-point
//!   deletion/insertion and device rotation);
//! * [`job`] and [`cache`] — the asynchronous layout-job API
//!   ([`Pilp::submit_in`] → [`JobHandle`]) multiplexing every job's MILP
//!   solves over one shared [`rfic_milp::SolverPool`], with cancellation,
//!   deadlines, progress and a cross-request solve-site cache;
//! * [`layout`], [`drc`], [`report`] and [`render`] — the layout data model,
//!   design-rule/length verification, Table-1 style reporting and simple
//!   ASCII/SVG visualisation.
//!
//! # Examples
//!
//! Blocking single-shot flow:
//!
//! ```
//! use rfic_core::{Pilp, PilpConfig};
//! use rfic_netlist::benchmarks;
//!
//! let circuit = benchmarks::tiny_circuit();
//! let result = Pilp::new(PilpConfig::fast()).run(&circuit.netlist)?;
//! println!("{}", result.report());
//! assert!(result.layout.is_complete(&circuit.netlist));
//! # Ok::<(), rfic_core::PilpError>(())
//! ```
//!
//! The same flow as an asynchronous job with progress and cancellation,
//! on a [`JobContext`] (solver pool and solve-site cache) the caller owns:
//!
//! ```no_run
//! use rfic_core::{JobContext, Pilp, PilpConfig};
//! use rfic_netlist::benchmarks;
//!
//! let circuit = benchmarks::tiny_circuit();
//! let ctx = JobContext::new(2);
//! let job = Pilp::new(PilpConfig::fast()).submit_in(&circuit.netlist, &ctx);
//! println!("{} solves so far", job.progress().solves);
//! let result = job.wait()?;
//! assert!(result.layout.is_complete(&circuit.netlist));
//! ctx.shutdown();
//! # Ok::<(), rfic_core::PilpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod drc;
pub mod job;
pub mod layout;
pub mod model;
pub mod pilp;
pub mod render;
pub mod report;

pub use cache::{FlowCache, ModelCache};
pub use drc::{check as drc_check, DrcOptions, DrcReport, DrcViolation};
pub use job::{JobContext, JobHandle, JobProgress, SweepHandle};
pub use layout::{Layout, Placement};
pub use model::{IlpConfig, IlpError, IlpOutcome, IlpWeights, LayoutIlp, ObjectId, PairSpec};
pub use pilp::{
    legalize_placements, PhaseBudgets, PhaseSnapshot, Pilp, PilpConfig, PilpError, PilpPhase,
    PilpResult, SolverTotals,
};
pub use report::{ComparisonRow, LayoutReport, StripReport};
