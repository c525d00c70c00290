//! `rfic-layout` — concurrent device placement and fixed-length microstrip
//! routing for millimetre-wave CMOS RFICs.
//!
//! This is the facade crate of the workspace reproducing the DAC 2016 paper
//! *"Novel CMOS RFIC Layout Generation with Concurrent Device Placement and
//! Fixed-Length Microstrip Routing"* (Tseng et al.). It re-exports the
//! public API of every sub-crate:
//!
//! * [`geom`] — planar geometry (rectangles, rectilinear segments, bend
//!   smoothing, equivalent-length model).
//! * [`netlist`] — circuit model, technology rules and the synthetic
//!   benchmark circuits of Table 1.
//! * [`lp`] / [`milp`] — the linear-programming and branch-and-bound MILP
//!   solver substrate (the stand-in for the commercial solver used by the
//!   paper).
//! * [`core`] — the paper's contribution: the concurrent placement/routing
//!   ILP model and the progressive ILP (P-ILP) flow, plus DRC verification
//!   and reporting.
//! * [`em`] — thin-film microstrip transmission-line evaluation used to
//!   reproduce the S-parameter comparison of Figure 11.
//! * [`baseline`] — manual-style and sequential place-then-route baselines.
//!
//! # Quickstart
//!
//! The blocking one-shot entry point:
//!
//! ```
//! use rfic_layout::netlist::benchmarks;
//! use rfic_layout::core::{Pilp, PilpConfig};
//!
//! // Generate the small demonstration circuit and lay it out.
//! let circuit = benchmarks::tiny_circuit();
//! let layout = Pilp::new(PilpConfig::fast()).run(&circuit.netlist)?;
//! println!("total bends: {}", layout.report().total_bends);
//! # Ok::<(), rfic_layout::core::PilpError>(())
//! ```
//!
//! The same flow as an asynchronous job — submit returns immediately,
//! the solves run on a shared [`core::JobContext`] pool, and the handle
//! supports progress, cancellation and deadlines:
//!
//! ```no_run
//! use rfic_layout::netlist::benchmarks;
//! use rfic_layout::core::{JobContext, Pilp, PilpConfig};
//! use std::time::Duration;
//!
//! let circuit = benchmarks::tiny_circuit();
//! let config = PilpConfig {
//!     deadline: Some(Duration::from_secs(120)),
//!     ..PilpConfig::fast()
//! };
//! let ctx = JobContext::new(0); // 0 = hardware parallelism
//! let job = Pilp::new(config).submit_in(&circuit.netlist, &ctx);
//! println!("{} solves so far", job.progress().solves);
//! let layout = job.wait()?;
//! println!("total bends: {}", layout.report().total_bends);
//! ctx.shutdown();
//! # Ok::<(), rfic_layout::core::PilpError>(())
//! ```

#![forbid(unsafe_code)]

pub use rfic_baseline as baseline;
pub use rfic_core as core;
pub use rfic_em as em;
pub use rfic_geom as geom;
pub use rfic_lp as lp;
pub use rfic_milp as milp;
pub use rfic_netlist as netlist;

// The layout-job API at the crate root, so servers built on the facade
// can name the service types without digging through sub-crates.
pub use rfic_core::{
    FlowCache, JobContext, JobHandle, JobProgress, Pilp, PilpConfig, PilpError, PilpResult,
};
