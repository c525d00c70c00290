//! Baseline RFIC layout flows used as comparison points for the P-ILP
//! engine.
//!
//! Three baselines back the evaluation:
//!
//! * [`manual`] — the *manual-style* layout: the meandering, many-bend but
//!   length-exact layout a designer produces by iterative polygon pushing
//!   (Table 1's "Manual" column). For the synthetic benchmark circuits this
//!   is the generator's witness layout, plus the published reference
//!   numbers of the real manual designs in [`mod@reference`].
//! * [`sequential`] — a floorplan-then-route flow in the spirit of the
//!   prior work the paper compares against (Aktuna et al.): devices are
//!   placed first (without any knowledge of the length targets), then each
//!   microstrip is routed with a grid maze router. It produces planar
//!   layouts but cannot hit the exact lengths — demonstrating why
//!   concurrent placement/routing is needed.
//! * [`mod@reference`] — the published Table-1 numbers of the paper, for
//!   side-by-side printing in the benchmark harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manual;
pub mod maze;
pub mod reference;
pub mod sequential;

pub use manual::manual_layout;
pub use reference::{published_table1, PublishedRow};
pub use sequential::{sequential_layout, SequentialOptions};
