//! The independent verifier. It trusts nothing the job reports about its
//! own layout (`LayoutReport` is never read): lengths are recomputed
//! strip by strip, the DRC runs again with default options, and the SVG
//! is compared byte for byte with the reference SVG of the same input.

use std::fmt;
use std::time::{Duration, Instant};

use rfic_core::{drc_check, render, DrcOptions, Layout, PilpError, PilpResult};
use rfic_netlist::Netlist;

use crate::trace::Tracer;

/// A strip whose recomputed length misses its target by this much fails.
pub const LENGTH_TOLERANCE_UM: f64 = 1e-3;

/// Why a request failed.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// The job returned an error.
    Error(String),
    /// A device or strip is missing from the layout.
    Incomplete,
    /// A strip's recomputed length misses its target.
    Length {
        /// Strip name.
        strip: String,
        /// Signed error, µm (`NaN` when unrouted).
        error: f64,
    },
    /// The DRC reports violations.
    Drc {
        /// Number of violations.
        violations: usize,
    },
    /// The SVG differs from the reference SVG of the same input.
    SvgMismatch,
}

impl Failure {
    /// Short class name, as counted in the report.
    pub fn kind(&self) -> &'static str {
        match self {
            Failure::Error(_) => "error",
            Failure::Incomplete => "incomplete",
            Failure::Length { .. } => "length",
            Failure::Drc { .. } => "drc",
            Failure::SvgMismatch => "svg_mismatch",
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Error(e) => write!(f, "job error: {e}"),
            Failure::Incomplete => f.write_str("layout incomplete"),
            Failure::Length { strip, error } => {
                write!(f, "strip {strip} misses its length by {error:.6} um")
            }
            Failure::Drc { violations } => write!(f, "{violations} DRC violation(s)"),
            Failure::SvgMismatch => {
                f.write_str("SVG differs from the reference for the same input")
            }
        }
    }
}

/// A verified layout.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The rendered SVG.
    pub svg: String,
    /// Total bends.
    pub total_bends: usize,
    /// Most bends on one strip.
    pub max_bends: usize,
    /// Time in `drc_check`.
    pub drc: Duration,
    /// Time in `render::svg`.
    pub render: Duration,
}

/// Where the verifier records its spans.
#[derive(Clone, Copy)]
pub struct SpanSite<'a> {
    /// The recorder.
    pub tracer: &'a Tracer,
    /// The request span the `verify` and `render.svg` spans hang under.
    pub parent: Option<usize>,
    /// The request id.
    pub request: u64,
}

/// Checks a job's outcome: error, completeness, every strip's length,
/// DRC, then the SVG against `reference`. `None` skips the comparison:
/// the layout being checked is the one that sets the reference.
pub fn verify(
    netlist: &Netlist,
    outcome: &Result<PilpResult, PilpError>,
    reference: Option<&str>,
    site: SpanSite<'_>,
) -> Result<Verdict, Failure> {
    let result = outcome
        .as_ref()
        .map_err(|e| Failure::Error(e.to_string()))?;
    verify_layout(netlist, &result.layout, reference, site)
}

/// [`verify`] on a bare layout.
pub fn verify_layout(
    netlist: &Netlist,
    layout: &Layout,
    reference: Option<&str>,
    site: SpanSite<'_>,
) -> Result<Verdict, Failure> {
    let SpanSite {
        tracer,
        parent,
        request,
    } = site;
    if !layout.is_complete(netlist) {
        return Err(Failure::Incomplete);
    }
    let verify_id = tracer.reserve();
    let t0 = Instant::now();
    for strip in netlist.microstrips() {
        let error = layout.length_error(netlist, strip.id).unwrap_or(f64::NAN);
        if error.is_nan() || error.abs() >= LENGTH_TOLERANCE_UM {
            return Err(Failure::Length {
                strip: strip.name.clone(),
                error,
            });
        }
    }
    let t1 = Instant::now();
    let drc = drc_check(netlist, layout, &DrcOptions::default());
    let t2 = Instant::now();
    tracer.leaf("length.check", Some(verify_id), request, t0, t1);
    tracer.leaf("drc.check", Some(verify_id), request, t1, t2);
    tracer.record(verify_id, "verify", parent, request, t0, t2, false);
    if !drc.is_clean() {
        return Err(Failure::Drc {
            violations: drc.len(),
        });
    }
    let t3 = Instant::now();
    let svg = render::svg(netlist, layout);
    let t4 = Instant::now();
    tracer.leaf("render.svg", parent, request, t3, t4);
    if reference.is_some_and(|r| r != svg) {
        return Err(Failure::SvgMismatch);
    }
    Ok(Verdict {
        svg,
        total_bends: layout.total_bends(),
        max_bends: layout.max_bends(),
        drc: t2 - t1,
        render: t4 - t3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfic_core::Placement;
    use rfic_geom::{Point, Polyline};
    use rfic_netlist::benchmarks;

    fn witness() -> (Netlist, Layout) {
        let c = benchmarks::tiny_circuit();
        let layout = Layout {
            area: c.netlist.area(),
            placements: c
                .witness
                .placements
                .iter()
                .map(|(&id, &(center, rotation))| (id, Placement { center, rotation }))
                .collect(),
            routes: c.witness.routes.clone(),
        };
        (c.netlist, layout)
    }

    fn check(
        netlist: &Netlist,
        layout: &Layout,
        reference: Option<&str>,
    ) -> Result<Verdict, Failure> {
        let tracer = Tracer::new(false);
        let site = SpanSite {
            tracer: &tracer,
            parent: None,
            request: 0,
        };
        verify_layout(netlist, layout, reference, site)
    }

    #[test]
    fn the_generator_witness_passes() {
        let (netlist, layout) = witness();
        let verdict = check(&netlist, &layout, None).expect("witness is exact and clean");
        assert_eq!(verdict.total_bends, layout.total_bends());
        // The same layout again matches its own SVG byte for byte.
        assert!(check(&netlist, &layout, Some(&verdict.svg)).is_ok());
    }

    #[test]
    fn a_job_error_is_classified_as_error() {
        let (netlist, _) = witness();
        let outcome = Err(PilpError::Cancelled);
        let tracer = Tracer::new(false);
        let site = SpanSite {
            tracer: &tracer,
            parent: None,
            request: 0,
        };
        let failure = verify(&netlist, &outcome, None, site).unwrap_err();
        assert_eq!(failure.kind(), "error");
        assert!(failure.to_string().contains("cancelled"));
    }

    #[test]
    fn a_missing_strip_is_incomplete() {
        let (netlist, mut layout) = witness();
        let first = *layout.routes.keys().next().expect("tiny has strips");
        layout.routes.remove(&first);
        assert_eq!(
            check(&netlist, &layout, None).unwrap_err(),
            Failure::Incomplete
        );
    }

    #[test]
    fn a_length_miss_is_classified_as_length() {
        let (mut netlist, layout) = witness();
        // Ask for 0.1 % more than the witness routes: every recomputed
        // length falls short by far more than the tolerance.
        netlist = netlist.with_target_scale(1.001);
        match check(&netlist, &layout, None).unwrap_err() {
            Failure::Length { error, .. } => assert!(error < 0.0),
            other => panic!("expected a length failure, got {other}"),
        }
    }

    #[test]
    fn a_design_rule_break_is_classified_as_drc() {
        let (netlist, mut layout) = witness();
        // Translate one strip by 5 µm, which keeps its length: the
        // endpoints leave their pins, which the DRC flags while the
        // length recheck still passes.
        let (&id, route) = layout.routes.iter().next().expect("tiny has strips");
        let moved: Vec<Point> = route
            .points()
            .iter()
            .map(|p| Point::new(p.x + 5.0, p.y + 5.0))
            .collect();
        layout.routes.insert(
            id,
            Polyline::new(moved).expect("translated polyline is valid"),
        );
        match check(&netlist, &layout, None).unwrap_err() {
            Failure::Drc { violations } => assert!(violations > 0),
            other => panic!("expected a DRC failure, got {other}"),
        }
    }

    #[test]
    fn a_different_svg_is_a_mismatch() {
        let (netlist, layout) = witness();
        let failure = check(&netlist, &layout, Some("<svg/>")).unwrap_err();
        assert_eq!(failure, Failure::SvgMismatch);
    }
}
