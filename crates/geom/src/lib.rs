//! Geometry primitives for RFIC layout generation.
//!
//! This crate provides the planar geometry substrate used by the
//! progressive-ILP layout engine: points and rectangles in micrometre
//! coordinates, axis-aligned (rectilinear) microstrip segments, bounding-box
//! expansion for spacing rules, overlap/crossing predicates, and the
//! bend-smoothing / equivalent-length model of the DAC 2016 paper
//! (Section 2.2, Figure 3).
//!
//! All coordinates are `f64` micrometres. Comparisons use the crate-wide
//! tolerance [`EPS`] (1e-6 µm) unless a function takes an explicit tolerance.
//!
//! # Examples
//!
//! ```
//! use rfic_geom::{Point, Rect};
//!
//! let strip = Rect::from_corners(Point::new(0.0, 0.0), Point::new(100.0, 10.0));
//! // Expand by the coupling distance t = 5 µm on each side (spacing rule 2t).
//! let keepout = strip.expanded(5.0);
//! assert_eq!(keepout.width(), 110.0);
//! assert!(keepout.overlaps(&Rect::from_corners(Point::new(104.0, 0.0), Point::new(120.0, 4.0))));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod orientation;
mod point;
mod polyline;
mod rect;
mod segment;
pub mod smooth;

pub use orientation::{Direction, Rotation};
pub use point::Point;
pub use polyline::{Polyline, PolylineError};
pub use rect::Rect;
pub use segment::{Segment, SegmentError};
pub use smooth::{chamfer_delta, equivalent_length, smooth_polyline, SmoothedPath};

/// Geometric comparison tolerance in micrometres.
///
/// Two coordinates closer than `EPS` are considered equal by the predicates
/// in this crate.
pub const EPS: f64 = 1e-6;

/// Returns `true` if `a` and `b` are equal within [`EPS`].
///
/// # Examples
///
/// ```
/// assert!(rfic_geom::approx_eq(1.0, 1.0 + 1e-9));
/// assert!(!rfic_geom::approx_eq(1.0, 1.01));
/// ```
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS
}

/// Returns `true` if `a <= b` within [`EPS`].
///
/// # Examples
///
/// ```
/// assert!(rfic_geom::approx_le(1.0 + 1e-9, 1.0));
/// assert!(!rfic_geom::approx_le(1.1, 1.0));
/// ```
#[inline]
pub fn approx_le(a: f64, b: f64) -> bool {
    a <= b + EPS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_helpers_respect_eps() {
        assert!(approx_eq(0.0, EPS * 0.5));
        assert!(!approx_eq(0.0, EPS * 10.0));
        assert!(approx_le(1.0, 1.0));
        assert!(approx_le(0.999_999_999, 1.0));
        assert!(!approx_le(1.001, 1.0));
    }
}
