//! Rectilinear polylines of chain points.
//!
//! A routed microstrip is a sequence of chain points (Section 2.2 of the
//! paper). Consecutive chain points are connected by rectilinear segments;
//! a *bend* occurs where two consecutive segments change axis.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Direction, Point, Rect, Segment, SegmentError};

/// A rectilinear polyline: the ordered chain points of a routed microstrip.
///
/// # Examples
///
/// ```
/// use rfic_geom::{Point, Polyline};
///
/// let route = Polyline::new(vec![
///     Point::new(0.0, 0.0),
///     Point::new(50.0, 0.0),
///     Point::new(50.0, 30.0),
/// ])?;
/// assert_eq!(route.geometric_length(), 80.0);
/// assert_eq!(route.bend_count(), 1);
/// # Ok::<(), rfic_geom::PolylineError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polyline {
    points: Vec<Point>,
}

/// Error constructing a [`Polyline`].
#[derive(Debug, Clone, PartialEq)]
pub enum PolylineError {
    /// Fewer than two chain points were supplied.
    TooFewPoints(usize),
    /// Two consecutive chain points are not axis-aligned.
    NotRectilinear {
        /// Index of the offending segment (0-based).
        segment: usize,
    },
}

impl fmt::Display for PolylineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolylineError::TooFewPoints(n) => {
                write!(f, "polyline needs at least two chain points, got {n}")
            }
            PolylineError::NotRectilinear { segment } => {
                write!(f, "polyline segment {segment} is not axis-aligned")
            }
        }
    }
}

impl std::error::Error for PolylineError {}

impl Polyline {
    /// Creates a polyline from chain points.
    ///
    /// # Errors
    ///
    /// Returns [`PolylineError::TooFewPoints`] for fewer than two points and
    /// [`PolylineError::NotRectilinear`] if any consecutive pair differs in
    /// both coordinates.
    pub fn new(points: Vec<Point>) -> Result<Polyline, PolylineError> {
        if points.len() < 2 {
            return Err(PolylineError::TooFewPoints(points.len()));
        }
        for (i, w) in points.windows(2).enumerate() {
            if !w[0].is_rectilinear_with(w[1]) {
                return Err(PolylineError::NotRectilinear { segment: i });
            }
        }
        Ok(Polyline { points })
    }

    /// The chain points of the polyline.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of chain points (`n_i` in the paper).
    #[inline]
    pub fn num_chain_points(&self) -> usize {
        self.points.len()
    }

    /// First chain point (connected to a device pin or pad).
    #[inline]
    pub fn start(&self) -> Point {
        self.points[0]
    }

    /// Last chain point (connected to a device pin or pad).
    #[inline]
    pub fn end(&self) -> Point {
        *self
            .points
            .last()
            .expect("polyline has at least two points")
    }

    /// Sum of segment lengths before bend smoothing
    /// (`l_{g,i}` in equation (7) of the paper).
    pub fn geometric_length(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| w[0].manhattan_distance(w[1]))
            .sum()
    }

    /// Directions of the non-degenerate segments, in order.
    pub fn segment_directions(&self) -> Vec<Direction> {
        self.points
            .windows(2)
            .filter_map(|w| Direction::between(w[0], w[1]))
            .collect()
    }

    /// Number of real 90° bends along the polyline
    /// (`n_{b,i}` in equation (11) of the paper).
    ///
    /// Degenerate (zero-length) segments are skipped: a chain point where no
    /// bend is formed does not contribute.
    pub fn bend_count(&self) -> usize {
        let dirs = self.segment_directions();
        dirs.windows(2).filter(|w| w[0].bends_into(w[1])).count()
    }

    /// Chain-point indices at which a real bend occurs.
    pub fn bend_points(&self) -> Vec<Point> {
        let mut out = Vec::new();
        let mut prev_dir: Option<Direction> = None;
        for w in self.points.windows(2) {
            let Some(dir) = Direction::between(w[0], w[1]) else {
                continue;
            };
            if let Some(p) = prev_dir {
                if p.bends_into(dir) {
                    out.push(w[0]);
                }
            }
            prev_dir = Some(dir);
        }
        out
    }

    /// The polyline's segments as width-`width` strip segments.
    ///
    /// # Errors
    ///
    /// Returns [`SegmentError::InvalidWidth`] if `width` is not positive and
    /// finite.
    pub fn segments(&self, width: f64) -> Result<Vec<Segment>, SegmentError> {
        self.points
            .windows(2)
            .map(|w| Segment::new(w[0], w[1], width))
            .collect()
    }

    /// Axis-aligned bounding box of the centre line.
    pub fn bounding_box(&self) -> Rect {
        let mut bb = Rect::from_corners(self.points[0], self.points[0]);
        for &p in &self.points[1..] {
            bb = bb.union(&Rect::from_corners(p, p));
        }
        bb
    }

    /// Returns a copy with degenerate (zero-length) segments removed and
    /// collinear interior chain points merged.
    ///
    /// This is the geometric counterpart of the chain-point *deletion* step
    /// of Phase 3 (Section 5.3): chain points where no bend is formed are
    /// virtual and can be removed without changing the layout.
    pub fn simplified(&self) -> Polyline {
        let mut pts: Vec<Point> = Vec::with_capacity(self.points.len());
        for &p in &self.points {
            if let Some(&last) = pts.last() {
                if last.approx_eq(p) {
                    continue;
                }
            }
            pts.push(p);
        }
        // Merge collinear runs.
        let mut merged: Vec<Point> = Vec::with_capacity(pts.len());
        for p in pts {
            while merged.len() >= 2 {
                let a = merged[merged.len() - 2];
                let b = merged[merged.len() - 1];
                let d1 = Direction::between(a, b);
                let d2 = Direction::between(b, p);
                if d1.is_some() && d1 == d2 {
                    merged.pop();
                } else {
                    break;
                }
            }
            merged.push(p);
        }
        if merged.len() < 2 {
            // Fully degenerate route: keep both endpoints to stay a polyline.
            merged = vec![self.start(), self.end()];
        }
        Polyline { points: merged }
    }

    /// Translates every chain point by `(dx, dy)`.
    pub fn translated(&self, dx: f64, dy: f64) -> Polyline {
        Polyline {
            points: self.points.iter().map(|p| p.translated(dx, dy)).collect(),
        }
    }

    /// `true` if any coordinate lies outside `area` by more than
    /// [`EPS`](crate::EPS).
    pub fn escapes(&self, area: &Rect) -> bool {
        self.points.iter().any(|&p| !area.contains(p))
    }
}

impl fmt::Display for Polyline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "polyline[")?;
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pl(points: &[(f64, f64)]) -> Polyline {
        Polyline::new(points.iter().map(|&(x, y)| Point::new(x, y)).collect()).expect("valid")
    }

    #[test]
    fn construction_errors() {
        assert!(matches!(
            Polyline::new(vec![Point::ORIGIN]),
            Err(PolylineError::TooFewPoints(1))
        ));
        assert!(matches!(
            Polyline::new(vec![Point::ORIGIN, Point::new(1.0, 1.0)]),
            Err(PolylineError::NotRectilinear { segment: 0 })
        ));
    }

    #[test]
    fn lengths_and_bends() {
        let route = pl(&[(0.0, 0.0), (50.0, 0.0), (50.0, 30.0), (80.0, 30.0)]);
        assert_eq!(route.geometric_length(), 110.0);
        assert_eq!(route.bend_count(), 2);
        assert_eq!(
            route.bend_points(),
            vec![Point::new(50.0, 0.0), Point::new(50.0, 30.0)]
        );
        assert_eq!(route.num_chain_points(), 4);
    }

    #[test]
    fn straight_route_has_no_bends() {
        let route = pl(&[(0.0, 0.0), (10.0, 0.0), (25.0, 0.0), (60.0, 0.0)]);
        assert_eq!(route.bend_count(), 0);
        assert!(route.bend_points().is_empty());
    }

    #[test]
    fn degenerate_segments_do_not_create_bends() {
        // The middle chain point is unused (coincident); no bend forms.
        let route = pl(&[(0.0, 0.0), (10.0, 0.0), (10.0, 0.0), (20.0, 0.0)]);
        assert_eq!(route.bend_count(), 0);
        assert_eq!(route.geometric_length(), 20.0);
    }

    #[test]
    fn simplification_removes_unused_chain_points() {
        let route = pl(&[
            (0.0, 0.0),
            (10.0, 0.0),
            (10.0, 0.0),
            (20.0, 0.0),
            (20.0, 5.0),
        ]);
        let s = route.simplified();
        assert_eq!(
            s.points(),
            &[
                Point::new(0.0, 0.0),
                Point::new(20.0, 0.0),
                Point::new(20.0, 5.0)
            ]
        );
        assert_eq!(s.geometric_length(), route.geometric_length());
        assert_eq!(s.bend_count(), route.bend_count());
    }

    #[test]
    fn simplification_of_fully_degenerate_route() {
        let route = pl(&[(3.0, 3.0), (3.0, 3.0), (3.0, 3.0)]);
        let s = route.simplified();
        assert_eq!(s.num_chain_points(), 2);
        assert_eq!(s.geometric_length(), 0.0);
    }

    #[test]
    fn bounding_box_and_escape() {
        let route = pl(&[(10.0, 10.0), (60.0, 10.0), (60.0, 40.0)]);
        let bb = route.bounding_box();
        assert_eq!(
            bb,
            Rect::from_corners(Point::new(10.0, 10.0), Point::new(60.0, 40.0))
        );
        let area = Rect::from_origin_size(Point::ORIGIN, 100.0, 100.0);
        assert!(!route.escapes(&area));
        let small = Rect::from_origin_size(Point::ORIGIN, 50.0, 50.0);
        assert!(route.escapes(&small));
    }

    #[test]
    fn segments_of_a_route() {
        let route = pl(&[(0.0, 0.0), (10.0, 0.0), (10.0, 3.0)]);
        let segs = route.segments(2.0).expect("valid width");
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].length(), 10.0);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(pl(&[(0.0, 0.0), (1.0, 0.0)]).to_string().contains("->"));
    }
}
