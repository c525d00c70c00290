//! Axis-aligned rectangles: device outlines, microstrip segment bodies and
//! the expanded bounding boxes used for the coupling-effect spacing rule
//! (Section 2.1, Figure 2(a) of the paper).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{approx_le, Point, EPS};

/// An axis-aligned rectangle defined by its lower-left (`min`) and
/// upper-right (`max`) corners.
///
/// # Examples
///
/// ```
/// use rfic_geom::{Point, Rect};
///
/// let device = Rect::centered(Point::new(50.0, 50.0), 20.0, 10.0);
/// assert_eq!(device.min, Point::new(40.0, 45.0));
/// assert_eq!(device.area(), 200.0);
/// let keepout = device.expanded(5.0);
/// assert_eq!(keepout.width(), 30.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two arbitrary opposite corners.
    ///
    /// The corners are normalised so that `min` is component-wise below
    /// `max`; the arguments may be given in any order.
    pub fn from_corners(a: Point, b: Point) -> Rect {
        Rect {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// Creates a rectangle centred at `center` with the given width and
    /// height.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is negative.
    pub fn centered(center: Point, width: f64, height: f64) -> Rect {
        assert!(
            width >= 0.0 && height >= 0.0,
            "negative rectangle dimensions"
        );
        Rect {
            min: Point::new(center.x - width / 2.0, center.y - height / 2.0),
            max: Point::new(center.x + width / 2.0, center.y + height / 2.0),
        }
    }

    /// Creates a rectangle from its lower-left corner and dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is negative.
    pub fn from_origin_size(origin: Point, width: f64, height: f64) -> Rect {
        assert!(
            width >= 0.0 && height >= 0.0,
            "negative rectangle dimensions"
        );
        Rect {
            min: origin,
            max: Point::new(origin.x + width, origin.y + height),
        }
    }

    /// Width (x extent) of the rectangle.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (y extent) of the rectangle.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area of the rectangle.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Centre of the rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Half-perimeter (width + height), the HPWL unit used by placement
    /// heuristics.
    #[inline]
    pub fn half_perimeter(&self) -> f64 {
        self.width() + self.height()
    }

    /// Returns the rectangle expanded by `margin` on every side.
    ///
    /// This is how the spacing rule of Section 2.1 is expressed: expanding
    /// both objects by the ground-plane distance `t` and requiring the
    /// expanded boxes not to overlap guarantees a separation of `2t`.
    ///
    /// A negative margin shrinks the rectangle; the result is clamped so
    /// that it never inverts (degenerates to its centre instead).
    pub fn expanded(&self, margin: f64) -> Rect {
        let mut min = Point::new(self.min.x - margin, self.min.y - margin);
        let mut max = Point::new(self.max.x + margin, self.max.y + margin);
        if min.x > max.x {
            let c = (min.x + max.x) / 2.0;
            min.x = c;
            max.x = c;
        }
        if min.y > max.y {
            let c = (min.y + max.y) / 2.0;
            min.y = c;
            max.y = c;
        }
        Rect { min, max }
    }

    /// Returns the rectangle translated by `(dx, dy)`.
    pub fn translated(&self, dx: f64, dy: f64) -> Rect {
        Rect {
            min: self.min.translated(dx, dy),
            max: self.max.translated(dx, dy),
        }
    }

    /// Returns `true` if `p` lies inside or on the boundary of the rectangle
    /// (within [`EPS`]).
    pub fn contains(&self, p: Point) -> bool {
        approx_le(self.min.x, p.x)
            && approx_le(p.x, self.max.x)
            && approx_le(self.min.y, p.y)
            && approx_le(p.y, self.max.y)
    }

    /// Returns `true` if `other` is entirely contained in `self`
    /// (boundaries may touch).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.contains(other.min) && self.contains(other.max)
    }

    /// Returns `true` if the two rectangles overlap with positive area.
    ///
    /// Touching edges or corners (zero-area intersection) do **not** count
    /// as an overlap; the spacing rule allows expanded boxes to abut.
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.overlap_extents(other)
            .map(|(w, h)| w > EPS && h > EPS)
            .unwrap_or(false)
    }

    /// Horizontal and vertical extents of the intersection, if the closed
    /// rectangles intersect at all (possibly with zero area).
    pub fn overlap_extents(&self, other: &Rect) -> Option<(f64, f64)> {
        let w = self.max.x.min(other.max.x) - self.min.x.max(other.min.x);
        let h = self.max.y.min(other.max.y) - self.min.y.max(other.min.y);
        if w >= -EPS && h >= -EPS {
            Some((w.max(0.0), h.max(0.0)))
        } else {
            None
        }
    }

    /// Intersection rectangle, if the closed rectangles intersect.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let min = self.min.max(other.min);
        let max = self.max.min(other.max);
        if min.x <= max.x + EPS && min.y <= max.y + EPS {
            Some(Rect::from_corners(min, max))
        } else {
            None
        }
    }

    /// Smallest rectangle containing both `self` and `other`.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Minimum axis-aligned gap between two non-overlapping rectangles.
    ///
    /// Returns the rectilinear clearance: the larger of the horizontal and
    /// vertical separations if the rectangles are diagonal to each other,
    /// otherwise the single-axis separation. Returns `0.0` if the
    /// rectangles overlap or touch.
    pub fn gap(&self, other: &Rect) -> f64 {
        let dx = (other.min.x - self.max.x)
            .max(self.min.x - other.max.x)
            .max(0.0);
        let dy = (other.min.y - self.max.y)
            .max(self.min.y - other.max.y)
            .max(0.0);
        dx.max(dy)
    }

    /// The four corners in counter-clockwise order starting at `min`.
    pub fn corners(&self) -> [Point; 4] {
        [
            self.min,
            Point::new(self.max.x, self.min.y),
            self.max,
            Point::new(self.min.x, self.max.y),
        ]
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::from_corners(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn corner_normalisation() {
        let r = Rect::from_corners(Point::new(5.0, 1.0), Point::new(2.0, 7.0));
        assert_eq!(r.min, Point::new(2.0, 1.0));
        assert_eq!(r.max, Point::new(5.0, 7.0));
        assert_eq!(r.width(), 3.0);
        assert_eq!(r.height(), 6.0);
        assert_eq!(r.area(), 18.0);
        assert_eq!(r.half_perimeter(), 9.0);
    }

    #[test]
    fn centered_and_origin_constructors() {
        let c = Rect::centered(Point::new(10.0, 10.0), 4.0, 6.0);
        assert_eq!(c.min, Point::new(8.0, 7.0));
        assert_eq!(c.center(), Point::new(10.0, 10.0));
        let o = Rect::from_origin_size(Point::new(1.0, 2.0), 3.0, 4.0);
        assert_eq!(o.max, Point::new(4.0, 6.0));
    }

    #[test]
    #[should_panic(expected = "negative rectangle dimensions")]
    fn centered_rejects_negative_dims() {
        let _ = Rect::centered(Point::ORIGIN, -1.0, 1.0);
    }

    #[test]
    fn expansion_and_shrinking() {
        let r = rect(0.0, 0.0, 10.0, 4.0);
        let e = r.expanded(5.0);
        assert_eq!(e, rect(-5.0, -5.0, 15.0, 9.0));
        // Shrinking past the size collapses to the centre instead of inverting.
        let s = r.expanded(-3.0);
        assert_eq!(s.height(), 0.0);
        assert_eq!(s.width(), 4.0);
        assert_eq!(s.center(), r.center());
    }

    #[test]
    fn overlap_predicates() {
        let a = rect(0.0, 0.0, 10.0, 10.0);
        let b = rect(5.0, 5.0, 15.0, 15.0);
        let c = rect(10.0, 0.0, 20.0, 10.0); // touches a
        let d = rect(11.0, 11.0, 12.0, 12.0); // disjoint from a
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c), "touching edges are not overlap");
        assert!(!a.overlaps(&d));
        assert_eq!(a.intersection(&b), Some(rect(5.0, 5.0, 10.0, 10.0)));
        assert!(a.intersection(&d).is_none());
    }

    #[test]
    fn union_and_containment() {
        let a = rect(0.0, 0.0, 4.0, 4.0);
        let b = rect(6.0, 1.0, 8.0, 2.0);
        let u = a.union(&b);
        assert_eq!(u, rect(0.0, 0.0, 8.0, 4.0));
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert!(a.contains(Point::new(4.0, 4.0)));
        assert!(!a.contains(Point::new(4.1, 4.0)));
    }

    #[test]
    fn gaps() {
        let a = rect(0.0, 0.0, 10.0, 10.0);
        let right = rect(14.0, 0.0, 20.0, 10.0);
        let above = rect(0.0, 13.0, 10.0, 20.0);
        let diag = rect(13.0, 16.0, 20.0, 20.0);
        assert_eq!(a.gap(&right), 4.0);
        assert_eq!(a.gap(&above), 3.0);
        assert_eq!(a.gap(&diag), 6.0);
        assert_eq!(a.gap(&a), 0.0);
    }

    #[test]
    fn corners_order() {
        let r = rect(0.0, 0.0, 2.0, 3.0);
        let c = r.corners();
        assert_eq!(c[0], Point::new(0.0, 0.0));
        assert_eq!(c[1], Point::new(2.0, 0.0));
        assert_eq!(c[2], Point::new(2.0, 3.0));
        assert_eq!(c[3], Point::new(0.0, 3.0));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!rect(0.0, 0.0, 1.0, 1.0).to_string().is_empty());
    }
}
