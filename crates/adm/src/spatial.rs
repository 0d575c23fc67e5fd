//! Simple (Google-map style) spatial primitives: [`Point`] and [`Rectangle`].
//!
//! The paper (Section III) lists "simple spatial data" among ADM's rich types
//! and Section V-B describes the LSM spatial-index study built on them. The
//! geometry here is deliberately minimal — axis-aligned boxes and points —
//! exactly the subset the spatial index (an LSM B+ tree of MBRs in Hilbert
//! order) and the spatial predicates need.

use std::fmt;

/// A 2-D point. Coordinates are finite doubles; NaN is rejected at parse /
/// construction boundaries so ordering stays total.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// The degenerate rectangle containing exactly this point.
    pub fn to_mbr(&self) -> Rectangle {
        Rectangle { min: *self, max: *self }
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "point(\"{},{}\")", self.x, self.y)
    }
}

/// An axis-aligned rectangle given by its bottom-left (`min`) and top-right
/// (`max`) corners. Also used as the MBR type inside R-trees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rectangle {
    pub min: Point,
    pub max: Point,
}

impl Rectangle {
    /// Creates a rectangle, normalizing corner order so `min <= max` per axis.
    pub fn new(a: Point, b: Point) -> Self {
        Rectangle {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The empty-intersection-safe "nothing" rectangle used as a fold seed.
    pub fn empty() -> Self {
        Rectangle {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// True when the rectangle contains no area (the [`Rectangle::empty`] seed).
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// True when `self` and `other` overlap (boundary touch counts).
    #[inline]
    pub fn intersects(&self, other: &Rectangle) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// True when the point lies inside or on the boundary.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// The smallest rectangle covering both inputs.
    pub fn union(&self, other: &Rectangle) -> Rectangle {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rectangle {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Center point (where the spatial index maps a box onto the Hilbert curve).
    pub fn center(&self) -> Point {
        Point::new((self.min.x + self.max.x) / 2.0, (self.min.y + self.max.y) / 2.0)
    }

    /// True when the rectangle is a single point — the case the paper's
    /// "point MBR" storage optimization targets (Section V-B).
    pub fn is_point(&self) -> bool {
        self.min.x == self.max.x && self.min.y == self.max.y
    }
}

impl fmt::Display for Rectangle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rectangle(\"{},{} {},{}\")",
            self.min.x, self.min.y, self.max.x, self.max.y
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rectangle {
        Rectangle::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn rectangle_normalizes_corners() {
        let a = Rectangle::new(Point::new(5.0, 6.0), Point::new(1.0, 2.0));
        assert_eq!(a.min, Point::new(1.0, 2.0));
        assert_eq!(a.max, Point::new(5.0, 6.0));
    }

    #[test]
    fn intersection_and_point_containment() {
        let a = r(0.0, 0.0, 10.0, 10.0);
        let b = r(5.0, 5.0, 15.0, 15.0);
        let c = r(11.0, 11.0, 12.0, 12.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(a.contains_point(&Point::new(10.0, 10.0)), "boundary counts");
    }

    #[test]
    fn union_covers_both_and_absorbs_the_empty_seed() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(4.0, 4.0, 6.0, 6.0);
        let u = a.union(&b);
        assert_eq!(u, r(0.0, 0.0, 6.0, 6.0));
        assert_eq!(Rectangle::empty().union(&a), a);
        assert_eq!(a.union(&Rectangle::empty()), a);
    }

    #[test]
    fn point_mbr_detection() {
        let p = Point::new(3.0, 4.0);
        assert!(p.to_mbr().is_point());
        assert!(!r(0.0, 0.0, 1.0, 1.0).is_point());
        assert!((p.distance(&Point::new(0.0, 0.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_rectangle_behaviour() {
        let e = Rectangle::empty();
        assert!(e.is_empty());
        assert!(!e.intersects(&r(0.0, 0.0, 1.0, 1.0)));
    }
}
