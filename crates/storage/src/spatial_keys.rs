//! Spatial-key linearization: the alternatives compared against the LSM
//! R-tree in the paper's §V-B study (ref \[23\], experiment E2).
//!
//! * [`hilbert_d`] — Hilbert space-filling curve index of a 2-D point;
//! * [`z_order`] — Z-order (Morton) interleaving;
//! * [`GridScheme`] — a static grid mapping points to cell ids.
//!
//! Each maps a point into a one-dimensional key so an ordinary LSM B+ tree
//! can index spatial data; range queries become one or more key-range probes
//! plus an exact post-filter.

use asterix_adm::{Point, Rectangle};

/// Resolution of the linearizations (bits per dimension).
pub const CURVE_BITS: u32 = 16;

/// A world rectangle establishing the coordinate frame for linearization.
/// Points are clamped into the world and quantized to `CURVE_BITS` bits.
#[derive(Debug, Clone, Copy)]
pub struct World {
    pub bounds: Rectangle,
}

impl World {
    /// Creates a coordinate frame over `bounds`.
    pub fn new(bounds: Rectangle) -> Self {
        World { bounds }
    }

    /// Quantizes a point to curve coordinates.
    pub fn quantize(&self, p: &Point) -> (u32, u32) {
        let max = ((1u64 << CURVE_BITS) - 1) as f64;
        let w = (self.bounds.max.x - self.bounds.min.x).max(f64::MIN_POSITIVE);
        let h = (self.bounds.max.y - self.bounds.min.y).max(f64::MIN_POSITIVE);
        let fx = ((p.x - self.bounds.min.x) / w).clamp(0.0, 1.0);
        let fy = ((p.y - self.bounds.min.y) / h).clamp(0.0, 1.0);
        ((fx * max) as u32, (fy * max) as u32)
    }

    /// Hilbert key of a point.
    pub fn hilbert_key(&self, p: &Point) -> u64 {
        let (x, y) = self.quantize(p);
        hilbert_d(x, y, CURVE_BITS)
    }

    /// Z-order key of a point.
    pub fn z_key(&self, p: &Point) -> u64 {
        let (x, y) = self.quantize(p);
        z_order(x, y)
    }
}

/// Hilbert curve distance of cell `(x, y)` on a `2^bits × 2^bits` grid,
/// `bits` at most 32 (the classic Wikipedia `xy2d` algorithm).
pub fn hilbert_d(x: u32, y: u32, bits: u32) -> u64 {
    let (mut x, mut y) = (u64::from(x), u64::from(y));
    let n: u64 = 1 << bits;
    let mut d: u64 = 0;
    let mut s: u64 = n / 2;
    while s > 0 {
        let rx = u64::from((x & s) > 0);
        let ry = u64::from((y & s) > 0);
        d += s * s * ((3 * rx) ^ ry);
        // rotate the quadrant so recursion sees canonical orientation
        if ry == 0 {
            if rx == 1 {
                x = n - 1 - x;
                y = n - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

/// Z-order (Morton) interleave of two 32-bit coordinates into a 64-bit key.
pub fn z_order(x: u32, y: u32) -> u64 {
    fn spread(v: u32) -> u64 {
        let mut v = v as u64;
        v = (v | (v << 16)) & 0x0000_FFFF_0000_FFFF;
        v = (v | (v << 8)) & 0x00FF_00FF_00FF_00FF;
        v = (v | (v << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
        v = (v | (v << 2)) & 0x3333_3333_3333_3333;
        v = (v | (v << 1)) & 0x5555_5555_5555_5555;
        v
    }
    spread(x) | (spread(y) << 1)
}

/// A static uniform grid over a world rectangle; cells are numbered
/// row-major. The grid-index alternative of §V-B stores `(cell_id, pk)` pairs
/// in an LSM B+ tree.
#[derive(Debug, Clone, Copy)]
pub struct GridScheme {
    pub world: World,
    pub cells_x: u32,
    pub cells_y: u32,
}

impl GridScheme {
    /// Creates a `cells_x × cells_y` grid over `world`.
    pub fn new(world: World, cells_x: u32, cells_y: u32) -> Self {
        GridScheme { world, cells_x: cells_x.max(1), cells_y: cells_y.max(1) }
    }

    /// Cell id containing the point.
    pub fn cell_of(&self, p: &Point) -> u64 {
        let b = &self.world.bounds;
        let w = (b.max.x - b.min.x).max(f64::MIN_POSITIVE);
        let h = (b.max.y - b.min.y).max(f64::MIN_POSITIVE);
        let cx = (((p.x - b.min.x) / w * self.cells_x as f64) as i64)
            .clamp(0, self.cells_x as i64 - 1) as u64;
        let cy = (((p.y - b.min.y) / h * self.cells_y as f64) as i64)
            .clamp(0, self.cells_y as i64 - 1) as u64;
        cy * self.cells_x as u64 + cx
    }

    /// All cell ids overlapping the query rectangle.
    pub fn cells_for(&self, q: &Rectangle) -> Vec<u64> {
        let b = &self.world.bounds;
        let w = (b.max.x - b.min.x).max(f64::MIN_POSITIVE);
        let h = (b.max.y - b.min.y).max(f64::MIN_POSITIVE);
        let cx0 = (((q.min.x - b.min.x) / w * self.cells_x as f64).floor() as i64)
            .clamp(0, self.cells_x as i64 - 1);
        let cx1 = (((q.max.x - b.min.x) / w * self.cells_x as f64).floor() as i64)
            .clamp(0, self.cells_x as i64 - 1);
        let cy0 = (((q.min.y - b.min.y) / h * self.cells_y as f64).floor() as i64)
            .clamp(0, self.cells_y as i64 - 1);
        let cy1 = (((q.max.y - b.min.y) / h * self.cells_y as f64).floor() as i64)
            .clamp(0, self.cells_y as i64 - 1);
        let mut out = Vec::new();
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                out.push(cy as u64 * self.cells_x as u64 + cx as u64);
            }
        }
        out
    }
}

/// Decomposes a query rectangle into curve-key ranges for a linearized index.
///
/// A coarse but effective strategy: quantize the query corners, walk the grid
/// cells at a reduced resolution (`probe_bits` per dimension), compute each
/// cell's curve-key interval, and coalesce adjacent intervals. Candidates in
/// those intervals still require an exact post-filter — that over-fetch is
/// precisely the linearized indexes' handicap in the §V-B study.
pub fn curve_ranges(
    world: &World,
    q: &Rectangle,
    probe_bits: u32,
    curve: fn(u32, u32, u32) -> u64,
) -> Vec<(u64, u64)> {
    let shift = CURVE_BITS - probe_bits;
    let cell_span = 1u64 << (2 * shift); // curve keys per coarse cell
    let (qx0, qy0) = world.quantize(&q.min);
    let (qx1, qy1) = world.quantize(&q.max);
    let (cx0, cx1) = (qx0 >> shift, qx1 >> shift);
    let (cy0, cy1) = (qy0 >> shift, qy1 >> shift);
    let mut starts: Vec<u64> = Vec::new();
    for cy in cy0..=cy1 {
        for cx in cx0..=cx1 {
            // Curve value of the cell's origin at full resolution: for both
            // Hilbert and Z at aligned power-of-two cells, the cell covers one
            // contiguous curve interval of length cell_span.
            let d = curve(cx << shift, cy << shift, CURVE_BITS);
            starts.push(d & !(cell_span - 1));
        }
    }
    starts.sort_unstable();
    starts.dedup();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for s in starts {
        match out.last_mut() {
            Some((_, end)) if *end == s => *end = s + cell_span,
            _ => out.push((s, s + cell_span)),
        }
    }
    out
}

/// Z-order variant of [`curve_ranges`] (same signature trick).
pub fn z_curve(x: u32, y: u32, _bits: u32) -> u64 {
    z_order(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hilbert_small_grid_is_a_permutation() {
        // 4x4 grid: every distance 0..16 appears exactly once
        let mut seen = [false; 16];
        for x in 0..4u32 {
            for y in 0..4u32 {
                let d = hilbert_d(x, y, 2) as usize;
                assert!(d < 16);
                assert!(!seen[d], "duplicate hilbert d {d}");
                seen[d] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn hilbert_neighbors_are_adjacent() {
        // consecutive curve positions are grid neighbors (the locality
        // property that motivates Hilbert over Z)
        let bits = 4;
        let side = 1u32 << bits;
        let mut by_d = vec![(0u32, 0u32); (side * side) as usize];
        for x in 0..side {
            for y in 0..side {
                by_d[hilbert_d(x, y, bits) as usize] = (x, y);
            }
        }
        for w in by_d.windows(2) {
            let ((x0, y0), (x1, y1)) = (w[0], w[1]);
            let dist = x0.abs_diff(x1) + y0.abs_diff(y1);
            assert_eq!(dist, 1, "curve jump between ({x0},{y0}) and ({x1},{y1})");
        }
    }

    #[test]
    fn z_order_interleaves() {
        assert_eq!(z_order(0, 0), 0);
        assert_eq!(z_order(1, 0), 1);
        assert_eq!(z_order(0, 1), 2);
        assert_eq!(z_order(1, 1), 3);
        assert_eq!(z_order(2, 0), 4);
        assert_eq!(z_order(u32::MAX, u32::MAX), u64::MAX);
    }

    #[test]
    fn world_quantization() {
        let w = World::new(Rectangle::new(Point::new(-180.0, -90.0), Point::new(180.0, 90.0)));
        let (x0, y0) = w.quantize(&Point::new(-180.0, -90.0));
        assert_eq!((x0, y0), (0, 0));
        let (x1, y1) = w.quantize(&Point::new(180.0, 90.0));
        assert_eq!((x1, y1), ((1 << CURVE_BITS) - 1, (1 << CURVE_BITS) - 1));
        // out-of-world points clamp
        let (cx, cy) = w.quantize(&Point::new(999.0, -999.0));
        assert_eq!((cx, cy), ((1 << CURVE_BITS) - 1, 0));
    }

    #[test]
    fn grid_cells() {
        let g = GridScheme::new(
            World::new(Rectangle::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))),
            10,
            10,
        );
        assert_eq!(g.cell_of(&Point::new(5.0, 5.0)), 0);
        assert_eq!(g.cell_of(&Point::new(95.0, 5.0)), 9);
        assert_eq!(g.cell_of(&Point::new(5.0, 95.0)), 90);
        let cells = g.cells_for(&Rectangle::new(Point::new(14.0, 14.0), Point::new(26.0, 26.0)));
        assert_eq!(cells.len(), 4, "2x2 cells overlapped");
        assert!(cells.contains(&11) && cells.contains(&22));
        // boundary clamping
        let all = g.cells_for(&Rectangle::new(Point::new(-10.0, -10.0), Point::new(200.0, 200.0)));
        assert_eq!(all.len(), 100);
    }

    #[test]
    fn curve_ranges_cover_query_points() {
        let world = World::new(Rectangle::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0)));
        let q = Rectangle::new(Point::new(100.0, 100.0), Point::new(300.0, 300.0));
        for (name, curve) in [("hilbert", hilbert_d as fn(u32, u32, u32) -> u64), ("z", z_curve)] {
            let ranges = curve_ranges(&world, &q, 6, curve);
            assert!(!ranges.is_empty());
            // every point inside the query must fall in some range
            for px in (100..=300).step_by(40) {
                for py in (100..=300).step_by(40) {
                    let p = Point::new(px as f64, py as f64);
                    let (x, y) = world.quantize(&p);
                    let d = curve(x, y, CURVE_BITS);
                    assert!(
                        ranges.iter().any(|(lo, hi)| d >= *lo && d < *hi),
                        "{name}: point ({px},{py}) d={d} not covered by {ranges:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn hilbert_ranges_are_fewer_or_equal_than_z_for_square_queries() {
        // Hilbert's locality typically yields fewer, longer runs.
        let world = World::new(Rectangle::new(Point::new(0.0, 0.0), Point::new(1024.0, 1024.0)));
        let q = Rectangle::new(Point::new(200.0, 200.0), Point::new(460.0, 460.0));
        let h = curve_ranges(&world, &q, 7, hilbert_d);
        let z = curve_ranges(&world, &q, 7, z_curve);
        assert!(
            h.len() <= z.len() + 2,
            "hilbert {} ranges vs z {} ranges",
            h.len(),
            z.len()
        );
    }
}
