//! Hyper-rectangular zone geometry for the d-dimensional CAN.
//!
//! The CAN maps the entire d-dimensional unit space onto zones, one per
//! node: "A node occupies a hyper-rectangular zone that does not
//! overlap with any other node's zone, and the entire multi-dimensional
//! space is covered by the zones for all nodes currently in the system"
//! (paper §II-A).

use std::fmt;

/// A point in the d-dimensional CAN space. Coordinates live in `[0,1)`.
pub type Point = Vec<f64>;

/// Distance from coordinate `p` to the half-open interval `[lo, hi)`
/// along one dimension (0 inside). Every zone-to-point distance in the
/// workspace sums the squares of these gaps in dimension order, so
/// routing decisions, and the digests that fold them, depend on this
/// one expression.
#[inline]
pub fn axis_gap(p: f64, lo: f64, hi: f64) -> f64 {
    if p < lo {
        lo - p
    } else if p >= hi {
        p - hi
    } else {
        0.0
    }
}

/// A half-open hyper-rectangle `[lo, hi)` in the unit space.
///
/// ```
/// use pgrid_can::geom::Zone;
/// let unit = Zone::unit(2);
/// let (left, right) = unit.split(0, 0.5);
/// assert!(left.abuts(&right));
/// assert!(left.contains(&[0.25, 0.9]));
/// assert_eq!(left.merge(&right), Some(unit));
/// ```
#[derive(Clone, PartialEq)]
pub struct Zone {
    lo: Box<[f64]>,
    hi: Box<[f64]>,
}

impl fmt::Debug for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Zone[")?;
        for i in 0..self.dims() {
            if i > 0 {
                write!(f, " x ")?;
            }
            write!(f, "{:.3}..{:.3}", self.lo[i], self.hi[i])?;
        }
        write!(f, "]")
    }
}

impl Zone {
    /// The whole unit space `[0,1)^d`.
    pub fn unit(dims: usize) -> Self {
        assert!(dims > 0);
        Zone {
            lo: vec![0.0; dims].into_boxed_slice(),
            hi: vec![1.0; dims].into_boxed_slice(),
        }
    }

    /// A zone from explicit bounds.
    ///
    /// # Panics
    ///
    /// Panics if the bounds have mismatched lengths or any `lo >= hi`.
    pub fn from_bounds(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "bound length mismatch");
        assert!(!lo.is_empty());
        for i in 0..lo.len() {
            assert!(
                lo[i] < hi[i],
                "degenerate zone in dim {i}: [{}, {})",
                lo[i],
                hi[i]
            );
        }
        Zone {
            lo: lo.into_boxed_slice(),
            hi: hi.into_boxed_slice(),
        }
    }

    /// Dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Lower bound along `dim`.
    #[inline]
    pub fn lo(&self, dim: usize) -> f64 {
        self.lo[dim]
    }

    /// Upper bound along `dim`.
    #[inline]
    pub fn hi(&self, dim: usize) -> f64 {
        self.hi[dim]
    }

    /// Side length along `dim`.
    #[inline]
    pub fn side(&self, dim: usize) -> f64 {
        self.hi[dim] - self.lo[dim]
    }

    /// Hyper-volume of the zone.
    pub fn volume(&self) -> f64 {
        (0..self.dims()).map(|d| self.side(d)).product()
    }

    /// Whether `p` lies inside the half-open box.
    pub fn contains(&self, p: &[f64]) -> bool {
        debug_assert_eq!(p.len(), self.dims());
        (0..self.dims()).all(|d| self.lo[d] <= p[d] && p[d] < self.hi[d])
    }

    /// Splits the zone at `at` along `dim` into (lower, upper) halves.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < at < hi` along that dimension.
    pub fn split(&self, dim: usize, at: f64) -> (Zone, Zone) {
        assert!(
            self.lo[dim] < at && at < self.hi[dim],
            "split point {at} outside ({}, {}) in dim {dim}",
            self.lo[dim],
            self.hi[dim]
        );
        let mut lower = self.clone();
        let mut upper = self.clone();
        lower.hi[dim] = at;
        upper.lo[dim] = at;
        (lower, upper)
    }

    /// Merges two zones that partition a box along one dimension back
    /// into that box. Returns `None` if they are not such a pair.
    pub fn merge(&self, other: &Zone) -> Option<Zone> {
        if self.dims() != other.dims() {
            return None;
        }
        let mut join_dim = None;
        for d in 0..self.dims() {
            if self.lo[d] == other.lo[d] && self.hi[d] == other.hi[d] {
                continue;
            }
            if join_dim.is_some() {
                return None; // differ in more than one dim
            }
            if self.hi[d] == other.lo[d] || other.hi[d] == self.lo[d] {
                join_dim = Some(d);
            } else {
                return None;
            }
        }
        let d = join_dim?;
        let mut merged = self.clone();
        merged.lo[d] = self.lo[d].min(other.lo[d]);
        merged.hi[d] = self.hi[d].max(other.hi[d]);
        Some(merged)
    }

    /// Whether the zones share a (d-1)-dimensional face: they touch
    /// along exactly one dimension and their projections *overlap with
    /// positive measure* in every other dimension. This is the CAN
    /// neighbor relation ("nodes whose zones abut its own").
    pub fn abuts(&self, other: &Zone) -> bool {
        self.abut_dim(other).is_some()
    }

    /// If the zones abut, the dimension along which they touch and the
    /// direction (`+1` if `other` is on the high side of `self`).
    pub fn abut_dim(&self, other: &Zone) -> Option<(usize, i8)> {
        debug_assert_eq!(self.dims(), other.dims());
        let mut touch: Option<(usize, i8)> = None;
        for d in 0..self.dims() {
            let overlap = self.hi[d].min(other.hi[d]) - self.lo[d].max(other.lo[d]);
            if overlap > 0.0 {
                continue; // positive overlap in this dim
            }
            if overlap < 0.0 {
                return None; // gap: cannot abut
            }
            // overlap == 0: they touch in this dim.
            if touch.is_some() {
                return None; // touching in 2+ dims is a corner, not a face
            }
            let dir = if self.hi[d] == other.lo[d] { 1 } else { -1 };
            touch = Some((d, dir));
        }
        touch
    }

    /// Minimum Euclidean distance from the zone to a point (0 if the
    /// point is inside). Used by greedy CAN routing.
    #[allow(clippy::needless_range_loop)] // d indexes three slices at once
    pub fn distance_to(&self, p: &[f64]) -> f64 {
        debug_assert_eq!(p.len(), self.dims());
        let mut sum = 0.0;
        for d in 0..self.dims() {
            let gap = axis_gap(p[d], self.lo[d], self.hi[d]);
            sum += gap * gap;
        }
        sum.sqrt()
    }

    /// The zone's center point.
    pub fn center(&self) -> Point {
        (0..self.dims())
            .map(|d| 0.5 * (self.lo[d] + self.hi[d]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn z(lo: &[f64], hi: &[f64]) -> Zone {
        Zone::from_bounds(lo.to_vec(), hi.to_vec())
    }

    #[test]
    fn unit_zone_covers_unit_space() {
        let u = Zone::unit(3);
        assert!(u.contains(&[0.0, 0.0, 0.0]));
        assert!(u.contains(&[0.999, 0.5, 0.0]));
        assert!(!u.contains(&[1.0, 0.5, 0.5]));
        assert_eq!(u.volume(), 1.0);
    }

    #[test]
    fn split_partitions_volume() {
        let u = Zone::unit(2);
        let (a, b) = u.split(0, 0.3);
        assert!((a.volume() + b.volume() - 1.0).abs() < 1e-12);
        assert_eq!(a.hi(0), 0.3);
        assert_eq!(b.lo(0), 0.3);
        assert!(a.contains(&[0.29, 0.5]));
        assert!(!a.contains(&[0.3, 0.5]));
        assert!(b.contains(&[0.3, 0.5]));
    }

    #[test]
    #[should_panic(expected = "split point")]
    fn split_outside_bounds_panics() {
        Zone::unit(2).split(0, 1.5);
    }

    #[test]
    fn merge_inverts_split() {
        let u = Zone::unit(4);
        let (a, b) = u.split(2, 0.6);
        assert_eq!(a.merge(&b), Some(u.clone()));
        assert_eq!(b.merge(&a), Some(u));
    }

    #[test]
    fn merge_rejects_non_siblings() {
        let u = Zone::unit(2);
        let (a, b) = u.split(0, 0.5);
        let (a1, _a2) = a.split(1, 0.5);
        // a1 and b differ in two dims' bounds.
        assert_eq!(a1.merge(&b), None);
        // Non-touching zones.
        let c = z(&[0.0, 0.0], &[0.2, 1.0]);
        let d = z(&[0.5, 0.0], &[1.0, 1.0]);
        assert_eq!(c.merge(&d), None);
    }

    #[test]
    fn face_neighbors_abut() {
        let a = z(&[0.0, 0.0], &[0.5, 1.0]);
        let b = z(&[0.5, 0.0], &[1.0, 1.0]);
        assert!(a.abuts(&b));
        assert_eq!(a.abut_dim(&b), Some((0, 1)));
        assert_eq!(b.abut_dim(&a), Some((0, -1)));
    }

    #[test]
    fn partial_face_overlap_still_abuts() {
        let a = z(&[0.0, 0.0], &[0.5, 0.6]);
        let b = z(&[0.5, 0.4], &[1.0, 1.0]);
        assert!(a.abuts(&b)); // y-projections overlap on (0.4, 0.6)
    }

    #[test]
    fn corner_touching_is_not_abutting() {
        let a = z(&[0.0, 0.0], &[0.5, 0.5]);
        let b = z(&[0.5, 0.5], &[1.0, 1.0]);
        assert!(!a.abuts(&b)); // touch only at the corner point
    }

    #[test]
    fn edge_touching_zones_in_3d() {
        // Touch along x, overlap in y, only touch (measure 0) in z:
        // an edge contact, not a face — not neighbors.
        let a = z(&[0.0, 0.0, 0.0], &[0.5, 1.0, 0.5]);
        let b = z(&[0.5, 0.0, 0.5], &[1.0, 1.0, 1.0]);
        assert!(!a.abuts(&b));
    }

    #[test]
    fn disjoint_zones_do_not_abut() {
        let a = z(&[0.0, 0.0], &[0.3, 1.0]);
        let b = z(&[0.5, 0.0], &[1.0, 1.0]);
        assert!(!a.abuts(&b));
    }

    #[test]
    fn overlapping_zones_do_not_abut() {
        let a = z(&[0.0, 0.0], &[0.6, 1.0]);
        let b = z(&[0.5, 0.0], &[1.0, 1.0]);
        assert!(!a.abuts(&b));
    }

    #[test]
    fn distance_to_point() {
        let a = z(&[0.0, 0.0], &[0.5, 0.5]);
        assert_eq!(a.distance_to(&[0.25, 0.25]), 0.0);
        assert!((a.distance_to(&[1.0, 0.25]) - 0.5).abs() < 1e-12);
        let d = a.distance_to(&[0.8, 0.9]);
        assert!((d - (0.3f64 * 0.3 + 0.4 * 0.4).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn center_is_midpoint() {
        let a = z(&[0.2, 0.4], &[0.4, 1.0]);
        let c = a.center();
        assert!((c[0] - 0.3).abs() < 1e-12);
        assert!((c[1] - 0.7).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_zone_rejected() {
        z(&[0.5, 0.0], &[0.5, 1.0]);
    }
}
