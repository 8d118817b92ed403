//! Identifiers for processing elements, chare arrays and chares.
//!
//! Mirrors Charm++'s naming: a *PE* (processing element) is one
//! scheduler/worker — here an OS thread; a *chare array* is an indexed
//! collection of migratable objects; a *chare* is one element, addressed
//! by `(array, index)`. Indices pack up to three 20-bit dimensions so 2D
//! stencil blocks and 3D MD cells share one representation.

use std::fmt;

/// A processing element (worker thread) identifier, dense in `0..num_pes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeId(pub u32);

impl PeId {
    /// The PE number as a usize (for indexing routing tables).
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pe{}", self.0)
    }
}

/// A chare-array identifier, assigned densely at registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrayId(pub u32);

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "arr{}", self.0)
    }
}

/// Bits reserved per index dimension.
const DIM_BITS: u64 = 20;
const DIM_MASK: u64 = (1 << DIM_BITS) - 1;
/// Largest coordinate storable in one dimension.
const MAX_COORD: u64 = DIM_MASK;

/// A chare index: up to three packed 20-bit coordinates.
///
/// The packing is order-preserving for 1D indices, and row-major
/// (`z`, then `y`, then `x` most significant) for 2D/3D, so sorting by
/// `Index` groups spatial neighbours — which is what the block-mapped
/// initial placement relies on.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Index(u64);

impl Index {
    /// 1D index.
    #[inline]
    pub fn d1(x: u64) -> Index {
        assert!(x <= MAX_COORD, "index coordinate {x} exceeds {MAX_COORD}");
        Index(x)
    }

    /// 2D index `(x, y)`.
    #[inline]
    pub fn d2(x: u64, y: u64) -> Index {
        assert!(
            x <= MAX_COORD && y <= MAX_COORD,
            "index coordinate ({x},{y}) exceeds {MAX_COORD}"
        );
        Index((y << DIM_BITS) | x)
    }

    /// 3D index `(x, y, z)`.
    #[inline]
    pub fn d3(x: u64, y: u64, z: u64) -> Index {
        assert!(
            x <= MAX_COORD && y <= MAX_COORD && z <= MAX_COORD,
            "index coordinate ({x},{y},{z}) exceeds {MAX_COORD}"
        );
        Index((z << (2 * DIM_BITS)) | (y << DIM_BITS) | x)
    }

    /// The `x` coordinate (or the whole value for 1D indices).
    #[inline]
    pub fn x(self) -> u64 {
        self.0 & DIM_MASK
    }

    /// The `y` coordinate (0 for 1D indices).
    #[inline]
    pub fn y(self) -> u64 {
        (self.0 >> DIM_BITS) & DIM_MASK
    }

    /// The `z` coordinate (0 for 1D/2D indices).
    #[inline]
    pub fn z(self) -> u64 {
        (self.0 >> (2 * DIM_BITS)) & DIM_MASK
    }
}

impl fmt::Debug for Index {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},{})", self.x(), self.y(), self.z())
    }
}

impl fmt::Display for Index {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A fully qualified chare identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChareId {
    /// The array the chare belongs to.
    pub array: ArrayId,
    /// The chare's index within the array.
    pub index: Index,
}

impl ChareId {
    /// Builds an identity from array and index.
    #[inline]
    pub fn new(array: ArrayId, index: Index) -> ChareId {
        ChareId { array, index }
    }
}

impl fmt::Display for ChareId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.array, self.index)
    }
}

/// An entry-method selector, dispatched by the receiving chare.
pub type MethodId = u16;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn index_round_trips_coordinates() {
        let i = Index::d3(5, 7, 9);
        assert_eq!((i.x(), i.y(), i.z()), (5, 7, 9));
        let i2 = Index::d2(123, 456);
        assert_eq!((i2.x(), i2.y(), i2.z()), (123, 456, 0));
        let i1 = Index::d1(42);
        assert_eq!((i1.x(), i1.y(), i1.z()), (42, 0, 0));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn index_rejects_oversized_coordinate() {
        let _ = Index::d1(MAX_COORD + 1);
    }

    #[test]
    fn ordering_is_row_major() {
        assert!(Index::d2(0, 0) < Index::d2(1, 0));
        assert!(Index::d2(9, 0) < Index::d2(0, 1));
        assert!(Index::d3(9, 9, 0) < Index::d3(0, 0, 1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(PeId(3).to_string(), "pe3");
        assert_eq!(
            ChareId::new(ArrayId(1), Index::d2(2, 3)).to_string(),
            "arr1[(2,3,0)]"
        );
    }

    proptest! {
        #[test]
        fn packing_is_bijective(x in 0..=MAX_COORD, y in 0..=MAX_COORD, z in 0..=MAX_COORD) {
            let i = Index::d3(x, y, z);
            prop_assert_eq!((i.x(), i.y(), i.z()), (x, y, z));
        }

        #[test]
        fn distinct_coords_distinct_ids(a in 0u64..1000, b in 0u64..1000) {
            prop_assume!(a != b);
            prop_assert_ne!(Index::d1(a), Index::d1(b));
            prop_assert_ne!(Index::d2(a, b), Index::d2(b, a));
        }
    }
}
