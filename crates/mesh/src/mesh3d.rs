//! Three-dimensional mesh machine model (extension).
//!
//! The paper's experiments are on 2-D meshes, but it cites Alber &
//! Niedermeier's work on multidimensional Hilbert indexings as the route to
//! higher-dimensional machines (Section 2.1). This module provides the 3-D
//! analogue of [`crate::Mesh2D`] — coordinates, dimension-ordered routing,
//! pairwise-distance and contiguity metrics — so the curve-locality analyses
//! and the one-dimensional-reduction idea can be evaluated on 3-D tori-free
//! meshes such as those of later Cplant-class machines. The 3-D types are
//! self-contained; the paper's figure reproductions remain 2-D.

use crate::coord::NodeId;
use crate::grid;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A processor coordinate on a 3-D mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Coord3 {
    /// Column index.
    pub x: u16,
    /// Row index.
    pub y: u16,
    /// Plane index.
    pub z: u16,
}

impl Coord3 {
    /// Creates a coordinate.
    pub const fn new(x: u16, y: u16, z: u16) -> Self {
        Coord3 { x, y, z }
    }

    /// Manhattan (hop) distance to `other`.
    pub fn manhattan(&self, other: Coord3) -> u32 {
        let dx = (self.x as i32 - other.x as i32).unsigned_abs();
        let dy = (self.y as i32 - other.y as i32).unsigned_abs();
        let dz = (self.z as i32 - other.z as i32).unsigned_abs();
        dx + dy + dz
    }

    /// True when `other` is a mesh neighbour (distance exactly one).
    pub fn is_adjacent(&self, other: Coord3) -> bool {
        self.manhattan(other) == 1
    }
}

impl fmt::Display for Coord3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

/// A `width × height × depth` mesh of processors with no wraparound links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Mesh3D {
    width: u16,
    height: u16,
    depth: u16,
}

impl Mesh3D {
    /// Creates a mesh with the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(width: u16, height: u16, depth: u16) -> Self {
        assert!(
            width > 0 && height > 0 && depth > 0,
            "mesh dimensions must be positive"
        );
        Mesh3D {
            width,
            height,
            depth,
        }
    }

    /// Number of columns.
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Number of rows.
    pub fn height(&self) -> u16 {
        self.height
    }

    /// Number of planes.
    pub fn depth(&self) -> u16 {
        self.depth
    }

    /// Total number of processors.
    pub fn num_nodes(&self) -> usize {
        self.width as usize * self.height as usize * self.depth as usize
    }

    /// Returns true if `c` lies within the mesh.
    pub fn contains(&self, c: Coord3) -> bool {
        c.x < self.width && c.y < self.height && c.z < self.depth
    }

    /// The dense identifier of coordinate `c` (x fastest, then y, then z).
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside the mesh.
    pub fn id_of(&self, c: Coord3) -> NodeId {
        assert!(self.contains(c), "coordinate {c} outside {self:?}");
        let plane = self.width as u32 * self.height as u32;
        NodeId(c.z as u32 * plane + c.y as u32 * self.width as u32 + c.x as u32)
    }

    /// The coordinate of identifier `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn coord_of(&self, id: NodeId) -> Coord3 {
        assert!(id.index() < self.num_nodes(), "node {id} outside {self:?}");
        let plane = self.width as u32 * self.height as u32;
        let z = id.0 / plane;
        let rem = id.0 % plane;
        Coord3::new(
            (rem % self.width as u32) as u16,
            (rem / self.width as u32) as u16,
            z as u16,
        )
    }

    /// Manhattan distance in hops between two processors.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        self.coord_of(a).manhattan(self.coord_of(b))
    }

    /// Iterator over all node identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Iterator over all coordinates (x fastest, then y, then z).
    pub fn coords(&self) -> impl Iterator<Item = Coord3> + '_ {
        let (w, h, d) = (self.width, self.height, self.depth);
        (0..d)
            .flat_map(move |z| (0..h).flat_map(move |y| (0..w).map(move |x| Coord3::new(x, y, z))))
    }

    /// The (up to six) mesh neighbours of `id`.
    pub fn neighbors(&self, id: NodeId) -> Vec<NodeId> {
        let c = self.coord_of(id);
        let mut out = Vec::with_capacity(6);
        if c.x > 0 {
            out.push(self.id_of(Coord3::new(c.x - 1, c.y, c.z)));
        }
        if c.x + 1 < self.width {
            out.push(self.id_of(Coord3::new(c.x + 1, c.y, c.z)));
        }
        if c.y > 0 {
            out.push(self.id_of(Coord3::new(c.x, c.y - 1, c.z)));
        }
        if c.y + 1 < self.height {
            out.push(self.id_of(Coord3::new(c.x, c.y + 1, c.z)));
        }
        if c.z > 0 {
            out.push(self.id_of(Coord3::new(c.x, c.y, c.z - 1)));
        }
        if c.z + 1 < self.depth {
            out.push(self.id_of(Coord3::new(c.x, c.y, c.z + 1)));
        }
        out
    }

    /// The sequence of coordinates visited by an x-y-z dimension-ordered
    /// route from `src` to `dst`, inclusive of both endpoints.
    pub fn xyz_route(&self, src: NodeId, dst: NodeId) -> Vec<Coord3> {
        let s = self.coord_of(src);
        let d = self.coord_of(dst);
        let mut path = Vec::with_capacity((s.manhattan(d) + 1) as usize);
        let mut cur = s;
        path.push(cur);
        while cur.x != d.x {
            cur.x = if d.x > cur.x { cur.x + 1 } else { cur.x - 1 };
            path.push(cur);
        }
        while cur.y != d.y {
            cur.y = if d.y > cur.y { cur.y + 1 } else { cur.y - 1 };
            path.push(cur);
        }
        while cur.z != d.z {
            cur.z = if d.z > cur.z { cur.z + 1 } else { cur.z - 1 };
            path.push(cur);
        }
        path
    }

    /// Average pairwise Manhattan distance over a set of nodes; 0.0 for sets
    /// with fewer than two nodes.
    pub fn avg_pairwise_distance(&self, nodes: &[NodeId]) -> f64 {
        grid::avg_pairwise_distance([self.width, self.height, self.depth], nodes)
    }

    /// Number of rectilinearly-connected components of a node set under
    /// 6-neighbour adjacency restricted to the set.
    pub fn components(&self, nodes: &[NodeId]) -> usize {
        grid::components([self.width, self.height, self.depth], nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_coord_round_trip() {
        let mesh = Mesh3D::new(4, 5, 3);
        assert_eq!(mesh.num_nodes(), 60);
        for id in mesh.nodes() {
            assert_eq!(mesh.id_of(mesh.coord_of(id)), id);
        }
    }

    #[test]
    fn coords_iterator_matches_ids() {
        let mesh = Mesh3D::new(3, 2, 2);
        let coords: Vec<Coord3> = mesh.coords().collect();
        assert_eq!(coords.len(), 12);
        for (i, &c) in coords.iter().enumerate() {
            assert_eq!(mesh.id_of(c), NodeId(i as u32));
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_coordinate_panics() {
        Mesh3D::new(2, 2, 2).id_of(Coord3::new(0, 0, 2));
    }

    #[test]
    fn manhattan_distance_in_three_dimensions() {
        let a = Coord3::new(1, 2, 3);
        let b = Coord3::new(4, 0, 5);
        assert_eq!(a.manhattan(b), 3 + 2 + 2);
        assert_eq!(a.manhattan(a), 0);
        assert!(Coord3::new(0, 0, 0).is_adjacent(Coord3::new(0, 0, 1)));
        assert!(!Coord3::new(0, 0, 0).is_adjacent(Coord3::new(0, 1, 1)));
    }

    #[test]
    fn neighbor_counts_at_corner_edge_interior() {
        let mesh = Mesh3D::new(4, 4, 4);
        assert_eq!(mesh.neighbors(mesh.id_of(Coord3::new(0, 0, 0))).len(), 3);
        assert_eq!(mesh.neighbors(mesh.id_of(Coord3::new(1, 0, 0))).len(), 4);
        assert_eq!(mesh.neighbors(mesh.id_of(Coord3::new(1, 1, 0))).len(), 5);
        assert_eq!(mesh.neighbors(mesh.id_of(Coord3::new(1, 1, 1))).len(), 6);
    }

    #[test]
    fn xyz_route_corrects_dimensions_in_order() {
        let mesh = Mesh3D::new(4, 4, 4);
        let src = mesh.id_of(Coord3::new(0, 0, 0));
        let dst = mesh.id_of(Coord3::new(2, 1, 3));
        let path = mesh.xyz_route(src, dst);
        assert_eq!(path.len(), 2 + 1 + 3 + 1);
        assert_eq!(path[2], Coord3::new(2, 0, 0));
        assert_eq!(path[3], Coord3::new(2, 1, 0));
        assert_eq!(*path.last().unwrap(), Coord3::new(2, 1, 3));
        for pair in path.windows(2) {
            assert!(pair[0].is_adjacent(pair[1]));
        }
    }

    #[test]
    fn avg_pairwise_distance_of_a_unit_cube() {
        let mesh = Mesh3D::new(2, 2, 2);
        let nodes: Vec<NodeId> = mesh.nodes().collect();
        // 8 nodes of the unit cube: 12 pairs at distance 1, 12 at 2, 4 at 3.
        let expected = (12.0 + 24.0 + 12.0) / 28.0;
        assert!((mesh.avg_pairwise_distance(&nodes) - expected).abs() < 1e-12);
        assert_eq!(mesh.avg_pairwise_distance(&nodes[..1]), 0.0);
    }

    #[test]
    fn components_across_planes() {
        let mesh = Mesh3D::new(3, 3, 3);
        // Two nodes stacked in z are one component; a distant third is not.
        let nodes = vec![
            mesh.id_of(Coord3::new(0, 0, 0)),
            mesh.id_of(Coord3::new(0, 0, 1)),
            mesh.id_of(Coord3::new(2, 2, 2)),
        ];
        assert_eq!(mesh.components(&nodes), 2);
        assert_eq!(mesh.components(&[]), 0);
    }
}
