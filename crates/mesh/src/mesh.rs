//! The 2-D mesh machine model.

use crate::coord::{Coord, NodeId};
use crate::grid;
use serde::{Deserialize, Serialize};

/// A `width × height` mesh of processors with no wraparound links.
///
/// The paper simulates the 352-node Intel Paragon partition as a `16 × 22`
/// mesh and also a square `16 × 16` mesh. Messages are routed with x-y
/// (dimension-ordered) routing: first along the x dimension, then along y.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Mesh2D {
    width: u16,
    height: u16,
}

impl Mesh2D {
    /// Creates a mesh with the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        Mesh2D { width, height }
    }

    /// The paper's non-square machine: 16 columns by 22 rows (352 nodes),
    /// matching the SDSC Paragon partition that produced the trace.
    pub fn paragon_16x22() -> Self {
        Mesh2D::new(16, 22)
    }

    /// The paper's square machine: 16 by 16 (256 nodes).
    pub fn square_16x16() -> Self {
        Mesh2D::new(16, 16)
    }

    /// Number of columns.
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Number of rows.
    pub fn height(&self) -> u16 {
        self.height
    }

    /// Total number of processors.
    pub fn num_nodes(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Returns true if `c` lies within the mesh.
    pub fn contains(&self, c: Coord) -> bool {
        c.x < self.width && c.y < self.height
    }

    /// The dense identifier of coordinate `c` (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside the mesh.
    pub fn id_of(&self, c: Coord) -> NodeId {
        assert!(self.contains(c), "coordinate {c} outside {self:?}");
        NodeId(c.y as u32 * self.width as u32 + c.x as u32)
    }

    /// The coordinate of identifier `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn coord_of(&self, id: NodeId) -> Coord {
        assert!(id.index() < self.num_nodes(), "node {id} outside {self:?}");
        Coord::new(
            (id.0 % self.width as u32) as u16,
            (id.0 / self.width as u32) as u16,
        )
    }

    /// Manhattan distance in hops between two processors.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        self.coord_of(a).manhattan(self.coord_of(b))
    }

    /// Iterator over all node identifiers in row-major order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Iterator over all coordinates in row-major order.
    pub fn coords(&self) -> impl Iterator<Item = Coord> + '_ {
        let w = self.width;
        let h = self.height;
        (0..h).flat_map(move |y| (0..w).map(move |x| Coord::new(x, y)))
    }

    /// The (up to four) mesh neighbours of `id`.
    pub fn neighbors(&self, id: NodeId) -> Vec<NodeId> {
        let c = self.coord_of(id);
        let mut out = Vec::with_capacity(4);
        if c.x > 0 {
            out.push(self.id_of(Coord::new(c.x - 1, c.y)));
        }
        if c.x + 1 < self.width {
            out.push(self.id_of(Coord::new(c.x + 1, c.y)));
        }
        if c.y > 0 {
            out.push(self.id_of(Coord::new(c.x, c.y - 1)));
        }
        if c.y + 1 < self.height {
            out.push(self.id_of(Coord::new(c.x, c.y + 1)));
        }
        out
    }

    /// The sequence of coordinates visited by an x-y dimension-ordered route
    /// from `src` to `dst`, inclusive of both endpoints.
    ///
    /// The message first corrects its x offset, then its y offset; this is the
    /// deterministic deadlock-free routing used by ProcSimity's mesh model and
    /// by the Paragon/CPlant-class machines the paper targets.
    pub fn xy_route(&self, src: NodeId, dst: NodeId) -> Vec<Coord> {
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
        path
    }

    /// The directed links traversed by the x-y route from `src` to `dst`,
    /// as `(from, to)` node pairs. Empty when `src == dst`.
    pub fn xy_route_links(&self, src: NodeId, dst: NodeId) -> Vec<(NodeId, NodeId)> {
        let path = self.xy_route(src, dst);
        path.windows(2)
            .map(|w| (self.id_of(w[0]), self.id_of(w[1])))
            .collect()
    }

    /// All coordinates of the `w × h` submesh whose lower-left corner is
    /// `origin`, restricted to coordinates inside the mesh.
    pub fn submesh(&self, origin: Coord, w: u16, h: u16) -> Vec<Coord> {
        let mut out = Vec::new();
        for dy in 0..h {
            for dx in 0..w {
                let c = Coord::new(origin.x.saturating_add(dx), origin.y.saturating_add(dy));
                if self.contains(c) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// Average pairwise Manhattan distance over a set of nodes.
    ///
    /// This is the dispersion metric of Mache & Lo that MC1x1 and Gen-Alg try
    /// to minimise; returns 0.0 for sets with fewer than two nodes.
    pub fn avg_pairwise_distance(&self, nodes: &[NodeId]) -> f64 {
        grid::avg_pairwise_distance([self.width, self.height], nodes)
    }

    /// Number of rectilinearly-connected components of a node set.
    ///
    /// The paper (Section 4.3) calls a job *contiguously allocated* when all
    /// of its processors form a single component under 4-neighbour adjacency
    /// restricted to the job's own processors.
    pub fn components(&self, nodes: &[NodeId]) -> usize {
        grid::components([self.width, self.height], nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_coord_round_trip() {
        let mesh = Mesh2D::new(16, 22);
        for id in mesh.nodes() {
            assert_eq!(mesh.id_of(mesh.coord_of(id)), id);
        }
        assert_eq!(mesh.num_nodes(), 352);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn coord_out_of_range_panics() {
        let mesh = Mesh2D::new(4, 4);
        mesh.id_of(Coord::new(4, 0));
    }

    #[test]
    fn neighbors_of_corner_edge_interior() {
        let mesh = Mesh2D::new(4, 4);
        assert_eq!(mesh.neighbors(mesh.id_of(Coord::new(0, 0))).len(), 2);
        assert_eq!(mesh.neighbors(mesh.id_of(Coord::new(1, 0))).len(), 3);
        assert_eq!(mesh.neighbors(mesh.id_of(Coord::new(2, 2))).len(), 4);
    }

    #[test]
    fn xy_route_goes_x_first_then_y() {
        let mesh = Mesh2D::new(8, 8);
        let src = mesh.id_of(Coord::new(1, 1));
        let dst = mesh.id_of(Coord::new(4, 3));
        let path = mesh.xy_route(src, dst);
        assert_eq!(path.len(), 3 + 2 + 1);
        assert_eq!(path[0], Coord::new(1, 1));
        assert_eq!(path[3], Coord::new(4, 1)); // finished x correction
        assert_eq!(*path.last().unwrap(), Coord::new(4, 3));
        // Links are one fewer than path nodes.
        assert_eq!(mesh.xy_route_links(src, dst).len(), path.len() - 1);
        // Self route is a single node, no links.
        assert_eq!(mesh.xy_route(src, src).len(), 1);
        assert!(mesh.xy_route_links(src, src).is_empty());
    }

    #[test]
    fn submesh_clips_to_mesh() {
        let mesh = Mesh2D::new(4, 4);
        let full = mesh.submesh(Coord::new(1, 1), 2, 2);
        assert_eq!(full.len(), 4);
        let clipped = mesh.submesh(Coord::new(3, 3), 2, 2);
        assert_eq!(clipped.len(), 1);
    }

    #[test]
    fn avg_pairwise_distance_of_line() {
        let mesh = Mesh2D::new(8, 1);
        let nodes: Vec<NodeId> = (0..4u32).map(NodeId).collect();
        // Pairs: d(0,1)=1 d(0,2)=2 d(0,3)=3 d(1,2)=1 d(1,3)=2 d(2,3)=1 => 10/6
        assert!((mesh.avg_pairwise_distance(&nodes) - 10.0 / 6.0).abs() < 1e-12);
        assert_eq!(mesh.avg_pairwise_distance(&nodes[..1]), 0.0);
    }

    #[test]
    fn components_counts_rectilinear_clusters() {
        let mesh = Mesh2D::new(8, 8);
        // Two separate 2x1 blocks and one isolated node.
        let nodes = vec![
            mesh.id_of(Coord::new(0, 0)),
            mesh.id_of(Coord::new(1, 0)),
            mesh.id_of(Coord::new(4, 4)),
            mesh.id_of(Coord::new(4, 5)),
            mesh.id_of(Coord::new(7, 7)),
        ];
        assert_eq!(mesh.components(&nodes), 3);
        // Diagonal adjacency does not connect.
        let diag = vec![mesh.id_of(Coord::new(0, 0)), mesh.id_of(Coord::new(1, 1))];
        assert_eq!(mesh.components(&diag), 2);
        assert_eq!(mesh.components(&[]), 0);
    }
}
