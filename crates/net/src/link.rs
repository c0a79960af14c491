//! Directed links of a mesh and dense link identifiers.

use commalloc_mesh::{Mesh2D, NodeId};
use serde::{Deserialize, Serialize};

/// Dense identifier of a directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Direction of a single mesh hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    PlusX,
    MinusX,
    PlusY,
    MinusY,
}

impl Direction {
    fn of(mesh: Mesh2D, from: NodeId, to: NodeId) -> Direction {
        let f = mesh.coord_of(from);
        let t = mesh.coord_of(to);
        debug_assert_eq!(f.manhattan(t), 1, "links connect adjacent processors");
        if t.x == f.x + 1 {
            Direction::PlusX
        } else if f.x == t.x + 1 {
            Direction::MinusX
        } else if t.y == f.y + 1 {
            Direction::PlusY
        } else {
            Direction::MinusY
        }
    }

    fn slot(self) -> u32 {
        match self {
            Direction::PlusX => 0,
            Direction::MinusX => 1,
            Direction::PlusY => 2,
            Direction::MinusY => 3,
        }
    }
}

/// Maps directed links of a mesh to dense [`LinkId`]s.
///
/// Every processor owns four outgoing link slots (+x, −x, +y, −y); slots that
/// would leave the mesh are simply never used, so `num_slots` is an upper
/// bound and [`LinkTable::num_links`] the exact count of physical links.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkTable {
    mesh: Mesh2D,
}

impl LinkTable {
    /// Creates the link table for `mesh`.
    pub fn new(mesh: Mesh2D) -> Self {
        LinkTable { mesh }
    }

    /// The mesh this table describes.
    pub fn mesh(&self) -> Mesh2D {
        self.mesh
    }

    /// Upper bound on link identifiers (`4 × num_nodes`); use it to size
    /// dense per-link vectors.
    pub fn num_slots(&self) -> usize {
        4 * self.mesh.num_nodes()
    }

    /// Number of physical directed links: `2·(2·W·H − W − H)`.
    pub fn num_links(&self) -> usize {
        let w = self.mesh.width() as usize;
        let h = self.mesh.height() as usize;
        2 * (2 * w * h - w - h)
    }

    /// The identifier of the directed link from `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the processors are not adjacent.
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkId {
        link_out_of(from, Direction::of(self.mesh, from, to))
    }

    /// The identifiers of the links along the x-y route from `src` to `dst`,
    /// in traversal order. Empty when `src == dst`.
    pub fn route_links(&self, src: NodeId, dst: NodeId) -> Vec<LinkId> {
        let mut cursor = self.cursor(src, dst);
        std::iter::from_fn(|| self.advance(&mut cursor)).collect()
    }

    /// A cursor at `src` on the x-y route to `dst`.
    pub(crate) fn cursor(&self, src: NodeId, dst: NodeId) -> RouteCursor {
        let (s, d) = (self.mesh.coord_of(src), self.mesh.coord_of(dst));
        RouteCursor {
            at: src,
            dx: d.x as i32 - s.x as i32,
            dy: d.y as i32 - s.y as i32,
        }
    }

    /// Moves `cursor` one hop along its route — x offset first, then y, as
    /// [`Mesh2D::xy_route`] does — and returns the link it crossed; `None`
    /// once it stands on its destination.
    pub(crate) fn advance(&self, cursor: &mut RouteCursor) -> Option<LinkId> {
        let width = self.mesh.width() as i32;
        let (direction, step) = match (cursor.dx.signum(), cursor.dy.signum()) {
            (1, _) => (Direction::PlusX, 1),
            (-1, _) => (Direction::MinusX, -1),
            (_, 1) => (Direction::PlusY, width),
            (_, -1) => (Direction::MinusY, -width),
            _ => return None,
        };
        if cursor.dx != 0 {
            cursor.dx -= step;
        } else {
            cursor.dy -= step.signum();
        }
        let link = link_out_of(cursor.at, direction);
        cursor.at = NodeId(cursor.at.0.wrapping_add_signed(step));
        Some(link)
    }
}

/// The link leaving `from` in `direction`: every processor owns four
/// consecutive slots.
fn link_out_of(from: NodeId, direction: Direction) -> LinkId {
    LinkId(from.0 * 4 + direction.slot())
}

/// A message's position on its x-y route: where it stands and the signed
/// hops it still has to make on each axis. Walking a route this way yields
/// its links one at a time without materialising the route.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RouteCursor {
    at: NodeId,
    dx: i32,
    dy: i32,
}

impl RouteCursor {
    /// True once the cursor stands on its destination.
    pub(crate) fn arrived(&self) -> bool {
        self.dx == 0 && self.dy == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commalloc_mesh::Coord;

    #[test]
    fn link_ids_are_unique_per_directed_link() {
        let mesh = Mesh2D::new(4, 4);
        let table = LinkTable::new(mesh);
        let mut seen = std::collections::HashSet::new();
        let mut count = 0;
        for node in mesh.nodes() {
            for nb in mesh.neighbors(node) {
                let id = table.link(node, nb);
                assert!(seen.insert(id), "duplicate link id {id:?}");
                assert!(id.index() < table.num_slots());
                count += 1;
            }
        }
        assert_eq!(count, table.num_links());
        assert_eq!(table.num_links(), 2 * (2 * 16 - 4 - 4));
    }

    #[test]
    fn opposite_directions_have_distinct_ids() {
        let mesh = Mesh2D::new(4, 4);
        let table = LinkTable::new(mesh);
        let a = mesh.id_of(Coord::new(1, 1));
        let b = mesh.id_of(Coord::new(2, 1));
        assert_ne!(table.link(a, b), table.link(b, a));
    }

    #[test]
    fn route_links_follow_the_xy_route() {
        let mesh = Mesh2D::new(8, 8);
        let table = LinkTable::new(mesh);
        let src = mesh.id_of(Coord::new(1, 1));
        let dst = mesh.id_of(Coord::new(4, 3));
        let links = table.route_links(src, dst);
        assert_eq!(links.len() as u32, mesh.distance(src, dst));
        assert!(table.route_links(src, src).is_empty());
    }

    #[test]
    fn the_route_cursor_crosses_exactly_the_links_of_the_xy_route() {
        // Non-square and one-wide meshes included: the cursor derives each
        // link from coordinates, `xy_route_links` + `link` from node pairs.
        for mesh in [Mesh2D::new(5, 3), Mesh2D::new(1, 6), Mesh2D::new(6, 1)] {
            let table = LinkTable::new(mesh);
            for src in mesh.nodes() {
                for dst in mesh.nodes() {
                    let expected: Vec<LinkId> = mesh
                        .xy_route_links(src, dst)
                        .into_iter()
                        .map(|(a, b)| table.link(a, b))
                        .collect();
                    assert_eq!(table.route_links(src, dst), expected, "{src} -> {dst}");
                    assert_eq!(table.cursor(src, dst).arrived(), src == dst);
                }
            }
        }
    }
}
