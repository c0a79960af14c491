//! # commalloc-mesh
//!
//! Two-dimensional mesh topology and space-filling-curve indexings used by the
//! `commalloc` processor-allocation simulator, a reproduction of
//! *Communication Patterns and Allocation Strategies* (Leung, Bunde & Mache,
//! SAND2003-4522 / IPPS 2004).
//!
//! The crate provides:
//!
//! * [`Coord`] and [`NodeId`] — processor coordinates and dense identifiers on
//!   a mesh, with Manhattan (hop) distance.
//! * [`Mesh2D`] — a `width × height` mesh of processors with neighbour,
//!   submesh and routing-path queries (x-y dimension-ordered routing, as used
//!   by the Intel Paragon and CPlant-class machines the paper studies).
//! * [`curve::CurveOrder`] — one-dimensional orderings of the mesh produced by
//!   row-major, S-curve (boustrophedon), Hilbert, and H-indexing/Moore
//!   constructions, including the paper's truncation of `2^k × 2^k` curves to
//!   non-square meshes (Figure 6).
//! * [`locality`] — locality measures of an ordering (discontinuity count,
//!   average pairwise distance of rank windows), used for the ablation
//!   benchmarks on curve choice.
//!
//! # Example
//!
//! ```
//! use commalloc_mesh::{Mesh2D, curve::{CurveKind, CurveOrder}};
//!
//! // The paper's square machine: a 16 x 16 mesh.
//! let mesh = Mesh2D::new(16, 16);
//! let hilbert = CurveOrder::build(CurveKind::Hilbert, mesh);
//!
//! // A space-filling curve visits every processor exactly once ...
//! assert_eq!(hilbert.len(), mesh.num_nodes());
//! // ... and consecutive processors along the Hilbert curve are mesh
//! // neighbours on a power-of-two square mesh.
//! assert_eq!(hilbert.discontinuities(), 0);
//! ```

pub mod coord;
pub mod curve;
pub mod curve3d;
mod grid;
pub mod locality;
pub mod mesh;
pub mod mesh3d;

pub use coord::{Coord, NodeId};
pub use curve::{CurveKind, CurveOrder};
pub use curve3d::{Curve3Kind, Curve3Order};
pub use mesh::Mesh2D;
pub use mesh3d::{Coord3, Mesh3D};
