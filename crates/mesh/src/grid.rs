//! Node-set locality metrics over a dense grid of any dimension.
//!
//! [`crate::Mesh2D`] and [`crate::Mesh3D`] number their processors the same
//! way — x fastest, then y, then z — so the two locality terms every
//! placement score and allocation metric asks for (total pairwise distance,
//! connected components) are computed once here, over the axis extents.

use crate::coord::NodeId;

/// The coordinate of `id` on each axis of a grid with extents `dims`.
///
/// # Panics
///
/// Panics if `id` is outside the grid.
fn coords<const D: usize>(dims: [u16; D], id: NodeId) -> [usize; D] {
    let mut rest = id.0;
    let at = dims.map(|extent| {
        let c = rest % extent as u32;
        rest /= extent as u32;
        c as usize
    });
    assert!(rest == 0, "node {id} outside a {dims:?} grid");
    at
}

/// Average Manhattan distance over all unordered pairs of `nodes` (0.0 for
/// fewer than two); a node listed twice is two elements at distance zero
/// from each other.
///
/// Manhattan distance separates by axis, and on one axis every pair that a
/// cut between coordinates `c` and `c + 1` separates crosses it exactly
/// once, so the axis total is Σ over cuts of (nodes at or below) × (nodes
/// above): O(p + Σ extents) where the pair loop is O(p²), and the same
/// integer total, so the same quotient to the last bit.
pub(crate) fn avg_pairwise_distance<const D: usize>(dims: [u16; D], nodes: &[NodeId]) -> f64 {
    if nodes.len() < 2 {
        return 0.0;
    }
    let mut histograms = dims.map(|extent| vec![0u64; extent as usize]);
    for &node in nodes {
        for (histogram, c) in histograms.iter_mut().zip(coords(dims, node)) {
            histogram[c] += 1;
        }
    }
    let count = nodes.len() as u64;
    let total: u64 = histograms
        .iter()
        .flat_map(|histogram| {
            histogram.iter().scan(0u64, |below, &here| {
                *below += here;
                Some(*below * (count - *below))
            })
        })
        .sum();
    let pairs = nodes.len() * (nodes.len() - 1) / 2;
    total as f64 / pairs as f64
}

/// Number of connected components of `nodes` under axis-neighbour adjacency
/// restricted to the set; duplicates are one node.
pub(crate) fn components<const D: usize>(dims: [u16; D], nodes: &[NodeId]) -> usize {
    // One cell of padding on every side makes each neighbour a fixed offset
    // that needs no bounds test.
    let mut cells = 1usize;
    let strides = dims.map(|extent| {
        let stride = cells;
        cells *= extent as usize + 2;
        stride
    });
    let padded: Vec<usize> = nodes
        .iter()
        .map(|&node| {
            let at = coords(dims, node);
            at.iter().zip(strides).map(|(c, s)| (c + 1) * s).sum()
        })
        .collect();
    let mut unvisited = vec![false; cells];
    for &cell in &padded {
        unvisited[cell] = true;
    }
    let mut count = 0;
    let mut stack = Vec::new();
    for &start in &padded {
        if !std::mem::take(&mut unvisited[start]) {
            continue;
        }
        count += 1;
        stack.push(start);
        while let Some(cell) = stack.pop() {
            for stride in strides {
                for neighbor in [cell - stride, cell + stride] {
                    if std::mem::take(&mut unvisited[neighbor]) {
                        stack.push(neighbor);
                    }
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    //! The pair loop and the `HashSet` flood fill that `Mesh2D` and `Mesh3D`
    //! used to run live on here as the reference both meshes' public
    //! methods are pinned against.

    use crate::{Mesh2D, Mesh3D, NodeId};
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn pair_loop_average(nodes: &[NodeId], distance: impl Fn(NodeId, NodeId) -> u32) -> f64 {
        if nodes.len() < 2 {
            return 0.0;
        }
        let mut total = 0u64;
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                total += distance(a, b) as u64;
            }
        }
        let pairs = nodes.len() * (nodes.len() - 1) / 2;
        total as f64 / pairs as f64
    }

    fn hash_set_components(nodes: &[NodeId], neighbors: impl Fn(NodeId) -> Vec<NodeId>) -> usize {
        let in_set: HashSet<NodeId> = nodes.iter().copied().collect();
        let mut seen: HashSet<NodeId> = HashSet::new();
        let mut components = 0;
        for &start in nodes {
            if !seen.insert(start) {
                continue;
            }
            components += 1;
            let mut stack = vec![start];
            while let Some(n) = stack.pop() {
                for nb in neighbors(n) {
                    if in_set.contains(&nb) && seen.insert(nb) {
                        stack.push(nb);
                    }
                }
            }
        }
        components
    }

    /// Node sets over a grid of `cells` processors: random draws with
    /// repeats (so duplicates occur, and density ranges from one node to
    /// several times the grid), the empty set, and the whole grid.
    fn node_sets(cells: u32) -> impl Strategy<Value = Vec<NodeId>> {
        prop_oneof![
            proptest::collection::vec((0..cells).prop_map(NodeId), 0..=(3 * cells as usize)),
            proptest::collection::vec((0..cells).prop_map(NodeId), 0..=4),
            Just((0..cells).map(NodeId).collect::<Vec<_>>()),
        ]
    }

    /// Compares a mesh's two metrics over `nodes` with the references run
    /// on that mesh's own `distance` and `neighbors`.
    fn check(
        nodes: &[NodeId],
        (average, components): (f64, usize),
        distance: impl Fn(NodeId, NodeId) -> u32,
        neighbors: impl Fn(NodeId) -> Vec<NodeId>,
    ) -> Result<(), TestCaseError> {
        let expected = pair_loop_average(nodes, distance);
        prop_assert_eq!(average.to_bits(), expected.to_bits());
        prop_assert_eq!(components, hash_set_components(nodes, neighbors));
        Ok(())
    }

    fn check_2d(mesh: Mesh2D, nodes: &[NodeId]) -> Result<(), TestCaseError> {
        let measured = (mesh.avg_pairwise_distance(nodes), mesh.components(nodes));
        let distance = |a, b| mesh.distance(a, b);
        check(nodes, measured, distance, |n| mesh.neighbors(n))
    }

    fn check_3d(mesh: Mesh3D, nodes: &[NodeId]) -> Result<(), TestCaseError> {
        let measured = (mesh.avg_pairwise_distance(nodes), mesh.components(nodes));
        let distance = |a, b| mesh.distance(a, b);
        check(nodes, measured, distance, |n| mesh.neighbors(n))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn mesh2d_locality_terms_equal_the_pair_loop_and_the_hash_set_fill(
            (mesh, nodes) in (1u16..=9, 1u16..=9).prop_flat_map(|(w, h)| {
                (Just(Mesh2D::new(w, h)), node_sets(w as u32 * h as u32))
            })
        ) {
            check_2d(mesh, &nodes)?;
        }

        #[test]
        fn mesh3d_locality_terms_equal_the_pair_loop_and_the_hash_set_fill(
            (mesh, nodes) in (1u16..=5, 1u16..=5, 1u16..=5).prop_flat_map(|(w, h, d)| {
                (Just(Mesh3D::new(w, h, d)), node_sets(w as u32 * h as u32 * d as u32))
            })
        ) {
            check_3d(mesh, &nodes)?;
        }
    }

    #[test]
    fn the_papers_meshes_whole_single_and_empty() {
        for mesh in [Mesh2D::square_16x16(), Mesh2D::paragon_16x22()] {
            let all: Vec<NodeId> = mesh.nodes().collect();
            for nodes in [&all[..], &all[7..8], &[]] {
                check_2d(mesh, nodes).unwrap();
            }
        }
        let cube = Mesh3D::new(8, 8, 8);
        let all: Vec<NodeId> = cube.nodes().collect();
        for nodes in [&all[..], &all[500..501], &[]] {
            check_3d(cube, nodes).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn a_node_outside_the_grid_is_rejected() {
        Mesh2D::new(4, 4).components(&[NodeId(16)]);
    }
}
