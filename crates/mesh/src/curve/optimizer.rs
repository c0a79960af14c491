//! Local-search optimisation of processor orderings.
//!
//! For machines that are not regular meshes, Leung et al. "developed an
//! integer program to find curves with locality properties" (Section 2.1 of
//! the paper). The integer program itself is proprietary to that work and is
//! substituted here (README § "Substitutions this reproduction makes") by a
//! randomised local-search optimiser
//! over orderings: starting from any ordering, it repeatedly applies 2-opt
//! segment reversals and single-node relocations, accepting moves that lower
//! a locality objective. On regular meshes the optimiser converges to
//! orderings whose windowed locality is comparable to the hand-constructed
//! curves; on irregular node sets (e.g. a mesh with faulted nodes removed)
//! it produces the ordering the one-dimensional allocators need.
//!
//! The objective is a weighted sum of
//!
//! * the mean distance between rank-consecutive processors (gap cost), and
//! * the mean pairwise distance of sliding rank windows (window cost),
//!
//! which mirrors what the paper's experiments reward: allocations taken from
//! an interval of ranks should be compact in the mesh.

use crate::coord::NodeId;
use crate::curve::{CurveKind, CurveOrder};
use crate::mesh::Mesh2D;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tunable parameters of the local-search optimiser.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Number of candidate moves to evaluate.
    pub iterations: usize,
    /// Sliding-window size used by the window-locality term. The paper's
    /// trace has mean job size 14.5, so a window in the 8–16 range rewards
    /// exactly the localities the allocators exploit.
    pub window: usize,
    /// Weight of the consecutive-rank gap term.
    pub gap_weight: f64,
    /// Weight of the window-locality term.
    pub window_weight: f64,
    /// Initial simulated-annealing temperature (0 disables uphill moves and
    /// reduces the search to strict hill climbing).
    pub initial_temperature: f64,
    /// RNG seed; the optimiser is deterministic given the seed.
    pub seed: u64,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            iterations: 20_000,
            window: 9,
            gap_weight: 1.0,
            window_weight: 2.0,
            initial_temperature: 0.5,
            seed: 0xc0de,
        }
    }
}

impl OptimizerConfig {
    /// A cheap configuration for unit tests and quick demos.
    pub fn quick() -> Self {
        OptimizerConfig {
            iterations: 2_000,
            ..Default::default()
        }
    }
}

/// Result of one optimisation run.
#[derive(Debug, Clone)]
pub struct OptimizedOrder {
    /// The optimised ordering over the node subset it was built from.
    pub order: Vec<NodeId>,
    /// Objective value of the starting ordering.
    pub initial_cost: f64,
    /// Objective value of the final ordering.
    pub final_cost: f64,
    /// Number of accepted moves.
    pub accepted_moves: usize,
}

impl OptimizedOrder {
    /// Relative improvement of the objective, in `[0, 1]` for successful
    /// runs (0 means no improvement).
    pub fn improvement(&self) -> f64 {
        if self.initial_cost <= 0.0 {
            return 0.0;
        }
        ((self.initial_cost - self.final_cost) / self.initial_cost).max(0.0)
    }
}

/// The locality objective of an ordering of `nodes` on `mesh`.
///
/// Lower is better. Exposed so benches and tests can score arbitrary
/// orderings (including the hand-constructed curves) on the same scale.
pub fn ordering_cost(mesh: Mesh2D, order: &[NodeId], config: &OptimizerConfig) -> f64 {
    if order.len() < 2 {
        return 0.0;
    }
    let gap: f64 = order
        .windows(2)
        .map(|w| mesh.distance(w[0], w[1]) as f64)
        .sum::<f64>()
        / (order.len() - 1) as f64;

    let window = config.window.min(order.len());
    let mut window_cost = 0.0;
    let mut windows = 0usize;
    // Stride the windows so the cost stays cheap on large meshes while still
    // covering every rank.
    let stride = (window / 2).max(1);
    let mut start = 0usize;
    while start + window <= order.len() {
        window_cost += mesh.avg_pairwise_distance(&order[start..start + window]);
        windows += 1;
        start += stride;
    }
    if windows > 0 {
        window_cost /= windows as f64;
    }
    config.gap_weight * gap + config.window_weight * window_cost
}

/// Optimises an ordering of an arbitrary node subset of `mesh`.
///
/// `initial` is the starting ordering (every node exactly once); it is not
/// required to cover the whole mesh, so the optimiser can be used for
/// machines with faulted/offline processors removed.
///
/// # Panics
///
/// Panics if `initial` contains duplicate nodes.
pub fn optimize_order(
    mesh: Mesh2D,
    initial: &[NodeId],
    config: &OptimizerConfig,
) -> OptimizedOrder {
    let mut seen = vec![false; mesh.num_nodes()];
    for &n in initial {
        assert!(!seen[n.index()], "node {n} appears twice in the ordering");
        seen[n.index()] = true;
    }

    let mut order = initial.to_vec();
    let initial_cost = ordering_cost(mesh, &order, config);
    if order.len() < 3 || config.iterations == 0 {
        return OptimizedOrder {
            order,
            initial_cost,
            final_cost: initial_cost,
            accepted_moves: 0,
        };
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut cost = initial_cost;
    let mut best_order = order.clone();
    let mut best_cost = initial_cost;
    let mut accepted = 0usize;
    let n = order.len();

    for iteration in 0..config.iterations {
        // Linear cooling schedule.
        let temperature =
            config.initial_temperature * (1.0 - iteration as f64 / config.iterations as f64);

        // Propose either a 2-opt segment reversal or a single relocation.
        let mut candidate = order.clone();
        if rng.gen_bool(0.7) {
            let mut i = rng.gen_range(0..n);
            let mut j = rng.gen_range(0..n);
            if i == j {
                continue;
            }
            if i > j {
                std::mem::swap(&mut i, &mut j);
            }
            candidate[i..=j].reverse();
        } else {
            let from = rng.gen_range(0..n);
            let to = rng.gen_range(0..n);
            if from == to {
                continue;
            }
            let node = candidate.remove(from);
            candidate.insert(to, node);
        }

        let candidate_cost = ordering_cost(mesh, &candidate, config);
        let delta = candidate_cost - cost;
        let accept =
            delta < 0.0 || (temperature > 0.0 && rng.gen::<f64>() < (-delta / temperature).exp());
        if accept {
            order = candidate;
            cost = candidate_cost;
            accepted += 1;
            if cost < best_cost {
                best_cost = cost;
                best_order = order.clone();
            }
        }
    }

    OptimizedOrder {
        order: best_order,
        initial_cost,
        final_cost: best_cost,
        accepted_moves: accepted,
    }
}

/// Optimises a full-mesh ordering starting from `start` and wraps the result
/// in a [`CurveOrder`] usable by the one-dimensional allocators.
///
/// The returned order reports [`CurveKind::RowMajor`] purely as a label; its
/// visiting sequence is the optimised one.
pub fn optimize_full_mesh(
    mesh: Mesh2D,
    start: CurveKind,
    config: &OptimizerConfig,
) -> (CurveOrder, OptimizedOrder) {
    let initial = CurveOrder::build(start, mesh);
    let nodes: Vec<NodeId> = initial.iter().collect();
    let optimized = optimize_order(mesh, &nodes, config);
    let coords: Vec<_> = optimized.order.iter().map(|&n| mesh.coord_of(n)).collect();
    let curve = CurveOrder::from_coords(start, mesh, &coords);
    (curve, optimized)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::Coord;

    #[test]
    fn cost_is_zero_for_trivial_orderings() {
        let mesh = Mesh2D::new(4, 4);
        let config = OptimizerConfig::default();
        assert_eq!(ordering_cost(mesh, &[], &config), 0.0);
        assert_eq!(ordering_cost(mesh, &[NodeId(3)], &config), 0.0);
    }

    #[test]
    fn hilbert_scores_better_than_a_shuffled_order() {
        let mesh = Mesh2D::new(8, 8);
        let config = OptimizerConfig::default();
        let hilbert: Vec<NodeId> = CurveOrder::build(CurveKind::Hilbert, mesh).iter().collect();
        // Deterministic "bad" order: stride through ids to break locality.
        let shuffled: Vec<NodeId> = (0..64u32).map(|i| NodeId((i * 29) % 64)).collect();
        assert!(
            ordering_cost(mesh, &hilbert, &config) < ordering_cost(mesh, &shuffled, &config),
            "Hilbert ordering must score better than a strided shuffle"
        );
    }

    #[test]
    fn optimizer_improves_row_major_on_a_square_mesh() {
        let mesh = Mesh2D::new(8, 8);
        let config = OptimizerConfig::quick();
        let (curve, result) = optimize_full_mesh(mesh, CurveKind::RowMajor, &config);
        assert_eq!(curve.len(), 64);
        assert!(result.final_cost <= result.initial_cost);
        assert!(result.improvement() >= 0.0);
    }

    #[test]
    fn optimizer_handles_subsets_with_holes() {
        // Remove a 2x2 block of "faulted" processors and optimise the rest.
        let mesh = Mesh2D::new(6, 6);
        let faulted: Vec<NodeId> = mesh
            .submesh(Coord::new(2, 2), 2, 2)
            .into_iter()
            .map(|c| mesh.id_of(c))
            .collect();
        let alive: Vec<NodeId> = mesh.nodes().filter(|n| !faulted.contains(n)).collect();
        let config = OptimizerConfig::quick();
        let result = optimize_order(mesh, &alive, &config);
        assert_eq!(result.order.len(), 32);
        // Still a permutation of the alive set.
        let mut sorted = result.order.clone();
        sorted.sort();
        let mut expect = alive.clone();
        expect.sort();
        assert_eq!(sorted, expect);
        assert!(result.final_cost <= result.initial_cost + 1e-9);
    }

    #[test]
    fn optimizer_is_deterministic_for_a_seed() {
        let mesh = Mesh2D::new(6, 6);
        let nodes: Vec<NodeId> = mesh.nodes().collect();
        let config = OptimizerConfig {
            iterations: 500,
            ..OptimizerConfig::default()
        };
        let a = optimize_order(mesh, &nodes, &config);
        let b = optimize_order(mesh, &nodes, &config);
        assert_eq!(a.order, b.order);
        assert_eq!(a.final_cost, b.final_cost);
        assert_eq!(a.accepted_moves, b.accepted_moves);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_nodes_are_rejected() {
        let mesh = Mesh2D::new(4, 4);
        optimize_order(mesh, &[NodeId(0), NodeId(0)], &OptimizerConfig::quick());
    }

    #[test]
    fn zero_iterations_returns_the_initial_order() {
        let mesh = Mesh2D::new(4, 4);
        let nodes: Vec<NodeId> = mesh.nodes().collect();
        let config = OptimizerConfig {
            iterations: 0,
            ..OptimizerConfig::default()
        };
        let result = optimize_order(mesh, &nodes, &config);
        assert_eq!(result.order, nodes);
        assert_eq!(result.accepted_moves, 0);
        assert_eq!(result.initial_cost, result.final_cost);
    }
}
