//! Parameter sweeps over loads, allocators and patterns.
//!
//! This is the layer the figure-regeneration binaries and the benchmark
//! harness call into: a [`LoadSweep`] describes one of the paper's response-
//! time experiments (a mesh, a set of communication patterns, a set of
//! allocators and the five load factors) and [`LoadSweep::run`] executes
//! every combination — in parallel with rayon, since the individual
//! simulations are deterministic and independent.

use crate::engine::{simulate, Fidelity, SimConfig, SimResult};
use crate::scheduler::SchedulerKind;
use commalloc_alloc::AllocatorKind;
use commalloc_mesh::Mesh2D;
use commalloc_workload::{CommPattern, Trace};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// The paper's five load factors, highest load (0.2) first as plotted.
pub const PAPER_LOAD_FACTORS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];

/// One configuration point of a sweep and its headline results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentPoint {
    /// Communication pattern.
    pub pattern: CommPattern,
    /// Allocation algorithm.
    pub allocator: AllocatorKind,
    /// Load factor applied to the trace (smaller = heavier load).
    pub load_factor: f64,
    /// Mean response time in seconds (the y-axis of Figures 7 and 8).
    pub mean_response_time: f64,
    /// Mean running (communication) time in seconds.
    pub mean_running_time: f64,
    /// Percentage of jobs allocated contiguously (Figure 11).
    pub percent_contiguous: f64,
    /// Average number of components per allocation (Figure 11).
    pub avg_components: f64,
    /// Mean allocation dispersion.
    pub mean_pairwise_distance: f64,
    /// Mean message distance.
    pub mean_message_distance: f64,
}

impl ExperimentPoint {
    /// Builds the point from a finished simulation.
    pub fn from_result(load_factor: f64, result: &SimResult) -> Self {
        ExperimentPoint {
            pattern: result.config.pattern,
            allocator: result.config.allocator,
            load_factor,
            mean_response_time: result.summary.mean_response_time,
            mean_running_time: result.summary.mean_running_time,
            percent_contiguous: result.summary.percent_contiguous,
            avg_components: result.summary.avg_components,
            mean_pairwise_distance: result.summary.mean_pairwise_distance,
            mean_message_distance: result.summary.mean_message_distance,
        }
    }
}

/// A full sweep: the cross product of patterns, allocators and load factors
/// on one mesh and one base trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadSweep {
    /// The machine.
    pub mesh: Mesh2D,
    /// Patterns to simulate (the paper uses all-to-all, n-body and random).
    pub patterns: Vec<CommPattern>,
    /// Allocators to compare.
    pub allocators: Vec<AllocatorKind>,
    /// Load factors (arrival-time contraction factors).
    pub load_factors: Vec<f64>,
    /// Scheduler (FCFS in the paper).
    pub scheduler: SchedulerKind,
    /// Contention model.
    pub fidelity: Fidelity,
    /// Link capacity for the fluid model.
    pub link_capacity: f64,
    /// Per-hop overhead charged against each job's message pacing.
    pub per_hop_overhead: f64,
    /// Simulation seed.
    pub seed: u64,
}

impl LoadSweep {
    /// The paper's Figure 7/8 sweep on `mesh`: three patterns, the nine
    /// plotted allocators, five load factors, simulated under `seed`.
    pub fn paper_figure(mesh: Mesh2D, seed: u64) -> Self {
        LoadSweep {
            mesh,
            patterns: CommPattern::paper_patterns().to_vec(),
            allocators: AllocatorKind::paper_set().to_vec(),
            load_factors: PAPER_LOAD_FACTORS.to_vec(),
            scheduler: SchedulerKind::Fcfs,
            fidelity: Fidelity::Fluid,
            link_capacity: crate::engine::DEFAULT_LINK_CAPACITY,
            per_hop_overhead: crate::engine::DEFAULT_PER_HOP_OVERHEAD,
            seed,
        }
    }

    /// Number of simulation runs the sweep will execute.
    pub fn num_runs(&self) -> usize {
        self.patterns.len() * self.allocators.len() * self.load_factors.len()
    }

    /// Runs every configuration against `trace` (the *unscaled* trace; load
    /// factors are applied per point). Configurations run in parallel.
    ///
    /// Jobs that do not fit the mesh are removed first, exactly as the paper
    /// removes the 320-node jobs for the 16 × 16 machine.
    pub fn run(&self, trace: &Trace) -> SweepResult {
        let base = trace.filter_fitting(self.mesh.num_nodes());
        let configs: Vec<(CommPattern, AllocatorKind, f64)> = self
            .patterns
            .iter()
            .flat_map(|&p| {
                self.allocators
                    .iter()
                    .flat_map(move |&a| self.load_factors.iter().map(move |&l| (p, a, l)))
            })
            .collect();
        let points: Vec<ExperimentPoint> = configs
            .par_iter()
            .map(|&(pattern, allocator, load)| {
                let scaled = base.with_load_factor(load);
                let config = SimConfig {
                    mesh: self.mesh,
                    pattern,
                    allocator,
                    scheduler: self.scheduler,
                    fidelity: self.fidelity,
                    link_capacity: self.link_capacity,
                    per_hop_overhead: self.per_hop_overhead,
                    seed: self.seed,
                };
                let result = simulate(&scaled, &config);
                ExperimentPoint::from_result(load, &result)
            })
            .collect();
        SweepResult {
            mesh: self.mesh,
            points,
        }
    }
}

/// The collected points of a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// The machine the sweep ran on.
    pub mesh: Mesh2D,
    /// One point per (pattern, allocator, load factor).
    pub points: Vec<ExperimentPoint>,
}

impl SweepResult {
    /// The points for one pattern, sorted by allocator then load.
    pub fn for_pattern(&self, pattern: CommPattern) -> Vec<&ExperimentPoint> {
        let mut points: Vec<&ExperimentPoint> = self
            .points
            .iter()
            .filter(|p| p.pattern == pattern)
            .collect();
        points.sort_by(|a, b| {
            a.allocator
                .name()
                .cmp(b.allocator.name())
                .then(a.load_factor.total_cmp(&b.load_factor))
        });
        points
    }

    /// The mean response time of a specific configuration, if present.
    pub fn response_time(
        &self,
        pattern: CommPattern,
        allocator: AllocatorKind,
        load_factor: f64,
    ) -> Option<f64> {
        self.points
            .iter()
            .find(|p| {
                p.pattern == pattern
                    && p.allocator == allocator
                    && (p.load_factor - load_factor).abs() < 1e-9
            })
            .map(|p| p.mean_response_time)
    }

    /// Ranks allocators (best first) by mean response time averaged over all
    /// load factors for `pattern` — the ordering the paper reports in prose.
    pub fn ranking(&self, pattern: CommPattern) -> Vec<(AllocatorKind, f64)> {
        use std::collections::HashMap;
        let mut sums: HashMap<AllocatorKind, (f64, usize)> = HashMap::new();
        for p in self.points.iter().filter(|p| p.pattern == pattern) {
            let entry = sums.entry(p.allocator).or_insert((0.0, 0));
            entry.0 += p.mean_response_time;
            entry.1 += 1;
        }
        let mut ranking: Vec<(AllocatorKind, f64)> = sums
            .into_iter()
            .map(|(a, (sum, n))| (a, sum / n as f64))
            .collect();
        ranking.sort_by(|a, b| a.1.total_cmp(&b.1));
        ranking
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commalloc_workload::synthetic::ParagonTraceModel;

    fn small_sweep() -> LoadSweep {
        LoadSweep {
            mesh: Mesh2D::square_16x16(),
            patterns: vec![CommPattern::AllToAll, CommPattern::NBody],
            allocators: vec![AllocatorKind::HilbertBestFit, AllocatorKind::Mc],
            load_factors: vec![1.0, 0.5],
            scheduler: SchedulerKind::Fcfs,
            fidelity: Fidelity::Fluid,
            link_capacity: 1.0,
            per_hop_overhead: 0.05,
            seed: 1,
        }
    }

    #[test]
    fn sweep_produces_one_point_per_configuration() {
        let trace = ParagonTraceModel::scaled(40).generate(2);
        let sweep = small_sweep();
        assert_eq!(sweep.num_runs(), 8);
        let result = sweep.run(&trace);
        assert_eq!(result.points.len(), 8);
        assert_eq!(result.for_pattern(CommPattern::AllToAll).len(), 4);
        assert!(result
            .response_time(CommPattern::NBody, AllocatorKind::Mc, 0.5)
            .is_some());
        assert!(result
            .response_time(CommPattern::Random, AllocatorKind::Mc, 0.5)
            .is_none());
    }

    #[test]
    fn higher_load_never_improves_response_time() {
        let trace = ParagonTraceModel::scaled(80).generate(9);
        let sweep = LoadSweep {
            patterns: vec![CommPattern::AllToAll],
            allocators: vec![AllocatorKind::HilbertBestFit],
            load_factors: vec![1.0, 0.2],
            ..small_sweep()
        };
        let result = sweep.run(&trace);
        let light = result
            .response_time(CommPattern::AllToAll, AllocatorKind::HilbertBestFit, 1.0)
            .unwrap();
        let heavy = result
            .response_time(CommPattern::AllToAll, AllocatorKind::HilbertBestFit, 0.2)
            .unwrap();
        assert!(
            heavy >= light,
            "contracting arrivals (load 0.2) should not reduce response time: {heavy} < {light}"
        );
    }

    #[test]
    fn ranking_orders_by_mean_response() {
        let trace = ParagonTraceModel::scaled(40).generate(4);
        let result = small_sweep().run(&trace);
        let ranking = result.ranking(CommPattern::AllToAll);
        assert_eq!(ranking.len(), 2);
        assert!(ranking[0].1 <= ranking[1].1);
    }

    #[test]
    fn paper_figure_sweep_has_135_points() {
        let sweep = LoadSweep::paper_figure(Mesh2D::paragon_16x22(), 7);
        assert_eq!(sweep.num_runs(), 3 * 9 * 5);
        assert_eq!(sweep.seed, 7);
    }
}
