//! Sensitivity of the allocator ranking to the calibration knobs.
//!
//! The paper's claims are *ordinal*: which allocator is best for which
//! pattern, not how many seconds it saves. Our fluid contention model has
//! two calibration knobs (`link_capacity` and `per_hop_overhead`, see README
//! § "Substitutions this reproduction makes"), so the reported orderings must
//! be shown not to hinge on the exact values chosen. This module does that:
//! run the same (pattern, allocators, load) experiment across a sweep of one
//! knob and report the rank correlation (Kendall's τ) between each setting's
//! allocator ranking and the baseline's. τ close to 1 means the ordering is
//! insensitive to the knob; τ near 0 means the conclusion would be an
//! artefact of calibration.

use crate::engine::{simulate, SimConfig};
use commalloc_alloc::AllocatorKind;
use commalloc_workload::Trace;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Kendall's τ-a rank correlation between two paired samples.
///
/// Returns a value in `[-1, 1]`; 1 for identical orderings, −1 for reversed
/// orderings, and 0 when the samples have fewer than two pairs or either
/// sample is constant. Ties contribute zero to the numerator (τ-a).
pub fn kendall_tau(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "samples must be paired");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in i + 1..n {
            let dx = xs[i] - xs[j];
            let dy = ys[i] - ys[j];
            let product = dx * dy;
            if product > 0.0 {
                concordant += 1;
            } else if product < 0.0 {
                discordant += 1;
            }
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    if pairs == 0.0 {
        return 0.0;
    }
    (concordant - discordant) as f64 / pairs
}

/// Kendall's τ between two allocator rankings expressed as
/// `(allocator, mean response time)` lists. Only allocators present in both
/// rankings are compared.
pub fn ranking_correlation(a: &[(AllocatorKind, f64)], b: &[(AllocatorKind, f64)]) -> f64 {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &(kind, value_a) in a {
        if let Some(&(_, value_b)) = b.iter().find(|(k, _)| *k == kind) {
            xs.push(value_a);
            ys.push(value_b);
        }
    }
    kendall_tau(&xs, &ys)
}

/// Which calibration knob a sensitivity study varies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Knob {
    /// The fluid model's link capacity (message-crossings per second).
    LinkCapacity,
    /// The per-hop overhead charged against each message.
    PerHopOverhead,
}

impl Knob {
    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Knob::LinkCapacity => "link capacity",
            Knob::PerHopOverhead => "per-hop overhead",
        }
    }
}

/// One row of a sensitivity study: the knob value, the allocator ranking it
/// produces, and that ranking's correlation with the baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SensitivityPoint {
    /// The knob value used for this row.
    pub value: f64,
    /// Allocators with their mean response times, sorted best (lowest) first.
    pub ranking: Vec<(AllocatorKind, f64)>,
    /// Kendall's τ against the baseline ranking.
    pub tau_vs_baseline: f64,
}

/// A sensitivity study of the allocator ranking against one knob.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SensitivityStudy {
    /// The knob varied.
    pub knob: Knob,
    /// The baseline configuration's knob value.
    pub baseline_value: f64,
    /// The baseline ranking.
    pub baseline_ranking: Vec<(AllocatorKind, f64)>,
    /// One point per alternative knob value.
    pub points: Vec<SensitivityPoint>,
}

impl SensitivityStudy {
    /// Runs the study: simulates `trace` under `base` for every allocator in
    /// `allocators`, once per knob `value` (plus the baseline value already
    /// in `base`), and correlates each resulting ranking with the baseline's.
    pub fn run(
        base: &SimConfig,
        allocators: &[AllocatorKind],
        trace: &Trace,
        knob: Knob,
        values: &[f64],
    ) -> Self {
        let baseline_value = match knob {
            Knob::LinkCapacity => base.link_capacity,
            Knob::PerHopOverhead => base.per_hop_overhead,
        };
        let baseline_ranking = Self::ranking(base, allocators, trace);
        let points: Vec<SensitivityPoint> = values
            .iter()
            .map(|&value| {
                let mut config = *base;
                match knob {
                    Knob::LinkCapacity => config.link_capacity = value,
                    Knob::PerHopOverhead => config.per_hop_overhead = value,
                }
                let ranking = Self::ranking(&config, allocators, trace);
                let tau = ranking_correlation(&baseline_ranking, &ranking);
                SensitivityPoint {
                    value,
                    ranking,
                    tau_vs_baseline: tau,
                }
            })
            .collect();
        SensitivityStudy {
            knob,
            baseline_value,
            baseline_ranking,
            points,
        }
    }

    /// The minimum τ over all studied values: how badly the ordering can
    /// degrade within the studied range.
    pub fn worst_tau(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.tau_vs_baseline)
            .fold(1.0f64, f64::min)
    }

    fn ranking(
        config: &SimConfig,
        allocators: &[AllocatorKind],
        trace: &Trace,
    ) -> Vec<(AllocatorKind, f64)> {
        let mut ranking: Vec<(AllocatorKind, f64)> = allocators
            .par_iter()
            .map(|&allocator| {
                let config = SimConfig {
                    allocator,
                    ..*config
                };
                let result = simulate(trace, &config);
                (allocator, result.summary.mean_response_time)
            })
            .collect();
        ranking.sort_by(|a, b| a.1.total_cmp(&b.1));
        ranking
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commalloc_mesh::Mesh2D;
    use commalloc_workload::synthetic::ParagonTraceModel;
    use commalloc_workload::CommPattern;

    #[test]
    fn kendall_tau_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((kendall_tau(&xs, &[2.0, 4.0, 6.0, 8.0]) - 1.0).abs() < 1e-12);
        assert!((kendall_tau(&xs, &[8.0, 6.0, 4.0, 2.0]) + 1.0).abs() < 1e-12);
        assert_eq!(kendall_tau(&[1.0], &[2.0]), 0.0);
        assert_eq!(kendall_tau(&xs, &[5.0, 5.0, 5.0, 5.0]), 0.0);
        // One swapped adjacent pair out of six: tau = (5 - 1) / 6.
        let tau = kendall_tau(&xs, &[1.0, 2.0, 4.0, 3.0]);
        assert!((tau - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "paired")]
    fn kendall_tau_requires_equal_lengths() {
        kendall_tau(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn ranking_correlation_uses_common_allocators_only() {
        let a = vec![
            (AllocatorKind::HilbertBestFit, 1.0),
            (AllocatorKind::Mc, 2.0),
            (AllocatorKind::GenAlg, 3.0),
        ];
        let b = vec![
            (AllocatorKind::Mc, 5.0),
            (AllocatorKind::HilbertBestFit, 4.0),
        ];
        // Over the two common allocators the orderings agree.
        assert!((ranking_correlation(&a, &b) - 1.0).abs() < 1e-12);
        let b_reversed = vec![
            (AllocatorKind::Mc, 1.0),
            (AllocatorKind::HilbertBestFit, 4.0),
        ];
        assert!((ranking_correlation(&a, &b_reversed) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn study_reports_tau_one_for_identical_knob_values() {
        let trace = ParagonTraceModel::scaled(25).generate(3);
        let base = SimConfig::new(
            Mesh2D::square_16x16(),
            CommPattern::AllToAll,
            AllocatorKind::HilbertBestFit,
        );
        let allocators = [AllocatorKind::HilbertBestFit, AllocatorKind::Mc1x1];
        let study = SensitivityStudy::run(
            &base,
            &allocators,
            &trace,
            Knob::LinkCapacity,
            &[base.link_capacity],
        );
        assert_eq!(study.points.len(), 1);
        assert!((study.points[0].tau_vs_baseline - 1.0).abs() < 1e-12);
        assert!((study.worst_tau() - 1.0).abs() < 1e-12);
        assert_eq!(study.baseline_ranking.len(), 2);
    }

    #[test]
    fn study_varies_the_requested_knob() {
        let trace = ParagonTraceModel::scaled(15).generate(9);
        let base = SimConfig::new(
            Mesh2D::square_16x16(),
            CommPattern::NBody,
            AllocatorKind::HilbertBestFit,
        );
        let allocators = [AllocatorKind::HilbertBestFit, AllocatorKind::Random];
        let study = SensitivityStudy::run(
            &base,
            &allocators,
            &trace,
            Knob::PerHopOverhead,
            &[0.0, 0.2],
        );
        assert_eq!(study.knob.name(), "per-hop overhead");
        assert_eq!(study.points.len(), 2);
        assert_eq!(study.baseline_value, base.per_hop_overhead);
        for p in &study.points {
            assert_eq!(p.ranking.len(), 2);
            assert!(p.tau_vs_baseline >= -1.0 && p.tau_vs_baseline <= 1.0);
        }
    }
}
