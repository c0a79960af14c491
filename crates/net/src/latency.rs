//! Analytic per-message latency estimation (open-queueing-network view).
//!
//! The flit-level simulator measures latency directly but is too expensive
//! for whole-trace sweeps, and the fluid model reasons only about long-run
//! *rates*. This module adds the textbook middle ground: treat every directed
//! link as an M/M/1-like server, compute its utilisation from the running
//! jobs' offered message rates, and estimate each job's expected per-message
//! latency as the sum over its route links of service plus queueing delay.
//!
//! The estimator is used for analysis and ablation (e.g. checking that the
//! running-time ∼ message-distance relationship of the paper's Figure 10 is
//! what an independent queueing argument predicts), not by the simulation
//! engine itself — the engine's event loop needs rates, which the fluid model
//! provides.

use crate::traffic::JobTraffic;
use serde::{Deserialize, Serialize};

/// Analytic latency estimator over the directed links of a mesh.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyEstimator {
    /// Service rate of every link in messages per second (the reciprocal of
    /// the per-hop service time).
    pub link_service_rate: f64,
    /// Number of link slots of the mesh (from [`crate::LinkTable`]).
    pub num_link_slots: usize,
    /// Utilisation cap applied before the M/M/1 formula so saturated links
    /// report a large but finite delay instead of infinity.
    pub max_utilization: f64,
}

/// Latency estimate for one job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobLatency {
    /// The job this estimate belongs to.
    pub job_id: u64,
    /// Expected hops per message (copied from the traffic description).
    pub avg_message_distance: f64,
    /// Expected per-message latency in seconds, including queueing.
    pub expected_latency: f64,
    /// The contention-free latency (service only) for the same route mix.
    pub base_latency: f64,
}

impl JobLatency {
    /// Queueing inflation factor: expected latency over the contention-free
    /// latency (1.0 on an idle network).
    pub fn slowdown(&self) -> f64 {
        if self.base_latency <= 0.0 {
            return 1.0;
        }
        self.expected_latency / self.base_latency
    }
}

impl LatencyEstimator {
    /// Creates an estimator with the given per-link service rate.
    ///
    /// # Panics
    ///
    /// Panics if `link_service_rate` is not positive.
    pub fn new(num_link_slots: usize, link_service_rate: f64) -> Self {
        assert!(
            link_service_rate > 0.0,
            "link service rate must be positive"
        );
        LatencyEstimator {
            link_service_rate,
            num_link_slots,
            max_utilization: 0.99,
        }
    }

    /// Per-link utilisation given each job's traffic description and current
    /// message rate (messages per second). Values may exceed 1 when the
    /// offered load is infeasible; the latency formula clamps them.
    pub fn link_utilization(&self, jobs: &[&JobTraffic], rates: &[f64]) -> Vec<f64> {
        assert_eq!(jobs.len(), rates.len(), "one rate per job");
        let mut utilization = vec![0.0f64; self.num_link_slots];
        for (job, &rate) in jobs.iter().zip(rates) {
            for &(l, q) in &job.link_demand {
                utilization[l.index()] += rate * q / self.link_service_rate;
            }
        }
        utilization
    }

    /// Expected per-message latency of every job, under the M/M/1
    /// approximation `delay(link) = service / (1 − ρ)` with ρ clamped to
    /// [`LatencyEstimator::max_utilization`].
    pub fn per_job_latency(&self, jobs: &[&JobTraffic], rates: &[f64]) -> Vec<JobLatency> {
        let utilization = self.link_utilization(jobs, rates);
        let service = 1.0 / self.link_service_rate;
        jobs.iter()
            .map(|job| {
                let mut expected = 0.0;
                let mut base = 0.0;
                for &(l, q) in &job.link_demand {
                    let rho = utilization[l.index()].min(self.max_utilization);
                    expected += q * service / (1.0 - rho);
                    base += q * service;
                }
                JobLatency {
                    job_id: job.job_id,
                    avg_message_distance: job.avg_message_distance,
                    expected_latency: expected,
                    base_latency: base,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkTable;
    use commalloc_mesh::{Coord, Mesh2D};
    use commalloc_workload::TrafficEntry;

    fn pair_traffic(
        mesh: Mesh2D,
        links: &LinkTable,
        id: u64,
        src: Coord,
        dst: Coord,
    ) -> JobTraffic {
        JobTraffic::new(
            mesh,
            links,
            id,
            &[mesh.id_of(src), mesh.id_of(dst)],
            &[TrafficEntry {
                src: 0,
                dst: 1,
                weight: 1.0,
            }],
            1.0,
        )
    }

    #[test]
    fn idle_network_latency_equals_distance_times_service() {
        let mesh = Mesh2D::new(8, 8);
        let links = LinkTable::new(mesh);
        let job = pair_traffic(mesh, &links, 1, Coord::new(0, 0), Coord::new(4, 2));
        let estimator = LatencyEstimator::new(links.num_slots(), 2.0);
        // Rate 0: no queueing anywhere.
        let latencies = estimator.per_job_latency(&[&job], &[0.0]);
        let expected = 6.0 * 0.5; // 6 hops, 0.5 s service each
        assert!((latencies[0].expected_latency - expected).abs() < 1e-9);
        assert!((latencies[0].base_latency - expected).abs() < 1e-9);
        assert!((latencies[0].slowdown() - 1.0).abs() < 1e-12);
        assert!((latencies[0].avg_message_distance - 6.0).abs() < 1e-12);
    }

    #[test]
    fn shared_links_inflate_latency() {
        let mesh = Mesh2D::new(8, 8);
        let links = LinkTable::new(mesh);
        let a = pair_traffic(mesh, &links, 1, Coord::new(0, 0), Coord::new(7, 0));
        let b = pair_traffic(mesh, &links, 2, Coord::new(0, 0), Coord::new(7, 0));
        let estimator = LatencyEstimator::new(links.num_slots(), 2.0);
        let alone = estimator.per_job_latency(&[&a], &[1.0]);
        let shared = estimator.per_job_latency(&[&a, &b], &[1.0, 1.0]);
        assert!(
            shared[0].expected_latency > alone[0].expected_latency,
            "adding a competitor must raise expected latency"
        );
        assert!(shared[0].slowdown() > 1.0);
    }

    #[test]
    fn utilization_accumulates_per_link_and_is_clamped_in_latency() {
        let mesh = Mesh2D::new(8, 8);
        let links = LinkTable::new(mesh);
        let jobs: Vec<JobTraffic> = (0..5)
            .map(|i| pair_traffic(mesh, &links, i, Coord::new(0, 0), Coord::new(1, 0)))
            .collect();
        let refs: Vec<&JobTraffic> = jobs.iter().collect();
        let estimator = LatencyEstimator::new(links.num_slots(), 1.0);
        let rates = vec![1.0; 5];
        let utilization = estimator.link_utilization(&refs, &rates);
        // All five jobs cross the single link (0,0)->(1,0) at rate 1 each.
        assert!(utilization.iter().any(|&u| (u - 5.0).abs() < 1e-9));
        // The latency stays finite despite the overload thanks to the clamp.
        let latencies = estimator.per_job_latency(&refs, &rates);
        for l in &latencies {
            assert!(l.expected_latency.is_finite());
            assert!(l.expected_latency > l.base_latency);
        }
    }

    #[test]
    fn longer_routes_have_proportionally_larger_base_latency() {
        let mesh = Mesh2D::new(8, 8);
        let links = LinkTable::new(mesh);
        let short = pair_traffic(mesh, &links, 1, Coord::new(0, 0), Coord::new(2, 0));
        let long = pair_traffic(mesh, &links, 2, Coord::new(0, 0), Coord::new(7, 7));
        let estimator = LatencyEstimator::new(links.num_slots(), 4.0);
        let l = estimator.per_job_latency(&[&short, &long], &[0.0, 0.0]);
        assert!((l[1].base_latency / l[0].base_latency - 14.0 / 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one rate per job")]
    fn mismatched_rates_are_rejected() {
        let mesh = Mesh2D::new(4, 4);
        let links = LinkTable::new(mesh);
        let job = pair_traffic(mesh, &links, 1, Coord::new(0, 0), Coord::new(1, 0));
        LatencyEstimator::new(links.num_slots(), 1.0).link_utilization(&[&job], &[]);
    }
}
