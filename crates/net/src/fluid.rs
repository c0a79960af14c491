//! The fluid contention-rate model.
//!
//! Simulating every message of the full three-month trace at flit level is
//! computationally infeasible (tens of millions of messages per
//! configuration, hundreds of configurations), so the trace-driven
//! experiments use a *fluid* approximation: while the set of running jobs is
//! unchanged, each job delivers messages at a constant rate determined by
//! max-min fair sharing of link capacities.
//!
//! A job `j` is described by its [`JobTraffic`]: per-link demands
//! `q[j][l]` (expected crossings of link `l` per message) and a nominal
//! injection rate (one message per second of trace runtime). The model finds
//! rates `r[j] ≤ nominal[j]` such that for every link
//! `Σ_j r[j]·q[j][l] ≤ capacity` and the allocation is max-min fair: no job's
//! rate can be raised without lowering that of a job with an equal or lower
//! rate. Compact allocations produce short routes, little demand overlap and
//! therefore full-rate progress; dispersed allocations overlap with other
//! jobs' routes, saturate links and slow every job that crosses them — the
//! mechanism the paper attributes allocation-sensitivity to.

use crate::traffic::JobTraffic;
use serde::{Deserialize, Serialize};

/// A model that assigns message rates to concurrently running jobs.
pub trait RateModel: Send + Sync {
    /// Returns the sustained message rate of each job in `jobs`, in the same
    /// order. Rates are in `(0, nominal_rate]`.
    fn rates(&self, jobs: &[&JobTraffic]) -> Vec<f64>;
}

/// Baseline model with an infinitely fast network: every job always runs at
/// its nominal rate, so simulated durations equal trace runtimes and the
/// allocator has no effect. Used to isolate pure queueing effects in tests
/// and ablations.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroContentionModel;

impl RateModel for ZeroContentionModel {
    fn rates(&self, jobs: &[&JobTraffic]) -> Vec<f64> {
        jobs.iter().map(|j| j.nominal_rate).collect()
    }
}

/// Max-min fair link sharing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FluidNetwork {
    /// Link capacity in message-crossings per second. The default of 1.0
    /// means a lone job sending one message per second can never saturate a
    /// link by itself (per-message link demand is at most one crossing), so
    /// slowdowns arise only from sharing — matching the paper's focus on
    /// *inter-job* contention.
    pub link_capacity: f64,
    /// Number of slots to size dense per-link vectors with; set from
    /// `LinkTable::num_slots()`.
    pub num_link_slots: usize,
}

impl FluidNetwork {
    /// Creates the model with the default unit link capacity.
    pub fn new(num_link_slots: usize) -> Self {
        FluidNetwork {
            link_capacity: 1.0,
            num_link_slots,
        }
    }

    /// Creates the model with an explicit link capacity (calibration knob for
    /// sensitivity studies).
    pub fn with_capacity(num_link_slots: usize, link_capacity: f64) -> Self {
        assert!(link_capacity > 0.0, "link capacity must be positive");
        FluidNetwork {
            link_capacity,
            num_link_slots,
        }
    }
}

/// Per-link proportional sharing: a simpler (non-max-min) contention model
/// kept as an ablation of the fluid model itself.
///
/// Each link's capacity is divided among the jobs using it in proportion to
/// their demand on that link, so a job's rate is the minimum over its links
/// of `capacity / total_demand(link)`, capped at its nominal rate. Unlike
/// max-min fair water-filling, capacity a bottlenecked job cannot use is
/// *not* redistributed to its neighbours, which makes the model pessimistic
/// for lightly-loaded jobs sharing links with heavily-bottlenecked ones. The
/// ablation benches use it to check that the paper's allocator orderings do
/// not depend on the exact fairness discipline of the contention model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProportionalShareModel {
    /// Capacity of every link in message-crossings per second.
    pub link_capacity: f64,
    /// Number of link slots of the mesh (from [`crate::LinkTable`]).
    pub num_link_slots: usize,
}

impl ProportionalShareModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `link_capacity` is not positive.
    pub fn with_capacity(num_link_slots: usize, link_capacity: f64) -> Self {
        assert!(link_capacity > 0.0, "link capacity must be positive");
        ProportionalShareModel {
            link_capacity,
            num_link_slots,
        }
    }
}

impl RateModel for ProportionalShareModel {
    fn rates(&self, jobs: &[&JobTraffic]) -> Vec<f64> {
        let mut total_demand = vec![0.0f64; self.num_link_slots];
        for job in jobs {
            for &(l, q) in &job.link_demand {
                total_demand[l.index()] += q;
            }
        }
        jobs.iter()
            .map(|job| {
                let mut rate = job.nominal_rate;
                for &(l, q) in &job.link_demand {
                    if q > 1e-15 && total_demand[l.index()] > 1e-15 {
                        rate = rate.min(self.link_capacity / total_demand[l.index()]);
                    }
                }
                rate.max(1e-12)
            })
            .collect()
    }
}

impl RateModel for FluidNetwork {
    fn rates(&self, jobs: &[&JobTraffic]) -> Vec<f64> {
        let n = jobs.len();
        let mut rates = vec![0.0f64; n];
        if n == 0 {
            return rates;
        }
        // Jobs with no network demand run at their nominal rate and do not
        // participate in the water-filling.
        let mut unfixed: Vec<usize> = Vec::with_capacity(n);
        for (i, job) in jobs.iter().enumerate() {
            if job.is_local() {
                rates[i] = job.nominal_rate;
            } else {
                unfixed.push(i);
            }
        }
        let mut residual = vec![self.link_capacity; self.num_link_slots];
        // Current common water level of all unfixed jobs.
        let mut level = 0.0f64;

        while !unfixed.is_empty() {
            // Aggregate demand per link from unfixed jobs.
            let mut demand = vec![0.0f64; self.num_link_slots];
            for &i in &unfixed {
                for &(l, q) in &jobs[i].link_demand {
                    demand[l.index()] += q;
                }
            }
            // Largest increment before a link saturates or a job reaches its
            // nominal-rate cap.
            let mut delta = f64::INFINITY;
            for l in 0..self.num_link_slots {
                if demand[l] > 1e-15 {
                    delta = delta.min(residual[l].max(0.0) / demand[l]);
                }
            }
            for &i in &unfixed {
                delta = delta.min(jobs[i].nominal_rate - level);
            }
            // No link constrains any unfixed job (cannot happen while jobs
            // still have positive demand, but guard against numerical noise).
            if !delta.is_finite() {
                delta = unfixed
                    .iter()
                    .map(|&i| jobs[i].nominal_rate - level)
                    .fold(0.0, f64::max);
            }
            let delta = delta.max(0.0);
            level += delta;

            // Charge the links.
            for &i in &unfixed {
                for &(l, q) in &jobs[i].link_demand {
                    residual[l.index()] -= q * delta;
                }
            }

            // Fix jobs that reached their cap or that cross a saturated link.
            let mut still_unfixed = Vec::with_capacity(unfixed.len());
            for &i in &unfixed {
                let capped = level >= jobs[i].nominal_rate - 1e-12;
                let bottlenecked = jobs[i]
                    .link_demand
                    .iter()
                    .any(|&(l, q)| q > 1e-15 && residual[l.index()] <= 1e-12);
                if capped || bottlenecked {
                    rates[i] = level.min(jobs[i].nominal_rate).max(1e-12);
                } else {
                    still_unfixed.push(i);
                }
            }
            // Progress guarantee: if numerical issues prevent any job from
            // being fixed, fix them all at the current level.
            if still_unfixed.len() == unfixed.len() {
                for &i in &still_unfixed {
                    rates[i] = level.min(jobs[i].nominal_rate).max(1e-12);
                }
                break;
            }
            unfixed = still_unfixed;
        }
        rates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkTable;
    use commalloc_mesh::{Coord, Mesh2D};
    use commalloc_workload::TrafficEntry;

    fn setup() -> (Mesh2D, LinkTable) {
        let mesh = Mesh2D::new(8, 8);
        (mesh, LinkTable::new(mesh))
    }

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
    fn lone_job_runs_at_nominal_rate() {
        let (mesh, links) = setup();
        let job = pair_traffic(mesh, &links, 1, Coord::new(0, 0), Coord::new(7, 7));
        let model = FluidNetwork::new(links.num_slots());
        let rates = model.rates(&[&job]);
        assert!((rates[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn local_job_is_never_slowed() {
        let (mesh, links) = setup();
        let local = JobTraffic::new(mesh, &links, 5, &[mesh.id_of(Coord::new(0, 0))], &[], 1.0);
        let far = pair_traffic(mesh, &links, 1, Coord::new(0, 0), Coord::new(7, 0));
        let model = FluidNetwork::with_capacity(links.num_slots(), 0.1);
        let rates = model.rates(&[&local, &far]);
        assert!((rates[0] - 1.0).abs() < 1e-9);
        assert!(rates[1] < 1.0);
    }

    #[test]
    fn jobs_sharing_a_link_split_its_capacity_fairly() {
        let (mesh, links) = setup();
        // Three jobs whose single message path all traverse the link
        // (3,0) -> (4,0): sources on the left, destinations on the right of
        // the same row.
        let jobs: Vec<JobTraffic> = (0..3)
            .map(|i| pair_traffic(mesh, &links, i, Coord::new(0, 0), Coord::new(7, 0)))
            .collect();
        let refs: Vec<&JobTraffic> = jobs.iter().collect();
        let model = FluidNetwork::new(links.num_slots());
        let rates = model.rates(&refs);
        for r in &rates {
            assert!((r - 1.0 / 3.0).abs() < 1e-9, "expected 1/3, got {r}");
        }
    }

    #[test]
    fn disjoint_jobs_do_not_interfere() {
        let (mesh, links) = setup();
        let a = pair_traffic(mesh, &links, 1, Coord::new(0, 0), Coord::new(3, 0));
        let b = pair_traffic(mesh, &links, 2, Coord::new(0, 7), Coord::new(3, 7));
        let model = FluidNetwork::new(links.num_slots());
        let rates = model.rates(&[&a, &b]);
        assert!((rates[0] - 1.0).abs() < 1e-9);
        assert!((rates[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn max_min_fairness_protects_light_jobs() {
        let (mesh, links) = setup();
        // Job A uses only the first hop of the row; job B uses the whole row.
        let a = pair_traffic(mesh, &links, 1, Coord::new(0, 0), Coord::new(1, 0));
        let b = pair_traffic(mesh, &links, 2, Coord::new(0, 0), Coord::new(7, 0));
        // Capacity 0.5: the shared link (0,0)->(1,0) is the bottleneck.
        let model = FluidNetwork::with_capacity(links.num_slots(), 0.5);
        let rates = model.rates(&[&a, &b]);
        // Both jobs share the bottleneck equally at 0.25.
        assert!((rates[0] - 0.25).abs() < 1e-9);
        assert!((rates[1] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn proportional_share_matches_max_min_on_symmetric_loads() {
        let (mesh, links) = setup();
        // Three identical jobs on the same route: both disciplines give 1/3
        // of the link capacity (here capacity 1.0) to each.
        let jobs: Vec<JobTraffic> = (0..3)
            .map(|i| pair_traffic(mesh, &links, i, Coord::new(0, 0), Coord::new(7, 0)))
            .collect();
        let refs: Vec<&JobTraffic> = jobs.iter().collect();
        let prop = ProportionalShareModel::with_capacity(links.num_slots(), 1.0);
        let fluid = FluidNetwork::with_capacity(links.num_slots(), 1.0);
        for (p, f) in prop.rates(&refs).iter().zip(fluid.rates(&refs)) {
            assert!((p - f).abs() < 1e-9);
            assert!((p - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn proportional_share_is_never_more_generous_than_max_min() {
        let (mesh, links) = setup();
        // Asymmetric case: a short job shares its only link with a long job.
        // Max-min redistributes what the long job cannot use elsewhere;
        // proportional sharing does not, so it can only be more pessimistic.
        let a = pair_traffic(mesh, &links, 1, Coord::new(0, 0), Coord::new(1, 0));
        let b = pair_traffic(mesh, &links, 2, Coord::new(0, 0), Coord::new(7, 0));
        let c = pair_traffic(mesh, &links, 3, Coord::new(3, 0), Coord::new(7, 0));
        let refs = [&a, &b, &c];
        let prop = ProportionalShareModel::with_capacity(links.num_slots(), 0.5);
        let fluid = FluidNetwork::with_capacity(links.num_slots(), 0.5);
        let pr = prop.rates(&refs);
        let fr = fluid.rates(&refs);
        for (i, (p, f)) in pr.iter().zip(&fr).enumerate() {
            assert!(*p > 0.0 && *p <= 1.0 + 1e-9);
            assert!(
                p <= &(f + 1e-9),
                "job {i}: proportional {p} exceeds max-min {f}"
            );
        }
    }

    #[test]
    fn proportional_share_leaves_lone_and_local_jobs_at_nominal() {
        let (mesh, links) = setup();
        let lone = pair_traffic(mesh, &links, 1, Coord::new(0, 0), Coord::new(7, 7));
        let local = JobTraffic::new(mesh, &links, 2, &[mesh.id_of(Coord::new(3, 3))], &[], 1.0);
        let model = ProportionalShareModel::with_capacity(links.num_slots(), 1.0);
        let rates = model.rates(&[&lone, &local]);
        assert!((rates[0] - 1.0).abs() < 1e-9);
        assert!((rates[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_contention_model_ignores_everything() {
        let (mesh, links) = setup();
        let jobs: Vec<JobTraffic> = (0..5)
            .map(|i| pair_traffic(mesh, &links, i, Coord::new(0, 0), Coord::new(7, 7)))
            .collect();
        let refs: Vec<&JobTraffic> = jobs.iter().collect();
        let rates = ZeroContentionModel.rates(&refs);
        assert!(rates.iter().all(|&r| (r - 1.0).abs() < 1e-12));
    }

    #[test]
    fn rates_never_exceed_nominal_and_never_vanish() {
        let (mesh, links) = setup();
        let jobs: Vec<JobTraffic> = (0..20)
            .map(|i| {
                pair_traffic(
                    mesh,
                    &links,
                    i,
                    Coord::new((i % 8) as u16, 0),
                    Coord::new(7 - (i % 8) as u16, 7),
                )
            })
            .collect();
        let refs: Vec<&JobTraffic> = jobs.iter().collect();
        let model = FluidNetwork::with_capacity(links.num_slots(), 0.3);
        let rates = model.rates(&refs);
        for r in rates {
            assert!(r > 0.0 && r <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn empty_job_set() {
        let model = FluidNetwork::new(16);
        assert!(model.rates(&[]).is_empty());
    }
}
