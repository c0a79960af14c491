//! Mapping a job's rank-level traffic onto physical links.

use crate::link::{LinkId, LinkTable};
use commalloc_mesh::{Mesh2D, NodeId};
use commalloc_workload::TrafficEntry;
use serde::{Deserialize, Serialize};

/// A running job's traffic mapped onto the physical mesh.
///
/// Pre-computes everything the contention models need:
///
/// * `link_demand[l]` — the expected number of times a random message of the
///   job crosses link `l` (between 0 and 1 for a single link; the sum over
///   links equals the average message distance);
/// * `avg_message_distance` — the expected hop count of a message, the metric
///   of the paper's Figure 10;
/// * `nominal_rate` — the injection rate the job sustains when the network
///   never blocks it (one message per second of trace runtime).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobTraffic {
    /// The job this traffic belongs to.
    pub job_id: u64,
    /// Sparse per-link demand, sorted by link id.
    pub link_demand: Vec<(LinkId, f64)>,
    /// Expected hops per message.
    pub avg_message_distance: f64,
    /// Uncontended injection rate in messages per second.
    pub nominal_rate: f64,
}

impl JobTraffic {
    /// Builds the physical traffic description of a job.
    ///
    /// `nodes` is the allocation in rank order (rank `r` runs on `nodes[r]`)
    /// and `traffic` the rank-level matrix of its communication pattern
    /// ([`commalloc_workload::CommPattern::traffic`]). Entries whose ranks
    /// fall outside the allocation are a caller bug and panic in debug
    /// builds.
    pub fn new(
        mesh: Mesh2D,
        links: &LinkTable,
        job_id: u64,
        nodes: &[NodeId],
        traffic: &[TrafficEntry],
        nominal_rate: f64,
    ) -> Self {
        let mut demand = vec![0.0f64; links.num_slots()];
        let mut avg_distance = 0.0;
        for entry in traffic {
            debug_assert!(entry.src < nodes.len() && entry.dst < nodes.len());
            let src = nodes[entry.src];
            let dst = nodes[entry.dst];
            avg_distance += entry.weight * mesh.distance(src, dst) as f64;
            for link in links.route_links(src, dst) {
                demand[link.index()] += entry.weight;
            }
        }
        let link_demand: Vec<(LinkId, f64)> = demand
            .into_iter()
            .enumerate()
            .filter(|&(_, d)| d > 0.0)
            .map(|(i, d)| (LinkId(i as u32), d))
            .collect();
        JobTraffic {
            job_id,
            link_demand,
            avg_message_distance: avg_distance,
            nominal_rate,
        }
    }

    /// True when the job does not use the network at all (single-processor
    /// jobs or co-located ranks).
    pub fn is_local(&self) -> bool {
        self.link_demand.is_empty()
    }

    /// The highest per-link demand — the job's own bottleneck when running
    /// alone at nominal rate.
    pub fn max_link_demand(&self) -> f64 {
        self.link_demand.iter().map(|&(_, d)| d).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commalloc_mesh::Coord;

    fn mesh_and_links() -> (Mesh2D, LinkTable) {
        let mesh = Mesh2D::new(8, 8);
        (mesh, LinkTable::new(mesh))
    }

    #[test]
    fn ring_traffic_on_a_line_allocation() {
        let (mesh, links) = mesh_and_links();
        // Four processors in a row, ring pattern (0->1->2->3->0).
        let nodes: Vec<NodeId> = (0..4).map(|x| mesh.id_of(Coord::new(x, 0))).collect();
        let traffic: Vec<TrafficEntry> = (0..4)
            .map(|i| TrafficEntry {
                src: i,
                dst: (i + 1) % 4,
                weight: 0.25,
            })
            .collect();
        let jt = JobTraffic::new(mesh, &links, 1, &nodes, &traffic, 1.0);
        // Hops: 1 + 1 + 1 + 3 (the wrap-around) = 6; average 1.5.
        assert!((jt.avg_message_distance - 1.5).abs() < 1e-12);
        assert!(!jt.is_local());
        // Total demand across links equals the average message distance.
        let total: f64 = jt.link_demand.iter().map(|&(_, d)| d).sum();
        assert!((total - jt.avg_message_distance).abs() < 1e-12);
    }

    #[test]
    fn colocated_ranks_have_no_link_demand() {
        let (mesh, links) = mesh_and_links();
        let n = mesh.id_of(Coord::new(3, 3));
        let jt = JobTraffic::new(
            mesh,
            &links,
            7,
            &[n, n],
            &[TrafficEntry {
                src: 0,
                dst: 1,
                weight: 1.0,
            }],
            1.0,
        );
        assert!(jt.is_local());
        assert_eq!(jt.avg_message_distance, 0.0);
        assert_eq!(jt.max_link_demand(), 0.0);
    }

    #[test]
    fn dispersed_allocation_has_larger_message_distance() {
        let (mesh, links) = mesh_and_links();
        let compact: Vec<NodeId> = mesh
            .submesh(Coord::new(0, 0), 2, 2)
            .into_iter()
            .map(|c| mesh.id_of(c))
            .collect();
        let dispersed = vec![
            mesh.id_of(Coord::new(0, 0)),
            mesh.id_of(Coord::new(7, 0)),
            mesh.id_of(Coord::new(0, 7)),
            mesh.id_of(Coord::new(7, 7)),
        ];
        let all_pairs: Vec<TrafficEntry> = (0..4)
            .flat_map(|i| {
                (0..4).filter(move |&j| j != i).map(move |j| TrafficEntry {
                    src: i,
                    dst: j,
                    weight: 1.0 / 12.0,
                })
            })
            .collect();
        let c = JobTraffic::new(mesh, &links, 1, &compact, &all_pairs, 1.0);
        let d = JobTraffic::new(mesh, &links, 2, &dispersed, &all_pairs, 1.0);
        assert!(d.avg_message_distance > 3.0 * c.avg_message_distance);
    }
}
