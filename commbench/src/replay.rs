//! The `trace_replay` workload: no wire, no codec, no journal — the
//! synthetic Paragon trace through `replay_cluster` in virtual time,
//! and the one place placement *quality* is measured.

use crate::script::{mesh_nodes, mesh_of, POOL, POOL_NAME};
use commalloc_mesh::{Mesh2D, NodeId};
use commalloc_service::score::predicted_contention_2d;
use commalloc_service::{replay_cluster, AllocationService, ClusterReplayLog, ReplayJob};
use commalloc_workload::synthetic::ParagonTraceModel;
use commalloc_workload::CommPattern;
use std::collections::HashMap;
use std::time::Instant;

/// The paper's arrival-compression knob: the Paragon stream offers about
/// a quarter of this pool, so 0.6 roughly doubles the load — queues form
/// but drain, and routing still controls placement.
const LOAD_FACTOR: f64 = 0.6;

/// `routing_study`'s communication-heavy mix: about 70 % of jobs declare
/// a pattern, weighted towards the densest. Keyed on the job id alone.
fn pattern_of(id: u64) -> Option<CommPattern> {
    match id % 10 {
        0..=2 => Some(CommPattern::AllToAll),
        3 | 4 => Some(CommPattern::AllPairsPingPong),
        5 => Some(CommPattern::TestSuite),
        6 => Some(CommPattern::Stencil2D),
        7 => Some(CommPattern::Ring),
        _ => None,
    }
}

/// The replay stream for `seed`: `jobs` trace jobs (6087 is the paper's
/// full trace), those that fit the largest member, load-compressed,
/// pattern-annotated. Durations are the integral message quotas, which
/// keeps every virtual event time exact in `f64`.
pub fn stream(jobs: usize, seed: u64) -> Vec<ReplayJob> {
    let largest = POOL.iter().map(|(_, m)| mesh_nodes(m)).max().unwrap_or(0);
    ParagonTraceModel::scaled(jobs)
        .generate(seed)
        .filter_fitting(largest)
        .with_load_factor(LOAD_FACTOR)
        .jobs()
        .iter()
        .map(|j| {
            let job = ReplayJob::new(j.id, j.size, j.arrival, j.message_quota() as f64);
            match pattern_of(j.id) {
                Some(p) => job.with_pattern(p),
                None => job,
            }
        })
        .collect()
}

/// A fresh four-machine pool under comm-aware routing and EASY.
fn fresh_pool() -> AllocationService {
    let service = AllocationService::new();
    for (name, mesh) in POOL {
        service
            .register_in_pool(name, mesh, None, None, Some("easy"), Some(POOL_NAME))
            .expect("a fresh service accepts the registration");
    }
    service
        .set_router(POOL_NAME, "comm-aware")
        .expect("the pool exists and the policy parses");
    service
}

/// One replay on a fresh pool: the log and the wall seconds of
/// `replay_cluster` alone.
pub fn replay_once(jobs: &[ReplayJob]) -> (ClusterReplayLog, f64) {
    let service = fresh_pool();
    let start = Instant::now();
    let log = replay_cluster(&service, POOL_NAME, jobs, None);
    (log, start.elapsed().as_secs_f64())
}

/// Service ops of one replay: an alloc and a release per job.
pub fn ops(jobs: &[ReplayJob]) -> u64 {
    2 * jobs.len() as u64
}

/// True when every job ran exactly once and none was refused.
pub fn complete(log: &ClusterReplayLog, jobs: &[ReplayJob]) -> bool {
    let granted: usize = log.grants.values().map(Vec::len).sum();
    log.rejected.is_empty()
        && granted == jobs.len()
        && log.routes.iter().all(|(_, member)| member.is_some())
}

/// One patterned grant as placed: what the scorer is asked about.
pub struct PatternedGrant {
    pub mesh: Mesh2D,
    pub nodes: Vec<NodeId>,
    pub pattern: CommPattern,
    pub job: u64,
}

/// The replay's outcome metrics: mean queue wait over every job, and
/// the patterned grants (for the mean predicted contention of where
/// they actually landed, as `routing_study` computes it).
pub fn outcome(log: &ClusterReplayLog, jobs: &[ReplayJob]) -> (f64, Vec<PatternedGrant>) {
    let by_id: HashMap<u64, &ReplayJob> = jobs.iter().map(|j| (j.id, j)).collect();
    let mut wait = 0.0;
    let mut patterned = Vec::new();
    // Member order, so the float sums repeat exactly.
    for (name, spec) in POOL {
        let mesh = mesh_of(spec);
        for grant in &log.grants[name] {
            let job = by_id[&grant.job_id];
            wait += grant.time - job.arrival;
            if let Some(pattern) = job.pattern {
                patterned.push(PatternedGrant {
                    mesh,
                    nodes: grant.nodes.clone(),
                    pattern,
                    job: grant.job_id,
                });
            }
        }
    }
    (wait / jobs.len() as f64, patterned)
}

pub fn mean_contention(grants: &[PatternedGrant]) -> f64 {
    let sum: f64 = grants
        .iter()
        .map(|g| predicted_contention_2d(g.mesh, &g.nodes, g.pattern, g.job).total())
        .sum();
    sum / grants.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_replay_runs_every_job_and_repeats_exactly() {
        let jobs = stream(300, 4);
        assert!(jobs.iter().any(|j| j.pattern.is_some()));
        let (first, _) = replay_once(&jobs);
        let (second, _) = replay_once(&jobs);
        assert!(complete(&first, &jobs));
        assert_eq!(first, second);
        let (wait, patterned) = outcome(&first, &jobs);
        assert!(wait >= 0.0 && !patterned.is_empty());
        assert!(mean_contention(&patterned) > 0.0);
    }

    #[test]
    fn another_seed_is_another_stream() {
        assert_ne!(stream(300, 4), stream(300, 5));
    }
}
