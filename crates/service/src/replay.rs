//! Deterministic trace replay through the online service.
//!
//! Drives an [`AllocationService`] machine in *virtual time* with exactly
//! the event loop of the offline engine (`commalloc::engine`) running in
//! its zero-contention fidelity: arrivals enqueue (`alloc` with `wait`),
//! completions release at `start + duration`, and after every event the
//! machine's admission queue drains under its scheduling policy. Because
//! both sides consume the same `SchedulerKind::select_with_context` and
//! the same allocator implementations, the replay's grant log is
//! **byte-identical** to the offline simulator's for the same job list —
//! the equivalence the `sim_equivalence` tests pin for every policy.
//!
//! The three virtual-time harnesses here and in [`crate::cluster`]
//! ([`replay`], [`replay_cluster`], [`crate::route_offline`]) share one
//! event loop, `drive`, whose doc lists the engine's tie-break rules
//! it mirrors.
//!
//! Integer-valued arrivals and durations (the engine's message quotas are
//! integers) keep every event time exact in `f64`, making tie-breaking
//! reproducible rather than rounding-dependent.

use crate::clock::Clock;
use crate::protocol::{AllocArgs, JobRef};
use crate::registry::{AllocOutcome, ServiceError};
use crate::service::AllocationService;
use crate::trace::RequestCtx;
use commalloc_mesh::NodeId;
use commalloc_workload::CommPattern;
use std::collections::HashMap;

/// One job of a replayable trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayJob {
    /// Job identifier (unique within the trace).
    pub id: u64,
    /// Processors requested.
    pub size: usize,
    /// Arrival time, in seconds. The job list must be sorted by arrival
    /// (the engine replays traces in order).
    pub arrival: f64,
    /// Runtime in seconds (the zero-contention duration, which doubles
    /// as the walltime estimate handed to EASY).
    pub duration: f64,
    /// The communication pattern the job declares on arrival, if any —
    /// scored by the allocator's candidate windows and by the comm-aware
    /// routing policy.
    pub pattern: Option<CommPattern>,
}

impl ReplayJob {
    /// An unpatterned trace job.
    pub fn new(id: u64, size: usize, arrival: f64, duration: f64) -> ReplayJob {
        ReplayJob {
            id,
            size,
            arrival,
            duration,
            pattern: None,
        }
    }

    /// The alloc a replay submits for this job: queue when blocked, the
    /// duration as the walltime estimate, the declared pattern.
    pub(crate) fn alloc_args(&self) -> AllocArgs<'static> {
        AllocArgs {
            wait: true,
            walltime: Some(self.duration),
            pattern: self.pattern,
            ..AllocArgs::new(self.id, self.size)
        }
    }

    /// The same job declaring `pattern`.
    pub fn with_pattern(self, pattern: CommPattern) -> ReplayJob {
        ReplayJob {
            pattern: Some(pattern),
            ..self
        }
    }
}

/// One grant as the replay observed it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayGrant {
    /// The started job.
    pub job_id: u64,
    /// Virtual time of the grant.
    pub time: f64,
    /// The granted processors, in rank order.
    pub nodes: Vec<NodeId>,
}

/// The outcome of a replay run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayLog {
    /// Every grant, in grant order — the online counterpart of the
    /// engine's grant log.
    pub grants: Vec<ReplayGrant>,
    /// Jobs the machine rejected outright (allocator refusal on an empty
    /// machine; never happens with the curve allocators).
    pub rejected: Vec<u64>,
    /// Virtual time of the last processed event.
    pub end_time: f64,
}

/// The one virtual-time event loop behind [`replay`], [`replay_cluster`]
/// and [`crate::route_offline`], and so the one home of the offline
/// engine's tie-break rules, on which every byte-identical equivalence
/// proof rests:
///
/// * the next event is the earlier of the next arrival and the next
///   completion, **arrivals winning exact ties** (`a <= c`);
/// * each machine keeps its own `(job, completion)` vector, evolved
///   push/`swap_remove` like the engine's running vector (so EASY's
///   stable completion sort breaks ties in the same order on both
///   sides), and reduces it with the engine's exact `min_by(total_cmp)`
///   (the first minimum wins);
/// * equal completions on different machines go to the lowest machine
///   index. Per-machine vectors keep a machine's own tie order that of
///   a standalone replay of it: a shared vector would let the other
///   machines' pushes and removals perturb it.
///
/// The clock is set to each event's time before it is handled.
/// `arrive` submits a job and names the machine index it landed on
/// with the outcome (`None`: not placed, nothing to record); `release`
/// frees a finished job on its machine and returns the jobs the release
/// granted. Stops after the last event at or before `until`. Returns one
/// grant log per machine, the rejected ids and the last event's time.
///
/// # Panics
///
/// Panics if a job id repeats in `jobs`.
pub(crate) fn drive(
    clock: &Clock,
    machines: usize,
    jobs: &[ReplayJob],
    until: Option<f64>,
    mut arrive: impl FnMut(&ReplayJob) -> Option<(usize, AllocOutcome)>,
    mut release: impl FnMut(usize, u64) -> Vec<(u64, Vec<NodeId>)>,
) -> (Vec<Vec<ReplayGrant>>, Vec<u64>, f64) {
    let durations: HashMap<u64, f64> = jobs.iter().map(|j| (j.id, j.duration)).collect();
    assert_eq!(durations.len(), jobs.len(), "replay job ids must be unique");
    let mut grants: Vec<Vec<ReplayGrant>> = vec![Vec::new(); machines];
    let mut running: Vec<Vec<(u64, f64)>> = vec![Vec::new(); machines];
    let mut rejected: Vec<u64> = Vec::new();
    let mut next_arrival = 0usize;
    let mut now = 0.0f64;

    loop {
        let completion = running
            .iter()
            .enumerate()
            .filter_map(|(m, vector)| {
                (vector.iter().enumerate())
                    .map(|(i, &(_, c))| (c, m, i))
                    .min_by(|a, b| a.0.total_cmp(&b.0))
            })
            .min_by(|a, b| a.0.total_cmp(&b.0));
        let (time, done) = match (jobs.get(next_arrival), completion) {
            (Some(job), Some((c, m, i))) if job.arrival > c => (c, Some((m, i))),
            (Some(job), _) => (job.arrival, None),
            (None, Some((c, m, i))) => (c, Some((m, i))),
            (None, None) => break,
        };
        if until.is_some_and(|limit| time > limit) {
            break;
        }
        now = time.max(now);
        clock.set_time(now);

        if let Some((m, i)) = done {
            let (finished, _) = running[m].swap_remove(i);
            for (job_id, nodes) in release(m, finished) {
                running[m].push((job_id, now + durations[&job_id]));
                grants[m].push(ReplayGrant {
                    job_id,
                    time: now,
                    nodes,
                });
            }
            continue;
        }
        let job = &jobs[next_arrival];
        next_arrival += 1;
        match arrive(job) {
            Some((m, AllocOutcome::Granted(nodes))) => {
                running[m].push((job.id, now + job.duration));
                grants[m].push(ReplayGrant {
                    job_id: job.id,
                    time: now,
                    nodes,
                });
            }
            Some((_, AllocOutcome::Rejected(_))) => rejected.push(job.id),
            Some((_, AllocOutcome::Queued(_))) | None => {}
        }
    }
    (grants, rejected, now)
}

/// Replays `jobs` against `machine` on `service`, stopping after the last
/// event at or before `until` (or running to completion when `None`).
/// Jobs larger than the machine should be filtered out beforehand, as the
/// engine does with its traces.
///
/// # Panics
///
/// Panics if the machine does not exist, a job id repeats, or the service
/// misbehaves (errors on a well-formed request) — this is a harness for
/// tests and benchmarks, not production traffic.
pub fn replay(
    service: &AllocationService,
    machine: &str,
    jobs: &[ReplayJob],
    until: Option<f64>,
) -> ReplayLog {
    let (mut grants, rejected, end_time) = drive(
        service.clock(),
        1,
        jobs,
        until,
        |job| {
            let outcome = service
                .alloc(machine, &job.alloc_args(), &RequestCtx::inert())
                .expect("well-formed replay request");
            Some((0, outcome))
        },
        |_, job| {
            service
                .release(machine, job, &RequestCtx::inert())
                .expect("running job releases cleanly")
        },
    );
    ReplayLog {
        grants: grants.remove(0),
        rejected,
        end_time,
    }
}

/// The outcome of a cluster replay: the routing decisions plus one grant
/// log per member machine.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReplayLog {
    /// Per trace job, in arrival order: the member machine the router
    /// placed it on (`None` when no member was large enough).
    pub routes: Vec<(u64, Option<String>)>,
    /// Per member machine: every grant on that machine, in grant order —
    /// the logs the cluster sim-equivalence harness compares against
    /// per-machine [`replay`] runs.
    pub grants: HashMap<String, Vec<ReplayGrant>>,
    /// Jobs rejected after routing (allocator refusal on an empty
    /// machine) — distinct from unroutable jobs, which appear as `None`
    /// routes.
    pub rejected: Vec<u64>,
    /// Virtual time of the last processed event.
    pub end_time: f64,
}

/// Replays `jobs` against pool `pool` (no `@` sigil) on `service`,
/// routing every arrival through the pool's [`crate::RoutingPolicy`]
/// with `wait` set — the **online** half of the cluster sim-equivalence
/// proof, and the engine behind the `cluster_routing` benchmark. Runs
/// `drive` with one machine per member, in the pool's member order,
/// on the service's one clock.
///
/// # Panics
///
/// Panics if the pool does not exist, a job id repeats, or the service
/// errors on a well-formed request — a harness, not production traffic.
pub fn replay_cluster(
    service: &AllocationService,
    pool: &str,
    jobs: &[ReplayJob],
    until: Option<f64>,
) -> ClusterReplayLog {
    let members = service.router().members(pool).expect("replay pool exists");
    let pool_address = format!("@{pool}");
    let mut routes: Vec<(u64, Option<String>)> = Vec::with_capacity(jobs.len());
    let (grants, rejected, end_time) = drive(
        service.clock(),
        members.len(),
        jobs,
        until,
        |job| match service.route(pool, &job.alloc_args(), &RequestCtx::inert()) {
            Ok((machine, outcome)) => {
                let at = members.iter().position(|m| *m == machine);
                routes.push((job.id, Some(machine)));
                Some((at.expect("routed to a member"), outcome))
            }
            Err(ServiceError::InvalidRequest(_)) => {
                routes.push((job.id, None));
                None
            }
            Err(e) => panic!("cluster replay route failed: {e}"),
        },
        |at, job| {
            // Release through the pool address: the bare id resolves to
            // whichever member holds it, so every cluster replay also
            // proves resolution agrees with the router's bookkeeping.
            let (resolved, granted) = service
                .release_ref(
                    Some(&pool_address),
                    &JobRef::Bare(job),
                    &RequestCtx::inert(),
                )
                .expect("running job releases cleanly");
            assert_eq!(
                resolved, members[at],
                "a bare id must resolve to the member the router placed the job on"
            );
            granted
        },
    );
    ClusterReplayLog {
        routes,
        grants: members.into_iter().zip(grants).collect(),
        rejected,
        end_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_runs_a_tiny_trace_to_empty() {
        let service = AllocationService::new();
        service.register("m", "4x4", None, None, None).unwrap();
        let jobs = [
            ReplayJob::new(0, 16, 0.0, 10.0),
            ReplayJob::new(1, 4, 1.0, 5.0),
        ];
        let log = replay(&service, "m", &jobs, None);
        assert_eq!(log.grants.len(), 2);
        assert_eq!(log.grants[0].job_id, 0);
        assert_eq!(log.grants[0].time, 0.0);
        // Job 1 waits for the full machine to clear at t = 10.
        assert_eq!(log.grants[1].job_id, 1);
        assert_eq!(log.grants[1].time, 10.0);
        assert!(log.rejected.is_empty());
        assert_eq!(log.end_time, 15.0);
        assert_eq!(service.query("m").unwrap().busy, 0);
    }

    #[test]
    fn cluster_replay_routes_round_robin_and_drains() {
        let service = AllocationService::new();
        for name in ["a", "b"] {
            service
                .register_in_pool(name, "4x4", None, None, None, Some("p"))
                .unwrap();
        }
        let jobs = [
            ReplayJob::new(0, 16, 0.0, 10.0),
            ReplayJob::new(1, 16, 1.0, 5.0),
            ReplayJob::new(2, 99, 2.0, 5.0), // larger than every member: unroutable,
        ];
        let log = replay_cluster(&service, "p", &jobs, None);
        assert_eq!(
            log.routes,
            vec![
                (0, Some("a".to_string())),
                (1, Some("b".to_string())),
                (2, None),
            ]
        );
        assert_eq!(log.grants["a"].len(), 1);
        assert_eq!(log.grants["b"].len(), 1);
        assert_eq!(log.grants["b"][0].time, 1.0);
        assert!(log.rejected.is_empty());
        assert_eq!(log.end_time, 10.0);
        for name in ["a", "b"] {
            assert_eq!(service.query(name).unwrap().busy, 0);
        }
    }

    #[test]
    #[should_panic(expected = "replay job ids must be unique")]
    fn a_repeated_job_id_panics() {
        let service = AllocationService::new();
        service.register("m", "4x4", None, None, None).unwrap();
        let jobs = [
            ReplayJob::new(0, 4, 0.0, 1.0),
            ReplayJob::new(0, 4, 5.0, 1.0),
            ReplayJob::new(1, 4, 6.0, 1.0),
        ];
        replay(&service, "m", &jobs, None);
    }

    #[test]
    fn until_freezes_the_machine_mid_schedule() {
        let service = AllocationService::new();
        service.register("m", "4x4", None, None, None).unwrap();
        let jobs = [
            ReplayJob::new(0, 16, 0.0, 10.0),
            ReplayJob::new(1, 4, 1.0, 5.0),
        ];
        let log = replay(&service, "m", &jobs, Some(9.5));
        assert_eq!(log.grants.len(), 1);
        let snap = service.query("m").unwrap();
        assert_eq!(snap.busy, 16);
        assert_eq!(snap.queue_len, 1);
    }
}
