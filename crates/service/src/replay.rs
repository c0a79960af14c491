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
//! Determinism notes, mirrored from the engine:
//!
//! * the next completion is chosen with the engine's exact
//!   `min_by(total_cmp)` reduction (last minimum wins on ties);
//! * simultaneous arrival/completion resolves in favour of the arrival
//!   (`a <= c`), as in the engine;
//! * the running set evolves push/`swap_remove`, so EASY's stable
//!   completion sort breaks ties in the same order on both sides.
//!
//! Integer-valued arrivals and durations (the engine's message quotas are
//! integers) keep every event time exact in `f64`, making tie-breaking
//! reproducible rather than rounding-dependent.

use crate::protocol::{AllocArgs, JobRef};
use crate::registry::AllocOutcome;
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

/// The engine's event-selection rule, shared by every replay loop and
/// the offline router: the earlier of the next arrival and the next
/// completion, **arrivals winning exact ties** (`a <= c`). Returns
/// `(event_time, is_arrival)`, or `None` when no event remains. This
/// tie-break is load-bearing for every byte-identical equivalence proof
/// — it lives in exactly one place so the simulators cannot drift.
pub(crate) fn next_event(arrival: Option<f64>, completion: Option<f64>) -> Option<(f64, bool)> {
    match (arrival, completion) {
        (Some(a), Some(c)) => Some(if a <= c { (a, true) } else { (c, false) }),
        (Some(a), None) => Some((a, true)),
        (None, Some(c)) => Some((c, false)),
        (None, None) => None,
    }
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
    let mut grants: Vec<ReplayGrant> = Vec::new();
    let mut rejected: Vec<u64> = Vec::new();
    // (job_id, predicted completion), evolved push/swap_remove exactly
    // like the engine's running vector.
    let mut running: Vec<(u64, f64)> = Vec::new();
    let durations: HashMap<u64, f64> = jobs.iter().map(|j| (j.id, j.duration)).collect();
    let duration_of = |job_id: u64| {
        *durations
            .get(&job_id)
            .expect("granted job comes from the trace")
    };

    let mut next_arrival = 0usize;
    let mut now = 0.0f64;

    loop {
        let arrival_time = jobs.get(next_arrival).map(|j| j.arrival);
        // The engine's exact completion reduction: min_by(total_cmp) over
        // (completion, index); Rust's min_by keeps the *last* minimum.
        let completion = running
            .iter()
            .enumerate()
            .map(|(i, &(_, c))| (c, i))
            .min_by(|a, b| a.0.total_cmp(&b.0));

        let Some((event_time, is_arrival)) = next_event(arrival_time, completion.map(|(c, _)| c))
        else {
            break;
        };
        if let Some(limit) = until {
            if event_time > limit {
                break;
            }
        }

        now = event_time.max(now);
        service.clock().set_time(now);

        if is_arrival {
            let job = jobs[next_arrival];
            next_arrival += 1;
            match service
                .alloc(machine, &job.alloc_args(), &RequestCtx::inert())
                .expect("well-formed replay request")
            {
                AllocOutcome::Granted(nodes) => {
                    running.push((job.id, now + job.duration));
                    grants.push(ReplayGrant {
                        job_id: job.id,
                        time: now,
                        nodes,
                    });
                }
                AllocOutcome::Queued(_) => {}
                AllocOutcome::Rejected(_) => rejected.push(job.id),
            }
        } else {
            let (_, idx) = completion.expect("completion event requires a running job");
            let (done, _) = running.swap_remove(idx);
            let granted = service
                .release(machine, done, &RequestCtx::inert())
                .expect("running job releases cleanly");
            for (job_id, nodes) in granted {
                running.push((job_id, now + duration_of(job_id)));
                grants.push(ReplayGrant {
                    job_id,
                    time: now,
                    nodes,
                });
            }
        }
    }

    ReplayLog {
        grants,
        rejected,
        end_time: now,
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

/// The next completion event across a cluster's per-machine running
/// vectors: each machine is reduced with the engine's exact
/// `min_by(total_cmp)` rule over its **own** vector (so a machine's
/// simultaneous completions resolve in the same order as a standalone
/// [`replay`] of that machine would), and cross-machine ties go to the
/// machine earliest in iteration order (members are kept sorted by
/// name). Returns `(completion, machine index, local running index)`.
///
/// Keeping the vectors per-machine is what makes the per-machine grant
/// logs byte-identical to standalone replays: a shared vector would let
/// other machines' pushes and `swap_remove`s perturb the tie-breaking
/// indices of this machine's simultaneous completions.
pub(crate) fn next_cluster_completion(running: &[Vec<(u64, f64)>]) -> Option<(f64, usize, usize)> {
    let mut best: Option<(f64, usize, usize)> = None;
    for (machine_at, machine_running) in running.iter().enumerate() {
        let local = machine_running
            .iter()
            .enumerate()
            .map(|(i, &(_, c))| (c, i))
            .min_by(|a, b| a.0.total_cmp(&b.0));
        if let Some((c, i)) = local {
            match &best {
                Some((b, _, _)) if c.total_cmp(b).is_ge() => {}
                _ => best = Some((c, machine_at, i)),
            }
        }
    }
    best
}

/// Replays `jobs` against pool `pool` (no `@` sigil) on `service`,
/// routing every arrival through the pool's [`crate::RoutingPolicy`]
/// with `wait` set — the **online** half of the cluster sim-equivalence
/// proof, and the engine behind the `cluster_routing` benchmark. Runs
/// the event loop of [`replay`] generalised to many machines: arrivals
/// win ties against completions, each machine's completions reduce over
/// its own push/`swap_remove` vector ([`next_cluster_completion`]), and
/// the members share the service's one clock.
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
    let member_at: HashMap<&str, usize> = members
        .iter()
        .enumerate()
        .map(|(i, m)| (m.as_str(), i))
        .collect();
    let mut grants: HashMap<String, Vec<ReplayGrant>> =
        members.iter().map(|m| (m.clone(), Vec::new())).collect();
    let mut routes: Vec<(u64, Option<String>)> = Vec::with_capacity(jobs.len());
    let mut rejected: Vec<u64> = Vec::new();
    // One (job_id, predicted completion) vector per member, in member
    // order, each evolved push/swap_remove like the engine's.
    let mut running: Vec<Vec<(u64, f64)>> = vec![Vec::new(); members.len()];
    let durations: HashMap<u64, f64> = jobs.iter().map(|j| (j.id, j.duration)).collect();
    let pool_address = format!("@{pool}");

    let mut next_arrival = 0usize;
    let mut now = 0.0f64;

    loop {
        let arrival_time = jobs.get(next_arrival).map(|j| j.arrival);
        let completion = next_cluster_completion(&running);
        let Some((event_time, is_arrival)) =
            next_event(arrival_time, completion.map(|(c, _, _)| c))
        else {
            break;
        };
        if let Some(limit) = until {
            if event_time > limit {
                break;
            }
        }

        now = event_time.max(now);
        service.clock().set_time(now);

        if is_arrival {
            let job = jobs[next_arrival];
            next_arrival += 1;
            match service.route(pool, &job.alloc_args(), &RequestCtx::inert()) {
                Ok((machine, outcome)) => {
                    routes.push((job.id, Some(machine.clone())));
                    match outcome {
                        AllocOutcome::Granted(nodes) => {
                            running[member_at[machine.as_str()]].push((job.id, now + job.duration));
                            grants
                                .get_mut(&machine)
                                .expect("member log")
                                .push(ReplayGrant {
                                    job_id: job.id,
                                    time: now,
                                    nodes,
                                });
                        }
                        AllocOutcome::Queued(_) => {}
                        AllocOutcome::Rejected(_) => rejected.push(job.id),
                    }
                }
                Err(crate::registry::ServiceError::InvalidRequest(_)) => {
                    routes.push((job.id, None));
                }
                Err(e) => panic!("cluster replay route failed: {e}"),
            }
        } else {
            let (_, machine_at, idx) = completion.expect("completion event requires a running job");
            let machine = members[machine_at].clone();
            let (done, _) = running[machine_at].swap_remove(idx);
            // Release through the pool address: the bare id resolves
            // to whichever member holds it, so every cluster replay
            // also proves resolution agrees with the router's
            // bookkeeping.
            let (resolved, granted) = service
                .release_ref(
                    Some(&pool_address),
                    &JobRef::Bare(done),
                    &RequestCtx::inert(),
                )
                .expect("running job releases cleanly");
            assert_eq!(
                resolved, machine,
                "a bare id must resolve to the member the router placed the job on"
            );
            for (job_id, nodes) in granted {
                let duration = durations[&job_id];
                running[machine_at].push((job_id, now + duration));
                grants
                    .get_mut(&machine)
                    .expect("member log")
                    .push(ReplayGrant {
                        job_id,
                        time: now,
                        nodes,
                    });
            }
        }
    }

    ClusterReplayLog {
        routes,
        grants,
        rejected,
        end_time: now,
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
