//! Online/offline scheduling equivalence: replaying the same job trace
//! through the offline engine (`commalloc::simulate_logged`, zero
//! contention) and through the live `AllocationService` (via the
//! deterministic `replay` harness) must produce **byte-identical grant
//! logs** — same jobs, same start times, same processors — under every
//! scheduling policy, and identical occupancy maps at any cut point.
//!
//! This is the same discipline PR 1 applied to the free-interval index
//! (indexed == rescan), now applied to admission: the online daemon is
//! allowed to be fast and concurrent, but never to *schedule* differently
//! from the paper-calibrated simulator.
//!
//! Traces are integerised (integral arrivals and runtimes) so that every
//! event time is exact in `f64` and tie-breaking is deterministic rather
//! than rounding-dependent; see `replay`'s module docs.

use commalloc::prelude::*;
use commalloc::scheduler::SchedulerKind;
use commalloc_service::{replay, AllocationService, JobStatus, ReplayJob};
use commalloc_workload::Job;

/// A congested, integerised trace: arrivals compressed so queues form,
/// runtimes rounded so engine message quotas equal the replay durations.
fn integer_trace(jobs: usize, seed: u64, compress: f64) -> Trace {
    let base = ParagonTraceModel::scaled(jobs)
        .generate(seed)
        .filter_fitting(256);
    Trace::new(
        base.jobs()
            .iter()
            .map(|j| {
                Job::new(
                    j.id,
                    (j.arrival * compress).round(),
                    j.size,
                    j.runtime.round().max(1.0),
                )
            })
            .collect(),
    )
}

fn replay_jobs(trace: &Trace) -> Vec<ReplayJob> {
    trace
        .jobs()
        .iter()
        .map(|j| ReplayJob {
            id: j.id,
            size: j.size,
            arrival: j.arrival,
            duration: j.message_quota() as f64,
            pattern: None,
        })
        .collect()
}

fn online_service(
    machine: &str,
    allocator: AllocatorKind,
    scheduler: SchedulerKind,
) -> AllocationService {
    let service = AllocationService::new();
    service
        .register(
            machine,
            "16x16",
            Some(allocator.name()),
            None,
            Some(scheduler.name()),
        )
        .unwrap();
    service
}

#[test]
fn online_grant_order_equals_offline_grant_order() {
    let trace = integer_trace(120, 42, 0.12);
    for scheduler in SchedulerKind::all() {
        let config = SimConfig::new(
            Mesh2D::square_16x16(),
            CommPattern::AllToAll,
            AllocatorKind::HilbertBestFit,
        )
        .with_scheduler(scheduler)
        .with_fidelity(Fidelity::ZeroContention);
        let (result, offline) = simulate_logged(&trace, &config);
        assert_eq!(result.records.len(), trace.len(), "offline lost jobs");
        // The trace must actually be congested, or the equivalence only
        // covers the trivial grant-on-arrival path.
        assert!(
            result
                .records
                .iter()
                .filter(|r| r.start > r.arrival + 1e-9)
                .count()
                > trace.len() / 4,
            "{scheduler}: trace is not congested enough to exercise the queue"
        );

        let service = online_service("eq", AllocatorKind::HilbertBestFit, scheduler);
        let log = replay(&service, "eq", &replay_jobs(&trace), None);

        assert!(log.rejected.is_empty(), "{scheduler}: online rejected jobs");
        assert_eq!(
            log.grants.len(),
            offline.len(),
            "{scheduler}: grant counts differ"
        );
        for (i, (online_grant, offline_grant)) in log.grants.iter().zip(offline.iter()).enumerate()
        {
            assert_eq!(
                online_grant.job_id, offline_grant.job_id,
                "{scheduler}: grant #{i} started a different job"
            );
            assert_eq!(
                online_grant.time, offline_grant.time,
                "{scheduler}: job {} started at a different time",
                offline_grant.job_id
            );
            assert_eq!(
                online_grant.nodes, offline_grant.nodes,
                "{scheduler}: job {} got different processors",
                offline_grant.job_id
            );
        }

        // Full replay drains the machine completely.
        let snap = service.query("eq").unwrap();
        assert_eq!(snap.busy, 0, "{scheduler}: machine not drained");
        assert_eq!(snap.queue_len, 0);
        service.check_invariants("eq").unwrap();
    }
}

#[test]
fn online_occupancy_map_matches_offline_at_a_cut_point() {
    let trace = integer_trace(90, 7, 0.12);
    for scheduler in SchedulerKind::all() {
        let config = SimConfig::new(
            Mesh2D::square_16x16(),
            CommPattern::AllToAll,
            AllocatorKind::HilbertBestFit,
        )
        .with_scheduler(scheduler)
        .with_fidelity(Fidelity::ZeroContention);
        let (result, offline) = simulate_logged(&trace, &config);
        // Cut mid-schedule, off the event grid so "at T" is unambiguous.
        let mut completions: Vec<f64> = result.records.iter().map(|r| r.completion).collect();
        completions.sort_by(f64::total_cmp);
        let cut = completions[completions.len() / 2] + 0.5;

        let service = online_service("cut", AllocatorKind::HilbertBestFit, scheduler);
        replay(&service, "cut", &replay_jobs(&trace), Some(cut));

        // Offline truth at the cut: jobs with start <= cut < completion
        // hold exactly their granted nodes.
        let mut expected_busy = 0usize;
        let mut expected_running = 0usize;
        for r in &result.records {
            if r.start <= cut && r.completion > cut {
                let grant = offline
                    .iter()
                    .find(|g| g.job_id == r.job_id)
                    .expect("running job was granted");
                match service.poll("cut", r.job_id).unwrap() {
                    JobStatus::Running(nodes) => assert_eq!(
                        nodes, grant.nodes,
                        "{scheduler}: job {} occupancy differs at the cut",
                        r.job_id
                    ),
                    other => panic!(
                        "{scheduler}: job {} should be running at the cut, is {other:?}",
                        r.job_id
                    ),
                }
                expected_busy += r.size;
                expected_running += 1;
            }
        }
        let expected_queued = result
            .records
            .iter()
            .filter(|r| r.arrival <= cut && r.start > cut)
            .count();
        let snap = service.query("cut").unwrap();
        assert_eq!(snap.busy, expected_busy, "{scheduler}: busy count differs");
        assert_eq!(snap.live_jobs, expected_running);
        assert_eq!(
            snap.queue_len, expected_queued,
            "{scheduler}: queue length differs at the cut"
        );
        service.check_invariants("cut").unwrap();
    }
}

#[test]
fn policies_disagree_on_congested_traces() {
    // Sanity guard for the harness itself: if the policies produced
    // identical grant orders on a congested trace, the equivalence above
    // would be vacuous. FCFS vs first-fit separates head-of-line
    // blocking from backfilling; EASY vs conservative separates
    // head-only reservations from whole-queue reservations.
    let trace = integer_trace(120, 42, 0.12);
    let base = SimConfig::new(
        Mesh2D::square_16x16(),
        CommPattern::AllToAll,
        AllocatorKind::HilbertBestFit,
    )
    .with_fidelity(Fidelity::ZeroContention);
    let (_, fcfs) = simulate_logged(&trace, &base.with_scheduler(SchedulerKind::Fcfs));
    let (_, bf) = simulate_logged(
        &trace,
        &base.with_scheduler(SchedulerKind::FirstFitBackfill),
    );
    let fcfs_order: Vec<u64> = fcfs.iter().map(|g| g.job_id).collect();
    let bf_order: Vec<u64> = bf.iter().map(|g| g.job_id).collect();
    assert_ne!(
        fcfs_order, bf_order,
        "backfilling should reorder grants on a congested trace"
    );
    let (_, easy) = simulate_logged(&trace, &base.with_scheduler(SchedulerKind::EasyBackfill));
    let (_, cons) = simulate_logged(&trace, &base.with_scheduler(SchedulerKind::Conservative));
    let easy_starts: Vec<(u64, f64)> = easy.iter().map(|g| (g.job_id, g.time)).collect();
    let cons_starts: Vec<(u64, f64)> = cons.iter().map(|g| (g.job_id, g.time)).collect();
    assert_ne!(
        easy_starts, cons_starts,
        "conservative's whole-queue reservations should schedule \
         differently from EASY's head-only one"
    );
}
