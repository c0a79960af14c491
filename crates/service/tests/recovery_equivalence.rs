//! Recovery equivalence: journal a deterministic trace, "crash", recover
//! — and prove the rebuilt registry and pool state **byte-identical** to
//! an uninterrupted run cut at the same point, for every scheduling
//! policy and every routing policy.
//!
//! This is the discipline of `sim_equivalence` (online == offline grant
//! logs) and `cluster_equivalence` (routed == offline-routed) applied to
//! durability: a daemon is allowed to crash, but never to *recover*
//! different state than it lost. Two crash shapes are covered:
//!
//! * **snapshot + tail** — the daemon installed a compacted snapshot
//!   mid-run, then journaled more records before dying (the common case
//!   for a long-lived daemon); recovery folds the tail over the image.
//! * **pure WAL** — the daemon died before any snapshot existed;
//!   recovery folds the whole record stream from an empty service.
//!
//! The comparison object is [`commalloc_service::journal::MachineImage`]
//! — the machine's *entire* durable state: occupancy per job (exact
//! node sets), running order (EASY's tie-breaking state), queue
//! contents and order, scheduler, and clock. Only the journal sequence
//! watermark is normalised (the reference run never journals, so its
//! watermarks are zero), and the clock in the pure-WAL shape (virtual
//! clocks travel in snapshots, not in per-op records — documented in
//! the journal module).

use commalloc::prelude::*;
use commalloc::scheduler::SchedulerKind;
use commalloc_mesh::NodeId;
use commalloc_service::journal::MachineImage;
use commalloc_service::{
    open_journaled, replay, replay_cluster, AllocArgs, AllocationService, JobStatus, JournalConfig,
    ReplayJob, RequestCtx, RoutingPolicy,
};
use commalloc_workload::Job;
use std::path::PathBuf;

/// In-process callers trace nothing.
const INERT: RequestCtx<'static> = RequestCtx::inert();

/// A congested, integerised trace (the sim-equivalence recipe: exact
/// event times in `f64`, queues that actually form).
fn integer_trace(jobs: usize, seed: u64, compress: f64) -> Vec<ReplayJob> {
    let base = ParagonTraceModel::scaled(jobs)
        .generate(seed)
        .filter_fitting(256);
    base.jobs()
        .iter()
        .map(|j| {
            let job = Job::new(
                j.id,
                (j.arrival * compress).round(),
                j.size,
                j.runtime.round().max(1.0),
            );
            ReplayJob {
                id: job.id,
                size: job.size,
                arrival: job.arrival,
                duration: job.message_quota() as f64,
                pattern: None,
            }
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("commalloc-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Strips the fields the reference (never-journaled) run cannot share:
/// the journal watermark always, the clock when `strip_clock` (virtual
/// clocks replay from snapshots only).
fn normalized(mut image: MachineImage, strip_clock: bool) -> MachineImage {
    image.seq = 0;
    if strip_clock {
        image.clock = None;
    }
    image
}

/// Asserts every job of the trace stands identically on both services.
fn assert_jobs_agree(
    reference: &AllocationService,
    recovered: &AllocationService,
    machine: &str,
    jobs: &[ReplayJob],
    context: &str,
) {
    for job in jobs {
        let want = reference.poll(machine, job.id).unwrap();
        let got = recovered.poll(machine, job.id).unwrap();
        assert_eq!(got, want, "{context}: job {} diverged", job.id);
        if let JobStatus::Running(nodes) = got {
            assert!(!nodes.is_empty());
        }
    }
}

/// Single machine, every scheduler, both crash shapes: the recovered
/// image equals the uninterrupted one at the cut.
#[test]
fn recovered_machine_state_matches_uninterrupted_run() {
    let jobs = integer_trace(90, 42, 0.12);
    let last_arrival = jobs.last().unwrap().arrival;
    let cut = last_arrival * 0.6 + 0.5; // mid-schedule, off the event grid
    for scheduler in SchedulerKind::all() {
        for install_snapshot in [true, false] {
            let tag = format!(
                "m-{}-{}",
                scheduler.name().replace(' ', "_"),
                install_snapshot
            );
            let dir = temp_dir(&tag);

            // The journaled run, cut "mid-flight".
            let (journaled, _) = open_journaled(&dir, JournalConfig::default()).unwrap();
            journaled
                .register("m", "16x16", None, None, Some(scheduler.name()))
                .unwrap();
            replay(&journaled, "m", &jobs, Some(cut));
            if install_snapshot {
                journaled.install_journal_snapshot().unwrap();
            }
            drop(journaled); // the "crash": nothing is flushed beyond the WAL

            // The uninterrupted reference at the same cut.
            let reference = AllocationService::new();
            reference
                .register("m", "16x16", None, None, Some(scheduler.name()))
                .unwrap();
            replay(&reference, "m", &jobs, Some(cut));

            let (recovered, report) = open_journaled(&dir, JournalConfig::default()).unwrap();
            assert_eq!(report.epoch, 1, "{tag}");
            assert_eq!(report.snapshot_found, install_snapshot, "{tag}");
            recovered.check_invariants("m").unwrap();

            // Byte-identical machine images: occupancy per job, running
            // order, queue contents and order, scheduler — and the
            // virtual clock when it travelled via the snapshot.
            let strip_clock = !install_snapshot;
            assert_eq!(
                normalized(recovered.machine_image("m").unwrap(), strip_clock),
                normalized(reference.machine_image("m").unwrap(), strip_clock),
                "{tag}: recovered image differs from the uninterrupted run"
            );
            assert_jobs_agree(&reference, &recovered, "m", &jobs, &tag);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// Cluster pools: every routing policy × every scheduler. The recovered
/// pool table (members + policy) and every member's image must equal the
/// uninterrupted run's.
#[test]
fn recovered_cluster_state_matches_uninterrupted_run() {
    let jobs = integer_trace(70, 7, 0.12);
    let last_arrival = jobs.last().unwrap().arrival;
    let cut = last_arrival * 0.6 + 0.5;
    let members = [("a", "16x16"), ("b", "16x8"), ("c", "8x8")];
    for scheduler in SchedulerKind::all() {
        for policy in RoutingPolicy::all() {
            let tag = format!("c-{}-{}", scheduler.name().replace(' ', "_"), policy.name());
            let dir = temp_dir(&tag);

            let build = |service: &AllocationService| {
                for (name, mesh) in members {
                    service
                        .register_in_pool(
                            name,
                            mesh,
                            None,
                            None,
                            Some(scheduler.name()),
                            Some("grid"),
                        )
                        .unwrap();
                }
                service.set_router("grid", policy.name()).unwrap();
            };

            let (journaled, _) = open_journaled(&dir, JournalConfig::default()).unwrap();
            build(&journaled);
            let log = replay_cluster(&journaled, "grid", &jobs, Some(cut));
            journaled.install_journal_snapshot().unwrap();
            drop(journaled);

            let reference = AllocationService::new();
            build(&reference);
            let reference_log = replay_cluster(&reference, "grid", &jobs, Some(cut));
            assert_eq!(log.routes, reference_log.routes, "{tag}: routing diverged");

            let (recovered, report) = open_journaled(&dir, JournalConfig::default()).unwrap();
            assert_eq!(report.epoch, 1, "{tag}");
            assert_eq!(
                recovered.router().members("grid").unwrap(),
                vec!["a".to_string(), "b".to_string(), "c".to_string()],
                "{tag}"
            );
            assert_eq!(recovered.router().policy("grid").unwrap(), policy, "{tag}");
            for (name, _) in members {
                recovered.check_invariants(name).unwrap();
                assert_eq!(
                    normalized(recovered.machine_image(name).unwrap(), false),
                    normalized(reference.machine_image(name).unwrap(), false),
                    "{tag}: member {name} diverged"
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// Snapshot → crash → recover → traffic → crash → recover: operations
/// acknowledged *after* the first restart must survive the second one.
/// A snapshot install prunes the WAL, so the first restart boots from a
/// snapshot with an empty tail; if the new incarnation's sequence
/// numbers restarted below the snapshot's per-machine watermarks, the
/// second recovery's watermark gate would silently drop everything the
/// restarted daemon journaled.
#[test]
fn operations_after_a_restart_survive_the_next_restart() {
    let dir = temp_dir("double-restart");
    {
        let (service, _) = open_journaled(&dir, JournalConfig::default()).unwrap();
        service.register("m", "8x8", None, None, None).unwrap();
        service.alloc("m", &AllocArgs::new(1, 4), &INERT).unwrap();
        // Compact: the snapshot carries the machine's journal watermark
        // and prunes the WAL, leaving an empty tail for the next boot.
        service.install_journal_snapshot().unwrap();
    }
    // Restart #1: traffic in the new incarnation must land above the
    // recovered watermark.
    {
        let (service, report) = open_journaled(&dir, JournalConfig::default()).unwrap();
        assert_eq!(report.epoch, 1);
        service.alloc("m", &AllocArgs::new(2, 8), &INERT).unwrap();
        service.release("m", 1, &INERT).unwrap();
    }
    // Restart #2: the post-restart grant and release both recovered.
    let (recovered, report) = open_journaled(&dir, JournalConfig::default()).unwrap();
    assert_eq!(report.epoch, 2);
    assert_eq!(recovered.poll("m", 1).unwrap(), JobStatus::Unknown);
    assert!(matches!(
        recovered.poll("m", 2).unwrap(),
        JobStatus::Running(_)
    ));
    assert_eq!(recovered.query("m").unwrap().busy, 8);
    recovered.check_invariants("m").unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash → recover → keep running: the recovered daemon still serves
/// (releases drain the recovered queue, grants stay sound) — recovery
/// produces a *live* machine, not a museum piece.
#[test]
fn recovered_service_keeps_scheduling_correctly() {
    let dir = temp_dir("liveness");
    {
        let (service, _) = open_journaled(&dir, JournalConfig::default()).unwrap();
        service.register("m", "8x8", None, None, None).unwrap();
        service.alloc("m", &AllocArgs::new(1, 60), &INERT).unwrap();
        service
            .alloc("m", &AllocArgs::new(2, 10).or_wait(), &INERT)
            .unwrap(); // queued
        service
            .alloc("m", &AllocArgs::new(3, 2).or_wait(), &INERT)
            .unwrap(); // queued behind it
    }
    let (recovered, _) = open_journaled(&dir, JournalConfig::default()).unwrap();
    assert_eq!(recovered.poll("m", 2).unwrap(), JobStatus::Queued(1));
    assert_eq!(recovered.poll("m", 3).unwrap(), JobStatus::Queued(2));
    // Releasing the hog admits the recovered queue in FCFS order.
    let granted = recovered.release("m", 1, &INERT).unwrap();
    let ids: Vec<u64> = granted.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, vec![2, 3]);
    let nodes: Vec<NodeId> = granted.into_iter().flat_map(|(_, n)| n).collect();
    assert_eq!(nodes.len(), 12);
    recovered.check_invariants("m").unwrap();
    // And those post-recovery operations are themselves durable.
    drop(recovered);
    let (third, report) = open_journaled(&dir, JournalConfig::default()).unwrap();
    assert_eq!(report.epoch, 2);
    assert_eq!(third.query("m").unwrap().busy, 12);
    assert_eq!(third.query("m").unwrap().queue_len, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
