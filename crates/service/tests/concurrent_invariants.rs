//! Concurrent in-process hammering of one machine under every scheduling
//! policy: interleaved allocate / release / cancel from many threads must
//! never double-grant a node, must keep the occupancy invariant, and must
//! keep the queue-position view consistent.
//!
//! Claim discipline: a node is claimed by whoever *observes* its grant —
//! the allocating thread for immediate grants, the releasing thread for
//! queue grants reported in a `release` response (which may belong to
//! another thread's job). Releases and cancels serialise on the shared
//! grant ledger and hold it across the service call, so observing a grant
//! and claiming its nodes is one atomic step; allocations stay fully
//! concurrent, which is where the double-grant hazard lives.

use commalloc::scheduler::SchedulerKind;
use commalloc_service::{AllocArgs, AllocOutcome, AllocationService, JobStatus, RequestCtx};
use rand::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

const NODES: usize = 256;
const THREADS: u64 = 4;
const OPS_PER_THREAD: usize = 1500;

/// Node claims shared by all threads, plus the grant ledger: the node
/// sets of queue-granted jobs, so owners can unclaim what another thread
/// claimed on their behalf.
struct Shared {
    claims: Vec<AtomicBool>,
    violations: AtomicU64,
    /// job -> nodes, filled in by whichever thread observed the grant.
    ledger: Mutex<HashMap<u64, Vec<commalloc_mesh::NodeId>>>,
}

impl Shared {
    fn claim(&self, nodes: &[commalloc_mesh::NodeId]) {
        for n in nodes {
            if self.claims[n.index()].swap(true, Ordering::SeqCst) {
                self.violations.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    fn unclaim(&self, nodes: &[commalloc_mesh::NodeId]) {
        for n in nodes {
            if !self.claims[n.index()].swap(false, Ordering::SeqCst) {
                self.violations.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// Releases (or cancels) `job` with the ledger held across the call:
    /// unclaims whatever the job holds, then claims and records every
    /// grant the release admitted from the queue.
    fn release_atomically(
        &self,
        service: &AllocationService,
        machine: &str,
        job: u64,
        held: Option<Vec<commalloc_mesh::NodeId>>,
    ) {
        let mut ledger = self.ledger.lock().unwrap();
        let held = held.or_else(|| ledger.remove(&job));
        if let Some(nodes) = &held {
            self.unclaim(nodes);
        }
        let granted = service.release(machine, job, &RequestCtx::inert()).unwrap();
        for (granted_job, granted_nodes) in granted {
            self.claim(&granted_nodes);
            ledger.insert(granted_job, granted_nodes);
        }
    }
}

fn hammer(scheduler: SchedulerKind) {
    let service = AllocationService::new();
    let machine = format!("m-{}", scheduler.name());
    service
        .register(&machine, "16x16", None, None, Some(scheduler.name()))
        .unwrap();
    let shared = Shared {
        claims: (0..NODES).map(|_| AtomicBool::new(false)).collect(),
        violations: AtomicU64::new(0),
        ledger: Mutex::new(HashMap::new()),
    };

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let service = service.clone();
            let machine = machine.as_str();
            let shared = &shared;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(t ^ 0xc0ffee);
                // Jobs this thread holds processors for (immediate grants
                // only; queue grants stay ledger-owned until cancelled).
                let mut live: Vec<(u64, Vec<commalloc_mesh::NodeId>)> = Vec::new();
                // Jobs this thread queued.
                let mut waiting: Vec<u64> = Vec::new();
                let mut next = (t + 1) << 40;
                for _ in 0..OPS_PER_THREAD {
                    // Queue-position consistency sweep: every job this
                    // thread still considers waiting is either queued at a
                    // valid position or was granted (and then appears in
                    // the ledger, claimed by the grant's observer).
                    waiting.retain(|&job| match service.poll(machine, job).unwrap() {
                        JobStatus::Queued(position) => {
                            assert!(position >= 1, "queue positions are 1-based");
                            true
                        }
                        JobStatus::Running(nodes) => {
                            assert!(!nodes.is_empty());
                            false // now ledger-owned; cancelled via release later
                        }
                        JobStatus::Unknown => {
                            panic!("queued job {job} vanished without a cancel")
                        }
                    });

                    let action = rng.gen_range(0u8..10);
                    if action < 5 || (live.is_empty() && waiting.is_empty()) {
                        // Allocate: half immediate, half queued-with-wait.
                        let size = rng.gen_range(1..=32);
                        let wait = rng.gen_bool(0.5);
                        let walltime = if rng.gen_bool(0.7) {
                            Some(rng.gen_range(1.0..500.0))
                        } else {
                            None
                        };
                        let job = next;
                        next += 1;
                        let args = AllocArgs {
                            wait,
                            walltime,
                            ..AllocArgs::new(job, size)
                        };
                        match service.alloc(machine, &args, &RequestCtx::inert()).unwrap() {
                            AllocOutcome::Granted(nodes) => {
                                shared.claim(&nodes);
                                live.push((job, nodes));
                            }
                            AllocOutcome::Queued(position) => {
                                assert!(position >= 1);
                                waiting.push(job);
                            }
                            AllocOutcome::Rejected(_) => {}
                        }
                    } else if action < 8 && !live.is_empty() {
                        let at = rng.gen_range(0..live.len());
                        let (job, nodes) = live.swap_remove(at);
                        shared.release_atomically(&service, machine, job, Some(nodes));
                    } else if !waiting.is_empty() {
                        // Cancel a queued job (it may have been granted in
                        // the meantime; the ledger settles either way).
                        let at = rng.gen_range(0..waiting.len());
                        let job = waiting.swap_remove(at);
                        shared.release_atomically(&service, machine, job, None);
                    }
                }
                // Drain: cancel what waits, release what runs.
                for job in waiting {
                    shared.release_atomically(&service, machine, job, None);
                }
                for (job, nodes) in live {
                    shared.release_atomically(&service, machine, job, Some(nodes));
                }
            });
        }
    });

    // Jobs granted during the final drains were never released by their
    // (exited) owners; settle them now so the machine ends empty.
    let leftovers: Vec<u64> = shared.ledger.lock().unwrap().keys().copied().collect();
    for job in leftovers {
        shared.release_atomically(&service, &machine, job, None);
    }

    assert_eq!(
        shared.violations.load(Ordering::SeqCst),
        0,
        "{scheduler}: double-granted nodes detected"
    );
    service.check_invariants(&machine).unwrap();
    let snap = service.query(&machine).unwrap();
    assert_eq!(snap.busy, 0, "{scheduler}: machine should end empty");
    assert_eq!(snap.scheduler, scheduler.name());
    let outstanding = shared
        .claims
        .iter()
        .filter(|c| c.load(Ordering::SeqCst))
        .count();
    assert_eq!(outstanding, 0, "{scheduler}: stale client-side claims");
}

#[test]
fn concurrent_fcfs_never_double_grants() {
    hammer(SchedulerKind::Fcfs);
}

#[test]
fn concurrent_first_fit_backfill_never_double_grants() {
    hammer(SchedulerKind::FirstFitBackfill);
}

#[test]
fn concurrent_easy_backfill_never_double_grants() {
    hammer(SchedulerKind::EasyBackfill);
}

#[test]
fn concurrent_conservative_backfill_never_double_grants() {
    hammer(SchedulerKind::Conservative);
}
