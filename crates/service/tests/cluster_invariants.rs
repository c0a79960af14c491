//! Two suites over the pooled service.
//!
//! **Resolution** (the proptest at the bottom): nothing in the daemon
//! remembers which member holds a job, so a bare id addressed to `@pool`
//! must answer exactly what the members' own `poll`s say — after every
//! op of a random sequence with colliding ids, and again after a
//! journaled restart.
//!
//! **Concurrency** (the first test):
//! concurrent hammering of a heterogeneous 4-machine pool through the
//! cluster router: interleaved routed allocates, releases and cancels
//! from many threads — with the routing policy switched mid-run — must
//! never double-grant a node on any member, never route a job to a
//! machine too small for it, and leave every member empty and invariant-
//! clean after the drain.
//!
//! Claim discipline mirrors `concurrent_invariants.rs`, extended across
//! machines: claims are per `(machine, node)`; a node is claimed by
//! whoever observes its grant (the routing thread for immediate grants,
//! the releasing thread for queue grants reported in a `release`
//! response), and releases/cancels serialise on a shared ledger held
//! across the service call. Routed allocations stay fully concurrent —
//! exactly where the router's sample-then-commit hazard lives.

// Only the walltime generator is shared; the wire-shape generators the
// codec suites use stay unused here.
#[allow(dead_code)]
mod strategies;

use commalloc_service::service::error_response;
use commalloc_service::{
    open_journaled, AllocArgs, AllocOutcome, AllocationService, JobRef, JobStatus, JournalConfig,
    Request, RequestCtx, RoutingPolicy, ServiceError,
};
use proptest::prelude::*;
use rand::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

const THREADS: u64 = 4;
const OPS_PER_THREAD: usize = 1200;

/// The heterogeneous pool under test: 256 + 128 + 64 + 32 processors.
const MEMBERS: [(&str, &str, usize); 4] = [
    ("m0", "16x16", 256),
    ("m1", "16x8", 128),
    ("m2", "8x8", 64),
    ("m3", "8x4", 32),
];

struct Shared {
    /// machine name -> one claim flag per node.
    claims: HashMap<&'static str, Vec<AtomicBool>>,
    violations: AtomicU64,
    /// job -> (machine, nodes), filled in by whichever thread observed
    /// the grant.
    ledger: Mutex<HashMap<u64, (String, Vec<commalloc_mesh::NodeId>)>>,
}

impl Shared {
    fn claim(&self, machine: &str, nodes: &[commalloc_mesh::NodeId]) {
        let table = &self.claims[machine];
        for n in nodes {
            if table[n.index()].swap(true, Ordering::SeqCst) {
                self.violations.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    fn unclaim(&self, machine: &str, nodes: &[commalloc_mesh::NodeId]) {
        let table = &self.claims[machine];
        for n in nodes {
            if !table[n.index()].swap(false, Ordering::SeqCst) {
                self.violations.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// Releases (or cancels) `job` on `machine` with the ledger held
    /// across the call, claiming every queue grant the release admitted.
    fn release_atomically(&self, service: &AllocationService, machine: &str, job: u64) {
        let mut ledger = self.ledger.lock().unwrap();
        if let Some((held_machine, nodes)) = ledger.remove(&job) {
            assert_eq!(held_machine, machine, "job {job} moved machines");
            self.unclaim(machine, &nodes);
        }
        let granted = service.release(machine, job, &RequestCtx::inert()).unwrap();
        for (granted_job, granted_nodes) in granted {
            self.claim(machine, &granted_nodes);
            ledger.insert(granted_job, (machine.to_string(), granted_nodes));
        }
    }
}

#[test]
fn concurrent_routed_traffic_with_router_switches_never_violates_invariants() {
    let service = AllocationService::new();
    for (name, mesh, _) in MEMBERS {
        service
            .register_in_pool(name, mesh, None, None, Some("easy"), Some("grid"))
            .unwrap();
    }
    let sizes: HashMap<&str, usize> = MEMBERS.iter().map(|&(n, _, s)| (n, s)).collect();
    let shared = Shared {
        claims: MEMBERS
            .iter()
            .map(|&(name, _, nodes)| (name, (0..nodes).map(|_| AtomicBool::new(false)).collect()))
            .collect(),
        violations: AtomicU64::new(0),
        ledger: Mutex::new(HashMap::new()),
    };

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let service = service.clone();
            let shared = &shared;
            let sizes = &sizes;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(t ^ 0xba5eba11);
                // (machine, job) pairs this thread holds processors for.
                let mut live: Vec<(String, u64)> = Vec::new();
                // (machine, job) pairs this thread queued.
                let mut waiting: Vec<(String, u64)> = Vec::new();
                let mut next = (t + 1) << 40;
                for op in 0..OPS_PER_THREAD {
                    // Mid-run policy switches: every thread keeps flipping
                    // the router while the others route through it.
                    if op % 150 == 17 {
                        let policy = RoutingPolicy::all()[rng.gen_range(0..4usize)];
                        service.set_router("grid", policy.name()).unwrap();
                    }
                    let action = rng.gen_range(0u8..10);
                    if action < 5 || (live.is_empty() && waiting.is_empty()) {
                        // Sizes up to 48 exercise the eligibility filter
                        // (m2 and m3 cannot host the larger ones).
                        let size = rng.gen_range(1..=48);
                        let wait = rng.gen_bool(0.5);
                        let walltime = rng.gen_bool(0.7).then(|| rng.gen_range(1.0..500.0));
                        let job = next;
                        next += 1;
                        let args = AllocArgs {
                            wait,
                            walltime,
                            ..AllocArgs::new(job, size)
                        };
                        let (machine, outcome) =
                            service.route("grid", &args, &RequestCtx::inert()).unwrap();
                        assert!(
                            size <= sizes[machine.as_str()],
                            "job of {size} processors routed to {machine} \
                             ({} processors)",
                            sizes[machine.as_str()]
                        );
                        match outcome {
                            AllocOutcome::Granted(nodes) => {
                                let mut ledger = shared.ledger.lock().unwrap();
                                shared.claim(&machine, &nodes);
                                ledger.insert(job, (machine.clone(), nodes));
                                drop(ledger);
                                live.push((machine, job));
                            }
                            AllocOutcome::Queued(position) => {
                                assert!(position >= 1);
                                waiting.push((machine, job));
                            }
                            AllocOutcome::Rejected(_) => {}
                        }
                    } else if action < 8 && !live.is_empty() {
                        let at = rng.gen_range(0..live.len());
                        let (machine, job) = live.swap_remove(at);
                        shared.release_atomically(&service, &machine, job);
                    } else if !waiting.is_empty() {
                        // Cancel a queued job (it may have been granted in
                        // the meantime; the ledger settles either way).
                        let at = rng.gen_range(0..waiting.len());
                        let (machine, job) = waiting.swap_remove(at);
                        shared.release_atomically(&service, &machine, job);
                    }
                }
                for (machine, job) in waiting {
                    shared.release_atomically(&service, &machine, job);
                }
                for (machine, job) in live {
                    shared.release_atomically(&service, &machine, job);
                }
            });
        }
    });

    // Jobs granted during the final drains were never released by their
    // (exited) owners; settle them so every machine ends empty.
    loop {
        let leftovers: Vec<(u64, String)> = shared
            .ledger
            .lock()
            .unwrap()
            .iter()
            .map(|(&job, (machine, _))| (job, machine.clone()))
            .collect();
        if leftovers.is_empty() {
            break;
        }
        for (job, machine) in leftovers {
            shared.release_atomically(&service, &machine, job);
        }
    }

    assert_eq!(
        shared.violations.load(Ordering::SeqCst),
        0,
        "double-granted nodes detected across the pool"
    );
    for (name, _, _) in MEMBERS {
        service.check_invariants(name).unwrap();
        let snap = service.query(name).unwrap();
        assert_eq!(snap.busy, 0, "{name} should end empty");
        assert_eq!(snap.queue_len, 0, "{name} should end with an empty queue");
    }
    let outstanding: usize = shared
        .claims
        .values()
        .map(|table| table.iter().filter(|c| c.load(Ordering::SeqCst)).count())
        .sum();
    assert_eq!(outstanding, 0, "stale client-side claims");
}

/// The resolution suite's pool. `m0` and `m1` place contiguous
/// rectangles only, and the allocator finds none of 30 processors on
/// either mesh: a 30 that queued behind a busy machine is *dropped* by
/// the drain that finds the machine empty — a job that leaves a member
/// with no request naming it.
const POOL: [(&str, &str, Option<&str>); 3] = [
    ("m0", "16x4", Some("contiguous FF")),
    ("m1", "8x4", Some("contiguous FF")),
    ("m2", "4x4", None),
];

/// Job ids are drawn from this small range so routed and direct allocs
/// collide, on one member and across members.
const IDS: std::ops::Range<u64> = 0..6;

#[derive(Debug, Clone)]
enum PoolOp {
    /// `alloc` to `@grid` (`member: None`) or to one member directly.
    Alloc {
        member: Option<usize>,
        job: u64,
        size: usize,
        wait: bool,
        walltime: Option<f64>,
    },
    /// `release` — of a running job, or the cancel of a queued one — by
    /// bare id through `@grid` (`member: None`) or on one member.
    Release { member: Option<usize>, job: u64 },
    /// `set_scheduler` on one member, re-draining its queue.
    SetScheduler {
        member: usize,
        scheduler: &'static str,
    },
}

fn pool_op_strategy() -> BoxedStrategy<PoolOp> {
    let member = || prop_oneof![Just(None), (0..POOL.len()).prop_map(Some)];
    prop_oneof![
        (
            member(),
            IDS,
            prop::sample::select(vec![1usize, 6, 16, 30, 30]),
            (0u8..4).prop_map(|n| n != 0),
            strategies::walltime_strategy(),
        )
            .prop_map(|(member, job, size, wait, walltime)| PoolOp::Alloc {
                member,
                job,
                size,
                wait,
                walltime,
            }),
        (member(), IDS).prop_map(|(member, job)| PoolOp::Release { member, job }),
        (
            0..POOL.len(),
            prop::sample::select(vec!["fcfs", "backfill", "easy", "conservative"]),
        )
            .prop_map(|(member, scheduler)| PoolOp::SetScheduler { member, scheduler }),
    ]
    .boxed()
}

/// Every id's standing on every member, by the members' own `poll`s.
fn member_polls(service: &AllocationService) -> Vec<Vec<(String, JobStatus)>> {
    IDS.map(|job| {
        POOL.iter()
            .map(|(member, ..)| (member.to_string(), service.poll(member, job).unwrap()))
            .filter(|(_, status)| *status != JobStatus::Unknown)
            .collect()
    })
    .collect()
}

/// A bare id addressed to `@grid` answers what the members say: the one
/// holder's own status, a typed unknown addressed to the pool when
/// nobody holds it, the typed collision naming every holder otherwise.
fn check_resolution(service: &AllocationService, when: &str) -> Result<(), TestCaseError> {
    for (job, holders) in IDS.zip(member_polls(service)) {
        let want = match holders.as_slice() {
            [] => Err(ServiceError::UnknownJob {
                machine: "@grid".to_string(),
                job_id: job,
            }),
            [only] => Ok(only.clone()),
            _ => Err(ServiceError::AmbiguousJob {
                pool: "grid".to_string(),
                job_id: job,
                machines: holders.iter().map(|(member, _)| member.clone()).collect(),
            }),
        };
        let got = service.poll_ref(Some("@grid"), &JobRef::Bare(job));
        prop_assert_eq!(got, want, "job {} {}", job, when);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_bare_id_resolves_to_whoever_the_members_say_holds_it(
        ops in prop::collection::vec(pool_op_strategy(), 1..40),
    ) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "commalloc-resolution-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Ops go through `handle`, which is where compaction rides: a
        // snapshot every few records makes the restart below fold a
        // snapshot *and* a tail.
        let config = JournalConfig { snapshot_every: 7, ..JournalConfig::default() };
        let (service, _) = open_journaled(&dir, config).unwrap();
        for (member, mesh, allocator) in POOL {
            service.register_in_pool(member, mesh, allocator, None, None, Some("grid")).unwrap();
        }
        let address = |member: Option<usize>| match member {
            Some(at) => POOL[at].0.to_string(),
            None => "@grid".to_string(),
        };
        for (step, op) in ops.iter().enumerate() {
            let before = member_polls(&service);
            let response = service.handle(&match op.clone() {
                PoolOp::Alloc { member, job, size, wait, walltime } => Request::Alloc {
                    machine: address(member),
                    job,
                    size,
                    wait,
                    walltime,
                    pattern: None,
                    tenant: None,
                },
                PoolOp::Release { member, job } => Request::Release {
                    machine: Some(address(member)),
                    job: JobRef::Bare(job),
                },
                PoolOp::SetScheduler { member, scheduler } => Request::SetScheduler {
                    machine: POOL[member].0.to_string(),
                    scheduler: scheduler.to_string(),
                },
            });
            // A routed id some member holds is refused, naming the first.
            if let PoolOp::Alloc { member: None, job, .. } = op {
                if let Some((first, _)) = before[*job as usize].first() {
                    let duplicate = ServiceError::DuplicateJob {
                        machine: first.clone(),
                        job_id: *job,
                    };
                    prop_assert_eq!(&response, &error_response(&duplicate), "step {}", step);
                }
            }
            check_resolution(&service, &format!("after step {step}: {op:?} -> {response:?}"))?;
        }
        let live = member_polls(&service);
        drop(service);
        let (recovered, _) = open_journaled(&dir, config).unwrap();
        prop_assert_eq!(member_polls(&recovered), live, "recovery changed a member's jobs");
        check_resolution(&recovered, "after the restart")?;
        for (member, ..) in POOL {
            recovered.check_invariants(member).unwrap();
        }
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
