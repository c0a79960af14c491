//! Concurrent hammering of a heterogeneous 4-machine pool through the
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

use commalloc_service::{AllocArgs, AllocOutcome, AllocationService, RequestCtx, RoutingPolicy};
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
