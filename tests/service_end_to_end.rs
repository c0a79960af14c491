//! End-to-end tests of the allocation daemon over real TCP: protocol
//! round trips, FCFS admission, 2-D/3-D registration, and a loadgen run
//! (the same driver behind `commalloc loadgen`) asserting zero
//! occupancy-invariant violations.

use commalloc_cli::loadgen::{self, LoadgenConfig};
use commalloc_service::{
    AllocArgs, AllocationService, ClientAllocOutcome, JobStatus, Server, ServiceClient,
};
use serde::Value;

fn spawn_server() -> (AllocationService, commalloc_service::ServerHandle) {
    let service = AllocationService::new();
    let handle = Server::bind("127.0.0.1:0", service.clone(), 4)
        .expect("bind an ephemeral port")
        .spawn()
        .expect("spawn the server");
    (service, handle)
}

#[test]
fn tcp_protocol_round_trip_with_fcfs_queueing() {
    let (service, handle) = spawn_server();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();

    client.ping().unwrap();
    client
        .register("m0", "8x8", Some("Hilbert w/BF"), None, None)
        .unwrap();

    // Fill the machine, queue two jobs, verify FCFS drain on release.
    let ClientAllocOutcome::Granted(first) = client.alloc("m0", &AllocArgs::new(1, 60)).unwrap().1
    else {
        panic!("empty machine must grant");
    };
    assert_eq!(first.len(), 60);
    assert_eq!(
        client
            .alloc("m0", &AllocArgs::new(2, 10).or_wait())
            .unwrap()
            .1,
        ClientAllocOutcome::Queued(1)
    );
    assert_eq!(
        client
            .alloc("m0", &AllocArgs::new(3, 2).or_wait())
            .unwrap()
            .1,
        ClientAllocOutcome::Queued(2)
    );
    // Job 3 would fit the 4 free nodes but must wait behind job 2 (FCFS).
    assert!(matches!(
        client.alloc("m0", &AllocArgs::new(4, 1)).unwrap().1,
        ClientAllocOutcome::Rejected(_)
    ));
    let granted = client.release("m0", 1).unwrap();
    let ids: Vec<u64> = granted.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, vec![2, 3], "queue must drain in arrival order");
    assert!(matches!(
        client.poll("m0", 2).unwrap(),
        JobStatus::Running(_)
    ));

    // The server-side state is the same object the in-process API sees.
    service.check_invariants("m0").unwrap();
    let snapshot = client.query("m0").unwrap();
    assert_eq!(snapshot.get("busy").and_then(Value::as_u64), Some(12));
    assert_eq!(snapshot.get("live_jobs").and_then(Value::as_u64), Some(2));

    drop(client);
    handle.shutdown().unwrap();
}

#[test]
fn three_d_machines_work_over_the_wire() {
    let (service, handle) = spawn_server();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    client
        .register("cube", "4x4x4", Some("Hilbert-3d"), Some("BF"), None)
        .unwrap();
    let ClientAllocOutcome::Granted(nodes) = client.alloc("cube", &AllocArgs::new(1, 8)).unwrap().1
    else {
        panic!("empty cube must grant");
    };
    assert_eq!(nodes.len(), 8);
    let snapshot = client.query("cube").unwrap();
    assert_eq!(snapshot.get("dims").and_then(Value::as_str), Some("4x4x4"));
    service.check_invariants("cube").unwrap();
    assert!(client.release("cube", 1).unwrap().is_empty());
    drop(client);
    handle.shutdown().unwrap();
}

#[test]
fn loadgen_round_trips_thousands_of_requests_without_violations() {
    let (service, handle) = spawn_server();
    let config = LoadgenConfig {
        addr: handle.addr().to_string(),
        machine: "default".to_string(),
        mesh: "16x16".to_string(),
        scheduler: Some("backfill".to_string()),
        requests: 4_000,
        connections: 3,
        occupancy: 0.8,
        max_size: 24,
        max_walltime: Some(300.0),
        router: None,
        pattern: None,
        framing: commalloc_service::Framing::Binary,
        seed: 7,
        no_drain: false,
        claims_out: None,
        tenant: None,
    };
    let report = loadgen::run(&config).expect("loadgen completes");
    assert!(report.requests >= 4_000, "got {}", report.requests);
    assert_eq!(report.violations, 0, "occupancy invariant must hold");
    assert_eq!(report.final_busy, 0, "drain must empty the machine");
    assert!(report.granted > 0 && report.released > 0);
    service.check_invariants("default").unwrap();
    handle.shutdown().unwrap();
}

#[test]
fn routed_loadgen_across_a_heterogeneous_pool_has_no_violations() {
    let (service, handle) = spawn_server();
    let members = [
        ("m0", "16x16"),
        ("m1", "16x8"),
        ("m2", "8x8"),
        ("m3", "8x4"),
    ];
    {
        let mut client = ServiceClient::connect(handle.addr()).unwrap();
        for (name, mesh) in members {
            client
                .register_in_pool(name, mesh, None, None, Some("easy"), Some("grid"))
                .unwrap();
        }
        assert_eq!(
            client.set_router("grid", "p2c").unwrap(),
            "power-of-two".to_string()
        );
    }
    let config = LoadgenConfig {
        addr: handle.addr().to_string(),
        machine: "@grid".to_string(),
        mesh: String::new(), // ignored in cluster mode
        scheduler: None,
        requests: 4_000,
        connections: 3,
        occupancy: 0.8,
        max_size: 48, // above m3's 32 nodes: exercises eligibility
        max_walltime: Some(300.0),
        router: Some("least-loaded".to_string()),
        pattern: Some(commalloc_workload::CommPattern::AllToAll),
        framing: commalloc_service::Framing::Ndjson,
        seed: 11,
        no_drain: false,
        claims_out: None,
        tenant: None,
    };
    let report = loadgen::run(&config).expect("routed loadgen completes");
    assert!(report.requests >= 4_000, "got {}", report.requests);
    assert_eq!(report.violations, 0, "cluster invariants must hold");
    assert_eq!(report.final_busy, 0, "drain must empty every member");
    assert_eq!(report.machines, 4);
    assert!(report.granted > 0 && report.released > 0);
    for (name, _) in members {
        service.check_invariants(name).unwrap();
    }
    handle.shutdown().unwrap();
}

#[test]
fn batched_ops_round_trip_over_tcp() {
    let (service, handle) = spawn_server();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    client.register("b0", "8x8", None, None, None).unwrap();
    let responses = client
        .batch(vec![
            commalloc_service::Request::Ping,
            commalloc_service::Request::Alloc {
                machine: "b0".to_string(),
                job: 1,
                size: 10,
                wait: false,
                walltime: None,
                pattern: None,
                tenant: None,
            },
            commalloc_service::Request::Release {
                machine: Some("b0".to_string()),
                job: commalloc_service::JobRef::Bare(1),
            },
            commalloc_service::Request::Release {
                machine: Some("b0".to_string()),
                job: commalloc_service::JobRef::Bare(99), // unknown: answers its slot with an error
            },
        ])
        .unwrap();
    assert_eq!(responses.len(), 4);
    assert_eq!(responses[0], commalloc_service::Response::Pong);
    assert!(matches!(
        responses[1],
        commalloc_service::Response::Granted { job: 1, .. }
    ));
    assert!(matches!(
        responses[2],
        commalloc_service::Response::Released { job: 1, .. }
    ));
    assert!(matches!(
        responses[3],
        commalloc_service::Response::Error { .. }
    ));
    service.check_invariants("b0").unwrap();
    drop(client);
    handle.shutdown().unwrap();
}

#[test]
fn sharded_registry_serves_disjoint_machines_concurrently() {
    let (service, handle) = spawn_server();
    // Eight machines spread across shards, one client thread per machine.
    std::thread::scope(|scope| {
        for m in 0..8u32 {
            let addr = handle.addr();
            scope.spawn(move || {
                let name = format!("m{m}");
                let mut client = ServiceClient::connect(addr).unwrap();
                client.register(&name, "8x8", None, None, None).unwrap();
                for job in 0..200u64 {
                    let ClientAllocOutcome::Granted(nodes) =
                        client.alloc(&name, &AllocArgs::new(job, 5)).unwrap().1
                    else {
                        panic!("8x8 machine fits 5 nodes after release");
                    };
                    assert_eq!(nodes.len(), 5);
                    client.release(&name, job).unwrap();
                }
            });
        }
    });
    assert_eq!(service.list().len(), 8);
    for m in 0..8 {
        service.check_invariants(&format!("m{m}")).unwrap();
    }
    handle.shutdown().unwrap();
}

#[test]
fn scheduling_policies_work_over_the_wire() {
    for policy in commalloc::scheduler::SchedulerKind::all() {
        let policy_spec = policy.name();
        let (service, handle) = spawn_server();
        let mut client = ServiceClient::connect(handle.addr()).unwrap();
        client
            .register("sched", "8x8", None, None, Some(policy_spec))
            .unwrap();
        // Fill the machine, then queue a blocked head plus a small job.
        let ClientAllocOutcome::Granted(_) = client
            .alloc("sched", &AllocArgs::new(1, 60).with_walltime(100.0))
            .unwrap()
            .1
        else {
            panic!("empty machine must grant");
        };
        assert_eq!(
            client
                .alloc(
                    "sched",
                    &AllocArgs::new(2, 40).or_wait().with_walltime(50.0)
                )
                .unwrap()
                .1,
            ClientAllocOutcome::Queued(1)
        );
        // Job 3 fits the 4 free nodes; whether it starts now depends on
        // the policy. FCFS blocks it; first-fit backfill admits it; EASY
        // admits it too (it fits the shadow-time extras or finishes
        // first — with walltime 1 it can never delay the head).
        let outcome = client
            .alloc("sched", &AllocArgs::new(3, 2).or_wait().with_walltime(1.0))
            .unwrap()
            .1;
        match policy {
            commalloc::scheduler::SchedulerKind::Fcfs => {
                assert_eq!(outcome, ClientAllocOutcome::Queued(2), "{policy}")
            }
            _ => assert!(
                matches!(outcome, ClientAllocOutcome::Granted(_)),
                "{policy}: small job should backfill, got {outcome:?}"
            ),
        }
        // Snapshot names the active policy; stats carry the wait summary.
        let snapshot = client.query("sched").unwrap();
        let named = snapshot
            .get("scheduler")
            .and_then(Value::as_str)
            .expect("snapshot names the scheduler")
            .to_string();
        let stats = client.stats("sched").unwrap();
        assert!(
            stats.get("wait").and_then(|w| w.get("count")).is_some(),
            "{policy}: stats must carry the wait summary"
        );
        // Runtime switch to FCFS and back: grants drain accordingly.
        client.set_scheduler("sched", "fcfs").unwrap();
        let snapshot = client.query("sched").unwrap();
        assert_eq!(
            snapshot.get("scheduler").and_then(Value::as_str),
            Some("FCFS"),
            "{policy}: switch must rename the policy (was {named})"
        );
        let granted = client.set_scheduler("sched", "backfill").unwrap();
        if policy == commalloc::scheduler::SchedulerKind::Fcfs {
            // Under FCFS job 3 was still queued; backfill admits it now.
            assert_eq!(granted.len(), 1, "{policy}");
            assert_eq!(granted[0].0, 3);
        } else {
            assert!(granted.is_empty(), "{policy}: nothing left to admit");
        }
        service.check_invariants("sched").unwrap();
        drop(client);
        handle.shutdown().unwrap();
    }
}
