//! End-to-end tests of the allocation daemon over real TCP: protocol
//! round trips, FCFS admission, 2-D/3-D registration, loadgen runs (the
//! same driver behind `commalloc loadgen`) asserting zero
//! occupancy-invariant violations across schedulers, framings and
//! routing policies, and the CLI's tenant, watch and trace commands
//! against an in-process daemon.

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

/// Loadgen runs, each against a fresh daemon with one 16x16 machine:
/// a first-fit backfill cell, then the EASY/conservative × NDJSON/binary
/// matrix with every job declaring all-to-all. Walltimes are on in all.
#[test]
fn loadgen_round_trips_thousands_of_requests_without_violations() {
    use commalloc_service::Framing::{Binary, Ndjson};
    let mut cells = vec![LoadgenConfig {
        scheduler: Some("backfill".to_string()),
        requests: 4_000,
        connections: 3,
        occupancy: 0.8,
        max_size: 24,
        max_walltime: Some(300.0),
        framing: Binary,
        seed: 7,
        ..LoadgenConfig::default()
    }];
    for scheduler in ["easy", "conservative"] {
        for framing in [Ndjson, Binary] {
            cells.push(LoadgenConfig {
                scheduler: Some(scheduler.to_string()),
                requests: 2_000,
                occupancy: 0.9,
                max_walltime: Some(300.0),
                pattern: Some(commalloc_workload::CommPattern::AllToAll),
                framing,
                ..LoadgenConfig::default()
            });
        }
    }
    for cell in cells {
        let (service, handle) = spawn_server();
        let config = LoadgenConfig {
            addr: handle.addr().to_string(),
            ..cell
        };
        let name = format!("{:?} over {:?}", config.scheduler, config.framing);
        let report = loadgen::run(&config).expect("loadgen completes");
        assert!(
            report.requests >= config.requests as u64,
            "{name}: got {}",
            report.requests
        );
        assert_eq!(
            report.violations, 0,
            "{name}: occupancy invariant must hold"
        );
        assert_eq!(report.final_busy, 0, "{name}: drain must empty the machine");
        assert!(report.granted > 0 && report.released > 0, "{name}");
        service.check_invariants("default").unwrap();
        handle.shutdown().unwrap();
    }
}

/// Routed loadgen through `@grid` over four EASY members of different
/// sizes on an 8-worker daemon, one run per routing policy: least-loaded
/// with all-to-all jobs at 80 % occupancy, then each policy at 90 % with
/// unpatterned jobs, except comm-aware, which only differs from
/// shortest-queue when jobs declare a pattern.
#[test]
fn routed_loadgen_across_a_heterogeneous_pool_has_no_violations() {
    use commalloc_workload::CommPattern::AllToAll;
    let members = [
        ("m0", "16x16"),
        ("m1", "16x8"),
        ("m2", "8x8"),
        ("m3", "8x4"),
    ];
    let service = AllocationService::new();
    let handle = Server::bind("127.0.0.1:0", service.clone(), 8)
        .expect("bind an ephemeral port")
        .spawn()
        .expect("spawn the server");
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
    let policies = [
        ("least-loaded", Some(AllToAll), 4_000, 3, 0.8, 11),
        ("rr", None, 1_000, 4, 0.9, 1996),
        ("ll", None, 1_000, 4, 0.9, 1996),
        ("sq", None, 1_000, 4, 0.9, 1996),
        ("p2c", None, 1_000, 4, 0.9, 1996),
        ("comm-aware", Some(AllToAll), 1_000, 4, 0.9, 1996),
    ];
    for (router, pattern, requests, connections, occupancy, seed) in policies {
        let config = LoadgenConfig {
            addr: handle.addr().to_string(),
            machine: "@grid".to_string(),
            mesh: String::new(), // ignored in cluster mode
            requests,
            connections,
            occupancy,
            max_size: 48, // above m3's 32 nodes: exercises eligibility
            max_walltime: Some(300.0),
            router: Some(router.to_string()),
            pattern,
            seed,
            ..LoadgenConfig::default()
        };
        let report = loadgen::run(&config).expect("routed loadgen completes");
        assert!(
            report.requests >= requests as u64,
            "{router}: got {}",
            report.requests
        );
        assert_eq!(
            report.violations, 0,
            "{router}: cluster invariants must hold"
        );
        assert_eq!(
            report.final_busy, 0,
            "{router}: drain must empty every member"
        );
        assert_eq!(report.machines, 4);
        assert!(report.granted > 0 && report.released > 0, "{router}");
        for (name, _) in members {
            service.check_invariants(name).unwrap();
        }
    }
    handle.shutdown().unwrap();
}

/// Runs one `commalloc` command line in process, as the binary would.
fn cli(line: &[&str]) -> String {
    let args: Vec<String> = line.iter().map(|arg| arg.to_string()).collect();
    let command = commalloc_cli::parse_command(&args).expect("the command line parses");
    command.run().expect("the command succeeds")
}

/// Two weighted tenants drive one pool through hello-bound connections:
/// the tenant table attributes grants and consumption to each, and the
/// `watch` frame renders a row per tenant.
#[test]
fn tenant_books_attribute_every_grant_and_watch_shows_them() {
    let service = AllocationService::new();
    for (name, mesh) in [("m0", "16x16"), ("m1", "8x8")] {
        service
            .register_in_pool(name, mesh, None, None, Some("easy"), Some("grid"))
            .unwrap();
    }
    let handle = Server::bind("127.0.0.1:0", service, 4)
        .expect("bind an ephemeral port")
        .spawn()
        .expect("spawn the server");
    let addr = handle.addr().to_string();
    cli(&["tenant", "--addr", &addr, "--name", "acme", "--weight", "4"]);
    cli(&[
        "tenant", "--addr", &addr, "--name", "rival", "--weight", "1",
    ]);
    for tenant in ["acme", "rival"] {
        cli(&[
            "loadgen",
            "--addr",
            &addr,
            "--machine",
            "@grid",
            "--tenant",
            tenant,
            "--requests",
            "2000",
            "--connections",
            "4",
            "--occupancy",
            "0.9",
            "--max-size",
            "48",
            "--max-walltime",
            "300",
            "--framing",
            "binary",
            "--json",
        ]);
    }
    let frame = cli(&["watch", "--addr", &addr, "--count", "1"]);
    for tenant in ["acme", "rival"] {
        assert!(
            frame
                .lines()
                .any(|line| line.trim_start().starts_with(tenant)),
            "the watch frame has a row for {tenant}:\n{frame}"
        );
    }
    let table: Value = serde_json::from_str(&cli(&["tenant", "--addr", &addr, "--json"]))
        .expect("tenant --json prints JSON");
    for (tenant, weight) in [("acme", 4.0), ("rival", 1.0)] {
        let row = table.get(tenant).expect("the table has a row per tenant");
        let number = |key: &str| row.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        assert!(
            number("admitted") > 0.0,
            "{tenant} must have admitted grants"
        );
        assert!(
            number("consumed_node_seconds") > 0.0,
            "{tenant} must have consumption"
        );
        assert_eq!(number("weight"), weight, "{tenant}");
    }
    handle.shutdown().unwrap();
}

/// A traced daemon's flight recorder exports as a Chrome trace: a
/// non-empty array of complete events, each with the fields the trace
/// viewers read.
#[test]
fn trace_exports_a_chrome_trace_of_a_traced_run() {
    let (service, handle) = spawn_server();
    service.recorder().set_enabled(true);
    let addr = handle.addr().to_string();
    cli(&[
        "loadgen",
        "--addr",
        &addr,
        "--scheduler",
        "easy",
        "--requests",
        "1000",
        "--connections",
        "4",
        "--occupancy",
        "0.9",
        "--max-walltime",
        "300",
        "--framing",
        "binary",
        "--json",
    ]);
    let path = std::env::temp_dir().join(format!("commalloc-chrome-{}.json", std::process::id()));
    let out = path.display().to_string();
    cli(&[
        "trace", "--addr", &addr, "--format", "chrome", "--out", &out,
    ]);
    let text = std::fs::read_to_string(&path).expect("trace --out writes the file");
    std::fs::remove_file(&path).unwrap();
    let events: Value = serde_json::from_str(&text).expect("a Chrome trace is JSON");
    let events = events.as_array().expect("a Chrome trace is an array");
    assert!(!events.is_empty(), "a traced loadgen run records events");
    for event in events {
        for key in ["name", "ph", "ts", "dur", "pid", "tid"] {
            assert!(
                event.get(key).is_some(),
                "trace event missing {key:?}: {event:?}"
            );
        }
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
