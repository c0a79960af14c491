//! End-to-end observability contract over real TCP: a journaled daemon
//! with tracing on must emit a complete, well-ordered span set for
//! every request (parse → decision → grant/deny → journal append), the
//! poll/query surfaces must carry reservation outlooks and scheduler
//! explains across the wire, `set_trace off` must emit nothing, and
//! ring overflow must surface as a drop counter, not an error.

use commalloc_service::{
    open_journaled, AllocArgs, ClientAllocOutcome, FsyncPolicy, JournalConfig, Request, Response,
    Server, ServiceClient,
};
use serde::Value;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "commalloc-trace-obs-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn events_for_request(events: &[Value], request: u64) -> Vec<&Value> {
    events
        .iter()
        .filter(|e| e.get("request").and_then(Value::as_u64) == Some(request))
        .collect()
}

fn stage_of(event: &Value) -> &str {
    event.get("stage").and_then(Value::as_str).unwrap_or("")
}

fn find_stage<'a>(events: &[&'a Value], stage: &str) -> Option<&'a Value> {
    events.iter().find(|e| stage_of(e) == stage).copied()
}

fn ts(event: &Value) -> u64 {
    event.get("ts_micros").and_then(Value::as_u64).unwrap()
}

fn end_ts(event: &Value) -> u64 {
    ts(event) + event.get("dur_micros").and_then(Value::as_u64).unwrap()
}

/// The tentpole contract: every request that flows through the daemon
/// leaves a complete span set, ordered parse → allocator probe →
/// grant → journal append, with queue grants attributed back to the
/// request that enqueued them.
#[test]
fn granted_requests_trace_complete_ordered_spans() {
    let dir = temp_dir("spans");
    let config = JournalConfig {
        fsync: FsyncPolicy::EveryRecord,
        ..JournalConfig::default()
    };
    let (service, _) = open_journaled(&dir, config).unwrap();
    service
        .register("m0", "8x8", None, None, Some("easy"))
        .unwrap();
    let handle = Server::bind("127.0.0.1:0", service, 2)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();

    assert!(client.set_trace(true, None).unwrap());

    // Request A: an immediate grant.
    let ClientAllocOutcome::Granted(nodes) = client
        .alloc("m0", &AllocArgs::new(1, 10).with_walltime(60.0))
        .unwrap()
        .1
    else {
        panic!("grant expected");
    };
    assert_eq!(nodes.len(), 10);
    // Request B: cannot fit (64-node machine, 10 busy), waits.
    let ClientAllocOutcome::Queued(1) = client
        .alloc("m0", &AllocArgs::new(2, 60).or_wait().with_walltime(30.0))
        .unwrap()
        .1
    else {
        panic!("queue expected");
    };
    // Request C: the release whose drain grants job 2 from the queue.
    let granted = client.release("m0", 1).unwrap();
    assert_eq!(granted.len(), 1, "job 2 must be granted by the release");
    assert_eq!(granted[0].0, 2);

    let dump = client.trace_events(None, true).unwrap();
    assert!(dump.enabled);
    assert_eq!(dump.dropped, 0);

    // Identify the grant/deny anchor events.
    let grant_1 = dump
        .events
        .iter()
        .find(|e| stage_of(e) == "grant" && e.get("job").and_then(Value::as_u64) == Some(1))
        .expect("job 1 grant event");
    let deny_2 = dump
        .events
        .iter()
        .find(|e| stage_of(e) == "deny" && e.get("job").and_then(Value::as_u64) == Some(2))
        .expect("job 2 deny event");
    let grant_2 = dump
        .events
        .iter()
        .find(|e| stage_of(e) == "grant" && e.get("job").and_then(Value::as_u64) == Some(2))
        .expect("job 2 queue-grant event");

    // Request A: parse → allocator → grant → journal append, in order.
    let req_a = grant_1.get("request").and_then(Value::as_u64).unwrap();
    assert_ne!(req_a, 0, "traced events carry a request id");
    let a_events = events_for_request(&dump.events, req_a);
    let parse = find_stage(&a_events, "parse").expect("parse span");
    let allocator = find_stage(&a_events, "allocator").expect("allocator span");
    let journal = find_stage(&a_events, "journal_append").expect("journal-append span");
    assert!(end_ts(parse) <= ts(allocator), "parse precedes the probe");
    assert!(
        end_ts(allocator) <= ts(grant_1),
        "the grant instant sits at or after the probe's end"
    );
    assert!(
        ts(journal) >= ts(grant_1),
        "the grant is journaled after it is decided"
    );
    assert_eq!(
        grant_1.get("from_queue").and_then(Value::as_bool),
        Some(false)
    );
    assert_eq!(grant_1.get("machine").and_then(Value::as_str), Some("m0"));

    // Request B: parse → deny, with the scheduler's explanation.
    let req_b = deny_2.get("request").and_then(Value::as_u64).unwrap();
    assert!(req_b > req_a, "request ids are minted in arrival order");
    let b_events = events_for_request(&dump.events, req_b);
    assert!(find_stage(&b_events, "parse").is_some());
    assert_eq!(
        deny_2.get("reason").and_then(Value::as_str),
        Some("insufficient_free")
    );

    // The queue grant is attributed to request B (the request that
    // enqueued job 2), not to the release that freed the space, and
    // its queue span covers the whole wait.
    assert_eq!(
        grant_2.get("request").and_then(Value::as_u64),
        Some(req_b),
        "queue grants trace back to the enqueueing request"
    );
    assert_eq!(
        grant_2.get("from_queue").and_then(Value::as_bool),
        Some(true)
    );
    let queue_span = find_stage(&b_events, "queue").expect("queue span");
    assert!(ts(queue_span) <= ts(deny_2) || ts(queue_span) <= ts(grant_2));
    assert!(end_ts(queue_span) <= ts(grant_2) + 1);

    // The release request journals the release and the queue grant.
    let release_journals = dump
        .events
        .iter()
        .filter(|e| stage_of(e) == "journal_append")
        .filter(|e| e.get("request").and_then(Value::as_u64) != Some(req_a))
        .count();
    assert!(
        release_journals > 0,
        "the release flushes journal records under its own request id"
    );

    // A clearing drain leaves nothing behind (the drain itself and the
    // enclosing protocol exchanges may add fresh parse spans, but no
    // stale job events).
    let again = client.trace_events(None, true).unwrap();
    assert!(
        again.events.iter().all(|e| e.get("job").is_none()),
        "drained job events must not reappear"
    );

    drop(client);
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: reservation introspection over the wire. Poll answers
/// with the reserved start and the binding constraint; query carries
/// the whole queue outlook.
#[test]
fn poll_and_query_expose_reservations_and_explains() {
    let service = commalloc_service::AllocationService::new();
    service
        .register("m0", "8x8", None, None, Some("conservative"))
        .unwrap();
    let handle = Server::bind("127.0.0.1:0", service, 2)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();

    // Job 1 takes half the machine for 100 s; job 2 wants all of it
    // (head reservation at job 1's completion); job 3 would fit now but
    // its 200 s walltime would delay job 2's reservation.
    assert!(matches!(
        client
            .alloc("m0", &AllocArgs::new(1, 32).with_walltime(100.0))
            .unwrap()
            .1,
        ClientAllocOutcome::Granted(_)
    ));
    assert!(matches!(
        client
            .alloc("m0", &AllocArgs::new(2, 64).or_wait().with_walltime(50.0))
            .unwrap()
            .1,
        ClientAllocOutcome::Queued(1)
    ));
    assert!(matches!(
        client
            .alloc("m0", &AllocArgs::new(3, 16).or_wait().with_walltime(200.0))
            .unwrap()
            .1,
        ClientAllocOutcome::Queued(2)
    ));

    // Poll job 2: the head holds a finite reservation and is blocked by
    // free capacity.
    let Response::Waiting {
        job: 2,
        position: 1,
        reserved_start: Some(start),
        explain: Some(explain),
        ..
    } = client
        .roundtrip(&Request::Poll {
            machine: Some("m0".into()),
            job: commalloc_service::JobRef::Bare(2),
        })
        .unwrap()
    else {
        panic!("job 2 must be waiting with a reservation");
    };
    assert!(start.is_finite() && start > 0.0);
    assert_eq!(
        explain.get("reason").and_then(Value::as_str),
        Some("insufficient_free")
    );
    assert_eq!(explain.get("needed").and_then(Value::as_u64), Some(64));

    // Poll job 3: blocked by job 2's reservation, not by capacity.
    let Response::Waiting {
        job: 3,
        position: 2,
        explain: Some(explain),
        ..
    } = client
        .roundtrip(&Request::Poll {
            machine: Some("m0".into()),
            job: commalloc_service::JobRef::Bare(3),
        })
        .unwrap()
    else {
        panic!("job 3 must be waiting with an explanation");
    };
    assert_eq!(
        explain.get("reason").and_then(Value::as_str),
        Some("would_delay_reservation")
    );
    assert_eq!(explain.get("blocking_job").and_then(Value::as_u64), Some(2));

    // Query: the machine snapshot round-trips the full queue outlook.
    let snapshot = client.query("m0").unwrap();
    let queue = snapshot
        .get("queue")
        .and_then(|q| match q {
            Value::Array(items) => Some(items.as_slice()),
            _ => None,
        })
        .expect("snapshot carries the queue outlook");
    assert_eq!(queue.len(), 2);
    assert_eq!(queue[0].get("job").and_then(Value::as_u64), Some(2));
    assert_eq!(queue[0].get("position").and_then(Value::as_u64), Some(1));
    assert!(queue[0]
        .get("reserved_start")
        .and_then(Value::as_f64)
        .is_some_and(f64::is_finite));
    assert_eq!(queue[1].get("job").and_then(Value::as_u64), Some(3));
    assert_eq!(
        queue[1]
            .get("explain")
            .and_then(|e| e.get("reason"))
            .and_then(Value::as_str),
        Some("would_delay_reservation")
    );

    drop(client);
    handle.shutdown().unwrap();
}

/// Satellite: `set_trace off` emits nothing — not even for requests
/// racing the toggle — and the wire confirms the state both ways.
#[test]
fn set_trace_off_emits_nothing() {
    let service = commalloc_service::AllocationService::new();
    service.register("m0", "8x8", None, None, None).unwrap();
    let handle = Server::bind("127.0.0.1:0", service, 2)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();

    // Tracing starts disabled: traffic leaves no events behind.
    assert!(matches!(
        client.alloc("m0", &AllocArgs::new(1, 10)).unwrap().1,
        ClientAllocOutcome::Granted(_)
    ));
    let dump = client.trace_events(None, false).unwrap();
    assert!(!dump.enabled);
    assert!(dump.events.is_empty(), "disabled tracing must emit nothing");
    assert_eq!(dump.dropped, 0);

    // On, traffic, off again: the drain sees only the traced window.
    assert!(client.set_trace(true, None).unwrap());
    assert!(matches!(
        client.alloc("m0", &AllocArgs::new(2, 10)).unwrap().1,
        ClientAllocOutcome::Granted(_)
    ));
    assert!(!client.set_trace(false, None).unwrap());
    assert!(matches!(
        client.alloc("m0", &AllocArgs::new(3, 10)).unwrap().1,
        ClientAllocOutcome::Granted(_)
    ));
    let dump = client.trace_events(None, true).unwrap();
    assert!(dump
        .events
        .iter()
        .any(|e| stage_of(e) == "grant" && e.get("job").and_then(Value::as_u64) == Some(2)));
    assert!(
        dump.events
            .iter()
            .all(|e| e.get("job").and_then(Value::as_u64) != Some(3)),
        "requests after the off-toggle must not be traced"
    );

    drop(client);
    handle.shutdown().unwrap();
}

/// Satellite: sustained traffic past the ring capacity surfaces as a
/// drop counter over the wire — bounded memory, never an error.
#[test]
fn ring_overflow_surfaces_a_drop_counter_over_the_wire() {
    let service = commalloc_service::AllocationService::new();
    service.register("m0", "8x8", None, None, None).unwrap();
    let handle = Server::bind("127.0.0.1:0", service, 1)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    assert!(client.set_trace(true, None).unwrap());

    // One worker = one recording thread = one shard. Every wire line
    // leaves a parse span, so 4600 pings overflow the 4096-slot ring.
    for _ in 0..4600 {
        assert!(matches!(
            client.roundtrip(&Request::Ping).unwrap(),
            Response::Pong
        ));
    }
    let dump = client.trace_events(None, true).unwrap();
    assert!(
        dump.dropped > 0,
        "4600 spans through one shard must overflow the 4096-slot ring"
    );
    assert!(
        !dump.events.is_empty(),
        "overflow keeps the most recent events"
    );

    drop(client);
    handle.shutdown().unwrap();
}

/// The calibration plane end-to-end: a comm-aware pool under patterned
/// traffic files a placement record per grant and joins it at release —
/// the report's joined count equals the released jobs, cells are keyed
/// (pattern, policy), and every routed alloc leaves a decision record
/// drained through the trace op.
#[test]
fn calibration_joins_every_released_job_and_decisions_drain() {
    let service = commalloc_service::AllocationService::new();
    for name in ["m0", "m1"] {
        service
            .register_in_pool(name, "8x8", None, None, Some("easy"), Some("grid"))
            .unwrap();
    }
    service.set_router("grid", "comm-aware").unwrap();
    let handle = Server::bind("127.0.0.1:0", service, 2)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    assert!(client.set_trace(true, Some(true)).unwrap());

    // Patterned, walltimed allocations routed through the pool.
    let jobs = 6u64;
    let mut placed: Vec<(u64, String)> = Vec::new();
    for job in 1..=jobs {
        let response = client
            .roundtrip(&Request::Alloc {
                machine: "@grid".into(),
                job,
                size: 8,
                wait: false,
                walltime: Some(120.0),
                pattern: Some(commalloc_workload::CommPattern::AllToAll),
                tenant: None,
            })
            .unwrap();
        let Response::Granted { job, machine, .. } = response else {
            panic!("routed patterned alloc must grant, got {response:?}");
        };
        placed.push((job, machine.expect("routed grants name their machine")));
    }
    for (job, machine) in &placed {
        client.release(machine, *job).unwrap();
    }

    // The report: every released job joined, in one comm-aware cell.
    let report = client.calibration().unwrap();
    assert_eq!(report.get("enabled").and_then(Value::as_bool), Some(true));
    assert_eq!(report.get("joined").and_then(Value::as_u64), Some(jobs));
    let cells = report
        .get("cells")
        .and_then(Value::as_array)
        .expect("cells array");
    assert!(!cells.is_empty());
    let mut cell_joined = 0;
    for cell in cells {
        assert_eq!(
            cell.get("pattern").and_then(Value::as_str),
            Some("all-to-all")
        );
        assert_eq!(
            cell.get("policy").and_then(Value::as_str),
            Some("comm-aware")
        );
        let c = cell.get("calibration").expect("cell payload");
        cell_joined += c.get("joined").and_then(Value::as_u64).unwrap();
        for key in [
            "rank_correlation",
            "predicted",
            "realized_held",
            "held_ratio",
            "queue_wait",
            "realized_dispersal",
        ] {
            assert!(c.get(key).is_some(), "cell must carry {key}");
        }
        assert_eq!(
            c.get("predicted")
                .and_then(|h| h.get("count"))
                .and_then(Value::as_u64),
            c.get("realized_held")
                .and_then(|h| h.get("count"))
                .and_then(Value::as_u64),
            "predicted and realized histograms join pairwise"
        );
    }
    assert_eq!(cell_joined, jobs, "cells partition the joined records");

    // Decision telemetry: one record per routed alloc, drained through
    // the trace op, carrying the winner and the per-member samples.
    let dump = client.trace_events(None, true).unwrap();
    assert_eq!(dump.decisions.len(), jobs as usize);
    for decision in &dump.decisions {
        assert_eq!(decision.get("pool").and_then(Value::as_str), Some("grid"));
        assert_eq!(
            decision.get("policy").and_then(Value::as_str),
            Some("comm-aware")
        );
        let winner = decision
            .get("winner")
            .and_then(Value::as_str)
            .expect("decision names its winner");
        let members = decision
            .get("members")
            .and_then(Value::as_array)
            .expect("decision carries member samples");
        assert!(members
            .iter()
            .any(|m| m.get("machine").and_then(Value::as_str) == Some(winner)));
        for member in members {
            assert!(member.get("queue_len").and_then(Value::as_u64).is_some());
            assert!(
                member.get("score").and_then(Value::as_f64).is_some(),
                "patterned comm-aware sampling scores every member"
            );
        }
        assert!(
            decision.get("comm_fallback").is_none(),
            "scored routing is not a fallback"
        );
    }
    // Drained means drained: a second clearing read is empty.
    assert!(client
        .trace_events(None, true)
        .unwrap()
        .decisions
        .is_empty());

    drop(client);
    handle.shutdown().unwrap();
}

/// Only `comm-aware` reads a member's score, so a pool routing by any
/// other policy samples its members unscored: a patterned routed alloc
/// leaves a decision record without member `score` keys.
#[test]
fn round_robin_decisions_carry_no_member_scores() {
    let service = commalloc_service::AllocationService::new();
    for name in ["m0", "m1"] {
        service
            .register_in_pool(name, "8x8", None, None, None, Some("grid"))
            .unwrap();
    }
    service.set_router("grid", "round-robin").unwrap();
    let handle = Server::bind("127.0.0.1:0", service, 2)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    assert!(client.set_trace(true, None).unwrap());
    for job in 1..=4u64 {
        let response = client
            .roundtrip(&Request::Alloc {
                machine: "@grid".into(),
                job,
                size: 8,
                wait: false,
                walltime: Some(120.0),
                pattern: Some(commalloc_workload::CommPattern::AllToAll),
                tenant: None,
            })
            .unwrap();
        assert!(matches!(response, Response::Granted { .. }), "{response:?}");
    }

    let dump = client.trace_events(None, true).unwrap();
    assert_eq!(dump.decisions.len(), 4);
    for decision in &dump.decisions {
        assert_eq!(
            decision.get("policy").and_then(Value::as_str),
            Some("round-robin")
        );
        let members = decision
            .get("members")
            .and_then(Value::as_array)
            .expect("decision carries member samples");
        assert_eq!(members.len(), 2);
        for member in members {
            assert!(member.get("free").and_then(Value::as_u64).is_some());
            assert!(
                member.get("score").is_none(),
                "round-robin reads no score, so none is computed: {member:?}"
            );
        }
    }

    drop(client);
    handle.shutdown().unwrap();
}

/// Windowed per-pool metrics: the trailing-window export carries the
/// pool's routing-policy label, agrees with the cumulative histogram
/// while all traffic is recent, and the Prometheus exposition labels
/// the per-pool series and the new totals.
#[test]
fn windowed_pool_metrics_and_prometheus_labels() {
    let service = commalloc_service::AllocationService::new();
    for name in ["m0", "m1"] {
        service
            .register_in_pool(name, "8x8", None, None, None, Some("grid"))
            .unwrap();
    }
    service.set_router("grid", "comm-aware").unwrap();
    let handle = Server::bind("127.0.0.1:0", service, 2)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    assert!(client.set_trace(true, Some(true)).unwrap());

    // Unpatterned traffic through a comm-aware pool: the router falls
    // back to shortest-queue and the fallback counter says so.
    for job in 1..=4u64 {
        let Response::Granted { .. } = client
            .roundtrip(&Request::Alloc {
                machine: "@grid".into(),
                job,
                size: 4,
                wait: false,
                walltime: None,
                pattern: None,
                tenant: None,
            })
            .unwrap()
        else {
            panic!("routed alloc must grant");
        };
    }

    let windowed = client.metrics("json", Some("60s")).unwrap();
    assert_eq!(windowed.get("window").and_then(Value::as_str), Some("60s"));
    let pool = windowed
        .get("pools")
        .and_then(|p| p.get("grid"))
        .expect("windowed metrics carry the pool");
    assert_eq!(
        pool.get("policy").and_then(Value::as_str),
        Some("comm-aware")
    );
    let windowed_count = pool
        .get("route_latency_micros")
        .and_then(|h| h.get("count"))
        .and_then(Value::as_u64)
        .unwrap();
    assert_eq!(windowed_count, 4, "all routes landed inside the window");

    // The cumulative export agrees while everything is recent, and the
    // fallback counter reports the unscored comm-aware routes.
    let cumulative = client.metrics("json", None).unwrap();
    assert!(cumulative.get("window").is_none());
    assert_eq!(
        cumulative
            .get("pools")
            .and_then(|p| p.get("grid"))
            .and_then(|g| g.get("route_latency_micros"))
            .and_then(|h| h.get("count"))
            .and_then(Value::as_u64),
        Some(4)
    );
    assert_eq!(
        cumulative
            .get("server")
            .and_then(|s| s.get("route_comm_fallbacks"))
            .and_then(Value::as_u64),
        Some(4)
    );
    assert_eq!(
        cumulative
            .get("tracing")
            .and_then(|t| t.get("calibration"))
            .and_then(Value::as_bool),
        Some(true)
    );
    assert!(cumulative
        .get("tracing")
        .and_then(|t| t.get("dropped_spans_total"))
        .and_then(Value::as_u64)
        .is_some());

    // The fallback also marks each decision record.
    let dump = client.trace_events(None, true).unwrap();
    assert_eq!(dump.decisions.len(), 4);
    for decision in &dump.decisions {
        assert_eq!(
            decision.get("comm_fallback").and_then(Value::as_bool),
            Some(true)
        );
    }

    // Prometheus: per-pool series with pool/policy labels, plus the
    // drop total, recovery epoch and calibration gauges.
    let Value::Str(text) = client.metrics("prometheus", Some("10s")).unwrap() else {
        panic!("prometheus metrics render as exposition text");
    };
    assert!(text.contains(
        "commalloc_pool_route_latency_micros_bucket{pool=\"grid\",policy=\"comm-aware\""
    ));
    assert!(text.contains("commalloc_dropped_spans_total"));
    assert!(text.contains("commalloc_recovery_epoch"));
    assert!(text.contains("commalloc_calibration_enabled 1"));
    assert!(text.contains("commalloc_route_comm_fallbacks 4"));

    drop(client);
    handle.shutdown().unwrap();
}

/// Satellite: stage-latency histograms reach both wire surfaces — the
/// extended `stats` and the `metrics` op in JSON and Prometheus text.
#[test]
fn metrics_surface_stage_histograms_in_both_formats() {
    let service = commalloc_service::AllocationService::new();
    service.register("m0", "8x8", None, None, None).unwrap();
    let handle = Server::bind("127.0.0.1:0", service, 2)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    assert!(client.set_trace(true, None).unwrap());
    assert!(matches!(
        client.alloc("m0", &AllocArgs::new(1, 10)).unwrap().1,
        ClientAllocOutcome::Granted(_)
    ));

    let metrics = client.metrics("json", None).unwrap();
    assert!(
        metrics
            .get("server")
            .and_then(|s| s.get("requests"))
            .and_then(Value::as_u64)
            .is_some_and(|n| n > 0),
        "server counters are part of the metrics surface"
    );
    assert_eq!(
        metrics
            .get("tracing")
            .and_then(|t| t.get("enabled"))
            .and_then(Value::as_bool),
        Some(true)
    );
    let parse_count = metrics
        .get("stages")
        .and_then(|s| s.get("parse"))
        .and_then(|p| p.get("count"))
        .and_then(Value::as_u64)
        .expect("parse stage histogram");
    assert!(parse_count > 0);
    let allocator_count = metrics
        .get("stages")
        .and_then(|s| s.get("allocator"))
        .and_then(|p| p.get("count"))
        .and_then(Value::as_u64)
        .expect("allocator stage histogram");
    assert!(allocator_count > 0);

    let Value::Str(text) = client.metrics("prometheus", None).unwrap() else {
        panic!("prometheus metrics render as exposition text");
    };
    assert!(text.contains("# TYPE commalloc_stage_latency_micros histogram"));
    assert!(text.contains("commalloc_stage_latency_micros_bucket{stage=\"parse\""));
    assert!(text.contains("commalloc_trace_enabled 1"));
    assert!(text.contains("commalloc_requests"));

    // The extended stats surface carries the same histograms.
    let stats = client.stats("m0").unwrap();
    assert!(
        stats
            .get("stages")
            .and_then(|s| s.get("allocator"))
            .is_some(),
        "stats carries the stage histograms"
    );

    drop(client);
    handle.shutdown().unwrap();
}
