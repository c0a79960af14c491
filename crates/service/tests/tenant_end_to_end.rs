//! End-to-end coverage of the tenancy and job-identity layer over real
//! TCP: pool-scoped `@pool` job addressing (bare ids resolved by asking
//! the pool's members), typed ambiguity and quota errors, `hello`
//! connection binding, per-tenant accounting in the tenant table,
//! weighted fair-share drain order, and tenant-table recovery through a
//! simulated crash.

use commalloc_service::{
    open_journaled, AllocArgs, AllocOutcome, AllocationService, ClientAllocOutcome, ClientError,
    JobRef, JobStatus, JournalConfig, Request, RequestCtx, Response, Server, ServiceClient,
    ServiceError,
};
use serde::Value;
use std::collections::HashMap;

fn spawn_server() -> (AllocationService, commalloc_service::ServerHandle) {
    let service = AllocationService::new();
    let handle = Server::bind("127.0.0.1:0", service.clone(), 4)
        .expect("bind an ephemeral port")
        .spawn()
        .expect("spawn the server");
    (service, handle)
}

fn register_pool(client: &mut ServiceClient, members: &[&str]) {
    for name in members {
        client
            .register_in_pool(name, "8x8", None, None, None, Some("grid"))
            .unwrap();
    }
}

/// The tentpole acceptance path: allocate through `@grid`, then
/// release/poll/query through `@grid` with bare ids — each id resolves
/// to the member that holds it, and the responses name that member.
#[test]
fn pool_scoped_job_refs_resolve_over_tcp() {
    let (service, handle) = spawn_server();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    register_pool(&mut client, &["m0", "m1"]);

    // Place jobs through the router and remember who took them.
    let mut owners: HashMap<u64, String> = HashMap::new();
    for job in 1..=6u64 {
        let (machine, outcome) = client
            .alloc("@grid", &AllocArgs::new(job, 8).with_walltime(60.0))
            .unwrap();
        assert!(matches!(outcome, ClientAllocOutcome::Granted(_)));
        owners.insert(job, machine);
    }

    // Poll by bare id through the pool: it resolves to the member.
    for (&job, owner) in &owners {
        let (resolved, status) = client.poll_ref(Some("@grid"), &JobRef::Bare(job)).unwrap();
        assert_eq!(resolved.as_deref(), Some(owner.as_str()), "job {job}");
        assert!(matches!(status, JobStatus::Running(_)));
    }

    // A fully-qualified ref needs no machine field at all.
    let owner = owners[&1].clone();
    let (resolved, status) = client
        .poll_ref(
            None,
            &JobRef::Pooled {
                pool: "grid".into(),
                machine: owner.clone(),
                id: 1,
            },
        )
        .unwrap();
    assert_eq!(resolved.as_deref(), Some(owner.as_str()));
    assert!(matches!(status, JobStatus::Running(_)));

    // Release through the pool; the response names the resolved member
    // and the pool forgets the id with the job.
    for (&job, owner) in &owners {
        let (resolved, _) = client
            .release_ref(Some("@grid"), &JobRef::Bare(job))
            .unwrap();
        assert_eq!(resolved.as_deref(), Some(owner.as_str()), "job {job}");
    }
    let err = client
        .poll_ref(Some("@grid"), &JobRef::Bare(1))
        .unwrap_err();
    assert!(
        matches!(err, ClientError::Service(_)),
        "released jobs must be unknown to the pool, got {err:?}"
    );

    // `query @grid` aggregates the pool.
    let snap = client.query("@grid").unwrap();
    assert_eq!(snap.get("pool").and_then(Value::as_str), Some("grid"));

    for machine in ["m0", "m1"] {
        service.check_invariants(machine).unwrap();
    }
    drop(client);
    handle.shutdown().unwrap();
}

/// The satellite bugfix: the same bare id live on two members is a
/// typed `ambiguous_job` error carrying both owners — never
/// first-match-wins — and a qualified ref still disambiguates.
#[test]
fn duplicate_bare_ids_across_members_are_typed_ambiguous() {
    let (_service, handle) = spawn_server();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    register_pool(&mut client, &["m0", "m1"]);

    // The same client-chosen id placed directly on both members.
    for machine in ["m0", "m1"] {
        assert!(matches!(
            client.alloc(machine, &AllocArgs::new(7, 4)).unwrap().1,
            ClientAllocOutcome::Granted(_)
        ));
    }

    let err = client
        .release_ref(Some("@grid"), &JobRef::Bare(7))
        .unwrap_err();
    let ClientError::AmbiguousJob {
        pool,
        job,
        machines,
    } = err
    else {
        panic!("expected the typed ambiguity error, got {err:?}");
    };
    assert_eq!(pool, "grid");
    assert_eq!(job, 7);
    assert_eq!(machines, vec!["m0".to_string(), "m1".to_string()]);

    // Qualified refs bypass the ambiguity.
    let (resolved, _) = client
        .release_ref(
            None,
            &JobRef::Member {
                machine: "m1".into(),
                id: 7,
            },
        )
        .unwrap();
    assert_eq!(resolved.as_deref(), Some("m1"));
    // Now the bare id is unique again.
    let (resolved, _) = client.release_ref(Some("@grid"), &JobRef::Bare(7)).unwrap();
    assert_eq!(resolved.as_deref(), Some("m0"));
    drop(client);
    handle.shutdown().unwrap();
}

/// Quota admission over the wire: a `hello`-bound connection is billed
/// to its tenant, denials are typed `quota_exceeded` errors carrying
/// usage and limit, and the tenant table accounts both sides.
#[test]
fn quota_denials_are_typed_and_accounted() {
    let (_service, handle) = spawn_server();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    client.register("m0", "8x8", None, None, None).unwrap();
    // 1000 node-seconds of quota.
    let (weight, quota, cap) = client.set_tenant("acme", None, Some(1000.0), None).unwrap();
    assert_eq!(weight, 1.0);
    assert_eq!(quota, Some(1000.0));
    assert_eq!(cap, None);
    assert_eq!(client.hello("acme").unwrap(), "acme");

    // 8 nodes x 100 s = 800 node-seconds: admitted.
    assert!(matches!(
        client
            .alloc("m0", &AllocArgs::new(1, 8).with_walltime(100.0))
            .unwrap()
            .1,
        ClientAllocOutcome::Granted(_)
    ));
    // Another 800 would take acme to 1600 > 1000: typed denial.
    let err = client
        .alloc("m0", &AllocArgs::new(2, 8).with_walltime(100.0))
        .unwrap_err();
    let ClientError::QuotaExceeded {
        tenant,
        usage,
        limit,
    } = err
    else {
        panic!("expected the typed quota error, got {err:?}");
    };
    assert_eq!(tenant, "acme");
    assert_eq!(usage, 800.0);
    assert_eq!(limit, 1000.0);

    // An explicit per-request tenant overrides the connection binding.
    assert!(matches!(
        client
            .alloc(
                "m0",
                &AllocArgs::new(3, 4).with_walltime(10.0).for_tenant("other")
            )
            .unwrap()
            .1,
        ClientAllocOutcome::Granted(_)
    ));

    // The table shows acme's admit/deny ledger and other's admit.
    let table = client.tenants().unwrap();
    let acme = table.get("acme").expect("acme must be in the table");
    assert_eq!(acme.get("admitted").and_then(Value::as_u64), Some(1));
    assert_eq!(acme.get("denied").and_then(Value::as_u64), Some(1));
    assert_eq!(
        acme.get("outstanding_node_seconds").and_then(Value::as_f64),
        Some(800.0)
    );
    let other = table.get("other").expect("other must be in the table");
    assert_eq!(other.get("admitted").and_then(Value::as_u64), Some(1));

    // Releasing settles the commitment into consumption.
    client.release("m0", 1).unwrap();
    let table = client.tenants().unwrap();
    let acme = table.get("acme").unwrap();
    assert_eq!(
        acme.get("outstanding_node_seconds").and_then(Value::as_f64),
        Some(0.0)
    );
    drop(client);
    handle.shutdown().unwrap();
}

/// Only a `hello` sent as a frame of its own binds the connection. A
/// batched one answers a per-member error, so the client is never told
/// it is `acme` while its untagged jobs go on billing `default`.
#[test]
fn a_batched_hello_is_refused_and_binds_nothing() {
    let (_service, handle) = spawn_server();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    client.register("m0", "8x8", None, None, None).unwrap();
    let answers = client
        .batch(vec![
            Request::Hello {
                tenant: "acme".into(),
            },
            Request::Ping,
        ])
        .unwrap();
    assert!(
        matches!(&answers[0], Response::Error { message, .. } if message.contains("hello")),
        "a batched hello must be refused, got {:?}",
        answers[0]
    );
    assert_eq!(answers[1], Response::Pong);

    // The connection is still unbound: an untagged alloc bills default.
    client
        .alloc("m0", &AllocArgs::new(1, 4).with_walltime(10.0))
        .unwrap();
    let table = client.tenants().unwrap();
    let admitted = |tenant: &str| {
        table
            .get(tenant)
            .and_then(|row| row.get("admitted"))
            .and_then(Value::as_u64)
    };
    assert_eq!(admitted("default"), Some(1));
    assert_eq!(admitted("acme"), None);

    // A hello of its own still binds.
    assert_eq!(client.hello("acme").unwrap(), "acme");
    client
        .alloc("m0", &AllocArgs::new(2, 4).with_walltime(10.0))
        .unwrap();
    let table = client.tenants().unwrap();
    let acme = table.get("acme").and_then(|row| row.get("admitted"));
    assert_eq!(acme.and_then(Value::as_u64), Some(1));
    drop(client);
    handle.shutdown().unwrap();
}

/// Fair-share ON lets the heavier tenant's later-arriving jobs drain
/// first, shifting the tenant-weighted mean wait; OFF preserves plain
/// arrival order. (Acceptance: the two-tenant weighted run.)
#[test]
fn weighted_fair_share_shifts_tenant_mean_wait() {
    let run = |fair_share: bool| -> (f64, f64) {
        let service = AllocationService::new();
        service.register("m0", "8x8", None, None, None).unwrap();
        let ctx = RequestCtx::inert();
        service.set_tenant("heavy", Some(8.0), None, None).unwrap();
        service.set_tenant("light", Some(1.0), None, None).unwrap();
        if fair_share {
            service.set_fair_share("m0", true, &ctx).unwrap();
        }
        service.set_time("m0", 0.0).unwrap();
        // Fill all 64 processors with four untenanted holders.
        for job in 100..104u64 {
            assert!(matches!(
                service
                    .alloc("m0", &AllocArgs::new(job, 16).with_walltime(1000.0), &ctx)
                    .unwrap(),
                AllocOutcome::Granted(_)
            ));
        }
        // Light arrives first, heavy second; same shapes throughout.
        for job in 200..204u64 {
            let outcome = service
                .alloc(
                    "m0",
                    &AllocArgs::new(job, 16)
                        .or_wait()
                        .with_walltime(10.0)
                        .for_tenant("light"),
                    &ctx,
                )
                .unwrap();
            assert!(matches!(outcome, AllocOutcome::Queued(_)));
        }
        for job in 300..304u64 {
            let outcome = service
                .alloc(
                    "m0",
                    &AllocArgs::new(job, 16)
                        .or_wait()
                        .with_walltime(10.0)
                        .for_tenant("heavy"),
                    &ctx,
                )
                .unwrap();
            assert!(matches!(outcome, AllocOutcome::Queued(_)));
        }
        // Free one 16-node slot per tick; record when each job starts.
        let mut to_release: Vec<u64> = (100..104).collect();
        let mut started: HashMap<u64, f64> = HashMap::new();
        let mut tick = 0u64;
        while started.len() < 8 {
            tick += 1;
            let t = tick as f64 * 10.0;
            service.set_time("m0", t).unwrap();
            let victim = to_release.remove(0);
            for (job, _) in service.release("m0", victim, &ctx).unwrap() {
                started.insert(job, t);
                to_release.push(job);
            }
            assert!(tick < 64, "drain must terminate");
        }
        let mean = |range: std::ops::Range<u64>| -> f64 {
            range.clone().map(|j| started[&j]).sum::<f64>() / range.count() as f64
        };
        (mean(300..304), mean(200..204))
    };

    let (heavy_off, light_off) = run(false);
    assert!(
        heavy_off > light_off,
        "FCFS favors the earlier arrivals: heavy {heavy_off} vs light {light_off}"
    );
    let (heavy_on, light_on) = run(true);
    assert!(
        heavy_on < light_on,
        "weight 8 must out-drain weight 1: heavy {heavy_on} vs light {light_on}"
    );
    assert!(
        heavy_on < heavy_off,
        "fair-share must shift the heavy tenant's mean wait down ({heavy_on} vs {heavy_off})"
    );
}

/// What the pool layer answers about ids and members it does not know:
/// the scan over members must keep every answer the index gave.
#[test]
fn pool_addressing_keeps_its_answers_for_strangers() {
    let service = AllocationService::new();
    for name in ["m0", "m1"] {
        service
            .register_in_pool(name, "4x4", None, None, None, Some("grid"))
            .unwrap();
    }
    service.register("loner", "4x4", None, None, None).unwrap();
    let poll = |machine: Option<&str>, job: &str| {
        let request = Request::Poll {
            machine: machine.map(str::to_string),
            job: JobRef::parse_str(job).unwrap(),
        };
        match service.handle(&request) {
            Response::Error {
                message,
                code: None,
                detail: None,
            } => message,
            other => panic!("expected an untyped error, got {other:?}"),
        }
    };
    // A pool nobody registered has no members, so no holders: the id
    // is unknown at the address the client used, not an unknown pool.
    assert_eq!(
        poll(Some("@nope"), "7"),
        "job 7 is not known on machine \"@nope\""
    );
    assert_eq!(
        poll(Some("@grid"), "7"),
        "job 7 is not known on machine \"@grid\""
    );
    // Qualified refs: a non-member, and a pool that does not exist.
    let stranger = "invalid request: machine \"loner\" is not a member of pool \"grid\"";
    assert_eq!(poll(Some("@grid"), "loner/7"), stranger);
    assert_eq!(poll(Some("@grid"), "grid/loner/7"), stranger);
    assert_eq!(poll(None, "grid/loner/7"), stranger);
    assert_eq!(poll(Some("loner"), "grid/loner/7"), stranger);
    assert_eq!(
        poll(None, "nope/m0/7"),
        "invalid request: machine \"m0\" is not a member of pool \"nope\""
    );
    assert_eq!(
        poll(Some("@grid"), "nope/m0/7"),
        "invalid request: job ref names pool \"nope\" but the request addresses \"grid\""
    );
    // A member's qualified ref resolves without asking anyone else.
    assert_eq!(
        service.handle(&Request::Poll {
            machine: Some("@grid".into()),
            job: JobRef::parse_str("grid/m1/7").unwrap(),
        }),
        Response::Unknown { job: 7 }
    );
}

/// A routed id some member already holds is refused like any failed
/// attempt: the commitment taken for it goes back, nothing is denied.
#[test]
fn a_routed_duplicate_leaves_the_tenant_ledger_as_it_found_it() {
    let service = AllocationService::new();
    for name in ["m0", "m1"] {
        service
            .register_in_pool(name, "4x4", None, None, None, Some("grid"))
            .unwrap();
    }
    let ctx = RequestCtx::inert();
    // Job 7 lives on m1 by a direct alloc; costs are whole numbers so
    // the commit-then-refund below is exact in floating point.
    let args = AllocArgs::new(7, 4).with_walltime(10.0).for_tenant("acme");
    service.alloc("m1", &args, &ctx).unwrap();
    let ledger = || service.tenants().export();
    let before = ledger();
    let duplicate = ServiceError::DuplicateJob {
        machine: "m1".into(),
        job_id: 7,
    };
    assert_eq!(service.route("grid", &args, &ctx), Err(duplicate.clone()));
    assert_eq!(ledger(), before, "commitment refunded, no denied tick");
    // Over quota *and* a duplicate: the quota is checked first, as on
    // a direct alloc, so that is the error (and the one denied tick).
    service.set_tenant("acme", None, Some(50.0), None).unwrap();
    for attempt in [
        service
            .route("grid", &args, &ctx)
            .map(|(_, outcome)| outcome),
        service.alloc("m1", &args, &ctx),
    ] {
        assert!(
            matches!(attempt, Err(ServiceError::QuotaExceeded { .. })),
            "got {attempt:?}"
        );
    }
    let row = ledger().into_iter().find(|r| r.tenant == "acme").unwrap();
    assert_eq!((row.denied, row.admitted), (2, 1));
    assert_eq!(row.outstanding_node_seconds, 40.0);
    // Under quota again, the duplicate is what is left to refuse.
    service.set_tenant("acme", None, Some(0.0), None).unwrap();
    assert_eq!(service.route("grid", &args, &ctx), Err(duplicate));
}

/// The tenant table, fair-share toggles and `@pool` resolution of live
/// jobs all survive a crash (scope drop without shutdown) and recover from the
/// journal: quotas keep counting from the recovered usage.
#[test]
fn tenant_table_and_pool_index_survive_recovery() {
    let dir =
        std::env::temp_dir().join(format!("commalloc-tenant-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ctx = RequestCtx::inert();
    {
        let (service, _) = open_journaled(&dir, JournalConfig::default()).unwrap();
        service
            .register_in_pool("m0", "8x8", None, None, None, Some("grid"))
            .unwrap();
        service
            .register_in_pool("m1", "8x8", None, None, None, Some("grid"))
            .unwrap();
        service
            .set_tenant("acme", Some(2.5), Some(2000.0), Some(64))
            .unwrap();
        service.set_fair_share("m0", true, &ctx).unwrap();
        // 8 nodes x 100 s = 800 node-seconds outstanding for acme.
        let outcome = service
            .alloc(
                "m0",
                &AllocArgs::new(1, 8).with_walltime(100.0).for_tenant("acme"),
                &ctx,
            )
            .unwrap();
        assert!(matches!(outcome, AllocOutcome::Granted(_)));
        // Dropped without release: a kill -9 equivalent.
    }
    let (recovered, report) = open_journaled(&dir, JournalConfig::default()).unwrap();
    assert_eq!(report.epoch, 1);

    // Configuration and usage both survived.
    let table = recovered.tenants_value();
    let acme = table.get("acme").expect("acme must survive recovery");
    assert_eq!(acme.get("weight").and_then(Value::as_f64), Some(2.5));
    assert_eq!(
        acme.get("quota_node_seconds").and_then(Value::as_f64),
        Some(2000.0)
    );
    assert_eq!(acme.get("max_in_flight").and_then(Value::as_u64), Some(64));
    assert_eq!(
        acme.get("outstanding_node_seconds").and_then(Value::as_f64),
        Some(800.0)
    );

    // The quota keeps enforcing from the recovered usage: another
    // 1600 node-seconds would cross 2000.
    let err = recovered
        .alloc(
            "m0",
            &AllocArgs::new(2, 16)
                .with_walltime(100.0)
                .for_tenant("acme"),
            &ctx,
        )
        .unwrap_err();
    assert!(
        format!("{err}").contains("quota"),
        "expected a quota denial, got {err}"
    );

    // The pool resolves the recovered job by bare id.
    let (resolved, status) = recovered.poll_ref(Some("@grid"), &JobRef::Bare(1)).unwrap();
    assert_eq!(resolved, "m0");
    assert!(matches!(status, JobStatus::Running(_)));
    // Fair-share toggle survived too.
    assert!(recovered.machine_image("m0").unwrap().fair_share);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every tenant's consumed node-seconds, by name.
fn consumed(service: &AllocationService) -> Vec<(String, f64)> {
    let table = service.tenants_value();
    let rows = table.as_object().expect("tenants is an object");
    rows.iter()
        .map(|(tenant, row)| {
            let consumed = row.get("consumed_node_seconds").and_then(Value::as_f64);
            (tenant.clone(), consumed.expect("every row has consumption"))
        })
        .collect()
}

/// Consumption settled after the last snapshot survives a crash: each
/// journaled release carries its hold, and recovery accrues it to the
/// job's tenant, the default tenant included. The second case installs
/// a snapshot between two of acme's releases, so the image's total and
/// the tail's holds both count.
#[test]
fn consumption_settled_after_the_last_snapshot_survives_recovery() {
    let ctx = RequestCtx::inert();
    for snapshot_between in [false, true] {
        let dir = std::env::temp_dir().join(format!(
            "commalloc-consumption-{}-{snapshot_between}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let before = {
            let (service, _) = open_journaled(&dir, JournalConfig::default()).unwrap();
            service.register("m0", "8x8", None, None, None).unwrap();
            service.set_tenant("acme", Some(2.0), None, None).unwrap();
            service.set_time("m0", 10.0).unwrap();
            for (job, tenant) in [(1, Some("acme")), (2, None), (3, Some("acme"))] {
                let args = AllocArgs::new(job, 4 + job as usize).with_walltime(100.0);
                let args = match tenant {
                    Some(tenant) => args.for_tenant(tenant),
                    None => args,
                };
                let outcome = service.alloc("m0", &args, &ctx).unwrap();
                assert!(matches!(outcome, AllocOutcome::Granted(_)));
            }
            service.set_time("m0", 12.25).unwrap();
            service.release("m0", 1, &ctx).unwrap();
            if snapshot_between {
                service.install_journal_snapshot().unwrap();
            }
            service.set_time("m0", 40.5).unwrap();
            service.release("m0", 2, &ctx).unwrap();
            service.release("m0", 3, &ctx).unwrap();
            consumed(&service)
            // Dropped with no snapshot after the last releases.
        };
        let acme = 5.0 * 2.25 + 7.0 * 30.5;
        let default = 6.0 * 30.5;
        assert_eq!(
            before,
            [("acme".to_string(), acme), ("default".to_string(), default)]
        );

        let (recovered, report) = open_journaled(&dir, JournalConfig::default()).unwrap();
        assert_eq!(report.snapshot_found, snapshot_between);
        assert_eq!(consumed(&recovered), before, "snapshot {snapshot_between}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
