//! The service clock: one time source for scheduling, span stamps, the
//! metrics windows and journal recovery.
//!
//! Pins three contracts: how many clock reads each request kind costs
//! (counted on virtual time, where every read is tallied), that spans
//! are deterministic under virtual time, and that the windowed stage
//! histograms file a span under the second it ended in.

use commalloc_mesh::NodeId;
use commalloc_service::journal::{QueuedRequest, RunningJob};
use commalloc_service::{
    AllocArgs, AllocOutcome, AllocationService, Clock, FlightRecorder, JobRef, JournalRecord,
    Request, RequestCtx, Response, Server, ServiceClient, Stage,
};
use serde::Value;

const INERT: RequestCtx<'static> = RequestCtx::inert();

fn alloc(job: u64, size: usize, wait: bool) -> Request {
    Request::Alloc {
        machine: "m0".into(),
        job,
        size,
        wait,
        walltime: Some(10.0),
        pattern: None,
        tenant: None,
    }
}

fn release(job: u64) -> Request {
    Request::Release {
        machine: Some("m0".into()),
        job: JobRef::Bare(job),
    }
}

fn poll(job: u64) -> Request {
    Request::Poll {
        machine: Some("m0".into()),
        job: JobRef::Bare(job),
    }
}

/// The value at `path` through nested objects.
fn at<'v>(value: &'v Value, path: &[&str]) -> &'v Value {
    path.iter().fold(value, |v, key| {
        v.get(key).unwrap_or_else(|| panic!("no {key:?} in {v:?}"))
    })
}

/// Serves `request` the way a connection worker does: a context from
/// `begin`, the parse as the first stage, then the traced dispatch.
fn serve_traced(service: &AllocationService, request: &Request) -> Response {
    let mut ctx = service.begin();
    ctx.lap(Stage::Parse, 0, 0);
    service.handle_traced(request, &ctx)
}

/// A 16-node FCFS machine on virtual time.
fn virtual_service() -> AllocationService {
    let service = AllocationService::new();
    service.register("m0", "4x4", None, None, None).unwrap();
    service.set_time("m0", 0.0).unwrap();
    service
}

#[test]
fn wall_time_starts_near_zero_and_reads_are_uncounted() {
    let clock = Clock::wall();
    let (a, b) = (clock.now(), clock.now());
    assert!((0.0..1.0).contains(&a), "a fresh clock reads ~0, got {a}");
    assert!(b >= a);
    assert_eq!(clock.virtual_time(), None);
    assert_eq!(clock.reads(), 0, "wall reads are not counted");
}

#[test]
fn advance_rebases_either_time_base_forward_only() {
    let wall = Clock::wall();
    wall.advance_to(3600.0);
    assert!(wall.now() >= 3600.0, "clock not rebased past the stamp");
    wall.advance_to(10.0);
    assert!(
        wall.now() >= 3600.0,
        "an older stamp leaves the clock alone"
    );
    assert_eq!(wall.virtual_time(), None);
    let virt = Clock::wall();
    virt.set_time(5.0);
    virt.advance_to(7.5);
    virt.advance_to(6.0);
    assert_eq!(virt.now(), 7.5);
    assert_eq!(virt.reads(), 1, "virtual_time is a peek, not a read");
}

#[test]
fn virtual_time_is_monotonic_and_drives_wait_metrics() {
    let service = AllocationService::new();
    service.register("m0", "16x16", None, None, None).unwrap();
    service.set_time("m0", 10.0).unwrap();
    let granted = service.alloc("m0", &AllocArgs::new(1, 250), &INERT);
    assert!(matches!(granted, Ok(AllocOutcome::Granted(_))));
    let queued = service.alloc("m0", &AllocArgs::new(2, 20).or_wait(), &INERT);
    assert_eq!(queued, Ok(AllocOutcome::Queued(1)));
    service.set_time("m0", 35.0).unwrap();
    service.set_time("m0", 1.0).unwrap(); // clamped: virtual time never rewinds
    assert_eq!(service.clock().now(), 35.0);
    let granted = service.release("m0", 1, &INERT).unwrap();
    assert_eq!(granted.len(), 1);
    let stats = service.stats("m0").unwrap();
    let wait = |key: &str| at(&stats, &["wait", key]).as_f64().unwrap();
    assert_eq!(wait("count"), 1.0);
    let mean = wait("mean_seconds");
    assert!(
        (mean - 25.0).abs() < 1e-9,
        "waited 35 - 10 = 25 s, got {mean}"
    );
    assert!((wait("max_seconds") - 25.0).abs() < 1e-9);
}

#[test]
fn restore_rebases_wall_clocks_past_recovered_stamps() {
    // Recovered stamps come from the previous incarnation's clock; a
    // wall clock restarting at zero would put them in the future
    // (negative waits, EASY shadow times hours ahead). Folding a record
    // in must drag the clock past every stamp it carries.
    let service = AllocationService::new();
    service.register("m0", "16x16", None, None, None).unwrap();
    let grant = JournalRecord::Grant {
        machine: "m0".into(),
        job: RunningJob {
            job: 1,
            nodes: vec![NodeId(0)],
            walltime: Some(10.0),
            start: 3600.0,
            pattern: None,
            tenant: None,
        },
    };
    service.apply_journal_record(grant).unwrap();
    assert!(
        service.clock().now() >= 3600.0,
        "clock not rebased past the grant"
    );
    let queue = JournalRecord::Queue {
        machine: "m0".into(),
        request: QueuedRequest {
            job: 2,
            size: 4,
            walltime: None,
            enqueued_at: 3610.0,
            pattern: None,
            tenant: None,
        },
    };
    service.apply_journal_record(queue).unwrap();
    assert!(
        service.clock().now() >= 3610.0,
        "clock not rebased past the enqueue"
    );
    service.check_invariants("m0").unwrap();
    // Releasing the recovered job drains the recovered queue with a
    // sane (small, non-negative) recorded wait.
    let granted = service.release("m0", 1, &INERT).unwrap();
    assert_eq!(granted.len(), 1);
    assert_eq!(granted[0].0, 2);
    let stats = service.stats("m0").unwrap();
    let mean = at(&stats, &["wait", "mean_seconds"]).as_f64().unwrap();
    assert!(
        (0.0..60.0).contains(&mean),
        "recovered wait skewed by the clock base: {mean}"
    );
}

/// One request of the pinned scenario: its name, the request, and the
/// response kind it must get.
type Step = (&'static str, Request, fn(&Response) -> bool);

/// Every op kind the read counts cover, on [`virtual_service`]'s
/// machine: grants, a queue, a reject behind the queue, polls of both
/// states, a release that drains the queue and one that does not.
fn scenario() -> Vec<Step> {
    vec![
        ("ping", Request::Ping, |r| matches!(r, Response::Pong)),
        ("alloc granted", alloc(1, 12, false), |r| {
            matches!(r, Response::Granted { .. })
        }),
        ("alloc queued", alloc(2, 8, true), |r| {
            matches!(r, Response::Queued { .. })
        }),
        ("alloc rejected", alloc(3, 8, false), |r| {
            matches!(r, Response::Rejected { .. })
        }),
        ("poll queued", poll(2), |r| {
            matches!(r, Response::Waiting { .. })
        }),
        ("poll running", poll(1), |r| {
            matches!(r, Response::Running { .. })
        }),
        (
            "release draining",
            release(1),
            |r| matches!(r, Response::Released { granted, .. } if granted.len() == 1),
        ),
        (
            "release",
            release(2),
            |r| matches!(r, Response::Released { granted, .. } if granted.is_empty()),
        ),
    ]
}

/// The clock reads each scenario step took when served by `serve`.
fn reads_per_step(
    clock: &Clock,
    mut serve: impl FnMut(&Request) -> Response,
) -> Vec<(&'static str, u64)> {
    scenario()
        .into_iter()
        .map(|(name, request, expected)| {
            let before = clock.reads();
            let response = serve(&request);
            assert!(expected(&response), "{name}: unexpected {response:?}");
            (name, clock.reads() - before)
        })
        .collect()
}

/// The same scenario over TCP, with the recorder on or off.
fn reads_over_the_wire(traced: bool) -> Vec<(&'static str, u64)> {
    let service = virtual_service();
    service.recorder().set_enabled(traced);
    let handle = Server::bind("127.0.0.1:0", service.clone(), 1)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    let reads = reads_per_step(service.clock(), |r| client.roundtrip(r).unwrap());
    drop(client);
    handle.shutdown().unwrap();
    reads
}

#[test]
fn clock_reads_per_request_are_pinned() {
    // Untraced: a machine reads the clock at most once, and only when
    // it needs the time — to stamp an arrival, settle a release's
    // realized hold, or plan a queue.
    let untraced = vec![
        ("ping", 0),
        ("alloc granted", 1),
        ("alloc queued", 1),
        ("alloc rejected", 1),
        ("poll queued", 1),
        ("poll running", 0),
        ("release draining", 1),
        ("release", 1),
    ];
    let service = virtual_service();
    let in_process = reads_per_step(service.clock(), |r| service.handle(r));
    assert_eq!(in_process, untraced, "in-process, inert context");
    assert_eq!(reads_over_the_wire(false), untraced, "recorder off");

    // Traced: one read per stage boundary. The parse opens and closes
    // the first stage (2 reads); an allocator probe ends at one more,
    // and the grant instant, the scheduler's "now" and a queued job's
    // queue span reuse boundaries already read.
    let traced = vec![
        ("ping", 2),
        ("alloc granted", 3),
        ("alloc queued", 2),
        ("alloc rejected", 2),
        ("poll queued", 2),
        ("poll running", 2),
        ("release draining", 3),
        ("release", 2),
    ];
    assert_eq!(reads_over_the_wire(true), traced, "recorder on");
}

/// Drives a traced EASY machine through a fixed op sequence at fixed
/// virtual times and returns its `trace` dump.
fn traced_virtual_run() -> Vec<Value> {
    let service = AllocationService::new();
    service
        .register("m0", "4x4", None, None, Some("easy"))
        .unwrap();
    service.recorder().set_enabled(true);
    let steps = [
        (1.0, alloc(1, 12, false)),
        (2.0, alloc(2, 8, true)),
        (2.5, poll(2)),
        (5.0, release(1)),
        (6.0, release(2)),
        (6.0, Request::Ping),
    ];
    for (t, request) in &steps {
        service.set_time("m0", *t).unwrap();
        serve_traced(&service, request);
    }
    let dump = Request::Trace {
        limit: None,
        clear: false,
    };
    let Response::Trace { events, .. } = service.handle(&dump) else {
        panic!("trace dump expected");
    };
    events
}

#[test]
fn spans_are_deterministic_under_virtual_time() {
    let (a, b) = (traced_virtual_run(), traced_virtual_run());
    assert!(!a.is_empty());
    assert_eq!(a, b, "two runs at the same virtual times trace identically");
    let find = |stage: &str, job: u64| {
        a.iter()
            .find(|e| {
                at(e, &["stage"]).as_str() == Some(stage)
                    && e.get("job").and_then(Value::as_u64) == Some(job)
            })
            .unwrap_or_else(|| panic!("{stage} span of job {job}"))
    };
    // A grant's stamp is its virtual time × 10⁶.
    assert_eq!(
        at(find("grant", 1), &["ts_micros"]).as_u64(),
        Some(1_000_000)
    );
    let grant_2 = find("grant", 2);
    assert_eq!(at(grant_2, &["ts_micros"]).as_u64(), Some(5_000_000));
    assert_eq!(at(grant_2, &["from_queue"]).as_bool(), Some(true));
    // The queue span runs from the enqueue to the grant.
    let queue = find("queue", 2);
    assert_eq!(at(queue, &["ts_micros"]).as_u64(), Some(2_000_000));
    assert_eq!(at(queue, &["dur_micros"]).as_u64(), Some(3_000_000));
    assert_eq!(at(queue, &["request"]), at(find("deny", 2), &["request"]));
}

#[test]
fn windowed_stage_histograms_file_spans_under_their_end_second() {
    // Two queue waits ending at second 125: one that started there, and
    // one that started a minute earlier — in the ring slot second 125
    // also maps to. Both belong to the trailing 10 s window.
    let recorder = FlightRecorder::with_capacity(1, 64);
    recorder.set_enabled(true);
    let ctx = recorder.begin();
    ctx.span(Stage::Queue, 1, 0, 125_000_000, 125_000_001);
    ctx.span(Stage::Queue, 2, 0, 65_000_000, 125_000_000);
    let queue = Stage::Queue as usize;
    assert_eq!(recorder.stage_windows(125, 10)[queue].count(), 2);
    assert_eq!(recorder.stage_histograms()[queue].count(), 2);

    // End to end: a 30 s queue wait shows in `metrics window=10s` the
    // second it ends.
    let service = virtual_service();
    service.recorder().set_enabled(true);
    serve_traced(&service, &alloc(1, 16, false));
    serve_traced(&service, &alloc(2, 4, true));
    service.set_time("m0", 30.0).unwrap();
    serve_traced(&service, &release(1));
    let metrics = service.metrics_value(Some("10s"));
    let count = at(&metrics, &["stages", "queue", "count"]).as_u64();
    assert_eq!(count, Some(1));
}
