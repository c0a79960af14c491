//! Calibration observes placement; it never steers it.
//!
//! A patterned grant scores its candidate windows only when something
//! reads a score. With one fitting window and calibration off, the
//! window is committed unscored. While calibration records, the window
//! is scored for the placement record. Both paths must pick the same
//! processors, so:
//!
//! * random patterned alloc/release sequences over the paper's three
//!   patterns, on a 16×16 and an 8×8×4 machine, must answer op for op
//!   identically with calibration on and off;
//! * those sequences must include both lone-window grants and grants
//!   that weighed several windows;
//! * a 400-job comm-aware cluster replay must route and grant
//!   identically with calibration on and off.
//!
//! A diverging sequence is shrunk by the proptest shim and reported as
//! the short sequence that still diverges, with the word buffer that
//! replays it.

use commalloc_service::{
    replay_cluster, AllocationService, ClusterReplayLog, JobRef, ReplayJob, Request, Response,
    RoutingPolicy,
};
use commalloc_workload::CommPattern;
use proptest::prelude::*;
use rand::prelude::*;
use serde::Value;

/// The machines every sequence runs on: one 2-D, one 3-D.
const MACHINES: [(&str, &str); 2] = [("flat", "16x16"), ("cube", "8x8x4")];

/// Random sequences per run of the property.
const CASES: u32 = 48;

/// The sequences the property runs: case `n` draws from
/// `TestRng::deterministic(n)`.
fn sequences() -> impl Strategy<Value = Vec<Request>> {
    prop::collection::vec(op_strategy(), 1..120)
}

/// A patterned `alloc` (ids collide on purpose: duplicates must answer
/// alike too) or a `release`/cancel of a possibly unknown id.
fn op_strategy() -> BoxedStrategy<Request> {
    let machine = || prop::sample::select(vec!["flat", "cube"]).prop_map(str::to_string);
    let alloc = || {
        let pattern = prop::sample::select(CommPattern::paper_patterns().to_vec());
        (
            machine(),
            1u64..=32,
            1usize..=48,
            pattern,
            any::<bool>(),
            1u64..=500,
        )
            .prop_map(
                |(machine, job, size, pattern, wait, walltime)| Request::Alloc {
                    machine,
                    job,
                    size,
                    wait,
                    walltime: Some(walltime as f64),
                    pattern: Some(pattern),
                    tenant: None,
                },
            )
    };
    let release = (machine(), 1u64..=32).prop_map(|(machine, job)| Request::Release {
        machine: Some(machine),
        job: JobRef::Bare(job),
    });
    prop_oneof![alloc(), release].boxed()
}

/// Σ over the calibration cells of the candidate windows weighed by
/// every joined grant.
fn windows_joined(service: &AllocationService) -> u64 {
    let report = service.calibration().to_value();
    let cells = report.get("cells").and_then(Value::as_array);
    cells
        .into_iter()
        .flatten()
        .map(|cell| {
            let c = cell.get("calibration").expect("cell payload");
            let joined = c.get("joined").and_then(Value::as_u64).unwrap_or(0);
            let mean = c
                .get("candidates_mean")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            (mean * joined as f64).round() as u64
        })
        .sum()
}

/// Drives `ops` through a fresh service (EASY, clocks pinned at 0 so no
/// decision reads the wall clock). Returns every response and, when
/// `calibration` is on, how many released grants had weighed one window
/// and how many several (a release joins at most one record).
fn run(ops: &[Request], calibration: bool) -> (Vec<Response>, [u64; 2]) {
    let service = AllocationService::new();
    for (name, mesh) in MACHINES {
        service
            .register(name, mesh, None, None, Some("easy"))
            .unwrap();
        service.set_time(name, 0.0).unwrap();
    }
    service.calibration().set_enabled(calibration);
    let mut windows = [0; 2];
    let responses = ops
        .iter()
        .map(|op| {
            let before = windows_joined(&service);
            let response = service.handle(op);
            match windows_joined(&service) - before {
                0 => {}
                1 => windows[0] += 1,
                _ => windows[1] += 1,
            }
            response
        })
        .collect();
    (responses, windows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn calibration_moves_no_placement_op_by_op(ops in sequences()) {
        let (off, on) = (run(&ops, false).0, run(&ops, true).0);
        if let Some(at) = off.iter().zip(&on).position(|(a, b)| a != b) {
            return Err(TestCaseError::fail(format!(
                "calibration moved a placement: op {at} of {} answered\n  off: {:?}\n  on:  {:?}",
                ops.len(),
                off[at],
                on[at]
            )));
        }
    }
}

/// The property above is only as strong as its cases: they must commit
/// both lone-window grants and grants that weighed several windows.
#[test]
fn the_cases_weigh_lone_windows_and_several() {
    let mut windows = [0; 2];
    for case in 0..CASES.into() {
        let ops = sequences().generate(&mut TestRng::deterministic(case));
        let (_, seen) = run(&ops, true);
        windows[0] += seen[0];
        windows[1] += seen[1];
        if windows.iter().all(|&n| n > 0) {
            return;
        }
    }
    let [lone, several] = windows;
    panic!("coverage: {lone} lone-window and {several} several-window grants joined");
}

#[test]
fn comm_aware_replay_is_identical_with_calibration_on_and_off() {
    let mut rng = StdRng::seed_from_u64(25);
    let patterns = CommPattern::paper_patterns();
    let mut arrival = 0.0;
    let jobs: Vec<ReplayJob> = (0..400u64)
        .map(|id| {
            arrival += rng.gen_range(1u64..=20) as f64;
            ReplayJob {
                id,
                size: rng.gen_range(1usize..=96),
                arrival,
                duration: rng.gen_range(30u64..=300) as f64,
                pattern: None,
            }
            .with_pattern(patterns[id as usize % patterns.len()])
        })
        .collect();
    let replay = |calibration: bool| -> (ClusterReplayLog, u64) {
        let service = AllocationService::new();
        for (name, mesh) in [
            ("m0", "16x16"),
            ("m1", "16x8"),
            ("m2", "8x8"),
            ("m3", "8x4"),
        ] {
            service
                .register_in_pool(name, mesh, None, None, Some("easy"), Some("grid"))
                .unwrap();
        }
        service
            .set_router("grid", RoutingPolicy::CommAware.name())
            .unwrap();
        service.calibration().set_enabled(calibration);
        let log = replay_cluster(&service, "grid", &jobs, None);
        (log, service.calibration().joined_total())
    };
    let (off, _) = replay(false);
    let (on, joined) = replay(true);
    assert!(joined > 0, "the recording replay filed no placement");
    if let Some(divergence) = first_divergence(&off, &on) {
        panic!("calibration changed a placement: {divergence}");
    }
    assert!(
        off == on,
        "calibration changed the rejections ({:?} off, {:?} on) or the end time ({} off, {} on)",
        off.rejected,
        on.rejected,
        off.end_time,
        on.end_time
    );
}

/// Where two replays of one trace part: the first job routed to a
/// different member, or else each machine's first differing grant — a
/// line per divergence instead of two whole logs.
fn first_divergence(off: &ClusterReplayLog, on: &ClusterReplayLog) -> Option<String> {
    let routes = off.routes.iter().zip(&on.routes);
    if let Some(((job, a), (_, b))) = routes.into_iter().find(|(a, b)| a != b) {
        return Some(format!(
            "job {job} routed to {a:?} with calibration off, {b:?} on"
        ));
    }
    let mut machines: Vec<&String> = off.grants.keys().chain(on.grants.keys()).collect();
    machines.sort();
    machines.dedup();
    let grants: Vec<String> = machines
        .into_iter()
        .filter_map(|machine| {
            let log = |l: &ClusterReplayLog| l.grants.get(machine).cloned().unwrap_or_default();
            let (a, b) = (log(off), log(on));
            let at = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))?;
            Some(format!(
                "{machine} grant {at}: {:?} with calibration off, {:?} on",
                a.get(at),
                b.get(at)
            ))
        })
        .collect();
    (!grants.is_empty()).then(|| grants.join("; "))
}
