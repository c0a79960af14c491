//! Shared proptest strategies generating every `Request` / `Response`
//! wire shape — including adversarial strings (quotes, backslashes,
//! unicode, embedded control characters) — used by both the NDJSON
//! round-trip suite and the binary-framing equivalence suite.

// Only the journal suites generate journal records.
#[allow(dead_code)]
pub mod journal;

use commalloc_mesh::NodeId;
use commalloc_service::{JobRef, Request, Response};
use commalloc_workload::CommPattern;
use proptest::prelude::*;

/// Machine names and reason strings with escaping hazards baked in.
pub fn name_strategy() -> BoxedStrategy<String> {
    (
        prop::sample::select(vec![
            "m0",
            "paragon-16x22",
            "with \"quotes\"",
            "back\\slash",
            "tabs\tand\nnewlines",
            "unicode-mésh-网格",
            "",
        ]),
        0u64..1000,
    )
        .prop_map(|(base, n)| format!("{base}#{n}"))
        .boxed()
}

/// Finite positive walltimes with awkward fractional parts.
pub fn walltime_strategy() -> BoxedStrategy<Option<f64>> {
    prop_oneof![
        Just(None),
        (1u64..1_000_000, 1u64..1000).prop_map(|(a, b)| Some(a as f64 + b as f64 / 997.0)),
    ]
    .boxed()
}

/// `None` (unpatterned) plus every declared communication pattern.
pub fn pattern_strategy() -> BoxedStrategy<Option<CommPattern>> {
    let mut choices: Vec<Option<CommPattern>> = vec![None];
    choices.extend(CommPattern::all().iter().copied().map(Some));
    prop::sample::select(choices).boxed()
}

pub fn nodes_strategy() -> BoxedStrategy<Vec<NodeId>> {
    prop::collection::vec((0u32..4096).prop_map(NodeId), 0..12).boxed()
}

pub fn granted_strategy() -> BoxedStrategy<Vec<(u64, Vec<NodeId>)>> {
    prop::collection::vec((any::<u64>(), nodes_strategy()), 0..4).boxed()
}

pub fn opt_name() -> BoxedStrategy<Option<String>> {
    prop_oneof![Just(None), name_strategy().prop_map(Some)].boxed()
}

/// Optional tenant tags: absent (the untenanted wire form, which must
/// keep its pre-tenant bytes) plus escaping-hazard names.
pub fn tenant_strategy() -> BoxedStrategy<Option<String>> {
    prop_oneof![
        Just(None),
        prop::sample::select(vec!["default", "acme", "tenant \"q\"", "团队-β"])
            .prop_map(|t| Some(t.to_string())),
    ]
    .boxed()
}

/// Every [`JobRef`] form: bare integer ids (the pre-refactor wire
/// shape), `machine/id` and `pool/machine/id` strings. Segment names
/// reuse the adversarial name pool (slash-free by construction).
pub fn job_ref_strategy() -> BoxedStrategy<JobRef> {
    prop_oneof![
        any::<u64>().prop_map(JobRef::Bare),
        (name_strategy(), any::<u64>()).prop_map(|(machine, id)| JobRef::Member { machine, id }),
        (name_strategy(), name_strategy(), any::<u64>())
            .prop_map(|(pool, machine, id)| JobRef::Pooled { pool, machine, id }),
    ]
    .boxed()
}

/// Qualified [`JobRef`] forms only (`machine/id`, `pool/machine/id`):
/// the shapes that carry their own address and so are legal without a
/// `machine` field.
pub fn qualified_job_ref_strategy() -> BoxedStrategy<JobRef> {
    prop_oneof![
        (name_strategy(), any::<u64>()).prop_map(|(machine, id)| JobRef::Member { machine, id }),
        (name_strategy(), name_strategy(), any::<u64>())
            .prop_map(|(pool, machine, id)| JobRef::Pooled { pool, machine, id }),
    ]
    .boxed()
}

/// `(machine, job)` pairs for `release`/`poll`: a member name or
/// `@pool` address with any ref form, or no machine with a qualified
/// ref (a bare ref without a machine is a wire error).
pub fn job_op_target_strategy() -> BoxedStrategy<(Option<String>, JobRef)> {
    prop_oneof![
        (
            prop_oneof![
                name_strategy(),
                name_strategy().prop_map(|p| format!("@{p}")),
            ],
            job_ref_strategy(),
        )
            .prop_map(|(machine, job)| (Some(machine), job)),
        qualified_job_ref_strategy().prop_map(|job| (None, job)),
    ]
    .boxed()
}

/// Finite positive fair-share weights with awkward fractional parts
/// (integral floats would render as JSON integers and so cannot be
/// used in byte-identity fixtures).
pub fn weight_strategy() -> BoxedStrategy<f64> {
    (1u64..100, 1u64..1000)
        .prop_map(|(a, b)| a as f64 + b as f64 / 997.0)
        .boxed()
}

/// Optional node-second quotas, fractional for the same reason.
pub fn quota_strategy() -> BoxedStrategy<Option<f64>> {
    prop_oneof![
        Just(None),
        (1u64..1_000_000, 1u64..1000).prop_map(|(a, b)| Some(a as f64 + b as f64 / 997.0)),
    ]
    .boxed()
}

/// Opaque wire records (span events, routing decisions, calibration
/// payloads): small objects of the normal-form scalar shapes the
/// parser reproduces exactly (`Str`, `Int`-ranged integers, `Bool`).
pub fn record_strategy() -> BoxedStrategy<serde::Value> {
    (name_strategy(), 0i64..1_000_000, any::<bool>())
        .prop_map(|(pool, ts, flag)| {
            let mut m = serde::Map::new();
            m.insert("pool".into(), serde::Value::Str(pool));
            m.insert("ts_micros".into(), serde::Value::Int(ts));
            m.insert("comm_fallback".into(), serde::Value::Bool(flag));
            serde::Value::Object(m)
        })
        .boxed()
}

/// Every non-batch request shape (batches are generated on top of this,
/// since they do not nest).
pub fn simple_request_strategy() -> BoxedStrategy<Request> {
    prop_oneof![
        (
            name_strategy(),
            name_strategy(),
            opt_name(),
            opt_name(),
            opt_name(),
            opt_name()
        )
            .prop_map(|(machine, mesh, allocator, strategy, scheduler, pool)| {
                Request::Register {
                    machine,
                    mesh,
                    allocator,
                    strategy,
                    scheduler,
                    pool,
                }
            }),
        (
            name_strategy(),
            any::<u64>(),
            1usize..2048,
            any::<bool>(),
            walltime_strategy(),
            pattern_strategy()
        )
            .prop_flat_map(|(machine, job, size, wait, walltime, pattern)| {
                tenant_strategy().prop_map(move |tenant| Request::Alloc {
                    machine: machine.clone(),
                    job,
                    size,
                    wait,
                    walltime,
                    pattern,
                    tenant,
                })
            }),
        (
            name_strategy().prop_map(|p| format!("@{p}")),
            any::<u64>(),
            1usize..2048,
            any::<bool>(),
            walltime_strategy(),
            pattern_strategy()
        )
            .prop_flat_map(|(machine, job, size, wait, walltime, pattern)| {
                tenant_strategy().prop_map(move |tenant| Request::Alloc {
                    machine: machine.clone(),
                    job,
                    size,
                    wait,
                    walltime,
                    pattern,
                    tenant,
                })
            }),
        (name_strategy(), name_strategy())
            .prop_map(|(machine, scheduler)| Request::SetScheduler { machine, scheduler }),
        (name_strategy(), name_strategy())
            .prop_map(|(pool, policy)| Request::SetRouter { pool, policy }),
        job_op_target_strategy().prop_map(|(machine, job)| Request::Release { machine, job }),
        job_op_target_strategy().prop_map(|(machine, job)| Request::Poll { machine, job }),
        name_strategy().prop_map(|tenant| Request::Hello { tenant }),
        (
            name_strategy(),
            prop_oneof![Just(None), weight_strategy().prop_map(Some)],
            quota_strategy(),
            prop_oneof![Just(None), (1u64..4096).prop_map(Some)],
        )
            .prop_map(
                |(tenant, weight, quota, max_in_flight)| Request::SetTenant {
                    tenant,
                    weight,
                    quota,
                    max_in_flight,
                }
            ),
        Just(Request::Tenants),
        (name_strategy(), any::<bool>())
            .prop_map(|(machine, enabled)| Request::SetFairShare { machine, enabled }),
        name_strategy().prop_map(|machine| Request::Query { machine }),
        name_strategy().prop_map(|machine| Request::Stats { machine }),
        (
            any::<bool>(),
            prop_oneof![Just(None), any::<bool>().prop_map(Some)]
        )
            .prop_map(|(enabled, calibration)| Request::SetTrace {
                enabled,
                calibration,
            }),
        (
            prop_oneof![Just(None), (1usize..10_000).prop_map(Some)],
            any::<bool>()
        )
            .prop_map(|(limit, clear)| Request::Trace { limit, clear }),
        (
            prop::sample::select(vec!["json", "prometheus"]),
            prop::sample::select(vec![None, Some("10s"), Some("60s")])
        )
            .prop_map(|(format, window)| Request::Metrics {
                format: format.to_string(),
                window: window.map(str::to_string),
            }),
        Just(Request::Calibration),
        Just(Request::List),
        Just(Request::Ping),
    ]
    .boxed()
}

pub fn request_strategy() -> BoxedStrategy<Request> {
    prop_oneof![
        simple_request_strategy(),
        prop::collection::vec(simple_request_strategy(), 0..5).prop_map(Request::Batch),
    ]
    .boxed()
}

pub fn simple_response_strategy() -> BoxedStrategy<Response> {
    prop_oneof![
        // Plain errors plus the typed forms (code + structured detail).
        (name_strategy(), 0u32..3, record_strategy()).prop_map(|(message, shape, detail)| {
            Response::Error {
                message,
                code: match shape {
                    0 => None,
                    1 => Some("quota_exceeded".to_string()),
                    _ => Some("ambiguous_job".to_string()),
                },
                detail: (shape == 1).then_some(detail),
            }
        }),
        name_strategy().prop_map(|machine| Response::Registered { machine }),
        (any::<u64>(), nodes_strategy(), opt_name()).prop_map(|(job, nodes, machine)| {
            Response::Granted {
                job,
                nodes,
                machine,
            }
        }),
        (any::<u64>(), 1usize..64, opt_name()).prop_map(|(job, position, machine)| {
            Response::Queued {
                job,
                position,
                machine,
            }
        }),
        (any::<u64>(), name_strategy(), opt_name()).prop_map(|(job, reason, machine)| {
            Response::Rejected {
                job,
                reason,
                machine,
            }
        }),
        (any::<u64>(), granted_strategy(), opt_name()).prop_map(|(job, granted, machine)| {
            Response::Released {
                job,
                granted,
                machine,
            }
        }),
        (name_strategy(), name_strategy(), granted_strategy()).prop_map(
            |(machine, scheduler, granted)| Response::SchedulerSet {
                machine,
                scheduler,
                granted,
            }
        ),
        (name_strategy(), name_strategy())
            .prop_map(|(pool, policy)| Response::RouterSet { pool, policy }),
        (any::<u64>(), nodes_strategy(), opt_name()).prop_map(|(job, nodes, machine)| {
            Response::Running {
                job,
                nodes,
                machine,
            }
        }),
        (
            any::<u64>(),
            1usize..64,
            0u32..3,
            walltime_strategy(),
            opt_name()
        )
            .prop_map(|(job, position, shape, reserved_start, machine)| {
                Response::Waiting {
                    job,
                    position,
                    // Finite-positive like a real promised start; `shape`
                    // also covers the no-reservation / no-explain corners.
                    reserved_start: if shape == 0 { None } else { reserved_start },
                    explain: (shape == 2).then(|| {
                        let mut m = serde::Map::new();
                        m.insert(
                            "reason".into(),
                            serde::Value::Str("head_of_line".to_string()),
                        );
                        m.insert("blocking_job".into(), serde::Value::Int(7));
                        serde::Value::Object(m)
                    }),
                    machine,
                }
            }),
        any::<u64>().prop_map(|job| Response::Unknown { job }),
        prop::collection::vec(name_strategy(), 0..5).prop_map(Response::Machines),
        any::<bool>().prop_map(|enabled| Response::TraceSet { enabled }),
        (
            prop::collection::vec(record_strategy(), 0..4),
            any::<u64>(),
            any::<bool>(),
            prop::collection::vec(record_strategy(), 0..4)
        )
            .prop_map(|(events, dropped, enabled, decisions)| Response::Trace {
                events,
                dropped,
                enabled,
                decisions,
            }),
        record_strategy().prop_map(Response::Calibration),
        name_strategy().prop_map(|tenant| Response::Hello { tenant }),
        (
            name_strategy(),
            weight_strategy(),
            quota_strategy(),
            prop_oneof![Just(None), (1u64..4096).prop_map(Some)],
        )
            .prop_map(
                |(tenant, weight, quota, max_in_flight)| Response::TenantSet {
                    tenant,
                    weight,
                    quota,
                    max_in_flight,
                }
            ),
        prop::collection::vec(record_strategy(), 0..4)
            .prop_map(|rows| Response::Tenants(serde::Value::Array(rows))),
        (name_strategy(), any::<bool>(), granted_strategy()).prop_map(
            |(machine, enabled, granted)| Response::FairShareSet {
                machine,
                enabled,
                granted,
            }
        ),
        prop_oneof![
            record_strategy().prop_map(|metrics| Response::Metrics {
                format: "json".to_string(),
                metrics,
            }),
            name_strategy().prop_map(|text| Response::Metrics {
                format: "prometheus".to_string(),
                metrics: serde::Value::Str(text),
            }),
        ],
        Just(Response::Pong),
    ]
    .boxed()
}

pub fn response_strategy() -> BoxedStrategy<Response> {
    prop_oneof![
        simple_response_strategy(),
        prop::collection::vec(simple_response_strategy(), 0..5).prop_map(Response::Batch),
    ]
    .boxed()
}
