//! Strategies generating every [`JournalRecord`] variant, built out of
//! the four durable facts as the journal builds them, with the escaping
//! hazards of the shared name pool: the journal round-trip suite and the
//! journal half of the codec equivalence suite share them.

use super::{
    name_strategy, nodes_strategy, opt_name, pattern_strategy, tenant_strategy, walltime_strategy,
};
use commalloc_service::journal::{
    MachineImage, MachineSpec, PoolImage, QueuedRequest, RunningJob, SnapshotImage, TenantImage,
    TenantSpec,
};
use commalloc_service::{JournalRecord, TenantConfig};
use proptest::prelude::*;

/// Non-negative clock stamps that are exact in `f64`.
pub fn stamp_strategy() -> BoxedStrategy<f64> {
    (0u64..1_000_000, 0u64..1000)
        .prop_map(|(a, b)| a as f64 + b as f64 / 512.0)
        .boxed()
}

// The four durable facts. Every record and image below is built out of
// these, as the journal builds them.

pub fn running_strategy() -> BoxedStrategy<RunningJob> {
    (
        any::<u64>(),
        nodes_strategy(),
        walltime_strategy(),
        stamp_strategy(),
        pattern_strategy(),
        tenant_strategy(),
    )
        .prop_map(
            |(job, nodes, walltime, start, pattern, tenant)| RunningJob {
                job,
                nodes,
                walltime,
                start,
                pattern,
                tenant,
            },
        )
        .boxed()
}

pub fn queued_strategy() -> BoxedStrategy<QueuedRequest> {
    (
        any::<u64>(),
        1usize..2048,
        walltime_strategy(),
        stamp_strategy(),
        pattern_strategy(),
        tenant_strategy(),
    )
        .prop_map(
            |(job, size, walltime, enqueued_at, pattern, tenant)| QueuedRequest {
                job,
                size,
                walltime,
                enqueued_at,
                pattern,
                tenant,
            },
        )
        .boxed()
}

pub fn spec_strategy() -> BoxedStrategy<MachineSpec> {
    (
        name_strategy(),
        name_strategy(),
        opt_name(),
        opt_name(),
        opt_name(),
    )
        .prop_map(
            |(machine, mesh, allocator, strategy, scheduler)| MachineSpec {
                machine,
                mesh,
                allocator,
                strategy,
                scheduler,
            },
        )
        .boxed()
}

pub fn tenant_spec_strategy() -> BoxedStrategy<TenantSpec> {
    (
        prop::sample::select(vec!["default", "acme", "t \"x\""]),
        1u64..100,
        prop_oneof![Just(None), (1u64..1_000_000).prop_map(|q| Some(q as f64))],
        prop_oneof![Just(None), (1u64..4096).prop_map(Some)],
    )
        .prop_map(|(tenant, weight, quota, max_in_flight)| TenantSpec {
            tenant: tenant.to_string(),
            config: TenantConfig {
                weight: weight as f64,
                quota_node_seconds: quota,
                max_in_flight,
            },
        })
        .boxed()
}

pub fn machine_image_strategy() -> BoxedStrategy<MachineImage> {
    (
        spec_strategy(),
        any::<u64>(),
        prop_oneof![Just(None), stamp_strategy().prop_map(Some)],
        any::<bool>(),
        prop::collection::vec(running_strategy(), 0..4),
        prop::collection::vec(queued_strategy(), 0..4),
    )
        .prop_map(
            |(spec, seq, clock, fair_share, running, queue)| MachineImage {
                spec,
                seq,
                clock,
                fair_share,
                running,
                queue,
            },
        )
        .boxed()
}

pub fn tenant_image_strategy() -> BoxedStrategy<TenantImage> {
    (tenant_spec_strategy(), stamp_strategy())
        .prop_map(|(spec, consumed)| TenantImage { spec, consumed })
        .boxed()
}

pub fn snapshot_strategy() -> BoxedStrategy<SnapshotImage> {
    (
        any::<u64>(),
        any::<u64>(),
        prop::collection::vec(machine_image_strategy(), 0..3),
        prop::collection::vec(
            (
                name_strategy(),
                prop::collection::vec(name_strategy(), 0..4),
                prop::sample::select(vec![
                    "round-robin",
                    "least-loaded",
                    "shortest-queue",
                    "power-of-two",
                ]),
            )
                .prop_map(|(pool, members, policy)| PoolImage {
                    pool,
                    members,
                    policy: policy.to_string(),
                }),
            0..3,
        ),
        prop::collection::vec(tenant_image_strategy(), 0..3),
    )
        .prop_map(|(epoch, covers, machines, pools, tenants)| SnapshotImage {
            epoch,
            covers,
            machines,
            pools,
            tenants,
        })
        .boxed()
}

/// Every record variant, adversarially parameterised.
pub fn record_strategy() -> BoxedStrategy<JournalRecord> {
    prop_oneof![
        (spec_strategy(), opt_name())
            .prop_map(|(spec, pool)| JournalRecord::Register { spec, pool }),
        (name_strategy(), running_strategy())
            .prop_map(|(machine, job)| JournalRecord::Grant { machine, job }),
        (name_strategy(), queued_strategy())
            .prop_map(|(machine, request)| JournalRecord::Queue { machine, request }),
        (name_strategy(), any::<u64>(), stamp_strategy())
            .prop_map(|(machine, job, held)| JournalRecord::Release { machine, job, held }),
        (name_strategy(), any::<u64>())
            .prop_map(|(machine, job)| JournalRecord::Cancel { machine, job }),
        (name_strategy(), name_strategy()).prop_map(|(machine, scheduler)| {
            JournalRecord::SetScheduler { machine, scheduler }
        }),
        (name_strategy(), name_strategy())
            .prop_map(|(pool, policy)| JournalRecord::SetRouter { pool, policy }),
        tenant_spec_strategy().prop_map(JournalRecord::SetTenant),
        (name_strategy(), any::<bool>())
            .prop_map(|(machine, enabled)| JournalRecord::SetFairShare { machine, enabled }),
        snapshot_strategy().prop_map(JournalRecord::Snapshot),
    ]
    .boxed()
}
