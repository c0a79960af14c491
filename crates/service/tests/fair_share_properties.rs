//! Property: the weighted fair-share admission layer never starves a
//! tenant. Fair share only *re-orders* the queue before the scheduler
//! policy runs, so the conservative scheduler's no-starvation guarantee
//! (every queued job eventually starts, whatever arrives after it) must
//! hold for every weight vector — including pathologically skewed ones.

use commalloc_service::{AllocArgs, AllocOutcome, AllocationService, RequestCtx};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For arbitrary tenant weight vectors and job shapes, every job
    /// queued under fair share on a conservative-scheduler machine
    /// starts within a bounded number of release rounds: no weight
    /// assignment can starve any tenant's work.
    #[test]
    fn weighted_fair_share_preserves_conservative_no_starvation(
        // 2..6 tenants with weights spanning four orders of magnitude.
        weights in prop::collection::vec(
            (1u32..10_000).prop_map(|w| w as f64 / 10.0),
            2..6,
        ),
        jobs_per_tenant in 1usize..4,
        // Job sizes from tiny to the whole 64-node machine.
        sizes in prop::collection::vec(1usize..=64, 24),
        walltime_seed in 1u64..100,
    ) {
        let service = AllocationService::new();
        service
            .register("m0", "8x8", None, None, Some("conservative"))
            .unwrap();
        for (i, weight) in weights.iter().enumerate() {
            service
                .set_tenant(&format!("t{i}"), Some(*weight), None, None)
                .unwrap();
        }
        service.set_fair_share("m0", true, &RequestCtx::inert()).unwrap();
        service.set_time("m0", 0.0).unwrap();

        // One holder pins the whole machine so everything else queues.
        let holder = 1_000u64;
        prop_assert!(matches!(
            service
                .alloc("m0", &AllocArgs::new(holder, 64).with_walltime(50.0), &RequestCtx::inert())
                .unwrap(),
            AllocOutcome::Granted(_)
        ));

        // Interleaved arrivals across tenants, adversarial sizes.
        let ctx = RequestCtx::inert();
        let mut queued: Vec<u64> = Vec::new();
        let mut job = 0u64;
        for round in 0..jobs_per_tenant {
            for (i, _) in weights.iter().enumerate() {
                let size = sizes[(round * weights.len() + i) % sizes.len()];
                let walltime = (walltime_seed * (job + 1)) % 97 + 1;
                let tenant = format!("t{i}");
                let args = AllocArgs::new(job, size)
                    .or_wait()
                    .with_walltime(walltime as f64)
                    .for_tenant(&tenant);
                let outcome = service.alloc("m0", &args, &ctx).unwrap();
                prop_assert!(
                    matches!(outcome, AllocOutcome::Queued(_)),
                    "the machine is full, job {job} must queue (got {outcome:?})"
                );
                queued.push(job);
                job += 1;
            }
        }

        // Drain rounds: release everything running, collect the jobs
        // the re-drain admits. Each round must make progress, and every
        // queued job must start within |queue| rounds — the definition
        // of no starvation under finite work.
        let mut running: Vec<u64> = vec![holder];
        let mut started: HashSet<u64> = HashSet::new();
        let mut clock = 0.0;
        let bound = queued.len() + 1;
        for _round in 0..bound {
            if started.len() == queued.len() {
                break;
            }
            clock += 1_000.0;
            service.set_time("m0", clock).unwrap();
            let mut admitted: Vec<u64> = Vec::new();
            for victim in running.drain(..) {
                for (granted, _) in service.release("m0", victim, &RequestCtx::inert()).unwrap() {
                    prop_assert!(started.insert(granted), "job {granted} started twice");
                    admitted.push(granted);
                }
            }
            prop_assert!(
                !admitted.is_empty(),
                "an empty drain round means starvation: {} of {} started, weights {weights:?}",
                started.len(),
                queued.len()
            );
            running = admitted;
        }
        prop_assert_eq!(
            started.len(),
            queued.len(),
            "every queued job must start; weights {:?}",
            weights
        );
        service.check_invariants("m0").unwrap();
    }
}
