//! Property tests: the incremental `FreeIntervalIndex` path of
//! `CurveAllocator` makes **byte-identical** decisions to the naive
//! rescan path, for every selection strategy, over random occupy/release
//! histories on the paper's two machines (16×16 and 16×22).

use commalloc_alloc::curve_alloc::{CurveAllocator, SelectionStrategy};
use commalloc_alloc::interval_index::FreeIntervalIndex;
use commalloc_alloc::{AllocRequest, Allocator, MachineState};
use commalloc_mesh::curve::{CurveKind, CurveOrder};
use commalloc_mesh::Mesh2D;
use proptest::prelude::*;
use rand::prelude::*;

/// Replays a random allocate/release interleaving against an indexed and a
/// rescan allocator in lockstep, asserting identical grants throughout.
fn assert_equivalent_history(
    mesh: Mesh2D,
    kind: CurveKind,
    strategy: SelectionStrategy,
    steps: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let curve = CurveOrder::build(kind, mesh);

    let mut indexed = CurveAllocator::new(kind, mesh, strategy);
    let mut rescan = CurveAllocator::with_rescan(kind, mesh, strategy);
    prop_assert!(indexed.is_indexed());
    prop_assert!(!rescan.is_indexed());

    let mut machine_a = MachineState::new(mesh);
    let mut machine_b = MachineState::new(mesh);
    let mut live: Vec<commalloc_alloc::Allocation> = Vec::new();
    let mut next_job: u64 = 0;

    for _ in 0..steps {
        let release_some = !live.is_empty() && rng.gen_bool(0.45);
        if release_some {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            machine_a.release(&victim.nodes);
            indexed.release(&victim, &machine_a);
            machine_b.release(&victim.nodes);
            rescan.release(&victim, &machine_b);
        } else {
            let size = rng.gen_range(1usize..=48);
            let req = AllocRequest::new(next_job, size);
            next_job += 1;
            let got_a = indexed.allocate(&req, &machine_a);
            let got_b = rescan.allocate(&req, &machine_b);
            prop_assert_eq!(
                &got_a,
                &got_b,
                "divergence: {} w/{:?} size {} at occupancy {:.2}",
                kind,
                strategy,
                size,
                machine_a.utilization()
            );
            if let Some(alloc) = got_a {
                machine_a.occupy(&alloc.nodes);
                machine_b.occupy(&alloc.nodes);
                live.push(alloc);
            }
        }
        // The incremental structures must stay exactly consistent with the
        // machine between steps.
        let check = FreeIntervalIndex::from_machine(&curve, &machine_a);
        prop_assert!(check.is_consistent_with(&curve, &machine_a));
        prop_assert_eq!(machine_a.num_free(), machine_b.num_free());
    }
    Ok(())
}

fn all_strategies() -> Vec<SelectionStrategy> {
    vec![
        SelectionStrategy::FreeList,
        SelectionStrategy::FirstFit,
        SelectionStrategy::BestFit,
        SelectionStrategy::SumOfSquares,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn indexed_equals_rescan_on_16x16(
        strategy in sample::select(all_strategies()),
        kind in sample::select(vec![CurveKind::Hilbert, CurveKind::SCurve, CurveKind::HIndexing]),
        seed in any::<u64>(),
    ) {
        assert_equivalent_history(Mesh2D::square_16x16(), kind, strategy, 120, seed)?;
    }

    #[test]
    fn indexed_equals_rescan_on_16x22(
        strategy in sample::select(all_strategies()),
        kind in sample::select(vec![CurveKind::Hilbert, CurveKind::RowMajor]),
        seed in any::<u64>(),
    ) {
        assert_equivalent_history(Mesh2D::paragon_16x22(), kind, strategy, 120, seed)?;
    }
}

#[test]
fn index_survives_unobserved_machine_mutations() {
    // Mutate the machine without telling the allocator: the generation
    // check must force a resync, keeping decisions identical to rescan.
    let mesh = Mesh2D::square_16x16();
    let kind = CurveKind::Hilbert;
    let strategy = SelectionStrategy::BestFit;
    let mut indexed = CurveAllocator::new(kind, mesh, strategy);
    let mut rescan = CurveAllocator::with_rescan(kind, mesh, strategy);
    let mut machine = MachineState::new(mesh);

    let first = indexed
        .allocate(&AllocRequest::new(0, 10), &machine)
        .unwrap();
    machine.occupy(&first.nodes);

    // Behind-the-back mutation: occupy a scattered set directly.
    let sneak: Vec<_> = machine.free_nodes().step_by(7).collect();
    machine.occupy(&sneak);
    // And release the first job without invoking the hook.
    machine.release(&first.nodes);

    for (job, size) in [(1u64, 5usize), (2, 17), (3, 40), (4, 9)] {
        let req = AllocRequest::new(job, size);
        let a = indexed.allocate(&req, &machine);
        let b = rescan.allocate(&req, &machine);
        assert_eq!(a, b, "post-drift divergence at size {size}");
        if let Some(alloc) = a {
            machine.occupy(&alloc.nodes);
        }
    }
}

#[test]
fn discarded_grants_do_not_corrupt_the_index() {
    // Call allocate twice without committing the first grant (as a
    // backfill feasibility probe would); the second call must match what a
    // fresh rescan decides against the unchanged machine.
    let mesh = Mesh2D::paragon_16x22();
    let mut indexed = CurveAllocator::new(CurveKind::Hilbert, mesh, SelectionStrategy::BestFit);
    let mut rescan =
        CurveAllocator::with_rescan(CurveKind::Hilbert, mesh, SelectionStrategy::BestFit);
    let mut machine = MachineState::new(mesh);
    let seed = indexed
        .allocate(&AllocRequest::new(0, 30), &machine)
        .unwrap();
    machine.occupy(&seed.nodes);

    let probe = indexed.allocate(&AllocRequest::new(1, 50), &machine);
    assert!(probe.is_some());
    // Discard the probe; machine unchanged.
    let second = indexed.allocate(&AllocRequest::new(2, 50), &machine);
    let reference = rescan.allocate(&AllocRequest::new(2, 50), &machine);
    assert_eq!(second, reference);
}

#[test]
fn competing_allocators_with_discarded_grants_stay_equivalent() {
    // The hybrid-allocator pattern that once corrupted the index: two
    // indexed allocators probe the same machine each round, only one
    // grant is committed, and the sizes often coincide — so a
    // generation count alone cannot tell whose grant was applied.
    let mesh = Mesh2D::square_16x16();
    let mut rng = StdRng::seed_from_u64(42);
    let mut indexed_a = CurveAllocator::new(CurveKind::Hilbert, mesh, SelectionStrategy::BestFit);
    let mut indexed_b = CurveAllocator::new(CurveKind::SCurve, mesh, SelectionStrategy::FirstFit);
    let mut rescan_a =
        CurveAllocator::with_rescan(CurveKind::Hilbert, mesh, SelectionStrategy::BestFit);
    let mut rescan_b =
        CurveAllocator::with_rescan(CurveKind::SCurve, mesh, SelectionStrategy::FirstFit);
    let mut machine = MachineState::new(mesh);
    let mut live: Vec<commalloc_alloc::Allocation> = Vec::new();

    for job in 0..300u64 {
        if !live.is_empty() && rng.gen_bool(0.4) {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            machine.release(&victim.nodes);
            indexed_a.release(&victim, &machine);
            indexed_b.release(&victim, &machine);
            rescan_a.release(&victim, &machine);
            rescan_b.release(&victim, &machine);
            continue;
        }
        let size = rng.gen_range(1usize..=24);
        let req = AllocRequest::new(job, size);
        // Probe all four; each indexed decision must match its rescan twin.
        let got_a = indexed_a.allocate(&req, &machine);
        let got_b = indexed_b.allocate(&req, &machine);
        assert_eq!(
            got_a,
            rescan_a.allocate(&req, &machine),
            "A diverged at job {job}"
        );
        assert_eq!(
            got_b,
            rescan_b.allocate(&req, &machine),
            "B diverged at job {job}"
        );
        // Commit only one of the two grants (alternating), discarding the
        // other — sizes are equal, so only the node-level proof can tell
        // the committed grant apart.
        let committed = if job % 2 == 0 { got_a } else { got_b };
        if let Some(alloc) = committed {
            machine.occupy(&alloc.nodes);
            live.push(alloc);
        }
    }
}

#[test]
fn reused_allocator_across_machines_with_equal_generations_resyncs() {
    // Two distinct machines whose generation counters coincide: the
    // allocator's cached index is valid for neither once machines swap,
    // and the (state_id, generation) key must force a rebuild.
    let mesh = Mesh2D::square_16x16();
    let mut indexed = CurveAllocator::new(CurveKind::Hilbert, mesh, SelectionStrategy::BestFit);
    let mut rescan =
        CurveAllocator::with_rescan(CurveKind::Hilbert, mesh, SelectionStrategy::BestFit);

    let mut machine_a = MachineState::new(mesh);
    let first = indexed
        .allocate(&AllocRequest::new(0, 12), &machine_a)
        .unwrap();
    machine_a.occupy(&first.nodes); // generation 1, first 12 curve ranks busy

    let mut machine_b = MachineState::new(mesh);
    let elsewhere: Vec<commalloc_mesh::NodeId> =
        machine_b.free_nodes().skip(100).take(12).collect();
    machine_b.occupy(&elsewhere); // also generation 1, different occupancy

    let req = AllocRequest::new(1, 12);
    let got = indexed.allocate(&req, &machine_b);
    let reference = rescan.allocate(&req, &machine_b);
    assert_eq!(
        got, reference,
        "allocator must resync when the machine changes"
    );
    // The grant must be committable: every node free on machine B.
    machine_b.occupy(&got.unwrap().nodes);
}

#[test]
fn diverged_clones_with_equal_generations_resync() {
    // A clone shares occupancy at clone time but gets a fresh identity;
    // after both diverge by one mutation their generations match again,
    // and only the identity distinguishes them.
    let mesh = Mesh2D::square_16x16();
    let mut indexed = CurveAllocator::new(CurveKind::Hilbert, mesh, SelectionStrategy::BestFit);
    let mut rescan =
        CurveAllocator::with_rescan(CurveKind::Hilbert, mesh, SelectionStrategy::BestFit);

    let mut original = MachineState::new(mesh);
    let grant = indexed
        .allocate(&AllocRequest::new(0, 20), &original)
        .unwrap();
    original.occupy(&grant.nodes);

    let mut clone = original.clone();
    let extra: Vec<commalloc_mesh::NodeId> = clone.free_nodes().take(30).collect();
    clone.occupy(&extra); // clone at generation 2
    original.release(&grant.nodes); // original also at generation 2
    indexed.release(&grant, &original);

    let req = AllocRequest::new(1, 25);
    assert_eq!(
        indexed.allocate(&req, &clone),
        rescan.allocate(&req, &clone),
        "diverged clone must not reuse the original's index"
    );
}
