//! Cross-crate integration tests: the full pipeline from trace generation
//! through allocation, contention modelling and statistics, exercised the way
//! the figure binaries use it.

use commalloc::experiment::LoadSweep;
use commalloc::prelude::*;
use commalloc::report;
use commalloc_suite::{demo_trace, run_demo};

/// Every paper allocator finishes a small trace on both paper meshes, every
/// job is accounted for exactly once, and timing invariants hold.
#[test]
fn full_pipeline_accounts_for_every_job() {
    let trace = demo_trace(60, 11).with_load_factor(0.6);
    for mesh in [Mesh2D::square_16x16(), Mesh2D::paragon_16x22()] {
        let fitting = trace.filter_fitting(mesh.num_nodes());
        for allocator in AllocatorKind::paper_set() {
            let result = run_demo(&fitting, mesh, CommPattern::AllToAll, allocator);
            assert_eq!(result.records.len(), fitting.len(), "{allocator}");
            for r in &result.records {
                assert!(r.start >= r.arrival, "{allocator}: started before arrival");
                assert!(r.completion > r.start, "{allocator}: zero running time");
                assert!(r.size >= 1 && r.size <= mesh.num_nodes());
                assert!(r.components >= 1);
                assert!(r.avg_message_distance >= 0.0);
            }
        }
    }
}

/// The simulation never double-books a processor: at every allocation event
/// the number of busy processors stays within the machine size. This is
/// enforced by `MachineState::occupy` panicking, so simply completing a
/// moderately loaded simulation is the assertion.
#[test]
fn heavily_loaded_simulation_never_oversubscribes() {
    let trace = demo_trace(120, 3).with_load_factor(0.2);
    let result = run_demo(
        &trace,
        Mesh2D::square_16x16(),
        CommPattern::Random,
        AllocatorKind::Mc,
    );
    assert_eq!(result.records.len(), trace.filter_fitting(256).len());
}

/// FCFS start order: jobs start in arrival order (a later-arriving job can
/// start at the same instant but never strictly earlier).
#[test]
fn fcfs_starts_jobs_in_arrival_order() {
    let trace = demo_trace(80, 21).with_load_factor(0.4);
    let result = run_demo(
        &trace,
        Mesh2D::square_16x16(),
        CommPattern::AllToAll,
        AllocatorKind::HilbertBestFit,
    );
    let mut by_arrival = result.records.clone();
    by_arrival.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
    for w in by_arrival.windows(2) {
        assert!(
            w[0].start <= w[1].start + 1e-9,
            "job {} (arrived {:.0}) started after job {} (arrived {:.0})",
            w[0].job_id,
            w[0].arrival,
            w[1].job_id,
            w[1].arrival
        );
    }
}

/// The whole-sweep API produces a complete grid and the report renderers
/// accept it.
#[test]
fn sweep_and_reports_cover_the_grid() {
    let trace = demo_trace(40, 5);
    let mesh = Mesh2D::square_16x16();
    let sweep = LoadSweep {
        mesh,
        patterns: vec![CommPattern::AllToAll, CommPattern::NBody],
        allocators: vec![
            AllocatorKind::HilbertBestFit,
            AllocatorKind::Mc,
            AllocatorKind::SCurveFreeList,
        ],
        load_factors: vec![1.0, 0.4],
        ..LoadSweep::paper_figure(mesh, 0x1eaf)
    };
    let result = sweep.run(&trace);
    assert_eq!(result.points.len(), sweep.num_runs());
    for pattern in [CommPattern::AllToAll, CommPattern::NBody] {
        let table = report::response_time_table(&result, pattern);
        assert!(table.contains("Hilbert w/BF"));
        assert!(table.contains("load 0.4"));
        let contiguity = report::contiguity_table(&result, pattern, 1.0);
        assert_eq!(
            contiguity.lines().count(),
            1 + 3,
            "header plus one row per allocator"
        );
    }
}

/// Zero-contention control: with an infinitely fast network all allocators
/// produce identical response times (allocation cannot matter), which pins
/// down that the differences seen under the fluid model come from the
/// contention model and not from bookkeeping differences between allocators.
#[test]
fn allocators_are_equivalent_without_contention() {
    let trace = demo_trace(50, 17).with_load_factor(0.5);
    let mesh = Mesh2D::square_16x16();
    let mut responses = Vec::new();
    for allocator in [
        AllocatorKind::HilbertBestFit,
        AllocatorKind::SCurveFreeList,
        AllocatorKind::Mc1x1,
        AllocatorKind::GenAlg,
    ] {
        let config = SimConfig::new(mesh, CommPattern::AllToAll, allocator)
            .with_fidelity(Fidelity::ZeroContention);
        let result = simulate(&trace, &config);
        responses.push(result.summary.mean_response_time);
    }
    for r in &responses {
        assert!(
            (r - responses[0]).abs() < 1e-6,
            "zero-contention response times must not depend on the allocator: {responses:?}"
        );
    }
}

/// Under contention, allocation quality matters: on the square mesh with
/// all-to-all traffic, the best curve-with-packing allocator beats the
/// dispersion-oblivious random baseline.
#[test]
fn contention_rewards_locality_aware_allocation() {
    let trace = demo_trace(150, 29).with_load_factor(0.4);
    let mesh = Mesh2D::square_16x16();
    let hilbert = simulate(
        &trace,
        &SimConfig::new(mesh, CommPattern::AllToAll, AllocatorKind::HilbertBestFit),
    );
    let random = simulate(
        &trace,
        &SimConfig::new(mesh, CommPattern::AllToAll, AllocatorKind::Random),
    );
    assert!(
        hilbert.summary.mean_running_time < random.summary.mean_running_time,
        "Hilbert w/BF running time {} should beat random allocation {}",
        hilbert.summary.mean_running_time,
        random.summary.mean_running_time
    );
    assert!(
        hilbert.summary.percent_contiguous > random.summary.percent_contiguous,
        "curve allocation should be contiguous more often than random"
    );
}

/// The paper's Figure 11 observation: curve-based strategies with packing
/// heuristics allocate into fewer components than MC1x1 and Gen-Alg.
#[test]
fn curve_allocators_are_more_contiguous_than_dispersion_minimizers() {
    let trace = demo_trace(150, 31);
    let mesh = Mesh2D::square_16x16();
    let sweep = LoadSweep {
        mesh,
        patterns: vec![CommPattern::AllToAll],
        allocators: vec![
            AllocatorKind::HilbertBestFit,
            AllocatorKind::SCurveBestFit,
            AllocatorKind::Mc1x1,
            AllocatorKind::GenAlg,
        ],
        load_factors: vec![1.0],
        ..LoadSweep::paper_figure(mesh, 0x1eaf)
    };
    let result = sweep.run(&trace);
    let components = |a: AllocatorKind| {
        result
            .points
            .iter()
            .find(|p| p.allocator == a)
            .map(|p| p.avg_components)
            .expect("point present")
    };
    let curve_best =
        components(AllocatorKind::HilbertBestFit).min(components(AllocatorKind::SCurveBestFit));
    let disperser_best = components(AllocatorKind::Mc1x1).min(components(AllocatorKind::GenAlg));
    assert!(
        curve_best < disperser_best,
        "curve+packing ({curve_best:.2} components) should beat MC1x1/Gen-Alg ({disperser_best:.2})"
    );
}
