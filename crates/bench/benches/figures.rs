//! One Criterion benchmark per paper table/figure: each measures a scaled-down
//! version of the corresponding experiment so regressions in the experiment
//! pipeline (allocators, patterns, engine, contention model) are caught by
//! `cargo bench`. The full-size figure data is produced by the binaries in
//! `src/bin/`; these benches use small traces so a full
//! `cargo bench` run stays in the minutes range.

use commalloc::experiment::LoadSweep;
use commalloc::prelude::*;
use commalloc_bench::{dispersion_allocations, probe_jobs, standard_trace};
use commalloc_net::flit::{FlitMessage, FlitNetwork};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Figure 1: flit-level test-suite drain on one 30-processor allocation.
fn bench_fig01(c: &mut Criterion) {
    let mesh = Mesh2D::paragon_16x22();
    let (nodes, _) = dispersion_allocations(mesh, 30, 5, 1).pop().unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let messages: Vec<FlitMessage> = CommPattern::TestSuite
        .iteration_messages(nodes.len(), &mut rng)
        .into_iter()
        .enumerate()
        .map(|(i, (s, d))| FlitMessage {
            id: i as u64,
            src: nodes[s],
            dst: nodes[d],
            inject_at: 0,
            flits: 16,
        })
        .collect();
    let net = FlitNetwork::new(mesh);
    c.bench_function("fig01_testsuite_flit_drain", |b| {
        b.iter(|| black_box(net.simulate(black_box(&messages))))
    });
}

/// Figure 2 / Figure 6: curve construction including truncation to 16x22.
fn bench_fig02_06(c: &mut Criterion) {
    c.bench_function("fig02_06_curve_builds", |b| {
        b.iter(|| {
            for kind in [CurveKind::SCurve, CurveKind::Hilbert, CurveKind::HIndexing] {
                black_box(CurveOrder::build(kind, Mesh2D::new(8, 8)));
                black_box(CurveOrder::build(kind, Mesh2D::paragon_16x22()));
            }
        })
    });
}

/// Figure 7: one load-sweep cell (all-to-all, Hilbert w/BF) on the 16x22 mesh.
fn bench_fig07(c: &mut Criterion) {
    let trace = standard_trace(120, 3);
    let config = SimConfig::new(
        Mesh2D::paragon_16x22(),
        CommPattern::AllToAll,
        AllocatorKind::HilbertBestFit,
    );
    c.bench_function("fig07_single_cell_16x22", |b| {
        b.iter(|| black_box(simulate(black_box(&trace), &config)))
    });
}

/// Figure 8: a miniature three-allocator sweep on the 16x16 mesh.
fn bench_fig08(c: &mut Criterion) {
    let trace = standard_trace(80, 4);
    let sweep = LoadSweep {
        mesh: Mesh2D::square_16x16(),
        patterns: vec![CommPattern::NBody],
        allocators: vec![
            AllocatorKind::HilbertBestFit,
            AllocatorKind::Mc,
            AllocatorKind::SCurveFreeList,
        ],
        load_factors: vec![1.0, 0.4],
        ..LoadSweep::paper_figure(Mesh2D::square_16x16())
    };
    c.bench_function("fig08_mini_sweep_16x16", |b| {
        b.iter(|| black_box(sweep.run(black_box(&trace))))
    });
}

/// Figures 9/10: probe-job n-body simulation and the correlation bookkeeping.
fn bench_fig09_10(c: &mut Criterion) {
    let base = standard_trace(80, 5).filter_fitting(256);
    let trace = probe_jobs(&base, 6, 128, (39_900, 44_000), 5);
    let config = SimConfig::new(
        Mesh2D::square_16x16(),
        CommPattern::NBody,
        AllocatorKind::Mc1x1,
    );
    c.bench_function("fig09_10_probe_simulation", |b| {
        b.iter(|| black_box(simulate(black_box(&trace), &config)))
    });
}

/// Figure 11: contiguity statistics across the twelve-allocator set.
fn bench_fig11(c: &mut Criterion) {
    let trace = standard_trace(80, 6);
    let sweep = LoadSweep {
        mesh: Mesh2D::square_16x16(),
        patterns: vec![CommPattern::AllToAll],
        allocators: AllocatorKind::figure11_set().to_vec(),
        load_factors: vec![1.0],
        ..LoadSweep::paper_figure(Mesh2D::square_16x16())
    };
    c.bench_function("fig11_contiguity_sweep", |b| {
        b.iter(|| black_box(sweep.run(black_box(&trace))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fig01, bench_fig02_06, bench_fig07, bench_fig08, bench_fig09_10, bench_fig11
}
criterion_main!(benches);
