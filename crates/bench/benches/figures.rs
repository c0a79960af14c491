//! One Criterion benchmark per paper table/figure: each measures a scaled-down
//! version of the corresponding experiment so regressions in the experiment
//! pipeline (allocators, patterns, engine, contention model) are caught by
//! `cargo bench`. The full-size figure data is produced by the binaries in
//! `src/bin/`; these benches use small traces so a full
//! `cargo bench` run stays in the minutes range.

use commalloc::prelude::*;
use commalloc_bench::{
    contiguity_sweep, dispersion_allocations, probe_study, response_sweep, standard_trace, Cli,
};
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

/// A small run of the figure binaries' flags: an 80-job trace.
fn small() -> Cli {
    Cli {
        jobs: 80,
        ..Cli::default()
    }
}

/// Figure 8: the n-body response sweep on the 16x16 mesh at two loads.
fn bench_fig08(c: &mut Criterion) {
    let cli = Cli {
        pattern: Some(CommPattern::NBody),
        ..small()
    };
    c.bench_function("fig08_sweep_16x16", |b| {
        b.iter(|| black_box(response_sweep(&cli, Mesh2D::square_16x16(), &[1.0, 0.4])))
    });
}

/// Figures 9/10: the probe study under the nine paper allocators.
fn bench_fig09_10(c: &mut Criterion) {
    let cli = small();
    c.bench_function("fig09_10_probe_study", |b| {
        b.iter(|| black_box(probe_study(&cli)))
    });
}

/// Figure 11: contiguity statistics across the twelve-allocator set.
fn bench_fig11(c: &mut Criterion) {
    let cli = small();
    c.bench_function("fig11_contiguity_sweep", |b| {
        b.iter(|| black_box(contiguity_sweep(&cli)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fig01, bench_fig02_06, bench_fig07, bench_fig08, bench_fig09_10, bench_fig11
}
criterion_main!(benches);
