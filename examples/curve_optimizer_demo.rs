//! Searching for a locality-preserving ordering instead of constructing one.
//!
//! ```text
//! cargo run --release --example curve_optimizer_demo
//! ```
//!
//! For machines that are not regular meshes, Leung et al. used an integer
//! program to find orderings with good locality (Section 2.1 of the paper).
//! This reproduction substitutes a randomised local-search optimiser (README
//! § "Substitutions this reproduction makes"). The example demonstrates it
//! twice:
//!
//! 1. on the full 8 × 8 mesh, starting from row-major order, and comparing
//!    the optimised ordering's locality against the hand-constructed curves;
//! 2. on an *irregular* machine — the same mesh with a faulted block removed
//!    — where no closed-form curve exists, which is the case the integer
//!    program was built for.

use commalloc::prelude::*;
use commalloc_alloc::curve_alloc::{CurveAllocator, SelectionStrategy};
use commalloc_alloc::{AllocRequest, Allocator, MachineState};
use commalloc_mesh::curve::optimizer::{optimize_full_mesh, optimize_order, OptimizerConfig};
use commalloc_mesh::locality::window_locality;
use commalloc_mesh::{Coord, NodeId};

fn main() {
    let mesh = Mesh2D::new(8, 8);
    let config = OptimizerConfig {
        iterations: 30_000,
        ..OptimizerConfig::default()
    };

    // --- Part 1: full mesh -------------------------------------------------
    println!("Part 1: optimising a full 8x8 ordering (30k local-search moves)\n");
    let (optimized, result) = optimize_full_mesh(mesh, CurveKind::RowMajor, &config);
    println!(
        "objective: {:.3} -> {:.3} ({:.0}% better, {} accepted moves)",
        result.initial_cost,
        result.final_cost,
        100.0 * result.improvement(),
        result.accepted_moves
    );

    println!("\nwindowed locality (mean pairwise distance of 9-rank windows):");
    println!(
        "{:<22} {:>10} {:>14}",
        "ordering", "window-9", "discontinuities"
    );
    for kind in [CurveKind::RowMajor, CurveKind::SCurve, CurveKind::Hilbert] {
        let curve = CurveOrder::build(kind, mesh);
        let l = window_locality(&curve, 9);
        println!(
            "{:<22} {:>10.2} {:>14}",
            kind.name(),
            l.mean_pairwise_distance,
            curve.discontinuities()
        );
    }
    let l = window_locality(&optimized, 9);
    println!(
        "{:<22} {:>10.2} {:>14}",
        "local-search result",
        l.mean_pairwise_distance,
        optimized.discontinuities()
    );

    // --- Part 2: a machine with faulted processors -------------------------
    println!("\nPart 2: ordering an irregular machine (8x8 with a faulted 3x3 block)\n");
    let faulted: Vec<NodeId> = mesh
        .submesh(Coord::new(3, 3), 3, 3)
        .into_iter()
        .map(|c| mesh.id_of(c))
        .collect();
    let alive: Vec<NodeId> = mesh.nodes().filter(|n| !faulted.contains(n)).collect();
    println!("{} of {} processors alive", alive.len(), mesh.num_nodes());

    let optimized_alive = optimize_order(mesh, &alive, &config);
    println!(
        "objective over the alive set: {:.3} -> {:.3}",
        optimized_alive.initial_cost, optimized_alive.final_cost
    );

    // Use the optimised ordering as a drop-in curve for the one-dimensional
    // allocator: the faulted block is marked busy so no job can land on it.
    let full_order: Vec<Coord> = optimized_alive
        .order
        .iter()
        .chain(faulted.iter())
        .map(|&n| mesh.coord_of(n))
        .collect();
    let curve = CurveOrder::from_coords(CurveKind::RowMajor, mesh, &full_order);
    let mut machine = MachineState::new(mesh);
    machine.occupy(&faulted);
    let mut allocator = CurveAllocator::with_curve(curve, SelectionStrategy::BestFit);
    let alloc = allocator
        .allocate(&AllocRequest::new(1, 12), &machine)
        .expect("12 processors fit the alive set");
    println!(
        "12-processor allocation on the degraded machine: {} components, avg pairwise distance {:.2}",
        mesh.components(&alloc.nodes),
        mesh.avg_pairwise_distance(&alloc.nodes)
    );
    println!("\n(The allocator never sees the faulted block: it is simply marked busy, and the");
    println!("optimised ordering keeps the remaining processors in locality-preserving order.)");
}
