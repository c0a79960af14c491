//! Ablation: does the allocator ranking survive a different scheduler?
//!
//! ```text
//! cargo run --release -p commalloc-bench --bin ablation_scheduler -- [--jobs N] [--pattern P]
//! ```
//!
//! The paper fixes FCFS "since our focus is on allocation rather than
//! scheduling". This extension re-runs the paper's allocator comparison under
//! aggressive first-fit backfilling and EASY backfilling and reports (a) how
//! much each scheduler improves response time and (b) whether the allocator
//! *ordering* — the paper's actual claim — changes (Kendall's τ against the
//! FCFS ranking).

use commalloc::prelude::*;
use commalloc::sensitivity::ranking_correlation;
use commalloc_bench::{cli, save_json, standard_trace};
use rayon::prelude::*;

fn ranking(
    trace: &Trace,
    mesh: Mesh2D,
    pattern: CommPattern,
    scheduler: SchedulerKind,
    allocators: &[AllocatorKind],
) -> Vec<(AllocatorKind, f64)> {
    let mut rows: Vec<(AllocatorKind, f64)> = allocators
        .par_iter()
        .map(|&allocator| {
            let config = SimConfig::new(mesh, pattern, allocator).with_scheduler(scheduler);
            let result = simulate(trace, &config);
            (allocator, result.summary.mean_response_time)
        })
        .collect();
    rows.sort_by(|a, b| a.1.total_cmp(&b.1));
    rows
}

fn main() {
    let cli = cli();
    let mesh = Mesh2D::square_16x16();
    let trace = standard_trace(cli.jobs.min(400), cli.seed)
        .filter_fitting(mesh.num_nodes())
        .with_load_factor(0.6);
    let pattern = cli.pattern.unwrap_or(CommPattern::AllToAll);
    let allocators = AllocatorKind::paper_set();

    eprintln!(
        "scheduler ablation: {} jobs, {pattern}, load 0.6, {} allocators x {} schedulers",
        trace.len(),
        allocators.len(),
        SchedulerKind::all().len()
    );

    let fcfs = ranking(&trace, mesh, pattern, SchedulerKind::Fcfs, &allocators);
    println!("\nFCFS (the paper's scheduler):");
    for (kind, rt) in &fcfs {
        println!("  {:<16} {:>12.0} s", kind.name(), rt);
    }

    let mut summaries = vec![("FCFS".to_string(), fcfs.clone(), 1.0f64)];
    for scheduler in [SchedulerKind::FirstFitBackfill, SchedulerKind::EasyBackfill] {
        let rows = ranking(&trace, mesh, pattern, scheduler, &allocators);
        let tau = ranking_correlation(&fcfs, &rows);
        println!("\n{}:", scheduler.name());
        for (kind, rt) in &rows {
            println!("  {:<16} {:>12.0} s", kind.name(), rt);
        }
        println!("  Kendall tau vs FCFS ordering: {tau:.2}");
        summaries.push((scheduler.name().to_string(), rows, tau));
    }

    println!("\ninterpretation: tau near 1.0 means the paper's allocator ranking is not an");
    println!("artefact of fixing FCFS; large response-time drops under backfilling show how");
    println!("much queueing (rather than contention) contributes at this load.");

    save_json("ablation_scheduler", &summaries);
}
