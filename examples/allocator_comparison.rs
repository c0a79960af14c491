//! Compare every allocator the paper evaluates on one communication pattern.
//!
//! ```text
//! cargo run --release --example allocator_comparison -- [pattern] [jobs]
//! ```
//!
//! `pattern` is one of `all-to-all`, `n-body`, `random` (default
//! `all-to-all`); `jobs` is the number of synthetic trace jobs (default 400).
//! The output is a response-time table across the paper's five load factors —
//! the same series as one panel of Figure 7/8 — plus the Figure 11 contiguity
//! columns at load 1.0.

use commalloc::experiment::{LoadSweep, PAPER_LOAD_FACTORS};
use commalloc::prelude::*;
use commalloc::report;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let pattern = args
        .get(1)
        .and_then(|s| CommPattern::parse(s))
        .unwrap_or(CommPattern::AllToAll);
    let jobs: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(400);

    let mesh = Mesh2D::square_16x16();
    let trace = ParagonTraceModel::scaled(jobs).generate(7);
    println!(
        "comparing {} allocators on {}x{} mesh, pattern {}, {} jobs\n",
        AllocatorKind::figure11_set().len(),
        mesh.width(),
        mesh.height(),
        pattern,
        jobs
    );

    let sweep = LoadSweep {
        mesh,
        patterns: vec![pattern],
        allocators: AllocatorKind::figure11_set().to_vec(),
        load_factors: PAPER_LOAD_FACTORS.to_vec(),
        ..LoadSweep::paper_figure(mesh, 0x1eaf)
    };
    let result = sweep.run(&trace);

    println!("{}", report::response_time_table(&result, pattern));
    println!(
        "contiguity at load 1.0 (Figure 11 columns):\n{}",
        report::contiguity_table(&result, pattern, 1.0)
    );

    println!("ranking by mean response time across loads (best first):");
    for (i, (allocator, mean)) in result.ranking(pattern).iter().enumerate() {
        println!("  {:>2}. {:<16} {:>12.0} s", i + 1, allocator.name(), mean);
    }
}
