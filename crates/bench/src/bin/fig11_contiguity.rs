//! Figure 11: percentage of jobs allocated contiguously and average number of
//! components per job, for all-to-all communication on the 16 × 16 mesh at
//! load 1.0.
//!
//! ```text
//! cargo run --release -p commalloc-bench --bin fig11_contiguity -- [--jobs N] [--full] [--seed S]
//! ```
//!
//! Prints [`commalloc_bench::contiguity_sweep`]: the paper's Figure 11
//! table over the twelve allocator configurations it lists (including the
//! First Fit variants omitted from the response-time graphs).

use commalloc::prelude::*;
use commalloc::report;
use commalloc_bench::{cli, contiguity_sweep, save_json};

fn main() {
    let cli = cli();
    eprintln!("fig11: {} jobs, all-to-all, load 1.0...", cli.jobs);
    let result = contiguity_sweep(&cli);
    println!("Figure 11 reproduction: contiguity of allocations (all-to-all, 16x16, load 1.0)\n");
    println!(
        "{}",
        report::contiguity_table(&result, CommPattern::AllToAll, 1.0)
    );
    println!(
        "paper's observation: the curve-based strategies allocate into fewer components than MC/MC1x1/Gen-Alg."
    );
    save_json("fig11_contiguity", &result);
}
