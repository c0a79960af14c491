//! Figure 7: response time versus load on the 16 × 22 mesh for all-to-all,
//! n-body and random communication.
//!
//! ```text
//! cargo run --release -p commalloc-bench --bin fig07_mesh16x22 -- [--jobs N] [--full] [--pattern P]
//! ```
//!
//! Runs the paper's Figure 7 sweep ([`commalloc_bench::response_sweep`]):
//! the nine plotted allocator configurations × the five load factors × the
//! three communication patterns, trace-driven with FCFS scheduling, and
//! prints one response-time table per pattern (the rows/series of Figure
//! 7(a)–(c)). By default an 800-job prefix of the synthetic trace is used
//! so the sweep finishes quickly; pass `--full` for the paper's 6087 jobs.

use commalloc::prelude::*;

fn main() {
    commalloc_bench::print_response_figure(
        "fig07_mesh16x22",
        "fig07_mesh16x22 mesh 16x22",
        Mesh2D::paragon_16x22(),
    );
}
