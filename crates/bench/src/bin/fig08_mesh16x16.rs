//! Figure 8: response time versus load on the 16 × 16 mesh for all-to-all,
//! n-body and random communication.
//!
//! ```text
//! cargo run --release -p commalloc-bench --bin fig08_mesh16x16 -- [--jobs N] [--full] [--pattern P]
//! ```
//!
//! The Figure 7 sweep on the square 16 × 16 machine; jobs too large for
//! 256 processors are removed from the trace first, exactly as the paper
//! removes its three 320-node jobs.

use commalloc::prelude::*;

fn main() {
    commalloc_bench::print_response_figure(
        "fig08_mesh16x16",
        "fig08_mesh16x16",
        Mesh2D::square_16x16(),
    );
}
