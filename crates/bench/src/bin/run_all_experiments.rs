//! Run the reproduction digest: the paper's qualitative claims, each
//! judged on the experiment the matching `fig*` binary prints.
//!
//! ```text
//! cargo run --release -p commalloc-bench --bin run_all_experiments -- [--jobs N] [--full] [--seed S]
//! ```
//!
//! Executes the same experiments as the individual `fig*` binaries, with
//! the same flags: [`commalloc_bench::response_sweep`] (Figure 8),
//! [`commalloc_bench::contiguity_sweep`] (Figure 11) and
//! [`commalloc_bench::probe_study`] (Figures 9/10). It then prints a
//! compact digest of the paper's qualitative claims and whether this
//! build reproduces them. One narrowing: the Figure 8 claims are read at
//! load 0.4 alone, not averaged over the five loads `fig08_mesh16x16`
//! plots, to keep the digest's run under `cargo test` short.

use commalloc::prelude::*;
use commalloc_bench::{cli, contiguity_sweep, probe_study, response_sweep};
use std::ops::RangeInclusive;

/// The Figure 8 claims: an allocator's rank (1 = best mean response on the
/// 16 × 16 mesh at load 0.4) for a pattern, and the ranks that uphold it.
#[rustfmt::skip]
const RANK_CLAIMS: [(&str, CommPattern, AllocatorKind, RangeInclusive<usize>); 3] = [
    ("Fig 8(a): Hilbert w/BF among the best for all-to-all (16x16)",
        CommPattern::AllToAll, AllocatorKind::HilbertBestFit, 1..=4),
    ("Fig 8(a): S-curve free list near the bottom for all-to-all",
        CommPattern::AllToAll, AllocatorKind::SCurveFreeList, 6..=usize::MAX),
    ("Fig 8(b): Hilbert w/BF at or near the top for n-body (16x16)",
        CommPattern::NBody, AllocatorKind::HilbertBestFit, 1..=3),
];

struct Claim {
    name: &'static str,
    reproduced: bool,
    detail: String,
}

fn main() {
    let cli = cli();
    let mut claims: Vec<Claim> = Vec::new();

    let fig8 = response_sweep(&cli, Mesh2D::square_16x16(), &[0.4]);
    for (name, pattern, allocator, upheld) in RANK_CLAIMS {
        let ranking = fig8.ranking(pattern);
        let rank = ranking
            .iter()
            .position(|(a, _)| *a == allocator)
            .map_or(0, |p| p + 1);
        claims.push(Claim {
            name,
            reproduced: upheld.contains(&rank),
            detail: format!("rank {rank} of {}", ranking.len()),
        });
    }

    let fig11 = contiguity_sweep(&cli);
    let comp = |a: AllocatorKind| {
        fig11
            .points
            .iter()
            .find(|p| p.allocator == a)
            .map_or(f64::NAN, |p| p.avg_components)
    };
    let curve_avg =
        (comp(AllocatorKind::HilbertBestFit) + comp(AllocatorKind::SCurveBestFit)) / 2.0;
    let disp_avg = (comp(AllocatorKind::Mc1x1) + comp(AllocatorKind::GenAlg)) / 2.0;
    claims.push(Claim {
        name: "Fig 11: curve+packing allocations have fewer components than MC1x1/Gen-Alg",
        reproduced: curve_avg < disp_avg,
        detail: format!("{curve_avg:.2} vs {disp_avg:.2} components/job"),
    });

    let study = probe_study(&cli);
    let (c9, c10) = (study.pairwise.pearson, study.message.pearson);
    claims.push(Claim {
        name: "Figs 9/10: running time tracks message distance more tightly than pairwise distance",
        reproduced: c10 > c9,
        detail: format!("r(message)={c10:.2}, r(pairwise)={c9:.2}"),
    });

    let jobs = cli.jobs;
    println!("\n================ reproduction digest ({jobs} jobs) ================");
    for claim in &claims {
        println!(
            "[{}] {}  ({})",
            if claim.reproduced { "ok " } else { "MISS" },
            claim.name,
            claim.detail
        );
    }
    let ok = claims.iter().filter(|c| c.reproduced).count();
    println!(
        "{ok}/{} qualitative claims reproduced at {jobs} jobs (--full runs the paper's 6087)",
        claims.len()
    );
}
