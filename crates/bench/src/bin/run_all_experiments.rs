//! Run the complete reproduction suite: every figure and table in one pass.
//!
//! ```text
//! cargo run --release -p commalloc-bench --bin run_all_experiments -- [--jobs N] [--full]
//! ```
//!
//! Convenience driver that executes the same experiments as the individual
//! `fig*` binaries (at reduced default scale) and prints a compact digest of
//! the paper's qualitative claims and whether this build reproduces them.
//! Useful as a single command to sanity-check the whole pipeline after a
//! change; the per-figure binaries remain the canonical way to regenerate
//! full-size data.

use commalloc::experiment::LoadSweep;
use commalloc::prelude::*;
use commalloc::stats::pearson_correlation;
use commalloc_bench::{cli, is_probe_record, probe_jobs, standard_trace};

struct Claim {
    name: &'static str,
    reproduced: bool,
    detail: String,
}

fn main() {
    let cli = cli();
    let jobs = cli.jobs;
    let trace = standard_trace(jobs, cli.seed);
    let mesh16 = Mesh2D::square_16x16();
    let mut claims: Vec<Claim> = Vec::new();

    // --- Figures 7/8-style sweep at a single heavy load on both meshes. ---
    eprintln!("running response-time sweeps ({jobs} jobs)...");
    let sweep = |mesh: Mesh2D| LoadSweep {
        mesh,
        patterns: CommPattern::paper_patterns().to_vec(),
        allocators: AllocatorKind::paper_set().to_vec(),
        load_factors: vec![0.4],
        ..LoadSweep::paper_figure(mesh)
    };
    let r16 = sweep(mesh16).run(&trace);

    let rank_of = |result: &commalloc::experiment::SweepResult,
                   pattern: CommPattern,
                   allocator: AllocatorKind| {
        result
            .ranking(pattern)
            .iter()
            .position(|(a, _)| *a == allocator)
            .map(|p| p + 1)
            .unwrap_or(usize::MAX)
    };

    // Claim 1: Hilbert w/BF is among the best for all-to-all on 16x16.
    let pos = rank_of(&r16, CommPattern::AllToAll, AllocatorKind::HilbertBestFit);
    claims.push(Claim {
        name: "Fig 8(a): Hilbert w/BF among the best for all-to-all (16x16)",
        reproduced: pos <= 4,
        detail: format!("rank {pos} of 9"),
    });

    // Claim 2: curve free-list variants are among the worst for all-to-all.
    let s_pos = rank_of(&r16, CommPattern::AllToAll, AllocatorKind::SCurveFreeList);
    claims.push(Claim {
        name: "Fig 8(a): S-curve free list near the bottom for all-to-all",
        reproduced: s_pos >= 6,
        detail: format!("rank {s_pos} of 9"),
    });

    // Claim 3: Hilbert w/BF is the best for n-body on 16x16.
    let nb_pos = rank_of(&r16, CommPattern::NBody, AllocatorKind::HilbertBestFit);
    claims.push(Claim {
        name: "Fig 8(b): Hilbert w/BF at or near the top for n-body (16x16)",
        reproduced: nb_pos <= 3,
        detail: format!("rank {nb_pos} of 9"),
    });

    // --- Figure 11: contiguity. ---
    eprintln!("running contiguity table...");
    let fig11 = LoadSweep {
        mesh: mesh16,
        patterns: vec![CommPattern::AllToAll],
        allocators: AllocatorKind::figure11_set().to_vec(),
        load_factors: vec![1.0],
        ..LoadSweep::paper_figure(mesh16)
    }
    .run(&trace);
    let comp = |a: AllocatorKind| {
        fig11
            .points
            .iter()
            .find(|p| p.allocator == a)
            .map(|p| p.avg_components)
            .unwrap_or(f64::NAN)
    };
    let curve_avg =
        (comp(AllocatorKind::HilbertBestFit) + comp(AllocatorKind::SCurveBestFit)) / 2.0;
    let disp_avg = (comp(AllocatorKind::Mc1x1) + comp(AllocatorKind::GenAlg)) / 2.0;
    claims.push(Claim {
        name: "Fig 11: curve+packing allocations have fewer components than MC1x1/Gen-Alg",
        reproduced: curve_avg < disp_avg,
        detail: format!("{curve_avg:.2} vs {disp_avg:.2} components/job"),
    });

    // --- Figures 9/10: metric correlation. ---
    eprintln!("running correlation probes...");
    let probe_trace = probe_jobs(
        &trace.filter_fitting(256),
        24,
        128,
        (39_900, 44_000),
        cli.seed,
    );
    let mut pairwise = Vec::new();
    let mut message = Vec::new();
    let mut running = Vec::new();
    for allocator in [
        AllocatorKind::HilbertBestFit,
        AllocatorKind::Mc1x1,
        AllocatorKind::SCurveFreeList,
    ] {
        let result = simulate(
            &probe_trace,
            &SimConfig::new(mesh16, CommPattern::NBody, allocator),
        );
        for r in result
            .records
            .iter()
            .filter(|r| is_probe_record(r, 128, (39_900, 44_000)))
        {
            pairwise.push(r.avg_pairwise_distance);
            message.push(r.avg_message_distance);
            running.push(r.running_time());
        }
    }
    let c9 = pearson_correlation(&pairwise, &running);
    let c10 = pearson_correlation(&message, &running);
    claims.push(Claim {
        name: "Figs 9/10: running time tracks message distance more tightly than pairwise distance",
        reproduced: c10 > c9,
        detail: format!("r(message)={c10:.2}, r(pairwise)={c9:.2}"),
    });

    // --- Digest. ---
    println!("\n================ reproduction digest ({jobs} jobs) ================");
    let mut ok = 0;
    for claim in &claims {
        println!(
            "[{}] {}  ({})",
            if claim.reproduced { "ok " } else { "MISS" },
            claim.name,
            claim.detail
        );
        if claim.reproduced {
            ok += 1;
        }
    }
    println!(
        "{ok}/{} qualitative claims reproduced at {jobs} jobs (--full runs the paper's 6087)",
        claims.len()
    );
}
