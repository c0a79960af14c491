//! Ablation: is the allocator ranking an artefact of the fluid-model
//! calibration?
//!
//! ```text
//! cargo run --release -p commalloc-bench --bin ablation_sensitivity -- [--jobs N] [--pattern P]
//! ```
//!
//! This reproduction substitutes the paper's flit-level ProcSimity runs (README
//! § "Substitutions this reproduction makes") with a
//! fluid contention model whose two knobs (`link_capacity` and
//! `per_hop_overhead`) are calibrated, not measured. The paper's claims are
//! ordinal (who beats whom), so what matters is how stable the allocator
//! ordering is when those knobs move. This binary measures that: Kendall's
//! τ between the baseline ranking and the ranking at each alternative knob
//! value.

use commalloc::prelude::*;
use commalloc::report;
use commalloc_bench::{cli, standard_trace};

fn main() {
    let cli = cli();
    let mesh = Mesh2D::square_16x16();
    let trace = standard_trace(cli.jobs.min(300), cli.seed)
        .filter_fitting(mesh.num_nodes())
        .with_load_factor(0.6);
    let pattern = cli.pattern.unwrap_or(CommPattern::AllToAll);
    let allocators = AllocatorKind::paper_set();
    let base = SimConfig::new(mesh, pattern, AllocatorKind::HilbertBestFit);

    eprintln!(
        "sensitivity ablation: {} jobs, {pattern}, {} allocators",
        trace.len(),
        allocators.len()
    );

    let capacity_values = [0.05, 0.1, 0.25, 0.5, 1.0, 2.0];
    let overhead_values = [0.0, 0.01, 0.05, 0.1, 0.2];

    let capacity_study = SensitivityStudy::run(
        &base,
        &allocators,
        &trace,
        Knob::LinkCapacity,
        &capacity_values,
    );
    let overhead_study = SensitivityStudy::run(
        &base,
        &allocators,
        &trace,
        Knob::PerHopOverhead,
        &overhead_values,
    );

    for study in [&capacity_study, &overhead_study] {
        println!(
            "\nallocator-ranking stability vs {} (baseline = {}):",
            study.knob.name(),
            study.baseline_value
        );
        println!(
            "{:>12} {:>14} {:<40}",
            "value", "Kendall tau", "best three allocators"
        );
        for point in &study.points {
            let top: Vec<&str> = point
                .ranking
                .iter()
                .take(3)
                .map(|(k, _)| k.name())
                .collect();
            println!(
                "{:>12} {:>14.2} {:<40}",
                point.value,
                point.tau_vs_baseline,
                top.join(", ")
            );
        }
        println!(
            "worst tau over the studied range: {:.2} (1.0 = ordering unchanged)",
            study.worst_tau()
        );
    }

    match report::write_json("ablation_sensitivity", &(&capacity_study, &overhead_study)) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write JSON: {e}"),
    }
}
