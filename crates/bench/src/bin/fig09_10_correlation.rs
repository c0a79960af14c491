//! Figures 9 and 10: running time of large n-body jobs versus (9) the average
//! pairwise distance of their allocation and (10) the average distance
//! travelled by their messages.
//!
//! ```text
//! cargo run --release -p commalloc-bench --bin fig09_10_correlation -- [--jobs N] [--seed S]
//! ```
//!
//! The paper selects 128-processor n-body jobs sending between 39,900 and
//! 44,000 messages (24 such jobs per simulation) and finds no clear
//! relationship with pairwise distance but a tight one with message distance.
//! The synthetic trace rarely produces jobs in exactly that band, so this
//! binary inserts 24 probe jobs with those parameters into the trace
//! (README § "Substitutions this reproduction makes") and reports both
//! scatter series
//! and their Pearson correlations, aggregated over the paper's nine allocator
//! configurations.

use commalloc::prelude::*;
use commalloc::report;
use commalloc::stats::pearson_correlation;
use commalloc_bench::{cli, is_probe_record, probe_jobs, standard_trace};
use serde::Serialize;

#[derive(Serialize)]
struct ProbeRecord {
    allocator: String,
    job_id: u64,
    avg_pairwise_distance: f64,
    avg_message_distance: f64,
    running_time: f64,
}

fn main() {
    let cli = cli();
    let mesh = Mesh2D::square_16x16();
    let quota_band = (39_900u64, 44_000u64);
    let probe_size = 128usize;
    let base = standard_trace(cli.jobs, cli.seed).filter_fitting(mesh.num_nodes());
    let trace = probe_jobs(&base, 24, probe_size, quota_band, cli.seed ^ 0x99);

    eprintln!(
        "fig09/10: {} jobs (24 probes of {probe_size} processors, {}–{} messages), n-body, load 1.0",
        trace.len(),
        quota_band.0,
        quota_band.1
    );

    let mut records: Vec<ProbeRecord> = Vec::new();
    for allocator in AllocatorKind::paper_set() {
        let config = SimConfig::new(mesh, CommPattern::NBody, allocator).with_seed(cli.seed);
        let result = simulate(&trace, &config);
        for r in result
            .records
            .iter()
            .filter(|r| is_probe_record(r, probe_size, quota_band))
        {
            records.push(ProbeRecord {
                allocator: allocator.name().to_string(),
                job_id: r.job_id,
                avg_pairwise_distance: r.avg_pairwise_distance,
                avg_message_distance: r.avg_message_distance,
                running_time: r.running_time(),
            });
        }
    }

    println!("Figure 9/10 reproduction: large n-body job running times\n");
    println!(
        "{:<16} {:>8} {:>16} {:>16} {:>14}",
        "allocator", "job", "pairwise dist", "message dist", "running (s)"
    );
    for r in &records {
        println!(
            "{:<16} {:>8} {:>16.2} {:>16.2} {:>14.0}",
            r.allocator, r.job_id, r.avg_pairwise_distance, r.avg_message_distance, r.running_time
        );
    }

    let pairwise: Vec<f64> = records.iter().map(|r| r.avg_pairwise_distance).collect();
    let message: Vec<f64> = records.iter().map(|r| r.avg_message_distance).collect();
    let running: Vec<f64> = records.iter().map(|r| r.running_time).collect();
    let c9 = pearson_correlation(&pairwise, &running);
    let c10 = pearson_correlation(&message, &running);
    println!("\n{} probe-job observations", records.len());
    println!("Figure 9  (pairwise distance vs running time): Pearson r = {c9:.3}");
    println!("Figure 10 (message distance vs running time):  Pearson r = {c10:.3}");
    println!(
        "paper's finding: the Figure 10 correlation is much tighter than Figure 9's ({}).",
        if c10 > c9 {
            "reproduced"
        } else {
            "NOT reproduced with these parameters"
        }
    );

    match report::write_json("fig09_10_correlation", &records) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write JSON: {e}"),
    }
}
