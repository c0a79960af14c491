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
//! The synthetic trace rarely produces jobs in exactly that band, so
//! [`commalloc_bench::probe_study`] inserts 24 probe jobs with those
//! parameters into the trace (README § "Substitutions this reproduction
//! makes"); this binary prints both scatter series and their Pearson and
//! Spearman correlations, aggregated over the paper's nine allocator
//! configurations.

use commalloc_bench::{cli, probe_study, save_json, PROBE_SIZE};

fn main() {
    let cli = cli();
    eprintln!(
        "fig09/10: {} jobs + 24 probes of {PROBE_SIZE} processors, n-body, load 1.0...",
        cli.jobs
    );
    let study = probe_study(&cli);

    println!("Figure 9/10 reproduction: large n-body job running times\n");
    println!(
        "{:<16} {:>8} {:>16} {:>16} {:>14}",
        "allocator", "job", "pairwise dist", "message dist", "running (s)"
    );
    for r in &study.records {
        println!(
            "{:<16} {:>8} {:>16.2} {:>16.2} {:>14.0}",
            r.allocator, r.job_id, r.avg_pairwise_distance, r.avg_message_distance, r.running_time
        );
    }

    let (c9, c10) = (study.pairwise, study.message);
    let figures = [
        ("Figure 9  (pairwise distance vs running time): ", c9),
        ("Figure 10 (message distance vs running time):  ", c10),
    ];
    println!("\n{} probe-job observations", study.records.len());
    for (figure, c) in figures {
        println!("{figure}Pearson r = {:.3}", c.pearson);
    }
    for (figure, c) in figures {
        match c.spearman {
            Some(rho) => println!("{figure}Spearman rho = {rho:.3}"),
            None => println!("{figure}Spearman rho undefined"),
        }
    }
    println!(
        "paper's finding: the Figure 10 correlation is much tighter than Figure 9's ({}).",
        if c10.pearson > c9.pearson {
            "reproduced"
        } else {
            "NOT reproduced with these parameters"
        }
    );

    save_json("fig09_10_correlation", &study.records);
}
