//! Cross-checking the contention model with an analytic queueing argument.
//!
//! ```text
//! cargo run --release --example queueing_latency
//! ```
//!
//! The paper's Figure 10 shows running time tracking *average message
//! distance*. The fluid model reproduces that through per-hop overhead and
//! link sharing; this example checks the same relationship from a third,
//! independent angle — an M/M/1-per-link latency estimate — by placing two
//! jobs with the same size but very different dispersion on a busy mesh and
//! comparing (a) their expected per-message latency from the queueing
//! estimator and (b) their simulated running times.

use commalloc::prelude::*;
use commalloc_alloc::AllocRequest;
use commalloc_net::latency::LatencyEstimator;
use commalloc_net::traffic::JobTraffic;
use commalloc_net::LinkTable;
use commalloc_workload::Job;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn job_traffic(
    mesh: Mesh2D,
    links: &LinkTable,
    id: u64,
    nodes: &[commalloc_mesh::NodeId],
) -> JobTraffic {
    let mut rng = StdRng::seed_from_u64(id);
    let traffic = CommPattern::AllToAll.traffic(nodes.len(), 1000, &mut rng);
    JobTraffic::new(mesh, links, id, nodes, &traffic, 1.0)
}

fn main() {
    let mesh = Mesh2D::square_16x16();
    let links = LinkTable::new(mesh);

    // A compact 16-processor allocation (Hilbert + Best Fit on an empty
    // machine) and a deliberately scattered one (random allocator).
    let machine = MachineState::new(mesh);
    let compact = AllocatorKind::HilbertBestFit
        .build(mesh)
        .allocate(&AllocRequest::new(1, 16), &machine)
        .expect("empty machine");
    let scattered = AllocatorKind::Random
        .build(mesh)
        .allocate(&AllocRequest::new(2, 16), &machine)
        .expect("empty machine");

    let compact_traffic = job_traffic(mesh, &links, 1, &compact.nodes);
    let scattered_traffic = job_traffic(mesh, &links, 2, &scattered.nodes);

    println!("static view (all-to-all over 16 processors):");
    println!(
        "  compact   allocation: avg message distance {:.2} hops",
        compact_traffic.avg_message_distance
    );
    println!(
        "  scattered allocation: avg message distance {:.2} hops",
        scattered_traffic.avg_message_distance
    );

    // Analytic per-message latency when both jobs run simultaneously at one
    // message per second each.
    let estimator = LatencyEstimator::new(links.num_slots(), 4.0);
    let jobs = [&compact_traffic, &scattered_traffic];
    let latencies = estimator.per_job_latency(&jobs, &[1.0, 1.0]);
    println!("\nqueueing estimate (M/M/1 per link, both jobs active):");
    for l in &latencies {
        println!(
            "  job {}: expected {:.2} s per message ({:.2}x over the idle network)",
            l.job_id,
            l.expected_latency,
            l.slowdown()
        );
    }

    // Dynamic view: simulate the same two jobs arriving together and compare
    // running times under the fluid engine.
    let trace = Trace::new(vec![
        Job::new(0, 0.0, 16, 2000.0),
        Job::new(1, 0.0, 16, 2000.0),
    ]);
    println!("\nsimulated running times (fluid engine, both jobs co-resident):");
    for allocator in [AllocatorKind::HilbertBestFit, AllocatorKind::Random] {
        let config = SimConfig::new(mesh, CommPattern::AllToAll, allocator);
        let result = simulate(&trace, &config);
        println!(
            "  {:<14} mean running time {:>8.0} s | mean message distance {:.2} hops",
            allocator.name(),
            result.summary.mean_running_time,
            result.summary.mean_message_distance
        );
    }

    println!("\nBoth the analytic estimate and the simulation point the same way: the");
    println!("allocation with the larger average message distance pays more per message,");
    println!("which is exactly the Figure 10 relationship the paper reports.");
}
