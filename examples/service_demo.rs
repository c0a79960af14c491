//! Demonstrates the online allocation daemon: starts a server on an
//! ephemeral port, registers the paper's two machines plus a 3-D cube,
//! drives them over TCP, and prints occupancy snapshots and counters.
//!
//! Run with: `cargo run --example service_demo`

use commalloc_service::{AllocArgs, AllocationService, ClientAllocOutcome, Server, ServiceClient};
use serde::Value;

fn main() {
    let service = AllocationService::new();
    let handle = Server::bind("127.0.0.1:0", service, 4)
        .expect("bind an ephemeral port")
        .spawn()
        .expect("spawn the server");
    println!("daemon listening on {}", handle.addr());

    let mut client = ServiceClient::connect(handle.addr()).expect("connect");

    // The paper's machines, served by its best allocator, plus the 3-D
    // generalisation the service adds.
    client
        .register("square", "16x16", Some("Hilbert w/BF"), None, None)
        .unwrap();
    client
        .register("cplant", "16x22", Some("MC1x1"), None, None)
        .unwrap();
    client
        .register("cube", "8x8x8", Some("Hilbert-3d"), Some("BF"), None)
        .unwrap();
    println!("registered machines: {:?}", client.list().unwrap());

    // A short arrival/departure history on the square machine.
    let sizes = [17usize, 8, 30, 4, 64, 12];
    for (job, &size) in sizes.iter().enumerate() {
        match client
            .alloc("square", &AllocArgs::new(job as u64, size).or_wait())
            .unwrap()
            .1
        {
            ClientAllocOutcome::Granted(nodes) => {
                println!(
                    "job {job}: granted {size} processors (first node {})",
                    nodes[0]
                )
            }
            ClientAllocOutcome::Queued(pos) => {
                println!("job {job}: queued at position {pos}")
            }
            ClientAllocOutcome::Rejected(reason) => {
                println!("job {job}: rejected ({reason})")
            }
        }
    }
    // Finish two jobs; queued work (if any) is admitted FCFS.
    for job in [0u64, 2] {
        let granted = client.release("square", job).unwrap();
        for (id, nodes) in granted {
            println!(
                "release of job {job} admitted queued job {id} ({} nodes)",
                nodes.len()
            );
        }
    }

    // A 3-D allocation for contrast.
    if let ClientAllocOutcome::Granted(nodes) =
        client.alloc("cube", &AllocArgs::new(100, 32)).unwrap().1
    {
        println!("cube: granted 32 processors, e.g. node {}", nodes[0]);
    }

    for machine in ["square", "cplant", "cube"] {
        let snap = client.query(machine).unwrap();
        println!(
            "{machine}: {} busy / {} nodes ({:.0}% utilised), {} live jobs, queue {}",
            snap.get("busy").and_then(Value::as_u64).unwrap_or(0),
            snap.get("nodes").and_then(Value::as_u64).unwrap_or(0),
            100.0
                * snap
                    .get("utilization")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0),
            snap.get("live_jobs").and_then(Value::as_u64).unwrap_or(0),
            snap.get("queue_len").and_then(Value::as_u64).unwrap_or(0),
        );
    }

    let stats = client.stats("square").unwrap();
    println!(
        "square counters: {}",
        serde_json::to_string(stats.get("counters").unwrap()).unwrap()
    );

    drop(client);
    handle.shutdown().expect("clean shutdown");
    println!("daemon stopped");
}
