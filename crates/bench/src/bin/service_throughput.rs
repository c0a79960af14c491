//! Service-throughput benchmark: allocate/release operations per second
//! at fixed occupancy, comparing the incremental `FreeIntervalIndex`
//! curve-allocator path against the naive rescan path, plus the full
//! in-process `AllocationService` stack. Emits `BENCH_service.json`.
//!
//! Method: the 16×16 machine is pre-filled to the target occupancy with
//! random-size jobs, then driven in steady state — release one random
//! live job, allocate a replacement of the same size — so the interval
//! structure stays realistically fragmented (the random prefill fixes the
//! fragmentation pattern) while the occupancy holds exactly the target.
//! One "op" is one allocate or one release. A second, mixed-size variant
//! (replacement sizes drawn fresh, drifting into the scattered min-span
//! fallback) is reported alongside for transparency; the headline
//! indexed-vs-rescan speedup is the steady-state refit number.
//!
//! Usage: `service_throughput [--ops N] [--seed S]`

use commalloc_alloc::curve_alloc::{CurveAllocator, SelectionStrategy};
use commalloc_alloc::{AllocRequest, Allocation, Allocator, MachineState};
use commalloc_mesh::curve::CurveKind;
use commalloc_mesh::Mesh2D;
use commalloc_service::{AllocArgs, AllocOutcome, AllocationService, RequestCtx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Map, Serialize, Value};
use std::time::Instant;

const DEFAULT_OPS: usize = 200_000;

/// Steady-state churn against a bare allocator; returns ops/second.
///
/// `refit` replaces each released job with one of the same size (pure
/// decision-path measurement at constant occupancy); `!refit` draws a
/// fresh random size each time (drifts into the fragmented fallback
/// paths).
fn bench_allocator(
    mut allocator: CurveAllocator,
    occupancy: f64,
    ops: usize,
    seed: u64,
    refit: bool,
) -> f64 {
    let mesh = Mesh2D::square_16x16();
    let mut machine = MachineState::new(mesh);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<Allocation> = Vec::new();
    let mut next_job = 0u64;
    let target = (occupancy * mesh.num_nodes() as f64) as usize;

    // Pre-fill towards the target with small jobs so the free space is
    // realistically fragmented.
    while machine.num_busy() < target {
        let size = rng.gen_range(1usize..=8).min(machine.num_free());
        let Some(alloc) = allocator.allocate(&AllocRequest::new(next_job, size), &machine) else {
            break;
        };
        next_job += 1;
        machine.occupy(&alloc.nodes);
        live.push(alloc);
    }

    // Pre-draw the randomness so the timed loop measures the allocator,
    // not the RNG.
    let picks: Vec<(u32, u8)> = (0..ops)
        .map(|_| (rng.gen::<u32>(), rng.gen_range(1u8..=8)))
        .collect();

    let start = Instant::now();
    let mut performed = 0usize;
    for &(pick, fresh_size) in &picks {
        if performed >= ops {
            break;
        }
        // Release one random live job ...
        let victim = live.swap_remove(pick as usize % live.len());
        machine.release(&victim.nodes);
        allocator.release(&victim, &machine);
        performed += 1;
        // ... and allocate a replacement.
        let size = if refit {
            victim.nodes.len()
        } else {
            (fresh_size as usize).min(machine.num_free())
        };
        if let Some(alloc) = allocator.allocate(&AllocRequest::new(next_job, size), &machine) {
            next_job += 1;
            machine.occupy(&alloc.nodes);
            live.push(alloc);
            performed += 1;
        }
        if live.is_empty() {
            break;
        }
    }
    performed as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// The same churn through the full service stack (registry lock, admission
/// bookkeeping, metrics); returns ops/second.
fn bench_service(occupancy: f64, ops: usize, seed: u64) -> f64 {
    let inert = RequestCtx::inert();
    let service = AllocationService::new();
    service
        .register("bench", "16x16", Some("Hilbert w/BF"), None, None)
        .expect("fresh service accepts registration");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<u64> = Vec::new();
    let mut next_job = 0u64;
    let target = (occupancy * 256.0) as usize;
    let mut busy = 0usize;

    while busy < target {
        let size = rng.gen_range(1usize..=8);
        match service.alloc("bench", &AllocArgs::new(next_job, size), &inert) {
            Ok(AllocOutcome::Granted(nodes)) => {
                busy += nodes.len();
                live.push(next_job);
                next_job += 1;
            }
            _ => break,
        }
    }

    let start = Instant::now();
    let mut performed = 0usize;
    while performed < ops {
        let victim = live.swap_remove(rng.gen_range(0..live.len()));
        service
            .release("bench", victim, &inert)
            .expect("victim is live");
        performed += 1;
        while performed < ops {
            let size = rng.gen_range(1usize..=8);
            match service.alloc("bench", &AllocArgs::new(next_job, size), &inert) {
                Ok(AllocOutcome::Granted(_)) => {
                    live.push(next_job);
                    next_job += 1;
                    performed += 1;
                }
                _ => break,
            }
        }
        if live.is_empty() {
            break;
        }
    }
    performed as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut ops = DEFAULT_OPS;
    let mut seed = 1996u64;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--ops" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    ops = v;
                }
                i += 1;
            }
            "--seed" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    seed = v;
                }
                i += 1;
            }
            other => eprintln!("ignoring unknown argument {other:?}"),
        }
        i += 1;
    }

    let mesh = Mesh2D::square_16x16();
    let mut results: Vec<Value> = Vec::new();
    let mut speedup_at_90 = 0.0f64;
    for &occupancy in &[0.5, 0.9] {
        let service = bench_service(occupancy, ops, seed);
        for &(mode, refit) in &[("refit", true), ("mixed", false)] {
            let indexed = bench_allocator(
                CurveAllocator::new(CurveKind::Hilbert, mesh, SelectionStrategy::BestFit),
                occupancy,
                ops,
                seed,
                refit,
            );
            let rescan = bench_allocator(
                CurveAllocator::with_rescan(CurveKind::Hilbert, mesh, SelectionStrategy::BestFit),
                occupancy,
                ops,
                seed,
                refit,
            );
            let speedup = indexed / rescan;
            if occupancy == 0.9 && refit {
                speedup_at_90 = speedup;
            }
            println!(
                "occupancy {:>3.0}% {mode:>6}: indexed {:>12.0} ops/s | rescan {:>12.0} ops/s | speedup {:>5.2}x | service {:>12.0} ops/s",
                occupancy * 100.0,
                indexed,
                rescan,
                speedup,
                service
            );
            let mut row = Map::new();
            row.insert("occupancy".into(), occupancy.to_value());
            row.insert("mode".into(), mode.to_value());
            row.insert("indexed_ops_per_sec".into(), indexed.to_value());
            row.insert("rescan_ops_per_sec".into(), rescan.to_value());
            row.insert("speedup".into(), speedup.to_value());
            row.insert("service_ops_per_sec".into(), service.to_value());
            results.push(Value::Object(row));
        }
    }

    let mut out = Map::new();
    out.insert("benchmark".into(), "service_throughput".to_value());
    out.insert("mesh".into(), "16x16".to_value());
    out.insert("allocator".into(), "Hilbert w/BF".to_value());
    out.insert("ops".into(), ops.to_value());
    out.insert("seed".into(), seed.to_value());
    out.insert("results".into(), Value::Array(results));
    out.insert("speedup_at_90".into(), speedup_at_90.to_value());
    let json = serde_json::to_string_pretty(&Value::Object(out)).expect("rendering is infallible");
    std::fs::write("BENCH_service.json", &json).expect("can write BENCH_service.json");
    println!("wrote BENCH_service.json (speedup at 90% occupancy: {speedup_at_90:.2}x)");
}
