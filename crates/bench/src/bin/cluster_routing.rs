//! Routing-policy comparison on a heterogeneous 4-machine pool: the same
//! mixed-size job stream, offered at ~95% of the cluster's aggregate
//! capacity, routed deterministically (virtual time, `replay_cluster`)
//! under each `RoutingPolicy`. Reports mean/p99 queue wait, jobs that
//! waited, makespan, per-machine utilization and the utilization
//! imbalance (max − min across members), and emits `BENCH_cluster.json`.
//!
//! The pool is deliberately lopsided — 256 + 128 + 64 + 32 processors —
//! which is exactly where load-blind round-robin hurts: the small
//! members receive the same share of the stream as the big ones,
//! queue deeply, and drag the mean wait up. Load-aware routing
//! (least-loaded, power-of-two-choices) spreads by free fraction
//! instead. Durations are integral and arrivals deterministic, so the
//! file is a pure function of the code: CI re-runs this binary and fails
//! if the committed copy differs.
//!
//! Usage: `cluster_routing [--jobs N] [--seed S]`

use commalloc_bench::{mixed_stream, parse_args, pool_json, pooled_service, POOL};
use commalloc_cli::args::{number, positive, put, Flag};
use commalloc_service::{replay_cluster, ReplayJob, RoutingPolicy};
use serde::{Map, Serialize, Value};

const TARGET_OCCUPANCY: f64 = 0.95;
const DEFAULT_JOBS: usize = 800;
const DEFAULT_SEED: u64 = 1996;

struct PolicyRow {
    policy: RoutingPolicy,
    mean_wait: f64,
    p99_wait: f64,
    waits: u64,
    makespan: f64,
    utilization: Vec<(String, f64)>,
    imbalance: f64,
}

fn run_policy(policy: RoutingPolicy, jobs: &[ReplayJob]) -> PolicyRow {
    let service = pooled_service(policy);
    let log = replay_cluster(&service, "grid", jobs, None);
    assert!(log.rejected.is_empty(), "curve allocators never refuse");
    assert!(
        log.routes.iter().all(|(_, r)| r.is_some()),
        "every job fits the largest member"
    );
    let granted: usize = log.grants.values().map(Vec::len).sum();
    assert_eq!(granted, jobs.len(), "every job must run");

    // Queue waits, from the per-machine grant logs.
    let mut waits: Vec<f64> = Vec::with_capacity(jobs.len());
    let mut busy_integral: Vec<f64> = vec![0.0; POOL.len()];
    for (at, (name, _, _)) in POOL.iter().enumerate() {
        for grant in &log.grants[*name] {
            let job = &jobs[grant.job_id as usize];
            waits.push(grant.time - job.arrival);
            busy_integral[at] += job.size as f64 * job.duration;
        }
    }
    waits.sort_by(f64::total_cmp);
    let mean_wait = waits.iter().sum::<f64>() / waits.len() as f64;
    let p99_wait = waits[((0.99 * waits.len() as f64).ceil() as usize).clamp(1, waits.len()) - 1];
    let utilization: Vec<(String, f64)> = POOL
        .iter()
        .enumerate()
        .map(|(at, &(name, w, h))| {
            let nodes = (w as usize * h as usize) as f64;
            (name.to_string(), busy_integral[at] / (log.end_time * nodes))
        })
        .collect();
    let max_util = utilization.iter().map(|(_, u)| *u).fold(0.0, f64::max);
    let min_util = utilization
        .iter()
        .map(|(_, u)| *u)
        .fold(f64::INFINITY, f64::min);
    PolicyRow {
        policy,
        mean_wait,
        p99_wait,
        waits: waits.iter().filter(|&&w| w > 0.0).count() as u64,
        makespan: log.end_time,
        utilization,
        imbalance: max_util - min_util,
    }
}

/// The flags as given; an absent one takes its default in `main`.
#[derive(Default)]
struct Args {
    jobs: Option<usize>,
    seed: Option<u64>,
}

#[rustfmt::skip]
const FLAGS: &[Flag<Args>] = &[
    Flag("--jobs", Some("N"), |o, v| put(&mut o.jobs, positive(v).map(Some))),
    Flag("--seed", Some("S"), |o, v| put(&mut o.seed, number(v).map(Some))),
];

fn main() {
    let args = parse_args(FLAGS);
    let (jobs, seed) = (
        args.jobs.unwrap_or(DEFAULT_JOBS),
        args.seed.unwrap_or(DEFAULT_SEED),
    );

    // A quarter of the jobs exceed the smallest member (and some the two
    // smallest), so the eligibility filter shapes every policy's choices.
    let total_nodes: f64 = POOL.iter().map(|&(_, w, h)| w as f64 * h as f64).sum();
    let stream = mixed_stream(jobs, seed, TARGET_OCCUPANCY * total_nodes, 1..=24, 28..=80);
    let mut rows = Vec::new();
    for policy in RoutingPolicy::all() {
        let row = run_policy(policy, &stream);
        let utils: Vec<String> = row
            .utilization
            .iter()
            .map(|(name, u)| format!("{name} {:>4.1}%", u * 100.0))
            .collect();
        println!(
            "{:<15} mean wait {:>8.1} s | p99 wait {:>8.0} s | waited {:>4}/{} | \
             makespan {:>8.0} s | util [{}] | imbalance {:>5.1}pp",
            row.policy.name(),
            row.mean_wait,
            row.p99_wait,
            row.waits,
            jobs,
            row.makespan,
            utils.join(", "),
            row.imbalance * 100.0,
        );
        rows.push(row);
    }

    let by = |policy: RoutingPolicy| -> &PolicyRow {
        rows.iter()
            .find(|r| r.policy == policy)
            .expect("all policies ran")
    };
    let rr = by(RoutingPolicy::RoundRobin);
    let ll = by(RoutingPolicy::LeastLoaded);
    let p2c = by(RoutingPolicy::PowerOfTwoChoices);
    let best_aware = ll.mean_wait.min(p2c.mean_wait);
    println!(
        "load-aware routing (best of LL/P2C) waits {:.2}x round-robin at \
         ~{:.0}% offered occupancy ({} jobs, seed {})",
        best_aware / rr.mean_wait.max(1e-9),
        TARGET_OCCUPANCY * 100.0,
        jobs,
        seed,
    );

    let mut out = Map::new();
    out.insert("benchmark".into(), "cluster_routing".to_value());
    out.insert("pool".into(), pool_json());
    out.insert("scheduler".into(), "FCFS".to_value());
    out.insert("target_occupancy".into(), TARGET_OCCUPANCY.to_value());
    out.insert("jobs".into(), jobs.to_value());
    out.insert("seed".into(), seed.to_value());
    out.insert(
        "results".into(),
        Value::Array(
            rows.iter()
                .map(|r| {
                    let mut row = Map::new();
                    row.insert("router".into(), r.policy.name().to_value());
                    row.insert("mean_wait_seconds".into(), r.mean_wait.to_value());
                    row.insert("p99_wait_seconds".into(), r.p99_wait.to_value());
                    row.insert("jobs_that_waited".into(), r.waits.to_value());
                    row.insert("makespan_seconds".into(), r.makespan.to_value());
                    let mut utils = Map::new();
                    for (name, u) in &r.utilization {
                        utils.insert(name.clone(), u.to_value());
                    }
                    row.insert("utilization".into(), Value::Object(utils));
                    row.insert("utilization_imbalance".into(), r.imbalance.to_value());
                    Value::Object(row)
                })
                .collect(),
        ),
    );
    out.insert(
        "load_aware_vs_round_robin_mean_wait".into(),
        (best_aware / rr.mean_wait.max(1e-9)).to_value(),
    );
    let json = serde_json::to_string_pretty(&Value::Object(out)).expect("rendering is infallible");
    std::fs::write("BENCH_cluster.json", &json).expect("can write BENCH_cluster.json");
    println!("wrote BENCH_cluster.json");
    // The acceptance gate applies to the canonical configuration only:
    // routing carries no ordering guarantee on arbitrary seeds/mixes, so
    // a custom run reports without aborting.
    if jobs == DEFAULT_JOBS && seed == DEFAULT_SEED {
        assert!(
            best_aware < rr.mean_wait,
            "load-aware routing should beat round-robin on mean queue wait \
             on the canonical heterogeneous workload"
        );
    } else if best_aware >= rr.mean_wait {
        eprintln!("note: round-robin wins on this custom workload");
    }
}
