//! Routing-policy study on a communication-heavy SWF trace: does
//! shortest-queue's dominance (established by `cluster_routing` on a
//! pattern-free stream) survive once jobs declare communication
//! patterns and placement quality starts to matter?
//!
//! The job stream is the synthetic SDSC-Paragon trace (Section 3.1 of
//! the paper), round-tripped through the SWF reader so a real trace can
//! be substituted with `--swf FILE`, load-compressed onto the
//! heterogeneous 4-machine pool, and annotated with a deterministic
//! communication-heavy pattern mix (~70% of jobs declare a pattern,
//! weighted towards all-to-all and all-pairs ping-pong). Every
//! `RoutingPolicy` routes the same stream through `replay_cluster` in
//! deterministic virtual time; besides the queue-wait statistics the
//! study scores every patterned grant's *actual placement* with
//! [`commalloc_service::score::predicted_contention_2d`] — the same
//! metric the comm-aware router minimises — so the output separates the
//! two axes: who waits least, and who places best.
//!
//! The study runs at two load levels, because the answer differs. At
//! *moderate* load (most jobs granted promptly) routing choice controls
//! placement: comm-aware beats every policy on both axes and
//! shortest-queue's wait dominance does not survive. At *saturation*
//! the realized placement score is dominated by how full the chosen
//! machine is at grant time, which favours the slow-but-spread routers
//! on the contention axis even as they lose badly on wait.
//!
//! Emits `BENCH_routing.json`. On the canonical configuration the
//! comm-aware router must achieve a mean predicted contention no worse
//! than round-robin's at the moderate level (the CI bench gate).
//!
//! Usage: `routing_study [--jobs N] [--seed S] [--load F] [--swf FILE]`
//! (`--load` replaces the canonical two-level sweep with one custom
//! level, which disables the gate.)

use commalloc_bench::{parse_args, pool_json, pooled_service, POOL};
use commalloc_cli::args::{number, put, text, unit_interval, Flag};
use commalloc_mesh::Mesh2D;
use commalloc_service::score::predicted_contention_2d;
use commalloc_service::{replay_cluster, ReplayJob, RoutingPolicy};
use commalloc_workload::synthetic::ParagonTraceModel;
use commalloc_workload::{swf, CommPattern, Trace};
use serde::{Map, Serialize, Value};
use std::collections::HashMap;

const LARGEST_MEMBER: usize = 256;
const DEFAULT_JOBS: usize = 400;
const DEFAULT_SEED: u64 = 1996;
/// The canonical load levels (the paper's arrival-compression knob):
/// the Paragon stream offers ~25% of this pool, so 0.6 roughly doubles
/// the load (moderate — queues form but drain) and 0.3 saturates it.
const LOAD_LEVELS: [(&str, f64); 2] = [("moderate", 0.6), ("saturated", 0.3)];

/// The deterministic communication-heavy pattern mix: ~70% of jobs
/// declare a pattern, weighted towards the densest ones. Keyed on the
/// job id only, so the same trace always carries the same annotations.
fn assign_pattern(id: u64) -> Option<CommPattern> {
    match id % 10 {
        0..=2 => Some(CommPattern::AllToAll),
        3 | 4 => Some(CommPattern::AllPairsPingPong),
        5 => Some(CommPattern::TestSuite),
        6 => Some(CommPattern::Stencil2D),
        7 => Some(CommPattern::Ring),
        _ => None,
    }
}

/// Loads the trace: a real SWF file when given, otherwise the synthetic
/// Paragon model round-tripped through the SWF writer/reader (so both
/// paths exercise exactly the trace plumbing a real file would).
fn load_trace(swf_path: Option<&str>, jobs: usize, seed: u64) -> Trace {
    match swf_path {
        Some(path) => swf::parse_file(path)
            .unwrap_or_else(|e| panic!("cannot parse SWF trace {path}: {e}"))
            .truncate(jobs),
        None => {
            let synthetic = ParagonTraceModel::scaled(jobs).generate(seed);
            let mut wire = Vec::new();
            swf::write_writer(&synthetic, &mut wire).expect("in-memory SWF write");
            swf::parse_reader(&wire[..]).expect("the SWF writer emits parseable SWF")
        }
    }
}

/// Converts the (load-compressed, fitting) trace into the patterned
/// replay stream. Durations are the integral message quotas, keeping
/// every virtual event time exact in `f64`.
fn replay_jobs(trace: &Trace) -> Vec<ReplayJob> {
    trace
        .jobs()
        .iter()
        .map(|j| {
            let job = ReplayJob::new(j.id, j.size, j.arrival, j.message_quota() as f64);
            match assign_pattern(j.id) {
                Some(p) => job.with_pattern(p),
                None => job,
            }
        })
        .collect()
}

struct PolicyRow {
    policy: RoutingPolicy,
    mean_wait: f64,
    p99_wait: f64,
    makespan: f64,
    mean_contention: f64,
    scored_grants: u64,
}

fn run_policy(policy: RoutingPolicy, jobs: &[ReplayJob]) -> PolicyRow {
    let service = pooled_service(policy);
    let log = replay_cluster(&service, "grid", jobs, None);
    assert!(log.rejected.is_empty(), "curve allocators never refuse");
    let granted: usize = log.grants.values().map(Vec::len).sum();
    assert_eq!(granted, jobs.len(), "every job must run");

    let by_id: HashMap<u64, &ReplayJob> = jobs.iter().map(|j| (j.id, j)).collect();
    let mut waits: Vec<f64> = Vec::with_capacity(jobs.len());
    let mut contention_sum = 0.0f64;
    let mut scored = 0u64;
    for (name, w, h) in POOL {
        let mesh = Mesh2D::new(w, h);
        for grant in &log.grants[name] {
            let job = by_id[&grant.job_id];
            waits.push(grant.time - job.arrival);
            if let Some(pattern) = job.pattern {
                contention_sum +=
                    predicted_contention_2d(mesh, &grant.nodes, pattern, grant.job_id).total();
                scored += 1;
            }
        }
    }
    waits.sort_by(f64::total_cmp);
    PolicyRow {
        policy,
        mean_wait: waits.iter().sum::<f64>() / waits.len() as f64,
        p99_wait: waits[((0.99 * waits.len() as f64).ceil() as usize).clamp(1, waits.len()) - 1],
        makespan: log.end_time,
        mean_contention: contention_sum / scored.max(1) as f64,
        scored_grants: scored,
    }
}

/// The flags as given; an absent one takes its default in `main`.
#[derive(Default)]
struct Args {
    jobs: Option<usize>,
    seed: Option<u64>,
    load: Option<f64>,
    swf: Option<String>,
}

#[rustfmt::skip]
const FLAGS: &[Flag<Args>] = &[
    Flag("--jobs", Some("N"), |o, v| put(&mut o.jobs, number(v).map(Some))),
    Flag("--seed", Some("S"), |o, v| put(&mut o.seed, number(v).map(Some))),
    Flag("--load", Some("F"), |o, v| put(&mut o.load, unit_interval(v).map(Some))),
    Flag("--swf", Some("FILE"), |o, v| put(&mut o.swf, text(v).map(Some))),
];

fn main() {
    let Args {
        jobs,
        seed,
        load: custom_load,
        swf: swf_path,
    } = parse_args(FLAGS);
    let (jobs, seed) = (jobs.unwrap_or(DEFAULT_JOBS), seed.unwrap_or(DEFAULT_SEED));

    let base = load_trace(swf_path.as_deref(), jobs, seed).filter_fitting(LARGEST_MEMBER);
    let levels: Vec<(&str, f64)> = match custom_load {
        Some(f) => vec![("custom", f)],
        None => LOAD_LEVELS.to_vec(),
    };

    let mut level_values = Vec::new();
    // The gated quantities, captured at the moderate level.
    let mut gate: Option<(f64, f64)> = None;
    for (level_name, load) in &levels {
        let stream = replay_jobs(&base.with_load_factor(*load));
        let patterned = stream.iter().filter(|j| j.pattern.is_some()).count();
        println!(
            "[{level_name}] {} jobs ({patterned} patterned) at load factor {load}, seed {seed}",
            stream.len(),
        );
        let mut rows = Vec::new();
        for policy in RoutingPolicy::all() {
            let row = run_policy(policy, &stream);
            println!(
                "  {:<15} mean wait {:>9.1} s | p99 wait {:>9.0} s | makespan {:>9.0} s | \
             mean contention {:>7.2} over {:>3} grants",
                row.policy.name(),
                row.mean_wait,
                row.p99_wait,
                row.makespan,
                row.mean_contention,
                row.scored_grants,
            );
            rows.push(row);
        }

        let by = |policy: RoutingPolicy| -> &PolicyRow {
            rows.iter()
                .find(|r| r.policy == policy)
                .expect("all policies ran")
        };
        let min_by = |key: fn(&PolicyRow) -> f64| -> &PolicyRow {
            rows.iter()
                .min_by(|a, b| key(a).total_cmp(&key(b)))
                .expect("rows is non-empty")
        };
        let rr = by(RoutingPolicy::RoundRobin);
        let sq = by(RoutingPolicy::ShortestQueue);
        let ca = by(RoutingPolicy::CommAware);
        let wait_winner = min_by(|r| r.mean_wait);
        let contention_winner = min_by(|r| r.mean_contention);
        println!(
            "  wait winner: {} ({:.1} s); contention winner: {} ({:.2}); \
         comm-aware contention is {:.2}x round-robin, wait {:.2}x shortest-queue",
            wait_winner.policy.name(),
            wait_winner.mean_wait,
            contention_winner.policy.name(),
            contention_winner.mean_contention,
            ca.mean_contention / rr.mean_contention.max(1e-9),
            ca.mean_wait / sq.mean_wait.max(1e-9),
        );
        if *level_name == "moderate" {
            gate = Some((ca.mean_contention, rr.mean_contention));
        }

        let mut level = Map::new();
        level.insert("level".into(), level_name.to_value());
        level.insert("load_factor".into(), load.to_value());
        level.insert("jobs".into(), stream.len().to_value());
        level.insert("patterned_jobs".into(), patterned.to_value());
        level.insert(
            "results".into(),
            Value::Array(
                rows.iter()
                    .map(|r| {
                        let mut row = Map::new();
                        row.insert("router".into(), r.policy.name().to_value());
                        row.insert("mean_wait_seconds".into(), r.mean_wait.to_value());
                        row.insert("p99_wait_seconds".into(), r.p99_wait.to_value());
                        row.insert("makespan_seconds".into(), r.makespan.to_value());
                        row.insert(
                            "mean_predicted_contention".into(),
                            r.mean_contention.to_value(),
                        );
                        row.insert("scored_grants".into(), r.scored_grants.to_value());
                        Value::Object(row)
                    })
                    .collect(),
            ),
        );
        level.insert(
            "mean_wait_winner".into(),
            wait_winner.policy.name().to_value(),
        );
        level.insert(
            "contention_winner".into(),
            contention_winner.policy.name().to_value(),
        );
        level.insert(
            "comm_aware_vs_round_robin_contention".into(),
            (ca.mean_contention / rr.mean_contention.max(1e-9)).to_value(),
        );
        level.insert(
            "comm_aware_vs_shortest_queue_wait".into(),
            (ca.mean_wait / sq.mean_wait.max(1e-9)).to_value(),
        );
        level_values.push(Value::Object(level));
    }

    let mut out = Map::new();
    out.insert("benchmark".into(), "routing_study".to_value());
    out.insert("pool".into(), pool_json());
    out.insert(
        "trace".into(),
        swf_path
            .as_deref()
            .unwrap_or("synthetic-paragon")
            .to_value(),
    );
    out.insert("seed".into(), seed.to_value());
    out.insert("levels".into(), Value::Array(level_values));
    let json = serde_json::to_string_pretty(&Value::Object(out)).expect("rendering is infallible");
    std::fs::write("BENCH_routing.json", &json).expect("can write BENCH_routing.json");
    println!("wrote BENCH_routing.json");

    // The acceptance gate applies to the canonical configuration only
    // (and to the moderate level: under saturation the realized score is
    // dominated by grant-time machine fullness, not routing choice); a
    // custom trace, seed or load carries no ordering guarantee, so it
    // reports without aborting.
    if swf_path.is_none() && jobs == DEFAULT_JOBS && seed == DEFAULT_SEED && custom_load.is_none() {
        let (ca, rr) = gate.expect("the canonical sweep includes the moderate level");
        assert!(
            ca <= rr,
            "comm-aware routing should not place patterned jobs worse than \
             round-robin at moderate load (comm-aware {ca:.3} vs round-robin {rr:.3})"
        );
    }
}
