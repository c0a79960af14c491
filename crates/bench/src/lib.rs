//! Shared harness code for the figure-regeneration binaries and Criterion
//! benchmarks.
//!
//! Every binary under `src/bin/` regenerates one figure or table of the
//! paper. They share:
//!
//! * [`cli`] — the figure binaries' flags (`--jobs N`, `--full`, `--seed S`,
//!   `--pattern P`, `--include-first-fit`), one table on the CLI's
//!   flag parser; [`parse_args`] runs any such table over the process
//!   arguments, which is how the service benchmarks take theirs too;
//! * [`response_sweep`], [`contiguity_sweep`] and [`probe_study`] — the
//!   trace-driven experiments of Figures 7/8, 11 and 9/10, one function
//!   each, which the `fig*` binaries print, the reproduction digest
//!   judges and the `figures` bench times;
//! * [`Churn`] — the steady-state alloc/release churn the journal and
//!   observability overhead benchmarks time, parameterised by how one
//!   operation reaches the service;
//! * [`mixed_stream`], [`POOL`] and [`pooled_service`] — the mixed-size
//!   job stream and the heterogeneous four-machine pool the scheduler
//!   and routing studies replay;
//! * [`standard_trace`] — the synthetic SDSC-Paragon-like trace used by
//!   default, subsampled so the default run finishes in minutes; `--full`
//!   switches to the full 6087-job workload the paper uses;
//! * [`dispersion_allocations`] — machine states of varying fragmentation
//!   used by the Figure 1 experiment;
//! * [`probe_jobs`] — the 128-processor probe jobs that reproduce the
//!   Figure 9/10 job population;
//! * [`save_json`] — writes a binary's result under `target/experiments/`.

use commalloc::experiment::PAPER_LOAD_FACTORS;
use commalloc::prelude::*;
use commalloc::report;
use commalloc::stats::{pearson_correlation, spearman};
use commalloc_alloc::AllocRequest;
use commalloc_cli::args::{number, parse_flags, put, usage_lines, Flag};
use commalloc_mesh::NodeId;
use commalloc_service::{AllocationService, ReplayJob, RoutingPolicy};
use commalloc_workload::Job;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Map, Serialize, Value};
use std::ops::RangeInclusive;

/// Default number of trace jobs for the figure binaries; chosen so a full
/// figure sweep finishes in a few minutes on a laptop while preserving the
/// qualitative allocator ordering. `--full` restores the paper's 6087 jobs.
pub const DEFAULT_JOBS: usize = 800;

/// Parsed command-line options shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Number of synthetic trace jobs.
    pub jobs: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Restrict to one communication pattern (where applicable).
    pub pattern: Option<CommPattern>,
    /// Include the First Fit configurations the paper measured but omitted
    /// from its graphs.
    pub include_first_fit: bool,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            jobs: DEFAULT_JOBS,
            seed: 1996,
            pattern: None,
            include_first_fit: false,
        }
    }
}

#[rustfmt::skip]
const CLI_FLAGS: &[Flag<Cli>] = &[
    Flag("--jobs", Some("N"), |o, v| put(&mut o.jobs, number(v))),
    Flag("--full", None, |o, _| put(&mut o.jobs, Some(6087))),
    Flag("--seed", Some("S"), |o, v| put(&mut o.seed, number(v))),
    Flag("--pattern", Some("all-to-all|n-body|random"),
        |o, v| put(&mut o.pattern, CommPattern::parse(v).map(Some))),
    Flag("--include-first-fit", None, |o, _| put(&mut o.include_first_fit, Some(true))),
];

/// Parses the figure binaries' common flags from `std::env::args`.
pub fn cli() -> Cli {
    parse_args(CLI_FLAGS)
}

/// Parses the process arguments against a binary's flag table. `--help`
/// prints the usage line generated from the table; an unknown flag, a
/// missing value or a malformed value prints the error and that line and
/// exits 2 — a typo must not run the default configuration (or switch a
/// `--min-*` gate off) and still exit 0.
pub fn parse_args<O: Default>(table: &[Flag<O>]) -> O {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    let args: Vec<String> = args.collect();
    let usage = format!(
        "usage: {program} {}",
        usage_lines(table, usize::MAX).join(" ")
    );
    if args.iter().any(|arg| arg == "--help" || arg == "-h") {
        println!("{usage}");
        std::process::exit(0);
    }
    parse_flags(table, &args).unwrap_or_else(|err| {
        eprintln!("error: {err}\n{usage}");
        std::process::exit(2)
    })
}

/// What one churn step asks of the service.
pub enum ChurnOp {
    /// Allocate `size` processors to job `job`; answered `true` when
    /// granted.
    Alloc { job: u64, size: usize },
    /// Release a live job; must succeed.
    Release(u64),
}

/// Steady-state churn on one 16×16 machine: pre-filled to a target
/// occupancy with 1–8-processor jobs, then per step one random live job
/// is released and fresh random-size jobs are allocated until one is
/// refused, so every counted operation commits. The caller supplies how
/// an operation reaches the service (a direct call, a wire line).
pub struct Churn {
    rng: StdRng,
    live: Vec<u64>,
    next_job: u64,
}

impl Churn {
    /// Fills the (empty) machine to `occupancy` of its 256 processors.
    pub fn prefill(occupancy: f64, seed: u64, mut dispatch: impl FnMut(ChurnOp) -> bool) -> Churn {
        let mut churn = Churn {
            rng: StdRng::seed_from_u64(seed),
            live: Vec::new(),
            next_job: 0,
        };
        let target = (occupancy * 256.0) as usize;
        let mut busy = 0usize;
        while busy < target {
            match churn.alloc(&mut dispatch) {
                Some(size) => busy += size,
                None => break,
            }
        }
        churn
    }

    /// One allocation attempt; the size granted.
    fn alloc(&mut self, dispatch: &mut impl FnMut(ChurnOp) -> bool) -> Option<usize> {
        let (job, size) = (self.next_job, self.rng.gen_range(1usize..=8));
        dispatch(ChurnOp::Alloc { job, size }).then(|| {
            self.live.push(job);
            self.next_job += 1;
            size
        })
    }

    /// Advances the churn by up to `ops` operations (one allocate or one
    /// release each) and returns how many it performed: fewer only when
    /// no job is live to release.
    pub fn run(&mut self, ops: usize, mut dispatch: impl FnMut(ChurnOp) -> bool) -> usize {
        let mut performed = 0usize;
        while performed < ops && !self.live.is_empty() {
            let victim = self
                .live
                .swap_remove(self.rng.gen_range(0..self.live.len()));
            assert!(dispatch(ChurnOp::Release(victim)), "victim is live");
            performed += 1;
            while performed < ops && self.alloc(&mut dispatch).is_some() {
                performed += 1;
            }
        }
        performed
    }
}

/// A mixed-size job stream whose offered load keeps about `busy_nodes`
/// processors busy: three jobs in four draw their size from `small`,
/// the fourth from `large`; durations are 50–500 s and inter-arrivals
/// uniform around the mean that offers that load. Everything is
/// integral, so a replay in virtual time is exactly reproducible.
pub fn mixed_stream(
    jobs: usize,
    seed: u64,
    busy_nodes: f64,
    small: RangeInclusive<usize>,
    large: RangeInclusive<usize>,
) -> Vec<ReplayJob> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mean = |range: &RangeInclusive<usize>| (range.start() + range.end()) as f64 / 2.0;
    let mean_size = 0.75 * mean(&small) + 0.25 * mean(&large);
    let mean_duration = 275.0;
    let mean_interarrival = (mean_size * mean_duration) / busy_nodes;
    let mut arrival = 0.0f64;
    (0..jobs as u64)
        .map(|id| {
            let size = if rng.gen_bool(0.75) {
                rng.gen_range(small.clone())
            } else {
                rng.gen_range(large.clone())
            };
            let duration = rng.gen_range(50u64..=500) as f64;
            arrival += rng.gen_range(1u64..=(2.0 * mean_interarrival) as u64) as f64;
            ReplayJob::new(id, size, arrival, duration)
        })
        .collect()
}

/// The heterogeneous pool of the routing studies, as `(name, width,
/// height)`: 256 + 128 + 64 + 32 = 480 processors.
pub const POOL: [(&str, u16, u16); 4] = [("m0", 16, 16), ("m1", 16, 8), ("m2", 8, 8), ("m3", 8, 4)];

/// A fresh service with [`POOL`] registered as pool `grid`, routed by
/// `policy`.
pub fn pooled_service(policy: RoutingPolicy) -> AllocationService {
    let service = AllocationService::new();
    for (name, w, h) in POOL {
        service
            .register_in_pool(name, &format!("{w}x{h}"), None, None, None, Some("grid"))
            .expect("fresh service accepts registration");
    }
    service
        .set_router("grid", policy.name())
        .expect("policy parses");
    service
}

/// [`POOL`] as the `"pool"` entry of a `BENCH_*.json` file.
pub fn pool_json() -> Value {
    let members = POOL.iter().map(|&(name, w, h)| {
        let mut m = Map::new();
        m.insert("machine".into(), name.to_value());
        m.insert("mesh".into(), format!("{w}x{h}").to_value());
        m.insert("nodes".into(), (w as usize * h as usize).to_value());
        Value::Object(m)
    });
    Value::Array(members.collect())
}

/// The synthetic SDSC-Paragon-like trace used by the figure binaries.
pub fn standard_trace(jobs: usize, seed: u64) -> Trace {
    if jobs >= 6087 {
        ParagonTraceModel::default().generate(seed)
    } else {
        ParagonTraceModel::scaled(jobs).generate(seed)
    }
}

/// Produces `count` allocations of `size` processors with varying dispersion
/// on `mesh`: the machine is pre-occupied with increasing fractions of
/// randomly chosen busy processors before a Hilbert/Best-Fit allocation is
/// made, so later allocations are progressively more fragmented. Returns the
/// allocations in rank order together with their average pairwise distance.
pub fn dispersion_allocations(
    mesh: Mesh2D,
    size: usize,
    count: usize,
    seed: u64,
) -> Vec<(Vec<NodeId>, f64)> {
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64));
        let busy_fraction = 0.75 * i as f64 / count.max(1) as f64;
        let mut machine = MachineState::new(mesh);
        let mut nodes: Vec<NodeId> = mesh.nodes().collect();
        nodes.shuffle(&mut rng);
        let busy_count =
            ((mesh.num_nodes() as f64 * busy_fraction) as usize).min(mesh.num_nodes() - size);
        machine.occupy(&nodes[..busy_count]);
        let mut allocator = AllocatorKind::HilbertBestFit.build(mesh);
        let alloc = allocator
            .allocate(&AllocRequest::new(i as u64, size), &machine)
            .expect("enough processors remain free");
        let dispersion = mesh.avg_pairwise_distance(&alloc.nodes);
        out.push((alloc.nodes, dispersion));
    }
    out
}

/// Inserts `count` probe jobs of `size` processors into `trace`, evenly
/// spread over its timeline, each with a message quota drawn uniformly from
/// `quota_range`. This reproduces the Figure 9/10 population: "instances of
/// the largest jobs (128 processors) sending between 39,900 and 44,000
/// messages ... 24 jobs in each simulation".
pub fn probe_jobs(
    trace: &Trace,
    count: usize,
    size: usize,
    quota_range: (u64, u64),
    seed: u64,
) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let span = trace
        .jobs()
        .last()
        .map(|j| j.arrival)
        .unwrap_or(1.0)
        .max(1.0);
    let mut jobs: Vec<Job> = trace.jobs().to_vec();
    let base_id = jobs.len() as u64;
    for i in 0..count {
        let arrival = span * (i as f64 + 0.5) / count as f64;
        let quota = rng.gen_range(quota_range.0..=quota_range.1);
        jobs.push(Job::new(base_id + i as u64, arrival, size, quota as f64));
    }
    Trace::new(jobs)
}

/// Writes `value` to `target/experiments/<name>.json` and says where on
/// stderr; a failure to write is reported, not fatal.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    match report::write_json(name, value) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write JSON: {e}"),
    }
}

/// The Figure 7/8 response-time experiment on `mesh` at `loads`: the
/// nine plotted allocators (plus the three First Fit ones under
/// `--include-first-fit`) × the three patterns (or `--pattern`'s one),
/// FCFS, on the standard trace, simulated under `--seed`.
pub fn response_sweep(cli: &Cli, mesh: Mesh2D, loads: &[f64]) -> SweepResult {
    let mut sweep = LoadSweep::paper_figure(mesh, cli.seed);
    sweep.load_factors = loads.to_vec();
    if let Some(pattern) = cli.pattern {
        sweep.patterns = vec![pattern];
    }
    if cli.include_first_fit {
        sweep.allocators.extend([
            AllocatorKind::HilbertFirstFit,
            AllocatorKind::SCurveFirstFit,
            AllocatorKind::HIndexFirstFit,
        ]);
    }
    sweep.run(&standard_trace(cli.jobs, cli.seed))
}

/// The body of the Figure 7 and Figure 8 binaries: runs
/// [`response_sweep`] at the paper's five loads, prints one
/// response-time table and allocator ranking per pattern under
/// `=== <heading> — <pattern> ===`, and saves the sweep as `<name>.json`.
pub fn print_response_figure(name: &str, heading: &str, mesh: Mesh2D) {
    let cli = cli();
    eprintln!("{name}: {} jobs, 5 loads...", cli.jobs);
    let result = response_sweep(&cli, mesh, &PAPER_LOAD_FACTORS);
    let mut patterns: Vec<CommPattern> = result.points.iter().map(|p| p.pattern).collect();
    patterns.dedup();
    for pattern in patterns {
        println!("=== {heading} — {pattern} ===");
        println!("{}", report::response_time_table(&result, pattern));
        println!("ranking (mean response across loads, best first):");
        for (i, (a, rt)) in result.ranking(pattern).iter().enumerate() {
            println!("  {:>2}. {:<16} {:>12.0} s", i + 1, a.name(), rt);
        }
        println!();
    }
    save_json(name, &result);
}

/// The Figure 11 experiment: the twelve configurations of the paper's
/// contiguity table, all-to-all on the 16 × 16 mesh at load 1.0, on the
/// standard trace, simulated under `--seed`.
pub fn contiguity_sweep(cli: &Cli) -> SweepResult {
    let mesh = Mesh2D::square_16x16();
    let sweep = LoadSweep {
        patterns: vec![CommPattern::AllToAll],
        allocators: AllocatorKind::figure11_set().to_vec(),
        load_factors: vec![1.0],
        ..LoadSweep::paper_figure(mesh, cli.seed)
    };
    sweep.run(&standard_trace(cli.jobs, cli.seed))
}

/// Size of the Figure 9/10 probe jobs, in processors.
pub const PROBE_SIZE: usize = 128;
/// Message quotas of the Figure 9/10 probe jobs.
pub const PROBE_QUOTAS: (u64, u64) = (39_900, 44_000);

/// One probe job's observation in the Figure 9/10 study.
#[derive(Debug, Clone, Serialize)]
pub struct ProbeRecord {
    /// The allocator that placed the job.
    pub allocator: String,
    /// The probe's trace id.
    pub job_id: u64,
    /// Average pairwise distance of its allocation (Figure 9's x-axis).
    pub avg_pairwise_distance: f64,
    /// Average distance its messages travelled (Figure 10's x-axis).
    pub avg_message_distance: f64,
    /// Its running time in seconds (both figures' y-axis).
    pub running_time: f64,
}

/// How tightly running time tracks one distance metric.
#[derive(Debug, Clone, Copy)]
pub struct Correlation {
    /// Pearson's r.
    pub pearson: f64,
    /// Spearman's rank correlation; `None` when undefined.
    pub spearman: Option<f64>,
}

impl Correlation {
    fn of(xs: &[f64], ys: &[f64]) -> Correlation {
        let pairs: Vec<(f64, f64)> = xs.iter().copied().zip(ys.iter().copied()).collect();
        Correlation {
            pearson: pearson_correlation(xs, ys),
            spearman: spearman(&pairs),
        }
    }
}

/// What the Figure 9/10 study observed.
#[derive(Debug, Clone)]
pub struct ProbeStudy {
    /// Every probe job under every allocator, allocator by allocator.
    pub records: Vec<ProbeRecord>,
    /// Figure 9: running time against pairwise distance.
    pub pairwise: Correlation,
    /// Figure 10: running time against message distance.
    pub message: Correlation,
}

/// The Figure 9/10 experiment: 24 probe jobs of [`PROBE_SIZE`]
/// processors with quotas in [`PROBE_QUOTAS`] ([`probe_jobs`], seeded by
/// `--seed` ^ 0x99) are inserted into the standard trace, which runs
/// n-body at load 1.0 on the 16 × 16 mesh under each of the paper's nine
/// allocators, simulated under `--seed`. The correlations pool the
/// probes of all nine runs.
pub fn probe_study(cli: &Cli) -> ProbeStudy {
    let mesh = Mesh2D::square_16x16();
    let base = standard_trace(cli.jobs, cli.seed).filter_fitting(mesh.num_nodes());
    let trace = probe_jobs(&base, 24, PROBE_SIZE, PROBE_QUOTAS, cli.seed ^ 0x99);
    let (low, high) = PROBE_QUOTAS;
    let mut records = Vec::new();
    for allocator in AllocatorKind::paper_set() {
        let config = SimConfig::new(mesh, CommPattern::NBody, allocator).with_seed(cli.seed);
        let result = simulate(&trace, &config);
        records.extend(
            result
                .records
                .iter()
                .filter(|r| r.size == PROBE_SIZE && (low..=high).contains(&r.messages))
                .map(|r| ProbeRecord {
                    allocator: allocator.name().to_string(),
                    job_id: r.job_id,
                    avg_pairwise_distance: r.avg_pairwise_distance,
                    avg_message_distance: r.avg_message_distance,
                    running_time: r.running_time(),
                }),
        );
    }
    let column = |f: fn(&ProbeRecord) -> f64| records.iter().map(f).collect::<Vec<f64>>();
    let running = column(|r| r.running_time);
    ProbeStudy {
        pairwise: Correlation::of(&column(|r| r.avg_pairwise_distance), &running),
        message: Correlation::of(&column(|r| r.avg_message_distance), &running),
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispersion_allocations_span_a_range() {
        let allocs = dispersion_allocations(Mesh2D::square_16x16(), 30, 10, 3);
        assert_eq!(allocs.len(), 10);
        let min = allocs.iter().map(|(_, d)| *d).fold(f64::INFINITY, f64::min);
        let max = allocs.iter().map(|(_, d)| *d).fold(0.0, f64::max);
        assert!(max > min, "dispersion should vary across allocations");
        for (nodes, _) in &allocs {
            assert_eq!(nodes.len(), 30);
        }
    }

    #[test]
    fn probe_jobs_are_inserted_with_requested_parameters() {
        let base = standard_trace(50, 1);
        let with_probes = probe_jobs(&base, 24, 128, (39_900, 44_000), 9);
        assert_eq!(with_probes.len(), 74);
        let probes: Vec<_> = with_probes
            .jobs()
            .iter()
            .filter(|j| j.size == 128 && j.runtime >= 39_900.0)
            .collect();
        assert_eq!(probes.len(), 24);
    }

    #[test]
    fn standard_trace_scales() {
        assert_eq!(standard_trace(100, 7).len(), 100);
    }
}
