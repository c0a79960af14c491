//! The trace-driven simulation engine.
//!
//! Replays a job trace against a machine, a scheduler, an allocator and a
//! communication pattern, and produces per-job [`JobRecord`]s. The engine is
//! event-driven: state only changes when a job arrives, starts or completes.
//! While the set of running jobs is fixed, each job delivers messages at the
//! constant rate assigned by the contention model, so the next completion
//! time is known in closed form — this is the fluid approximation (README §
//! "Substitutions this reproduction makes") that makes whole-trace sweeps
//! tractable.
//!
//! Timeline of one job (matching Section 3 of the paper):
//!
//! 1. the job arrives and enters the FCFS queue;
//! 2. when it reaches the head of the queue and enough processors are free,
//!    the allocator immediately places it (processors are dedicated until it
//!    terminates);
//! 3. the job must deliver one message per second of its trace runtime;
//!    its message rate is its max-min fair share of link capacity given every
//!    other running job's traffic;
//! 4. when the quota is met the job terminates and its processors are freed.

use crate::scheduler::{QueuedJob, SchedulerKind};
use crate::stats::{JobRecord, SimSummary};
use commalloc_alloc::{AllocRequest, Allocation, Allocator, AllocatorKind, MachineState};
use commalloc_mesh::Mesh2D;
use commalloc_net::fluid::{FluidNetwork, RateModel, ZeroContentionModel};
use commalloc_net::traffic::JobTraffic;
use commalloc_net::LinkTable;
use commalloc_workload::{CommPattern, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Which contention model drives job progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Fidelity {
    /// Max-min fair fluid sharing of link capacity (default; used for every
    /// figure reproduction).
    #[default]
    Fluid,
    /// Per-link proportional sharing without max-min redistribution — an
    /// ablation of the fairness discipline itself (see
    /// `commalloc_net::fluid::ProportionalShareModel`).
    ProportionalShare,
    /// Infinitely fast network: job durations equal trace runtimes, isolating
    /// pure queueing effects. Useful as a control.
    ZeroContention,
}

/// Default link capacity (message-crossings per second) used by
/// [`SimConfig::new`] and the figure sweeps; see the field documentation on
/// [`SimConfig::link_capacity`] for the calibration rationale.
pub const DEFAULT_LINK_CAPACITY: f64 = 0.25;

/// Default per-hop overhead (seconds of extra service per message per hop)
/// used by [`SimConfig::new`]; see [`SimConfig::per_hop_overhead`].
pub const DEFAULT_PER_HOP_OVERHEAD: f64 = 0.05;

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// The machine.
    pub mesh: Mesh2D,
    /// The communication pattern every job uses (the paper assumes all jobs
    /// share one pattern to maximise the interaction with the allocator).
    pub pattern: CommPattern,
    /// The allocation algorithm.
    pub allocator: AllocatorKind,
    /// The scheduling policy (FCFS in the paper).
    pub scheduler: SchedulerKind,
    /// The contention model.
    pub fidelity: Fidelity,
    /// Link capacity in message-crossings per second (fluid model knob).
    ///
    /// The default of 0.25 is calibrated so that a *compact* allocation of a
    /// typical trace job (~15 processors) runs at or near full rate while
    /// dispersed allocations that overlap other jobs' routes are slowed
    /// several-fold — the contention regime the paper's flit-level
    /// experiments operate in. README § "Substitutions this reproduction
    /// makes" says why the knob is calibrated rather than measured.
    pub link_capacity: f64,
    /// Extra service time per message per hop, in seconds, charged against
    /// the job's nominal one-message-per-second pacing: a job whose messages
    /// travel `D` hops on average can sustain at most `1 / (1 + overhead·D)`
    /// messages per second even on an idle network. This models the per-hop
    /// routing/serialisation cost that ProcSimity's flit-level simulation
    /// charges every message and is what makes running time track *message
    /// distance* (the paper's Figure 10) rather than only link sharing.
    pub per_hop_overhead: f64,
    /// Seed for the per-job randomness (random pattern realisations).
    pub seed: u64,
}

impl SimConfig {
    /// Creates a configuration with the paper's defaults (FCFS, fluid model,
    /// unit link capacity).
    pub fn new(mesh: Mesh2D, pattern: CommPattern, allocator: AllocatorKind) -> Self {
        SimConfig {
            mesh,
            pattern,
            allocator,
            scheduler: SchedulerKind::Fcfs,
            fidelity: Fidelity::Fluid,
            link_capacity: DEFAULT_LINK_CAPACITY,
            per_hop_overhead: DEFAULT_PER_HOP_OVERHEAD,
            seed: 0x1eaf,
        }
    }

    /// Returns a copy with a different per-hop overhead (0.0 disables the
    /// distance-dependent base cost entirely).
    pub fn with_per_hop_overhead(mut self, overhead: f64) -> Self {
        self.per_hop_overhead = overhead;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different fidelity.
    pub fn with_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Returns a copy with a different link capacity.
    pub fn with_link_capacity(mut self, capacity: f64) -> Self {
        self.link_capacity = capacity;
        self
    }

    /// Returns a copy with a different scheduler.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// The configuration that produced this result.
    pub config: SimConfig,
    /// Per-job records, in completion order.
    pub records: Vec<JobRecord>,
    /// Aggregate summary.
    pub summary: SimSummary,
}

/// One job start exactly as the engine performed it: which job started,
/// when, and on which processors. The sequence of grant events is the
/// engine's *grant log* — the ground truth the online service's
/// sim-equivalence harness compares against (same trace, same policy,
/// same allocator ⇒ byte-identical log).
#[derive(Debug, Clone, PartialEq)]
pub struct GrantEvent {
    /// The started job.
    pub job_id: u64,
    /// Simulated start time.
    pub time: f64,
    /// Processors requested (and granted).
    pub size: usize,
    /// The granted processors, in rank order.
    pub nodes: Vec<commalloc_mesh::NodeId>,
}

/// A job currently running on the machine.
struct RunningJob {
    job_id: u64,
    size: usize,
    arrival: f64,
    start: f64,
    messages: u64,
    remaining: f64,
    rate: f64,
    traffic: JobTraffic,
    nodes: Vec<commalloc_mesh::NodeId>,
    avg_pairwise_distance: f64,
    components: usize,
}

impl RunningJob {
    fn predicted_completion(&self, now: f64) -> f64 {
        debug_assert!(self.rate > 0.0);
        now + self.remaining / self.rate
    }
}

/// Simulates `trace` under `config` and returns per-job records.
///
/// Jobs larger than the machine are skipped with a warning record omitted
/// entirely (the paper removes them from the trace before simulating; use
/// [`Trace::filter_fitting`] to do the same explicitly).
pub fn simulate(trace: &Trace, config: &SimConfig) -> SimResult {
    simulate_impl(trace, config, None)
}

/// Like [`simulate`], but also returns the grant log: every job start in
/// the order the scheduler performed it, with its time and placement.
pub fn simulate_logged(trace: &Trace, config: &SimConfig) -> (SimResult, Vec<GrantEvent>) {
    let mut log = Vec::new();
    let result = simulate_impl(trace, config, Some(&mut log));
    (result, log)
}

/// The engine proper. `grant_log` is filled only when a caller wants the
/// log — the plain [`simulate`] path (parameter sweeps run thousands of
/// these) skips the per-start node-vector clones entirely.
fn simulate_impl(
    trace: &Trace,
    config: &SimConfig,
    mut grant_log: Option<&mut Vec<GrantEvent>>,
) -> SimResult {
    let mesh = config.mesh;
    let links = LinkTable::new(mesh);
    let fluid = FluidNetwork::with_capacity(links.num_slots(), config.link_capacity);
    let proportional = commalloc_net::fluid::ProportionalShareModel::with_capacity(
        links.num_slots(),
        config.link_capacity,
    );
    let zero = ZeroContentionModel;
    let model: &dyn RateModel = match config.fidelity {
        Fidelity::Fluid => &fluid,
        Fidelity::ProportionalShare => &proportional,
        Fidelity::ZeroContention => &zero,
    };

    let mut allocator: Box<dyn Allocator> = config.allocator.build(mesh);
    let mut machine = MachineState::new(mesh);
    let mut queue: Vec<QueuedJob> = Vec::new();
    let mut running: Vec<RunningJob> = Vec::new();
    let mut records: Vec<JobRecord> = Vec::new();

    // Jobs that can never fit are dropped up front, mirroring the paper's
    // removal of the 320-node jobs on the 16 x 16 machine.
    let jobs: Vec<_> = trace
        .jobs()
        .iter()
        .copied()
        .filter(|j| j.size <= mesh.num_nodes())
        .collect();

    let mut next_arrival = 0usize;
    let mut now = 0.0f64;

    // Advances every running job's remaining work to `now`.
    fn settle(running: &mut [RunningJob], last: f64, now: f64) {
        let dt = now - last;
        if dt <= 0.0 {
            return;
        }
        for job in running.iter_mut() {
            job.remaining = (job.remaining - job.rate * dt).max(0.0);
        }
    }

    // Recomputes fair rates after any change to the running set.
    fn recompute_rates(running: &mut [RunningJob], model: &dyn RateModel) {
        if running.is_empty() {
            return;
        }
        let traffics: Vec<&JobTraffic> = running.iter().map(|j| &j.traffic).collect();
        let rates = model.rates(&traffics);
        for (job, rate) in running.iter_mut().zip(rates) {
            job.rate = rate.max(1e-9);
        }
    }

    let mut last_event = 0.0f64;

    loop {
        // Next arrival and next completion.
        let arrival_time = jobs.get(next_arrival).map(|j| j.arrival);
        let completion = running
            .iter()
            .enumerate()
            .map(|(i, j)| (j.predicted_completion(now), i))
            .min_by(|a, b| a.0.total_cmp(&b.0));

        let (event_time, is_arrival) = match (arrival_time, &completion) {
            (Some(a), Some((c, _))) => {
                if a <= *c {
                    (a, true)
                } else {
                    (*c, false)
                }
            }
            (Some(a), None) => (a, true),
            (None, Some((c, _))) => (*c, false),
            (None, None) => break,
        };

        // Advance simulated time and job progress.
        now = event_time.max(now);
        settle(&mut running, last_event, now);
        last_event = now;

        if is_arrival {
            let job = jobs[next_arrival];
            next_arrival += 1;
            queue.push(QueuedJob {
                job_id: job.id,
                size: job.size,
                arrival: job.arrival,
                estimate: job.runtime,
            });
        } else {
            let (_, idx) = completion.expect("completion event requires a running job");
            let done = running.swap_remove(idx);
            machine.release(&done.nodes);
            allocator.release(&Allocation::new(done.job_id, done.nodes.clone()), &machine);
            records.push(JobRecord {
                job_id: done.job_id,
                size: done.size,
                messages: done.messages,
                arrival: done.arrival,
                start: done.start,
                completion: now,
                avg_pairwise_distance: done.avg_pairwise_distance,
                avg_message_distance: done.traffic.avg_message_distance,
                components: done.components,
            });
        }

        // Start as many queued jobs as the scheduler allows.
        let mut started_any = false;
        loop {
            // Reservation-based schedulers (EASY) need the predicted
            // completion of every running job.
            let snapshots: Vec<crate::scheduler::RunningSnapshot> = running
                .iter()
                .map(|j| crate::scheduler::RunningSnapshot {
                    completion: j.predicted_completion(now),
                    size: j.size,
                })
                .collect();
            let Some(pos) =
                config
                    .scheduler
                    .select_with_context(&queue, machine.num_free(), &snapshots, now)
            else {
                break;
            };
            let queued = queue.remove(pos);
            let trace_job = jobs
                .iter()
                .find(|j| j.id == queued.job_id)
                .expect("queued job comes from the trace");
            let request = AllocRequest::new(queued.job_id, queued.size);
            let Some(allocation) = allocator.allocate(&request, &machine) else {
                // Contiguous-only strategies may refuse a request even though
                // enough processors are free (no suitable rectangle/block).
                if machine.num_busy() == 0 {
                    // The machine is empty, so this job can never be placed
                    // by this allocator; drop it rather than deadlocking the
                    // queue (the paper's traces never trigger this for the
                    // algorithms it evaluates).
                    continue;
                }
                // Otherwise the job waits for a future release to open up a
                // suitable region; put it back and stop starting jobs at this
                // event.
                queue.insert(pos, queued);
                break;
            };
            machine.occupy(&allocation.nodes);

            // Per-job RNG so the random pattern realisation is reproducible
            // and independent of simulation interleaving.
            let mut job_rng = StdRng::seed_from_u64(
                config.seed ^ queued.job_id.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            let quota = trace_job.message_quota();
            let mut traffic = JobTraffic::new(
                mesh,
                &links,
                queued.job_id,
                &allocation.nodes,
                &config.pattern.traffic(queued.size, quota, &mut job_rng),
                1.0,
            );
            // Charge the per-hop routing cost against the nominal pacing:
            // longer routes mean fewer messages per second even uncontended.
            if config.fidelity != Fidelity::ZeroContention {
                traffic.nominal_rate =
                    1.0 / (1.0 + config.per_hop_overhead * traffic.avg_message_distance);
            }
            let quality = commalloc_alloc::metrics::quality(mesh, &allocation.nodes);
            if let Some(log) = grant_log.as_deref_mut() {
                log.push(GrantEvent {
                    job_id: queued.job_id,
                    time: now,
                    size: queued.size,
                    nodes: allocation.nodes.clone(),
                });
            }
            running.push(RunningJob {
                job_id: queued.job_id,
                size: queued.size,
                arrival: queued.arrival,
                start: now,
                messages: quota,
                remaining: quota as f64,
                rate: 1.0,
                traffic,
                nodes: allocation.nodes.clone(),
                avg_pairwise_distance: quality.avg_pairwise_distance,
                components: quality.components,
            });
            started_any = true;
        }

        // Rates change whenever the running set changes (a start or a
        // completion); arrivals that only queue do not disturb the network.
        if started_any || !is_arrival {
            recompute_rates(&mut running, model);
        }
    }

    records.sort_by(|a, b| a.completion.total_cmp(&b.completion));
    let summary = SimSummary::from_records(&records);
    SimResult {
        config: *config,
        records,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commalloc_workload::synthetic::ParagonTraceModel;
    use commalloc_workload::Job;

    fn tiny_trace() -> Trace {
        Trace::new(vec![
            Job::new(0, 0.0, 4, 100.0),
            Job::new(1, 10.0, 8, 200.0),
            Job::new(2, 20.0, 16, 50.0),
        ])
    }

    #[test]
    fn all_jobs_complete_and_processors_are_returned() {
        let config = SimConfig::new(
            Mesh2D::square_16x16(),
            CommPattern::AllToAll,
            AllocatorKind::HilbertBestFit,
        );
        let result = simulate(&tiny_trace(), &config);
        assert_eq!(result.records.len(), 3);
        for r in &result.records {
            assert!(r.start >= r.arrival);
            assert!(r.completion > r.start);
        }
    }

    #[test]
    fn zero_contention_durations_equal_trace_runtimes() {
        let config = SimConfig::new(
            Mesh2D::square_16x16(),
            CommPattern::AllToAll,
            AllocatorKind::HilbertBestFit,
        )
        .with_fidelity(Fidelity::ZeroContention);
        let result = simulate(&tiny_trace(), &config);
        for r in &result.records {
            assert!(
                (r.running_time() - r.messages as f64).abs() < 1e-6,
                "job {} ran {} s for {} messages",
                r.job_id,
                r.running_time(),
                r.messages
            );
        }
    }

    #[test]
    fn uncontended_fluid_matches_zero_contention() {
        // A lone small job can never saturate a link, so with the per-hop
        // overhead disabled the fluid model must agree with the
        // zero-contention control.
        let trace = Trace::new(vec![Job::new(0, 0.0, 9, 500.0)]);
        let base = SimConfig::new(
            Mesh2D::square_16x16(),
            CommPattern::AllToAll,
            AllocatorKind::HilbertBestFit,
        )
        .with_per_hop_overhead(0.0);
        let fluid = simulate(&trace, &base);
        let zero = simulate(&trace, &base.with_fidelity(Fidelity::ZeroContention));
        assert!((fluid.records[0].running_time() - zero.records[0].running_time()).abs() < 1e-6);
    }

    #[test]
    fn per_hop_overhead_charges_longer_routes() {
        // A lone job on an idle machine: its running time must equal
        // quota * (1 + overhead * avg_message_distance).
        let trace = Trace::new(vec![Job::new(0, 0.0, 16, 1000.0)]);
        let config = SimConfig::new(
            Mesh2D::square_16x16(),
            CommPattern::AllToAll,
            AllocatorKind::HilbertBestFit,
        )
        .with_per_hop_overhead(0.1);
        let result = simulate(&trace, &config);
        let r = &result.records[0];
        let expected = r.messages as f64 * (1.0 + 0.1 * r.avg_message_distance);
        assert!(
            (r.running_time() - expected).abs() < 1e-6,
            "running {} vs expected {}",
            r.running_time(),
            expected
        );
        // And a dispersion-oblivious allocation of the same job runs longer.
        let random = simulate(
            &trace,
            &SimConfig::new(
                Mesh2D::square_16x16(),
                CommPattern::AllToAll,
                AllocatorKind::Random,
            )
            .with_per_hop_overhead(0.1),
        );
        assert!(random.records[0].running_time() > r.running_time());
    }

    #[test]
    fn fcfs_makes_late_small_jobs_wait_behind_a_blocked_head() {
        // Job 0 fills the whole machine; job 1 (huge) blocks; job 2 is small
        // but must wait behind job 1 under FCFS.
        let trace = Trace::new(vec![
            Job::new(0, 0.0, 256, 100.0),
            Job::new(1, 1.0, 200, 100.0),
            Job::new(2, 2.0, 1, 10.0),
        ]);
        let fcfs = SimConfig::new(
            Mesh2D::square_16x16(),
            CommPattern::AllToAll,
            AllocatorKind::HilbertBestFit,
        );
        let result = simulate(&trace, &fcfs);
        let job2 = result.records.iter().find(|r| r.job_id == 2).unwrap();
        let job1 = result.records.iter().find(|r| r.job_id == 1).unwrap();
        assert!(
            job2.start >= job1.start,
            "FCFS must not let job 2 jump ahead"
        );

        // With backfilling, the small job starts immediately after arrival
        // (it fits alongside nothing being free? no — machine is full) — so
        // instead check it starts no later than under FCFS.
        let bf = result.summary.mean_response_time;
        let backfill = simulate(
            &trace,
            &fcfs.with_scheduler(SchedulerKind::FirstFitBackfill),
        );
        assert!(backfill.summary.mean_response_time <= bf + 1e-9);
    }

    #[test]
    fn jobs_too_large_for_the_machine_are_dropped() {
        let trace = Trace::new(vec![
            Job::new(0, 0.0, 320, 100.0),
            Job::new(1, 1.0, 4, 100.0),
        ]);
        let config = SimConfig::new(
            Mesh2D::square_16x16(),
            CommPattern::NBody,
            AllocatorKind::Mc,
        );
        let result = simulate(&trace, &config);
        assert_eq!(result.records.len(), 1);
        assert_eq!(result.records[0].job_id, 1);
    }

    #[test]
    fn grant_log_matches_the_job_records() {
        let trace = ParagonTraceModel::scaled(40).generate(9);
        let config = SimConfig::new(
            Mesh2D::square_16x16(),
            CommPattern::AllToAll,
            AllocatorKind::HilbertBestFit,
        )
        .with_scheduler(SchedulerKind::EasyBackfill);
        let (result, log) = simulate_logged(&trace, &config);
        assert_eq!(log.len(), result.records.len());
        // Every record's start time and size appear in the log, and the log
        // is sorted by time (jobs start in grant order).
        for r in &result.records {
            let g = log.iter().find(|g| g.job_id == r.job_id).unwrap();
            assert!((g.time - r.start).abs() < 1e-12);
            assert_eq!(g.size, r.size);
            assert_eq!(g.nodes.len(), g.size);
        }
        for pair in log.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
        // And `simulate` is exactly the logged run minus the log.
        assert_eq!(simulate(&trace, &config).records, result.records);
    }

    #[test]
    fn simulation_is_deterministic() {
        let trace = ParagonTraceModel::scaled(40).generate(3);
        let config = SimConfig::new(
            Mesh2D::paragon_16x22(),
            CommPattern::Random,
            AllocatorKind::Mc1x1,
        );
        let a = simulate(&trace, &config);
        let b = simulate(&trace, &config);
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn contention_never_speeds_jobs_up() {
        let trace = ParagonTraceModel::scaled(60).generate(11);
        let config = SimConfig::new(
            Mesh2D::square_16x16(),
            CommPattern::AllToAll,
            AllocatorKind::SCurveFreeList,
        );
        let fluid = simulate(&trace, &config);
        for r in &fluid.records {
            assert!(
                r.running_time() >= r.messages as f64 - 1e-6,
                "job {} finished faster than its quota allows",
                r.job_id
            );
        }
    }

    #[test]
    fn every_paper_allocator_completes_a_small_trace() {
        let trace = ParagonTraceModel::scaled(30).generate(5);
        for allocator in AllocatorKind::paper_set() {
            for pattern in CommPattern::paper_patterns() {
                let config = SimConfig::new(Mesh2D::square_16x16(), pattern, allocator);
                let result = simulate(&trace, &config);
                assert_eq!(
                    result.records.len(),
                    trace.len(),
                    "{allocator}/{pattern} lost jobs"
                );
            }
        }
    }

    #[test]
    fn extended_allocators_complete_a_small_trace() {
        // The extension allocators (contiguous, buddy, MBS, hybrid, ablation
        // curves) also drive the engine to completion; the contiguous-only
        // strategies may make jobs wait, but every job eventually runs
        // because every trace job fits the empty 16 x 16 machine.
        let trace = ParagonTraceModel::scaled(25)
            .generate(17)
            .filter_fitting(256);
        for allocator in AllocatorKind::extended_set() {
            let config = SimConfig::new(Mesh2D::square_16x16(), CommPattern::NBody, allocator);
            let result = simulate(&trace, &config);
            assert_eq!(result.records.len(), trace.len(), "{allocator} lost jobs");
            for r in &result.records {
                assert!(r.start >= r.arrival, "{allocator} started a job early");
            }
        }
    }

    #[test]
    fn contiguous_allocation_makes_jobs_wait_for_rectangles() {
        // Two 8-processor jobs fill the 4 x 4 machine; a third 4-processor
        // job arrives while the machine is fragmented. Under the contiguous
        // strategy it must wait for a free 2 x 2 rectangle, so its response
        // time is at least as large as under Hilbert Best Fit (which can use
        // scattered processors immediately).
        let trace = Trace::new(vec![
            Job::new(0, 0.0, 6, 400.0),
            Job::new(1, 1.0, 6, 400.0),
            Job::new(2, 2.0, 4, 50.0),
        ]);
        let mesh = Mesh2D::new(4, 4);
        let contiguous = simulate(
            &trace,
            &SimConfig::new(
                mesh,
                CommPattern::AllToAll,
                AllocatorKind::ContiguousFirstFit,
            ),
        );
        let hilbert = simulate(
            &trace,
            &SimConfig::new(mesh, CommPattern::AllToAll, AllocatorKind::HilbertBestFit),
        );
        assert_eq!(contiguous.records.len(), 3);
        let job2_contig = contiguous.records.iter().find(|r| r.job_id == 2).unwrap();
        let job2_hilbert = hilbert.records.iter().find(|r| r.job_id == 2).unwrap();
        assert!(
            job2_contig.start + 1e-9 >= job2_hilbert.start,
            "contiguous allocation cannot start job 2 earlier than a noncontiguous one"
        );
    }

    #[test]
    fn easy_backfill_lets_small_jobs_jump_a_blocked_head() {
        // Job 0 occupies the whole machine for a long time; job 1 needs the
        // whole machine too and blocks the FCFS queue; job 2 is tiny. Under
        // EASY, job 2 fits in the processors job 1 cannot use yet only if
        // some are free — here none are, so instead check the schedule is
        // no worse than FCFS and every job completes.
        let trace = Trace::new(vec![
            Job::new(0, 0.0, 200, 1000.0),
            Job::new(1, 1.0, 256, 100.0),
            Job::new(2, 2.0, 8, 10.0),
        ]);
        let mesh = Mesh2D::square_16x16();
        let fcfs = SimConfig::new(mesh, CommPattern::AllToAll, AllocatorKind::HilbertBestFit);
        let easy = fcfs.with_scheduler(SchedulerKind::EasyBackfill);
        let fcfs_result = simulate(&trace, &fcfs);
        let easy_result = simulate(&trace, &easy);
        assert_eq!(easy_result.records.len(), 3);
        let job2_fcfs = fcfs_result.records.iter().find(|r| r.job_id == 2).unwrap();
        let job2_easy = easy_result.records.iter().find(|r| r.job_id == 2).unwrap();
        // Job 0 leaves 56 processors free, and job 2 (8 processors, short)
        // finishes long before job 0 releases the rest, so EASY backfills it
        // while FCFS keeps it waiting behind job 1.
        assert!(
            job2_easy.start < job2_fcfs.start,
            "EASY should backfill the small job ({} vs {})",
            job2_easy.start,
            job2_fcfs.start
        );
    }

    #[test]
    fn proportional_share_fidelity_completes_jobs_and_respects_quotas() {
        // The proportional-share ablation drives the same engine: every job
        // completes, no job beats its contention-free quota, and a lone job
        // behaves exactly as under the fluid model (no contention to share).
        let trace = ParagonTraceModel::scaled(30).generate(31);
        let base = SimConfig::new(
            Mesh2D::square_16x16(),
            CommPattern::AllToAll,
            AllocatorKind::HilbertBestFit,
        );
        let proportional = simulate(&trace, &base.with_fidelity(Fidelity::ProportionalShare));
        assert_eq!(proportional.records.len(), trace.len());
        for r in &proportional.records {
            assert!(r.running_time() >= r.messages as f64 - 1e-6);
        }

        let lone = Trace::new(vec![Job::new(0, 0.0, 9, 300.0)]);
        let a = simulate(&lone, &base);
        let b = simulate(&lone, &base.with_fidelity(Fidelity::ProportionalShare));
        assert!(
            (a.records[0].running_time() - b.records[0].running_time()).abs() < 1e-6,
            "a lone job must be identical under both contention disciplines"
        );
    }

    #[test]
    fn utilization_profile_is_consistent_with_the_summary() {
        let trace = ParagonTraceModel::scaled(40).generate(23);
        let config = SimConfig::new(
            Mesh2D::square_16x16(),
            CommPattern::AllToAll,
            AllocatorKind::HilbertBestFit,
        );
        let result = simulate(&trace, &config);
        let profile = crate::utilization::UtilizationProfile::from_records(
            &result.records,
            config.mesh.num_nodes(),
        );
        assert!(profile.mean_utilization() > 0.0);
        assert!(profile.peak_utilization() <= 1.0 + 1e-12);
        assert!(
            (profile.demand_fraction(&result.records) - profile.mean_utilization()).abs() < 1e-6
        );
    }
}
