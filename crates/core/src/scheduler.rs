//! Job scheduling policies.
//!
//! The paper deliberately fixes the scheduler: "Since our focus is on
//! allocation rather than scheduling, we scheduled using First Come, First
//! Serve (FCFS) in all our simulations." FCFS is therefore the default and
//! the policy used by every figure reproduction; an aggressive-backfill
//! variant is provided as an extension to test whether the allocator ranking
//! is sensitive to the scheduling policy (the `ablation_scheduler` binary).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A job waiting in the scheduler queue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueuedJob {
    /// Trace identifier of the job.
    pub job_id: u64,
    /// Processors requested.
    pub size: usize,
    /// Arrival time (for bookkeeping; FCFS keeps the queue in arrival order).
    pub arrival: f64,
    /// The job's runtime estimate in seconds, used only by the EASY
    /// backfilling extension (FCFS ignores it). The simulator supplies the
    /// trace runtime, i.e. a perfect estimate.
    pub estimate: f64,
}

/// A snapshot of one running job, as seen by the reservation-based
/// schedulers: when it is expected to finish and how many processors it will
/// release.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunningSnapshot {
    /// Predicted completion time given current network rates.
    pub completion: f64,
    /// Processors the job will release.
    pub size: usize,
}

/// Scheduling policies available to the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum SchedulerKind {
    /// Strict First Come, First Serve: the head of the queue blocks all jobs
    /// behind it until enough processors are free (the paper's policy).
    #[default]
    Fcfs,
    /// Aggressive backfilling: the first queued job that fits starts, even if
    /// earlier jobs are still waiting (extension, not used by the paper).
    FirstFitBackfill,
    /// EASY backfilling: the head of the queue holds a reservation at the
    /// earliest time enough processors will be free; later jobs may only
    /// start if they fit now *and* do not delay that reservation (extension,
    /// not used by the paper).
    EasyBackfill,
    /// Conservative backfilling: *every* queued job holds a reservation in
    /// a shared [`ReservationTable`], assigned in queue order; a candidate
    /// may only start now if doing so cannot delay the reservation of any
    /// job ahead of it (extension, not used by the paper). Strictly fairer
    /// than EASY — jobs deep in the queue are protected, not just the head
    /// — at the cost of fewer backfill opportunities.
    Conservative,
}

impl SchedulerKind {
    /// Number of scheduling policies, derived from an exhaustive match:
    /// adding a `SchedulerKind` variant fails to compile here, which in
    /// turn forces [`SchedulerKind::all`] (whose array length is this
    /// constant) to be extended — the test matrices that iterate `all()`
    /// can never silently narrow.
    pub const COUNT: usize = match SchedulerKind::Fcfs {
        SchedulerKind::Fcfs
        | SchedulerKind::FirstFitBackfill
        | SchedulerKind::EasyBackfill
        | SchedulerKind::Conservative => 4,
    };

    /// The scheduling policies implemented, in presentation order. The
    /// length is [`SchedulerKind::COUNT`], which an exhaustive match pins
    /// to the variant count — see there.
    pub fn all() -> [SchedulerKind; SchedulerKind::COUNT] {
        [
            SchedulerKind::Fcfs,
            SchedulerKind::FirstFitBackfill,
            SchedulerKind::EasyBackfill,
            SchedulerKind::Conservative,
        ]
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::Fcfs => "FCFS",
            SchedulerKind::FirstFitBackfill => "first-fit backfill",
            SchedulerKind::EasyBackfill => "EASY backfill",
            SchedulerKind::Conservative => "conservative backfill",
        }
    }

    /// True when the policy's start decision reads the running-job
    /// snapshots (the reservation-based policies). Callers that build
    /// the snapshot list lazily key on this — the match is exhaustive so
    /// a new variant forces a decision here, not a silent empty input.
    pub fn uses_running_snapshots(&self) -> bool {
        match self {
            SchedulerKind::Fcfs | SchedulerKind::FirstFitBackfill => false,
            SchedulerKind::EasyBackfill | SchedulerKind::Conservative => true,
        }
    }

    /// True when the policy may start a job other than the queue head
    /// (so callers must present the whole queue, not just the head).
    pub fn scans_whole_queue(&self) -> bool {
        match self {
            SchedulerKind::Fcfs => false,
            SchedulerKind::FirstFitBackfill
            | SchedulerKind::EasyBackfill
            | SchedulerKind::Conservative => true,
        }
    }

    /// Parses a scheduler spec: the full [`SchedulerKind::name`]
    /// (case-insensitive) or the short aliases `fcfs`, `backfill`,
    /// `easy` and `conservative` used by the CLI and the service
    /// protocol.
    pub fn parse(spec: &str) -> Option<SchedulerKind> {
        let spec = spec.trim();
        SchedulerKind::all()
            .into_iter()
            .find(|s| s.name().eq_ignore_ascii_case(spec))
            .or(match spec.to_ascii_lowercase().as_str() {
                "fcfs" => Some(SchedulerKind::Fcfs),
                "backfill" | "first-fit" | "firstfit" => Some(SchedulerKind::FirstFitBackfill),
                "easy" => Some(SchedulerKind::EasyBackfill),
                "conservative" | "cons" => Some(SchedulerKind::Conservative),
                _ => None,
            })
    }

    /// Selects the index of the next queued job to start given `free`
    /// processors, or `None` if nothing may start.
    ///
    /// The reservation-based policies (EASY, conservative) need the
    /// running-job snapshots and the current time to compute their
    /// reservations; use [`SchedulerKind::select_with_context`] for them.
    /// Calling `select` on either falls back to the conservative FCFS
    /// decision (only the head may start).
    pub fn select(&self, queue: &[QueuedJob], free: usize) -> Option<usize> {
        match self {
            SchedulerKind::Fcfs | SchedulerKind::EasyBackfill | SchedulerKind::Conservative => {
                match queue.first() {
                    Some(head) if head.size <= free => Some(0),
                    _ => None,
                }
            }
            SchedulerKind::FirstFitBackfill => queue.iter().position(|j| j.size <= free),
        }
    }

    /// Selects the index of the next queued job to start, given the current
    /// time and the predicted completions of the running jobs.
    ///
    /// For FCFS and aggressive backfilling this is identical to
    /// [`SchedulerKind::select`]; EASY backfilling uses the extra context to
    /// compute the head job's reservation (shadow time) and backfills only
    /// jobs that cannot delay it; conservative backfilling reserves a start
    /// for *every* queued job in queue order and starts the first job whose
    /// reservation is due now — which, by construction, cannot delay the
    /// reservation of any job ahead of it.
    pub fn select_with_context(
        &self,
        queue: &[QueuedJob],
        free: usize,
        running: &[RunningSnapshot],
        now: f64,
    ) -> Option<usize> {
        match self {
            SchedulerKind::Fcfs | SchedulerKind::FirstFitBackfill => self.select(queue, free),
            SchedulerKind::EasyBackfill => {
                let head = queue.first()?;
                if head.size <= free {
                    return Some(0);
                }
                let (shadow_time, extra) = Self::reservation(head.size, free, running)?;
                queue
                    .iter()
                    .skip(1)
                    .position(|candidate| {
                        candidate.size <= free
                            && (now + candidate.estimate <= shadow_time || candidate.size <= extra)
                    })
                    // `position` on the skipped iterator is relative to index 1.
                    .map(|i| i + 1)
            }
            SchedulerKind::Conservative => {
                let mut table = ReservationTable::new(free, running, now);
                for (at, job) in queue.iter().enumerate() {
                    let start = table.earliest_start(job.size, job.estimate);
                    if start <= now && job.size <= free {
                        // The job's reservation is due right now and the
                        // processors really are free (the profile can
                        // predict capacity at `now` that an overrunning
                        // job has not actually released yet — the extra
                        // `size <= free` check keeps the pick honest).
                        // Every job ahead already holds its carved
                        // reservation, so starting this one cannot delay
                        // any of them.
                        return Some(at);
                    }
                    if !start.is_finite() {
                        // This job's start depends on terminations the
                        // profile cannot predict (jobs running without a
                        // finite estimate). Like EASY's unbounded
                        // reservation, everything behind it is denied —
                        // letting later jobs leapfrog an unplannable
                        // reservation is exactly the starvation
                        // conservative backfilling exists to prevent.
                        return None;
                    }
                    table.reserve_at(start, job.size, job.estimate);
                }
                None
            }
        }
    }

    /// The start-time guarantee conservative backfilling assigns to every
    /// queued job: job `i`'s reservation is the earliest start that fits
    /// the availability profile *after* jobs `0..i` carved theirs, in
    /// queue order. `f64::INFINITY` marks a job whose start depends on
    /// unplannable terminations (a running job without a finite
    /// estimate); every job behind such a reservation is unplannable too.
    ///
    /// This is the table the property tests pin the no-delay/no-starvation
    /// guarantees against, and the introspection hook for dashboards; the
    /// select path ([`SchedulerKind::select_with_context`]) recomputes the
    /// same table per decision because predicted completions drift with
    /// network rates — a cached table would go stale between events.
    pub fn reservations(
        queue: &[QueuedJob],
        free: usize,
        running: &[RunningSnapshot],
        now: f64,
    ) -> Vec<f64> {
        let mut table = ReservationTable::new(free, running, now);
        let mut starts = Vec::with_capacity(queue.len());
        let mut unplannable = false;
        for job in queue {
            let start = if unplannable {
                f64::INFINITY
            } else {
                table.earliest_start(job.size, job.estimate)
            };
            if start.is_finite() {
                table.reserve_at(start, job.size, job.estimate);
            } else {
                unplannable = true;
            }
            starts.push(start);
        }
        starts
    }

    /// The start each queued job is promised at `now`, in queue order:
    /// conservative backfilling promises every job its reservation
    /// ([`SchedulerKind::reservations`]), EASY promises a blocked head its
    /// shadow time ([`SchedulerKind::reservation`]), and FCFS and
    /// first-fit backfilling promise nothing. `None` marks a job with no
    /// finite promised start.
    pub fn promised_starts(
        &self,
        queue: &[QueuedJob],
        free: usize,
        running: &[RunningSnapshot],
        now: f64,
    ) -> Vec<Option<f64>> {
        let finite = |start: f64| start.is_finite().then_some(start);
        match self {
            SchedulerKind::Conservative => Self::reservations(queue, free, running, now)
                .into_iter()
                .map(finite)
                .collect(),
            SchedulerKind::EasyBackfill => {
                let mut starts = vec![None; queue.len()];
                if let Some(head) = queue.first().filter(|head| head.size > free) {
                    starts[0] = Self::reservation(head.size, free, running)
                        .and_then(|(shadow, _)| finite(shadow));
                }
                starts
            }
            SchedulerKind::Fcfs | SchedulerKind::FirstFitBackfill => vec![None; queue.len()],
        }
    }

    /// Computes the EASY reservation for a head job of `head_size`
    /// processors: the *shadow time* at which enough processors will have
    /// been released for it to start, and the number of `extra` processors
    /// that remain free at that moment (backfill jobs no larger than `extra`
    /// can never delay the reservation, whatever their runtime).
    ///
    /// Returns `None` when even draining every running job would not free
    /// enough processors (the head job can then only start thanks to future
    /// arrivals terminating, which EASY treats as an unbounded reservation —
    /// no backfill is allowed). The same applies when the decisive release
    /// has a non-finite predicted completion (a running job without a
    /// walltime estimate, as the online service models it): a reservation
    /// at `t = ∞` is no reservation, so backfill is denied rather than
    /// allowed to starve the head.
    ///
    /// This is public as the reusable core of EASY: the online service's
    /// admission queue calls it with live running-job estimates, and the
    /// property tests pin its no-delay/no-starvation guarantees directly.
    /// The sort is stable, so jobs with equal predicted completions keep
    /// their input order — callers that replicate the engine's running-set
    /// ordering get bit-identical decisions.
    ///
    /// **Precondition:** the head must not already fit
    /// (`head_size > free`). A head that fits needs no reservation — it
    /// simply starts — and asking for one anyway yields `None`, which
    /// callers must not read as "deny backfill" in that case (every EASY
    /// path here checks `head.size <= free` first).
    pub fn reservation(
        head_size: usize,
        free: usize,
        running: &[RunningSnapshot],
    ) -> Option<(f64, usize)> {
        let mut releases: Vec<RunningSnapshot> = running.to_vec();
        releases.sort_by(|a, b| a.completion.total_cmp(&b.completion));
        let mut available = free;
        for release in &releases {
            available += release.size;
            if available >= head_size {
                if !release.completion.is_finite() {
                    return None;
                }
                return Some((release.completion, available - head_size));
            }
        }
        None
    }

    /// Explains why the queued job at `index` is *not* starting right
    /// now under this policy: which constraint — free processors, the
    /// FCFS head, EASY's shadow reservation, or a conservative
    /// reservation held by a job ahead — binds it. Returns `None` when
    /// the job could start (or `index` is out of range), so callers
    /// should only ask about jobs that stayed queued after a scheduling
    /// pass.
    ///
    /// For conservative backfilling the blocker reported is the job
    /// ahead holding the *earliest finite* reserved start: the binding
    /// reservation at `now`. (When the candidate fits the free
    /// processors but is still held back, starting it would push at
    /// least one carved window later, and the earliest window is the
    /// first to collide — an approximation of the full collision set,
    /// chosen so the explain is one job, not a list.) A job behind an
    /// unplannable (infinite) reservation reports that job with an
    /// infinite `reserved_start`.
    pub fn explain(
        &self,
        queue: &[QueuedJob],
        index: usize,
        free: usize,
        running: &[RunningSnapshot],
        now: f64,
    ) -> Option<BlockReason> {
        let job = queue.get(index)?;
        let insufficient = BlockReason::InsufficientFree {
            free,
            needed: job.size,
        };
        match self {
            SchedulerKind::Fcfs => {
                if index == 0 {
                    (job.size > free).then_some(insufficient)
                } else {
                    Some(BlockReason::HeadOfLine {
                        blocking_job: queue[0].job_id,
                    })
                }
            }
            SchedulerKind::FirstFitBackfill => (job.size > free).then_some(insufficient),
            SchedulerKind::EasyBackfill => {
                let head = queue[0];
                if index == 0 {
                    return (job.size > free).then_some(insufficient);
                }
                if job.size > free {
                    return Some(insufficient);
                }
                // The job fits now, so only the head's shadow reservation
                // can be holding it back; an unbounded reservation (no
                // predictable release covers the head) blocks at t = ∞.
                let shadow_time = Self::reservation(head.size, free, running)
                    .map(|(shadow, _)| shadow)
                    .unwrap_or(f64::INFINITY);
                Some(BlockReason::WouldDelayShadow {
                    blocking_job: head.job_id,
                    shadow_time,
                })
            }
            SchedulerKind::Conservative => {
                if job.size > free {
                    return Some(insufficient);
                }
                if index == 0 {
                    // A fitting head starts immediately under conservative
                    // backfilling (the fresh profile is non-decreasing, so
                    // its earliest start is `now`): nothing blocks it.
                    return None;
                }
                let starts = Self::reservations(&queue[..index], free, running, now);
                let binding = starts
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.is_finite())
                    .min_by(|(_, a), (_, b)| a.total_cmp(b));
                match binding {
                    Some((ahead, &reserved_start)) => Some(BlockReason::WouldDelayReservation {
                        blocking_job: queue[ahead].job_id,
                        reserved_start,
                    }),
                    // No job ahead holds a finite reservation: the first
                    // unplannable one blocks everything behind it.
                    None => Some(BlockReason::WouldDelayReservation {
                        blocking_job: queue[0].job_id,
                        reserved_start: f64::INFINITY,
                    }),
                }
            }
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a queued job is not starting right now — the machine-readable
/// deny/backfill explain produced by [`SchedulerKind::explain`], attached
/// to trace events and surfaced through `poll`. `Copy` and fieldwise so
/// the flight recorder can carry it without allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlockReason {
    /// Not enough free processors for the job itself, under any policy.
    InsufficientFree {
        /// Processors free at decision time.
        free: usize,
        /// Processors the job asked for.
        needed: usize,
    },
    /// FCFS: a job ahead in the queue must start first, whatever the
    /// free count.
    HeadOfLine {
        /// The queue head the policy refuses to overtake.
        blocking_job: u64,
    },
    /// EASY: starting the job now would (or could) delay the head's
    /// shadow reservation. An infinite `shadow_time` means the head's
    /// reservation is unbounded (no predictable release covers it), so
    /// no backfill is allowed at all.
    WouldDelayShadow {
        /// The head job holding the shadow reservation.
        blocking_job: u64,
        /// When the head is promised to start.
        shadow_time: f64,
    },
    /// Conservative: starting the job now would delay a reservation
    /// carved by a job ahead of it. An infinite `reserved_start` means
    /// the blocking job itself is unplannable, which blocks everything
    /// behind it.
    WouldDelayReservation {
        /// The job ahead whose reservation binds (earliest finite
        /// reserved start).
        blocking_job: u64,
        /// That job's promised start time.
        reserved_start: f64,
    },
}

impl BlockReason {
    /// Every stable tag, indexed by [`BlockReason::ordinal`].
    pub const CODES: [&'static str; 4] = [
        "insufficient_free",
        "head_of_line",
        "would_delay_shadow",
        "would_delay_reservation",
    ];

    /// The variant's index into [`BlockReason::CODES`]; trace events
    /// carry it, plus one, as their numeric reason code.
    pub fn ordinal(&self) -> usize {
        match self {
            BlockReason::InsufficientFree { .. } => 0,
            BlockReason::HeadOfLine { .. } => 1,
            BlockReason::WouldDelayShadow { .. } => 2,
            BlockReason::WouldDelayReservation { .. } => 3,
        }
    }

    /// Stable machine-readable tag for wire responses and trace events.
    pub fn code(&self) -> &'static str {
        Self::CODES[self.ordinal()]
    }

    /// The job whose presence blocks this one, when one exists
    /// (`InsufficientFree` blames capacity, not a job).
    pub fn blocking_job(&self) -> Option<u64> {
        match self {
            BlockReason::InsufficientFree { .. } => None,
            BlockReason::HeadOfLine { blocking_job }
            | BlockReason::WouldDelayShadow { blocking_job, .. }
            | BlockReason::WouldDelayReservation { blocking_job, .. } => Some(*blocking_job),
        }
    }

    /// The time constraint attached to the block, when one exists: the
    /// shadow time or the reserved start.
    pub fn until(&self) -> Option<f64> {
        match self {
            BlockReason::InsufficientFree { .. } | BlockReason::HeadOfLine { .. } => None,
            BlockReason::WouldDelayShadow { shadow_time, .. } => Some(*shadow_time),
            BlockReason::WouldDelayReservation { reserved_start, .. } => Some(*reserved_start),
        }
    }
}

impl fmt::Display for BlockReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockReason::InsufficientFree { free, needed } => {
                write!(f, "{needed} processors requested, {free} free")
            }
            BlockReason::HeadOfLine { blocking_job } => {
                write!(f, "FCFS: waiting behind job {blocking_job}")
            }
            BlockReason::WouldDelayShadow {
                blocking_job,
                shadow_time,
            } => {
                if shadow_time.is_finite() {
                    write!(
                        f,
                        "would delay job {blocking_job}'s reservation at t={shadow_time}"
                    )
                } else {
                    write!(f, "job {blocking_job}'s reservation is unbounded")
                }
            }
            BlockReason::WouldDelayReservation {
                blocking_job,
                reserved_start,
            } => {
                if reserved_start.is_finite() {
                    write!(
                        f,
                        "would delay job {blocking_job}'s reservation at t={reserved_start}"
                    )
                } else {
                    write!(f, "job {blocking_job}'s reservation is unplannable")
                }
            }
        }
    }
}

/// The availability profile conservative backfilling plans against: a
/// step function of *predicted free processors over future time*, seeded
/// from the current free count and the running jobs' predicted releases,
/// then progressively carved as each queued job claims its reservation
/// window.
///
/// Bookkeeping model: releases *collapse into* the baseline — a table is
/// rebuilt from live state at every decision point (starts and releases
/// change the free count and the running set; cancellations drop a
/// queued job before its carve), because predicted completions drift
/// with network rates and a table cached across events would plan
/// against stale releases. The per-decision cost is
/// `O(queue · points²)` with `points ≤ running + 2·queue`, which is
/// dwarfed by the allocator search that follows a grant.
///
/// Conventions, shared with [`SchedulerKind::reservation`] (EASY's
/// two-point special case):
///
/// * running jobs without a finite predicted completion never release —
///   their processors simply never enter the profile;
/// * predicted completions in the past (a job overrunning its estimate)
///   are clamped to `now` — "any moment now" is the best the prediction
///   can say;
/// * a reservation of infinite duration (a queued job without a walltime
///   estimate) holds its processors from its start forever.
#[derive(Debug, Clone, PartialEq)]
pub struct ReservationTable {
    now: f64,
    /// `(time, available)` steps, strictly increasing in time, with
    /// `points[0].0 == now`; `available` holds on `[time_i, time_{i+1})`
    /// and the last step extends to infinity.
    points: Vec<(f64, usize)>,
}

impl ReservationTable {
    /// Builds the profile from `free` processors available now plus every
    /// finite predicted release among `running`.
    pub fn new(free: usize, running: &[RunningSnapshot], now: f64) -> Self {
        let mut releases: Vec<(f64, usize)> = running
            .iter()
            .filter(|r| r.completion.is_finite())
            .map(|r| (r.completion.max(now), r.size))
            .collect();
        // Stable, like EASY's release sort: equal predicted completions
        // keep their running-set order (tie-breaking parity online and
        // offline is what makes the grant-log equivalence byte-exact).
        releases.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut points = vec![(now, free)];
        for (time, size) in releases {
            let last = points.last_mut().expect("profile starts non-empty");
            if last.0 == time {
                last.1 += size;
            } else {
                let available = last.1 + size;
                points.push((time, available));
            }
        }
        ReservationTable { now, points }
    }

    /// The time the profile starts at.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Predicted free processors at time `t` (clamped to the profile
    /// start).
    pub fn available_at(&self, t: f64) -> usize {
        self.points
            .iter()
            .take_while(|p| p.0 <= t)
            .last()
            .map(|p| p.1)
            .unwrap_or_else(|| self.points[0].1)
    }

    /// The earliest time `>= now` at which `size` processors are
    /// continuously available for `duration` seconds (infinite duration:
    /// forever), or `f64::INFINITY` when the profile never provides them.
    ///
    /// The earliest feasible start is always one of the profile's step
    /// points — the feasible set is the complement of finitely many
    /// half-open intervals whose right endpoints are steps — so scanning
    /// the points in order and returning the first that can host the
    /// whole window is exact, not a heuristic.
    pub fn earliest_start(&self, size: usize, duration: f64) -> f64 {
        'candidate: for (i, &(start, available)) in self.points.iter().enumerate() {
            if available < size {
                continue;
            }
            let end = start + duration;
            for &(time, later) in &self.points[i + 1..] {
                if time >= end {
                    break;
                }
                if later < size {
                    continue 'candidate;
                }
            }
            return start;
        }
        f64::INFINITY
    }

    /// Reserves `size` processors for `duration` seconds at the earliest
    /// feasible start, carving the window out of the profile; returns the
    /// reserved start (`f64::INFINITY`, carving nothing, when the profile
    /// can never host the job).
    pub fn reserve(&mut self, size: usize, duration: f64) -> f64 {
        let start = self.earliest_start(size, duration);
        if start.is_finite() {
            self.reserve_at(start, size, duration);
        }
        start
    }

    /// Carves `size` processors over `[start, start + duration)` out of
    /// the profile — the insert half of the bookkeeping, used after
    /// [`ReservationTable::earliest_start`] confirmed the window fits.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the window really had `size` processors
    /// available (a mis-carved profile would promise the same processors
    /// to two reservations).
    pub fn reserve_at(&mut self, start: f64, size: usize, duration: f64) {
        let end = start + duration;
        self.ensure_point(start);
        if end.is_finite() {
            self.ensure_point(end);
        }
        for point in &mut self.points {
            if point.0 >= start && point.0 < end {
                debug_assert!(
                    point.1 >= size,
                    "reservation window [{start}, {end}) oversubscribes the profile"
                );
                point.1 = point.1.saturating_sub(size);
            }
        }
    }

    /// Splits the step containing `t` so `t` itself becomes a step
    /// boundary (no-op when it already is, or when `t` precedes the
    /// profile).
    fn ensure_point(&mut self, t: f64) {
        match self.points.binary_search_by(|p| p.0.total_cmp(&t)) {
            Ok(_) => {}
            Err(0) => {}
            Err(i) => {
                let available = self.points[i - 1].1;
                self.points.insert(i, (t, available));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queued(job_id: u64, size: usize, arrival: f64, estimate: f64) -> QueuedJob {
        QueuedJob {
            job_id,
            size,
            arrival,
            estimate,
        }
    }

    fn queue() -> Vec<QueuedJob> {
        vec![
            queued(1, 10, 0.0, 100.0),
            queued(2, 2, 1.0, 50.0),
            queued(3, 4, 2.0, 500.0),
        ]
    }

    #[test]
    fn fcfs_blocks_behind_large_head() {
        let q = queue();
        assert_eq!(SchedulerKind::Fcfs.select(&q, 12), Some(0));
        assert_eq!(SchedulerKind::Fcfs.select(&q, 8), None);
        assert_eq!(SchedulerKind::Fcfs.select(&[], 100), None);
    }

    #[test]
    fn backfill_skips_the_blocked_head() {
        let q = queue();
        assert_eq!(SchedulerKind::FirstFitBackfill.select(&q, 8), Some(1));
        assert_eq!(SchedulerKind::FirstFitBackfill.select(&q, 3), Some(1));
        assert_eq!(SchedulerKind::FirstFitBackfill.select(&q, 1), None);
    }

    #[test]
    fn explains_name_the_binding_constraint_per_policy() {
        let q = queue(); // job 1 needs 10, job 2 needs 2, job 3 needs 4
        let running = [RunningSnapshot {
            completion: 100.0,
            size: 6,
        }];

        // FCFS: the head is short of processors; everyone else is behind it.
        assert_eq!(
            SchedulerKind::Fcfs.explain(&q, 0, 4, &running, 0.0),
            Some(BlockReason::InsufficientFree {
                free: 4,
                needed: 10
            })
        );
        assert_eq!(
            SchedulerKind::Fcfs.explain(&q, 1, 4, &running, 0.0),
            Some(BlockReason::HeadOfLine { blocking_job: 1 })
        );
        assert_eq!(
            SchedulerKind::Fcfs.explain(&q, 0, 12, &running, 0.0),
            None,
            "a head that fits is not blocked"
        );

        // First-fit backfill only ever blocks on capacity.
        assert_eq!(
            SchedulerKind::FirstFitBackfill.explain(&q, 2, 3, &running, 0.0),
            Some(BlockReason::InsufficientFree { free: 3, needed: 4 })
        );
        assert_eq!(
            SchedulerKind::FirstFitBackfill.explain(&q, 1, 3, &running, 0.0),
            None
        );

        // EASY: job 3 fits the 4 free processors but its 500-second
        // estimate runs past the shadow time (t = 100, extra = 0).
        assert_eq!(
            SchedulerKind::EasyBackfill.explain(&q, 2, 4, &running, 0.0),
            Some(BlockReason::WouldDelayShadow {
                blocking_job: 1,
                shadow_time: 100.0,
            })
        );
        // An unbounded head reservation explains as an infinite shadow.
        let big_head = vec![queued(9, 100, 0.0, 10.0), queued(2, 1, 1.0, 1.0)];
        match SchedulerKind::EasyBackfill.explain(&big_head, 1, 4, &running, 0.0) {
            Some(BlockReason::WouldDelayShadow {
                blocking_job: 9,
                shadow_time,
            }) => assert!(shadow_time.is_infinite()),
            other => panic!("unexpected explain: {other:?}"),
        }

        // Conservative: job 3 fits the free processors but starting its
        // 500-second run now would delay the head's reservation at t=100
        // (the earliest finite carve ahead of it). Job 2 is dropped from
        // the queue here because a real scheduling pass would have
        // started it — explain is only asked about jobs left queued.
        let q_cons = vec![q[0], q[2]];
        assert_eq!(
            SchedulerKind::Conservative.explain(&q_cons, 1, 4, &running, 0.0),
            Some(BlockReason::WouldDelayReservation {
                blocking_job: 1,
                reserved_start: 100.0,
            })
        );
        assert_eq!(
            SchedulerKind::Conservative.explain(&q, 0, 12, &running, 0.0),
            None,
            "a fitting head starts immediately under conservative"
        );

        // Accessor and rendering sanity on one representative reason.
        let reason = SchedulerKind::Conservative
            .explain(&q_cons, 1, 4, &running, 0.0)
            .unwrap();
        assert_eq!(reason.code(), "would_delay_reservation");
        assert_eq!(reason.blocking_job(), Some(1));
        assert_eq!(reason.until(), Some(100.0));
        assert!(reason.to_string().contains("job 1"));
        assert_eq!(
            BlockReason::InsufficientFree { free: 3, needed: 4 }.blocking_job(),
            None
        );
    }

    #[test]
    fn default_is_fcfs() {
        assert_eq!(SchedulerKind::default(), SchedulerKind::Fcfs);
        assert_eq!(SchedulerKind::Fcfs.to_string(), "FCFS");
        assert_eq!(SchedulerKind::all().len(), SchedulerKind::COUNT);
        // `all()` lists each variant exactly once (COUNT pins the length;
        // this pins the contents).
        let mut seen = std::collections::HashSet::new();
        for kind in SchedulerKind::all() {
            assert!(seen.insert(kind), "{kind} listed twice in all()");
        }
    }

    #[test]
    fn easy_starts_the_head_when_it_fits() {
        let q = queue();
        let running = [RunningSnapshot {
            completion: 40.0,
            size: 6,
        }];
        assert_eq!(
            SchedulerKind::EasyBackfill.select_with_context(&q, 12, &running, 0.0),
            Some(0)
        );
        assert_eq!(
            SchedulerKind::EasyBackfill.select_with_context(&[], 12, &running, 0.0),
            None
        );
    }

    #[test]
    fn easy_backfills_short_jobs_that_finish_before_the_reservation() {
        // Head needs 10, only 4 free; the running job releases 6 at t = 100,
        // so the reservation (shadow time) is 100. Job 2 (size 2, estimate
        // 50) finishes by t = 50 < 100 and may backfill; job 3 (size 4,
        // estimate 500) would run past the reservation, but it also fits in
        // the `extra` processors (4 free + 6 released − 10 = 0 extra), so it
        // may not.
        let q = queue();
        let running = [RunningSnapshot {
            completion: 100.0,
            size: 6,
        }];
        assert_eq!(
            SchedulerKind::EasyBackfill.select_with_context(&q, 4, &running, 0.0),
            Some(1)
        );
        // Remove job 2: job 3 is too long and too big to backfill.
        let q2 = vec![q[0], q[2]];
        assert_eq!(
            SchedulerKind::EasyBackfill.select_with_context(&q2, 4, &running, 0.0),
            None
        );
    }

    #[test]
    fn easy_allows_long_backfill_into_extra_processors() {
        // Head needs 10; the running job releases 12 at t = 100, leaving 2
        // extra processors at the shadow time. Job 3 (size 4) does not fit in
        // the extras, but a size-2 job does — even with a huge estimate.
        let q = vec![queued(1, 10, 0.0, 100.0), queued(5, 2, 1.0, 1.0e9)];
        let running = [RunningSnapshot {
            completion: 100.0,
            size: 12,
        }];
        assert_eq!(
            SchedulerKind::EasyBackfill.select_with_context(&q, 0, &running, 0.0),
            None,
            "nothing free: even the backfill candidate cannot start"
        );
        assert_eq!(
            SchedulerKind::EasyBackfill.select_with_context(&q, 2, &running, 0.0),
            Some(1),
            "size-2 job fits in the extra processors at the shadow time"
        );
    }

    #[test]
    fn easy_denies_backfill_when_the_reservation_is_unbounded() {
        // Even draining the running jobs cannot free enough processors for
        // the head, so EASY refuses to backfill anything.
        let q = vec![queued(1, 100, 0.0, 10.0), queued(2, 1, 1.0, 1.0)];
        let running = [RunningSnapshot {
            completion: 10.0,
            size: 5,
        }];
        assert_eq!(
            SchedulerKind::EasyBackfill.select_with_context(&q, 3, &running, 0.0),
            None
        );
    }

    #[test]
    fn parse_accepts_names_and_aliases() {
        for kind in SchedulerKind::all() {
            assert_eq!(SchedulerKind::parse(kind.name()), Some(kind));
            assert_eq!(
                SchedulerKind::parse(&kind.name().to_ascii_uppercase()),
                Some(kind)
            );
        }
        assert_eq!(SchedulerKind::parse(" fcfs "), Some(SchedulerKind::Fcfs));
        assert_eq!(
            SchedulerKind::parse("backfill"),
            Some(SchedulerKind::FirstFitBackfill)
        );
        assert_eq!(
            SchedulerKind::parse("EASY"),
            Some(SchedulerKind::EasyBackfill)
        );
        assert_eq!(
            SchedulerKind::parse("conservative"),
            Some(SchedulerKind::Conservative)
        );
        assert_eq!(SchedulerKind::parse("round-robin"), None);
    }

    #[test]
    fn infinite_completions_deny_the_reservation() {
        // The decisive release has no (finite) completion estimate: EASY
        // must refuse to backfill rather than promise the head a start at
        // t = infinity and let everything jump it.
        let running = [
            RunningSnapshot {
                completion: 10.0,
                size: 2,
            },
            RunningSnapshot {
                completion: f64::INFINITY,
                size: 8,
            },
        ];
        assert_eq!(SchedulerKind::reservation(10, 0, &running), None);
        // A finite release that crosses the threshold first is unaffected.
        assert_eq!(SchedulerKind::reservation(2, 0, &running), Some((10.0, 0)));
    }

    #[test]
    fn plain_select_on_easy_is_conservative_fcfs() {
        let q = queue();
        for kind in [SchedulerKind::EasyBackfill, SchedulerKind::Conservative] {
            assert_eq!(kind.select(&q, 12), Some(0), "{kind}");
            assert_eq!(kind.select(&q, 8), None, "{kind}");
        }
    }

    #[test]
    fn conservative_starts_a_fitting_head_and_backfills_safe_jobs() {
        // Head needs 10, only 4 free; a running job releases 6 at t = 100.
        // Head's reservation: t = 100 (all 10 available). Job 2 (size 2,
        // estimate 50) finishes by t = 50 and its window never touches
        // the head's carve — it backfills. Job 3 (size 4, estimate 500)
        // would still hold 4 of the head's 10 processors at t = 100.
        let q = queue();
        let running = [RunningSnapshot {
            completion: 100.0,
            size: 6,
        }];
        assert_eq!(
            SchedulerKind::Conservative.select_with_context(&q, 12, &running, 0.0),
            Some(0),
            "a fitting head starts first"
        );
        assert_eq!(
            SchedulerKind::Conservative.select_with_context(&q, 4, &running, 0.0),
            Some(1)
        );
        let q2 = vec![q[0], q[2]];
        assert_eq!(
            SchedulerKind::Conservative.select_with_context(&q2, 4, &running, 0.0),
            None
        );
        assert_eq!(
            SchedulerKind::Conservative.select_with_context(&[], 12, &running, 0.0),
            None
        );
    }

    #[test]
    fn conservative_protects_mid_queue_reservations_where_easy_does_not() {
        // 3 processors free; one running job releases 10 at t = 100.
        // Head (size 10, est 100) is reserved at t = 100, carving the
        // profile to 3 over [100, 200). Mid (size 12, est 100) is
        // reserved at t = 200 — the head's window end — carving
        // [200, 300) down to 1.
        let head = queued(1, 10, 0.0, 100.0);
        let mid = queued(2, 12, 1.0, 100.0);
        let running = [RunningSnapshot {
            completion: 100.0,
            size: 10,
        }];
        // A short tail (size 3, est 90) runs inside [0, 90): it delays
        // neither carve, so both policies backfill it.
        let short = vec![head, mid, queued(3, 3, 2.0, 90.0)];
        for kind in [SchedulerKind::EasyBackfill, SchedulerKind::Conservative] {
            assert_eq!(
                kind.select_with_context(&short, 3, &running, 0.0),
                Some(2),
                "{kind}"
            );
        }
        // A long tail (size 3, est 500) holds its 3 processors through
        // mid's [200, 300) window, where only 1 is spare. EASY protects
        // only the head (shadow 100, extra 3: the tail fits the extras)
        // and lets it through; conservative refuses — this is exactly
        // the fairness gap between the two policies.
        let long = vec![head, mid, queued(3, 3, 2.0, 500.0)];
        assert_eq!(
            SchedulerKind::EasyBackfill.select_with_context(&long, 3, &running, 0.0),
            Some(2),
            "EASY protects only the head"
        );
        assert_eq!(
            SchedulerKind::Conservative.select_with_context(&long, 3, &running, 0.0),
            None,
            "conservative protects every earlier reservation"
        );
    }

    #[test]
    fn conservative_denies_everything_behind_an_unplannable_job() {
        // The head can only start when a no-estimate job terminates;
        // conservative refuses to let anything leapfrog it.
        let q = vec![queued(1, 10, 0.0, 10.0), queued(2, 1, 1.0, 1.0)];
        let running = [RunningSnapshot {
            completion: f64::INFINITY,
            size: 20,
        }];
        assert_eq!(
            SchedulerKind::Conservative.select_with_context(&q, 3, &running, 0.0),
            None
        );
        let starts = SchedulerKind::reservations(&q, 3, &running, 0.0);
        assert!(starts.iter().all(|s| s.is_infinite()));
    }

    #[test]
    fn reservations_assign_queue_order_start_guarantees() {
        // 4 free now; 6 more at t = 100. Head (10, est 100) reserved at
        // t = 100 carving everything; job 2 (2, est 50) fits the 4 free
        // now; job 3 (4, est 10) also wants the free-now processors but
        // job 2's carve leaves only 2 until t = 50, so it starts then.
        let q = vec![
            queued(1, 10, 0.0, 100.0),
            queued(2, 2, 1.0, 50.0),
            queued(3, 4, 2.0, 10.0),
        ];
        let running = [RunningSnapshot {
            completion: 100.0,
            size: 6,
        }];
        let starts = SchedulerKind::reservations(&q, 4, &running, 0.0);
        assert_eq!(starts, vec![100.0, 0.0, 50.0]);
    }

    #[test]
    fn reservation_table_carves_and_recovers_windows() {
        let running = [
            RunningSnapshot {
                completion: 10.0,
                size: 4,
            },
            RunningSnapshot {
                completion: 20.0,
                size: 4,
            },
        ];
        let mut table = ReservationTable::new(2, &running, 0.0);
        assert_eq!(table.available_at(0.0), 2);
        assert_eq!(table.available_at(10.0), 6);
        assert_eq!(table.available_at(25.0), 10);
        // A size-6 job for 5 s fits at t = 10.
        assert_eq!(table.earliest_start(6, 5.0), 10.0);
        // An infinite-duration job needs its processors forever: size 6
        // cannot start until t = 10 holds 6 for good — but the window
        // check sees the t = 20 rise too, so 10 works (availability only
        // grows). Carve it and the next size-6 job must wait forever.
        assert_eq!(table.reserve(6, f64::INFINITY), 10.0);
        assert_eq!(table.available_at(10.0), 0);
        assert_eq!(table.available_at(20.0), 4);
        assert_eq!(table.earliest_start(6, 1.0), f64::INFINITY);
        assert_eq!(table.reserve(6, 1.0), f64::INFINITY, "carves nothing");
        assert_eq!(table.earliest_start(4, 1.0), 20.0);
        // Finite carve in the middle restores capacity after its end.
        table.reserve_at(20.0, 4, 2.0);
        assert_eq!(table.available_at(21.0), 0);
        assert_eq!(table.available_at(22.0), 4);
        // Past-due releases clamp to now rather than predating the table.
        let overdue = [RunningSnapshot {
            completion: -5.0,
            size: 3,
        }];
        let table = ReservationTable::new(1, &overdue, 0.0);
        assert_eq!(table.available_at(0.0), 4);
        assert_eq!(table.now(), 0.0);
    }

    #[test]
    fn select_with_context_matches_select_for_fcfs_and_backfill() {
        let q = queue();
        let running = [RunningSnapshot {
            completion: 7.0,
            size: 3,
        }];
        for kind in [SchedulerKind::Fcfs, SchedulerKind::FirstFitBackfill] {
            for free in [0usize, 3, 8, 12] {
                assert_eq!(
                    kind.select_with_context(&q, free, &running, 5.0),
                    kind.select(&q, free)
                );
            }
        }
    }
}
