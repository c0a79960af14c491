//! One live machine: its backing state, admission queue, running jobs
//! and counters ([`MachineEntry`]), plus the errors and outcomes the
//! service reports for it.
//!
//! [`crate::AllocationService`] owns the machines, one lock each.
//! Requests for different machines proceed fully in parallel, while
//! requests for one machine serialise — the granularity the occupancy
//! invariant requires (an allocate must observe the state left by the
//! previous allocate/release on the same machine).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::admission::{AdmissionQueue, PendingRequest};
use crate::calibration::{CalibrationSample, CalibrationStore, PlacementRecord, PLACEMENT_CAP};
use crate::clock::{micros, Clock};
use crate::journal::{JournalRecord, MachineImage, MachineSpec, QueuedRequest, RunningJob};
use crate::metrics::MachineMetrics;
use crate::protocol::AllocArgs;
use crate::score::{ScoreBreakdown, ScoreScratch};
use crate::tenant::{job_cost, TenantTable};
use crate::trace::{RequestCtx, Stage};
use commalloc::scheduler::{BlockReason, QueuedJob, RunningSnapshot, SchedulerKind};
use commalloc_alloc::curve_alloc::SelectionStrategy;
use commalloc_alloc::interval_index::FreeIntervalIndex;
use commalloc_alloc::{AllocRequest, Allocation, Allocator, AllocatorKind, MachineState};
use commalloc_mesh::curve3d::{Curve3Kind, Curve3Order};
use commalloc_mesh::{CurveKind, CurveOrder, Mesh2D, Mesh3D, NodeId};
use commalloc_workload::CommPattern;
use serde::Serialize;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A raw allocation outcome: the granted nodes, plus — when the grant
/// was pattern-scored — the winner's score breakdown and the number of
/// candidate windows weighed (the grant-time half of the calibration
/// join).
type ScoredGrant = (Vec<NodeId>, Option<(ScoreBreakdown, usize)>);

/// Errors surfaced by the service to callers (mapped onto protocol error
/// responses by the server).
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The named machine is not registered.
    UnknownMachine(String),
    /// The named pool has no members (`alloc` to `"@pool"`, `set_router`).
    UnknownPool(String),
    /// A machine with that name already exists.
    MachineExists(String),
    /// A mesh/allocator/strategy specification could not be parsed.
    InvalidSpec(String),
    /// The job is neither running nor queued on the machine.
    UnknownJob { machine: String, job_id: u64 },
    /// The job already runs or waits on the machine.
    DuplicateJob { machine: String, job_id: u64 },
    /// A bare job id addressed at a pool resolves to more than one
    /// member — the caller must use a qualified `pool/member/id` ref.
    AmbiguousJob {
        pool: String,
        job_id: u64,
        machines: Vec<String>,
    },
    /// Admitting the request would push the tenant's outstanding
    /// node-second commitment past its quota.
    QuotaExceeded {
        tenant: String,
        usage: f64,
        limit: f64,
    },
    /// The request itself is malformed (zero size, larger than the whole
    /// machine, ...).
    InvalidRequest(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownMachine(name) => write!(f, "unknown machine {name:?}"),
            ServiceError::UnknownPool(name) => write!(f, "unknown pool {name:?}"),
            ServiceError::MachineExists(name) => {
                write!(f, "machine {name:?} is already registered")
            }
            ServiceError::InvalidSpec(spec) => write!(f, "invalid specification: {spec}"),
            ServiceError::UnknownJob { machine, job_id } => {
                write!(f, "job {job_id} is not known on machine {machine:?}")
            }
            ServiceError::DuplicateJob { machine, job_id } => {
                write!(f, "job {job_id} already exists on machine {machine:?}")
            }
            ServiceError::AmbiguousJob {
                pool,
                job_id,
                machines,
            } => {
                write!(
                    f,
                    "job id {job_id} is ambiguous in pool {pool:?}: it exists on machines {}; \
                     address it with a qualified ref like {}/{}/{job_id}",
                    machines.join(", "),
                    pool,
                    machines.first().map(String::as_str).unwrap_or("<member>"),
                )
            }
            ServiceError::QuotaExceeded {
                tenant,
                usage,
                limit,
            } => {
                write!(
                    f,
                    "tenant {tenant:?} quota exceeded: {usage} of {limit} node-seconds committed"
                )
            }
            ServiceError::InvalidRequest(reason) => write!(f, "invalid request: {reason}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// The walltime boundary rule, applied to journal-recovery records too:
/// live requests are validated at the protocol boundary and in
/// [`MachineEntry::allocate`], so a journal written by this daemon never
/// carries a bad estimate — but a corrupt or hand-edited record must be
/// refused rather than folded into the reservation math, where NaN
/// ordering silently corrupts shadow times.
fn validate_restored_walltime(job_id: u64, walltime: Option<f64>) -> Result<(), String> {
    match walltime {
        Some(w) if !crate::protocol::walltime_is_valid(w) => Err(format!(
            "record for job {job_id} carries walltime {w} (must be finite and positive)"
        )),
        _ => Ok(()),
    }
}

/// Outcome of an allocation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocOutcome {
    /// Processors were granted immediately, in rank order.
    Granted(Vec<NodeId>),
    /// The request waits in the FCFS admission queue at this 1-based
    /// position.
    Queued(usize),
    /// The request was rejected (capacity shortfall with `wait` unset).
    Rejected(String),
}

/// Status of a job on a machine, as reported by `poll`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Running on these processors (granted immediately or from the
    /// queue).
    Running(Vec<NodeId>),
    /// Waiting in the admission queue at this 1-based position.
    Queued(usize),
    /// Not present on the machine.
    Unknown,
}

/// A point-in-time occupancy summary of one machine.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MachineSnapshot {
    /// Machine name.
    pub machine: String,
    /// Dimension spec: `"WxH"` or `"WxHxD"`.
    pub dims: String,
    /// Allocator description.
    pub allocator: String,
    /// Total processors.
    pub nodes: usize,
    /// Free processors.
    pub free: usize,
    /// Busy processors.
    pub busy: usize,
    /// Fraction of processors busy.
    pub utilization: f64,
    /// Jobs currently holding processors.
    pub live_jobs: usize,
    /// Requests waiting in the admission queue.
    pub queue_len: usize,
    /// The active scheduling policy of the admission queue.
    pub scheduler: String,
    /// Per-queued-request outlook, in queue order: promised start times
    /// (where the policy plans them) and the binding constraint keeping
    /// each request queued.
    pub queue: Vec<QueueOutlook>,
}

/// The scheduler's outlook for one queued request: where it stands, when
/// the policy promises to start it (conservative plans every request;
/// EASY plans the head; FCFS and first-fit promise nothing), and which
/// constraint is keeping it queued right now.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueOutlook {
    /// The queued job.
    pub job: u64,
    /// 1-based queue position.
    pub position: usize,
    /// The policy's promised start time (service clock), when it plans
    /// one and the plan is bounded.
    pub reserved_start: Option<f64>,
    /// The binding constraint keeping the request queued, when the
    /// policy can name one.
    pub explain: Option<BlockReason>,
}

impl Serialize for QueueOutlook {
    fn to_value(&self) -> serde::Value {
        let mut m = serde::Map::new();
        m.insert("job".into(), self.job.to_value());
        m.insert("position".into(), (self.position as u64).to_value());
        if let Some(start) = self.reserved_start.filter(|s| s.is_finite()) {
            m.insert("reserved_start".into(), start.to_value());
        }
        if let Some(reason) = &self.explain {
            m.insert("explain".into(), crate::trace::reason_to_value(reason));
        }
        serde::Value::Object(m)
    }
}

/// The allocator+state backing of one machine.
enum Backing {
    /// A 2-D mesh served by any of the paper's allocators.
    TwoD {
        mesh: Mesh2D,
        machine: MachineState,
        allocator: Box<dyn Allocator>,
        kind: AllocatorKind,
        /// Probe curve for communication-aware placement: free windows
        /// along it are the candidate node sets scored by predicted
        /// contention (independent of the configured allocator, so every
        /// 2-D machine — MBS, paging, genetic — can serve patterned
        /// jobs the same way).
        probe: CurveOrder,
        memo: ScoreMemo,
        /// The buffers every 2-D score of this machine reuses (boxed: the
        /// 3-D variant has none).
        scratch: Box<ScoreScratch>,
    },
    /// A 3-D mesh served by one-dimensional reduction along a 3-D curve,
    /// with the free-interval index as the single source of truth.
    ThreeD {
        mesh: Mesh3D,
        curve: Curve3Order,
        index: FreeIntervalIndex,
        strategy: SelectionStrategy,
        memo: ScoreMemo,
    },
}

/// The scores of windows this machine has weighed, one entry per window
/// *shape*: its nodes' coordinates relative to one another, in rank
/// order. A score is a pure function of the mesh, the window's nodes in
/// rank order, the pattern and the job id, of which only `Random` reads
/// the id; it reads the nodes only through their shape (and the mesh only
/// through its diameter), so every translate of a window scores alike,
/// for every job, whatever the occupancy.
///
/// A window is a run of the machine's fixed curve, so its shape is the
/// run of *steps* (the move from each curve position to the next) inside
/// it: two windows of one size are translates exactly when those runs are
/// equal. An entry is keyed by a fingerprint of the run, the size and the
/// pattern, and holds its score and the curve start of the window it was
/// computed for. A hit is confirmed by comparing the two runs, O(size); a
/// window whose fingerprint meets another shape is scored afresh and not
/// stored. The memo is never invalidated, never journaled or snapshotted
/// (a re-registered or recovered machine starts empty), and `Random` is
/// never stored. It is cleared when it holds [`Backing::MEMO_CAP`]
/// entries.
#[derive(Default)]
struct ScoreMemo {
    entries: HashMap<ShapeKey, (usize, ScoreBreakdown)>,
    /// `steps[r]`: the move from curve position `r - 1` to `r`, each
    /// axis's difference wrapped to 16 bits (`steps[0]` is 0). Built on
    /// the first memoised score: 8 bytes a node.
    steps: Vec<u64>,
    /// Scores served from an entry.
    hits: u64,
    /// Scores computed for the memo: a new shape, or a fingerprint that
    /// met another shape. `Random` scores are neither hits nor misses.
    misses: u64,
    /// Times the memo was emptied at its cap.
    clears: u64,
}

/// A window shape's fingerprint, the window's size and the pattern.
type ShapeKey = (u64, u32, CommPattern);

// The cap's byte bound counts 48 bytes a key and entry, none on the heap,
// and a window, at most a whole machine, has a size that fits the key.
const _: () = assert!(std::mem::size_of::<(ShapeKey, (usize, ScoreBreakdown))>() == 48);
const _: () = assert!(crate::service::MAX_MACHINE_NODES <= u32::MAX as u64);

impl ScoreMemo {
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// The steps inside the window of `size` curve positions from
    /// `start`: its shape.
    fn shape(&self, start: usize, size: usize) -> &[u64] {
        &self.steps[start + 1..start + size]
    }
}

/// A 64-bit hash of a window's steps.
fn fingerprint(shape: &[u64]) -> u64 {
    shape.iter().fold(0, |hash, &step| {
        (hash.rotate_left(26) ^ step).wrapping_mul(crate::score::SPLITMIX64_GAMMA)
    })
}

impl Backing {
    fn total_nodes(&self) -> usize {
        match self {
            Backing::TwoD { machine, .. } => machine.num_nodes(),
            Backing::ThreeD { index, .. } => index.len(),
        }
    }

    fn num_free(&self) -> usize {
        match self {
            Backing::TwoD { machine, .. } => machine.num_free(),
            Backing::ThreeD { index, .. } => index.num_free(),
        }
    }

    fn num_busy(&self) -> usize {
        self.total_nodes() - self.num_free()
    }

    /// Attempts the raw allocation, committing the occupancy change on
    /// success. Does not touch the queue or metrics.
    ///
    /// A declared communication pattern reroutes the decision through
    /// [`Backing::best_window`]: the fitting candidate node set
    /// with the **lowest predicted contention** wins, committed straight
    /// onto the occupancy state (safe behind the allocator's back — the
    /// 2-D allocators resynchronise from the machine bitmap via the
    /// `MachineState::generation` protocol). When no contiguous
    /// candidate fits (a fragmented machine), the pattern is ignored and
    /// the configured allocator decides as for an unpatterned job.
    ///
    /// For a scored (patterned) grant the winner's [`ScoreBreakdown`]
    /// and the number of candidates weighed ride along — the grant-time
    /// half of the calibration join. A lone fitting window is committed
    /// unscored unless `recording` calibration, the one reader left.
    fn try_allocate(
        &mut self,
        job_id: u64,
        size: usize,
        pattern: Option<CommPattern>,
        recording: bool,
    ) -> Option<ScoredGrant> {
        if let Some(pattern) = pattern {
            if let Some((best, scored)) = self.best_window(job_id, size, pattern, recording) {
                match self {
                    Backing::TwoD { machine, .. } => machine.occupy(&best),
                    Backing::ThreeD { curve, index, .. } => {
                        let ranks: Vec<usize> = best.iter().map(|&n| curve.rank_of(n)).collect();
                        let applied = index.occupy_ranks(&ranks);
                        debug_assert!(applied, "scored candidate held a busy rank");
                    }
                }
                return Some((best, scored));
            }
        }
        match self {
            Backing::TwoD {
                machine, allocator, ..
            } => {
                let allocation = allocator.allocate(&AllocRequest::new(job_id, size), machine)?;
                machine.occupy(&allocation.nodes);
                Some((allocation.nodes, None))
            }
            Backing::ThreeD {
                curve,
                index,
                strategy,
                ..
            } => {
                if size == 0 || size > index.num_free() {
                    return None;
                }
                let ranks: Vec<usize> = match strategy {
                    SelectionStrategy::FreeList => index.free_list_ranks(size),
                    _ => match index.select(*strategy, size) {
                        Some(interval) => (interval.start..interval.start + size).collect(),
                        None => index.min_span_ranks(size),
                    },
                };
                let applied = index.occupy_ranks(&ranks);
                debug_assert!(applied, "3-D index granted a busy rank");
                Some((ranks.iter().map(|&r| curve.node_at(r)).collect(), None))
            }
        }
    }

    /// Candidate placements for a patterned job, as curve starts:
    /// windows of `size` consecutive free positions, one per maximal free
    /// run along the probe curve (2-D) or free-interval index (3-D),
    /// capped at [`Backing::CANDIDATE_CAP`] in curve order. Empty when no
    /// run is long enough — the caller falls back to the unpatterned
    /// path.
    fn window_starts(&self, size: usize) -> Vec<usize> {
        if size == 0 || size > self.num_free() {
            return Vec::new();
        }
        match self {
            Backing::TwoD { machine, probe, .. } => {
                // A run's window is taken the moment the run is `size`
                // long, so no run needs buffering.
                let mut run = 0;
                (0..probe.len())
                    .filter(|&rank| {
                        run = if machine.is_free(probe.node_at(rank)) {
                            run + 1
                        } else {
                            0
                        };
                        run == size
                    })
                    .take(Self::CANDIDATE_CAP)
                    .map(|end| end + 1 - size)
                    .collect()
            }
            Backing::ThreeD { index, .. } => index
                .intervals()
                .filter(|iv| iv.len >= size)
                .take(Self::CANDIDATE_CAP)
                .map(|iv| iv.start)
                .collect(),
        }
    }

    /// The nodes of the window of `size` curve positions from `start`.
    fn window(&self, start: usize, size: usize) -> Vec<NodeId> {
        let ranks = start..start + size;
        match self {
            Backing::TwoD { probe, .. } => ranks.map(|r| probe.node_at(r)).collect(),
            Backing::ThreeD { curve, .. } => ranks.map(|r| curve.node_at(r)).collect(),
        }
    }

    /// At most this many candidate windows are scored per decision: the
    /// score runs a message-level simulation, so an unboundedly
    /// fragmented machine must not make one grant arbitrarily slow.
    const CANDIDATE_CAP: usize = 8;

    /// The [`ScoreMemo`] is cleared when it holds this many entries.
    /// Std's map fills to 7/8 of a power-of-two slot count, so 1 792
    /// entries never take more than 2 048 slots of 49 bytes (a 16-byte
    /// key, a 32-byte start and score, a control byte): about 98 KiB per
    /// machine at worst. At the next power of two, `trace_replay`'s peak
    /// RSS read 12 % higher.
    const MEMO_CAP: usize = 1792;

    /// Scores a candidate afresh, with buffers of its own: the reference
    /// the memo's tests compare with. Deterministic in `(backing mesh,
    /// nodes, pattern, job_id)` — see [`crate::score`].
    #[cfg(test)]
    fn score_candidate(
        &self,
        nodes: &[NodeId],
        pattern: CommPattern,
        job_id: u64,
    ) -> ScoreBreakdown {
        match self {
            Backing::TwoD { mesh, .. } => {
                crate::score::predicted_contention_2d(*mesh, nodes, pattern, job_id)
            }
            Backing::ThreeD { mesh, .. } => {
                crate::score::predicted_contention_3d(*mesh, nodes, pattern, job_id)
            }
        }
    }

    /// Scores the window at curve `start` against the declared pattern
    /// (lower total is better), in the machine's scoring buffers.
    fn score_fresh(
        &mut self,
        start: usize,
        size: usize,
        pattern: CommPattern,
        job_id: u64,
    ) -> ScoreBreakdown {
        let nodes = self.window(start, size);
        match self {
            Backing::TwoD { mesh, scratch, .. } => {
                crate::score::predicted_contention_2d_in(scratch, *mesh, &nodes, pattern, job_id)
            }
            Backing::ThreeD { mesh, .. } => {
                crate::score::predicted_contention_3d(*mesh, &nodes, pattern, job_id)
            }
        }
    }

    /// The move from each curve position to the next, for
    /// [`ScoreMemo::steps`].
    fn curve_steps(&self) -> Vec<u64> {
        let at: Vec<[u16; 3]> = match self {
            Backing::TwoD { mesh, probe, .. } => (0..probe.len())
                .map(|rank| mesh.coord_of(probe.node_at(rank)))
                .map(|c| [c.x, c.y, 0])
                .collect(),
            Backing::ThreeD { mesh, curve, .. } => (0..curve.len())
                .map(|rank| mesh.coord_of(curve.node_at(rank)))
                .map(|c| [c.x, c.y, c.z])
                .collect(),
        };
        let step = |from: [u16; 3], to: [u16; 3]| {
            (0..3).fold(0, |word, axis| {
                word | u64::from(to[axis].wrapping_sub(from[axis])) << (16 * axis)
            })
        };
        std::iter::once(0)
            .chain(at.windows(2).map(|pair| step(pair[0], pair[1])))
            .collect()
    }

    fn memo_mut(&mut self) -> &mut ScoreMemo {
        let (Backing::TwoD { memo, .. } | Backing::ThreeD { memo, .. }) = self;
        memo
    }

    /// The score of the window at curve `start`, computed once per
    /// machine and window shape and read from the [`ScoreMemo`] after
    /// (except for the job-seeded `Random` pattern).
    fn score_window(
        &mut self,
        start: usize,
        size: usize,
        pattern: CommPattern,
        job_id: u64,
    ) -> ScoreBreakdown {
        if pattern == CommPattern::Random {
            return self.score_fresh(start, size, pattern, job_id);
        }
        if self.memo_mut().steps.is_empty() {
            let steps = self.curve_steps();
            self.memo_mut().steps = steps;
        }
        let memo = self.memo_mut();
        let shape = memo.shape(start, size);
        let key = (fingerprint(shape), size as u32, pattern);
        let found = memo.entries.get(&key).copied();
        let hit = found.filter(|&(at, _)| at == start || memo.shape(at, size) == shape);
        if let Some((_, score)) = hit {
            memo.hits += 1;
            return score;
        }
        let score = self.score_fresh(start, size, pattern, job_id);
        let memo = self.memo_mut();
        memo.misses += 1;
        if found.is_none() {
            if memo.len() >= Self::MEMO_CAP {
                memo.entries.clear();
                memo.clears += 1;
            }
            memo.entries.insert(key, (start, score));
        }
        score
    }

    /// The fitting candidate with the lowest predicted contention (ties
    /// break towards the earlier curve position), or `None` when no
    /// contiguous window fits, with the winner's breakdown and how many
    /// candidates were weighed. A lone candidate wins unscored unless
    /// `score_lone`: the arg-min of one window needs no score, so only a
    /// reader of the score (calibration, the comm-aware router's
    /// sample) pays for it. Scores go through the machine's memo, so
    /// this may fill it; occupancy is not touched.
    fn best_window(
        &mut self,
        job_id: u64,
        size: usize,
        pattern: CommPattern,
        score_lone: bool,
    ) -> Option<ScoredGrant> {
        let starts = self.window_starts(size);
        let considered = starts.len();
        if considered == 1 && !score_lone {
            return Some((self.window(starts[0], size), None));
        }
        starts
            .into_iter()
            .map(|start| (start, self.score_window(start, size, pattern, job_id)))
            .min_by(|(_, a), (_, b)| a.total().total_cmp(&b.total()))
            .map(|(start, score)| (self.window(start, size), Some((score, considered))))
    }

    /// Re-occupies exactly `nodes` — the journal-recovery path, which
    /// replays committed grants instead of re-running an allocator. A
    /// grant with a node out of range, repeated within it, or already
    /// busy is refused whole (a corrupt record cannot half-apply), and
    /// the fault reported is the one a check in that order meets first.
    /// Nodes are occupied one by one, so a repeat shows as a node this
    /// grant already holds: no set is built, and a fault rolls back what
    /// was occupied. The 2-D curve allocators resynchronise their
    /// interval index from the machine bitmap automatically (the
    /// `MachineState::generation` protocol), so occupying behind their
    /// back is safe.
    fn restore_occupy(&mut self, nodes: &[NodeId]) -> Result<(), String> {
        // Only ever called on a fault: the first node repeating an
        // earlier one among the first `upto`.
        let first_repeat = |upto: usize| {
            (1..upto)
                .find(|&j| nodes[..j].contains(&nodes[j]))
                .map(|j| format!("node {} repeats within one grant", nodes[j]))
        };
        let total = self.total_nodes();
        if let Some(at) = nodes.iter().position(|n| n.index() >= total) {
            return Err(first_repeat(at).unwrap_or_else(|| {
                format!("node {} is out of range for this machine", nodes[at])
            }));
        }
        let Some(at) = nodes.iter().position(|&n| !self.occupy_node(n)) else {
            return Ok(());
        };
        for &node in &nodes[..at] {
            self.release_node(node);
        }
        Err(first_repeat(nodes.len())
            .unwrap_or_else(|| format!("node {} is already busy", nodes[at])))
    }

    /// Marks `node` busy; `false` (and nothing changed) when it is not
    /// free.
    fn occupy_node(&mut self, node: NodeId) -> bool {
        match self {
            Backing::TwoD { machine, .. } => {
                let free = machine.is_free(node);
                if free {
                    machine.occupy(&[node]);
                }
                free
            }
            Backing::ThreeD { curve, index, .. } => index.occupy_rank(curve.rank_of(node)),
        }
    }

    /// Undoes [`Backing::occupy_node`].
    fn release_node(&mut self, node: NodeId) {
        match self {
            Backing::TwoD { machine, .. } => machine.release(&[node]),
            Backing::ThreeD { curve, index, .. } => {
                let applied = index.release_rank(curve.rank_of(node));
                debug_assert!(applied, "rolled back a free rank");
            }
        }
    }

    /// Returns the nodes of `job_id` to the free pool.
    fn release(&mut self, nodes: &[NodeId], job_id: u64) {
        match self {
            Backing::TwoD {
                machine, allocator, ..
            } => {
                machine.release(nodes);
                allocator.release(&Allocation::new(job_id, nodes.to_vec()), machine);
            }
            Backing::ThreeD { curve, index, .. } => {
                let ranks: Vec<usize> = nodes.iter().map(|&node| curve.rank_of(node)).collect();
                let applied = index.release_ranks(&ranks);
                debug_assert!(applied, "released a free rank");
            }
        }
    }
}

/// The scheduler-facing view of a running job.
fn running_snapshot(job: &RunningJob) -> RunningSnapshot {
    RunningSnapshot {
        completion: job.completion(),
        size: job.nodes.len(),
    }
}

/// One registered machine: backing state, running jobs, admission
/// queue and counters. All access happens under the machine's own lock.
pub struct MachineEntry {
    name: String,
    backing: Backing,
    queue: AdmissionQueue,
    /// The running jobs, in *grant order* with `swap_remove`-on-release
    /// — deliberately the same evolution the offline engine's running
    /// vector undergoes, so EASY's (stable) completion sort breaks ties
    /// identically online and offline.
    running: Vec<RunningJob>,
    /// Where each running job sits in `running`.
    slot_of: HashMap<u64, usize>,
    /// Modification generation: bumped whenever occupancy or the queue
    /// may have changed (allocate, release, policy switch). The cluster
    /// router's sample-then-commit protocol re-checks it before
    /// committing against a sample — the entry-level analogue of
    /// `commalloc_alloc::MachineState::generation` from PR 1.
    generation: u64,
    /// Whether mutations compose [`JournalRecord`]s into the outbox.
    /// False (zero overhead) unless the owning service runs a durable
    /// journal sink.
    journaled: bool,
    /// Records composed by mutations since the last flush. The service
    /// drains this **while still holding the machine lock**, so for any
    /// one machine journal order equals mutation order — the ordering
    /// the recovery fold depends on.
    outbox: Vec<JournalRecord>,
    /// Sequence number of this machine's last appended journal record —
    /// its snapshot watermark (see `crate::journal`'s module docs).
    journal_seq: u64,
    /// Grant-time calibration records of live pattern-scored jobs,
    /// keyed by job id and joined with the realized outcome at release.
    /// Bounded by [`PLACEMENT_CAP`]; only populated while the
    /// service's calibration store is enabled.
    placements: HashMap<u64, PlacementRecord>,
    /// The service-wide calibration store (shared by every entry; the
    /// disabled path costs one relaxed load per grant/release).
    calibration: Arc<CalibrationStore>,
    /// The service-wide tenant ledger (shared by every entry): quota
    /// settlement at release and the fair-share drain key both read it.
    tenants: Arc<TenantTable>,
    /// Whether the weighted fair-share admission layer re-orders this
    /// machine's queue before each drain. Orthogonal to the scheduler
    /// policy (which still decides *eligibility*); journaled.
    fair_share: bool,
    /// Operation counters (public so the service layer can read them out).
    pub metrics: MachineMetrics,
}

impl MachineEntry {
    fn new(
        name: &str,
        backing: Backing,
        scheduler: SchedulerKind,
        tenants: Arc<TenantTable>,
        calibration: Arc<CalibrationStore>,
    ) -> Self {
        MachineEntry {
            name: name.to_string(),
            backing,
            queue: AdmissionQueue::new(scheduler),
            running: Vec::new(),
            slot_of: HashMap::new(),
            generation: 0,
            journaled: false,
            outbox: Vec::new(),
            journal_seq: 0,
            placements: HashMap::new(),
            calibration,
            tenants,
            fair_share: false,
            metrics: MachineMetrics::default(),
        }
    }

    /// The machine's operation counters, its score memo's counts
    /// included.
    pub fn counters(&self) -> MachineMetrics {
        let (Backing::TwoD { memo, .. } | Backing::ThreeD { memo, .. }) = &self.backing;
        MachineMetrics {
            score_memo_hits: memo.hits,
            score_memo_misses: memo.misses,
            score_memo_clears: memo.clears,
            ..self.metrics.clone()
        }
    }

    /// Whether the fair-share admission layer is enabled here.
    pub fn fair_share(&self) -> bool {
        self.fair_share
    }

    /// Toggles the fair-share admission layer and re-drains the queue
    /// (disabling it may admit a request the re-ordering was holding
    /// behind a heavier tenant, and vice versa). Returns the newly
    /// granted jobs in grant order.
    pub fn set_fair_share(
        &mut self,
        enabled: bool,
        ctx: &mut RequestCtx<'_>,
    ) -> Vec<(u64, Vec<NodeId>)> {
        self.generation += 1;
        self.fair_share = enabled;
        if self.journaled {
            self.outbox.push(JournalRecord::SetFairShare {
                machine: self.name.clone(),
                enabled,
            });
        }
        self.drain_queue(None, ctx)
    }

    /// Recovery: re-applies a journaled fair-share toggle without
    /// draining (the grants the live toggle admitted replay as their
    /// own records).
    pub fn restore_fair_share(&mut self, enabled: bool) {
        self.fair_share = enabled;
        self.generation += 1;
    }

    /// A 2-D mesh machine served by `kind`, admitting under
    /// `scheduler`, settling against the service's `tenants` ledger and
    /// feeding its `calibration` store.
    pub(crate) fn new_2d(
        name: &str,
        mesh: Mesh2D,
        kind: AllocatorKind,
        scheduler: SchedulerKind,
        tenants: Arc<TenantTable>,
        calibration: Arc<CalibrationStore>,
    ) -> Self {
        MachineEntry::new(
            name,
            Backing::TwoD {
                mesh,
                machine: MachineState::new(mesh),
                allocator: kind.build(mesh),
                kind,
                probe: CurveOrder::build(CurveKind::Hilbert, mesh),
                memo: ScoreMemo::default(),
                scratch: Box::default(),
            },
            scheduler,
            tenants,
            calibration,
        )
    }

    /// A 3-D mesh machine served by curve reduction along `curve` with
    /// `strategy`; otherwise as [`MachineEntry::new_2d`].
    pub(crate) fn new_3d(
        name: &str,
        mesh: Mesh3D,
        curve: Curve3Kind,
        strategy: SelectionStrategy,
        scheduler: SchedulerKind,
        tenants: Arc<TenantTable>,
        calibration: Arc<CalibrationStore>,
    ) -> Self {
        let curve = Curve3Order::build(curve, mesh);
        let index = FreeIntervalIndex::all_free(curve.len());
        MachineEntry::new(
            name,
            Backing::ThreeD {
                mesh,
                curve,
                index,
                strategy,
                memo: ScoreMemo::default(),
            },
            scheduler,
            tenants,
            calibration,
        )
    }

    /// The active scheduling policy.
    pub fn scheduler(&self) -> SchedulerKind {
        self.queue.kind()
    }

    /// The modification generation (see the field docs): routing samples
    /// taken at generation `g` are stale once `generation() != g`.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Turns journal-record composition on: subsequent mutations push
    /// their records into the outbox for the service to flush.
    pub fn enable_journaling(&mut self) {
        self.journaled = true;
    }

    /// Drains the records composed since the last flush (the service
    /// appends them to its sink while still holding the machine lock).
    pub fn take_outbox(&mut self) -> Vec<JournalRecord> {
        std::mem::take(&mut self.outbox)
    }

    /// Notes the sequence number the sink assigned to this machine's
    /// latest record — the snapshot watermark.
    pub fn note_journal_seq(&mut self, seq: u64) {
        self.journal_seq = self.journal_seq.max(seq);
    }

    /// This machine's snapshot watermark (0 when never journaled).
    pub fn journal_seq(&self) -> u64 {
        self.journal_seq
    }

    /// Photographs the machine for a journal snapshot, under its lock:
    /// registration config (re-registerable specs derived from the
    /// live backing, so defaults are explicit), the service's virtual
    /// time (`clock`, `None` on wall time), running jobs in
    /// grant order (the order EASY's tie-breaking depends on), queued
    /// requests in queue order, and the journal watermark.
    pub fn capture_image(&self, clock: Option<f64>) -> MachineImage {
        let (mesh, allocator, strategy) = match &self.backing {
            Backing::TwoD { mesh, kind, .. } => (
                format!("{}x{}", mesh.width(), mesh.height()),
                kind.name().to_string(),
                None,
            ),
            Backing::ThreeD {
                mesh,
                curve,
                strategy,
                ..
            } => (
                format!("{}x{}x{}", mesh.width(), mesh.height(), mesh.depth()),
                curve.kind().name().to_string(),
                Some(strategy.short_name().to_string()),
            ),
        };
        MachineImage {
            spec: MachineSpec {
                machine: self.name.clone(),
                mesh,
                allocator: Some(allocator),
                strategy,
                scheduler: Some(self.queue.kind().name().to_string()),
            },
            seq: self.journal_seq,
            clock,
            fair_share: self.fair_share,
            running: self.running.clone(),
            queue: self.queue.iter().map(|p| p.request.clone()).collect(),
        }
    }

    /// Whether `job_id` is live here: running or waiting. The one
    /// question the pool layer asks a member about a job id.
    pub fn holds(&self, job_id: u64) -> bool {
        self.slot_of.contains_key(&job_id) || self.queue.contains(job_id)
    }

    /// Appends `job` to the running order.
    fn push_running(&mut self, job: RunningJob) {
        self.slot_of.insert(job.job, self.running.len());
        self.running.push(job);
    }

    /// Removes `job_id` from the running order, if it runs.
    fn take_running(&mut self, job_id: u64) -> Option<RunningJob> {
        let at = self.slot_of.remove(&job_id)?;
        // swap_remove, not remove: keeps the running-order evolution
        // identical to the offline engine's.
        let job = self.running.swap_remove(at);
        if let Some(moved) = self.running.get(at) {
            self.slot_of.insert(moved.job, at);
        }
        Some(job)
    }

    /// Recovery: re-commits a journaled grant — `job.job` holds exactly
    /// `job.nodes` again. Removes the job from the queue first when
    /// present (a grant-from-queue record follows its queue record in
    /// the log), and evolves the running vector with the same push the
    /// live drain uses, so recovered tie-breaking state matches a live
    /// run, and advances `clock` past its start ([`Clock::advance_to`]).
    pub fn restore_grant(&mut self, job: RunningJob, clock: &Clock) -> Result<(), String> {
        if self.slot_of.contains_key(&job.job) {
            return Err(format!("grant for job {} which already runs", job.job));
        }
        validate_restored_walltime(job.job, job.walltime)?;
        self.backing.restore_occupy(&job.nodes)?;
        self.queue.remove(job.job);
        clock.advance_to(job.start);
        self.push_running(job);
        self.generation += 1;
        Ok(())
    }

    /// Recovery: re-enqueues a journaled admission, advancing `clock`.
    pub fn restore_queue(&mut self, request: QueuedRequest, clock: &Clock) -> Result<(), String> {
        let QueuedRequest { job, size, .. } = request;
        if self.holds(job) {
            return Err(format!("queue record for job {job} which already exists"));
        }
        if size == 0 || size > self.total_nodes() {
            return Err(format!("queue record for job {job} with size {size}"));
        }
        validate_restored_walltime(job, request.walltime)?;
        clock.advance_to(request.enqueued_at);
        self.queue.enqueue(PendingRequest::restored(request));
        self.generation += 1;
        Ok(())
    }

    /// Recovery: re-applies a journaled release and accrues its hold
    /// (`nodes × held`) to the job's tenant, as the live release did.
    /// The tenant's outstanding commitment is left alone: recovery
    /// recomputes it from the restored jobs. Does **not** drain the
    /// queue — the grants a live release triggered were journaled as
    /// their own records and replay right after this one.
    pub fn restore_release(&mut self, job_id: u64, held: f64) -> Result<(), String> {
        let job = self
            .take_running(job_id)
            .ok_or_else(|| format!("release of job {job_id} which does not run"))?;
        self.backing.release(&job.nodes, job_id);
        if held > 0.0 {
            let consumed = job.nodes.len() as f64 * held;
            self.tenants.settle(job.tenant.as_deref(), 0.0, consumed);
        }
        self.generation += 1;
        Ok(())
    }

    /// Recovery: re-applies a journaled queue cancellation.
    pub fn restore_cancel(&mut self, job_id: u64) -> Result<(), String> {
        self.queue
            .remove(job_id)
            .ok_or_else(|| format!("cancel of job {job_id} which is not queued"))?;
        self.generation += 1;
        Ok(())
    }

    /// Recovery: re-applies a policy switch without draining (the
    /// grants the live switch admitted replay as their own records).
    pub fn restore_scheduler(&mut self, scheduler: SchedulerKind) {
        self.queue.set_kind(scheduler);
        self.generation += 1;
    }

    /// The routing-relevant state of this machine, captured atomically
    /// under the machine lock (the cluster router's *sample* step), scored
    /// for one specific request: when the job declares a communication
    /// pattern, `contention` carries the lowest predicted contention this
    /// machine could offer it right now (`None` when no contiguous window
    /// fits, or no pattern was declared). The comm-aware routing policy
    /// keys on this field. Scoring may fill the machine's score memo.
    pub fn sample_for(
        &mut self,
        job_id: u64,
        size: usize,
        pattern: Option<CommPattern>,
    ) -> crate::cluster::MachineSample {
        crate::cluster::MachineSample {
            name: self.name.clone(),
            nodes: self.total_nodes(),
            free: self.num_free(),
            queue_len: self.queue.len(),
            generation: self.generation,
            contention: pattern
                .and_then(|p| self.backing.best_window(job_id, size, p, true))
                .and_then(|(_, scored)| scored)
                .map(|(score, _)| score.total()),
        }
    }

    /// Switches the scheduling policy at runtime and re-drains the queue
    /// (a switch to a backfilling policy may immediately admit requests
    /// FCFS was blocking). Returns the newly granted jobs in grant order.
    pub fn set_scheduler(
        &mut self,
        scheduler: SchedulerKind,
        ctx: &mut RequestCtx<'_>,
    ) -> Vec<(u64, Vec<NodeId>)> {
        self.generation += 1;
        self.queue.set_kind(scheduler);
        // Record composition is gated on `journaled` at every call site
        // so the default (unjournaled) service pays no clones for it.
        if self.journaled {
            self.outbox.push(JournalRecord::SetScheduler {
                machine: self.name.clone(),
                scheduler: scheduler.name().to_string(),
            });
        }
        self.drain_queue(None, ctx)
    }

    /// Total processors.
    pub fn total_nodes(&self) -> usize {
        self.backing.total_nodes()
    }

    /// Currently free processors.
    pub fn num_free(&self) -> usize {
        self.backing.num_free()
    }

    /// Currently busy processors.
    pub fn num_busy(&self) -> usize {
        self.backing.num_busy()
    }

    /// Serves an allocation request: immediate grant, queue (when
    /// `args.wait`), or rejection. The request is logically appended to
    /// the admission queue and the queue is drained under the active
    /// policy — under FCFS a non-empty queue therefore still blocks every
    /// newcomer, while the backfilling policies may start the newcomer at
    /// once. `args.walltime` is the client's runtime estimate in seconds
    /// (EASY's shadow-time input); it must be finite and positive when
    /// present.
    ///
    /// `placed_by` is the placement provenance label the calibration
    /// plane files under (the routing-policy name for pool-routed
    /// requests, `"direct"` otherwise). Quota admission happens at the
    /// service layer *before* this call; here `args.tenant` only rides
    /// the request into the queue, the journal and the running metadata.
    ///
    /// The enqueued request remembers the context's request ID, so a
    /// later grant-from-queue attaches its events to the request that
    /// enqueued the job; a queued or rejected outcome emits a `Deny`
    /// event carrying the scheduler's explanation of what blocked it.
    pub fn allocate(
        &mut self,
        args: &AllocArgs<'_>,
        placed_by: &'static str,
        ctx: &mut RequestCtx<'_>,
    ) -> Result<AllocOutcome, ServiceError> {
        let AllocArgs {
            job: job_id,
            size,
            wait,
            walltime,
            pattern,
            tenant,
        } = *args;
        if self.holds(job_id) {
            return Err(ServiceError::DuplicateJob {
                machine: self.name.clone(),
                job_id,
            });
        }
        if size == 0 {
            return Err(ServiceError::InvalidRequest(
                "cannot allocate zero processors".to_string(),
            ));
        }
        if size > self.total_nodes() {
            return Err(ServiceError::InvalidRequest(format!(
                "request for {size} processors exceeds machine size {}",
                self.total_nodes()
            )));
        }
        if let Some(w) = walltime {
            if !crate::protocol::walltime_is_valid(w) {
                return Err(ServiceError::InvalidRequest(format!(
                    "walltime estimate must be finite and positive, got {w}"
                )));
            }
        }
        self.generation += 1;
        let must_wait = !self.queue.is_empty();
        self.queue.enqueue(PendingRequest {
            request: QueuedRequest {
                job: job_id,
                size,
                walltime,
                enqueued_at: ctx.now(),
                pattern,
                tenant: tenant.map(str::to_string),
            },
            trace_request: ctx.request(),
            placed_by,
            arrival_seq: 0,
        });
        let granted = self.drain_queue(Some(job_id), ctx);
        // An arrival frees nothing, so under the current policies the
        // drain can only ever admit the arriving job itself (eligibility
        // of older requests is monotone in free capacity). A policy for
        // which this stops holding must grow a way to notify the other
        // winners — their grants would otherwise be committed silently.
        debug_assert!(
            granted.iter().all(|(id, _)| *id == job_id),
            "alloc drain granted a non-arriving job"
        );
        if let Some((_, nodes)) = granted.into_iter().find(|(id, _)| *id == job_id) {
            return Ok(AllocOutcome::Granted(nodes));
        }
        let Some((index, pending)) = self
            .queue
            .iter()
            .enumerate()
            .find(|(_, p)| p.request.job == job_id)
        else {
            // The drain dropped the request: the machine was empty and the
            // allocator still refused (contiguous strategies with no
            // suitable rectangle), so waiting could never help.
            return Ok(AllocOutcome::Rejected(format!(
                "{} processors requested, but the allocator cannot place the job \
                 even on an empty machine",
                size
            )));
        };
        // The request stays queued: that *is* the durable effect (the
        // drain's own grants and drops were logged as they happened).
        let journaled = (wait && self.journaled).then(|| pending.request.clone());
        // Not granted: record *why* on the trace — the binding
        // constraint the scheduler names — computed only when tracing
        // is live (the outlook walks the queue).
        if ctx.active() {
            let explain = if self.queue.len() == 1 {
                // The arriving job is the whole queue, and every policy
                // explains a blocked head the same way — too few free
                // processors (a fitting-but-refused head is allocator
                // fragmentation: no reason to name). Skip the full
                // outlook, which snapshots every running job.
                let free = self.backing.num_free();
                (size > free).then_some(BlockReason::InsufficientFree { free, needed: size })
            } else {
                self.queue_outlook(job_id, ctx.now())
                    .and_then(|o| o.explain)
            };
            ctx.deny(job_id, explain.as_ref(), ctx.now_micros());
        }
        if wait {
            self.metrics.queued += 1;
            if let Some(request) = journaled {
                self.outbox.push(JournalRecord::Queue {
                    machine: self.name.clone(),
                    request,
                });
            }
            self.tenants.note_enqueued(tenant);
            Ok(AllocOutcome::Queued(index + 1))
        } else {
            self.queue.remove(job_id);
            self.metrics.rejected += 1;
            Ok(AllocOutcome::Rejected(format!(
                "{} processors requested, {} free{}",
                size,
                self.num_free(),
                if must_wait { ", queue ahead" } else { "" }
            )))
        }
    }

    /// Releases `job_id` (or cancels it if still queued), then drains the
    /// admission queue under the active policy. Returns the jobs granted
    /// from the queue as `(job_id, nodes)` pairs, in grant order.
    pub fn release(
        &mut self,
        job_id: u64,
        ctx: &mut RequestCtx<'_>,
    ) -> Result<Vec<(u64, Vec<NodeId>)>, ServiceError> {
        self.generation += 1;
        if let Some(job) = self.take_running(job_id) {
            let nodes = &job.nodes;
            self.backing.release(nodes, job_id);
            // Settle the tenant ledger: return the committed
            // node-seconds, accrue the realized hold.
            let held = (ctx.now() - job.start).max(0.0);
            self.tenants.settle(
                job.tenant.as_deref(),
                job_cost(nodes.len(), job.walltime),
                nodes.len() as f64 * held,
            );
            // Join the grant-time calibration record with the realized
            // outcome. The record is removed unconditionally (a toggle
            // mid-flight must not leak it); it is folded into the store
            // only while calibration is on.
            if let Some(record) = self.placements.remove(&job_id) {
                if self.calibration.enabled() {
                    let held = (ctx.now() - record.granted_at).max(0.0);
                    self.calibration.record(&CalibrationSample { record, held });
                }
            }
            self.metrics.released += 1;
            if self.journaled {
                self.outbox.push(JournalRecord::Release {
                    machine: self.name.clone(),
                    job: job_id,
                    held,
                });
            }
        } else if let Some(pending) = self.queue.remove(job_id) {
            // Cancelling a queued request frees no processors, but may
            // unblock the queue if the cancelled job was the head.
            self.settle_cancelled(&pending.request);
        } else {
            return Err(ServiceError::UnknownJob {
                machine: self.name.clone(),
                job_id,
            });
        }
        Ok(self.drain_queue(None, ctx))
    }

    /// Settles a queued request that leaves its queue without running
    /// (a client cancel, or a drop the allocator can never place): its
    /// tenant's commitment returns with zero consumption, the queue
    /// gauge falls, and the journal records a cancel.
    fn settle_cancelled(&mut self, request: &QueuedRequest) {
        let tenant = request.tenant.as_deref();
        self.tenants
            .settle(tenant, job_cost(request.size, request.walltime), 0.0);
        self.tenants.note_dequeued(tenant);
        if self.journaled {
            self.outbox.push(JournalRecord::Cancel {
                machine: self.name.clone(),
                job: request.job,
            });
        }
    }

    /// Drains the admission queue to a fixpoint under the active policy:
    /// repeatedly asks the policy which request may start and commits the
    /// grant. Mirrors the offline engine's start loop exactly, including
    /// its two allocator-refusal outcomes: on a *fragmented* machine the
    /// refused request is put back and the drain stops (a future release
    /// may open a suitable region); on an *empty* machine the request is
    /// dropped and counted as rejected — no release can ever help it.
    ///
    /// `arriving` marks the request that entered the queue in this same
    /// call (its grant is recorded as immediate rather than from-queue,
    /// and contributes no wait time).
    ///
    /// Trace events for a grant-from-queue are attached to the request
    /// that *enqueued* the job (via `PendingRequest::trace_request`),
    /// not the request whose release or policy switch triggered this
    /// drain — `ctx` lends its recorder binding and its clock: each
    /// probe is one stage, ending at one clock read.
    fn drain_queue(
        &mut self,
        arriving: Option<u64>,
        ctx: &mut RequestCtx<'_>,
    ) -> Vec<(u64, Vec<NodeId>)> {
        if self.queue.is_empty() {
            return Vec::new();
        }
        let (now, own) = (ctx.now(), ctx.request());
        let kind = self.queue.kind();
        // The fair-share admission layer re-orders the queue *before*
        // the scheduler policy looks at it: a stable sort on the
        // tenants' fair-share keys with arrival order as tie-breaker,
        // so single-tenant (and untenanted) queues come out unchanged
        // and the policy below sees an ordinary ordered queue.
        if self.fair_share {
            let table = &self.tenants;
            self.queue.resequence(|tenant| table.fair_key(tenant));
        }
        let mut granted = Vec::new();
        // Both policy inputs are built once and maintained incrementally
        // across iterations (each grant appends one running snapshot and
        // removes one queued job), so each grant costs O(1) allocations.
        // Policies that ignore an input skip its build entirely; the
        // capability methods match exhaustively in core, so a new
        // `SchedulerKind` variant cannot silently receive empty inputs.
        let mut snapshots: Vec<RunningSnapshot> = if kind.uses_running_snapshots() {
            self.running.iter().map(running_snapshot).collect()
        } else {
            Vec::new()
        };
        // Head-only policies get a zero-allocation one-element view per
        // iteration; queue-scanning policies get the incrementally
        // maintained full mirror.
        let mut queued: Vec<commalloc::scheduler::QueuedJob> = if kind.scans_whole_queue() {
            self.queue.iter().map(PendingRequest::as_queued).collect()
        } else {
            Vec::new()
        };
        loop {
            let free = self.backing.num_free();
            let head_view;
            let policy_view: &[commalloc::scheduler::QueuedJob] = if kind.scans_whole_queue() {
                &queued
            } else {
                head_view = self.queue.head().map(PendingRequest::as_queued);
                head_view.as_slice()
            };
            let Some(at) = kind.select_with_context(policy_view, free, &snapshots, now) else {
                break;
            };
            let pending = self.queue.take_at(at);
            if kind.scans_whole_queue() {
                queued.remove(at);
            }
            // Events for this job attach to the request that enqueued it
            // (an untraced enqueue keeps the caller's).
            let request = &pending.request;
            *ctx = ctx.for_request(own).for_request(pending.trace_request);
            // Read once, so the placement is scored exactly when its
            // record is filed (one relaxed load while calibration is
            // off; bounded side-table).
            let recording = self.calibration.enabled() && self.placements.len() < PLACEMENT_CAP;
            let grant =
                self.backing
                    .try_allocate(request.job, request.size, request.pattern, recording);
            let probed_at = ctx.lap(Stage::Allocator, request.job, 0);
            match grant {
                Some((nodes, scored)) => {
                    let from_queue = arriving != Some(request.job);
                    // File the grant-time half of the calibration join
                    // for pattern-scored placements.
                    if let (true, Some((predicted, candidates)), Some(pattern)) =
                        (recording, scored, request.pattern)
                    {
                        self.placements.insert(
                            request.job,
                            PlacementRecord {
                                pattern: pattern.name(),
                                policy: pending.placed_by,
                                predicted,
                                candidates,
                                queue_wait: if from_queue {
                                    (now - request.enqueued_at).max(0.0)
                                } else {
                                    0.0
                                },
                                granted_at: now,
                                walltime: request.walltime,
                            },
                        );
                    }
                    if from_queue && pending.trace_request != 0 {
                        let enqueued_at = micros(request.enqueued_at);
                        ctx.span(Stage::Queue, request.job, 0, enqueued_at, probed_at);
                    }
                    ctx.instant(Stage::Grant, request.job, u32::from(from_queue), probed_at);
                    self.metrics
                        .record_grant(from_queue, self.backing.num_busy());
                    if from_queue {
                        self.metrics
                            .wait
                            .record(now - request.enqueued_at, request.walltime);
                        let tenant = request.tenant.as_deref();
                        self.tenants.note_dequeued(tenant);
                        self.tenants.note_wait(tenant, now - request.enqueued_at);
                    }
                    let job = pending.request.started(nodes.clone(), now);
                    if self.journaled {
                        self.outbox.push(JournalRecord::Grant {
                            machine: self.name.clone(),
                            job: job.clone(),
                        });
                    }
                    if kind.uses_running_snapshots() {
                        snapshots.push(running_snapshot(&job));
                    }
                    granted.push((job.job, nodes));
                    self.push_running(job);
                }
                None if self.backing.num_busy() == 0 => {
                    // Even an empty machine cannot host this request with
                    // this allocator: drop it (engine parity) instead of
                    // deadlocking the queue behind it forever. A dropped
                    // request that was durably queued earlier journals as
                    // a cancel; the arriving request was never journaled
                    // as queued, so there is nothing to cancel.
                    ctx.deny(request.job, None, probed_at);
                    self.metrics.rejected += 1;
                    if arriving != Some(request.job) {
                        // A dropped *queued* request settles here; the
                        // arriving request's admission is unwound by the
                        // service when it sees the Rejected outcome.
                        self.settle_cancelled(request);
                    }
                    continue;
                }
                None => {
                    // Fragmented refusal: the request stays queued for a
                    // future release.
                    self.queue.put_back(at, pending);
                    break;
                }
            }
        }
        *ctx = ctx.for_request(own);
        granted
    }

    /// The scheduler's outlook at `now` for every queued request, in
    /// queue order.
    /// Built from the same policy inputs the drain loop consumes, so the
    /// promised starts ([`SchedulerKind::promised_starts`]) are exactly
    /// what the next drain would plan. The `explain` of each entry names
    /// the constraint keeping it queued.
    pub fn queue_outlooks(&self, now: f64) -> Vec<QueueOutlook> {
        if self.queue.is_empty() {
            return Vec::new();
        }
        let free = self.backing.num_free();
        let kind = self.queue.kind();
        let queued: Vec<QueuedJob> = self.queue.iter().map(PendingRequest::as_queued).collect();
        let snapshots: Vec<RunningSnapshot> = self.running.iter().map(running_snapshot).collect();
        let reserved = kind.promised_starts(&queued, free, &snapshots, now);
        queued
            .iter()
            .enumerate()
            .map(|(i, job)| QueueOutlook {
                job: job.job_id,
                position: i + 1,
                reserved_start: reserved[i],
                explain: kind.explain(&queued, i, free, &snapshots, now),
            })
            .collect()
    }

    /// The outlook for one queued job, if it waits. Outlooks are
    /// relative to the jobs ahead, so the whole queue is planned and
    /// then filtered.
    pub fn queue_outlook(&self, job_id: u64, now: f64) -> Option<QueueOutlook> {
        self.queue.position(job_id)?;
        self.queue_outlooks(now)
            .into_iter()
            .find(|o| o.job == job_id)
    }

    /// Where `job_id` currently stands.
    pub fn poll(&self, job_id: u64) -> JobStatus {
        if let Some(&at) = self.slot_of.get(&job_id) {
            JobStatus::Running(self.running[at].nodes.clone())
        } else if let Some(position) = self.queue.position(job_id) {
            JobStatus::Queued(position)
        } else {
            JobStatus::Unknown
        }
    }

    /// Point-in-time occupancy summary, its queue outlook planned at
    /// `now`.
    pub fn snapshot(&self, now: f64) -> MachineSnapshot {
        let (dims, allocator) = match &self.backing {
            Backing::TwoD { mesh, kind, .. } => (
                format!("{}x{}", mesh.width(), mesh.height()),
                kind.name().to_string(),
            ),
            Backing::ThreeD {
                mesh,
                curve,
                strategy,
                ..
            } => (
                format!("{}x{}x{}", mesh.width(), mesh.height(), mesh.depth()),
                format!("{} w/{}", curve.kind().name(), strategy.short_name()),
            ),
        };
        MachineSnapshot {
            machine: self.name.clone(),
            dims,
            allocator,
            nodes: self.total_nodes(),
            free: self.num_free(),
            busy: self.num_busy(),
            utilization: self.num_busy() as f64 / self.total_nodes() as f64,
            live_jobs: self.running.len(),
            queue_len: self.queue.len(),
            scheduler: self.queue.kind().name().to_string(),
            queue: self.queue_outlooks(now),
        }
    }

    /// Exhaustive invariant check (test/debug helper): every node is held
    /// by at most one job, the backing's free count agrees with the
    /// running jobs' nodes, the slot table mirrors the running order,
    /// and no job is simultaneously queued and running (queue-position
    /// consistency).
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.running.len() != self.slot_of.len() {
            return Err(format!(
                "{} running-order entries but {} slots",
                self.running.len(),
                self.slot_of.len()
            ));
        }
        for (at, job) in self.running.iter().enumerate() {
            if self.slot_of.get(&job.job) != Some(&at) {
                return Err(format!(
                    "job {} runs at slot {at} but the slot table says {:?}",
                    job.job,
                    self.slot_of.get(&job.job)
                ));
            }
            if self.queue.contains(job.job) {
                return Err(format!("job {} is both running and queued", job.job));
            }
        }
        for (at, pending) in self.queue.iter().enumerate() {
            let job = pending.request.job;
            match self.queue.position(job) {
                Some(position) if position == at + 1 => {}
                other => {
                    return Err(format!(
                        "job {job} sits at queue slot {} but position() reports {other:?}",
                        at + 1
                    ))
                }
            }
        }
        let mut held = vec![false; self.total_nodes()];
        for RunningJob { job, nodes, .. } in &self.running {
            for node in nodes {
                let i = node.index();
                if i >= held.len() {
                    return Err(format!("job {job} holds out-of-range node {node}"));
                }
                if held[i] {
                    return Err(format!("node {node} held by two jobs"));
                }
                held[i] = true;
            }
        }
        let held_count = held.iter().filter(|&&h| h).count();
        if held_count != self.num_busy() {
            return Err(format!(
                "running jobs hold {held_count} nodes but machine reports {} busy",
                self.num_busy()
            ));
        }
        match &self.backing {
            Backing::TwoD { machine, .. } => {
                for (i, &h) in held.iter().enumerate() {
                    if machine.is_free(NodeId(i as u32)) == h {
                        return Err(format!("node {i} free/held state mismatch"));
                    }
                }
            }
            Backing::ThreeD { curve, index, .. } => {
                for (i, &h) in held.iter().enumerate() {
                    if index.is_free(curve.rank_of(NodeId(i as u32))) == h {
                        return Err(format!("node {i} free/held state mismatch"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AllocationService;

    /// An untenanted, unpatterned, untraced direct alloc — the shape
    /// most of these tests submit.
    fn alloc(
        m: &mut MachineEntry,
        clock: &Clock,
        job: u64,
        size: usize,
        wait: bool,
        walltime: Option<f64>,
    ) -> Result<AllocOutcome, ServiceError> {
        let args = AllocArgs {
            wait,
            walltime,
            ..AllocArgs::new(job, size)
        };
        m.allocate(&args, "direct", &mut untraced(clock))
    }

    /// An untraced request context on `clock`.
    fn untraced(clock: &Clock) -> RequestCtx<'_> {
        RequestCtx::inert().on(clock)
    }

    /// A service holding one 16×16 `Hilbert w/BF` machine, "m0", and
    /// the clock its requests read.
    fn service_with(scheduler: SchedulerKind) -> (AllocationService, Clock) {
        let r = AllocationService::new();
        let kind = AllocatorKind::HilbertBestFit.name();
        r.register("m0", "16x16", Some(kind), None, Some(scheduler.name()))
            .unwrap();
        (r, Clock::wall())
    }

    fn assert_invariants(r: &AllocationService, name: &str) {
        r.with_entry(name, |m| {
            m.check_invariants().map_err(ServiceError::InvalidRequest)
        })
        .unwrap();
    }

    #[test]
    fn register_rejects_duplicates_and_lists_sorted() {
        let (r, _) = service_with(SchedulerKind::Fcfs);
        assert_eq!(
            r.register("m0", "4x4", Some(AllocatorKind::Mc1x1.name()), None, None),
            Err(ServiceError::MachineExists("m0".to_string()))
        );
        // A Hilbert best-fit FCFS cube: the 3-D defaults.
        r.register("cube", "4x4x4", None, None, None).unwrap();
        assert_eq!(r.list(), vec!["cube".to_string(), "m0".to_string()]);
    }

    #[test]
    fn allocate_release_cycle_keeps_invariants() {
        let (r, clock) = service_with(SchedulerKind::Fcfs);
        let outcome = r
            .with_entry("m0", |m| alloc(m, &clock, 1, 30, false, None))
            .unwrap();
        let AllocOutcome::Granted(nodes) = outcome else {
            panic!("expected a grant, got {outcome:?}");
        };
        assert_eq!(nodes.len(), 30);
        assert_invariants(&r, "m0");
        assert_eq!(
            r.with_entry("m0", |m| Ok(m.poll(1))).unwrap(),
            JobStatus::Running(nodes)
        );
        let granted = r
            .with_entry("m0", |m| m.release(1, &mut untraced(&clock)))
            .unwrap();
        assert!(granted.is_empty());
        assert_eq!(r.with_entry("m0", |m| Ok(m.num_free())).unwrap(), 256);
    }

    #[test]
    fn queueing_is_fcfs_with_head_of_line_blocking() {
        let (r, clock) = service_with(SchedulerKind::Fcfs);
        // Fill the machine almost completely.
        let AllocOutcome::Granted(_) = r
            .with_entry("m0", |m| alloc(m, &clock, 1, 250, false, None))
            .unwrap()
        else {
            panic!("grant expected");
        };
        // 20 does not fit -> queued; 3 would fit but must wait behind it.
        assert_eq!(
            r.with_entry("m0", |m| alloc(m, &clock, 2, 20, true, None))
                .unwrap(),
            AllocOutcome::Queued(1)
        );
        assert_eq!(
            r.with_entry("m0", |m| alloc(m, &clock, 3, 3, true, None))
                .unwrap(),
            AllocOutcome::Queued(2)
        );
        // Without wait, the same situation is a rejection.
        let outcome = r
            .with_entry("m0", |m| alloc(m, &clock, 4, 1, false, None))
            .unwrap();
        assert!(matches!(outcome, AllocOutcome::Rejected(_)));
        // Releasing the big job grants both queued jobs, in order.
        let granted = r
            .with_entry("m0", |m| m.release(1, &mut untraced(&clock)))
            .unwrap();
        let ids: Vec<u64> = granted.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![2, 3]);
        assert_invariants(&r, "m0");
    }

    #[test]
    fn cancelling_a_queued_head_unblocks_the_queue() {
        let (r, clock) = service_with(SchedulerKind::Fcfs);
        r.with_entry("m0", |m| alloc(m, &clock, 1, 250, false, None))
            .unwrap();
        r.with_entry("m0", |m| alloc(m, &clock, 2, 100, true, None))
            .unwrap();
        r.with_entry("m0", |m| alloc(m, &clock, 3, 5, true, None))
            .unwrap();
        // Cancel the blocking head; job 3 fits the 6 free processors.
        let granted = r
            .with_entry("m0", |m| m.release(2, &mut untraced(&clock)))
            .unwrap();
        let ids: Vec<u64> = granted.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![3]);
    }

    #[test]
    fn duplicate_and_unknown_jobs_are_errors() {
        let (r, clock) = service_with(SchedulerKind::Fcfs);
        r.with_entry("m0", |m| alloc(m, &clock, 1, 4, false, None))
            .unwrap();
        assert_eq!(
            r.with_entry("m0", |m| alloc(m, &clock, 1, 4, false, None)),
            Err(ServiceError::DuplicateJob {
                machine: "m0".to_string(),
                job_id: 1
            })
        );
        assert_eq!(
            r.with_entry("m0", |m| m.release(99, &mut untraced(&clock))),
            Err(ServiceError::UnknownJob {
                machine: "m0".to_string(),
                job_id: 99
            })
        );
        assert!(matches!(
            r.with_entry("m0", |m| alloc(m, &clock, 5, 0, false, None)),
            Err(ServiceError::InvalidRequest(_))
        ));
        assert!(matches!(
            r.with_entry("m0", |m| alloc(m, &clock, 5, 1000, false, None)),
            Err(ServiceError::InvalidRequest(_))
        ));
        for bad_walltime in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                r.with_entry("m0", |m| alloc(m, &clock, 5, 1, false, Some(bad_walltime))),
                Err(ServiceError::InvalidRequest(_))
            ));
        }
        assert!(matches!(
            r.with_entry("nope", |m| alloc(m, &clock, 1, 1, false, None)),
            Err(ServiceError::UnknownMachine(_))
        ));
    }

    #[test]
    fn first_fit_backfill_lets_fitting_jobs_jump_the_head() {
        let (r, clock) = service_with(SchedulerKind::FirstFitBackfill);
        r.with_entry("m0", |m| alloc(m, &clock, 1, 250, false, None))
            .unwrap();
        // Job 2 blocks as the head; job 3 fits the 6 free processors and
        // starts immediately under first-fit backfill.
        assert_eq!(
            r.with_entry("m0", |m| alloc(m, &clock, 2, 100, true, None))
                .unwrap(),
            AllocOutcome::Queued(1)
        );
        let outcome = r
            .with_entry("m0", |m| alloc(m, &clock, 3, 5, true, None))
            .unwrap();
        assert!(
            matches!(outcome, AllocOutcome::Granted(ref nodes) if nodes.len() == 5),
            "backfill should start job 3 at once, got {outcome:?}"
        );
        assert_invariants(&r, "m0");
    }

    #[test]
    fn easy_backfills_only_jobs_that_respect_the_reservation() {
        let (r, clock) = service_with(SchedulerKind::EasyBackfill);
        r.with_entry("m0", |m| {
            clock.set_time(0.0);
            // 200 processors for 100 s: releases at t = 100.
            alloc(m, &clock, 1, 200, false, Some(100.0))
        })
        .unwrap();
        // The head needs 100 (only 56 free): the shadow time is t = 100
        // (job 1's release), with 256 − 100 = 156 extra processors free
        // at that instant.
        assert_eq!(
            r.with_entry("m0", |m| alloc(m, &clock, 2, 100, true, Some(50.0)))
                .unwrap(),
            AllocOutcome::Queued(1)
        );
        // A short job (done by t = 50 < 100) backfills.
        let outcome = r
            .with_entry("m0", |m| alloc(m, &clock, 3, 40, true, Some(50.0)))
            .unwrap();
        assert!(
            matches!(outcome, AllocOutcome::Granted(_)),
            "short job should backfill, got {outcome:?}"
        );
        // A long job that fits both the 16 remaining free processors and
        // the 156 extras is granted even though it outlives the shadow
        // time (it can never delay the head).
        let outcome = r
            .with_entry("m0", |m| alloc(m, &clock, 4, 16, true, Some(1000.0)))
            .unwrap();
        assert!(matches!(outcome, AllocOutcome::Granted(_)));
        // Nothing is free any more: the next job queues behind the head.
        assert_eq!(
            r.with_entry("m0", |m| alloc(m, &clock, 5, 10, true, Some(1000.0)))
                .unwrap(),
            AllocOutcome::Queued(2)
        );
        assert_invariants(&r, "m0");
    }

    #[test]
    fn conservative_protects_every_queued_reservation() {
        // The registry-level mirror of the core policy tests: the same
        // arrival sequence under conservative and EASY, diverging on the
        // final job — EASY protects only the head's reservation and
        // grants it; conservative also protects the mid-queue job's and
        // queues it.
        let sequence = |kind: SchedulerKind| {
            let (r, clock) = service_with(kind);
            r.with_entry("m0", |m| {
                clock.set_time(0.0);
                // 200 processors until t = 100: 56 free.
                assert!(matches!(
                    alloc(m, &clock, 1, 200, false, Some(100.0))?,
                    AllocOutcome::Granted(_)
                ));
                // Head: 100 processors, reserved at t = 100.
                assert_eq!(
                    alloc(m, &clock, 2, 100, true, Some(50.0))?,
                    AllocOutcome::Queued(1)
                );
                // A short small job backfills under both policies.
                assert!(matches!(
                    alloc(m, &clock, 3, 30, true, Some(40.0))?,
                    AllocOutcome::Granted(_)
                ));
                // 250 processors: reserved at t = 150 (after the head's
                // [100, 150) window) with only 6 spare during its run.
                assert_eq!(
                    alloc(m, &clock, 4, 250, true, Some(100.0))?,
                    AllocOutcome::Queued(2)
                );
                // The probe: 26 processors (exactly the free count) for
                // 1000 seconds — it would hold processors job 4's
                // reservation needs at t = 150.
                alloc(m, &clock, 5, 26, true, Some(1000.0))
            })
            .unwrap()
        };
        assert!(
            matches!(
                sequence(SchedulerKind::EasyBackfill),
                AllocOutcome::Granted(_)
            ),
            "EASY protects only the head and lets the long job through"
        );
        assert_eq!(
            sequence(SchedulerKind::Conservative),
            AllocOutcome::Queued(3),
            "conservative protects job 4's reservation too"
        );
    }

    #[test]
    fn conservative_cancel_mid_queue_recomputes_reservations() {
        let (r, clock) = service_with(SchedulerKind::Conservative);
        r.with_entry("m0", |m| {
            clock.set_time(0.0);
            alloc(m, &clock, 1, 200, false, Some(100.0))?;
            alloc(m, &clock, 2, 100, true, Some(50.0))?;
            alloc(m, &clock, 3, 30, true, Some(40.0))?;
            alloc(m, &clock, 4, 250, true, Some(100.0))?;
            // Blocked only by job 4's carve (6 spare during [150, 250)).
            assert_eq!(
                alloc(m, &clock, 5, 26, true, Some(1000.0))?,
                AllocOutcome::Queued(3)
            );
            Ok(())
        })
        .unwrap();
        // Cancelling the mid-queue job recomputes the table: job 5's
        // window no longer collides with any carve and it starts at once.
        let granted = r
            .with_entry("m0", |m| m.release(4, &mut untraced(&clock)))
            .unwrap();
        let ids: Vec<u64> = granted.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![5], "cancel must re-plan the queue");
        r.with_entry("m0", |m| {
            assert_eq!(m.poll(4), JobStatus::Unknown);
            assert!(matches!(m.poll(5), JobStatus::Running(_)));
            assert!(matches!(m.poll(2), JobStatus::Queued(1)));
            m.check_invariants().map_err(ServiceError::InvalidRequest)
        })
        .unwrap();
    }

    #[test]
    fn set_scheduler_redrains_the_queue() {
        let (r, clock) = service_with(SchedulerKind::Fcfs);
        r.with_entry("m0", |m| alloc(m, &clock, 1, 250, false, None))
            .unwrap();
        r.with_entry("m0", |m| alloc(m, &clock, 2, 100, true, None))
            .unwrap();
        r.with_entry("m0", |m| alloc(m, &clock, 3, 5, true, None))
            .unwrap();
        // FCFS blocks job 3 behind job 2; switching to backfill admits it.
        let granted = r
            .with_entry("m0", |m| {
                Ok(m.set_scheduler(SchedulerKind::FirstFitBackfill, &mut untraced(&clock)))
            })
            .unwrap();
        let ids: Vec<u64> = granted.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![3]);
        assert_eq!(
            r.with_entry("m0", |m| Ok(m.scheduler())).unwrap(),
            SchedulerKind::FirstFitBackfill
        );
        assert_eq!(
            r.with_entry("m0", |m| Ok(m.snapshot(0.0)))
                .unwrap()
                .scheduler,
            "first-fit backfill"
        );
    }

    #[test]
    fn fair_share_reorders_tenants_without_breaking_arrival_order() {
        // Tenant "hog" commits far more node-seconds than "mouse"; with
        // fair-share on, mouse's queued jobs drain first even though hog
        // arrived earlier — while each tenant's own jobs keep arrival
        // order.
        let (r, clock) = service_with(SchedulerKind::Fcfs);
        let tenants = Arc::clone(r.tenants());
        tenants.admit(Some("hog"), 1_000_000.0).unwrap();
        tenants.admit(Some("mouse"), 10.0).unwrap();
        let submit = |m: &mut MachineEntry, id: u64, tenant: &str| {
            let args = AllocArgs::new(id, 200).or_wait().for_tenant(tenant);
            m.allocate(&args, "direct", &mut untraced(&clock))
        };
        r.with_entry("m0", |m| {
            alloc(m, &clock, 1, 250, false, None)?;
            submit(m, 2, "hog")?;
            submit(m, 3, "hog")?;
            submit(m, 4, "mouse")?;
            assert!(!m.fair_share());
            Ok(())
        })
        .unwrap();
        let granted = r
            .with_entry("m0", |m| {
                m.set_fair_share(true, &mut untraced(&clock));
                assert!(m.fair_share());
                m.release(1, &mut untraced(&clock))
            })
            .unwrap();
        let ids: Vec<u64> = granted.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![4], "mouse's job jumps the hog's earlier ones");
        r.with_entry("m0", |m| {
            assert_eq!(m.poll(2), JobStatus::Queued(1), "hog keeps arrival order");
            assert_eq!(m.poll(3), JobStatus::Queued(2));
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn release_settles_the_tenant_ledger() {
        let (r, clock) = service_with(SchedulerKind::Fcfs);
        let tenants = Arc::clone(r.tenants());
        tenants
            .admit(Some("acme"), job_cost(30, Some(100.0)))
            .unwrap();
        r.with_entry("m0", |m| {
            clock.set_time(0.0);
            let args = AllocArgs::new(1, 30)
                .with_walltime(100.0)
                .for_tenant("acme");
            m.allocate(&args, "direct", &mut untraced(&clock))
        })
        .unwrap();
        r.with_entry("m0", |m| {
            clock.set_time(40.0);
            m.release(1, &mut untraced(&clock))
        })
        .unwrap();
        let row = tenants
            .export()
            .into_iter()
            .find(|row| row.tenant == "acme")
            .expect("acme row");
        assert_eq!(row.outstanding_node_seconds, 0.0);
        assert!(
            (row.consumed_node_seconds - 30.0 * 40.0).abs() < 1e-6,
            "30 nodes held 40 s, got {}",
            row.consumed_node_seconds
        );
    }

    #[test]
    fn recording_moves_no_placement_and_scores_the_winner() {
        // Holes of 20 after jobs 2 and 4, and a 136-node tail: sizes 7
        // and 20 see three windows, 30 and 64 one.
        let (r, clock) = service_with(SchedulerKind::Fcfs);
        r.register("cube", "8x8x4", None, None, None).unwrap();
        for name in ["m0", "cube"] {
            r.with_entry(name, |m| {
                (1..=6).try_for_each(|job| alloc(m, &clock, job, 20, false, None).map(drop))?;
                m.release(2, &mut untraced(&clock))?;
                m.release(4, &mut untraced(&clock))?;
                let mut lone_and_several = (false, false);
                for (size, pattern) in [7, 20, 30, 64].into_iter().zip(CommPattern::all()) {
                    let mut pick = |recording| {
                        let grant = m.backing.try_allocate(99, size, Some(pattern), recording);
                        grant.inspect(|(nodes, _)| m.backing.release(nodes, 99))
                    };
                    let (nodes, unscored) = pick(false).expect("a window fits");
                    let (same, scored) = pick(true).expect("a window fits");
                    assert_eq!(nodes, same, "{name}: recording moved a size-{size} grant");
                    let (breakdown, considered) = scored.expect("a recorded grant is scored");
                    assert_eq!(breakdown, m.backing.score_candidate(&nodes, pattern, 99));
                    assert_eq!(unscored.is_none(), considered == 1);
                    lone_and_several.0 |= considered == 1;
                    lone_and_several.1 |= considered > 1;
                }
                assert_eq!(lone_and_several, (true, true), "{name}: both paths covered");
                Ok(())
            })
            .unwrap();
        }
    }

    /// The decision with every window scored afresh: no memo read.
    fn fresh_best(
        b: &Backing,
        job: u64,
        size: usize,
        pattern: CommPattern,
    ) -> Option<(Vec<NodeId>, Option<ScoreBreakdown>)> {
        b.window_starts(size)
            .into_iter()
            .map(|start| b.window(start, size))
            .map(|nodes| (b.score_candidate(&nodes, pattern, job), nodes))
            .min_by(|(a, _), (b, _)| a.total().total_cmp(&b.total()))
            .map(|(score, nodes)| (nodes, Some(score)))
    }

    fn memo_len(b: &Backing) -> usize {
        let (Backing::TwoD { memo, .. } | Backing::ThreeD { memo, .. }) = b;
        memo.len()
    }

    #[test]
    fn the_score_memo_changes_no_decision() {
        // Seeded patterned alloc/release churn; sizes from a short list,
        // so windows, sizes and patterns recur across jobs.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let r = AllocationService::new();
        r.register("m0", "16x16", None, None, None).unwrap();
        r.register("cube", "8x8x4", None, None, None).unwrap();
        for (name, seed) in [("m0", 1), ("m0", 2), ("cube", 3), ("cube", 4)] {
            r.with_entry(name, |m| {
                let b = &mut m.backing;
                let mut rng = StdRng::seed_from_u64(seed);
                let mut live: Vec<(u64, Vec<NodeId>)> = Vec::new();
                let mut seen = [false; 9];
                for job in 1..=300 {
                    if !live.is_empty() && rng.gen_bool(0.4) {
                        let (id, nodes) = live.swap_remove(rng.gen_range(0..live.len()));
                        b.release(&nodes, id);
                        continue;
                    }
                    let size: usize = [2, 3, 5, 8, 13, 20, 32, 48][rng.gen_range(0..8usize)];
                    let at: usize = rng.gen_range(0..9);
                    let pattern = CommPattern::all()[at];
                    seen[at] = true;
                    let got = b.best_window(job, size, pattern, true);
                    let got = got.map(|(nodes, scored)| (nodes, scored.map(|(score, _)| score)));
                    assert_eq!(
                        got,
                        fresh_best(b, job, size, pattern),
                        "{name} seed {seed}: job {job}, {pattern} x{size}"
                    );
                    if let Some((nodes, _)) = b.try_allocate(job, size, Some(pattern), false) {
                        live.push((job, nodes));
                    }
                }
                assert_eq!(seen, [true; 9], "{name} seed {seed}: every pattern drawn");
                assert!(memo_len(b) > 0);
                Ok(())
            })
            .unwrap();
        }
    }

    /// The window's nodes less their least coordinate on each axis, in
    /// rank order, on a 2-D machine: the tests' own reading of a shape.
    fn shape_of(b: &Backing, start: usize, size: usize) -> Vec<(u16, u16)> {
        let Backing::TwoD { mesh, .. } = b else {
            panic!("a 2-D machine")
        };
        let at: Vec<_> = b
            .window(start, size)
            .iter()
            .map(|&n| mesh.coord_of(n))
            .collect();
        let x0 = at.iter().map(|c| c.x).min().unwrap();
        let y0 = at.iter().map(|c| c.y).min().unwrap();
        at.iter().map(|c| (c.x - x0, c.y - y0)).collect()
    }

    /// One `(start, size, pattern)` per window shape and deterministic
    /// pattern of a 2-D machine, smaller windows first.
    fn distinct_keys(b: &Backing) -> Vec<(usize, usize, CommPattern)> {
        let nodes = b.total_nodes();
        let mut seen = std::collections::HashSet::new();
        (1..=nodes)
            .flat_map(|size| (0..=nodes - size).map(move |start| (start, size)))
            .filter(|&(start, size)| seen.insert(shape_of(b, start, size)))
            .flat_map(|(start, size)| CommPattern::all().map(|p| (start, size, p)))
            .filter(|&(_, _, p)| p != CommPattern::Random)
            .collect()
    }

    #[test]
    fn a_full_score_memo_is_cleared_and_answers_alike() {
        let r = AllocationService::new();
        r.register("m0", "8x8", None, None, None).unwrap();
        r.with_entry("m0", |m| {
            let b = &mut m.backing;
            let keys: Vec<(usize, usize, CommPattern)> = distinct_keys(b)
                .into_iter()
                .take(Backing::MEMO_CAP + 8)
                .collect();
            assert_eq!(keys.len(), Backing::MEMO_CAP + 8, "enough distinct shapes");
            let fresh = |b: &Backing, (start, size, p): (usize, usize, CommPattern)| {
                b.score_candidate(&b.window(start, size), p, 7)
            };
            for (i, &key) in keys.iter().enumerate() {
                let score = b.score_window(key.0, key.1, key.2, 7);
                assert_eq!(score, fresh(b, key));
                assert_eq!(memo_len(b), i % Backing::MEMO_CAP + 1, "cleared at the cap");
                // A deterministic pattern's memoised score serves any job.
                assert_eq!(b.score_window(key.0, key.1, key.2, 8), score);
            }
            for &key in &keys[..16] {
                assert_eq!(b.score_window(key.0, key.1, key.2, 7), fresh(b, key));
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn a_window_shares_its_entry_with_its_translates_only() {
        // Of two windows whose nodes are translates of one another as
        // sets, one the curve visits in the same rank order is the same
        // shape, and shares the entry; one visited in another order is
        // another shape, which some patterns score differently.
        let r = AllocationService::new();
        r.register("m0", "16x16", None, None, None).unwrap();
        r.with_entry("m0", |m| {
            let b = &mut m.backing;
            let sorted = |mut shape: Vec<(u16, u16)>| {
                shape.sort_unstable();
                shape
            };
            let mut pairs = Vec::new();
            for size in 2..=8 {
                let shapes: Vec<_> = (0..=256 - size).map(|s| shape_of(b, s, size)).collect();
                for (a, shape_a) in shapes.iter().enumerate() {
                    for (c, shape_c) in shapes.iter().enumerate().skip(a + 1) {
                        if sorted(shape_a.clone()) == sorted(shape_c.clone()) {
                            pairs.push((a, c, size, shape_a == shape_c));
                        }
                    }
                }
            }
            let (mut shared, mut told_apart) = (0, 0);
            for (a, c, size, translate) in pairs.into_iter().step_by(7) {
                for pattern in CommPattern::all() {
                    if pattern == CommPattern::Random {
                        continue;
                    }
                    b.memo_mut().entries.clear();
                    let fresh_a = b.score_candidate(&b.window(a, size), pattern, 1);
                    let fresh_c = b.score_candidate(&b.window(c, size), pattern, 2);
                    assert_eq!(b.score_window(a, size, pattern, 1), fresh_a);
                    let hits = b.memo_mut().hits;
                    assert_eq!(b.score_window(c, size, pattern, 2), fresh_c);
                    if translate {
                        assert_eq!(fresh_c, fresh_a, "a translate scores alike to the bit");
                        assert_eq!(memo_len(b), 1, "one entry serves both");
                        assert_eq!(b.memo_mut().hits, hits + 1, "the translate is a hit");
                        shared += 1;
                    } else {
                        told_apart += usize::from(fresh_a != fresh_c);
                    }
                }
            }
            assert!(
                shared > 100 && told_apart > 0,
                "{shared} shared, {told_apart} apart"
            );
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn stats_count_the_score_memo() {
        // 16×16 `Hilbert w/BF`: four unpatterned jobs of 64 take the four
        // quadrants, curve positions 64·(k-1) to 64·k. Releasing jobs 2
        // and 4 leaves two free runs, so a patterned job weighs two
        // windows, at positions 64 and 192.
        let (r, clock) = service_with(SchedulerKind::Fcfs);
        let counts = |r: &AllocationService| {
            let stats = r.stats("m0").unwrap();
            let counters = stats.get("counters").unwrap();
            ["hits", "misses", "clears"].map(|name| {
                counters
                    .get(&format!("score_memo_{name}"))
                    .and_then(serde::Value::as_u64)
            })
        };
        assert_eq!(counts(&r), [Some(0); 3]);
        r.with_entry("m0", |m| {
            (1..=4).try_for_each(|job| alloc(m, &clock, job, 64, false, None).map(drop))?;
            m.release(2, &mut untraced(&clock))?;
            m.release(4, &mut untraced(&clock))
        })
        .unwrap();
        let patterned = |job: u64, size: usize, pattern: CommPattern| {
            r.with_entry("m0", |m| {
                let args = AllocArgs {
                    pattern: Some(pattern),
                    ..AllocArgs::new(job, size)
                };
                m.allocate(&args, "direct", &mut untraced(&clock))?;
                m.release(job, &mut untraced(&clock))
            })
            .unwrap();
        };
        // The windows at 64 and 192 lie in quadrants the curve turns
        // differently, so each shape is scored once, then served.
        patterned(10, 4, CommPattern::Ring);
        assert_eq!(counts(&r), [Some(0), Some(2), Some(0)]);
        patterned(11, 4, CommPattern::Ring);
        assert_eq!(counts(&r), [Some(2), Some(2), Some(0)]);
        // Another pattern is another entry; `random` is never memoised.
        patterned(12, 4, CommPattern::AllToAll);
        patterned(13, 4, CommPattern::Random);
        assert_eq!(counts(&r), [Some(2), Some(4), Some(0)]);
        // Filling the memo past its cap clears it once.
        r.with_entry("m0", |m| {
            let b = &mut m.backing;
            for (start, size, pattern) in distinct_keys(b).into_iter().take(Backing::MEMO_CAP + 8) {
                b.score_window(start, size, pattern, 1);
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(counts(&r)[2], Some(1));
    }

    #[test]
    fn a_faulty_restored_grant_names_its_fault_and_changes_nothing() {
        let r = AllocationService::new();
        let clock = Clock::wall();
        r.register("m0", "16x16", None, None, None).unwrap();
        r.register("cube", "4x4x4", None, None, None).unwrap();
        let grant = |job: u64, nodes: &[u32]| RunningJob {
            job,
            nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
            walltime: None,
            start: 0.0,
            pattern: None,
            tenant: None,
        };
        for name in ["m0", "cube"] {
            let restore = |job: RunningJob| {
                r.with_entry(name, |m| {
                    m.restore_grant(job, &clock)
                        .map_err(ServiceError::InvalidRequest)
                })
            };
            restore(grant(1, &[0, 1])).unwrap();
            for (nodes, fault) in [
                (&[2, 999][..], "node n999 is out of range for this machine"),
                (&[2, 3, 2][..], "node n2 repeats within one grant"),
                (&[2, 1][..], "node n1 is already busy"),
                // Of two faults, the one a check in order meets first.
                (&[1, 2, 2][..], "node n2 repeats within one grant"),
                (&[2, 2, 999][..], "node n2 repeats within one grant"),
            ] {
                assert_eq!(
                    restore(grant(2, nodes)),
                    Err(ServiceError::InvalidRequest(fault.to_string())),
                    "{name}"
                );
                let busy = r.with_entry(name, |m| Ok(m.num_busy())).unwrap();
                assert_eq!(busy, 2, "{name}: a refused grant occupied nothing");
                assert_invariants(&r, name);
            }
            restore(grant(2, &[2, 3])).unwrap();
            assert_invariants(&r, name);
        }
    }

    #[test]
    fn three_d_machines_allocate_contiguously_when_empty() {
        let r = AllocationService::new();
        let clock = Clock::wall();
        r.register("cube", "8x8x8", None, None, None).unwrap();
        let AllocOutcome::Granted(nodes) = r
            .with_entry("cube", |m| alloc(m, &clock, 1, 32, false, None))
            .unwrap()
        else {
            panic!("grant expected");
        };
        assert_eq!(nodes.len(), 32);
        // A Hilbert-curve prefix on an empty power-of-two cube is one
        // connected component.
        assert_eq!(Mesh3D::new(8, 8, 8).components(&nodes), 1);
        assert_invariants(&r, "cube");
        let snap = r.with_entry("cube", |m| Ok(m.snapshot(0.0))).unwrap();
        assert_eq!(snap.dims, "8x8x8");
        assert_eq!(snap.busy, 32);
        assert_eq!(snap.live_jobs, 1);
    }
}
