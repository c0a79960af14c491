//! The in-process service API and the protocol dispatcher.
//!
//! [`AllocationService`] is a cheaply cloneable handle (`Arc`s around the
//! machines, one lock each, plus the service-wide ledgers and counters)
//! usable directly from any thread; the TCP [`crate::server::Server`] is
//! a thin transport over [`AllocationService::handle`].

use crate::calibration::CalibrationStore;
use crate::clock::Clock;
use crate::cluster::{pool_of, MachineSample, PlacementRouter, RoutingPolicy};
use crate::journal::{
    JournalRecord, JournalSink, MachineSpec, NoopJournal, PoolImage, SnapshotImage, TenantImage,
    TenantSpec,
};
use crate::metrics::{LogLinearHistogram, ServiceMetrics, WindowRing};
use crate::protocol::{AllocArgs, JobRef, Request, Response};
use crate::registry::{MachineEntry, MachineSnapshot, ServiceError};
use crate::tenant::{job_cost, tenant_or_default, TenantConfig, TenantTable};
use crate::trace::{FlightRecorder, RequestCtx, Stage};
use commalloc::scheduler::SchedulerKind;
use commalloc_alloc::curve_alloc::SelectionStrategy;
use commalloc_alloc::AllocatorKind;
use commalloc_mesh::curve3d::Curve3Kind;
use commalloc_mesh::{Mesh2D, Mesh3D, NodeId};
use serde::{Map, Serialize, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

pub use crate::registry::{AllocOutcome, JobStatus};

/// A shareable handle to the allocation daemon's state.
#[derive(Clone)]
pub struct AllocationService {
    /// The registered machines by name, one lock each: the unit of
    /// locking is the unit of independence, so a request (or a panic)
    /// on one machine never holds up another. Name order is the
    /// listing order. The map's write lock is taken only to register.
    machines: Arc<RwLock<BTreeMap<String, Mutex<MachineEntry>>>>,
    /// The tenant ledger every machine settles against (see
    /// [`crate::tenant`]); empty until a tenant is configured.
    tenants: Arc<TenantTable>,
    /// The placement calibration store every machine feeds (see
    /// [`crate::calibration`]); disabled by default.
    calibration: Arc<CalibrationStore>,
    /// The one time source of scheduling, span stamps, metrics windows
    /// and fsync waits (see [`crate::clock`]).
    clock: Arc<Clock>,
    router: Arc<PlacementRouter>,
    metrics: Arc<ServiceMetrics>,
    /// Where state-changing operations are journaled (a no-op sink
    /// unless the daemon runs with `--journal`).
    journal: Arc<dyn JournalSink>,
    /// Guards snapshot capture: two workers crossing the snapshot
    /// threshold together must not both rotate and install (the second
    /// install could prune a segment the first one still counts on).
    snapshotting: Arc<AtomicBool>,
    /// Orders concurrent `set_router` flips so the journal append
    /// happens in policy-apply order without holding the pool-table
    /// lock across a (possibly fsyncing) append.
    router_flips: Arc<Mutex<()>>,
    /// The flight recorder behind the `trace` / `set_trace` / `metrics`
    /// ops. Always present; recording is off until toggled, and the
    /// disabled path costs one relaxed atomic load per wire request.
    recorder: Arc<FlightRecorder>,
    /// Per-pool route-latency aggregation (cumulative + trailing
    /// 60-second window, labeled with the pool's routing policy), fed
    /// by traced routed allocs. BTreeMap: exports iterate in pool-name
    /// order, so the exposition is deterministic.
    pool_windows: Arc<Mutex<BTreeMap<String, PoolWindow>>>,
}

/// One pool's route-latency aggregation: the 60×1 s window ring (which
/// also keeps the since-boot total) and the routing policy of its most
/// recent route (the label the Prometheus exposition carries).
#[derive(Debug)]
struct PoolWindow {
    policy: &'static str,
    window: WindowRing,
}

impl PoolWindow {
    fn new() -> PoolWindow {
        PoolWindow {
            policy: "round-robin",
            // Micros arrive pre-integral: scale 1 keeps bucketing exact.
            window: WindowRing::with_scale(1.0),
        }
    }
}

impl Default for AllocationService {
    fn default() -> Self {
        AllocationService {
            machines: Arc::default(),
            tenants: Arc::new(TenantTable::new()),
            calibration: Arc::new(CalibrationStore::new()),
            clock: Arc::new(Clock::wall()),
            router: Arc::new(PlacementRouter::default()),
            metrics: Arc::new(ServiceMetrics::default()),
            journal: Arc::new(NoopJournal),
            snapshotting: Arc::new(AtomicBool::new(false)),
            router_flips: Arc::new(Mutex::new(())),
            recorder: Arc::new(FlightRecorder::new()),
            pool_windows: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }
}

/// Largest machine the service will register: caps the memory one
/// network request can force (bitmaps, curve orders) and keeps 3-D node
/// arithmetic far from `u32` overflow.
pub const MAX_MACHINE_NODES: u64 = 1 << 20;

/// How many times a routing decision re-samples after finding its target
/// moved between sample and commit before committing anyway.
pub const ROUTE_STALE_RETRIES: usize = 4;

/// Parses `"16x16"` / `"4x4x4"` into dimensions, enforcing
/// [`MAX_MACHINE_NODES`].
pub fn parse_dims(spec: &str) -> Result<Vec<u16>, ServiceError> {
    let dims: Option<Vec<u16>> = spec
        .split(['x', 'X'])
        .map(|part| part.trim().parse::<u16>().ok().filter(|&d| d > 0))
        .collect();
    match dims {
        Some(dims) if dims.len() == 2 || dims.len() == 3 => {
            let nodes: u64 = dims.iter().map(|&d| d as u64).product();
            if nodes > MAX_MACHINE_NODES {
                return Err(ServiceError::InvalidSpec(format!(
                    "mesh {spec:?} has {nodes} nodes, above the {MAX_MACHINE_NODES}-node limit"
                )));
            }
            Ok(dims)
        }
        _ => Err(ServiceError::InvalidSpec(format!(
            "mesh {spec:?} (expected WxH or WxHxD with positive sizes)"
        ))),
    }
}

/// Parses a selection-strategy spec (`"BF"`, `"FF"`, `"free list"`,
/// `"SS"`, case-insensitive).
fn parse_strategy(spec: &str) -> Result<SelectionStrategy, ServiceError> {
    let all = [
        SelectionStrategy::FreeList,
        SelectionStrategy::FirstFit,
        SelectionStrategy::BestFit,
        SelectionStrategy::SumOfSquares,
    ];
    all.into_iter()
        .find(|s| s.short_name().eq_ignore_ascii_case(spec.trim()))
        .ok_or_else(|| {
            ServiceError::InvalidSpec(format!(
                "strategy {spec:?} (expected one of: free list, FF, BF, SS)"
            ))
        })
}

/// Parses a scheduler spec (`"fcfs"`, `"backfill"`, `"easy"`,
/// `"conservative"` or a full [`SchedulerKind`] name, case-insensitive).
fn parse_scheduler(spec: &str) -> Result<SchedulerKind, ServiceError> {
    SchedulerKind::parse(spec).ok_or_else(|| {
        ServiceError::InvalidSpec(format!(
            "scheduler {spec:?} (expected one of: fcfs, backfill, easy, conservative)"
        ))
    })
}

/// Validates a tenant name: non-empty, no pool sigil, no `/` (tenant
/// names travel inside job refs' flat namespace-free fields never, but
/// a `/` would still read ambiguously in logs and CLI output).
pub fn validate_tenant_name(tenant: &str) -> Result<(), ServiceError> {
    if tenant.is_empty() || tenant.starts_with('@') || tenant.contains('/') {
        return Err(ServiceError::InvalidSpec(format!(
            "tenant name {tenant:?} (must be non-empty, carry no '@' sigil and no '/')"
        )));
    }
    Ok(())
}

/// Parses a 3-D curve spec (`"Hilbert-3d"`, `"snake-3d"`, ...).
fn parse_curve3(spec: &str) -> Result<Curve3Kind, ServiceError> {
    Curve3Kind::all()
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(spec.trim()))
        .ok_or_else(|| {
            ServiceError::InvalidSpec(format!(
                "3-D curve {spec:?} (expected one of: {})",
                Curve3Kind::all().map(|k| k.name()).join(", ")
            ))
        })
}

/// Renders one committed routing decision as its wire object: the pool
/// and policy, every eligible member's load figures (and predicted
/// contention, when the member scored the job), the winner, and whether
/// the comm-aware policy fell back to its shortest-queue path.
#[allow(clippy::too_many_arguments)]
fn decision_record(
    pool: &str,
    policy: RoutingPolicy,
    job: u64,
    eligible: &[MachineSample],
    winner: &str,
    attempt: usize,
    fallback: bool,
    start_micros: u64,
    end_micros: u64,
) -> Value {
    let mut m = Map::new();
    m.insert("pool".into(), pool.to_value());
    m.insert("policy".into(), policy.name().to_value());
    m.insert("job".into(), job.to_value());
    m.insert("ts_micros".into(), start_micros.to_value());
    m.insert(
        "dur_micros".into(),
        end_micros.saturating_sub(start_micros).to_value(),
    );
    m.insert("stale_retries".into(), (attempt as u64).to_value());
    m.insert("winner".into(), winner.to_value());
    if fallback {
        m.insert("comm_fallback".into(), true.to_value());
    }
    let members: Vec<Value> = eligible
        .iter()
        .map(|s| {
            let mut e = Map::new();
            e.insert("machine".into(), s.name.to_value());
            e.insert("free".into(), s.free.to_value());
            e.insert("queue_len".into(), s.queue_len.to_value());
            if let Some(c) = s.contention {
                e.insert("score".into(), c.to_value());
            }
            Value::Object(e)
        })
        .collect();
    m.insert("members".into(), Value::Array(members));
    Value::Object(m)
}

impl AllocationService {
    /// A fresh service with no machines.
    pub fn new() -> Self {
        AllocationService::default()
    }

    /// Runs `f` with exclusive access to the named machine: a read of
    /// the machine map, then that machine's lock alone. A panic in `f`
    /// poisons only this machine.
    pub(crate) fn with_entry<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut MachineEntry) -> Result<R, ServiceError>,
    ) -> Result<R, ServiceError> {
        let machines = self.machines.read().expect("machine map poisoned");
        let entry = machines
            .get(name)
            .ok_or_else(|| ServiceError::UnknownMachine(name.to_string()))?;
        let mut entry = entry.lock().expect("machine poisoned");
        f(&mut entry)
    }

    /// Attaches a journal sink (consuming the handle — attach before
    /// cloning it out to workers). Machines already registered — the
    /// recovery path rebuilds state *before* attaching the real sink so
    /// replayed effects are not re-journaled — start composing records
    /// from here on.
    pub fn with_journal(self, journal: Arc<dyn JournalSink>) -> Self {
        let service = AllocationService { journal, ..self };
        if service.journal.durable() {
            for name in service.list() {
                let _ = service.with_entry(&name, |entry| {
                    entry.enable_journaling();
                    Ok(())
                });
            }
        }
        service
    }

    /// The attached journal sink.
    pub fn journal(&self) -> &Arc<dyn JournalSink> {
        &self.journal
    }

    /// The flight recorder (the CLI toggles it via `serve --trace`).
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// The service clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Begins a wire request: a recorder context on the service clock.
    /// A traced one reads the clock once, opening its first stage; an
    /// untraced one costs one relaxed load.
    pub fn begin(&self) -> RequestCtx<'_> {
        self.recorder.begin().on(&self.clock)
    }

    /// The placement calibration store (shared by every machine entry;
    /// toggled by `set_trace`'s `calibration` rider or `serve
    /// --calibration`, queried live by the `calibration` op).
    pub fn calibration(&self) -> &Arc<CalibrationStore> {
        &self.calibration
    }

    /// Appends the outbox of `entry` to the journal — called while the
    /// entry's lock is still held, so per-machine journal order
    /// equals mutation order (the invariant recovery folds over). A
    /// traced request gets a `journal_append` span per record, and a
    /// `fsync_wait` span for the slice of it spent blocked on the disk
    /// (`--fsync every`; group commit never blocks the append).
    fn flush_effects(&self, entry: &mut MachineEntry, ctx: &mut RequestCtx<'_>) {
        for record in entry.take_outbox() {
            let clock = ctx.active().then_some(&*self.clock);
            let (seq, synced_from) = self.journal.append_timed(&record, clock);
            let end = ctx.lap(Stage::JournalAppend, 0, 0);
            if let Some(from) = synced_from {
                ctx.span(Stage::FsyncWait, 0, 0, from, end);
            }
            entry.note_journal_seq(seq);
        }
    }

    /// The cluster-layer pool router (membership and routing policies).
    pub fn router(&self) -> &PlacementRouter {
        &self.router
    }

    /// The process-wide counters (shared with the TCP server).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The tenant table: configuration, quota ledger and fair-share
    /// keys (shared with every machine entry and the TCP server).
    pub fn tenants(&self) -> &Arc<TenantTable> {
        &self.tenants
    }

    /// Registers a machine from string specs. Two dimensions select the
    /// 2-D path (`allocator` names an [`AllocatorKind`], default
    /// `"Hilbert w/BF"`); three dimensions select the 3-D curve path
    /// (`allocator` names a [`Curve3Kind`], default Hilbert, with
    /// `strategy` defaulting to Best Fit). `scheduler` picks the
    /// admission policy (default FCFS, the paper's discipline).
    pub fn register(
        &self,
        machine: &str,
        mesh: &str,
        allocator: Option<&str>,
        strategy: Option<&str>,
        scheduler: Option<&str>,
    ) -> Result<(), ServiceError> {
        self.register_in_pool(machine, mesh, allocator, strategy, scheduler, None)
    }

    /// Like [`AllocationService::register`], additionally joining the
    /// machine to cluster pool `pool` (created round-robin on first use).
    /// Pool membership is taken only after the machine registers
    /// successfully, so a failed registration never leaves a dangling
    /// member behind.
    pub fn register_in_pool(
        &self,
        machine: &str,
        mesh: &str,
        allocator: Option<&str>,
        strategy: Option<&str>,
        scheduler: Option<&str>,
        pool: Option<&str>,
    ) -> Result<(), ServiceError> {
        let spec = MachineSpec {
            machine: machine.to_string(),
            mesh: mesh.to_string(),
            allocator: allocator.map(str::to_string),
            strategy: strategy.map(str::to_string),
            scheduler: scheduler.map(str::to_string),
        };
        self.register_inner(&spec, pool, true)
    }

    /// The registration body; `journal: false` is the recovery path,
    /// which rebuilds machines from records without re-journaling them.
    fn register_inner(
        &self,
        spec: &MachineSpec,
        pool: Option<&str>,
        journal: bool,
    ) -> Result<(), ServiceError> {
        let machine = spec.machine.as_str();
        let (allocator, strategy) = (spec.allocator.as_deref(), spec.strategy.as_deref());
        if machine.is_empty() {
            return Err(ServiceError::InvalidSpec(
                "machine name must be non-empty".to_string(),
            ));
        }
        if machine.starts_with('@') {
            return Err(ServiceError::InvalidSpec(format!(
                "machine name {machine:?} must not start with '@' (the pool sigil)"
            )));
        }
        if let Some(pool) = pool {
            if pool.is_empty() || pool.starts_with('@') {
                return Err(ServiceError::InvalidSpec(format!(
                    "pool name {pool:?} must be non-empty and carry no '@' sigil"
                )));
            }
        }
        let scheduler = match &spec.scheduler {
            None => SchedulerKind::Fcfs,
            Some(spec) => parse_scheduler(spec)?,
        };
        let dims = parse_dims(&spec.mesh)?;
        let (tenants, calibration) = (Arc::clone(&self.tenants), Arc::clone(&self.calibration));
        let mut entry = match dims.as_slice() {
            [w, h] => {
                let kind = match allocator {
                    None => AllocatorKind::HilbertBestFit,
                    Some(spec) => AllocatorKind::parse(spec)
                        .ok_or_else(|| ServiceError::InvalidSpec(format!("allocator {spec:?}")))?,
                };
                if strategy.is_some() {
                    return Err(ServiceError::InvalidSpec(
                        "\"strategy\" applies only to 3-D machines; \
                         2-D allocators are fully named (e.g. \"Hilbert w/BF\")"
                            .to_string(),
                    ));
                }
                let mesh = Mesh2D::new(*w, *h);
                MachineEntry::new_2d(machine, mesh, kind, scheduler, tenants, calibration)
            }
            [w, h, d] => {
                let curve = match allocator {
                    None => Curve3Kind::Hilbert,
                    Some(spec) => parse_curve3(spec)?,
                };
                let strategy = match strategy {
                    None => SelectionStrategy::BestFit,
                    Some(spec) => parse_strategy(spec)?,
                };
                let mesh = Mesh3D::new(*w, *h, *d);
                MachineEntry::new_3d(
                    machine,
                    mesh,
                    curve,
                    strategy,
                    scheduler,
                    tenants,
                    calibration,
                )
            }
            _ => unreachable!("parse_dims yields 2 or 3 dims"),
        };
        // Registration holds the machine map's write lock from the
        // duplicate check to the insert, across the pool join and the
        // registration record's append, so no grant of this machine can
        // be journaled ahead of it. Every other request waits meanwhile
        // (for an fsync under `--fsync every`): registration is an admin
        // op. The pool join comes *before* the record: a concurrent
        // snapshot that photographs this machine at or above the
        // record's watermark then provably photographs the pool table
        // (read afterwards) with the membership in place — otherwise
        // recovery could skip the tail Register record via the
        // watermark gate and silently drop the machine from its pool.
        let mut machines = self.machines.write().expect("machine map poisoned");
        if machines.contains_key(machine) {
            return Err(ServiceError::MachineExists(machine.to_string()));
        }
        // The flip-order lock is held from the pool join to the end of
        // the append: a concurrent `set_router` on this (possibly
        // brand-new) pool cannot journal its flip ahead of the Register
        // record that creates the pool, so recovery never replays a
        // SetRouter against a pool that does not exist yet.
        let _pool_order = pool.map(|pool| {
            let ordered = self
                .router_flips
                .lock()
                .expect("router flip order poisoned");
            self.router.add_member(pool, machine);
            ordered
        });
        if self.journal.durable() {
            entry.enable_journaling();
            if journal {
                let record = JournalRecord::Register {
                    spec: spec.clone(),
                    pool: pool.map(str::to_string),
                };
                entry.note_journal_seq(self.journal.append(&record));
            }
        }
        machines.insert(machine.to_string(), Mutex::new(entry));
        Ok(())
    }

    /// Maps a quota check onto the typed admission error. The
    /// commitment is taken here, *before* the machine lock; the
    /// caller settles it against the outcome (refund on reject/error,
    /// keep on grant/queue — released when the job settles).
    fn admit_quota(&self, tenant: Option<&str>, cost: f64) -> Result<(), ServiceError> {
        self.tenants
            .admit(tenant, cost)
            .map_err(|denied| ServiceError::QuotaExceeded {
                tenant: tenant_or_default(tenant).to_string(),
                usage: denied.usage,
                limit: denied.limit,
            })
    }

    /// Settles one alloc attempt's admission commitment against its
    /// outcome: a granted or queued job keeps it (released when the job
    /// settles); a rejected or failed attempt gets it back.
    fn refund_unless_live(&self, tenant: Option<&str>, cost: f64, outcome: Option<&AllocOutcome>) {
        if !matches!(
            outcome,
            Some(AllocOutcome::Granted(_) | AllocOutcome::Queued(_))
        ) {
            self.tenants.refund(tenant, cost);
        }
    }

    /// Allocates `args.size` processors for `args.job` on `machine`,
    /// billed to `args.tenant`. `args.walltime` is the client's runtime
    /// estimate in seconds (the backfilling policies plan with it);
    /// a declared `args.pattern` makes the machine score its candidate
    /// placements by predicted contention and commit the best one.
    pub fn alloc(
        &self,
        machine: &str,
        args: &AllocArgs<'_>,
        ctx: &RequestCtx<'_>,
    ) -> Result<AllocOutcome, ServiceError> {
        let mut ctx = ctx.on(&self.clock).with_machine(machine);
        let cost = job_cost(args.size, args.walltime);
        self.admit_quota(args.tenant, cost)?;
        let result = self.with_entry(machine, |entry| {
            let outcome = entry.allocate(args, "direct", &mut ctx);
            self.flush_effects(entry, &mut ctx);
            outcome
        });
        self.refund_unless_live(args.tenant, cost, result.as_ref().ok());
        result
    }

    /// Positional form of [`AllocationService::alloc`] for an
    /// untenanted, unpatterned, untraced request. Kept only because the
    /// frozen benchmark package (`commbench/`) calls it by this
    /// signature; everything else calls `alloc`.
    pub fn allocate(
        &self,
        machine: &str,
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
        self.alloc(machine, &args, &RequestCtx::inert())
    }

    /// Routes an allocation across pool `pool` (no `@` sigil): samples
    /// every member under its own lock, lets the pool's
    /// [`RoutingPolicy`] pick a target among the members large enough for
    /// the request, and commits on the target alone — re-checking the
    /// target's modification generation first, so a machine that moved
    /// between sample and commit triggers a resample instead of a commit
    /// against stale load data. After [`ROUTE_STALE_RETRIES`] stale
    /// rounds the commit proceeds regardless (a stale sample can only
    /// cost placement quality, never soundness). Returns the chosen
    /// machine together with the outcome.
    ///
    /// The whole sample-pick-commit loop is timed as one `route` span
    /// (its `code` counts the stale-sample retries), bound to the member
    /// that took the job. A routed id some member already holds is
    /// refused as the typed duplicate naming the first holder (the lock
    /// hold that samples a member asks it); like any failed attempt it
    /// leaves the tenant's ledger as it found it, and like a direct
    /// `alloc` it is checked after the quota, so a request that is both
    /// over quota and a duplicate answers `quota_exceeded`.
    pub fn route(
        &self,
        pool: &str,
        args: &AllocArgs<'_>,
        ctx: &RequestCtx<'_>,
    ) -> Result<(String, AllocOutcome), ServiceError> {
        let cost = job_cost(args.size, args.walltime);
        self.admit_quota(args.tenant, cost)?;
        let result = self.route_inner(pool, args, ctx);
        let outcome = result.as_ref().ok().map(|(_, outcome)| outcome);
        self.refund_unless_live(args.tenant, cost, outcome);
        result
    }

    /// The routing loop body (sample, pick, generation-checked commit).
    fn route_inner(
        &self,
        pool: &str,
        args: &AllocArgs<'_>,
        ctx: &RequestCtx<'_>,
    ) -> Result<(String, AllocOutcome), ServiceError> {
        let AllocArgs {
            job, size, pattern, ..
        } = *args;
        let ctx = ctx.on(&self.clock);
        let route_start = ctx.now_micros();
        for attempt in 0..=ROUTE_STALE_RETRIES {
            let view = self.router.view(pool)?;
            let policy = view.policy;
            let mut eligible: Vec<MachineSample> = Vec::with_capacity(view.members.len());
            for name in view.members.iter() {
                let sample = self.with_entry(name, |entry| {
                    if entry.holds(job) {
                        return Err(ServiceError::DuplicateJob {
                            machine: name.clone(),
                            job_id: job,
                        });
                    }
                    Ok(entry.sample_for(job, size, policy.sampled_pattern(pattern)))
                })?;
                if size <= sample.nodes {
                    eligible.push(sample);
                }
            }
            if eligible.is_empty() {
                return Err(ServiceError::InvalidRequest(format!(
                    "no machine in pool {pool:?} is large enough for {size} processors"
                )));
            }
            let seq = view.seq.fetch_add(1, Ordering::Relaxed);
            let chosen = &eligible[policy.pick(&eligible, seq)];
            // Comm-aware falls back to shortest-queue when no sample
            // scored; detect that from the samples alone so `pick` stays
            // byte-identical to the offline router.
            let fallback = policy == RoutingPolicy::CommAware
                && eligible.iter().all(|s| s.contention.is_none());
            let expected_generation = chosen.generation;
            let target = chosen.name.clone();
            let mut mctx = ctx.with_machine(&target);
            let committed = self.with_entry(&target, |entry| {
                if attempt < ROUTE_STALE_RETRIES && entry.generation() != expected_generation {
                    return Ok(None); // the sample went stale: re-route
                }
                let route_end = mctx.lap(Stage::Route, job, attempt as u32);
                let outcome = entry.allocate(args, policy.name(), &mut mctx);
                self.flush_effects(entry, &mut mctx);
                outcome.map(|outcome| Some((outcome, route_end)))
            })?;
            if let Some((outcome, route_end)) = committed {
                if fallback {
                    ServiceMetrics::bump(&self.metrics.route_comm_fallbacks);
                }
                if mctx.active() {
                    self.note_routed(pool, policy, route_start, route_end);
                    self.recorder.record_decision(decision_record(
                        pool,
                        policy,
                        job,
                        &eligible,
                        &target,
                        attempt,
                        fallback,
                        route_start,
                        route_end,
                    ));
                }
                return Ok((target, outcome));
            }
        }
        unreachable!("the final routing attempt commits unconditionally")
    }

    /// Files one committed route's latency into the pool's cumulative
    /// histogram and trailing window (traced requests only — untraced
    /// routes pay nothing here).
    fn note_routed(&self, pool: &str, policy: RoutingPolicy, start_micros: u64, end_micros: u64) {
        let mut pools = self.pool_windows.lock().expect("pool windows poisoned");
        let slot = pools
            .entry(pool.to_string())
            .or_insert_with(PoolWindow::new);
        slot.policy = policy.name();
        let dur = end_micros.saturating_sub(start_micros) as f64;
        slot.window.record(end_micros / 1_000_000, dur);
    }

    /// Switches the routing policy of pool `pool` at runtime, returning
    /// the now-active policy.
    pub fn set_router(&self, pool: &str, policy: &str) -> Result<RoutingPolicy, ServiceError> {
        let parsed = RoutingPolicy::parse(policy).ok_or_else(|| {
            ServiceError::InvalidSpec(format!(
                "routing policy {policy:?} (expected one of: {})",
                RoutingPolicy::all().map(|p| p.name()).join(", ")
            ))
        })?;
        // The apply + append pair runs under `router_flips`, so for
        // concurrent flips of the same pool journal order equals apply
        // order — recovery replays in append order and must resurrect
        // the policy that actually won, not merely *a* last writer. The
        // mutex (not the pool-table write lock) holds across the append
        // because the append can fsync under `--fsync every`, and the
        // pool table must not be read-blocked behind the disk — routing
        // samples it on every pooled request.
        let _ordered = self
            .router_flips
            .lock()
            .expect("router flip order poisoned");
        self.router.set_policy(pool, parsed)?;
        if self.journal.durable() {
            self.journal.append(&JournalRecord::SetRouter {
                pool: pool.to_string(),
                policy: parsed.name().to_string(),
            });
        }
        Ok(parsed)
    }

    /// Point-in-time summary of pool `pool` (no `@` sigil): the active
    /// routing policy, cluster-wide totals, and every member's
    /// [`MachineSnapshot`] in sorted name order.
    pub fn pool_snapshot(&self, pool: &str) -> Result<Value, ServiceError> {
        let members = self.router.members(pool)?;
        let policy = self.router.policy(pool)?;
        let mut machines = Vec::with_capacity(members.len());
        let (mut nodes, mut free, mut queue_len, mut live_jobs) = (0usize, 0usize, 0usize, 0usize);
        for name in &members {
            let snap = self.query(name)?;
            nodes += snap.nodes;
            free += snap.free;
            queue_len += snap.queue_len;
            live_jobs += snap.live_jobs;
            machines.push(snap.to_value());
        }
        let mut m = Map::new();
        m.insert("pool".into(), pool.to_value());
        m.insert("router".into(), policy.name().to_value());
        m.insert("nodes".into(), nodes.to_value());
        m.insert("free".into(), free.to_value());
        m.insert("busy".into(), (nodes - free).to_value());
        m.insert("queue_len".into(), queue_len.to_value());
        m.insert("live_jobs".into(), live_jobs.to_value());
        m.insert("machines".into(), Value::Array(machines));
        Ok(Value::Object(m))
    }

    /// Switches the scheduling policy of `machine` at runtime, returning
    /// the now-active kind and any jobs the re-drain granted (which
    /// trace as the requests that enqueued them).
    #[allow(clippy::type_complexity)]
    pub fn set_scheduler(
        &self,
        machine: &str,
        scheduler: &str,
        ctx: &RequestCtx<'_>,
    ) -> Result<(SchedulerKind, Vec<(u64, Vec<NodeId>)>), ServiceError> {
        let kind = parse_scheduler(scheduler)?;
        let mut ctx = ctx.on(&self.clock).with_machine(machine);
        self.with_entry(machine, |entry| {
            let granted = entry.set_scheduler(kind, &mut ctx);
            self.flush_effects(entry, &mut ctx);
            Ok((kind, granted))
        })
    }

    /// Binds a tenant name into existence (the `hello` op's state
    /// effect; the per-connection binding itself lives in the server).
    pub fn hello(&self, tenant: &str) -> Result<(), ServiceError> {
        validate_tenant_name(tenant)?;
        self.tenants.touch(tenant);
        Ok(())
    }

    /// Creates or reconfigures a tenant. Omitted fields keep their
    /// current values (the defaults for a new tenant); a quota or cap
    /// of `0` clears it back to unlimited. The *resulting* absolute
    /// configuration is journaled, so replay is last-writer-wins
    /// without needing the merge inputs.
    pub fn set_tenant(
        &self,
        tenant: &str,
        weight: Option<f64>,
        quota: Option<f64>,
        max_in_flight: Option<u64>,
    ) -> Result<TenantConfig, ServiceError> {
        validate_tenant_name(tenant)?;
        if let Some(w) = weight {
            if !w.is_finite() || w <= 0.0 {
                return Err(ServiceError::InvalidSpec(format!(
                    "tenant weight {w} (must be finite and positive)"
                )));
            }
        }
        if let Some(q) = quota {
            if !q.is_finite() || q < 0.0 {
                return Err(ServiceError::InvalidSpec(format!(
                    "tenant quota {q} (must be finite and non-negative; 0 clears it)"
                )));
            }
        }
        let table = &self.tenants;
        let current = table.config_of(Some(tenant));
        let config = TenantConfig {
            weight: weight.unwrap_or(current.weight),
            quota_node_seconds: match quota {
                None => current.quota_node_seconds,
                Some(0.0) => None,
                Some(q) => Some(q),
            },
            max_in_flight: match max_in_flight {
                None => current.max_in_flight,
                Some(0) => None,
                Some(cap) => Some(cap),
            },
        };
        table.configure(tenant, config.clone());
        if self.journal.durable() {
            self.journal.append(&JournalRecord::SetTenant(TenantSpec {
                tenant: tenant.to_string(),
                config: config.clone(),
            }));
        }
        Ok(config)
    }

    /// Toggles the weighted fair-share admission layer of `machine`,
    /// returning jobs the re-drain granted.
    pub fn set_fair_share(
        &self,
        machine: &str,
        enabled: bool,
        ctx: &RequestCtx<'_>,
    ) -> Result<Vec<(u64, Vec<NodeId>)>, ServiceError> {
        let mut ctx = ctx.on(&self.clock).with_machine(machine);
        self.with_entry(machine, |entry| {
            let granted = entry.set_fair_share(enabled, &mut ctx);
            self.flush_effects(entry, &mut ctx);
            Ok(granted)
        })
    }

    /// The `tenants` op's body: one object per tenant (sorted by
    /// name) carrying the configuration and the live ledger figures.
    pub fn tenants_value(&self) -> Value {
        let mut out = Map::new();
        for row in self.tenants.export() {
            let mut e = Map::new();
            e.insert("weight".into(), Value::Float(row.config.weight));
            if let Some(q) = row.config.quota_node_seconds {
                e.insert("quota_node_seconds".into(), Value::Float(q));
            }
            if let Some(cap) = row.config.max_in_flight {
                e.insert("max_in_flight".into(), Value::UInt(cap));
            }
            e.insert(
                "outstanding_node_seconds".into(),
                Value::Float(row.outstanding_node_seconds),
            );
            e.insert(
                "consumed_node_seconds".into(),
                Value::Float(row.consumed_node_seconds),
            );
            e.insert("admitted".into(), Value::UInt(row.admitted));
            e.insert("denied".into(), Value::UInt(row.denied));
            e.insert("queued".into(), Value::UInt(row.queued));
            e.insert("in_flight".into(), Value::UInt(row.in_flight));
            e.insert(
                "backpressure_pauses".into(),
                Value::UInt(row.backpressure_pauses),
            );
            if row.waits > 0 {
                e.insert(
                    "mean_weighted_wait".into(),
                    Value::Float(row.weighted_wait_sum / row.waits as f64),
                );
            }
            out.insert(row.tenant, Value::Object(e));
        }
        Value::Object(out)
    }

    /// Switches the service clock to virtual time and sets it to `t`
    /// seconds (deterministic replay and test harnesses; live daemons
    /// stay on wall time). Monotonic: earlier stamps are clamped. The
    /// clock is the whole service's: `machine` (a machine or an
    /// `"@pool"`) only has to exist.
    pub fn set_time(&self, machine: &str, t: f64) -> Result<(), ServiceError> {
        match pool_of(machine) {
            Some(pool) => self.router.members(pool).map(drop)?,
            None => self.with_entry(machine, |_| Ok(()))?,
        }
        self.clock.set_time(t);
        Ok(())
    }

    /// Releases (or cancels) `job`, returning jobs granted from the queue.
    pub fn release(
        &self,
        machine: &str,
        job: u64,
        ctx: &RequestCtx<'_>,
    ) -> Result<Vec<(u64, Vec<NodeId>)>, ServiceError> {
        let mut ctx = ctx.on(&self.clock).with_machine(machine);
        self.with_entry(machine, |entry| {
            let granted = entry.release(job, &mut ctx);
            self.flush_effects(entry, &mut ctx);
            granted
        })
    }

    /// The members of `pool` that hold `job` (running or waiting), in
    /// name order; an unknown pool has none. Nothing remembers who holds
    /// a job — the members are asked, so the answer cannot drift from
    /// their state, at one uncontended lock per member (what a routed
    /// `alloc` pays to sample them).
    ///
    /// Lock order, service-wide: machine map (read, or write to
    /// register) → at most one machine lock → router or journal. `view`
    /// copies the member list out (an `Arc` clone) and drops the pool
    /// table's lock before the first machine is asked — registration
    /// joins a pool *under* the map's write lock, so asking a member
    /// under the table's lock would be the reverse order and could
    /// deadlock. Each `with_entry` takes and releases one machine lock,
    /// so no two are ever held together either.
    fn holders(&self, pool: &str, job: u64) -> Vec<String> {
        let Ok(view) = self.router.view(pool) else {
            return Vec::new();
        };
        let holds = |member: &&String| {
            self.with_entry(member, |entry| Ok(entry.holds(job)))
                .unwrap_or(false)
        };
        view.members.iter().filter(holds).cloned().collect()
    }

    /// Resolves a `(machine address, job ref)` pair to the owning
    /// member. The rules, by address form:
    ///
    /// * `Some("name")` + bare ref → the named machine, directly.
    /// * `Some("name")` + qualified ref → the ref's machine must match
    ///   the address (a mismatch is a typed [`ServiceError::InvalidRequest`]).
    /// * `Some("@pool")` + bare ref → the pool's members are asked who
    ///   holds the id (`holders`, one lock each); nobody is
    ///   [`ServiceError::UnknownJob`] addressed to the pool (an unknown
    ///   pool has no members, so it answers the same), two or more the
    ///   typed [`ServiceError::AmbiguousJob`] collision.
    /// * `Some("@pool")` + qualified ref → the ref's machine must be a
    ///   member of the pool (and a pooled ref must name that pool).
    /// * `None` → the ref must be qualified; a pooled ref additionally
    ///   verifies the machine's pool membership.
    pub fn resolve_job(&self, machine: Option<&str>, job: &JobRef) -> Result<String, ServiceError> {
        let member_of = |pool: &str, member: &str| {
            if self.router.is_member(pool, member) {
                Ok(())
            } else {
                Err(ServiceError::InvalidRequest(format!(
                    "machine {member:?} is not a member of pool {pool:?}"
                )))
            }
        };
        match machine {
            Some(addr) => match pool_of(addr) {
                Some(pool) => match job {
                    JobRef::Bare(id) => {
                        let mut holders = self.holders(pool, *id);
                        match holders.len() {
                            0 => Err(ServiceError::UnknownJob {
                                machine: addr.to_string(),
                                job_id: *id,
                            }),
                            1 => Ok(holders.remove(0)),
                            _ => Err(ServiceError::AmbiguousJob {
                                pool: pool.to_string(),
                                job_id: *id,
                                machines: holders,
                            }),
                        }
                    }
                    JobRef::Member { machine, .. } => {
                        member_of(pool, machine)?;
                        Ok(machine.clone())
                    }
                    JobRef::Pooled {
                        pool: ref_pool,
                        machine,
                        ..
                    } => {
                        if ref_pool != pool {
                            return Err(ServiceError::InvalidRequest(format!(
                                "job ref names pool {ref_pool:?} but the request addresses {pool:?}"
                            )));
                        }
                        member_of(pool, machine)?;
                        Ok(machine.clone())
                    }
                },
                None => match job.machine() {
                    None => Ok(addr.to_string()),
                    Some(named) if named == addr => {
                        if let Some(ref_pool) = job.pool() {
                            member_of(ref_pool, named)?;
                        }
                        Ok(addr.to_string())
                    }
                    Some(named) => Err(ServiceError::InvalidRequest(format!(
                        "job ref names machine {named:?} but the request addresses {addr:?}"
                    ))),
                },
            },
            None => match job {
                JobRef::Bare(id) => Err(ServiceError::InvalidRequest(format!(
                    "bare job id {id} needs a machine or \"@pool\" address \
                     (or use a qualified \"machine/id\" ref)"
                ))),
                JobRef::Member { machine, .. } => Ok(machine.clone()),
                JobRef::Pooled { pool, machine, .. } => {
                    member_of(pool, machine)?;
                    Ok(machine.clone())
                }
            },
        }
    }

    /// Releases a job by [`JobRef`], resolving `@pool` addresses and
    /// qualified refs through [`AllocationService::resolve_job`].
    /// Returns the member the job resolved to alongside the grants.
    #[allow(clippy::type_complexity)]
    pub fn release_ref(
        &self,
        machine: Option<&str>,
        job: &JobRef,
        ctx: &RequestCtx<'_>,
    ) -> Result<(String, Vec<(u64, Vec<NodeId>)>), ServiceError> {
        let target = self.resolve_job(machine, job)?;
        let granted = self.release(&target, job.id(), ctx)?;
        Ok((target, granted))
    }

    /// Polls a job by [`JobRef`]; addressing matches
    /// [`AllocationService::release_ref`].
    pub fn poll_ref(
        &self,
        machine: Option<&str>,
        job: &JobRef,
    ) -> Result<(String, JobStatus), ServiceError> {
        let target = self.resolve_job(machine, job)?;
        let status = self.poll(&target, job.id())?;
        Ok((target, status))
    }

    /// Where `job` currently stands on `machine`.
    pub fn poll(&self, machine: &str, job: u64) -> Result<JobStatus, ServiceError> {
        self.with_entry(machine, |entry| Ok(entry.poll(job)))
    }

    /// The journal-snapshot image of `machine` — its full durable state
    /// (config, clock, running jobs in grant order, queue). Public so
    /// recovery-equivalence harnesses can compare a recovered machine
    /// byte-for-byte against an uninterrupted one.
    pub fn machine_image(
        &self,
        machine: &str,
    ) -> Result<crate::journal::MachineImage, ServiceError> {
        let clock = self.clock.virtual_time();
        self.with_entry(machine, |entry| Ok(entry.capture_image(clock)))
    }

    /// Occupancy snapshot of `machine`.
    pub fn query(&self, machine: &str) -> Result<MachineSnapshot, ServiceError> {
        self.with_entry(machine, |entry| Ok(entry.snapshot(self.clock.now())))
    }

    /// Counter snapshot of `machine` combined with server totals.
    pub fn stats(&self, machine: &str) -> Result<Value, ServiceError> {
        let (snapshot, machine_metrics) = self.with_entry(machine, |entry| {
            Ok((entry.snapshot(self.clock.now()), entry.counters()))
        })?;
        let mut m = Map::new();
        m.insert("machine".into(), snapshot.to_value());
        // Plain counters, minus the raw wait accumulator: the wait data
        // is surfaced once, as the count/mean/max summary below, so no
        // two dashboards read the same quantity from different shapes.
        let mut counters = Map::new();
        if let Some(full) = machine_metrics.to_value().as_object() {
            for (key, value) in full.iter().filter(|(key, _)| *key != "wait") {
                counters.insert(key.clone(), value.clone());
            }
        }
        m.insert("counters".into(), Value::Object(counters));
        // The queue wait-time summary (count/mean/max) the scheduling
        // policies compete on, precomputed so dashboards need no math.
        m.insert("wait".into(), machine_metrics.wait.to_summary_value());
        m.insert("server".into(), self.metrics.snapshot());
        // Durability at a glance: whether ops are journaled, and which
        // recovery epoch this incarnation runs under (how many restarts
        // rebuilt state from the journal). Full counters: journal_stats.
        let mut journal = Map::new();
        journal.insert("enabled".into(), Value::Bool(self.journal.durable()));
        journal.insert("epoch".into(), Value::UInt(self.journal.epoch()));
        m.insert("journal".into(), Value::Object(journal));
        // Request-pipeline stage latencies from the flight recorder
        // (process-wide, microsecond ticks; populated while tracing is
        // enabled). Sparse: an idle recorder costs a few bytes per stage.
        m.insert("stages".into(), self.stage_histograms_value(None));
        Ok(Value::Object(m))
    }

    /// Decodes a validated wire window spec (`"10s"` / `"60s"`) into its
    /// span in seconds; `None` = cumulative.
    fn window_secs(window: Option<&str>) -> Option<u64> {
        match window {
            Some("10s") => Some(10),
            Some("60s") => Some(60),
            _ => None,
        }
    }

    /// The per-stage latency histograms — cumulative, or restricted to
    /// the trailing `span` seconds — indexed by stage discriminant.
    fn stage_histograms_for(&self, span: Option<u64>) -> [LogLinearHistogram; Stage::HISTOGRAMMED] {
        match span {
            None => self.recorder.stage_histograms(),
            Some(span) => self.recorder.stage_windows(self.clock.now() as u64, span),
        }
    }

    /// The per-stage latency histograms (cumulative, or over a trailing
    /// window) as a JSON object keyed by stage name (shared by `stats`
    /// and `metrics`).
    fn stage_histograms_value(&self, span: Option<u64>) -> Value {
        let histograms = self.stage_histograms_for(span);
        let mut stages = Map::new();
        for (stage, histogram) in Stage::histogrammed().iter().zip(&histograms) {
            stages.insert(stage.name().into(), histogram.to_value());
        }
        Value::Object(stages)
    }

    /// The per-pool route-latency section: one entry per pool (name
    /// order) carrying the policy label and the cumulative or windowed
    /// histogram.
    fn pools_value(&self, span: Option<u64>) -> Value {
        let now_sec = self.clock.now() as u64;
        let pools = self.pool_windows.lock().expect("pool windows poisoned");
        let mut out = Map::new();
        for (pool, slot) in pools.iter() {
            let mut e = Map::new();
            e.insert("policy".into(), slot.policy.to_value());
            let histogram = match span {
                None => slot.window.total(),
                Some(span) => slot.window.merged(now_sec, span),
            };
            e.insert("route_latency_micros".into(), histogram.to_value());
            out.insert(pool.clone(), Value::Object(e));
        }
        Value::Object(out)
    }

    /// The `metrics` op's JSON body: process-wide counters, recorder
    /// state, the stage-latency histograms and the per-pool routing
    /// section, restricted to a trailing window (`"10s"` / `"60s"`;
    /// `None` = since boot).
    pub fn metrics_value(&self, window: Option<&str>) -> Value {
        let span = Self::window_secs(window);
        let mut m = Map::new();
        m.insert("server".into(), self.metrics.snapshot());
        let mut tracing = Map::new();
        tracing.insert("enabled".into(), Value::Bool(self.recorder.enabled()));
        tracing.insert(
            "dropped_spans_total".into(),
            self.recorder.dropped_total().to_value(),
        );
        tracing.insert(
            "calibration".into(),
            Value::Bool(self.calibration.enabled()),
        );
        m.insert("tracing".into(), Value::Object(tracing));
        if let Some(window) = window {
            m.insert("window".into(), window.to_value());
        }
        m.insert("stages".into(), self.stage_histograms_value(span));
        m.insert("pools".into(), self.pools_value(span));
        m.insert("tenants".into(), self.tenants_value());
        Value::Object(m)
    }

    /// The `metrics` op's Prometheus text exposition: the process
    /// counters as `commalloc_*` counters, the recorder toggle and
    /// journal recovery epoch as gauges, the lifetime span-drop total,
    /// one `commalloc_stage_latency_micros` histogram per pipeline
    /// stage, and one pool/policy-labeled
    /// `commalloc_pool_route_latency_micros` histogram per pool. A
    /// `window` restricts the stage and pool histograms to a trailing
    /// window (counters and gauges stay cumulative — Prometheus rates
    /// them itself).
    pub fn prometheus_text(&self, window: Option<&str>) -> String {
        use std::fmt::Write;
        let span = Self::window_secs(window);
        let mut out = String::new();
        if let Value::Object(counters) = self.metrics.snapshot() {
            for (key, value) in counters.iter() {
                if let Some(n) = value.as_u64() {
                    let _ = writeln!(out, "# TYPE commalloc_{key} counter");
                    let _ = writeln!(out, "commalloc_{key} {n}");
                }
            }
        }
        let _ = writeln!(out, "# TYPE commalloc_dropped_spans_total counter");
        let _ = writeln!(
            out,
            "commalloc_dropped_spans_total {}",
            self.recorder.dropped_total()
        );
        let _ = writeln!(out, "# TYPE commalloc_recovery_epoch gauge");
        let _ = writeln!(out, "commalloc_recovery_epoch {}", self.journal.epoch());
        let _ = writeln!(out, "# TYPE commalloc_trace_enabled gauge");
        let _ = writeln!(
            out,
            "commalloc_trace_enabled {}",
            u8::from(self.recorder.enabled())
        );
        let _ = writeln!(out, "# TYPE commalloc_calibration_enabled gauge");
        let _ = writeln!(
            out,
            "commalloc_calibration_enabled {}",
            u8::from(self.calibration.enabled())
        );
        let _ = writeln!(out, "# TYPE commalloc_stage_latency_micros histogram");
        let histograms = self.stage_histograms_for(span);
        for (stage, histogram) in Stage::histogrammed().iter().zip(&histograms) {
            histogram.prometheus_into(
                "commalloc_stage_latency_micros",
                &format!("stage=\"{}\"", stage.name()),
                &mut out,
            );
        }
        let now_sec = self.clock.now() as u64;
        let pools = self.pool_windows.lock().expect("pool windows poisoned");
        if !pools.is_empty() {
            let _ = writeln!(out, "# TYPE commalloc_pool_route_latency_micros histogram");
            for (pool, slot) in pools.iter() {
                let histogram = match span {
                    None => slot.window.total(),
                    Some(span) => slot.window.merged(now_sec, span),
                };
                histogram.prometheus_into(
                    "commalloc_pool_route_latency_micros",
                    &format!("pool=\"{pool}\",policy=\"{}\"", slot.policy),
                    &mut out,
                );
            }
        }
        let rows = self.tenants.export();
        if !rows.is_empty() {
            type TenantSeries = (&'static str, fn(&crate::tenant::TenantExport) -> String);
            let counters: [TenantSeries; 7] = [
                ("commalloc_tenant_admitted_total", |r| {
                    r.admitted.to_string()
                }),
                ("commalloc_tenant_denied_total", |r| r.denied.to_string()),
                ("commalloc_tenant_queued", |r| r.queued.to_string()),
                ("commalloc_tenant_in_flight", |r| r.in_flight.to_string()),
                ("commalloc_tenant_backpressure_pauses_total", |r| {
                    r.backpressure_pauses.to_string()
                }),
                ("commalloc_tenant_outstanding_node_seconds", |r| {
                    format!("{}", r.outstanding_node_seconds)
                }),
                ("commalloc_tenant_consumed_node_seconds_total", |r| {
                    format!("{}", r.consumed_node_seconds)
                }),
            ];
            for (name, figure) in counters {
                let kind = if name.ends_with("_total") {
                    "counter"
                } else {
                    "gauge"
                };
                let _ = writeln!(out, "# TYPE {name} {kind}");
                for row in &rows {
                    let _ = writeln!(out, "{name}{{tenant=\"{}\"}} {}", row.tenant, figure(row));
                }
            }
        }
        out
    }

    /// Names of all registered machines, sorted.
    pub fn list(&self) -> Vec<String> {
        let machines = self.machines.read().expect("machine map poisoned");
        machines.keys().cloned().collect()
    }

    /// Verifies the occupancy invariant of `machine` (test/ops helper).
    pub fn check_invariants(&self, machine: &str) -> Result<(), ServiceError> {
        self.with_entry(machine, |entry| {
            entry
                .check_invariants()
                .map_err(ServiceError::InvalidRequest)
        })
    }

    /// Photographs the whole service for a journal snapshot: every
    /// machine under its own lock (name order, so images are
    /// deterministic) plus the pool table. `covers` is the WAL segment
    /// index the sink closed when rotation began.
    ///
    /// Tenant consumption totals are read after the machine images, so
    /// they are not exact under concurrent releases. A release settled
    /// between its machine's image and the tenant read counts in the
    /// image's total *and* replays from the tail (its seq is above the
    /// watermark), so recovery over-counts that window's consumption.
    /// A snapshot taken while no release is in flight, such as the one
    /// recovery installs, is exact.
    pub fn capture_snapshot(&self, covers: u64) -> JournalRecord {
        let mut machines = Vec::new();
        for name in self.list() {
            if let Ok(image) = self.machine_image(&name) {
                machines.push(image);
            }
        }
        let mut pools = Vec::new();
        for pool in self.router.pool_names() {
            if let (Ok(members), Ok(policy)) =
                (self.router.members(&pool), self.router.policy(&pool))
            {
                pools.push(PoolImage {
                    pool,
                    members,
                    policy: policy.name().to_string(),
                });
            }
        }
        let tenants = self
            .tenants
            .export()
            .into_iter()
            .map(|row| TenantImage {
                spec: TenantSpec {
                    tenant: row.tenant,
                    config: row.config,
                },
                consumed: row.consumed_node_seconds,
            })
            .collect();
        JournalRecord::Snapshot(SnapshotImage {
            epoch: self.journal.epoch(),
            covers,
            machines,
            pools,
            tenants,
        })
    }

    /// Rotates the WAL, captures a snapshot and durably installs it
    /// (pruning the covered segments). Concurrency-safe: appends
    /// continue throughout (the per-machine watermark protocol makes
    /// the concurrent capture exact), but only one capture runs at a
    /// time.
    pub fn install_journal_snapshot(&self) -> std::io::Result<()> {
        if self
            .snapshotting
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return Ok(()); // another worker is already capturing
        }
        let covers = self.journal.begin_snapshot();
        let snapshot = self.capture_snapshot(covers);
        let result = self.journal.install_snapshot(&snapshot);
        self.snapshotting.store(false, Ordering::SeqCst);
        result
    }

    /// Recovery: folds one journal record into the state, through the
    /// non-journaling restore paths (replayed effects must not be
    /// re-appended). Grants re-occupy the exact recorded processors;
    /// releases and policy switches do **not** re-drain, because the
    /// grants a live drain produced replay as their own records. The
    /// record is consumed: a grant's job and a queue record's request
    /// move into the machine rather than being copied.
    pub fn apply_journal_record(&self, record: JournalRecord) -> Result<(), ServiceError> {
        match record {
            JournalRecord::Register { spec, pool } => {
                self.register_inner(&spec, pool.as_deref(), false)
            }
            JournalRecord::Grant { machine, job } => {
                self.restore(&machine, |entry| entry.restore_grant(job, &self.clock))
            }
            JournalRecord::Queue { machine, request } => {
                self.restore(&machine, |entry| entry.restore_queue(request, &self.clock))
            }
            JournalRecord::Release { machine, job, held } => {
                self.restore(&machine, |entry| entry.restore_release(job, held))
            }
            JournalRecord::Cancel { machine, job } => {
                self.restore(&machine, |entry| entry.restore_cancel(job))
            }
            JournalRecord::SetTenant(spec) => {
                self.tenants.configure(&spec.tenant, spec.config);
                Ok(())
            }
            JournalRecord::SetFairShare { machine, enabled } => self.restore(&machine, |entry| {
                entry.restore_fair_share(enabled);
                Ok(())
            }),
            JournalRecord::SetScheduler { machine, scheduler } => {
                let kind = parse_scheduler(&scheduler)?;
                self.restore(&machine, |entry| {
                    entry.restore_scheduler(kind);
                    Ok(())
                })
            }
            JournalRecord::SetRouter { pool, policy } => self.restore_router(&pool, &policy),
            JournalRecord::Snapshot(_) => Err(ServiceError::InvalidRequest(
                "snapshot records live in the snapshot file, not the WAL tail".to_string(),
            )),
        }
    }

    /// Recovery: runs one of the entry's restore paths on `machine`.
    fn restore(
        &self,
        machine: &str,
        f: impl FnOnce(&mut MachineEntry) -> Result<(), String>,
    ) -> Result<(), ServiceError> {
        self.with_entry(machine, |entry| {
            f(entry).map_err(ServiceError::InvalidRequest)
        })
    }

    /// Recovery: pool `pool` routes under `policy` again.
    fn restore_router(&self, pool: &str, policy: &str) -> Result<(), ServiceError> {
        let parsed = RoutingPolicy::parse(policy)
            .ok_or_else(|| ServiceError::InvalidSpec(format!("routing policy {policy:?}")))?;
        self.router.set_policy(pool, parsed)
    }

    /// Recovery: recomputes the tenant ledger's live gauges
    /// (outstanding node-second commitments, queued counts) exactly
    /// from the restored machines — the final recovery step, after the
    /// snapshot and the journal tail have both folded in. Configs
    /// restore from records and the snapshot, consumed totals from the
    /// snapshot image plus each tail `release` record's hold. The live
    /// gauges are derived state and are rebuilt rather than replayed.
    pub fn rebuild_tenant_gauges(&self) {
        let mut outstanding: std::collections::HashMap<String, f64> = Default::default();
        let mut queued: std::collections::HashMap<String, u64> = Default::default();
        for name in self.list() {
            let Ok(image) = self.machine_image(&name) else {
                continue;
            };
            for r in &image.running {
                let tenant = tenant_or_default(r.tenant.as_deref()).to_string();
                *outstanding.entry(tenant).or_default() += job_cost(r.nodes.len(), r.walltime);
            }
            for q in &image.queue {
                let tenant = tenant_or_default(q.tenant.as_deref()).to_string();
                *outstanding.entry(tenant.clone()).or_default() += job_cost(q.size, q.walltime);
                *queued.entry(tenant).or_default() += 1;
            }
        }
        let table = &self.tenants;
        table.reset_outstanding(&outstanding);
        table.reset_queued(&queued);
    }

    /// Recovery: rebuilds the machines, pool table and tenant ledger
    /// from a snapshot image — each fact through the call
    /// [`AllocationService::apply_journal_record`] makes for the record
    /// the image compacted it from, and consumed as that call consumes
    /// a record: each running job and queued request moves into its
    /// machine. Returns the per-machine journal watermarks the tail fold
    /// gates on.
    pub fn apply_snapshot(
        &self,
        image: SnapshotImage,
    ) -> Result<std::collections::HashMap<String, u64>, ServiceError> {
        let mut watermarks = std::collections::HashMap::new();
        for m in &image.machines {
            // Pools are restored below, from the pool table.
            self.register_inner(&m.spec, None, false)?;
            watermarks.insert(m.spec.machine.clone(), m.seq);
        }
        for t in image.tenants {
            self.tenants
                .restore(&t.spec.tenant, t.spec.config, t.consumed);
        }
        for p in &image.pools {
            // The machine list and the pool table are photographed under
            // different locks, so a machine registering mid-capture can
            // appear as a pool member without a machine image. Its
            // Register record (which carries the pool) replays from the
            // tail when it was durable; when it was not, the member must
            // not be resurrected — a ghost member fails every route to
            // the pool with UnknownMachine.
            let mut created = false;
            for member in &p.members {
                if watermarks.contains_key(member) {
                    self.router.add_member(&p.pool, member);
                    created = true;
                }
            }
            if created {
                self.restore_router(&p.pool, &p.policy)?;
            }
            // No surviving member: the pool replays entirely from tail
            // records (or was lost with its only registration).
        }
        for m in image.machines {
            let machine = &m.spec.machine;
            // A virtual clock replays from the snapshot; a wall clock is
            // rebased past the restored stamps instead.
            if let Some(t) = m.clock {
                self.clock.set_time(t);
            }
            self.restore(machine, |entry| {
                entry.note_journal_seq(m.seq);
                entry.restore_fair_share(m.fair_share);
                Ok(())
            })?;
            for job in m.running {
                self.restore(machine, |entry| entry.restore_grant(job, &self.clock))?;
            }
            for request in m.queue {
                self.restore(machine, |entry| entry.restore_queue(request, &self.clock))?;
            }
        }
        Ok(watermarks)
    }

    /// The `journal_stats` response body: the sink's operational
    /// counters, or `{"enabled": false}` when journaling is off.
    pub fn journal_stats(&self) -> Value {
        match self.journal.stats_value() {
            Some(Value::Object(mut m)) => {
                m.insert("enabled".into(), Value::Bool(true));
                Value::Object(m)
            }
            _ => {
                let mut m = Map::new();
                m.insert("enabled".into(), Value::Bool(false));
                Value::Object(m)
            }
        }
    }

    /// Dispatches one wire-shaped request from an in-process caller
    /// (tests, benches, the loadgen driver) under an inert context, so
    /// it pays nothing for the flight recorder. The TCP server mints a
    /// context per frame and calls [`AllocationService::handle_traced`].
    pub fn handle(&self, request: &Request) -> Response {
        self.handle_traced(request, &RequestCtx::inert())
    }

    /// [`AllocationService::handle`] with a tracing context: spans
    /// emitted along the way (route, queue, allocator probe, grant/deny,
    /// journal append, fsync wait) carry the context's request ID.
    pub fn handle_traced(&self, request: &Request, ctx: &RequestCtx<'_>) -> Response {
        // A batch is an envelope, not an operation: each member counts
        // as its own request below, the envelope itself is free.
        if let Request::Batch(requests) = request {
            return Response::Batch(
                requests
                    .iter()
                    .map(|member| match member {
                        Request::Batch(_) => Response::error("batches do not nest"),
                        // Only the server binds, and only on a hello of its own.
                        Request::Hello { .. } => {
                            Response::error("hello binds a connection only as a frame of its own")
                        }
                        other => self.handle_traced(other, &ctx.restart()),
                    })
                    .collect(),
            );
        }
        let result = match request {
            Request::Batch(_) => unreachable!("batches are handled above"),
            Request::Register {
                machine,
                mesh,
                allocator,
                strategy,
                scheduler,
                pool,
            } => self
                .register_in_pool(
                    machine,
                    mesh,
                    allocator.as_deref(),
                    strategy.as_deref(),
                    scheduler.as_deref(),
                    pool.as_deref(),
                )
                .map(|()| Response::Registered {
                    machine: machine.clone(),
                }),
            Request::Alloc {
                machine,
                job,
                size,
                wait,
                walltime,
                pattern,
                tenant,
            } => {
                let args = AllocArgs {
                    job: *job,
                    size: *size,
                    wait: *wait,
                    walltime: *walltime,
                    pattern: *pattern,
                    tenant: tenant.as_deref(),
                };
                match pool_of(machine) {
                    Some(pool) => self
                        .route(pool, &args, ctx)
                        .map(|(target, outcome)| alloc_response(*job, outcome, Some(target))),
                    None => self
                        .alloc(machine, &args, ctx)
                        .map(|outcome| alloc_response(*job, outcome, None)),
                }
            }
            Request::SetRouter { pool, policy } => {
                self.set_router(pool, policy)
                    .map(|active| Response::RouterSet {
                        pool: pool.clone(),
                        policy: active.name().to_string(),
                    })
            }
            Request::SetScheduler { machine, scheduler } => self
                .set_scheduler(machine, scheduler, ctx)
                .map(|(kind, granted)| Response::SchedulerSet {
                    machine: machine.clone(),
                    scheduler: kind.name().to_string(),
                    granted,
                }),
            Request::Release { machine, job } => {
                let qualified = names_its_member(machine.as_deref(), job);
                self.release_ref(machine.as_deref(), job, ctx)
                    .map(|(target, granted)| Response::Released {
                        job: job.id(),
                        granted,
                        machine: qualified.then_some(target),
                    })
            }
            Request::Poll { machine, job } => {
                let qualified = names_its_member(machine.as_deref(), job);
                self.resolve_job(machine.as_deref(), job)
                    .and_then(|target| {
                        let job = job.id();
                        self.with_entry(&target, |entry| {
                            Ok(match entry.poll(job) {
                                JobStatus::Running(nodes) => Response::Running {
                                    job,
                                    nodes,
                                    machine: qualified.then(|| target.clone()),
                                },
                                JobStatus::Queued(position) => {
                                    // Same lock hold as the poll itself, so the
                                    // outlook describes the position just reported.
                                    let now = ctx.on(&self.clock).now();
                                    let outlook = entry.queue_outlook(job, now);
                                    Response::Waiting {
                                        job,
                                        position,
                                        reserved_start: outlook
                                            .as_ref()
                                            .and_then(|o| o.reserved_start),
                                        explain: outlook
                                            .and_then(|o| o.explain)
                                            .map(|reason| crate::trace::reason_to_value(&reason)),
                                        machine: qualified.then(|| target.clone()),
                                    }
                                }
                                JobStatus::Unknown => Response::Unknown { job },
                            })
                        })
                    })
            }
            Request::Hello { tenant } => self.hello(tenant).map(|()| Response::Hello {
                tenant: tenant.clone(),
            }),
            Request::SetTenant {
                tenant,
                weight,
                quota,
                max_in_flight,
            } => self
                .set_tenant(tenant, *weight, *quota, *max_in_flight)
                .map(|config| Response::TenantSet {
                    tenant: tenant.clone(),
                    weight: config.weight,
                    quota: config.quota_node_seconds,
                    max_in_flight: config.max_in_flight,
                }),
            Request::Tenants => Ok(Response::Tenants(self.tenants_value())),
            Request::SetFairShare { machine, enabled } => self
                .set_fair_share(machine, *enabled, ctx)
                .map(|granted| Response::FairShareSet {
                    machine: machine.clone(),
                    enabled: *enabled,
                    granted,
                }),
            Request::Query { machine } => match pool_of(machine) {
                Some(pool) => self.pool_snapshot(pool).map(Response::Snapshot),
                None => self
                    .query(machine)
                    .map(|snapshot| Response::Snapshot(snapshot.to_value())),
            },
            Request::Stats { machine } => self.stats(machine).map(Response::Stats),
            Request::JournalStats => Ok(Response::JournalStats(self.journal_stats())),
            Request::SetTrace {
                enabled,
                calibration,
            } => {
                self.recorder.set_enabled(*enabled);
                if let Some(calibration) = calibration {
                    self.calibration.set_enabled(*calibration);
                }
                Ok(Response::TraceSet { enabled: *enabled })
            }
            Request::Trace { limit, clear } => {
                let (events, dropped) = self.recorder.drain(*limit, *clear);
                Ok(Response::Trace {
                    events: events
                        .iter()
                        .map(|event| self.recorder.event_to_value(event))
                        .collect(),
                    dropped,
                    enabled: self.recorder.enabled(),
                    decisions: self.recorder.decisions(*limit, *clear),
                })
            }
            Request::Metrics { format, window } => Ok(Response::Metrics {
                format: format.clone(),
                metrics: if format == "prometheus" {
                    Value::Str(self.prometheus_text(window.as_deref()))
                } else {
                    self.metrics_value(window.as_deref())
                },
            }),
            Request::Calibration => Ok(Response::Calibration(self.calibration.to_value())),
            Request::List => Ok(Response::Machines(self.list())),
            Request::Ping => Ok(Response::Pong),
        };
        ServiceMetrics::bump(&self.metrics.requests);
        // Compaction rides the request path: once enough records
        // accumulated, whichever worker notices captures the snapshot
        // (appends from the other workers continue meanwhile).
        if self.journal.snapshot_due() {
            if let Err(e) = self.install_journal_snapshot() {
                eprintln!("commalloc-service: journal snapshot failed: {e}");
            }
        }
        result.unwrap_or_else(|err| {
            ServiceMetrics::bump(&self.metrics.errors);
            error_response(&err)
        })
    }
}

/// Whether a `release`/`poll` answer names the member the job resolved
/// to: exactly when the request used pool-scoped addressing (a pool
/// address, no address, or a qualified ref). Plain `machine + bare id`
/// answers keep their pre-`JobRef` bytes.
fn names_its_member(machine: Option<&str>, job: &JobRef) -> bool {
    machine.is_none_or(|m| m.starts_with('@')) || job.machine().is_some()
}

/// Maps an alloc outcome onto its wire response; `machine` is the
/// member a pool-routed request landed on (`None` for a direct one).
fn alloc_response(job: u64, outcome: AllocOutcome, machine: Option<String>) -> Response {
    match outcome {
        AllocOutcome::Granted(nodes) => Response::Granted {
            job,
            nodes,
            machine,
        },
        AllocOutcome::Queued(position) => Response::Queued {
            job,
            position,
            machine,
        },
        AllocOutcome::Rejected(reason) => Response::Rejected {
            job,
            reason,
            machine,
        },
    }
}

/// Renders a service error as its wire shape. Every error carries a
/// message; the errors clients are expected to branch on (quota
/// denials, pool-scoped id collisions) additionally carry a
/// machine-readable `code` and a structured `detail`.
pub fn error_response(err: &ServiceError) -> Response {
    let (code, detail) = match err {
        ServiceError::QuotaExceeded {
            tenant,
            usage,
            limit,
        } => {
            let mut d = Map::new();
            d.insert("tenant".into(), tenant.to_value());
            d.insert("usage".into(), Value::Float(*usage));
            d.insert("limit".into(), Value::Float(*limit));
            (Some("quota_exceeded".to_string()), Some(Value::Object(d)))
        }
        ServiceError::AmbiguousJob {
            pool,
            job_id,
            machines,
        } => {
            let mut d = Map::new();
            d.insert("pool".into(), pool.to_value());
            d.insert("job".into(), Value::UInt(*job_id));
            d.insert(
                "machines".into(),
                Value::Array(machines.iter().map(|m| m.to_value()).collect()),
            );
            (Some("ambiguous_job".to_string()), Some(Value::Object(d)))
        }
        _ => (None, None),
    };
    Response::Error {
        message: err.to_string(),
        code,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::QueuedRequest;

    #[test]
    fn register_dispatches_on_dimension_count() {
        let service = AllocationService::new();
        service.register("flat", "16x22", None, None, None).unwrap();
        service
            .register("cube", "4x4x4", Some("snake-3d"), Some("FF"), Some("easy"))
            .unwrap();
        assert_eq!(service.list(), vec!["cube".to_string(), "flat".to_string()]);
        let flat = service.query("flat").unwrap();
        assert_eq!(flat.dims, "16x22");
        assert_eq!(flat.allocator, "Hilbert w/BF");
        assert_eq!(flat.scheduler, "FCFS");
        let cube = service.query("cube").unwrap();
        assert_eq!(cube.dims, "4x4x4");
        assert_eq!(cube.allocator, "snake-3d w/FF");
        assert_eq!(cube.scheduler, "EASY backfill");
    }

    #[test]
    fn bad_specs_are_invalid_spec_errors() {
        let service = AllocationService::new();
        for (mesh, allocator, strategy, scheduler) in [
            ("16", None, None, None),
            ("0x4", None, None, None),
            ("4x4x4x4", None, None, None),
            ("16x16", Some("nonsense"), None, None),
            ("16x16", None, Some("BF"), None), // strategy is 3-D-only
            ("4x4x4", Some("not-a-curve"), None, None),
            ("4x4x4", None, Some("ZZ"), None),
            ("16x16", None, None, Some("round-robin")),
            ("2048x2048", None, None, None), // 4M nodes, above the cap
            ("65535x65535x4", None, None, None), // would overflow u32 node ids
        ] {
            let got = service.register("m", mesh, allocator, strategy, scheduler);
            assert!(
                matches!(got, Err(ServiceError::InvalidSpec(_))),
                "{mesh:?}/{allocator:?}/{strategy:?}/{scheduler:?} gave {got:?}"
            );
        }
    }

    #[test]
    fn set_scheduler_dispatches_and_reports_grants() {
        let service = AllocationService::new();
        service.register("m0", "4x4", None, None, None).unwrap();
        let inert = RequestCtx::inert();
        for (job, size, wait) in [(1, 15, false), (2, 8, true), (3, 1, true)] {
            let args = AllocArgs {
                wait,
                ..AllocArgs::new(job, size)
            };
            service.alloc("m0", &args, &inert).unwrap();
        }
        // Unknown policy and unknown machine are errors.
        assert!(matches!(
            service.set_scheduler("m0", "round-robin", &inert),
            Err(ServiceError::InvalidSpec(_))
        ));
        assert!(matches!(
            service.set_scheduler("nope", "easy", &inert),
            Err(ServiceError::UnknownMachine(_))
        ));
        // Switching to backfill over the protocol admits job 3.
        let response = service.handle(&Request::SetScheduler {
            machine: "m0".into(),
            scheduler: "backfill".into(),
        });
        let Response::SchedulerSet {
            machine,
            scheduler,
            granted,
        } = response
        else {
            panic!("expected SchedulerSet, got {response:?}");
        };
        assert_eq!(machine, "m0");
        assert_eq!(scheduler, "first-fit backfill");
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].0, 3);
        assert_eq!(service.query("m0").unwrap().scheduler, "first-fit backfill");
        service.check_invariants("m0").unwrap();
    }

    #[test]
    fn poisoned_walltimes_get_typed_errors_not_grants() {
        // The regression the walltime boundary rule exists for: a
        // client-supplied NaN used to flow through
        // `walltime.unwrap_or(INFINITY)` into the reservation min/compare
        // logic, where NaN ordering silently corrupts shadow times. Every
        // non-finite or non-positive estimate must come back as a typed
        // error — never a grant.
        let service = AllocationService::new();
        service
            .register("m0", "16x16", None, None, Some("conservative"))
            .unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -30.0] {
            let response = service.handle(&Request::Alloc {
                machine: "m0".into(),
                job: 7,
                size: 4,
                wait: true,
                walltime: Some(bad),
                pattern: None,
                tenant: None,
            });
            assert!(
                matches!(response, Response::Error { .. }),
                "walltime {bad} gave {response:?}"
            );
        }
        // Nothing leaked into the machine: no grant, no queue entry.
        assert!(matches!(service.poll("m0", 7), Ok(JobStatus::Unknown)));
        let snap = service.query("m0").unwrap();
        assert_eq!(snap.busy, 0);
        assert_eq!(snap.queue_len, 0);
        // And the journal-recovery fold refuses a corrupt record rather
        // than resurrecting the poisoned estimate.
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(service
                .apply_journal_record(JournalRecord::Queue {
                    machine: "m0".into(),
                    request: QueuedRequest {
                        job: 8,
                        size: 4,
                        walltime: Some(bad),
                        enqueued_at: 0.0,
                        pattern: None,
                        tenant: None,
                    },
                })
                .is_err());
        }
    }

    #[test]
    fn pool_routing_round_trips_through_handle() {
        let service = AllocationService::new();
        for (name, mesh) in [("m0", "8x8"), ("m1", "4x4")] {
            service
                .register_in_pool(name, mesh, None, None, None, Some("grid"))
                .unwrap();
        }
        // Round-robin: the first route (seq 0) lands on m0, the next on m1.
        let response = service.handle(&Request::Alloc {
            machine: "@grid".into(),
            job: 1,
            size: 4,
            wait: false,
            walltime: None,
            pattern: None,
            tenant: None,
        });
        let Response::Granted {
            machine: Some(target),
            ref nodes,
            ..
        } = response
        else {
            panic!("expected a routed grant, got {response:?}");
        };
        assert_eq!(target, "m0");
        assert_eq!(nodes.len(), 4);
        let inert = RequestCtx::inert();
        let route = |job, size| service.route("grid", &AllocArgs::new(job, size), &inert);
        let (target, outcome) = route(2, 4).unwrap();
        assert_eq!(target, "m1");
        assert!(matches!(outcome, AllocOutcome::Granted(_)));
        // A 40-processor job fits only m0 (64 nodes): eligibility filters
        // m1 (16 nodes) out before the pick.
        let (target, _) = route(3, 40).unwrap();
        assert_eq!(target, "m0");
        // Nothing in the pool fits 100 processors.
        assert!(matches!(
            route(4, 100),
            Err(ServiceError::InvalidRequest(_))
        ));
        assert!(matches!(
            service.route("nope", &AllocArgs::new(5, 1), &inert),
            Err(ServiceError::UnknownPool(_))
        ));
        // Policy switch over the protocol, with alias expansion.
        assert_eq!(
            service.handle(&Request::SetRouter {
                pool: "grid".into(),
                policy: "ll".into(),
            }),
            Response::RouterSet {
                pool: "grid".into(),
                policy: "least-loaded".into(),
            }
        );
        assert!(matches!(
            service.set_router("grid", "hash-ring"),
            Err(ServiceError::InvalidSpec(_))
        ));
        // Query with the sigil returns the pool snapshot: totals plus the
        // member snapshots in sorted name order.
        let response = service.handle(&Request::Query {
            machine: "@grid".into(),
        });
        let Response::Snapshot(snap) = response else {
            panic!("expected a snapshot, got {response:?}");
        };
        assert_eq!(
            snap.get("router").and_then(Value::as_str),
            Some("least-loaded")
        );
        assert_eq!(snap.get("nodes").and_then(Value::as_u64), Some(80));
        assert_eq!(snap.get("busy").and_then(Value::as_u64), Some(48));
        let members = snap.get("machines").and_then(Value::as_array).unwrap();
        let names: Vec<&str> = members
            .iter()
            .map(|m| m.get("machine").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, vec!["m0", "m1"]);
        for machine in ["m0", "m1"] {
            service.check_invariants(machine).unwrap();
        }
    }

    #[test]
    fn a_queued_job_the_drain_drops_has_no_holder() {
        // No rectangle of 30 fits a 16x4 mesh, but the machine is busy
        // when job 2 arrives, so it waits — until the release that
        // empties the machine shows no release can ever help it.
        let dir = std::env::temp_dir().join(format!("commalloc-dropped-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = crate::journal::JournalConfig::default();
        let (service, _) = crate::journal::open_journaled(&dir, config).unwrap();
        service
            .register_in_pool(
                "m0",
                "16x4",
                Some("contiguous FF"),
                None,
                None,
                Some("grid"),
            )
            .unwrap();
        let ctx = RequestCtx::inert();
        let route = |service: &AllocationService, job, size| {
            let args = AllocArgs::new(job, size).or_wait();
            service
                .route("grid", &args, &ctx)
                .map(|(_, outcome)| outcome)
        };
        assert!(matches!(
            route(&service, 1, 16),
            Ok(AllocOutcome::Granted(_))
        ));
        assert_eq!(route(&service, 2, 30), Ok(AllocOutcome::Queued(1)));
        assert_eq!(service.holders("grid", 2), ["m0"]);
        assert!(service.release("m0", 1, &ctx).unwrap().is_empty());
        assert_eq!(service.poll("m0", 2), Ok(JobStatus::Unknown));
        assert!(
            service.holders("grid", 2).is_empty(),
            "the dropped job must leave the pool with the machine"
        );
        assert!(matches!(
            route(&service, 3, 8),
            Ok(AllocOutcome::Granted(_))
        ));
        // The daemon that replays the drop's Cancel agrees with the one
        // that made it — nothing is rebuilt, the recovered member is
        // asked — and the id is free again on both.
        drop(service);
        let (recovered, _) = crate::journal::open_journaled(&dir, config).unwrap();
        assert_eq!(recovered.holders("grid", 3), ["m0"]);
        assert!(recovered.holders("grid", 2).is_empty());
        assert!(matches!(
            route(&recovered, 2, 8),
            Ok(AllocOutcome::Granted(_))
        ));
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn machine_and_pool_names_reject_the_sigil() {
        let service = AllocationService::new();
        assert!(matches!(
            service.register("@m", "4x4", None, None, None),
            Err(ServiceError::InvalidSpec(_))
        ));
        assert!(matches!(
            service.register_in_pool("m", "4x4", None, None, None, Some("@p")),
            Err(ServiceError::InvalidSpec(_))
        ));
        assert!(matches!(
            service.register_in_pool("m", "4x4", None, None, None, Some("")),
            Err(ServiceError::InvalidSpec(_))
        ));
        // A failed registration joins no pool.
        assert!(service
            .register_in_pool("m", "not-a-mesh", None, None, None, Some("p"))
            .is_err());
        assert!(matches!(
            service.router().members("p"),
            Err(ServiceError::UnknownPool(_))
        ));
    }

    #[test]
    fn batches_fan_out_and_keep_request_order() {
        let service = AllocationService::new();
        service.register("m0", "4x4", None, None, None).unwrap();
        let response = service.handle(&Request::Batch(vec![
            Request::Ping,
            Request::Alloc {
                machine: "m0".into(),
                job: 1,
                size: 4,
                wait: false,
                walltime: None,
                pattern: None,
                tenant: None,
            },
            Request::Release {
                machine: Some("m0".into()),
                job: JobRef::Bare(1),
            },
            Request::Alloc {
                machine: "m0".into(),
                job: 2,
                size: 999,
                wait: false,
                walltime: None,
                pattern: None,
                tenant: None,
            },
            Request::Batch(vec![Request::Ping]),
        ]));
        let Response::Batch(responses) = response else {
            panic!("expected a batch, got {response:?}");
        };
        assert_eq!(responses.len(), 5);
        assert_eq!(responses[0], Response::Pong);
        assert!(matches!(responses[1], Response::Granted { job: 1, .. }));
        assert!(matches!(responses[2], Response::Released { job: 1, .. }));
        // A member error answers that slot only; the rest still ran.
        assert!(matches!(responses[3], Response::Error { .. }));
        assert!(matches!(responses[4], Response::Error { .. }), "no nesting");
        service.check_invariants("m0").unwrap();
    }

    #[test]
    fn handle_maps_outcomes_onto_protocol_responses() {
        let service = AllocationService::new();
        let register = Request::Register {
            machine: "m0".into(),
            mesh: "4x4".into(),
            allocator: None,
            strategy: None,
            scheduler: None,
            pool: None,
        };
        assert_eq!(
            service.handle(&register),
            Response::Registered {
                machine: "m0".into()
            }
        );
        // Re-registering is a protocol error.
        assert!(matches!(service.handle(&register), Response::Error { .. }));
        let grant = service.handle(&Request::Alloc {
            machine: "m0".into(),
            job: 1,
            size: 16,
            wait: false,
            walltime: None,
            pattern: None,
            tenant: None,
        });
        let Response::Granted {
            job: 1,
            nodes,
            machine: None,
        } = grant
        else {
            panic!("expected grant, got {grant:?}");
        };
        assert_eq!(nodes.len(), 16);
        // Machine is full: non-wait rejects, wait queues.
        assert!(matches!(
            service.handle(&Request::Alloc {
                machine: "m0".into(),
                job: 2,
                size: 1,
                wait: false,
                walltime: None,
                pattern: None,
                tenant: None,
            }),
            Response::Rejected { job: 2, .. }
        ));
        assert_eq!(
            service.handle(&Request::Alloc {
                machine: "m0".into(),
                job: 3,
                size: 2,
                wait: true,
                walltime: None,
                pattern: None,
                tenant: None,
            }),
            Response::Queued {
                job: 3,
                position: 1,
                machine: None
            }
        );
        let waiting = service.handle(&Request::Poll {
            machine: Some("m0".into()),
            job: JobRef::Bare(3),
        });
        let Response::Waiting {
            job: 3,
            position: 1,
            reserved_start: None, // FCFS promises no start times
            explain: Some(explain),
            machine: None,
        } = waiting
        else {
            panic!("expected waiting with an explanation, got {waiting:?}");
        };
        // The machine is full: the head is blocked on capacity.
        assert_eq!(
            explain.get("reason").and_then(Value::as_str),
            Some("insufficient_free")
        );
        assert_eq!(explain.get("needed").and_then(Value::as_u64), Some(2));
        // Releasing the full job admits the queued one.
        let released = service.handle(&Request::Release {
            machine: Some("m0".into()),
            job: JobRef::Bare(1),
        });
        let Response::Released {
            job: 1,
            granted,
            machine: None,
        } = released
        else {
            panic!("expected release, got {released:?}");
        };
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].0, 3);
        assert_eq!(granted[0].1.len(), 2);
        service.check_invariants("m0").unwrap();
        let stats = service.handle(&Request::Stats {
            machine: "m0".into(),
        });
        let Response::Stats(stats) = stats else {
            panic!("expected stats, got {stats:?}");
        };
        let counters = stats.get("counters").expect("counters present");
        assert_eq!(counters.get("granted").and_then(Value::as_u64), Some(1));
        assert_eq!(
            counters.get("granted_from_queue").and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(counters.get("rejected").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn a_panic_under_one_machine_lock_leaves_the_others_serving() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let names: Vec<String> = (0..9).map(|i| format!("m{i}")).collect();
        let mut casualties = Vec::new();
        for victim in &names {
            let service = AllocationService::new();
            for name in &names {
                service.register(name, "4x4", None, None, None).unwrap();
            }
            let fault = catch_unwind(AssertUnwindSafe(|| {
                service.with_entry(victim, |_| -> Result<(), ServiceError> {
                    panic!("injected fault on {victim}")
                })
            }));
            assert!(fault.is_err(), "the injected fault must unwind");
            for other in names.iter().filter(|name| *name != victim) {
                let answer = catch_unwind(AssertUnwindSafe(|| service.query(other)));
                if !matches!(answer, Ok(Ok(_))) {
                    casualties.push((victim.clone(), other.clone()));
                }
            }
        }
        assert!(
            casualties.is_empty(),
            "{} (victim, casualty) pairs: {casualties:?}",
            casualties.len()
        );
    }
}
