//! The newline-delimited JSON wire protocol.
//!
//! One JSON object per line in each direction. Requests carry an `"op"`
//! discriminator; responses always carry `"ok"` plus op-specific fields
//! (see the crate docs for the full vocabulary). Node identifiers travel
//! as plain integers (dense [`commalloc_mesh::NodeId`] indices).
//!
//! The [`Request`] and [`Response`] enums implement conversion to and from
//! the JSON value tree by hand — the shapes are data-carrying enums, which
//! the workspace's derive shim deliberately does not cover, and hand-rolled
//! conversions double as precise wire-format documentation.

use commalloc_mesh::NodeId;
use commalloc_workload::CommPattern;
use serde::{Error, Map, Value};
use std::fmt;

/// A pool-scoped job reference: the cluster-wide spelling of "which
/// job".
///
/// Three forms travel on the wire:
///
/// - **Bare** — a plain integer, the per-machine compatibility form
///   (`"job": 7`). Meaningful only together with a machine address.
/// - **Member** — `"machine/id"` (`"job": "m0/7"`): names the owning
///   member explicitly, so no address field is needed.
/// - **Pooled** — `"pool/member/id"` (`"job": "grid/m0/7"`): the
///   fully qualified cluster-wide identity, as minted by pool-routed
///   `alloc` responses.
///
/// A bare ref renders as the integer it always was, so pre-refactor
/// wire lines are byte-identical; the string forms are strictly
/// additive.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum JobRef {
    /// Per-machine compatibility form: just the id.
    Bare(u64),
    /// `machine/id`.
    Member {
        /// Owning machine.
        machine: String,
        /// Job identifier on that machine.
        id: u64,
    },
    /// `pool/machine/id`.
    Pooled {
        /// Pool the machine belongs to.
        pool: String,
        /// Owning machine.
        machine: String,
        /// Job identifier on that machine.
        id: u64,
    },
}

impl JobRef {
    /// The job identifier common to every form.
    pub fn id(&self) -> u64 {
        match self {
            JobRef::Bare(id) => *id,
            JobRef::Member { id, .. } => *id,
            JobRef::Pooled { id, .. } => *id,
        }
    }

    /// The machine component, when the form names one.
    pub fn machine(&self) -> Option<&str> {
        match self {
            JobRef::Bare(_) => None,
            JobRef::Member { machine, .. } => Some(machine),
            JobRef::Pooled { machine, .. } => Some(machine),
        }
    }

    /// The pool component, when the form names one.
    pub fn pool(&self) -> Option<&str> {
        match self {
            JobRef::Pooled { pool, .. } => Some(pool),
            _ => None,
        }
    }

    /// Renders the wire value: bare refs stay plain integers,
    /// qualified refs become `/`-joined strings.
    pub fn to_wire(&self) -> Value {
        match self {
            JobRef::Bare(id) => Value::UInt(*id),
            _ => Value::Str(self.to_string()),
        }
    }

    /// Parses the textual spelling: `"7"`, `"m0/7"` or `"grid/m0/7"`.
    /// Segments must be non-empty and the id must be an integer; more
    /// than three segments is an error (machine and pool names cannot
    /// contain `/`).
    pub fn parse_str(s: &str) -> Result<JobRef, Error> {
        let parts: Vec<&str> = s.split('/').collect();
        let bad = || {
            Error::msg(format!(
                "malformed job ref {s:?} (want \"id\", \"machine/id\" or \"pool/machine/id\")"
            ))
        };
        if parts.iter().any(|p| p.is_empty()) {
            return Err(bad());
        }
        let id = parts
            .last()
            .and_then(|p| p.parse::<u64>().ok())
            .ok_or_else(bad)?;
        match parts.len() {
            1 => Ok(JobRef::Bare(id)),
            2 => Ok(JobRef::Member {
                machine: parts[0].to_string(),
                id,
            }),
            3 => Ok(JobRef::Pooled {
                pool: parts[0].to_string(),
                machine: parts[1].to_string(),
                id,
            }),
            _ => Err(bad()),
        }
    }

    /// Parses the wire value: an integer is a bare ref, a string is
    /// parsed per [`JobRef::parse_str`].
    pub fn from_wire(v: &Value) -> Result<JobRef, Error> {
        match v {
            Value::Str(s) => JobRef::parse_str(s),
            _ => v.as_u64().map(JobRef::Bare).ok_or_else(|| {
                Error::msg("job ref must be an integer id or a \"pool/machine/id\" string")
            }),
        }
    }
}

impl fmt::Display for JobRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobRef::Bare(id) => write!(f, "{id}"),
            JobRef::Member { machine, id } => write!(f, "{machine}/{id}"),
            JobRef::Pooled { pool, machine, id } => write!(f, "{pool}/{machine}/{id}"),
        }
    }
}

/// Parses the `job` field of `release`/`poll` as a [`JobRef`].
pub(crate) fn get_job_ref(v: &Value) -> Result<JobRef, Error> {
    let field = v
        .get("job")
        .ok_or_else(|| Error::msg("missing field \"job\""))?;
    JobRef::from_wire(field)
}

/// The attributes of one `alloc`, borrowed: exactly what
/// [`Request::Alloc`] carries beside its machine address. The client,
/// the service and the machine entry all take the operation in this one
/// shape, built up from [`AllocArgs::new`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocArgs<'a> {
    /// Job identifier (client-chosen, unique per machine).
    pub job: u64,
    /// Number of processors.
    pub size: usize,
    /// Queue instead of rejecting on capacity shortfall.
    pub wait: bool,
    /// Runtime estimate in seconds; finite and positive when present.
    pub walltime: Option<f64>,
    /// Declared communication pattern; `None` = pattern-oblivious.
    pub pattern: Option<CommPattern>,
    /// Tenant the job is attributed to; `None` = the default tenant.
    pub tenant: Option<&'a str>,
}

impl<'a> AllocArgs<'a> {
    /// `size` processors for `job`: no waiting, no estimate, no
    /// pattern, the default tenant.
    pub fn new(job: u64, size: usize) -> AllocArgs<'a> {
        AllocArgs {
            job,
            size,
            wait: false,
            walltime: None,
            pattern: None,
            tenant: None,
        }
    }

    /// The same request, queued when it cannot be served at once.
    pub fn or_wait(self) -> AllocArgs<'a> {
        AllocArgs { wait: true, ..self }
    }

    /// The same request with a runtime estimate of `seconds`.
    pub fn with_walltime(self, seconds: f64) -> AllocArgs<'a> {
        AllocArgs {
            walltime: Some(seconds),
            ..self
        }
    }

    /// The same request billed to `tenant`.
    pub fn for_tenant(self, tenant: &'a str) -> AllocArgs<'a> {
        AllocArgs {
            tenant: Some(tenant),
            ..self
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register a machine. `mesh` is `"WxH"` (2-D) or `"WxHxD"` (3-D);
    /// `allocator` names an [`commalloc_alloc::AllocatorKind`] (2-D) or a
    /// 3-D curve kind; `strategy` names a selection strategy (3-D only);
    /// `scheduler` names a scheduling policy (`"fcfs"`, `"backfill"`,
    /// `"easy"`, `"conservative"` or a full `SchedulerKind` name).
    Register {
        /// Machine name.
        machine: String,
        /// Mesh dimension spec.
        mesh: String,
        /// Allocator (2-D) or curve (3-D) spec; `None` = default.
        allocator: Option<String>,
        /// Selection strategy spec (3-D); `None` = Best Fit.
        strategy: Option<String>,
        /// Scheduling-policy spec; `None` = FCFS (the paper's policy).
        scheduler: Option<String>,
        /// Pool to join (cluster routing); `None` = standalone machine.
        pool: Option<String>,
    },
    /// Allocate `size` processors for `job` on `machine`; `wait` queues
    /// the request when it cannot be served immediately (admission is
    /// governed by the machine's scheduling policy). A machine of
    /// `"@pool"` routes the request across the pool's members under the
    /// pool's [`crate::cluster::RoutingPolicy`]; the response then names
    /// the machine that took the job.
    Alloc {
        /// Machine name, or `"@pool"` for cluster routing.
        machine: String,
        /// Job identifier (client-chosen, unique per machine).
        job: u64,
        /// Number of processors.
        size: usize,
        /// Queue instead of rejecting on capacity shortfall.
        wait: bool,
        /// Runtime estimate in seconds (the reservation input of EASY
        /// and conservative backfilling; FCFS/first-fit ignore it).
        /// Must be finite and positive when present — the wire parser
        /// and the service both reject anything else.
        walltime: Option<f64>,
        /// Declared communication pattern of the job (travels as the
        /// pattern's canonical name, e.g. `"all-to-all"`). Feeds the
        /// communication-aware routing policy and the allocator's
        /// contention-scored placement; `None` = pattern-oblivious.
        pattern: Option<CommPattern>,
        /// Tenant the job is attributed to. `None` inherits the
        /// connection's `hello` binding (or the default tenant).
        tenant: Option<String>,
    },
    /// Switch the scheduling policy of a machine at runtime.
    SetScheduler {
        /// Machine name.
        machine: String,
        /// Scheduling-policy spec (same grammar as `Register`).
        scheduler: String,
    },
    /// Switch the routing policy of a machine pool at runtime.
    SetRouter {
        /// Pool name (without the `@` sigil).
        pool: String,
        /// Routing-policy spec (`round-robin`/`rr`, `least-loaded`/`ll`,
        /// `shortest-queue`/`sq`, `power-of-two`/`p2c`).
        policy: String,
    },
    /// Release the processors of `job` (or cancel it while queued).
    /// `machine` may be a member name or `"@pool"` (the pool job
    /// index resolves a bare id to its owning member); it may be
    /// omitted entirely when the [`JobRef`] is qualified.
    Release {
        /// Machine name or `"@pool"`; `None` iff `job` names its
        /// machine itself.
        machine: Option<String>,
        /// The job, in any [`JobRef`] form.
        job: JobRef,
    },
    /// Ask where `job` currently stands. Addressing rules match
    /// [`Request::Release`].
    Poll {
        /// Machine name or `"@pool"`; `None` iff `job` names its
        /// machine itself.
        machine: Option<String>,
        /// The job, in any [`JobRef`] form.
        job: JobRef,
    },
    /// Bind this connection to a tenant: subsequent requests without
    /// an explicit `tenant` field are attributed to it. Creates the
    /// tenant (with default weight, no quota) when unknown.
    Hello {
        /// Tenant name.
        tenant: String,
    },
    /// Create or reconfigure a tenant: fair-share weight, node-second
    /// quota, in-flight wire cap. Omitted fields keep their current
    /// values (or the defaults for a new tenant); the resulting
    /// configuration is journaled absolutely.
    SetTenant {
        /// Tenant name.
        tenant: String,
        /// Fair-share weight (finite, positive).
        weight: Option<f64>,
        /// Node-second quota; `0` clears it back to unlimited.
        quota: Option<f64>,
        /// In-flight wire request cap; `0` clears it.
        max_in_flight: Option<u64>,
    },
    /// The tenant table: configuration plus live usage per tenant.
    Tenants,
    /// Toggle the weighted fair-share admission layer of a machine:
    /// while enabled, each queue drain first re-orders the pending
    /// queue by tenant fair-share key (outstanding node-seconds over
    /// weight, ties by arrival). Orthogonal to the scheduling policy.
    SetFairShare {
        /// Machine name.
        machine: String,
        /// Desired fair-share state.
        enabled: bool,
    },
    /// Occupancy snapshot of a machine.
    Query {
        /// Machine name.
        machine: String,
    },
    /// Operation counters of a machine (plus server totals).
    Stats {
        /// Machine name.
        machine: String,
    },
    /// Operational counters of the write-ahead journal (recovery epoch,
    /// appended records, segments, fsync policy); answers
    /// `{"enabled": false}` on a daemon running without `--journal`.
    JournalStats,
    /// Toggle the flight recorder (and optionally the placement
    /// calibration plane) at runtime. While off, request handling pays
    /// one relaxed atomic load per plane and emits nothing.
    SetTrace {
        /// Desired recorder state.
        enabled: bool,
        /// Desired calibration-plane state; `None` leaves it unchanged
        /// (the planes toggle independently).
        calibration: Option<bool>,
    },
    /// Drain the flight recorder: recent span events across all ring
    /// shards, merged in start-time order, plus buffered routing
    /// decisions.
    Trace {
        /// Keep only the most recent `limit` events; `None` = all.
        limit: Option<usize>,
        /// Reset the rings (and drop counters) after reading.
        clear: bool,
    },
    /// Stage-latency histograms and machine counters, as JSON
    /// (`format: "json"`, the default) or a Prometheus-style text
    /// exposition (`format: "prometheus"`).
    Metrics {
        /// `"json"` or `"prometheus"` (validated at parse time).
        format: String,
        /// Restrict stage and pool histograms to a trailing time
        /// window: `"10s"` or `"60s"` (validated at parse time);
        /// `None` = cumulative since boot.
        window: Option<String>,
    },
    /// The placement calibration report: per-pattern × per-policy
    /// predicted-vs-realized histograms and rank correlations, joined
    /// at release time.
    Calibration,
    /// Names of all registered machines.
    List,
    /// Liveness check.
    Ping,
    /// Several requests on one wire line, answered by one
    /// [`Response::Batch`] in the same order — the round-trip saver for
    /// closed-loop clients. Batches do not nest.
    Batch(Vec<Request>),
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request failed (unknown machine, duplicate job, parse
    /// error, ...).
    Error {
        /// Human-readable reason.
        message: String,
        /// Machine-readable error class for errors clients are
        /// expected to branch on (`"quota_exceeded"`,
        /// `"ambiguous_job"`); absent for garden-variety failures.
        code: Option<String>,
        /// Structured detail for coded errors (e.g. `usage`/`limit`
        /// for quota denials, the owning `machines` for collisions).
        detail: Option<Value>,
    },
    /// Registration succeeded.
    Registered {
        /// Machine name.
        machine: String,
    },
    /// Allocation granted immediately.
    Granted {
        /// Job identifier.
        job: u64,
        /// Granted processors, in rank order.
        nodes: Vec<NodeId>,
        /// The machine that took the job — present exactly when the
        /// request was routed through a pool (`"@pool"` address).
        machine: Option<String>,
    },
    /// Allocation queued (FCFS).
    Queued {
        /// Job identifier.
        job: u64,
        /// 1-based queue position at enqueue time.
        position: usize,
        /// The machine the job queues on (pool-routed requests only).
        machine: Option<String>,
    },
    /// Allocation rejected (no capacity, `wait` unset).
    Rejected {
        /// Job identifier.
        job: u64,
        /// Human-readable reason.
        reason: String,
        /// The machine that rejected the job (pool-routed requests only).
        machine: Option<String>,
    },
    /// Release succeeded; `granted` lists jobs admitted from the queue.
    Released {
        /// The released (or cancelled) job.
        job: u64,
        /// Jobs granted from the queue by this release, in grant order.
        granted: Vec<(u64, Vec<NodeId>)>,
        /// The machine the job was resolved to — present exactly when
        /// the request addressed a pool or a qualified [`JobRef`].
        machine: Option<String>,
    },
    /// The scheduling policy was switched; `granted` lists jobs the
    /// re-drain admitted from the queue.
    SchedulerSet {
        /// Machine name.
        machine: String,
        /// Canonical name of the now-active policy.
        scheduler: String,
        /// Jobs granted by the policy switch, in grant order.
        granted: Vec<(u64, Vec<NodeId>)>,
    },
    /// The routing policy of a pool was switched.
    RouterSet {
        /// Pool name.
        pool: String,
        /// Canonical name of the now-active routing policy.
        policy: String,
    },
    /// Poll result: the job runs on these processors.
    Running {
        /// Job identifier.
        job: u64,
        /// The processors the job holds.
        nodes: Vec<NodeId>,
        /// The machine the job was resolved to (pool-addressed and
        /// qualified-ref polls only).
        machine: Option<String>,
    },
    /// Poll result: the job waits at this 1-based position.
    Waiting {
        /// Job identifier.
        job: u64,
        /// 1-based queue position.
        position: usize,
        /// The start time the scheduler currently promises the job
        /// (machine clock), when the policy plans one and it is finite:
        /// conservative backfilling reserves a start for every queued
        /// job, EASY for the head. Absent under FCFS/first-fit and for
        /// unplannable reservations.
        reserved_start: Option<f64>,
        /// Machine-readable explanation of what blocks the job right
        /// now (`code`, `detail`, and optionally `blocking_job` /
        /// `until` — the rendering of a scheduler
        /// [`commalloc::scheduler::BlockReason`]).
        explain: Option<Value>,
        /// The machine the job was resolved to (pool-addressed and
        /// qualified-ref polls only).
        machine: Option<String>,
    },
    /// Poll result: the job is not present.
    Unknown {
        /// Job identifier.
        job: u64,
    },
    /// The connection is now bound to a tenant.
    Hello {
        /// The bound tenant.
        tenant: String,
    },
    /// A tenant was created or reconfigured.
    TenantSet {
        /// Tenant name.
        tenant: String,
        /// The now-active fair-share weight.
        weight: f64,
        /// The now-active node-second quota, if any.
        quota: Option<f64>,
        /// The now-active in-flight cap, if any.
        max_in_flight: Option<u64>,
    },
    /// The tenant table (configuration plus live usage, rendered as
    /// one object per tenant, sorted by name).
    Tenants(Value),
    /// The fair-share admission layer of a machine was toggled;
    /// `granted` lists jobs the re-drain admitted from the queue.
    FairShareSet {
        /// Machine name.
        machine: String,
        /// The fair-share state after the toggle.
        enabled: bool,
        /// Jobs granted by the toggle's re-drain, in grant order.
        granted: Vec<(u64, Vec<NodeId>)>,
    },
    /// Occupancy snapshot (the `MachineSnapshot` serialised fields).
    Snapshot(Value),
    /// Counter snapshot.
    Stats(Value),
    /// Journal counter snapshot.
    JournalStats(Value),
    /// The flight recorder was toggled.
    TraceSet {
        /// The recorder state after the toggle.
        enabled: bool,
    },
    /// Drained flight-recorder events (each rendered per
    /// [`crate::trace::FlightRecorder::event_to_value`]).
    Trace {
        /// Span events in start-time order.
        events: Vec<Value>,
        /// Events overwritten in the rings before this drain.
        dropped: u64,
        /// Whether the recorder is currently enabled.
        enabled: bool,
        /// Buffered routing-decision records, oldest first (drained and
        /// cleared together with the span rings).
        decisions: Vec<Value>,
    },
    /// The placement calibration report.
    Calibration(Value),
    /// Metrics export: `metrics` is a JSON object for `format: "json"`,
    /// a string holding the text exposition for `format: "prometheus"`.
    Metrics {
        /// The format the payload is in.
        format: String,
        /// The payload.
        metrics: Value,
    },
    /// Registered machine names.
    Machines(Vec<String>),
    /// Liveness answer.
    Pong,
    /// Per-request answers to a [`Request::Batch`], in request order.
    Batch(Vec<Response>),
}

pub(crate) fn obj(entries: Vec<(&str, Value)>) -> Value {
    let mut m = Map::new();
    for (k, v) in entries {
        m.insert(k.to_string(), v);
    }
    Value::Object(m)
}

pub(crate) fn str_value(s: &str) -> Value {
    Value::Str(s.to_string())
}

pub(crate) fn nodes_value(nodes: &[NodeId]) -> Value {
    Value::Array(nodes.iter().map(|n| Value::UInt(n.0 as u64)).collect())
}

pub(crate) fn get_str(v: &Value, key: &str) -> Result<String, Error> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| Error::msg(format!("missing or non-string field {key:?}")))
}

pub(crate) fn get_u64(v: &Value, key: &str) -> Result<u64, Error> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| Error::msg(format!("missing or non-integer field {key:?}")))
}

pub(crate) fn get_f64_opt(v: &Value, key: &str) -> Result<Option<f64>, Error> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(value) => value
            .as_f64()
            .map(Some)
            .ok_or_else(|| Error::msg(format!("non-numeric field {key:?}"))),
    }
}

/// The single boundary rule on walltime estimates: when present, an
/// estimate must be a finite, positive number of seconds. Every
/// validation site — the wire parser below, the typed client, the live
/// `allocate` path and the journal-restore fold — consults this one
/// predicate, so the rule cannot drift between layers.
pub(crate) fn walltime_is_valid(w: f64) -> bool {
    w.is_finite() && w > 0.0
}

/// A walltime estimate: optional, but gated on [`walltime_is_valid`].
/// JSON itself cannot spell `NaN`, but it can spell `1e999` (which
/// parses to infinity) and `0` / negatives — none of which may reach
/// the reservation math, where non-finite ordering silently corrupts
/// shadow times. Rejected here, at the wire boundary, so a malformed
/// estimate is a parse error rather than a grant with poisoned
/// scheduling state.
pub(crate) fn get_walltime(v: &Value) -> Result<Option<f64>, Error> {
    match get_f64_opt(v, "walltime")? {
        Some(w) if !walltime_is_valid(w) => Err(Error::msg(format!(
            "field \"walltime\" must be a finite, positive number of seconds, got {w}"
        ))),
        other => Ok(other),
    }
}

/// An optional communication pattern, validated against the known
/// pattern names at the wire boundary — an unknown name is a parse
/// error rather than a silently pattern-oblivious job.
pub(crate) fn get_pattern(v: &Value) -> Result<Option<CommPattern>, Error> {
    match get_str_opt(v, "pattern")? {
        None => Ok(None),
        Some(name) => CommPattern::parse(&name)
            .map(Some)
            .ok_or_else(|| Error::msg(format!("unknown communication pattern {name:?}"))),
    }
}

/// An optional string field: absent/null is `None`, but a present value
/// of the wrong type is a parse error rather than a silent `None` (a
/// mistyped `"scheduler":5` must not quietly register an FCFS machine).
pub(crate) fn get_str_opt(v: &Value, key: &str) -> Result<Option<String>, Error> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(value) => value
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| Error::msg(format!("non-string field {key:?}"))),
    }
}

/// Renders a `(job, nodes)` grant list (shared by the `release` and
/// `set_scheduler` responses).
fn granted_value(granted: &[(u64, Vec<NodeId>)]) -> Value {
    Value::Array(
        granted
            .iter()
            .map(|(id, nodes)| {
                obj(vec![
                    ("job", Value::UInt(*id)),
                    ("nodes", nodes_value(nodes)),
                ])
            })
            .collect(),
    )
}

/// Parses a `(job, nodes)` grant list.
fn get_granted(v: &Value) -> Result<Vec<(u64, Vec<NodeId>)>, Error> {
    let arr = v
        .get("granted")
        .and_then(Value::as_array)
        .ok_or_else(|| Error::msg("missing \"granted\" array"))?;
    arr.iter()
        .map(|entry| Ok((get_u64(entry, "job")?, get_nodes(entry, "nodes")?)))
        .collect()
}

pub(crate) fn get_nodes(v: &Value, key: &str) -> Result<Vec<NodeId>, Error> {
    let arr = v
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| Error::msg(format!("missing or non-array field {key:?}")))?;
    arr.iter()
        .map(|n| {
            n.as_u64()
                .map(|id| NodeId(id as u32))
                .ok_or_else(|| Error::msg("non-integer node id"))
        })
        .collect()
}

impl Request {
    /// Renders the request as its wire value.
    pub fn to_value(&self) -> Value {
        match self {
            Request::Register {
                machine,
                mesh,
                allocator,
                strategy,
                scheduler,
                pool,
            } => {
                let mut entries = vec![
                    ("op", str_value("register")),
                    ("machine", str_value(machine)),
                    ("mesh", str_value(mesh)),
                ];
                if let Some(a) = allocator {
                    entries.push(("allocator", str_value(a)));
                }
                if let Some(s) = strategy {
                    entries.push(("strategy", str_value(s)));
                }
                if let Some(s) = scheduler {
                    entries.push(("scheduler", str_value(s)));
                }
                if let Some(p) = pool {
                    entries.push(("pool", str_value(p)));
                }
                obj(entries)
            }
            Request::Alloc {
                machine,
                job,
                size,
                wait,
                walltime,
                pattern,
                tenant,
            } => {
                let mut entries = vec![
                    ("op", str_value("alloc")),
                    ("machine", str_value(machine)),
                    ("job", Value::UInt(*job)),
                    ("size", Value::UInt(*size as u64)),
                    ("wait", Value::Bool(*wait)),
                ];
                if let Some(w) = walltime {
                    entries.push(("walltime", Value::Float(*w)));
                }
                if let Some(p) = pattern {
                    entries.push(("pattern", str_value(p.name())));
                }
                if let Some(t) = tenant {
                    entries.push(("tenant", str_value(t)));
                }
                obj(entries)
            }
            Request::SetScheduler { machine, scheduler } => obj(vec![
                ("op", str_value("set_scheduler")),
                ("machine", str_value(machine)),
                ("scheduler", str_value(scheduler)),
            ]),
            Request::SetRouter { pool, policy } => obj(vec![
                ("op", str_value("set_router")),
                ("pool", str_value(pool)),
                ("policy", str_value(policy)),
            ]),
            Request::Release { machine, job } => {
                let mut entries = vec![("op", str_value("release"))];
                if let Some(m) = machine {
                    entries.push(("machine", str_value(m)));
                }
                entries.push(("job", job.to_wire()));
                obj(entries)
            }
            Request::Poll { machine, job } => {
                let mut entries = vec![("op", str_value("poll"))];
                if let Some(m) = machine {
                    entries.push(("machine", str_value(m)));
                }
                entries.push(("job", job.to_wire()));
                obj(entries)
            }
            Request::Hello { tenant } => obj(vec![
                ("op", str_value("hello")),
                ("tenant", str_value(tenant)),
            ]),
            Request::SetTenant {
                tenant,
                weight,
                quota,
                max_in_flight,
            } => {
                let mut entries = vec![
                    ("op", str_value("set_tenant")),
                    ("tenant", str_value(tenant)),
                ];
                if let Some(w) = weight {
                    entries.push(("weight", Value::Float(*w)));
                }
                if let Some(q) = quota {
                    entries.push(("quota", Value::Float(*q)));
                }
                if let Some(c) = max_in_flight {
                    entries.push(("max_in_flight", Value::UInt(*c)));
                }
                obj(entries)
            }
            Request::Tenants => obj(vec![("op", str_value("tenants"))]),
            Request::SetFairShare { machine, enabled } => obj(vec![
                ("op", str_value("set_fair_share")),
                ("machine", str_value(machine)),
                ("enabled", Value::Bool(*enabled)),
            ]),
            Request::Query { machine } => obj(vec![
                ("op", str_value("query")),
                ("machine", str_value(machine)),
            ]),
            Request::Stats { machine } => obj(vec![
                ("op", str_value("stats")),
                ("machine", str_value(machine)),
            ]),
            Request::JournalStats => obj(vec![("op", str_value("journal_stats"))]),
            Request::SetTrace {
                enabled,
                calibration,
            } => {
                let mut entries = vec![
                    ("op", str_value("set_trace")),
                    ("enabled", Value::Bool(*enabled)),
                ];
                if let Some(c) = calibration {
                    entries.push(("calibration", Value::Bool(*c)));
                }
                obj(entries)
            }
            Request::Trace { limit, clear } => {
                let mut entries = vec![("op", str_value("trace"))];
                if let Some(limit) = limit {
                    entries.push(("limit", Value::UInt(*limit as u64)));
                }
                if *clear {
                    entries.push(("clear", Value::Bool(true)));
                }
                obj(entries)
            }
            Request::Metrics { format, window } => {
                let mut entries = vec![("op", str_value("metrics")), ("format", str_value(format))];
                if let Some(w) = window {
                    entries.push(("window", str_value(w)));
                }
                obj(entries)
            }
            Request::Calibration => obj(vec![("op", str_value("calibration"))]),
            Request::List => obj(vec![("op", str_value("list"))]),
            Request::Ping => obj(vec![("op", str_value("ping"))]),
            Request::Batch(requests) => obj(vec![
                ("op", str_value("batch")),
                (
                    "requests",
                    Value::Array(requests.iter().map(Request::to_value).collect()),
                ),
            ]),
        }
    }

    /// Parses a request from its wire value.
    pub fn from_value(v: &Value) -> Result<Request, Error> {
        let op = get_str(v, "op")?;
        match op.as_str() {
            "register" => Ok(Request::Register {
                machine: get_str(v, "machine")?,
                mesh: get_str(v, "mesh")?,
                allocator: get_str_opt(v, "allocator")?,
                strategy: get_str_opt(v, "strategy")?,
                scheduler: get_str_opt(v, "scheduler")?,
                pool: get_str_opt(v, "pool")?,
            }),
            "alloc" => Ok(Request::Alloc {
                machine: get_str(v, "machine")?,
                job: get_u64(v, "job")?,
                size: get_u64(v, "size")? as usize,
                wait: match v.get("wait") {
                    None | Some(Value::Null) => false,
                    Some(value) => value
                        .as_bool()
                        .ok_or_else(|| Error::msg("non-boolean field \"wait\""))?,
                },
                walltime: get_walltime(v)?,
                pattern: get_pattern(v)?,
                tenant: get_str_opt(v, "tenant")?,
            }),
            "set_scheduler" => Ok(Request::SetScheduler {
                machine: get_str(v, "machine")?,
                scheduler: get_str(v, "scheduler")?,
            }),
            "set_router" => Ok(Request::SetRouter {
                pool: get_str(v, "pool")?,
                policy: get_str(v, "policy")?,
            }),
            "batch" => {
                let arr = v
                    .get("requests")
                    .and_then(Value::as_array)
                    .ok_or_else(|| Error::msg("missing \"requests\" array"))?;
                let requests = arr
                    .iter()
                    .map(Request::from_value)
                    .collect::<Result<Vec<_>, Error>>()?;
                if requests.iter().any(|r| matches!(r, Request::Batch(_))) {
                    return Err(Error::msg("batches do not nest"));
                }
                Ok(Request::Batch(requests))
            }
            "release" => {
                let machine = get_str_opt(v, "machine")?;
                let job = get_job_ref(v)?;
                if machine.is_none() && job.machine().is_none() {
                    return Err(Error::msg(
                        "release needs a \"machine\" or a qualified job ref",
                    ));
                }
                Ok(Request::Release { machine, job })
            }
            "poll" => {
                let machine = get_str_opt(v, "machine")?;
                let job = get_job_ref(v)?;
                if machine.is_none() && job.machine().is_none() {
                    return Err(Error::msg(
                        "poll needs a \"machine\" or a qualified job ref",
                    ));
                }
                Ok(Request::Poll { machine, job })
            }
            "hello" => Ok(Request::Hello {
                tenant: get_str(v, "tenant")?,
            }),
            "set_tenant" => {
                let weight = get_f64_opt(v, "weight")?;
                if let Some(w) = weight {
                    if !(w.is_finite() && w > 0.0) {
                        return Err(Error::msg(format!(
                            "field \"weight\" must be a finite, positive number, got {w}"
                        )));
                    }
                }
                let quota = get_f64_opt(v, "quota")?;
                if let Some(q) = quota {
                    if !(q.is_finite() && q >= 0.0) {
                        return Err(Error::msg(format!(
                            "field \"quota\" must be a finite, non-negative number of node-seconds, got {q}"
                        )));
                    }
                }
                let max_in_flight = match v.get("max_in_flight") {
                    None | Some(Value::Null) => None,
                    Some(value) => Some(
                        value
                            .as_u64()
                            .ok_or_else(|| Error::msg("non-integer field \"max_in_flight\""))?,
                    ),
                };
                Ok(Request::SetTenant {
                    tenant: get_str(v, "tenant")?,
                    weight,
                    quota,
                    max_in_flight,
                })
            }
            "tenants" => Ok(Request::Tenants),
            "set_fair_share" => Ok(Request::SetFairShare {
                machine: get_str(v, "machine")?,
                enabled: v
                    .get("enabled")
                    .and_then(Value::as_bool)
                    .ok_or_else(|| Error::msg("missing or non-boolean field \"enabled\""))?,
            }),
            "query" => Ok(Request::Query {
                machine: get_str(v, "machine")?,
            }),
            "stats" => Ok(Request::Stats {
                machine: get_str(v, "machine")?,
            }),
            "journal_stats" => Ok(Request::JournalStats),
            "set_trace" => Ok(Request::SetTrace {
                enabled: v
                    .get("enabled")
                    .and_then(Value::as_bool)
                    .ok_or_else(|| Error::msg("missing or non-boolean field \"enabled\""))?,
                calibration: match v.get("calibration") {
                    None | Some(Value::Null) => None,
                    Some(value) => Some(
                        value
                            .as_bool()
                            .ok_or_else(|| Error::msg("non-boolean field \"calibration\""))?,
                    ),
                },
            }),
            "trace" => Ok(Request::Trace {
                limit: match v.get("limit") {
                    None | Some(Value::Null) => None,
                    Some(value) => Some(
                        value
                            .as_u64()
                            .ok_or_else(|| Error::msg("non-integer field \"limit\""))?
                            as usize,
                    ),
                },
                clear: match v.get("clear") {
                    None | Some(Value::Null) => false,
                    Some(value) => value
                        .as_bool()
                        .ok_or_else(|| Error::msg("non-boolean field \"clear\""))?,
                },
            }),
            "metrics" => {
                let format = get_str_opt(v, "format")?.unwrap_or_else(|| "json".to_string());
                if format != "json" && format != "prometheus" {
                    return Err(Error::msg(format!(
                        "unknown metrics format {format:?} (expected \"json\" or \"prometheus\")"
                    )));
                }
                let window = get_str_opt(v, "window")?;
                if let Some(w) = &window {
                    if w != "10s" && w != "60s" {
                        return Err(Error::msg(format!(
                            "unknown metrics window {w:?} (expected \"10s\" or \"60s\")"
                        )));
                    }
                }
                Ok(Request::Metrics { format, window })
            }
            "calibration" => Ok(Request::Calibration),
            "list" => Ok(Request::List),
            "ping" => Ok(Request::Ping),
            other => Err(Error::msg(format!("unknown op {other:?}"))),
        }
    }

    /// Parses a request from one wire line.
    pub fn from_line(line: &str) -> Result<Request, Error> {
        let value: Value = serde_json::from_str(line)?;
        Request::from_value(&value)
    }

    /// Renders the request as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("value rendering is infallible")
    }
}

impl Response {
    /// Renders the response as its wire value.
    pub fn to_value(&self) -> Value {
        match self {
            Response::Error {
                message,
                code,
                detail,
            } => {
                let mut entries = vec![("ok", Value::Bool(false)), ("error", str_value(message))];
                if let Some(c) = code {
                    entries.push(("code", str_value(c)));
                }
                if let Some(d) = detail {
                    entries.push(("detail", d.clone()));
                }
                obj(entries)
            }
            Response::Registered { machine } => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", str_value("register")),
                ("machine", str_value(machine)),
            ]),
            Response::Granted {
                job,
                nodes,
                machine,
            } => {
                let mut entries = vec![
                    ("ok", Value::Bool(true)),
                    ("op", str_value("alloc")),
                    ("status", str_value("granted")),
                    ("job", Value::UInt(*job)),
                    ("nodes", nodes_value(nodes)),
                ];
                if let Some(m) = machine {
                    entries.push(("machine", str_value(m)));
                }
                obj(entries)
            }
            Response::Queued {
                job,
                position,
                machine,
            } => {
                let mut entries = vec![
                    ("ok", Value::Bool(true)),
                    ("op", str_value("alloc")),
                    ("status", str_value("queued")),
                    ("job", Value::UInt(*job)),
                    ("position", Value::UInt(*position as u64)),
                ];
                if let Some(m) = machine {
                    entries.push(("machine", str_value(m)));
                }
                obj(entries)
            }
            Response::Rejected {
                job,
                reason,
                machine,
            } => {
                let mut entries = vec![
                    ("ok", Value::Bool(true)),
                    ("op", str_value("alloc")),
                    ("status", str_value("rejected")),
                    ("job", Value::UInt(*job)),
                    ("reason", str_value(reason)),
                ];
                if let Some(m) = machine {
                    entries.push(("machine", str_value(m)));
                }
                obj(entries)
            }
            Response::Released {
                job,
                granted,
                machine,
            } => {
                let mut entries = vec![
                    ("ok", Value::Bool(true)),
                    ("op", str_value("release")),
                    ("job", Value::UInt(*job)),
                    ("granted", granted_value(granted)),
                ];
                if let Some(m) = machine {
                    entries.push(("machine", str_value(m)));
                }
                obj(entries)
            }
            Response::SchedulerSet {
                machine,
                scheduler,
                granted,
            } => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", str_value("set_scheduler")),
                ("machine", str_value(machine)),
                ("scheduler", str_value(scheduler)),
                ("granted", granted_value(granted)),
            ]),
            Response::RouterSet { pool, policy } => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", str_value("set_router")),
                ("pool", str_value(pool)),
                ("policy", str_value(policy)),
            ]),
            Response::Running {
                job,
                nodes,
                machine,
            } => {
                let mut entries = vec![
                    ("ok", Value::Bool(true)),
                    ("op", str_value("poll")),
                    ("state", str_value("running")),
                    ("job", Value::UInt(*job)),
                    ("nodes", nodes_value(nodes)),
                ];
                if let Some(m) = machine {
                    entries.push(("machine", str_value(m)));
                }
                obj(entries)
            }
            Response::Waiting {
                job,
                position,
                reserved_start,
                explain,
                machine,
            } => {
                let mut entries = vec![
                    ("ok", Value::Bool(true)),
                    ("op", str_value("poll")),
                    ("state", str_value("queued")),
                    ("job", Value::UInt(*job)),
                    ("position", Value::UInt(*position as u64)),
                ];
                // Only finite promises travel: JSON cannot spell the
                // infinity an unplannable reservation would need, and
                // the explain already marks that case.
                if let Some(start) = reserved_start.filter(|s| s.is_finite()) {
                    entries.push(("reserved_start", Value::Float(start)));
                }
                if let Some(explain) = explain {
                    entries.push(("explain", explain.clone()));
                }
                if let Some(m) = machine {
                    entries.push(("machine", str_value(m)));
                }
                obj(entries)
            }
            Response::Unknown { job } => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", str_value("poll")),
                ("state", str_value("unknown")),
                ("job", Value::UInt(*job)),
            ]),
            Response::Hello { tenant } => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", str_value("hello")),
                ("tenant", str_value(tenant)),
            ]),
            Response::TenantSet {
                tenant,
                weight,
                quota,
                max_in_flight,
            } => {
                let mut entries = vec![
                    ("ok", Value::Bool(true)),
                    ("op", str_value("set_tenant")),
                    ("tenant", str_value(tenant)),
                    ("weight", Value::Float(*weight)),
                ];
                if let Some(q) = quota {
                    entries.push(("quota", Value::Float(*q)));
                }
                if let Some(c) = max_in_flight {
                    entries.push(("max_in_flight", Value::UInt(*c)));
                }
                obj(entries)
            }
            Response::Tenants(table) => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", str_value("tenants")),
                ("tenants", table.clone()),
            ]),
            Response::FairShareSet {
                machine,
                enabled,
                granted,
            } => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", str_value("set_fair_share")),
                ("machine", str_value(machine)),
                ("enabled", Value::Bool(*enabled)),
                ("granted", granted_value(granted)),
            ]),
            Response::Snapshot(snapshot) => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", str_value("query")),
                ("snapshot", snapshot.clone()),
            ]),
            Response::Stats(stats) => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", str_value("stats")),
                ("stats", stats.clone()),
            ]),
            Response::JournalStats(stats) => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", str_value("journal_stats")),
                ("journal", stats.clone()),
            ]),
            Response::TraceSet { enabled } => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", str_value("set_trace")),
                ("enabled", Value::Bool(*enabled)),
            ]),
            Response::Trace {
                events,
                dropped,
                enabled,
                decisions,
            } => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", str_value("trace")),
                ("enabled", Value::Bool(*enabled)),
                ("dropped", Value::UInt(*dropped)),
                ("events", Value::Array(events.clone())),
                ("decisions", Value::Array(decisions.clone())),
            ]),
            Response::Calibration(report) => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", str_value("calibration")),
                ("calibration", report.clone()),
            ]),
            Response::Metrics { format, metrics } => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", str_value("metrics")),
                ("format", str_value(format)),
                ("metrics", metrics.clone()),
            ]),
            Response::Machines(names) => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", str_value("list")),
                (
                    "machines",
                    Value::Array(names.iter().map(|n| str_value(n)).collect()),
                ),
            ]),
            Response::Pong => obj(vec![("ok", Value::Bool(true)), ("op", str_value("pong"))]),
            Response::Batch(responses) => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", str_value("batch")),
                (
                    "responses",
                    Value::Array(responses.iter().map(Response::to_value).collect()),
                ),
            ]),
        }
    }

    /// Parses a response from its wire value.
    pub fn from_value(v: &Value) -> Result<Response, Error> {
        let ok = v
            .get("ok")
            .and_then(Value::as_bool)
            .ok_or_else(|| Error::msg("missing \"ok\" field"))?;
        if !ok {
            return Ok(Response::Error {
                message: get_str(v, "error")?,
                code: get_str_opt(v, "code")?,
                detail: match v.get("detail") {
                    None | Some(Value::Null) => None,
                    Some(value) => Some(value.clone()),
                },
            });
        }
        let op = get_str(v, "op")?;
        match op.as_str() {
            "register" => Ok(Response::Registered {
                machine: get_str(v, "machine")?,
            }),
            "alloc" => match get_str(v, "status")?.as_str() {
                "granted" => Ok(Response::Granted {
                    job: get_u64(v, "job")?,
                    nodes: get_nodes(v, "nodes")?,
                    machine: get_str_opt(v, "machine")?,
                }),
                "queued" => Ok(Response::Queued {
                    job: get_u64(v, "job")?,
                    position: get_u64(v, "position")? as usize,
                    machine: get_str_opt(v, "machine")?,
                }),
                "rejected" => Ok(Response::Rejected {
                    job: get_u64(v, "job")?,
                    reason: get_str(v, "reason")?,
                    machine: get_str_opt(v, "machine")?,
                }),
                other => Err(Error::msg(format!("unknown alloc status {other:?}"))),
            },
            "release" => Ok(Response::Released {
                job: get_u64(v, "job")?,
                granted: get_granted(v)?,
                machine: get_str_opt(v, "machine")?,
            }),
            "set_scheduler" => Ok(Response::SchedulerSet {
                machine: get_str(v, "machine")?,
                scheduler: get_str(v, "scheduler")?,
                granted: get_granted(v)?,
            }),
            "set_router" => Ok(Response::RouterSet {
                pool: get_str(v, "pool")?,
                policy: get_str(v, "policy")?,
            }),
            "hello" => Ok(Response::Hello {
                tenant: get_str(v, "tenant")?,
            }),
            "set_tenant" => Ok(Response::TenantSet {
                tenant: get_str(v, "tenant")?,
                weight: v
                    .get("weight")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| Error::msg("missing or non-numeric field \"weight\""))?,
                quota: get_f64_opt(v, "quota")?,
                max_in_flight: match v.get("max_in_flight") {
                    None | Some(Value::Null) => None,
                    Some(value) => Some(
                        value
                            .as_u64()
                            .ok_or_else(|| Error::msg("non-integer field \"max_in_flight\""))?,
                    ),
                },
            }),
            "tenants" => Ok(Response::Tenants(
                v.get("tenants")
                    .cloned()
                    .ok_or_else(|| Error::msg("missing \"tenants\""))?,
            )),
            "set_fair_share" => Ok(Response::FairShareSet {
                machine: get_str(v, "machine")?,
                enabled: v
                    .get("enabled")
                    .and_then(Value::as_bool)
                    .ok_or_else(|| Error::msg("missing or non-boolean field \"enabled\""))?,
                granted: get_granted(v)?,
            }),
            "poll" => match get_str(v, "state")?.as_str() {
                "running" => Ok(Response::Running {
                    job: get_u64(v, "job")?,
                    nodes: get_nodes(v, "nodes")?,
                    machine: get_str_opt(v, "machine")?,
                }),
                "queued" => Ok(Response::Waiting {
                    job: get_u64(v, "job")?,
                    position: get_u64(v, "position")? as usize,
                    reserved_start: get_f64_opt(v, "reserved_start")?,
                    explain: match v.get("explain") {
                        None | Some(Value::Null) => None,
                        Some(value) => Some(value.clone()),
                    },
                    machine: get_str_opt(v, "machine")?,
                }),
                "unknown" => Ok(Response::Unknown {
                    job: get_u64(v, "job")?,
                }),
                other => Err(Error::msg(format!("unknown poll state {other:?}"))),
            },
            "query" => Ok(Response::Snapshot(
                v.get("snapshot")
                    .cloned()
                    .ok_or_else(|| Error::msg("missing \"snapshot\""))?,
            )),
            "stats" => Ok(Response::Stats(
                v.get("stats")
                    .cloned()
                    .ok_or_else(|| Error::msg("missing \"stats\""))?,
            )),
            "journal_stats" => Ok(Response::JournalStats(
                v.get("journal")
                    .cloned()
                    .ok_or_else(|| Error::msg("missing \"journal\""))?,
            )),
            "set_trace" => Ok(Response::TraceSet {
                enabled: v
                    .get("enabled")
                    .and_then(Value::as_bool)
                    .ok_or_else(|| Error::msg("missing or non-boolean field \"enabled\""))?,
            }),
            "trace" => Ok(Response::Trace {
                events: v
                    .get("events")
                    .and_then(Value::as_array)
                    .ok_or_else(|| Error::msg("missing \"events\" array"))?
                    .to_vec(),
                dropped: get_u64(v, "dropped")?,
                enabled: v
                    .get("enabled")
                    .and_then(Value::as_bool)
                    .ok_or_else(|| Error::msg("missing or non-boolean field \"enabled\""))?,
                // Absent on lines from pre-calibration daemons: decode
                // as an empty drain rather than a parse error.
                decisions: match v.get("decisions") {
                    None | Some(Value::Null) => Vec::new(),
                    Some(value) => value
                        .as_array()
                        .ok_or_else(|| Error::msg("non-array field \"decisions\""))?
                        .to_vec(),
                },
            }),
            "calibration" => Ok(Response::Calibration(
                v.get("calibration")
                    .cloned()
                    .ok_or_else(|| Error::msg("missing \"calibration\""))?,
            )),
            "metrics" => Ok(Response::Metrics {
                format: get_str(v, "format")?,
                metrics: v
                    .get("metrics")
                    .cloned()
                    .ok_or_else(|| Error::msg("missing \"metrics\""))?,
            }),
            "list" => {
                let arr = v
                    .get("machines")
                    .and_then(Value::as_array)
                    .ok_or_else(|| Error::msg("missing \"machines\" array"))?;
                arr.iter()
                    .map(|n| {
                        n.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| Error::msg("non-string machine name"))
                    })
                    .collect::<Result<Vec<_>, Error>>()
                    .map(Response::Machines)
            }
            "pong" => Ok(Response::Pong),
            "batch" => {
                let arr = v
                    .get("responses")
                    .and_then(Value::as_array)
                    .ok_or_else(|| Error::msg("missing \"responses\" array"))?;
                arr.iter()
                    .map(Response::from_value)
                    .collect::<Result<Vec<_>, Error>>()
                    .map(Response::Batch)
            }
            other => Err(Error::msg(format!("unknown response op {other:?}"))),
        }
    }

    /// Parses a response from one wire line.
    pub fn from_line(line: &str) -> Result<Response, Error> {
        let value: Value = serde_json::from_str(line)?;
        Response::from_value(&value)
    }

    /// Renders the response as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("value rendering is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_the_wire_format() {
        let requests = vec![
            Request::Register {
                machine: "m0".into(),
                mesh: "16x16".into(),
                allocator: Some("Hilbert w/BF".into()),
                strategy: None,
                scheduler: Some("easy".into()),
                pool: Some("grid".into()),
            },
            Request::Alloc {
                machine: "m0".into(),
                job: 7,
                size: 17,
                wait: true,
                walltime: Some(120.5),
                pattern: None,
                tenant: None,
            },
            Request::Alloc {
                machine: "m0".into(),
                job: 8,
                size: 1,
                wait: false,
                walltime: None,
                pattern: Some(CommPattern::AllToAll),
                tenant: Some("acme".into()),
            },
            Request::Alloc {
                machine: "m0".into(),
                job: 12,
                size: 9,
                wait: true,
                walltime: Some(60.0),
                pattern: Some(CommPattern::NBody),
                tenant: None,
            },
            Request::SetScheduler {
                machine: "m0".into(),
                scheduler: "first-fit backfill".into(),
            },
            Request::SetRouter {
                pool: "grid".into(),
                policy: "power-of-two".into(),
            },
            Request::Batch(vec![
                Request::Ping,
                Request::Alloc {
                    machine: "@grid".into(),
                    job: 9,
                    size: 3,
                    wait: true,
                    walltime: None,
                    pattern: Some(CommPattern::Stencil2D),
                    tenant: None,
                },
            ]),
            Request::Release {
                machine: Some("m0".into()),
                job: JobRef::Bare(7),
            },
            Request::Release {
                machine: Some("@grid".into()),
                job: JobRef::Bare(7),
            },
            Request::Release {
                machine: None,
                job: JobRef::Member {
                    machine: "m0".into(),
                    id: 7,
                },
            },
            Request::Release {
                machine: None,
                job: JobRef::Pooled {
                    pool: "grid".into(),
                    machine: "m0".into(),
                    id: 7,
                },
            },
            Request::Poll {
                machine: Some("m0".into()),
                job: JobRef::Bare(8),
            },
            Request::Poll {
                machine: Some("@grid".into()),
                job: JobRef::Member {
                    machine: "m1".into(),
                    id: 8,
                },
            },
            Request::Hello {
                tenant: "acme".into(),
            },
            Request::SetTenant {
                tenant: "acme".into(),
                weight: Some(2.5),
                quota: Some(1000.5),
                max_in_flight: Some(64),
            },
            Request::SetTenant {
                tenant: "basic".into(),
                weight: None,
                quota: None,
                max_in_flight: None,
            },
            Request::Tenants,
            Request::SetFairShare {
                machine: "m0".into(),
                enabled: true,
            },
            Request::Query {
                machine: "m0".into(),
            },
            Request::Stats {
                machine: "m0".into(),
            },
            Request::JournalStats,
            Request::SetTrace {
                enabled: true,
                calibration: None,
            },
            Request::SetTrace {
                enabled: false,
                calibration: Some(true),
            },
            Request::SetTrace {
                enabled: true,
                calibration: Some(false),
            },
            Request::Trace {
                limit: None,
                clear: false,
            },
            Request::Trace {
                limit: Some(100),
                clear: true,
            },
            Request::Metrics {
                format: "json".into(),
                window: None,
            },
            Request::Metrics {
                format: "prometheus".into(),
                window: Some("10s".into()),
            },
            Request::Metrics {
                format: "json".into(),
                window: Some("60s".into()),
            },
            Request::Calibration,
            Request::List,
            Request::Ping,
        ];
        for request in requests {
            let line = request.to_line();
            assert!(!line.contains('\n'), "wire lines must be single lines");
            let parsed = Request::from_line(&line).unwrap();
            assert_eq!(parsed, request, "line was {line}");
        }
    }

    #[test]
    fn responses_round_trip_through_the_wire_format() {
        let responses = vec![
            Response::Error {
                message: "unknown machine \"x\"".into(),
                code: None,
                detail: None,
            },
            Response::Error {
                message: "tenant \"acme\" over quota".into(),
                code: Some("quota_exceeded".into()),
                detail: Some(obj(vec![
                    ("tenant", str_value("acme")),
                    ("usage", Value::Float(90.5)),
                    // Fractional: an integral float would parse back as
                    // an `Int`, which is fine on the wire but not for
                    // this exact-equality fixture.
                    ("limit", Value::Float(100.5)),
                ])),
            },
            Response::Registered {
                machine: "m0".into(),
            },
            Response::Granted {
                job: 1,
                nodes: vec![NodeId(0), NodeId(255)],
                machine: None,
            },
            Response::Granted {
                job: 11,
                nodes: vec![NodeId(4)],
                machine: Some("m1".into()),
            },
            Response::Queued {
                job: 2,
                position: 3,
                machine: None,
            },
            Response::Rejected {
                job: 3,
                reason: "17 processors requested, 4 free".into(),
                machine: Some("m2".into()),
            },
            Response::Released {
                job: 1,
                granted: vec![(2, vec![NodeId(9)]), (4, vec![])],
                machine: None,
            },
            Response::Released {
                job: 1,
                granted: vec![],
                machine: Some("m1".into()),
            },
            Response::SchedulerSet {
                machine: "m0".into(),
                scheduler: "EASY backfill".into(),
                granted: vec![(7, vec![NodeId(1), NodeId(2)])],
            },
            Response::Running {
                job: 2,
                nodes: vec![NodeId(9)],
                machine: None,
            },
            Response::Running {
                job: 2,
                nodes: vec![NodeId(9)],
                machine: Some("m0".into()),
            },
            Response::Waiting {
                job: 5,
                position: 1,
                reserved_start: None,
                explain: None,
                machine: Some("m1".into()),
            },
            Response::Waiting {
                job: 5,
                position: 2,
                reserved_start: Some(120.5),
                explain: Some(obj(vec![
                    ("code", str_value("would_delay_reservation")),
                    ("blocking_job", Value::Int(3)),
                    ("until", Value::Float(120.5)),
                    (
                        "detail",
                        str_value("would delay job 3's reservation at t=120.5"),
                    ),
                ])),
                machine: None,
            },
            Response::Hello {
                tenant: "acme".into(),
            },
            Response::TenantSet {
                tenant: "acme".into(),
                weight: 2.5,
                quota: Some(1000.5),
                max_in_flight: Some(64),
            },
            Response::TenantSet {
                tenant: "basic".into(),
                weight: 1.5,
                quota: None,
                max_in_flight: None,
            },
            Response::Tenants(Value::Array(vec![obj(vec![
                ("tenant", str_value("acme")),
                ("weight", Value::Float(2.5)),
                ("admitted", Value::Int(3)),
            ])])),
            Response::FairShareSet {
                machine: "m0".into(),
                enabled: true,
                granted: vec![(7, vec![NodeId(1)])],
            },
            Response::Unknown { job: 6 },
            Response::RouterSet {
                pool: "grid".into(),
                policy: "least-loaded".into(),
            },
            Response::JournalStats(Value::Object({
                let mut m = Map::new();
                m.insert("enabled".into(), Value::Bool(false));
                m
            })),
            Response::TraceSet { enabled: true },
            Response::Trace {
                events: vec![obj(vec![
                    ("request", Value::Int(1)),
                    ("stage", str_value("parse")),
                    ("ts_micros", Value::Int(12)),
                    ("dur_micros", Value::Int(3)),
                ])],
                dropped: 2,
                enabled: true,
                decisions: vec![obj(vec![
                    ("pool", str_value("grid")),
                    ("policy", str_value("comm-aware")),
                    ("winner", str_value("m1")),
                ])],
            },
            Response::Calibration(obj(vec![
                ("enabled", Value::Bool(true)),
                // `Int`, not `UInt`: the parser normalises i64-ranged
                // integers to `Int`, and the fixture must round-trip.
                ("joined", Value::Int(12)),
                ("cells", Value::Array(vec![])),
            ])),
            Response::Metrics {
                format: "json".into(),
                metrics: obj(vec![("stages", Value::Object(Map::new()))]),
            },
            Response::Metrics {
                format: "prometheus".into(),
                metrics: str_value("x_count 3\n"),
            },
            Response::Machines(vec!["a".into(), "b".into()]),
            Response::Pong,
            Response::Batch(vec![
                Response::Pong,
                Response::Error {
                    message: "unknown pool \"x\"".into(),
                    code: None,
                    detail: None,
                },
            ]),
        ];
        for response in responses {
            let line = response.to_line();
            let parsed = Response::from_line(&line).unwrap();
            assert_eq!(parsed, response, "line was {line}");
        }
    }

    #[test]
    fn alloc_wait_and_walltime_default_to_absent() {
        let parsed =
            Request::from_line(r#"{"op":"alloc","machine":"m0","job":1,"size":4}"#).unwrap();
        assert_eq!(
            parsed,
            Request::Alloc {
                machine: "m0".into(),
                job: 1,
                size: 4,
                wait: false,
                walltime: None,
                pattern: None,
                tenant: None,
            }
        );
        // An integer walltime is accepted (JSON does not distinguish).
        let parsed = Request::from_line(
            r#"{"op":"alloc","machine":"m0","job":1,"size":4,"wait":true,"walltime":30}"#,
        )
        .unwrap();
        assert_eq!(
            parsed,
            Request::Alloc {
                machine: "m0".into(),
                job: 1,
                size: 4,
                wait: true,
                walltime: Some(30.0),
                pattern: None,
                tenant: None,
            }
        );
        // Pattern names are validated at the boundary: an unknown name is
        // a parse error, not a silently pattern-oblivious job, and a
        // non-string pattern is refused like any other mistyped field.
        let parsed = Request::from_line(
            r#"{"op":"alloc","machine":"m0","job":1,"size":4,"pattern":"n-body"}"#,
        )
        .unwrap();
        assert!(matches!(
            parsed,
            Request::Alloc {
                pattern: Some(CommPattern::NBody),
                ..
            }
        ));
        assert!(Request::from_line(
            r#"{"op":"alloc","machine":"m0","job":1,"size":4,"pattern":"zigzag"}"#
        )
        .is_err());
        assert!(Request::from_line(
            r#"{"op":"alloc","machine":"m0","job":1,"size":4,"pattern":7}"#
        )
        .is_err());
        // A non-numeric walltime is a parse error, not a silent None.
        assert!(Request::from_line(
            r#"{"op":"alloc","machine":"m0","job":1,"size":4,"walltime":"soon"}"#
        )
        .is_err());
        // So are non-finite and non-positive estimates: `1e999` parses
        // to infinity, and zero/negative walltimes would corrupt the
        // reservation comparisons downstream. All refused at the wire.
        for bad in ["1e999", "-1e999", "0", "-30", "0.0"] {
            let line =
                format!(r#"{{"op":"alloc","machine":"m0","job":1,"size":4,"walltime":{bad}}}"#);
            assert!(
                Request::from_line(&line).is_err(),
                "walltime {bad} must be rejected at the protocol boundary"
            );
        }
        // So are non-string register specs (they must not fall back to
        // the FCFS/Hilbert defaults).
        assert!(Request::from_line(
            r#"{"op":"register","machine":"m0","mesh":"4x4","scheduler":5}"#
        )
        .is_err());
        assert!(Request::from_line(
            r#"{"op":"register","machine":"m0","mesh":"4x4","allocator":5}"#
        )
        .is_err());
        assert!(Request::from_line(
            r#"{"op":"register","machine":"m0","mesh":"4x4","strategy":[]}"#
        )
        .is_err());
        // And a non-boolean wait (it must not silently reject-on-full).
        assert!(Request::from_line(
            r#"{"op":"alloc","machine":"m0","job":1,"size":4,"wait":"true"}"#
        )
        .is_err());
    }

    #[test]
    fn job_refs_cover_bare_member_and_pooled_forms() {
        // The bare compatibility form renders exactly the pre-refactor
        // wire bytes.
        let release = Request::Release {
            machine: Some("m0".into()),
            job: JobRef::Bare(7),
        };
        assert_eq!(
            release.to_line(),
            r#"{"op":"release","machine":"m0","job":7}"#
        );
        // Qualified refs parse from their string spellings.
        assert_eq!(JobRef::parse_str("7").unwrap(), JobRef::Bare(7),);
        assert_eq!(
            JobRef::parse_str("m0/7").unwrap(),
            JobRef::Member {
                machine: "m0".into(),
                id: 7,
            }
        );
        assert_eq!(
            JobRef::parse_str("grid/m0/7").unwrap(),
            JobRef::Pooled {
                pool: "grid".into(),
                machine: "m0".into(),
                id: 7,
            }
        );
        // Display round-trips every form.
        for s in ["7", "m0/7", "grid/m0/7"] {
            assert_eq!(JobRef::parse_str(s).unwrap().to_string(), s);
        }
        // Malformed spellings are parse errors.
        for bad in ["", "/", "m0/", "/7", "a/b/c/7", "m0/seven", "grid/m0/"] {
            assert!(JobRef::parse_str(bad).is_err(), "ref {bad:?} must fail");
        }
        // A machine-less release parses only with a qualified ref.
        assert!(Request::from_line(r#"{"op":"release","job":"m0/7"}"#).is_ok());
        assert!(Request::from_line(r#"{"op":"release","job":7}"#).is_err());
        assert!(Request::from_line(r#"{"op":"poll","job":"grid/m0/7"}"#).is_ok());
        assert!(Request::from_line(r#"{"op":"poll","job":9}"#).is_err());
        // Non-integer, non-string refs are refused.
        assert!(Request::from_line(r#"{"op":"release","machine":"m0","job":[7]}"#).is_err());
    }

    #[test]
    fn tenant_ops_validate_their_fields() {
        // hello requires the tenant name.
        assert!(Request::from_line(r#"{"op":"hello"}"#).is_err());
        // set_tenant bounds: weight finite positive, quota finite
        // non-negative.
        for bad in [
            r#"{"op":"set_tenant","tenant":"t","weight":0}"#,
            r#"{"op":"set_tenant","tenant":"t","weight":-2}"#,
            r#"{"op":"set_tenant","tenant":"t","weight":1e999}"#,
            r#"{"op":"set_tenant","tenant":"t","quota":-1}"#,
            r#"{"op":"set_tenant","tenant":"t","quota":1e999}"#,
            r#"{"op":"set_tenant","tenant":"t","max_in_flight":"many"}"#,
            r#"{"op":"set_tenant","weight":1.0}"#,
        ] {
            assert!(Request::from_line(bad).is_err(), "line {bad} must fail");
        }
        // A mistyped alloc tenant is a parse error, not a silent
        // default-tenant attribution.
        assert!(
            Request::from_line(r#"{"op":"alloc","machine":"m0","job":1,"size":4,"tenant":7}"#)
                .is_err()
        );
        assert!(Request::from_line(r#"{"op":"set_fair_share","machine":"m0"}"#).is_err());
        // Coded errors round-trip their detail payloads.
        let line = r#"{"ok":false,"error":"over quota","code":"quota_exceeded","detail":{"usage":90.5,"limit":100.5}}"#;
        match Response::from_line(line).unwrap() {
            Response::Error { code, detail, .. } => {
                assert_eq!(code.as_deref(), Some("quota_exceeded"));
                let d = detail.unwrap();
                assert_eq!(d.get("usage").and_then(Value::as_f64), Some(90.5));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Request::from_line("not json").is_err());
        assert!(Request::from_line(r#"{"op":"frobnicate"}"#).is_err());
        assert!(Request::from_line(r#"{"op":"alloc","machine":"m0"}"#).is_err());
        assert!(
            Response::from_line(r#"{"op":"pong"}"#).is_err(),
            "missing ok"
        );
    }

    #[test]
    fn observability_ops_validate_their_fields() {
        // set_trace requires a boolean.
        assert!(Request::from_line(r#"{"op":"set_trace"}"#).is_err());
        assert!(Request::from_line(r#"{"op":"set_trace","enabled":"yes"}"#).is_err());
        // trace defaults are all-events, no-clear.
        assert_eq!(
            Request::from_line(r#"{"op":"trace"}"#).unwrap(),
            Request::Trace {
                limit: None,
                clear: false,
            }
        );
        assert!(Request::from_line(r#"{"op":"trace","limit":"many"}"#).is_err());
        assert!(Request::from_line(r#"{"op":"trace","clear":1}"#).is_err());
        // set_trace's calibration rider is optional but typed.
        assert_eq!(
            Request::from_line(r#"{"op":"set_trace","enabled":true}"#).unwrap(),
            Request::SetTrace {
                enabled: true,
                calibration: None,
            }
        );
        assert!(
            Request::from_line(r#"{"op":"set_trace","enabled":true,"calibration":1}"#).is_err()
        );
        // metrics defaults to JSON and refuses unknown formats.
        assert_eq!(
            Request::from_line(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics {
                format: "json".into(),
                window: None,
            }
        );
        assert!(Request::from_line(r#"{"op":"metrics","format":"xml"}"#).is_err());
        // Windows are validated at the boundary: only the two canonical
        // trailing spans exist.
        assert_eq!(
            Request::from_line(r#"{"op":"metrics","window":"10s"}"#).unwrap(),
            Request::Metrics {
                format: "json".into(),
                window: Some("10s".into()),
            }
        );
        assert!(Request::from_line(r#"{"op":"metrics","window":"5m"}"#).is_err());
        assert!(Request::from_line(r#"{"op":"metrics","window":10}"#).is_err());
        // A trace line without "decisions" (a pre-calibration daemon)
        // still parses, as an empty decision drain.
        assert_eq!(
            Response::from_line(
                r#"{"ok":true,"op":"trace","enabled":false,"dropped":0,"events":[]}"#
            )
            .unwrap(),
            Response::Trace {
                events: vec![],
                dropped: 0,
                enabled: false,
                decisions: vec![],
            }
        );
        // An infinite reserved start never travels: the rendering drops
        // it rather than emitting invalid JSON.
        let waiting = Response::Waiting {
            job: 1,
            position: 1,
            reserved_start: Some(f64::INFINITY),
            explain: None,
            machine: None,
        };
        let line = waiting.to_line();
        assert!(!line.contains("reserved_start"), "line was {line}");
        assert_eq!(
            Response::from_line(&line).unwrap(),
            Response::Waiting {
                job: 1,
                position: 1,
                reserved_start: None,
                explain: None,
                machine: None,
            }
        );
    }

    #[test]
    fn batches_do_not_nest_and_propagate_member_errors() {
        assert!(
            Request::from_line(r#"{"op":"batch","requests":[{"op":"batch","requests":[]}]}"#)
                .is_err()
        );
        // One malformed member rejects the whole batch (a silent drop
        // would desynchronise request/response pairing).
        assert!(Request::from_line(
            r#"{"op":"batch","requests":[{"op":"ping"},{"op":"frobnicate"}]}"#
        )
        .is_err());
        assert!(Request::from_line(r#"{"op":"batch"}"#).is_err());
        let parsed = Request::from_line(r#"{"op":"batch","requests":[{"op":"ping"}]}"#).unwrap();
        assert_eq!(parsed, Request::Batch(vec![Request::Ping]));
    }
}
