//! The wire protocol: one declaration per message.
//!
//! One JSON object per line in each direction, or one binary frame (see
//! [`crate::framing`]). Requests carry an `"op"` discriminator; responses
//! always carry `"ok"` plus op-specific fields (see the crate docs for the
//! full vocabulary). Node identifiers travel as plain integers (dense
//! [`commalloc_mesh::NodeId`] indices).
//!
//! Each [`Request`] and [`Response`] variant states its wire fields in
//! two places side by side, and every back end runs off them:
//!
//! - **`emit`** ([`Emit`]) renders the fields, in wire order, into a
//!   sink: JSON text for `to_line` and the server's NDJSON outbox, the
//!   binary tagged tree for binary frames, a [`Value`] for `to_value`.
//! - **`read`** reads the fields from any [`Node`]: a tape the JSON
//!   grammar or the binary decoder filled (`from_line`, both server
//!   framings) or a `&Value` (`from_value`). One body, so every error
//!   text is the same whichever way a message arrived.
//!
//! The shapes are data-carrying enums, which the workspace's derive shim
//! deliberately does not cover, and the hand-written bodies double as
//! precise wire-format documentation.

use commalloc_mesh::NodeId;
use commalloc_workload::CommPattern;
use serde::{Error, Value};
use serde_json::{Emit, Node, Sink};
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

    /// Parses the textual spelling: `"7"`, `"m0/7"` or `"grid/m0/7"`.
    /// Segments must be non-empty and the id must be an integer; more
    /// than three segments is an error (machine and pool names cannot
    /// contain `/`).
    pub fn parse_str(s: &str) -> Result<JobRef, Error> {
        let bad = || {
            Error::msg(format!(
                "malformed job ref {s:?} (want \"id\", \"machine/id\" or \"pool/machine/id\")"
            ))
        };
        let parts: Vec<&str> = s.split('/').collect();
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
    pub fn from_wire<'a, F: Node<'a>>(v: F) -> Result<JobRef, Error> {
        match v.as_str() {
            Some(s) => JobRef::parse_str(s),
            None => v.as_u64().map(JobRef::Bare).ok_or_else(|| {
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

/// Bare refs stay plain integers; qualified refs become `/`-joined
/// strings.
impl Emit for JobRef {
    fn emit<S: Sink>(&self, s: &mut S) {
        match self {
            JobRef::Bare(id) => s.u64(*id),
            _ => s.str(&self.to_string()),
        }
    }
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

// ---------------------------------------------------------------------------
// Field readers, generic over the parsed form.
// ---------------------------------------------------------------------------

/// The error for field `key`: `problem` says what is wrong with it.
#[cold]
fn bad_field(problem: &str, key: &str) -> Error {
    Error::msg(format!("{problem} field {key:?}"))
}

/// The field `key`, unless it is absent or `null`.
#[inline]
pub(crate) fn present<'a, F: Node<'a>>(v: F, key: &str) -> Option<F> {
    v.get(key).filter(|field| !field.is_null())
}

/// An optional field of one kind: absent or `null` is `None`, but a
/// present value of another kind is a parse error rather than a silent
/// `None` (a mistyped `"scheduler":5` must not quietly register an FCFS
/// machine).
#[inline]
pub(crate) fn opt<'a, F: Node<'a>, T>(
    v: F,
    key: &str,
    kind: &str,
    read: impl FnOnce(F) -> Option<T>,
) -> Result<Option<T>, Error> {
    present(v, key)
        .map(|field| read(field).ok_or_else(|| bad_field(kind, key)))
        .transpose()
}

#[inline]
pub(crate) fn get_text<'a, F: Node<'a>>(v: F, key: &str) -> Result<&'a str, Error> {
    v.get(key)
        .and_then(F::as_str)
        .ok_or_else(|| bad_field("missing or non-string", key))
}

#[inline]
fn get_text_opt<'a, F: Node<'a>>(v: F, key: &str) -> Result<Option<&'a str>, Error> {
    opt(v, key, "non-string", F::as_str)
}

#[inline]
pub(crate) fn get_str<'a, F: Node<'a>>(v: F, key: &str) -> Result<String, Error> {
    get_text(v, key).map(str::to_string)
}

#[inline]
pub(crate) fn get_str_opt<'a, F: Node<'a>>(v: F, key: &str) -> Result<Option<String>, Error> {
    Ok(get_text_opt(v, key)?.map(str::to_string))
}

#[inline]
pub(crate) fn get_u64<'a, F: Node<'a>>(v: F, key: &str) -> Result<u64, Error> {
    v.get(key)
        .and_then(F::as_u64)
        .ok_or_else(|| bad_field("missing or non-integer", key))
}

#[inline]
pub(crate) fn get_f64<'a, F: Node<'a>>(v: F, key: &str) -> Result<f64, Error> {
    v.get(key)
        .and_then(F::as_f64)
        .ok_or_else(|| bad_field("missing or non-numeric", key))
}

#[inline]
pub(crate) fn get_f64_opt<'a, F: Node<'a>>(v: F, key: &str) -> Result<Option<f64>, Error> {
    opt(v, key, "non-numeric", F::as_f64)
}

#[inline]
pub(crate) fn get_bool<'a, F: Node<'a>>(v: F, key: &str) -> Result<bool, Error> {
    v.get(key)
        .and_then(F::as_bool)
        .ok_or_else(|| bad_field("missing or non-boolean", key))
}

/// A tree-valued field, taken whole.
fn get_tree<'a, F: Node<'a>>(v: F, key: &str) -> Result<Value, Error> {
    v.get(key)
        .map(F::to_value)
        .ok_or_else(|| Error::msg(format!("missing {key:?}")))
}

/// The array field `key`, each element through `read`.
pub(crate) fn get_array<'a, F: Node<'a>, T>(
    v: F,
    key: &str,
    read: impl FnMut(F) -> Result<T, Error>,
) -> Result<Vec<T>, Error> {
    let items = v
        .get(key)
        .and_then(F::items)
        .ok_or_else(|| bad_field("missing or non-array", key))?;
    read_items(items, read)
}

/// As [`get_array`], for the lists whose absence is reported as
/// `missing "key" array`.
fn get_list<'a, F: Node<'a>, T>(
    v: F,
    key: &str,
    read: impl FnMut(F) -> Result<T, Error>,
) -> Result<Vec<T>, Error> {
    let items = v
        .get(key)
        .and_then(F::items)
        .ok_or_else(|| Error::msg(format!("missing {key:?} array")))?;
    read_items(items, read)
}

/// Every element through `read`, into a vector allocated once: both
/// parsed forms know an array's length before its elements are read.
fn read_items<'a, F: Node<'a>, T>(
    items: F::Items,
    mut read: impl FnMut(F) -> Result<T, Error>,
) -> Result<Vec<T>, Error> {
    let mut out = Vec::with_capacity(items.size_hint().0);
    for item in items {
        out.push(read(item)?);
    }
    Ok(out)
}

/// A processor id: an integer that fits a [`NodeId`]. A larger one is
/// an error, not an id wrapped onto some other processor.
pub(crate) fn node_id<'a, F: Node<'a>>(n: F) -> Result<NodeId, Error> {
    let id = n
        .as_u64()
        .ok_or_else(|| Error::msg("non-integer node id"))?;
    u32::try_from(id)
        .map(NodeId)
        .map_err(|_| Error::msg(format!("node id {id} out of range")))
}

/// A `(job, nodes)` grant list.
fn get_granted<'a, F: Node<'a>>(v: F) -> Result<Vec<(u64, Vec<NodeId>)>, Error> {
    get_list(v, "granted", |grant| {
        Ok((get_u64(grant, "job")?, get_array(grant, "nodes", node_id)?))
    })
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
#[inline]
fn get_walltime<'a, F: Node<'a>>(v: F) -> Result<Option<f64>, Error> {
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
#[inline]
pub(crate) fn get_pattern<'a, F: Node<'a>>(v: F) -> Result<Option<CommPattern>, Error> {
    get_text_opt(v, "pattern")?
        .map(|name| {
            CommPattern::parse(name)
                .ok_or_else(|| Error::msg(format!("unknown communication pattern {name:?}")))
        })
        .transpose()
}

/// The `machine` and `job` of a `release` or `poll`: the machine may be
/// omitted only when the job ref names its own.
#[inline]
fn job_target<'a, F: Node<'a>>(v: F, op: &str) -> Result<(Option<String>, JobRef), Error> {
    let machine = get_str_opt(v, "machine")?;
    let job = JobRef::from_wire(
        v.get("job")
            .ok_or_else(|| Error::msg("missing field \"job\""))?,
    )?;
    if machine.is_none() && job.machine().is_none() {
        return Err(Error::msg(format!(
            "{op} needs a \"machine\" or a qualified job ref"
        )));
    }
    Ok((machine, job))
}

// ---------------------------------------------------------------------------
// Field writers.
// ---------------------------------------------------------------------------

/// A grant's processors: plain integer ids, in rank order.
pub(crate) struct Nodes<'a>(pub(crate) &'a [NodeId]);

impl Emit for Nodes<'_> {
    fn emit<S: Sink>(&self, s: &mut S) {
        s.begin_array();
        for node in self.0 {
            s.u64(node.0 as u64);
        }
        s.end_array();
    }
}

/// A `(job, nodes)` grant list (the `release`, `set_scheduler` and
/// `set_fair_share` responses).
struct Grants<'a>(&'a [(u64, Vec<NodeId>)]);

impl Emit for Grants<'_> {
    fn emit<S: Sink>(&self, s: &mut S) {
        s.begin_array();
        for (job, nodes) in self.0 {
            s.begin_object();
            s.entry("job", job);
            s.entry("nodes", &Nodes(nodes));
            s.end_object();
        }
        s.end_array();
    }
}

/// How every successful response opens.
fn ok<S: Sink>(s: &mut S, op: &str) {
    s.entry("ok", &true);
    s.entry("op", op);
}

// ---------------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------------

impl Emit for Request {
    fn emit<S: Sink>(&self, s: &mut S) {
        s.begin_object();
        match self {
            Request::Register {
                machine,
                mesh,
                allocator,
                strategy,
                scheduler,
                pool,
            } => {
                s.entry("op", "register");
                s.entry("machine", machine);
                s.entry("mesh", mesh);
                s.opt_entry("allocator", allocator);
                s.opt_entry("strategy", strategy);
                s.opt_entry("scheduler", scheduler);
                s.opt_entry("pool", pool);
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
                s.entry("op", "alloc");
                s.entry("machine", machine);
                s.entry("job", job);
                s.entry("size", size);
                s.entry("wait", wait);
                s.opt_entry("walltime", walltime);
                s.opt_entry("pattern", &pattern.map(|p| p.name()));
                s.opt_entry("tenant", tenant);
            }
            Request::SetScheduler { machine, scheduler } => {
                s.entry("op", "set_scheduler");
                s.entry("machine", machine);
                s.entry("scheduler", scheduler);
            }
            Request::SetRouter { pool, policy } => {
                s.entry("op", "set_router");
                s.entry("pool", pool);
                s.entry("policy", policy);
            }
            Request::Release { machine, job } => {
                s.entry("op", "release");
                s.opt_entry("machine", machine);
                s.entry("job", job);
            }
            Request::Poll { machine, job } => {
                s.entry("op", "poll");
                s.opt_entry("machine", machine);
                s.entry("job", job);
            }
            Request::Hello { tenant } => {
                s.entry("op", "hello");
                s.entry("tenant", tenant);
            }
            Request::SetTenant {
                tenant,
                weight,
                quota,
                max_in_flight,
            } => {
                s.entry("op", "set_tenant");
                s.entry("tenant", tenant);
                s.opt_entry("weight", weight);
                s.opt_entry("quota", quota);
                s.opt_entry("max_in_flight", max_in_flight);
            }
            Request::Tenants => s.entry("op", "tenants"),
            Request::SetFairShare { machine, enabled } => {
                s.entry("op", "set_fair_share");
                s.entry("machine", machine);
                s.entry("enabled", enabled);
            }
            Request::Query { machine } => {
                s.entry("op", "query");
                s.entry("machine", machine);
            }
            Request::Stats { machine } => {
                s.entry("op", "stats");
                s.entry("machine", machine);
            }
            Request::JournalStats => s.entry("op", "journal_stats"),
            Request::SetTrace {
                enabled,
                calibration,
            } => {
                s.entry("op", "set_trace");
                s.entry("enabled", enabled);
                s.opt_entry("calibration", calibration);
            }
            Request::Trace { limit, clear } => {
                s.entry("op", "trace");
                s.opt_entry("limit", limit);
                if *clear {
                    s.entry("clear", &true);
                }
            }
            Request::Metrics { format, window } => {
                s.entry("op", "metrics");
                s.entry("format", format);
                s.opt_entry("window", window);
            }
            Request::Calibration => s.entry("op", "calibration"),
            Request::List => s.entry("op", "list"),
            Request::Ping => s.entry("op", "ping"),
            Request::Batch(requests) => {
                s.entry("op", "batch");
                s.entry("requests", requests);
            }
        }
        s.end_object();
    }
}

impl Request {
    /// Reads a request from its wire value, in whichever parsed form.
    pub fn read<'a, F: Node<'a>>(v: F) -> Result<Request, Error> {
        Ok(match get_text(v, "op")? {
            "register" => Request::Register {
                machine: get_str(v, "machine")?,
                mesh: get_str(v, "mesh")?,
                allocator: get_str_opt(v, "allocator")?,
                strategy: get_str_opt(v, "strategy")?,
                scheduler: get_str_opt(v, "scheduler")?,
                pool: get_str_opt(v, "pool")?,
            },
            "alloc" => Request::Alloc {
                machine: get_str(v, "machine")?,
                job: get_u64(v, "job")?,
                size: get_u64(v, "size")? as usize,
                wait: opt(v, "wait", "non-boolean", F::as_bool)?.unwrap_or(false),
                walltime: get_walltime(v)?,
                pattern: get_pattern(v)?,
                tenant: get_str_opt(v, "tenant")?,
            },
            "set_scheduler" => Request::SetScheduler {
                machine: get_str(v, "machine")?,
                scheduler: get_str(v, "scheduler")?,
            },
            "set_router" => Request::SetRouter {
                pool: get_str(v, "pool")?,
                policy: get_str(v, "policy")?,
            },
            "batch" => {
                let requests = get_list(v, "requests", Request::read)?;
                if requests.iter().any(|r| matches!(r, Request::Batch(_))) {
                    return Err(Error::msg("batches do not nest"));
                }
                Request::Batch(requests)
            }
            "release" => {
                let (machine, job) = job_target(v, "release")?;
                Request::Release { machine, job }
            }
            "poll" => {
                let (machine, job) = job_target(v, "poll")?;
                Request::Poll { machine, job }
            }
            "hello" => Request::Hello {
                tenant: get_str(v, "tenant")?,
            },
            "set_tenant" => {
                let weight = get_f64_opt(v, "weight")?;
                if let Some(w) = weight.filter(|w| !(w.is_finite() && *w > 0.0)) {
                    return Err(Error::msg(format!(
                        "field \"weight\" must be a finite, positive number, got {w}"
                    )));
                }
                let quota = get_f64_opt(v, "quota")?;
                if let Some(q) = quota.filter(|q| !(q.is_finite() && *q >= 0.0)) {
                    return Err(Error::msg(format!(
                        "field \"quota\" must be a finite, non-negative number of node-seconds, got {q}"
                    )));
                }
                let max_in_flight = opt(v, "max_in_flight", "non-integer", F::as_u64)?;
                Request::SetTenant {
                    tenant: get_str(v, "tenant")?,
                    weight,
                    quota,
                    max_in_flight,
                }
            }
            "tenants" => Request::Tenants,
            "set_fair_share" => Request::SetFairShare {
                machine: get_str(v, "machine")?,
                enabled: get_bool(v, "enabled")?,
            },
            "query" => Request::Query {
                machine: get_str(v, "machine")?,
            },
            "stats" => Request::Stats {
                machine: get_str(v, "machine")?,
            },
            "journal_stats" => Request::JournalStats,
            "set_trace" => Request::SetTrace {
                enabled: get_bool(v, "enabled")?,
                calibration: opt(v, "calibration", "non-boolean", F::as_bool)?,
            },
            "trace" => Request::Trace {
                limit: opt(v, "limit", "non-integer", F::as_u64)?.map(|limit| limit as usize),
                clear: opt(v, "clear", "non-boolean", F::as_bool)?.unwrap_or(false),
            },
            "metrics" => {
                let format = get_text_opt(v, "format")?.unwrap_or("json");
                if format != "json" && format != "prometheus" {
                    return Err(Error::msg(format!(
                        "unknown metrics format {format:?} (expected \"json\" or \"prometheus\")"
                    )));
                }
                let window = get_text_opt(v, "window")?;
                if let Some(w) = window.filter(|w| *w != "10s" && *w != "60s") {
                    return Err(Error::msg(format!(
                        "unknown metrics window {w:?} (expected \"10s\" or \"60s\")"
                    )));
                }
                Request::Metrics {
                    format: format.to_string(),
                    window: window.map(str::to_string),
                }
            }
            "calibration" => Request::Calibration,
            "list" => Request::List,
            "ping" => Request::Ping,
            other => return Err(Error::msg(format!("unknown op {other:?}"))),
        })
    }

    /// Parses a request from its wire value.
    pub fn from_value(v: &Value) -> Result<Request, Error> {
        Request::read(v)
    }

    /// Parses a request from one wire line.
    pub fn from_line(line: &str) -> Result<Request, Error> {
        serde_json::with_parsed(line, |root| Request::read(root))
    }

    /// Renders the request as its wire value.
    pub fn to_value(&self) -> Value {
        serde_json::emit_to_value(self)
    }

    /// Renders the request as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::emit_to_string(self)
    }
}

// ---------------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------------

impl Emit for Response {
    fn emit<S: Sink>(&self, s: &mut S) {
        s.begin_object();
        match self {
            Response::Error {
                message,
                code,
                detail,
            } => {
                s.entry("ok", &false);
                s.entry("error", message);
                s.opt_entry("code", code);
                s.opt_entry("detail", detail);
            }
            Response::Registered { machine } => {
                ok(s, "register");
                s.entry("machine", machine);
            }
            Response::Granted {
                job,
                nodes,
                machine,
            } => {
                ok(s, "alloc");
                s.entry("status", "granted");
                s.entry("job", job);
                s.entry("nodes", &Nodes(nodes));
                s.opt_entry("machine", machine);
            }
            Response::Queued {
                job,
                position,
                machine,
            } => {
                ok(s, "alloc");
                s.entry("status", "queued");
                s.entry("job", job);
                s.entry("position", position);
                s.opt_entry("machine", machine);
            }
            Response::Rejected {
                job,
                reason,
                machine,
            } => {
                ok(s, "alloc");
                s.entry("status", "rejected");
                s.entry("job", job);
                s.entry("reason", reason);
                s.opt_entry("machine", machine);
            }
            Response::Released {
                job,
                granted,
                machine,
            } => {
                ok(s, "release");
                s.entry("job", job);
                s.entry("granted", &Grants(granted));
                s.opt_entry("machine", machine);
            }
            Response::SchedulerSet {
                machine,
                scheduler,
                granted,
            } => {
                ok(s, "set_scheduler");
                s.entry("machine", machine);
                s.entry("scheduler", scheduler);
                s.entry("granted", &Grants(granted));
            }
            Response::RouterSet { pool, policy } => {
                ok(s, "set_router");
                s.entry("pool", pool);
                s.entry("policy", policy);
            }
            Response::Running {
                job,
                nodes,
                machine,
            } => {
                ok(s, "poll");
                s.entry("state", "running");
                s.entry("job", job);
                s.entry("nodes", &Nodes(nodes));
                s.opt_entry("machine", machine);
            }
            Response::Waiting {
                job,
                position,
                reserved_start,
                explain,
                machine,
            } => {
                ok(s, "poll");
                s.entry("state", "queued");
                s.entry("job", job);
                s.entry("position", position);
                // Only finite promises travel: JSON cannot spell the
                // infinity an unplannable reservation would need, and
                // the explain already marks that case.
                s.opt_entry("reserved_start", &reserved_start.filter(|s| s.is_finite()));
                s.opt_entry("explain", explain);
                s.opt_entry("machine", machine);
            }
            Response::Unknown { job } => {
                ok(s, "poll");
                s.entry("state", "unknown");
                s.entry("job", job);
            }
            Response::Hello { tenant } => {
                ok(s, "hello");
                s.entry("tenant", tenant);
            }
            Response::TenantSet {
                tenant,
                weight,
                quota,
                max_in_flight,
            } => {
                ok(s, "set_tenant");
                s.entry("tenant", tenant);
                s.entry("weight", weight);
                s.opt_entry("quota", quota);
                s.opt_entry("max_in_flight", max_in_flight);
            }
            Response::Tenants(table) => {
                ok(s, "tenants");
                s.entry("tenants", table);
            }
            Response::FairShareSet {
                machine,
                enabled,
                granted,
            } => {
                ok(s, "set_fair_share");
                s.entry("machine", machine);
                s.entry("enabled", enabled);
                s.entry("granted", &Grants(granted));
            }
            Response::Snapshot(snapshot) => {
                ok(s, "query");
                s.entry("snapshot", snapshot);
            }
            Response::Stats(stats) => {
                ok(s, "stats");
                s.entry("stats", stats);
            }
            Response::JournalStats(stats) => {
                ok(s, "journal_stats");
                s.entry("journal", stats);
            }
            Response::TraceSet { enabled } => {
                ok(s, "set_trace");
                s.entry("enabled", enabled);
            }
            Response::Trace {
                events,
                dropped,
                enabled,
                decisions,
            } => {
                ok(s, "trace");
                s.entry("enabled", enabled);
                s.entry("dropped", dropped);
                s.entry("events", events);
                s.entry("decisions", decisions);
            }
            Response::Calibration(report) => {
                ok(s, "calibration");
                s.entry("calibration", report);
            }
            Response::Metrics { format, metrics } => {
                ok(s, "metrics");
                s.entry("format", format);
                s.entry("metrics", metrics);
            }
            Response::Machines(names) => {
                ok(s, "list");
                s.entry("machines", names);
            }
            Response::Pong => ok(s, "pong"),
            Response::Batch(responses) => {
                ok(s, "batch");
                s.entry("responses", responses);
            }
        }
        s.end_object();
    }
}

impl Response {
    /// Reads a response from its wire value, in whichever parsed form.
    pub fn read<'a, F: Node<'a>>(v: F) -> Result<Response, Error> {
        let ok = v
            .get("ok")
            .and_then(F::as_bool)
            .ok_or_else(|| Error::msg("missing \"ok\" field"))?;
        if !ok {
            return Ok(Response::Error {
                message: get_str(v, "error")?,
                code: get_str_opt(v, "code")?,
                detail: present(v, "detail").map(F::to_value),
            });
        }
        Ok(match get_text(v, "op")? {
            "register" => Response::Registered {
                machine: get_str(v, "machine")?,
            },
            "alloc" => match get_text(v, "status")? {
                "granted" => Response::Granted {
                    job: get_u64(v, "job")?,
                    nodes: get_array(v, "nodes", node_id)?,
                    machine: get_str_opt(v, "machine")?,
                },
                "queued" => Response::Queued {
                    job: get_u64(v, "job")?,
                    position: get_u64(v, "position")? as usize,
                    machine: get_str_opt(v, "machine")?,
                },
                "rejected" => Response::Rejected {
                    job: get_u64(v, "job")?,
                    reason: get_str(v, "reason")?,
                    machine: get_str_opt(v, "machine")?,
                },
                other => return Err(Error::msg(format!("unknown alloc status {other:?}"))),
            },
            "release" => Response::Released {
                job: get_u64(v, "job")?,
                granted: get_granted(v)?,
                machine: get_str_opt(v, "machine")?,
            },
            "set_scheduler" => Response::SchedulerSet {
                machine: get_str(v, "machine")?,
                scheduler: get_str(v, "scheduler")?,
                granted: get_granted(v)?,
            },
            "set_router" => Response::RouterSet {
                pool: get_str(v, "pool")?,
                policy: get_str(v, "policy")?,
            },
            "hello" => Response::Hello {
                tenant: get_str(v, "tenant")?,
            },
            "set_tenant" => Response::TenantSet {
                tenant: get_str(v, "tenant")?,
                weight: get_f64(v, "weight")?,
                quota: get_f64_opt(v, "quota")?,
                max_in_flight: opt(v, "max_in_flight", "non-integer", F::as_u64)?,
            },
            "tenants" => Response::Tenants(get_tree(v, "tenants")?),
            "set_fair_share" => Response::FairShareSet {
                machine: get_str(v, "machine")?,
                enabled: get_bool(v, "enabled")?,
                granted: get_granted(v)?,
            },
            "poll" => match get_text(v, "state")? {
                "running" => Response::Running {
                    job: get_u64(v, "job")?,
                    nodes: get_array(v, "nodes", node_id)?,
                    machine: get_str_opt(v, "machine")?,
                },
                "queued" => Response::Waiting {
                    job: get_u64(v, "job")?,
                    position: get_u64(v, "position")? as usize,
                    reserved_start: get_f64_opt(v, "reserved_start")?,
                    explain: present(v, "explain").map(F::to_value),
                    machine: get_str_opt(v, "machine")?,
                },
                "unknown" => Response::Unknown {
                    job: get_u64(v, "job")?,
                },
                other => return Err(Error::msg(format!("unknown poll state {other:?}"))),
            },
            "query" => Response::Snapshot(get_tree(v, "snapshot")?),
            "stats" => Response::Stats(get_tree(v, "stats")?),
            "journal_stats" => Response::JournalStats(get_tree(v, "journal")?),
            "set_trace" => Response::TraceSet {
                enabled: get_bool(v, "enabled")?,
            },
            "trace" => Response::Trace {
                events: get_list(v, "events", |event| Ok(event.to_value()))?,
                dropped: get_u64(v, "dropped")?,
                enabled: get_bool(v, "enabled")?,
                // Absent on lines from pre-calibration daemons: decode
                // as an empty drain rather than a parse error.
                decisions: opt(v, "decisions", "non-array", |d| {
                    d.items().map(|items| items.map(F::to_value).collect())
                })?
                .unwrap_or_default(),
            },
            "calibration" => Response::Calibration(get_tree(v, "calibration")?),
            "metrics" => Response::Metrics {
                format: get_str(v, "format")?,
                metrics: get_tree(v, "metrics")?,
            },
            "list" => Response::Machines(get_list(v, "machines", |name| {
                name.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| Error::msg("non-string machine name"))
            })?),
            "pong" => Response::Pong,
            "batch" => Response::Batch(get_list(v, "responses", Response::read)?),
            other => return Err(Error::msg(format!("unknown response op {other:?}"))),
        })
    }

    /// Parses a response from its wire value.
    pub fn from_value(v: &Value) -> Result<Response, Error> {
        Response::read(v)
    }

    /// Parses a response from one wire line.
    pub fn from_line(line: &str) -> Result<Response, Error> {
        serde_json::with_parsed(line, |root| Response::read(root))
    }

    /// Renders the response as its wire value.
    pub fn to_value(&self) -> Value {
        serde_json::emit_to_value(self)
    }

    /// Renders the response as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::emit_to_string(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixture tree, in the normal form the parser reads it back in.
    fn json(text: &str) -> Value {
        serde_json::from_str(text).expect("fixture JSON")
    }

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
                detail: Some(json(r#"{"tenant":"acme","usage":90.5,"limit":100.5}"#)),
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
                explain: Some(json(concat!(
                    r#"{"code":"would_delay_reservation","blocking_job":3,"until":120.5,"#,
                    r#""detail":"would delay job 3's reservation at t=120.5"}"#
                ))),
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
            Response::Tenants(json(r#"[{"tenant":"acme","weight":2.5,"admitted":3}]"#)),
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
            Response::JournalStats(json(r#"{"enabled":false}"#)),
            Response::TraceSet { enabled: true },
            Response::Trace {
                events: vec![json(
                    r#"{"request":1,"stage":"parse","ts_micros":12,"dur_micros":3}"#,
                )],
                dropped: 2,
                enabled: true,
                decisions: vec![json(
                    r#"{"pool":"grid","policy":"comm-aware","winner":"m1"}"#,
                )],
            },
            Response::Calibration(json(r#"{"enabled":true,"joined":12,"cells":[]}"#)),
            Response::Metrics {
                format: "json".into(),
                metrics: json(r#"{"stages":{}}"#),
            },
            Response::Metrics {
                format: "prometheus".into(),
                metrics: Value::Str("x_count 3\n".into()),
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
