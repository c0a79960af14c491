//! Durable allocation state: an append-only NDJSON write-ahead journal
//! with snapshot compaction and deterministic crash recovery.
//!
//! ## Why a journal
//!
//! Until this module existed the daemon was memoryless: a restart dropped
//! every tenant's grants, queued jobs and the cluster's pool table. The
//! journal records every state-changing operation as one JSON line —
//! registrations (with their full pool/scheduler config), committed
//! grants, queue admissions, releases, cancels, `set_scheduler` /
//! `set_router` flips — so a restarted daemon can rebuild the sharded
//! registry, the admission queues and the [`crate::PlacementRouter`]
//! pool table exactly as they were.
//!
//! The journal logs **effects**, not requests: a grant record carries the
//! exact processors the allocator committed, so recovery never re-runs an
//! allocator (whose decision could differ once wall clocks restart) — it
//! re-*occupies*. That makes recovery a pure fold over the record stream,
//! deterministic by construction, and lets the recovery-equivalence tests
//! compare a recovered registry byte-for-byte against an uninterrupted
//! run cut at the same point.
//!
//! ## One fact, one codec
//!
//! A snapshot is the compacted log, and the types say so. Four durable
//! facts are each defined once, and everything else *carries* them. A
//! fact emits its fields once into any `serde_json::Sink` and is read
//! once through a reader generic over `serde_json::Node`, the schema the
//! wire protocol uses: lines render through `JsonSink` and parse onto
//! the thread's reusable tape, with no [`Value`] tree either way, and
//! the shim alone decides how JSON text is spelled.
//!
//! | fact | record whose body it is | image that holds it | live state |
//! |---|---|---|---|
//! | [`RunningJob`] | `grant` (after `"machine"`) | [`MachineImage::running`] | the machine's running vector |
//! | [`QueuedRequest`] | `queue` (after `"machine"`) | [`MachineImage::queue`] | `PendingRequest::request` |
//! | [`MachineSpec`] | `register` (before `"pool"`) | the head of a [`MachineImage`] | — (re-derived at capture) |
//! | [`TenantSpec`] | `set_tenant` | the head of a [`TenantImage`] | the tenant table's config |
//!
//! So a new job attribute is a field of one struct, written and read in
//! one place each, and recovery restores an image's facts through the
//! same calls that replay the records they were compacted from.
//!
//! ## Ordering discipline
//!
//! Records are emitted **inside the owning shard lock** of the machine
//! they describe (see `AllocationService`): for any one machine, journal
//! order therefore equals mutation order, which is the only ordering
//! recovery needs — machines are independent apart from the router's
//! pool table, whose policy flips are last-writer-wins by design.
//! A global sequence number (assigned under the sink's append lock)
//! totally orders the file for the snapshot watermark protocol below.
//!
//! ## Snapshots and compaction
//!
//! The file sink appends to numbered segments (`wal-NNNNNN.ndjson`).
//! Once `snapshot_every` records accumulate, the service captures a full
//! image — occupancy, queues, clocks and the pool table — and installs
//! it as `snapshot.ndjson` (write-temp-then-rename, so a crash never
//! leaves a torn snapshot). Capture runs **concurrently with appends**:
//! the sink first rotates to a fresh segment (so every record in older
//! segments is already reflected in any capture that follows), then each
//! machine is photographed under its own shard lock together with the
//! sequence number of its last journaled record — its **watermark**.
//! Recovery replays only tail records *newer than the watermark* of
//! their machine, which makes the concurrent capture exact: a record
//! appended between rotation and capture is inside the snapshot *and*
//! the tail, and the watermark deduplicates it. Segments at or below the
//! snapshot's `covers` index are deleted after the rename.
//!
//! ## Torn tails
//!
//! `kill -9` can interrupt a line mid-write. Recovery ignores a final
//! line that lacks its trailing newline and fails to parse — by the
//! write-ahead discipline that record's effect was never acknowledged
//! past the fsync horizon — but a malformed line that *kept* its
//! newline was fully written, so anywhere (tail included) it is
//! treated as corruption and recovery refuses to start.
//!
//! ## Durability knobs
//!
//! [`FsyncPolicy`] trades throughput for the crash window: `EveryRecord`
//! fsyncs synchronously per record — no acknowledged-but-lost suffix
//! (what the CI crash-recovery harness runs); `Batched(n)` (the
//! default) is **group commit** — a background flusher thread fsyncs
//! whenever `n` unsynced records accumulate and on a 10 ms tick, off
//! the append path, bounding the loss window to roughly `n`
//! acknowledged operations; `Never` leaves flushing to the OS. The
//! `journal_overhead` benchmark (`BENCH_journal.json`) quantifies all
//! three against the no-journal baseline.

use crate::protocol::{
    get_array, get_bool, get_f64, get_f64_opt, get_pattern, get_str, get_str_opt, get_text,
    get_u64, node_id, opt, present, Nodes,
};
use crate::registry::ServiceError;
use crate::tenant::TenantConfig;
use commalloc_mesh::NodeId;
use commalloc_workload::CommPattern;
use serde::{Error, Map, Value};
use serde_json::{Emit, JsonSink, Node, Sink};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

// ---------------------------------------------------------------------------
// The four durable facts
// ---------------------------------------------------------------------------

/// A running job: `job` holds exactly `nodes` since machine-clock
/// `start`. The body of a `grant` record, an entry of a machine image's
/// `running` array, and an element of the live machine's running vector.
#[derive(Debug, Clone, PartialEq)]
pub struct RunningJob {
    /// Job identifier.
    pub job: u64,
    /// The committed processors, in rank order.
    pub nodes: Vec<NodeId>,
    /// The client's runtime estimate, if any (EASY's planning input).
    pub walltime: Option<f64>,
    /// Machine-clock time of the grant.
    pub start: f64,
    /// The communication pattern the job declared, if any. On the wire
    /// the field is present only when declared (absent = none), carrying
    /// the pattern's canonical name.
    pub pattern: Option<CommPattern>,
    /// Tenant the job is attributed to, if any (`None` = the default
    /// tenant). Present on the wire only when tagged, so untenanted
    /// logs keep their pre-tenant bytes.
    pub tenant: Option<String>,
}

/// A queued request: `job` waits for `size` processors since
/// machine-clock `enqueued_at`. The body of a `queue` record, an entry
/// of a machine image's `queue` array, and the durable part of a live
/// [`crate::admission::PendingRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueuedRequest {
    /// Job identifier.
    pub job: u64,
    /// Processors requested.
    pub size: usize,
    /// The client's runtime estimate, if any.
    pub walltime: Option<f64>,
    /// Machine-clock time of the enqueue.
    pub enqueued_at: f64,
    /// The communication pattern the job declared, if any (present on
    /// the wire only when declared).
    pub pattern: Option<CommPattern>,
    /// Tenant the job is attributed to, if any (present on the wire
    /// only when tagged).
    pub tenant: Option<String>,
}

/// A machine's registration spec, in the string grammar `register`
/// accepts on the wire. The body of a `register` record (which adds the
/// pool joined) and the head of a machine image (which adds the state).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Machine name.
    pub machine: String,
    /// Mesh spec (`"WxH"` / `"WxHxD"`).
    pub mesh: String,
    /// Allocator (2-D) / curve (3-D) spec; `None` = default. Images
    /// always name it — derived from the live backing, so defaults are
    /// made explicit.
    pub allocator: Option<String>,
    /// Selection strategy (3-D); `None` = Best Fit.
    pub strategy: Option<String>,
    /// Scheduling policy; `None` = FCFS. Images always name it.
    pub scheduler: Option<String>,
}

/// A tenant's configuration. The body of a `set_tenant` record (the
/// *resulting* absolute configuration, so replay is last-writer-wins
/// regardless of which fields the original request spelled out) and
/// the head of a tenant image (which adds the consumption).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name.
    pub tenant: String,
    /// Weight, quota and in-flight cap (`"weight"`, `"quota"` and
    /// `"max_in_flight"` on the wire, the latter two only when set).
    pub config: TenantConfig,
}

/// One journaled, state-changing operation (or a full snapshot image).
/// The wire form is one JSON object per line with a `"rec"` discriminator
/// and the sink-assigned `"seq"`.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A machine registered, with its full registration config.
    Register {
        /// The registration spec.
        spec: MachineSpec,
        /// Cluster pool joined at registration.
        pool: Option<String>,
    },
    /// A grant committed (immediately, from the queue, or by a policy
    /// switch).
    Grant {
        /// Machine name.
        machine: String,
        /// The job that now runs.
        job: RunningJob,
    },
    /// A request entered the admission queue.
    Queue {
        /// Machine name.
        machine: String,
        /// The request that now waits.
        request: QueuedRequest,
    },
    /// A running job released its processors.
    Release {
        /// Machine name.
        machine: String,
        /// Job identifier.
        job: u64,
    },
    /// A queued request was cancelled before it ever ran.
    Cancel {
        /// Machine name.
        machine: String,
        /// Job identifier.
        job: u64,
    },
    /// The machine's scheduling policy was switched at runtime.
    SetScheduler {
        /// Machine name.
        machine: String,
        /// Canonical name of the now-active policy.
        scheduler: String,
    },
    /// A pool's routing policy was switched at runtime.
    SetRouter {
        /// Pool name.
        pool: String,
        /// Canonical name of the now-active routing policy.
        policy: String,
    },
    /// A tenant was configured (created or reconfigured).
    SetTenant(TenantSpec),
    /// The machine's fair-share admission layer was toggled.
    SetFairShare {
        /// Machine name.
        machine: String,
        /// Whether the layer is now on.
        enabled: bool,
    },
    /// A full state image; the log before it is redundant.
    Snapshot(SnapshotImage),
}

/// A compacted image of the whole service: every machine plus the pool
/// table. Replaces all records in segments `<= covers`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotImage {
    /// How many times this journal has been recovered from (0 for a
    /// journal that has only ever run one daemon incarnation).
    pub epoch: u64,
    /// Highest WAL segment index fully reflected in this image; those
    /// segments are pruned once the image is durably installed.
    pub covers: u64,
    /// Every registered machine, photographed under its shard lock.
    pub machines: Vec<MachineImage>,
    /// Every pool: members and active routing policy.
    pub pools: Vec<PoolImage>,
    /// Every configured tenant: configuration plus cumulative
    /// consumption. Rendered only when non-empty, so tenant-free
    /// snapshots keep their pre-tenant bytes. Outstanding commitments
    /// are *not* captured — recovery recomputes them exactly from the
    /// restored running and queued jobs.
    pub tenants: Vec<TenantImage>,
}

/// One machine's image inside a [`SnapshotImage`]: the registration
/// that recreates it plus the state its later records built up.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineImage {
    /// The registration spec, re-registerable.
    pub spec: MachineSpec,
    /// Journal watermark: the sequence number of the last record of this
    /// machine reflected in the image. Tail records with `seq` at or
    /// below it are skipped during recovery.
    pub seq: u64,
    /// The virtual clock, when the machine runs in virtual time (replay
    /// harnesses); `None` for wall-clock machines, whose clock restarts.
    pub clock: Option<f64>,
    /// Whether the fair-share admission layer is on (rendered only when
    /// true, keeping pre-tenant snapshot bytes).
    pub fair_share: bool,
    /// Running jobs in **grant order** (the order the running vector
    /// evolved in — EASY's tie-breaking state, so it must survive).
    pub running: Vec<RunningJob>,
    /// Queued requests in queue order.
    pub queue: Vec<QueuedRequest>,
}

/// One configured tenant inside a [`SnapshotImage`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantImage {
    /// The configuration.
    pub spec: TenantSpec,
    /// Cumulative node-seconds of finished holds.
    pub consumed: f64,
}

/// One pool inside a [`SnapshotImage`].
#[derive(Debug, Clone, PartialEq)]
pub struct PoolImage {
    /// Pool name.
    pub pool: String,
    /// Member machines, sorted.
    pub members: Vec<String>,
    /// Canonical name of the active routing policy.
    pub policy: String,
}

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

/// A fact's fields, emitted into whichever object holds them: its own
/// (an entry of an image's array) or its record's (after the record's
/// head), so a fact is spelled alike in both.
trait Fields {
    fn fields<S: Sink>(&self, s: &mut S);
}

/// Facts as a JSON array of objects.
struct Objects<'a, T>(&'a [T]);

impl<T: Fields> Emit for Objects<'_, T> {
    fn emit<S: Sink>(&self, s: &mut S) {
        s.begin_array();
        for item in self.0 {
            s.begin_object();
            item.fields(s);
            s.end_object();
        }
        s.end_array();
    }
}

impl RunningJob {
    /// Predicted completion: start + walltime, or infinity when the
    /// client gave no estimate (EASY then never counts on this release).
    pub fn completion(&self) -> f64 {
        match self.walltime {
            Some(w) => self.start + w,
            None => f64::INFINITY,
        }
    }

    #[deny(clippy::unwrap_used, clippy::expect_used)]
    fn read<'a, F: Node<'a>>(v: F) -> Result<RunningJob, Error> {
        Ok(RunningJob {
            job: get_u64(v, "job")?,
            nodes: get_array(v, "nodes", node_id)?,
            walltime: get_f64_opt(v, "walltime")?,
            start: get_f64(v, "start")?,
            pattern: get_pattern(v)?,
            tenant: get_str_opt(v, "tenant")?,
        })
    }
}

impl Fields for RunningJob {
    fn fields<S: Sink>(&self, s: &mut S) {
        s.entry("job", &self.job);
        s.entry("nodes", &Nodes(&self.nodes));
        s.entry("walltime", &self.walltime);
        s.entry("start", &self.start);
        // A job's tags are present only when set, so unpatterned,
        // untenanted jobs keep their older wire form byte for byte.
        s.opt_entry("pattern", &self.pattern.map(|p| p.name()));
        s.opt_entry("tenant", &self.tenant);
    }
}

impl QueuedRequest {
    /// The grant of this request: the same job, now holding `nodes`
    /// since `start`.
    pub fn started(self, nodes: Vec<NodeId>, start: f64) -> RunningJob {
        RunningJob {
            job: self.job,
            nodes,
            walltime: self.walltime,
            start,
            pattern: self.pattern,
            tenant: self.tenant,
        }
    }

    #[deny(clippy::unwrap_used, clippy::expect_used)]
    fn read<'a, F: Node<'a>>(v: F) -> Result<QueuedRequest, Error> {
        Ok(QueuedRequest {
            job: get_u64(v, "job")?,
            size: get_u64(v, "size")? as usize,
            walltime: get_f64_opt(v, "walltime")?,
            enqueued_at: get_f64(v, "enqueued_at")?,
            pattern: get_pattern(v)?,
            tenant: get_str_opt(v, "tenant")?,
        })
    }
}

impl Fields for QueuedRequest {
    fn fields<S: Sink>(&self, s: &mut S) {
        s.entry("job", &self.job);
        s.entry("size", &self.size);
        s.entry("walltime", &self.walltime);
        s.entry("enqueued_at", &self.enqueued_at);
        s.opt_entry("pattern", &self.pattern.map(|p| p.name()));
        s.opt_entry("tenant", &self.tenant);
    }
}

impl MachineSpec {
    #[deny(clippy::unwrap_used, clippy::expect_used)]
    fn read<'a, F: Node<'a>>(v: F) -> Result<MachineSpec, Error> {
        Ok(MachineSpec {
            machine: get_str(v, "machine")?,
            mesh: get_str(v, "mesh")?,
            allocator: get_str_opt(v, "allocator")?,
            strategy: get_str_opt(v, "strategy")?,
            scheduler: get_str_opt(v, "scheduler")?,
        })
    }
}

impl Fields for MachineSpec {
    fn fields<S: Sink>(&self, s: &mut S) {
        s.entry("machine", &self.machine);
        s.entry("mesh", &self.mesh);
        s.entry("allocator", &self.allocator);
        s.entry("strategy", &self.strategy);
        s.entry("scheduler", &self.scheduler);
    }
}

impl TenantSpec {
    #[deny(clippy::unwrap_used, clippy::expect_used)]
    fn read<'a, F: Node<'a>>(v: F) -> Result<TenantSpec, Error> {
        Ok(TenantSpec {
            tenant: get_str(v, "tenant")?,
            config: TenantConfig {
                weight: get_f64(v, "weight")?,
                quota_node_seconds: get_f64_opt(v, "quota")?,
                max_in_flight: opt(v, "max_in_flight", "non-integer", F::as_u64)?,
            },
        })
    }
}

impl Fields for TenantSpec {
    fn fields<S: Sink>(&self, s: &mut S) {
        s.entry("tenant", &self.tenant);
        s.entry("weight", &self.config.weight);
        s.opt_entry("quota", &self.config.quota_node_seconds);
        s.opt_entry("max_in_flight", &self.config.max_in_flight);
    }
}

impl MachineImage {
    #[deny(clippy::unwrap_used, clippy::expect_used)]
    fn read<'a, F: Node<'a>>(v: F) -> Result<MachineImage, Error> {
        Ok(MachineImage {
            spec: MachineSpec::read(v)?,
            seq: get_u64(v, "seq")?,
            clock: get_f64_opt(v, "clock")?,
            fair_share: opt(v, "fair_share", "non-boolean", F::as_bool)?.unwrap_or(false),
            running: get_array(v, "running", RunningJob::read)?,
            queue: get_array(v, "queue", QueuedRequest::read)?,
        })
    }
}

impl Fields for MachineImage {
    fn fields<S: Sink>(&self, s: &mut S) {
        self.spec.fields(s);
        s.entry("seq", &self.seq);
        s.entry("clock", &self.clock);
        // Present only when on: pre-tenant images keep their bytes.
        if self.fair_share {
            s.entry("fair_share", &true);
        }
        s.entry("running", &Objects(&self.running));
        s.entry("queue", &Objects(&self.queue));
    }
}

impl TenantImage {
    #[deny(clippy::unwrap_used, clippy::expect_used)]
    fn read<'a, F: Node<'a>>(v: F) -> Result<TenantImage, Error> {
        Ok(TenantImage {
            spec: TenantSpec::read(v)?,
            consumed: get_f64(v, "consumed")?,
        })
    }
}

impl Fields for TenantImage {
    fn fields<S: Sink>(&self, s: &mut S) {
        self.spec.fields(s);
        s.entry("consumed", &self.consumed);
    }
}

impl PoolImage {
    #[deny(clippy::unwrap_used, clippy::expect_used)]
    fn read<'a, F: Node<'a>>(v: F) -> Result<PoolImage, Error> {
        Ok(PoolImage {
            pool: get_str(v, "pool")?,
            members: get_array(v, "members", |m| {
                m.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| Error::msg("non-string pool member"))
            })?,
            policy: get_str(v, "policy")?,
        })
    }
}

impl Fields for PoolImage {
    fn fields<S: Sink>(&self, s: &mut S) {
        s.entry("pool", &self.pool);
        s.entry("members", &self.members);
        s.entry("policy", &self.policy);
    }
}

impl SnapshotImage {
    #[deny(clippy::unwrap_used, clippy::expect_used)]
    fn read<'a, F: Node<'a>>(v: F) -> Result<SnapshotImage, Error> {
        Ok(SnapshotImage {
            epoch: get_u64(v, "epoch")?,
            covers: get_u64(v, "covers")?,
            machines: get_array(v, "machines", MachineImage::read)?,
            pools: get_array(v, "pools", PoolImage::read)?,
            tenants: match present(v, "tenants") {
                None => Vec::new(),
                Some(_) => get_array(v, "tenants", TenantImage::read)?,
            },
        })
    }
}

impl Fields for SnapshotImage {
    fn fields<S: Sink>(&self, s: &mut S) {
        s.entry("epoch", &self.epoch);
        s.entry("covers", &self.covers);
        s.entry("machines", &Objects(&self.machines));
        s.entry("pools", &Objects(&self.pools));
        // Present only when a tenant is configured: tenant-free
        // snapshots keep their pre-tenant bytes.
        if !self.tenants.is_empty() {
            s.entry("tenants", &Objects(&self.tenants));
        }
    }
}

impl JournalRecord {
    /// Reads a record and its sequence number from its wire value, in
    /// whichever parsed form.
    #[deny(clippy::unwrap_used, clippy::expect_used)]
    pub fn read<'a, F: Node<'a>>(v: F) -> Result<(u64, JournalRecord), Error> {
        let seq = get_u64(v, "seq")?;
        let record = match get_text(v, "rec")? {
            "register" => JournalRecord::Register {
                spec: MachineSpec::read(v)?,
                pool: get_str_opt(v, "pool")?,
            },
            "grant" => JournalRecord::Grant {
                machine: get_str(v, "machine")?,
                job: RunningJob::read(v)?,
            },
            "queue" => JournalRecord::Queue {
                machine: get_str(v, "machine")?,
                request: QueuedRequest::read(v)?,
            },
            "release" => JournalRecord::Release {
                machine: get_str(v, "machine")?,
                job: get_u64(v, "job")?,
            },
            "cancel" => JournalRecord::Cancel {
                machine: get_str(v, "machine")?,
                job: get_u64(v, "job")?,
            },
            "set_scheduler" => JournalRecord::SetScheduler {
                machine: get_str(v, "machine")?,
                scheduler: get_str(v, "scheduler")?,
            },
            "set_router" => JournalRecord::SetRouter {
                pool: get_str(v, "pool")?,
                policy: get_str(v, "policy")?,
            },
            "set_tenant" => JournalRecord::SetTenant(TenantSpec::read(v)?),
            "set_fair_share" => JournalRecord::SetFairShare {
                machine: get_str(v, "machine")?,
                enabled: get_bool(v, "enabled")?,
            },
            "snapshot" => JournalRecord::Snapshot(SnapshotImage::read(v)?),
            other => return Err(Error::msg(format!("unknown record kind {other:?}"))),
        };
        Ok((seq, record))
    }

    /// Renders the record into `s` as one wire object: `"seq"`, the
    /// `"rec"` kind, then the fields of the fact or facts it carries.
    pub fn emit<S: Sink>(&self, seq: u64, s: &mut S) {
        s.begin_object();
        s.entry("seq", &seq);
        match self {
            JournalRecord::Register { spec, pool } => {
                s.entry("rec", "register");
                spec.fields(s);
                s.entry("pool", pool);
            }
            JournalRecord::Grant { machine, job } => {
                s.entry("rec", "grant");
                s.entry("machine", machine);
                job.fields(s);
            }
            JournalRecord::Queue { machine, request } => {
                s.entry("rec", "queue");
                s.entry("machine", machine);
                request.fields(s);
            }
            JournalRecord::Release { machine, job } => {
                s.entry("rec", "release");
                s.entry("machine", machine);
                s.entry("job", job);
            }
            JournalRecord::Cancel { machine, job } => {
                s.entry("rec", "cancel");
                s.entry("machine", machine);
                s.entry("job", job);
            }
            JournalRecord::SetScheduler { machine, scheduler } => {
                s.entry("rec", "set_scheduler");
                s.entry("machine", machine);
                s.entry("scheduler", scheduler);
            }
            JournalRecord::SetRouter { pool, policy } => {
                s.entry("rec", "set_router");
                s.entry("pool", pool);
                s.entry("policy", policy);
            }
            JournalRecord::SetTenant(spec) => {
                s.entry("rec", "set_tenant");
                spec.fields(s);
            }
            JournalRecord::SetFairShare { machine, enabled } => {
                s.entry("rec", "set_fair_share");
                s.entry("machine", machine);
                s.entry("enabled", enabled);
            }
            JournalRecord::Snapshot(image) => {
                s.entry("rec", "snapshot");
                image.fields(s);
            }
        }
        s.end_object();
    }

    /// Renders the record as one wire line (no trailing newline).
    pub fn to_line(&self, seq: u64) -> String {
        let mut out = String::with_capacity(96);
        self.write_line(seq, &mut out);
        out
    }

    /// Appends the wire line to `out` (no trailing newline).
    pub fn write_line(&self, seq: u64, out: &mut String) {
        let mut bytes = std::mem::take(out).into_bytes();
        self.emit(seq, &mut JsonSink::new(&mut bytes));
        *out = String::from_utf8(bytes).expect("JSON text is UTF-8");
    }

    /// Parses a `(seq, record)` pair from one wire line.
    #[deny(clippy::unwrap_used, clippy::expect_used)]
    pub fn from_line(line: &str) -> Result<(u64, JournalRecord), Error> {
        serde_json::with_parsed(line, |root| JournalRecord::read(root))
    }

    /// The machine this record belongs to, for watermark gating (`None`
    /// for router records and snapshots, which are not machine-scoped).
    pub fn machine(&self) -> Option<&str> {
        match self {
            JournalRecord::Register {
                spec: MachineSpec { machine, .. },
                ..
            }
            | JournalRecord::Grant { machine, .. }
            | JournalRecord::Queue { machine, .. }
            | JournalRecord::Release { machine, .. }
            | JournalRecord::Cancel { machine, .. }
            | JournalRecord::SetScheduler { machine, .. }
            | JournalRecord::SetFairShare { machine, .. } => Some(machine),
            JournalRecord::SetRouter { .. }
            | JournalRecord::SetTenant(_)
            | JournalRecord::Snapshot(_) => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Where journal records go. The default implementation is a no-op (the
/// in-process service and every test harness that does not opt into
/// durability pay nothing); the file sink below appends NDJSON with
/// fsync batching.
pub trait JournalSink: Send + Sync {
    /// Appends one record, returning its assigned global sequence number
    /// (0 from non-durable sinks). Called while the shard lock of the
    /// record's machine is held, so per-machine journal order equals
    /// mutation order.
    fn append(&self, record: &JournalRecord) -> u64 {
        let _ = record;
        0
    }

    /// [`JournalSink::append`], additionally reporting how long the
    /// append *blocked* on an fsync, in microseconds — the flight
    /// recorder's `fsync_wait` stage. 0 whenever the sink acknowledges
    /// before the disk syncs (group commit's background flushes are by
    /// design not part of any request's latency).
    fn append_timed(&self, record: &JournalRecord) -> (u64, u64) {
        (self.append(record), 0)
    }

    /// True for sinks that actually persist records; gates whether
    /// machine entries pay the record-composition cost at all.
    fn durable(&self) -> bool {
        false
    }

    /// The recovery epoch this sink's journal runs under (0 for
    /// non-durable sinks and never-recovered journals).
    fn epoch(&self) -> u64 {
        0
    }

    /// True when enough records accumulated since the last snapshot that
    /// the owner should capture and install a fresh one.
    fn snapshot_due(&self) -> bool {
        false
    }

    /// Rotates to a fresh WAL segment and returns the index of the
    /// now-closed one — everything in segments up to and including it
    /// will be reflected by any capture that starts afterwards.
    fn begin_snapshot(&self) -> u64 {
        0
    }

    /// Durably installs a snapshot record (write-temp-then-rename) and
    /// prunes the segments it covers.
    fn install_snapshot(&self, snapshot: &JournalRecord) -> io::Result<()> {
        let _ = snapshot;
        Ok(())
    }

    /// Operational counters for the `journal_stats` protocol op; `None`
    /// from non-durable sinks.
    fn stats_value(&self) -> Option<Value> {
        None
    }
}

/// The do-nothing sink: journaling disabled.
#[derive(Debug, Default)]
pub struct NoopJournal;

impl JournalSink for NoopJournal {}

/// When the file sink flushes and `fsync`s. Appends go through a
/// buffered writer; a "sync point" flushes the buffer to the OS and
/// calls `fsync`, so the policy bounds **acknowledged-but-lost** records
/// on `kill -9` (between sync points, records live in the buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every record, synchronously: no acknowledged
    /// operation can be lost (what the CI crash-recovery harness runs).
    EveryRecord,
    /// **Group commit**: a background flusher thread fsyncs whenever
    /// `n` unsynced records accumulate (and on a 10 ms tick), off the
    /// append path — appenders never wait on the disk. Acknowledged
    /// records become durable within roughly one flush cycle; the
    /// crash-loss window is `n` records plus whatever arrives during
    /// one in-flight fsync.
    Batched(u64),
    /// Never explicitly; the OS writes the buffer out when it pleases.
    Never,
}

impl FsyncPolicy {
    /// Parses `"every"`, `"never"` or a positive batch size.
    pub fn parse(spec: &str) -> Option<FsyncPolicy> {
        match spec.trim().to_ascii_lowercase().as_str() {
            "every" | "1" => Some(FsyncPolicy::EveryRecord),
            "never" | "0" => Some(FsyncPolicy::Never),
            n => n
                .parse::<u64>()
                .ok()
                .filter(|&n| n > 1)
                .map(FsyncPolicy::Batched),
        }
    }

    /// Canonical rendering (accepted back by [`FsyncPolicy::parse`]).
    pub fn name(&self) -> String {
        match self {
            FsyncPolicy::EveryRecord => "every".to_string(),
            FsyncPolicy::Batched(n) => n.to_string(),
            FsyncPolicy::Never => "never".to_string(),
        }
    }
}

/// Configuration of a [`FileJournal`].
#[derive(Debug, Clone, Copy)]
pub struct JournalConfig {
    /// Fsync cadence.
    pub fsync: FsyncPolicy,
    /// Records between snapshot captures.
    pub snapshot_every: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            // Group commit of 512: one fsync amortises over enough
            // records that journaled grant throughput stays within the
            // bench's regression gate, while the crash-loss window stays
            // a few milliseconds of traffic at loadgen rates.
            fsync: FsyncPolicy::Batched(512),
            snapshot_every: 100_000,
        }
    }
}

/// Name of the installed snapshot file inside the journal directory.
const SNAPSHOT_FILE: &str = "snapshot.ndjson";

fn segment_name(index: u64) -> String {
    format!("wal-{index:06}.ndjson")
}

fn segment_index(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".ndjson")?
        .parse()
        .ok()
}

struct FileJournalInner {
    file: io::BufWriter<File>,
    /// Reused line buffer: one record render per append, no allocation.
    line: Vec<u8>,
    segment: u64,
    seq: u64,
    unsynced: u64,
    appended: u64,
    bytes: u64,
    snapshots_installed: u64,
}

impl FileJournalInner {
    /// Flushes the buffered writer to the OS and fsyncs the segment.
    /// Write failures abort the process (see [`journal_fail`]).
    fn sync(&mut self) {
        if let Err(e) = self.file.flush() {
            journal_fail("flush", &e);
        }
        if let Err(e) = self.file.get_ref().sync_data() {
            journal_fail("fsync", &e);
        }
        self.unsynced = 0;
    }
}

/// The durable sink: appends NDJSON records to numbered WAL segments
/// inside a journal directory, syncing per [`FsyncPolicy`] — for the
/// group-commit policy, via a background flusher thread that fsyncs off
/// the append path.
///
/// Append failures are **fail-stop**: a write-ahead log that silently
/// drops records is worse than a dead daemon, so write-path I/O errors
/// abort the process (see [`journal_fail`] for why not a panic).
pub struct FileJournal {
    dir: PathBuf,
    config: JournalConfig,
    epoch: u64,
    inner: Arc<Mutex<FileJournalInner>>,
    /// Records since the last snapshot install — an atomic mirror kept
    /// outside the append mutex so `snapshot_due` (polled on every
    /// request, including pure reads) never contends with appenders.
    since_snapshot: AtomicU64,
    /// Wakes the group-commit flusher early when the unsynced count
    /// crosses the batch threshold.
    sync_signal: Arc<Condvar>,
    stop: Arc<AtomicBool>,
    flusher: Option<std::thread::JoinHandle<()>>,
}

/// Fail-stop for journal write failures. A panic is not enough: the
/// server's worker threads run requests under `catch_unwind`, which
/// would swallow an append panic (leaving the sink and shard locks
/// poisoned but the daemon alive), and a flusher panic would kill only
/// the flusher thread and silently downgrade `Batched` to `Never` —
/// either way the daemon keeps acknowledging operations that are never
/// persisted again. Take the whole process down instead.
fn journal_fail(what: &str, error: &io::Error) -> ! {
    eprintln!("commalloc-service: journal {what} failed ({error}); aborting (fail-stop)");
    std::process::abort();
}

/// The group-commit flusher: flush the buffer under the lock (cheap),
/// then fsync a duplicated handle **outside** it, so appenders are
/// never blocked behind the disk.
fn run_flusher(
    inner: Arc<Mutex<FileJournalInner>>,
    signal: Arc<Condvar>,
    stop: Arc<AtomicBool>,
    batch: u64,
) {
    let tick = std::time::Duration::from_millis(10);
    loop {
        let mut guard = inner.lock().expect("journal sink poisoned");
        if guard.unsynced < batch && !stop.load(Ordering::SeqCst) {
            let (g, _) = signal
                .wait_timeout(guard, tick)
                .expect("journal sink poisoned");
            guard = g;
        }
        if guard.unsynced > 0 {
            if let Err(e) = guard.file.flush() {
                journal_fail("flush", &e);
            }
            guard.unsynced = 0;
            let file = guard.file.get_ref().try_clone();
            drop(guard);
            match file {
                Ok(file) => {
                    if let Err(e) = file.sync_data() {
                        journal_fail("fsync", &e);
                    }
                }
                Err(e) => journal_fail("handle duplication", &e),
            }
        } else if stop.load(Ordering::SeqCst) {
            return;
        }
    }
}

impl FileJournal {
    /// Opens (creating) the journal directory and starts a fresh segment
    /// after any existing ones. `epoch` and `first_seq` come from
    /// recovery ([`read_journal_dir`]); a brand-new journal passes 0.
    pub fn create(
        dir: &Path,
        config: JournalConfig,
        epoch: u64,
        first_segment: u64,
        first_seq: u64,
    ) -> io::Result<FileJournal> {
        fs::create_dir_all(dir)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(segment_name(first_segment)))?;
        let inner = Arc::new(Mutex::new(FileJournalInner {
            file: io::BufWriter::new(file),
            line: Vec::with_capacity(128),
            segment: first_segment,
            seq: first_seq,
            unsynced: 0,
            appended: 0,
            bytes: 0,
            snapshots_installed: 0,
        }));
        let sync_signal = Arc::new(Condvar::new());
        let stop = Arc::new(AtomicBool::new(false));
        let flusher = match config.fsync {
            FsyncPolicy::Batched(n) => {
                let (inner, signal, stop) = (
                    Arc::clone(&inner),
                    Arc::clone(&sync_signal),
                    Arc::clone(&stop),
                );
                Some(
                    std::thread::Builder::new()
                        .name("commalloc-journal-flush".to_string())
                        .spawn(move || run_flusher(inner, signal, stop, n.max(1)))
                        .expect("spawn journal flusher"),
                )
            }
            FsyncPolicy::EveryRecord | FsyncPolicy::Never => None,
        };
        Ok(FileJournal {
            dir: dir.to_path_buf(),
            config,
            epoch,
            inner,
            since_snapshot: AtomicU64::new(0),
            sync_signal,
            stop,
            flusher,
        })
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn prune_segments(&self, covers: u64) -> io::Result<()> {
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some(index) = entry.file_name().to_str().and_then(segment_index) {
                if index <= covers {
                    fs::remove_file(entry.path())?;
                }
            }
        }
        Ok(())
    }
}

impl Drop for FileJournal {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.sync_signal.notify_all();
        if let Some(flusher) = self.flusher.take() {
            let _ = flusher.join();
        }
        // A clean exit leaves nothing buffered or unsynced.
        if let Ok(mut inner) = self.inner.lock() {
            let _ = inner.file.flush();
            let _ = inner.file.get_ref().sync_data();
        }
    }
}

impl JournalSink for FileJournal {
    fn durable(&self) -> bool {
        true
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn append(&self, record: &JournalRecord) -> u64 {
        self.append_timed(record).0
    }

    fn append_timed(&self, record: &JournalRecord) -> (u64, u64) {
        let mut guard = self.inner.lock().expect("journal sink poisoned");
        let inner = &mut *guard;
        inner.seq += 1;
        let seq = inner.seq;
        inner.line.clear();
        record.emit(seq, &mut JsonSink::new(&mut inner.line));
        inner.line.push(b'\n');
        if let Err(e) = inner.file.write_all(&inner.line) {
            // Fail-stop: refusing to run without the WAL (an abort, not
            // a panic, which the server's workers would swallow).
            journal_fail("append", &e);
        }
        inner.bytes += inner.line.len() as u64;
        inner.appended += 1;
        inner.unsynced += 1;
        self.since_snapshot.fetch_add(1, Ordering::Relaxed);
        let mut fsync_wait = 0u64;
        match self.config.fsync {
            FsyncPolicy::EveryRecord => {
                // The one policy whose append blocks on the disk: time
                // it for the flight recorder's `fsync_wait` stage.
                let start = std::time::Instant::now();
                inner.sync();
                fsync_wait = start.elapsed().as_micros() as u64;
            }
            FsyncPolicy::Batched(n) => {
                // Wake the group-commit flusher exactly once per batch
                // crossing, after releasing the lock (so it does not
                // wake straight into our own mutex) — the append itself
                // never waits on the disk; the flusher's 10 ms tick
                // covers any missed wakeup.
                if inner.unsynced == n {
                    drop(guard);
                    self.sync_signal.notify_one();
                }
            }
            FsyncPolicy::Never => {}
        }
        (seq, fsync_wait)
    }

    fn snapshot_due(&self) -> bool {
        self.since_snapshot.load(Ordering::Relaxed) >= self.config.snapshot_every
    }

    fn begin_snapshot(&self) -> u64 {
        let mut inner = self.inner.lock().expect("journal sink poisoned");
        inner.sync();
        let closed = inner.segment;
        inner.segment += 1;
        let next = self.dir.join(segment_name(inner.segment));
        match OpenOptions::new().create(true).append(true).open(next) {
            Ok(file) => inner.file = io::BufWriter::new(file),
            Err(e) => journal_fail("segment rotation", &e),
        }
        // Stop re-triggering snapshots while this capture is in flight;
        // the counter restarts from the records the new segment gathers.
        self.since_snapshot.store(0, Ordering::Relaxed);
        closed
    }

    fn install_snapshot(&self, snapshot: &JournalRecord) -> io::Result<()> {
        let JournalRecord::Snapshot(image) = snapshot else {
            return Err(io::Error::other("install_snapshot needs a Snapshot record"));
        };
        let tmp = self.dir.join(format!("{SNAPSHOT_FILE}.tmp"));
        let mut file = File::create(&tmp)?;
        file.write_all(snapshot.to_line(0).as_bytes())?;
        file.write_all(b"\n")?;
        file.sync_data()?;
        drop(file);
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        if let Ok(dirf) = File::open(&self.dir) {
            let _ = dirf.sync_all();
        }
        self.prune_segments(image.covers)?;
        let mut inner = self.inner.lock().expect("journal sink poisoned");
        // Make the tail segment readable alongside the fresh snapshot (a
        // compacted journal should be inspectable without waiting for
        // the next sync point).
        inner.file.flush()?;
        inner.snapshots_installed += 1;
        Ok(())
    }

    fn stats_value(&self) -> Option<Value> {
        let inner = self.inner.lock().expect("journal sink poisoned");
        let mut m = Map::new();
        m.insert("epoch".into(), Value::UInt(self.epoch));
        m.insert("segment".into(), Value::UInt(inner.segment));
        m.insert("last_seq".into(), Value::UInt(inner.seq));
        m.insert("appended".into(), Value::UInt(inner.appended));
        m.insert("bytes_appended".into(), Value::UInt(inner.bytes));
        m.insert(
            "since_snapshot".into(),
            Value::UInt(self.since_snapshot.load(Ordering::Relaxed)),
        );
        m.insert(
            "snapshots_installed".into(),
            Value::UInt(inner.snapshots_installed),
        );
        m.insert("fsync".into(), Value::Str(self.config.fsync.name()));
        Some(Value::Object(m))
    }
}

// ---------------------------------------------------------------------------
// Reading a journal directory back
// ---------------------------------------------------------------------------

/// Everything read back from a journal directory, ready to fold into a
/// fresh service.
#[derive(Debug, Default)]
pub struct JournalContents {
    /// The installed snapshot, if one exists.
    pub snapshot: Option<SnapshotImage>,
    /// Tail records in append order, from segments newer than the
    /// snapshot's `covers` index.
    pub tail: Vec<(u64, JournalRecord)>,
    /// Highest sequence number seen anywhere — snapshot watermarks
    /// included, so the next sink resumes above them even when the tail
    /// is empty (the next sink continues above this).
    pub max_seq: u64,
    /// Highest segment index present (the next sink starts above it).
    pub max_segment: u64,
    /// True when the final line of the last segment was torn (truncated
    /// by a crash mid-write) and dropped.
    pub torn_tail: bool,
}

/// Errors reading a journal directory.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io(io::Error),
    /// A malformed line *before* the tail, or an inconsistent record
    /// stream (e.g. a grant for busy processors): refusing to guess.
    Corrupt(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt(reason) => write!(f, "journal corrupt: {reason}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl From<ServiceError> for JournalError {
    fn from(e: ServiceError) -> Self {
        JournalError::Corrupt(e.to_string())
    }
}

/// Reads a journal directory: the installed snapshot plus every tail
/// record, tolerating exactly one torn line — newline-less and at the
/// very end of the last segment. A directory that does not exist (or is
/// empty) reads as empty contents — a brand-new journal.
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub fn read_journal_dir(dir: &Path) -> Result<JournalContents, JournalError> {
    let mut contents = JournalContents::default();
    if !dir.exists() {
        return Ok(contents);
    }

    let snapshot_path = dir.join(SNAPSHOT_FILE);
    if snapshot_path.exists() {
        let text = fs::read_to_string(&snapshot_path)?;
        let line = text.lines().next().unwrap_or("");
        match JournalRecord::from_line(line) {
            Ok((_, JournalRecord::Snapshot(image))) => contents.snapshot = Some(image),
            Ok(_) => {
                return Err(JournalError::Corrupt(
                    "snapshot file holds a non-snapshot record".to_string(),
                ))
            }
            Err(e) => {
                return Err(JournalError::Corrupt(format!(
                    "snapshot file unreadable: {e}"
                )))
            }
        }
    }
    if let Some(snapshot) = &contents.snapshot {
        // The per-machine watermarks are sequence numbers too, and the
        // next sink must resume above them even when the WAL tail is
        // empty (a snapshot install prunes the tail). Otherwise a quiet
        // restart would read max_seq = 0, hand out seq 1.. at or below
        // the watermarks, and the *next* recovery's watermark gate would
        // silently drop those acknowledged records.
        contents.max_seq = snapshot.machines.iter().map(|m| m.seq).max().unwrap_or(0);
    }
    let covers = contents.snapshot.as_ref().map_or(0, |s| s.covers);

    let mut segments: Vec<u64> = fs::read_dir(dir)?
        .filter_map(|entry| {
            entry
                .ok()
                .and_then(|e| e.file_name().to_str().and_then(segment_index))
        })
        .collect();
    segments.sort_unstable();
    contents.max_segment = segments.last().copied().unwrap_or(0);

    // A newline-less parse failure at the end of a segment is tolerated
    // *provisionally*: it is a torn write only if no record follows it
    // anywhere (a crashed recovery can leave empty segments after the
    // torn one — rotation always syncs the old segment first, so any
    // real record after the failure proves the line was fully written
    // once, i.e. corruption).
    let mut pending_torn: Option<String> = None;
    for &segment in &segments {
        let path = dir.join(segment_name(segment));
        // Raw bytes: a torn tail may not even be valid UTF-8. Reading
        // the whole segment also shows whether the final line kept its
        // trailing newline — a line that did was fully written, so a
        // parse failure there is corruption, never a torn write.
        let data = fs::read(&path)?;
        let newline_terminated = data.last() == Some(&b'\n');
        let mut lines = data.split(|&b| b == b'\n').peekable();
        while let Some(line) = lines.next() {
            if line.iter().all(u8::is_ascii_whitespace) {
                continue;
            }
            if let Some(torn) = &pending_torn {
                return Err(JournalError::Corrupt(format!(
                    "records follow a malformed line ({torn})"
                )));
            }
            let parsed = std::str::from_utf8(line)
                .map_err(|e| Error::msg(format!("non-UTF-8 line: {e}")))
                .and_then(JournalRecord::from_line);
            match parsed {
                Ok((seq, record)) => {
                    contents.max_seq = contents.max_seq.max(seq);
                    if contents.snapshot.is_some() && segment <= covers {
                        // Fully covered by the snapshot: pruning raced a
                        // crash and left the segment behind. Skip it.
                        continue;
                    }
                    contents.tail.push((seq, record));
                }
                Err(e) if !newline_terminated && lines.peek().is_none() => {
                    // Possibly a crash tearing the final line mid-write;
                    // by the write-ahead discipline its effect was never
                    // acknowledged beyond the fsync horizon. Confirmed
                    // as torn only if nothing follows it.
                    pending_torn = Some(format!("{}: {e}", path.display()));
                }
                Err(e) => {
                    return Err(JournalError::Corrupt(format!(
                        "{} holds a malformed, fully-written line: {e}",
                        path.display()
                    )));
                }
            }
        }
    }
    contents.torn_tail = pending_torn.is_some();
    Ok(contents)
}

/// Opens a journal directory as a live service: reads any existing
/// snapshot and WAL tail, folds them into a fresh
/// [`crate::AllocationService`] through the deterministic restore paths,
/// attaches a [`FileJournal`] that continues the sequence space, and
/// immediately installs a fresh snapshot (so the recovered state is
/// durable before the first request and stale segments prune). A
/// directory that does not exist yet starts an empty epoch-0 journal.
///
/// Tail records already reflected in the snapshot (the concurrent-
/// capture window) are skipped by each machine's sequence watermark;
/// see the module docs for why that makes recovery exact.
pub fn open_journaled(
    dir: &Path,
    config: JournalConfig,
) -> Result<(crate::AllocationService, RecoveryReport), JournalError> {
    let contents = read_journal_dir(dir)?;
    let had_state = contents.snapshot.is_some() || !contents.tail.is_empty();
    let epoch = contents.snapshot.as_ref().map_or(0, |s| s.epoch) + u64::from(had_state);

    let service = crate::AllocationService::new();
    let mut report = RecoveryReport {
        epoch,
        snapshot_found: contents.snapshot.is_some(),
        torn_tail: contents.torn_tail,
        ..RecoveryReport::default()
    };
    let mut watermarks = std::collections::HashMap::new();
    if let Some(snapshot) = &contents.snapshot {
        watermarks = service.apply_snapshot(snapshot)?;
    }
    for (seq, record) in &contents.tail {
        if let Some(machine) = record.machine() {
            if *seq <= watermarks.get(machine).copied().unwrap_or(0) {
                report.skipped += 1;
                continue;
            }
        }
        service.apply_journal_record(record)?;
        report.applied += 1;
    }
    // Configs and consumed totals restored from records; the live
    // tenant gauges (outstanding commitments, queued counts) are
    // derived state, recomputed exactly from the restored jobs.
    service.rebuild_tenant_gauges();
    report.machines = service.list().len();

    let sink = FileJournal::create(
        dir,
        config,
        epoch,
        contents.max_segment + 1,
        contents.max_seq,
    )?;
    let service = service.with_journal(std::sync::Arc::new(sink));
    if had_state {
        // Make the recovered state durable as one compacted image before
        // the first request, and prune the pre-crash segments.
        service.install_journal_snapshot()?;
    }
    Ok((service, report))
}

/// What recovery did, surfaced by the CLI and the `stats` response.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// The epoch this incarnation runs under (previous epoch + 1 when
    /// anything was recovered; 0 for a fresh journal).
    pub epoch: u64,
    /// Whether an installed snapshot was found.
    pub snapshot_found: bool,
    /// Machines rebuilt (snapshot images plus tail registrations).
    pub machines: usize,
    /// Tail records applied.
    pub applied: u64,
    /// Tail records skipped as already reflected in the snapshot (the
    /// watermark protocol at work).
    pub skipped: u64,
    /// Whether a torn final line was dropped.
    pub torn_tail: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "commalloc-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spec(machine: &str, mesh: &str, allocator: &str, scheduler: &str) -> MachineSpec {
        MachineSpec {
            machine: machine.into(),
            mesh: mesh.into(),
            allocator: Some(allocator.into()),
            strategy: None,
            scheduler: Some(scheduler.into()),
        }
    }

    fn idle_image(spec: MachineSpec, seq: u64) -> MachineImage {
        MachineImage {
            spec,
            seq,
            clock: None,
            fair_share: false,
            running: Vec::new(),
            queue: Vec::new(),
        }
    }

    fn tenant_spec(tenant: &str, weight: f64, quota: Option<f64>, cap: Option<u64>) -> TenantSpec {
        TenantSpec {
            tenant: tenant.into(),
            config: TenantConfig {
                weight,
                quota_node_seconds: quota,
                max_in_flight: cap,
            },
        }
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Register {
                spec: spec("m0", "16x16", "Hilbert w/BF", "easy"),
                pool: Some("grid".into()),
            },
            JournalRecord::Grant {
                machine: "m0".into(),
                job: RunningJob {
                    job: 1,
                    nodes: vec![NodeId(0), NodeId(1)],
                    walltime: Some(60.5),
                    start: 3.25,
                    pattern: Some(CommPattern::AllToAll),
                    tenant: Some("acme".into()),
                },
            },
            JournalRecord::Grant {
                machine: "m0".into(),
                job: RunningJob {
                    job: 3,
                    nodes: vec![NodeId(4)],
                    walltime: None,
                    start: 3.5,
                    pattern: None,
                    tenant: None,
                },
            },
            JournalRecord::Queue {
                machine: "m0".into(),
                request: QueuedRequest {
                    job: 2,
                    size: 9,
                    walltime: None,
                    enqueued_at: 4.0,
                    pattern: Some(CommPattern::Ring),
                    tenant: Some("acme".into()),
                },
            },
            JournalRecord::Release {
                machine: "m0".into(),
                job: 1,
            },
            JournalRecord::Cancel {
                machine: "m0".into(),
                job: 2,
            },
            JournalRecord::SetScheduler {
                machine: "m0".into(),
                scheduler: "first-fit backfill".into(),
            },
            JournalRecord::SetRouter {
                pool: "grid".into(),
                policy: "least-loaded".into(),
            },
            JournalRecord::SetTenant(tenant_spec("acme", 2.5, Some(1e6), Some(32))),
            JournalRecord::SetTenant(tenant_spec("solo", 1.0, None, None)),
            JournalRecord::SetFairShare {
                machine: "m0".into(),
                enabled: true,
            },
            JournalRecord::Snapshot(SnapshotImage {
                epoch: 2,
                covers: 3,
                machines: vec![MachineImage {
                    clock: Some(9.5),
                    fair_share: true,
                    running: vec![RunningJob {
                        job: 4,
                        nodes: vec![NodeId(3)],
                        walltime: None,
                        start: 1.0,
                        pattern: Some(CommPattern::AllToAll),
                        tenant: Some("acme".into()),
                    }],
                    queue: vec![QueuedRequest {
                        job: 5,
                        size: 2,
                        walltime: Some(7.0),
                        enqueued_at: 2.0,
                        pattern: None,
                        tenant: None,
                    }],
                    ..idle_image(spec("m0", "4x4", "Hilbert w/BF", "FCFS"), 17)
                }],
                pools: vec![PoolImage {
                    pool: "grid".into(),
                    members: vec!["m0".into()],
                    policy: "power-of-two".into(),
                }],
                tenants: vec![TenantImage {
                    spec: tenant_spec("acme", 2.5, Some(1e6), None),
                    consumed: 123.5,
                }],
            }),
        ]
    }

    #[test]
    fn untenanted_records_keep_their_pre_tenant_bytes() {
        // The refactor's byte-equivalence contract at the journal layer:
        // a grant/queue record with no tenant renders exactly as it did
        // before the tenant field existed.
        let grant = JournalRecord::Grant {
            machine: "m0".into(),
            job: RunningJob {
                job: 7,
                nodes: vec![NodeId(1), NodeId(2)],
                walltime: Some(30.0),
                start: 1.5,
                pattern: None,
                tenant: None,
            },
        };
        assert_eq!(
            grant.to_line(9),
            "{\"seq\":9,\"rec\":\"grant\",\"machine\":\"m0\",\"job\":7,\
             \"nodes\":[1,2],\"walltime\":30,\"start\":1.5}"
        );
        let queue = JournalRecord::Queue {
            machine: "m0".into(),
            request: QueuedRequest {
                job: 8,
                size: 4,
                walltime: None,
                enqueued_at: 2.0,
                pattern: None,
                tenant: None,
            },
        };
        assert_eq!(
            queue.to_line(10),
            "{\"seq\":10,\"rec\":\"queue\",\"machine\":\"m0\",\"job\":8,\
             \"size\":4,\"walltime\":null,\"enqueued_at\":2}"
        );
    }

    /// The image [`snapshot_line_keeps_its_bytes`] pins: two machines (a
    /// tenanted 2-D one with a running and a queued job, an idle 3-D
    /// one), one pool, one tenant.
    fn pinned_snapshot() -> SnapshotImage {
        SnapshotImage {
            epoch: 1,
            covers: 2,
            machines: vec![
                MachineImage {
                    clock: Some(8.5),
                    fair_share: true,
                    running: vec![RunningJob {
                        job: 1,
                        nodes: vec![NodeId(0), NodeId(1)],
                        walltime: Some(30.0),
                        start: 1.5,
                        pattern: Some(CommPattern::Ring),
                        tenant: Some("acme".into()),
                    }],
                    queue: vec![QueuedRequest {
                        job: 2,
                        size: 16,
                        walltime: None,
                        enqueued_at: 2.0,
                        pattern: None,
                        tenant: None,
                    }],
                    ..idle_image(spec("m0", "4x4", "Hilbert w/BF", "EASY backfill"), 12)
                },
                idle_image(
                    MachineSpec {
                        strategy: Some("FF".into()),
                        ..spec("m1", "2x2x2", "snake-3d", "FCFS")
                    },
                    0,
                ),
            ],
            pools: vec![PoolImage {
                pool: "grid".into(),
                members: vec!["m0".into(), "m1".into()],
                policy: "shortest-queue".into(),
            }],
            tenants: vec![TenantImage {
                spec: tenant_spec("acme", 2.0, Some(5e5), Some(8)),
                consumed: 45.0,
            }],
        }
    }

    #[test]
    fn snapshot_line_keeps_its_bytes() {
        // Recovery reads the snapshot file, and nothing else pins what
        // it holds byte for byte.
        assert_eq!(
            JournalRecord::Snapshot(pinned_snapshot()).to_line(40),
            "{\"seq\":40,\"rec\":\"snapshot\",\"epoch\":1,\"covers\":2,\
             \"machines\":[{\"machine\":\"m0\",\"mesh\":\"4x4\",\
             \"allocator\":\"Hilbert w/BF\",\"strategy\":null,\
             \"scheduler\":\"EASY backfill\",\"seq\":12,\"clock\":8.5,\"fair_share\":true,\
             \"running\":[{\"job\":1,\"nodes\":[0,1],\"walltime\":30,\
             \"start\":1.5,\"pattern\":\"ring\",\"tenant\":\"acme\"}],\
             \"queue\":[{\"job\":2,\"size\":16,\"walltime\":null,\"enqueued_at\":2}]},\
             {\"machine\":\"m1\",\"mesh\":\"2x2x2\",\"allocator\":\"snake-3d\",\"strategy\":\"FF\",\
             \"scheduler\":\"FCFS\",\"seq\":0,\"clock\":null,\"running\":[],\"queue\":[]}],\
             \"pools\":[{\"pool\":\"grid\",\"members\":[\"m0\",\"m1\"],\"policy\":\"shortest-queue\"}],\
             \"tenants\":[{\"tenant\":\"acme\",\"weight\":2,\"quota\":500000,\
             \"max_in_flight\":8,\"consumed\":45}]}"
        );
    }

    /// Reads back the pinned snapshot after `edit` rewrote its line.
    fn read_edited_snapshot(
        tag: &str,
        edit: impl Fn(&str) -> String,
    ) -> Result<JournalContents, JournalError> {
        let dir = temp_dir(tag);
        fs::create_dir_all(&dir).unwrap();
        let line = JournalRecord::Snapshot(pinned_snapshot()).to_line(0);
        let edited = edit(&line);
        assert_ne!(edited, line, "the edit must land");
        fs::write(dir.join(SNAPSHOT_FILE), format!("{edited}\n")).unwrap();
        let read = read_journal_dir(&dir);
        fs::remove_dir_all(&dir).unwrap();
        read
    }

    // Absent or null is the default; present with the wrong type is
    // state the file meant to carry, and recovery refuses to guess.

    #[test]
    fn mistyped_fair_share_is_corrupt_not_off() {
        let with = |value: &'static str| {
            move |line: &str| {
                line.replace("\"fair_share\":true", &format!("\"fair_share\":{value}"))
            }
        };
        assert!(matches!(
            read_edited_snapshot("fair-share-mistyped", with("\"yes\"")),
            Err(JournalError::Corrupt(_))
        ));
        let image = read_edited_snapshot("fair-share-null", with("null")).unwrap();
        assert!(!image.snapshot.unwrap().machines[0].fair_share);
    }

    #[test]
    fn mistyped_tenants_is_corrupt_not_empty() {
        let with = |value: &'static str| {
            move |line: &str| {
                let at = line.find("\"tenants\":[").unwrap();
                format!("{}\"tenants\":{value}}}", &line[..at])
            }
        };
        assert!(matches!(
            read_edited_snapshot("tenants-mistyped", with("{}")),
            Err(JournalError::Corrupt(_))
        ));
        let image = read_edited_snapshot("tenants-null", with("null")).unwrap();
        assert!(image.snapshot.unwrap().tenants.is_empty());
    }

    #[test]
    fn every_record_kind_round_trips_through_the_wire_format() {
        for (i, record) in sample_records().into_iter().enumerate() {
            let seq = i as u64 + 1;
            let line = record.to_line(seq);
            assert!(!line.contains('\n'), "wire lines must be single lines");
            let (parsed_seq, parsed) = JournalRecord::from_line(&line).unwrap();
            assert_eq!(parsed_seq, seq);
            assert_eq!(parsed, record, "line was {line}");
        }
    }

    #[test]
    fn fsync_policy_parses_and_names_round_trip() {
        assert_eq!(FsyncPolicy::parse("every"), Some(FsyncPolicy::EveryRecord));
        assert_eq!(FsyncPolicy::parse("1"), Some(FsyncPolicy::EveryRecord));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("64"), Some(FsyncPolicy::Batched(64)));
        assert_eq!(FsyncPolicy::parse("zero"), None);
        for policy in [
            FsyncPolicy::EveryRecord,
            FsyncPolicy::Batched(7),
            FsyncPolicy::Never,
        ] {
            assert_eq!(FsyncPolicy::parse(&policy.name()), Some(policy));
        }
    }

    #[test]
    fn file_sink_appends_and_reads_back_in_order() {
        let dir = temp_dir("roundtrip");
        let journal = FileJournal::create(&dir, JournalConfig::default(), 0, 1, 0).unwrap();
        let records = sample_records();
        for record in &records {
            journal.append(record);
        }
        drop(journal); // flush the buffered writer, as a clean exit would
        let contents = read_journal_dir(&dir).unwrap();
        assert!(contents.snapshot.is_none(), "no snapshot installed yet");
        assert_eq!(contents.max_seq, records.len() as u64);
        assert_eq!(contents.max_segment, 1);
        assert!(!contents.torn_tail);
        let read: Vec<JournalRecord> = contents.tail.into_iter().map(|(_, r)| r).collect();
        assert_eq!(read, records);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_line_is_dropped_but_earlier_corruption_is_fatal() {
        let dir = temp_dir("torn");
        let journal = FileJournal::create(&dir, JournalConfig::default(), 0, 1, 0).unwrap();
        journal.append(&JournalRecord::Release {
            machine: "m0".into(),
            job: 1,
        });
        journal.append(&JournalRecord::Release {
            machine: "m0".into(),
            job: 2,
        });
        drop(journal);
        let path = dir.join(segment_name(1));
        // Simulate a crash mid-write: truncate the last line in half.
        let text = fs::read_to_string(&path).unwrap();
        let torn = &text[..text.len() - text.len() / 4];
        fs::write(&path, torn).unwrap();
        let contents = read_journal_dir(&dir).unwrap();
        assert!(contents.torn_tail);
        assert_eq!(contents.tail.len(), 1);
        // Corruption *before* the tail refuses to load.
        fs::write(
            &path,
            format!(
                "{{\"seq\":1,\"rec\":\"release\",\"machine\":\"m0\",\"job\":1}}\nnot json\n{}",
                text.lines().nth(1).unwrap()
            ),
        )
        .unwrap();
        assert!(matches!(
            read_journal_dir(&dir),
            Err(JournalError::Corrupt(_))
        ));
        // A malformed final line that *kept* its trailing newline was
        // fully written (and possibly fsync-acknowledged): that is
        // corruption, not a torn write, and must refuse too.
        fs::write(
            &path,
            "{\"seq\":1,\"rec\":\"release\",\"machine\":\"m0\",\"job\":1}\nnot json\n",
        )
        .unwrap();
        assert!(matches!(
            read_journal_dir(&dir),
            Err(JournalError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_tolerated_across_trailing_empty_segments() {
        // A crashed recovery leaves the torn segment *followed by* the
        // empty segment the aborted recovery created; the journal must
        // still open (the torn line is the last record anywhere). But a
        // real record after the torn line proves the line was once
        // fully written (rotation syncs first) — corruption, refuse.
        let dir = temp_dir("torn-nonlast");
        let journal = FileJournal::create(&dir, JournalConfig::default(), 0, 1, 0).unwrap();
        journal.append(&JournalRecord::Release {
            machine: "m0".into(),
            job: 1,
        });
        drop(journal);
        let torn_path = dir.join(segment_name(1));
        let text = fs::read_to_string(&torn_path).unwrap();
        fs::write(&torn_path, &text[..text.len() - 5]).unwrap();
        fs::write(dir.join(segment_name(2)), "").unwrap();
        let contents = read_journal_dir(&dir).unwrap();
        assert!(contents.torn_tail);
        assert!(contents.tail.is_empty());
        assert_eq!(contents.max_segment, 2);
        // A record in a later segment turns the tolerated torn line
        // into corruption.
        fs::write(
            dir.join(segment_name(2)),
            "{\"seq\":2,\"rec\":\"release\",\"machine\":\"m0\",\"job\":2}\n",
        )
        .unwrap();
        assert!(matches!(
            read_journal_dir(&dir),
            Err(JournalError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_install_prunes_covered_segments() {
        let dir = temp_dir("prune");
        let journal = FileJournal::create(&dir, JournalConfig::default(), 0, 1, 0).unwrap();
        journal.append(&JournalRecord::Release {
            machine: "m0".into(),
            job: 1,
        });
        let closed = journal.begin_snapshot();
        assert_eq!(closed, 1);
        // A record landing after rotation lives in segment 2 (the tail).
        journal.append(&JournalRecord::Release {
            machine: "m0".into(),
            job: 2,
        });
        let image = SnapshotImage {
            epoch: 1,
            covers: closed,
            ..SnapshotImage::default()
        };
        journal
            .install_snapshot(&JournalRecord::Snapshot(image.clone()))
            .unwrap();
        assert!(
            !dir.join(segment_name(1)).exists(),
            "covered segment prunes"
        );
        assert!(dir.join(segment_name(2)).exists());
        let contents = read_journal_dir(&dir).unwrap();
        assert_eq!(contents.snapshot, Some(image));
        assert_eq!(contents.tail.len(), 1, "only the post-rotation record");
        assert!(matches!(
            contents.tail[0].1,
            JournalRecord::Release { job: 2, .. }
        ));
        let stats = journal.stats_value().unwrap();
        assert_eq!(stats.get("appended").and_then(Value::as_u64), Some(2));
        assert_eq!(
            stats.get("snapshots_installed").and_then(Value::as_u64),
            Some(1)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn max_seq_resumes_above_snapshot_watermarks_when_the_tail_is_empty() {
        // A snapshot install prunes the WAL, so a quiet restart reads an
        // empty tail. The next sink must still continue the sequence
        // space above the snapshot's per-machine watermarks, or its
        // records would be gated out by the following recovery.
        let dir = temp_dir("watermark-seed");
        let journal = FileJournal::create(&dir, JournalConfig::default(), 1, 2, 42).unwrap();
        let image = SnapshotImage {
            epoch: 1,
            covers: 1,
            machines: vec![
                idle_image(spec("m0", "4x4", "Hilbert w/BF", "FCFS"), 42),
                idle_image(spec("m1", "4x4", "Hilbert w/BF", "FCFS"), 17),
            ],
            pools: Vec::new(),
            tenants: Vec::new(),
        };
        journal
            .install_snapshot(&JournalRecord::Snapshot(image))
            .unwrap();
        drop(journal);
        let contents = read_journal_dir(&dir).unwrap();
        assert!(contents.tail.is_empty());
        assert_eq!(contents.max_seq, 42, "seeded from the highest watermark");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_reads_as_empty() {
        let dir = temp_dir("absent");
        let contents = read_journal_dir(&dir).unwrap();
        assert!(contents.snapshot.is_none());
        assert!(contents.tail.is_empty());
        assert_eq!(contents.max_segment, 0);
    }
}
