//! # commalloc-service
//!
//! A long-running, multi-tenant **allocation daemon** over the allocators of
//! `commalloc-alloc`: it owns live machine state, accepts concurrent
//! allocate/release/query streams, and serves them through an in-process
//! API ([`AllocationService`]) and a newline-delimited JSON protocol over
//! TCP ([`server::Server`] / [`client::ServiceClient`]).
//!
//! ## Why a service (design rationale)
//!
//! The source paper (Leung, Bunde & Mache, IPPS 2004) evaluates allocators
//! with ProcSimity — an *offline* simulator replaying a fixed trace against
//! one machine. The allocation problem it studies is inherently *online*,
//! though: jobs arrive and depart against live machine state, and the
//! allocator must answer immediately. This crate generalises the repo's
//! offline replay engine (`commalloc::engine`) to online operation:
//!
//! * **State ownership.** [`AllocationService`] holds every registered
//!   machine behind **its own lock** (requests for different machines
//!   proceed in parallel, requests for one machine serialise — exactly
//!   the consistency the occupancy invariant needs — and a panic on one
//!   machine leaves the others serving).
//! * **2-D and 3-D meshes.** A registered machine is either the paper's
//!   2-D mesh with any [`commalloc_alloc::AllocatorKind`], or a 3-D mesh
//!   allocated by one-dimensional reduction along a
//!   [`commalloc_mesh::curve3d::Curve3Order`] — the generalisation the
//!   paper points to via Alber & Niedermeier's multidimensional indexings.
//! * **Incremental hot path.** Curve allocators consult the
//!   [`commalloc_alloc::FreeIntervalIndex`] — a BTree of maximal free runs
//!   updated in O(log n) per occupy/release — instead of rescanning the
//!   occupancy bitmap per request; the 3-D path uses the same index
//!   directly as its source of truth.
//! * **Policy-driven admission.** When a machine cannot serve a request,
//!   the caller may queue it ([`admission::AdmissionQueue`]). The drain
//!   discipline is a per-machine `commalloc::scheduler::SchedulerKind`,
//!   chosen at registration and switchable at runtime (`set_scheduler`):
//!   strict FCFS with head-of-line blocking (the paper's policy and the
//!   default), first-fit backfilling, or EASY backfilling planning with
//!   client-supplied walltime estimates. The queue delegates every pick
//!   to the *same* `select_with_context` the offline engine calls, and
//!   the sim-equivalence tests pin the online grant order byte-identical
//!   to the offline simulator's for every scheduling policy.
//! * **Durability.** Every state-changing operation can be journaled to
//!   an append-only NDJSON write-ahead log ([`journal`]) behind a
//!   [`journal::JournalSink`] trait — a no-op by default, a
//!   group-commit file sink under `serve --journal` — with watermarked
//!   snapshot compaction and a crash-recovery fold
//!   ([`journal::open_journaled`]) proven byte-identical to
//!   uninterrupted runs.
//! * **Cluster routing.** Machines registered with a `pool` name become
//!   members of that pool ([`cluster::PlacementRouter`]); an `alloc`
//!   addressed to `"@pool"` is routed to a member by the pool's
//!   [`cluster::RoutingPolicy`] (round-robin, least-loaded,
//!   shortest-queue, power-of-two-choices — switchable at runtime via
//!   `set_router`). Routing is sample-then-commit through the same
//!   per-machine locks, with a per-entry generation re-check instead of any
//!   global lock; driven single-threaded it is fully deterministic, and
//!   the cluster sim-equivalence tests pin the pooled service's routes
//!   and per-machine grant logs byte-identical to a pure offline router
//!   plus standalone per-machine replays.
//!
//! ## Wire protocol
//!
//! One JSON object per `\n`-terminated line in each direction
//! ([`protocol::Request`] / [`protocol::Response`]). Requests carry an
//! `"op"` discriminator:
//!
//! ```json
//! {"op":"register","machine":"m0","mesh":"16x16","allocator":"Hilbert w/BF","scheduler":"easy","pool":"grid"}
//! {"op":"alloc","machine":"m0","job":1,"size":17,"wait":true,"walltime":120.0}
//! {"op":"alloc","machine":"@grid","job":2,"size":8,"wait":true}
//! {"op":"set_scheduler","machine":"m0","scheduler":"backfill"}
//! {"op":"set_router","pool":"grid","policy":"p2c"}
//! {"op":"release","machine":"m0","job":1}
//! {"op":"poll","machine":"m0","job":2}
//! {"op":"query","machine":"m0"}
//! {"op":"query","machine":"@grid"}
//! {"op":"stats","machine":"m0"}
//! {"op":"journal_stats"}
//! {"op":"list"}
//! {"op":"ping"}
//! {"op":"batch","requests":[{"op":"ping"},{"op":"release","machine":"m0","job":1}]}
//! ```
//!
//! Responses always carry `"ok"`; successful `alloc` responses carry
//! `"status"` (`"granted"` with `"nodes"`, or `"queued"` with
//! `"position"`; routed responses add `"machine"`, the member that took
//! the job), and errors carry `"error"` with a message. The protocol
//! is deliberately line-oriented and human-typeable (`nc` works) while
//! staying machine-parseable; it needs nothing beyond the standard library
//! plus the workspace's JSON layer.
//!
//! Alongside NDJSON the same port speaks a compact **length-prefixed
//! binary framing** ([`framing`]), discriminated per frame by its first
//! byte: `0xB1` opens a binary frame, anything else is a JSON line. Both
//! framings decode to identical [`protocol::Request`] /
//! [`protocol::Response`] values; responses return in the framing the
//! request arrived in, so a single connection may mix both.
//!
//! The TCP server is std-only: a listener thread accepts connections and
//! pins each one to a **thread-per-core readiness loop** worker
//! ([`server::Server`]; nonblocking sockets driven by the `polling`
//! compat shim's epoll/poll surface). Each worker drains every complete
//! frame per readiness wakeup (pipelining) and writes responses through
//! a per-connection outbox with backpressure.
//!
//! ## Example
//!
//! ```
//! use commalloc_service::{AllocArgs, AllocOutcome, AllocationService, RequestCtx};
//!
//! let service = AllocationService::new();
//! service.register("m0", "16x16", Some("Hilbert w/BF"), None, None).unwrap();
//! // Every operation has one method; its optional attributes (walltime,
//! // pattern, tenant, ...) are arguments, and the context says whether
//! // the flight recorder follows the call. In-process callers pass the
//! // inert one.
//! let ctx = RequestCtx::inert();
//! let args = AllocArgs::new(1, 17).with_walltime(60.0);
//! let granted = service.alloc("m0", &args, &ctx).unwrap();
//! let AllocOutcome::Granted(nodes) = granted else { panic!("empty machine") };
//! assert_eq!(nodes.len(), 17);
//! let newly_runnable = service.release("m0", 1, &ctx).unwrap();
//! assert!(newly_runnable.is_empty());
//! ```

pub mod admission;
pub mod calibration;
pub mod client;
pub mod clock;
pub mod cluster;
pub mod framing;
pub mod journal;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod replay;
pub mod score;
pub mod server;
pub mod service;
pub mod tenant;
pub mod trace;

pub use calibration::{CalibrationSample, CalibrationStore, PlacementRecord};
pub use client::{ClientAllocOutcome, ClientError, ServiceClient, TraceDump};
pub use clock::Clock;
pub use cluster::{route_offline, ClusterMember, MachineSample, PlacementRouter, RoutingPolicy};
pub use framing::{Frame, FrameBuffer, FrameError, Framing};
pub use journal::{
    open_journaled, read_journal_dir, FileJournal, FsyncPolicy, JournalConfig, JournalError,
    JournalRecord, JournalSink, NoopJournal, RecoveryReport, SnapshotImage,
};
pub use metrics::{
    LogLinearHistogram, MachineMetrics, ServiceMetrics, SlowdownReservoir, WaitStats, WindowRing,
    LOG_LINEAR_SLOTS, SLOWDOWN_RESERVOIR_CAPACITY, SLOWDOWN_TAU_SECONDS, WINDOW_SLOTS,
};
pub use protocol::{AllocArgs, JobRef, Request, Response};
pub use registry::{MachineSnapshot, ServiceError};
pub use replay::{replay, replay_cluster, ClusterReplayLog, ReplayGrant, ReplayJob, ReplayLog};
pub use score::ScoreBreakdown;
pub use server::{Server, ServerHandle};
pub use service::{parse_dims, validate_tenant_name, AllocOutcome, AllocationService, JobStatus};
pub use tenant::{job_cost, tenant_or_default, TenantConfig, TenantExport, TenantTable};
pub use trace::{FlightRecorder, RequestCtx, SpanEvent, Stage};
