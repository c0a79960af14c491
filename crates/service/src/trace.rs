//! The flight recorder: request-scoped span tracing for the daemon.
//!
//! Every wire request is assigned a monotonically increasing request ID
//! at parse time; the layers it traverses (parse, routing, admission
//! queue, allocator probe, journal append, fsync wait) emit timestamped
//! [`SpanEvent`]s into per-worker fixed-capacity ring buffers. The
//! design goals, in order:
//!
//! * **Near-zero cost when off.** Tracing is toggled at runtime by the
//!   `set_trace` op; the disabled hot path is one relaxed atomic load
//!   ([`FlightRecorder::begin`] returns an inert [`RequestCtx`] whose
//!   every method is a no-op).
//! * **Bounded allocation when on.** [`SpanEvent`] is `Copy` (machine
//!   names travel as intern-table IDs, not strings); rings are
//!   preallocated and overwrite their oldest entry under pressure,
//!   counting drops rather than blocking or growing. The stage
//!   histograms are the one allocating part: a window slot's 4 KiB of
//!   buckets arrive with its first span, so a recording thread
//!   allocates once per histogrammed stage per second it records in
//!   (and once more per stage for the since-boot total), and a
//!   recorder that never recorded holds no histogram buckets at all.
//! * **Bounded contention.** Events hash to one of several ring shards
//!   by thread, so concurrent connection workers rarely share a lock;
//!   the per-stage latency histograms live inside the same shard lock,
//!   making one uncontended lock acquisition the whole per-event cost.
//!
//! Draining (the `trace` op) merges the shards into one stream sorted
//! by start time; the CLI renders it as NDJSON or Chrome trace-event
//! JSON. Stage latency distributions are exported independently through
//! the `metrics` op as [`LogLinearHistogram`]s — both cumulative and as
//! trailing time windows (each shard keeps a [`WindowRing`] per stage,
//! filed under the second each span *ends*, so `metrics` can answer
//! "last 10 s" as well as "since boot").
//!
//! The recorder keeps no time of its own: span stamps are microseconds
//! on the service [`Clock`], read by the [`RequestCtx`] at each stage
//! boundary, so spans are deterministic under virtual time.
//!
//! The recorder also carries the **routing decision ring**: one bounded
//! buffer of pre-rendered decision records (policy, members sampled,
//! per-member score and queue depth, the winner) appended by the routed
//! alloc path and drained alongside the span stream. Decisions are
//! rendered to wire values at record time — they are off the zero-alloc
//! span path and orders of magnitude rarer than spans.

use crate::clock::{micros, Clock};
use crate::metrics::{LogLinearHistogram, WindowRing};
use commalloc::scheduler::BlockReason;
use serde::{Serialize, Value};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

/// Pipeline stages a request traverses, in hot-path order. The first
/// [`Stage::HISTOGRAMMED`] stages accumulate latency histograms;
/// `Grant`/`Deny` are outcome markers (zero-duration instants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Stage {
    /// Wire line → parsed request.
    Parse = 0,
    /// Pool routing: sampling machines and picking a target.
    Route = 1,
    /// Time spent queued in admission (enqueue → grant), for jobs that
    /// waited.
    Queue = 2,
    /// The allocator probe: one placement attempt on one machine, from the
    /// previous boundary (a direct alloc's includes the machine-lock wait).
    Allocator = 3,
    /// Composing and appending journal records for one request.
    JournalAppend = 4,
    /// Waiting for the journal fsync to cover the appended records
    /// (zero under batched group-commit, where appenders never wait).
    FsyncWait = 5,
    /// Outcome marker: the request was granted processors.
    Grant = 6,
    /// Outcome marker: the request was denied or left queued, with the
    /// blocking reason in `code`/`detail`/`aux`.
    Deny = 7,
}

impl Stage {
    /// How many leading stages carry latency histograms.
    pub const HISTOGRAMMED: usize = 6;

    /// Stable lower-case name used in wire output and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Route => "route",
            Stage::Queue => "queue",
            Stage::Allocator => "allocator",
            Stage::JournalAppend => "journal_append",
            Stage::FsyncWait => "fsync_wait",
            Stage::Grant => "grant",
            Stage::Deny => "deny",
        }
    }

    /// The histogrammed stages, in index order (index = discriminant).
    pub fn histogrammed() -> [Stage; Stage::HISTOGRAMMED] {
        [
            Stage::Parse,
            Stage::Route,
            Stage::Queue,
            Stage::Allocator,
            Stage::JournalAppend,
            Stage::FsyncWait,
        ]
    }
}

/// The wire code of a [`BlockReason`] carried in a `Deny` event's `code`
/// field; 0 means "no scheduler reason" (an outright reject).
pub fn reason_code(reason: &BlockReason) -> u32 {
    reason.ordinal() as u32 + 1
}

/// The stable string for a `Deny` reason code (the inverse of
/// [`reason_code`], `None` for 0/unknown).
pub fn reason_code_name(code: u32) -> Option<&'static str> {
    BlockReason::CODES
        .get(code.checked_sub(1)? as usize)
        .copied()
}

/// Renders a [`BlockReason`] as the wire object carried in the `explain`
/// fields of `poll` and `query` responses: the stable `reason` tag plus
/// the fields the variant carries, and a human-readable `detail`. An
/// infinite time bound renders as `"unbounded": true` with no `until` —
/// JSON cannot spell infinity.
pub fn reason_to_value(reason: &BlockReason) -> Value {
    let mut m = serde::Map::new();
    m.insert("reason".into(), reason.code().to_value());
    if let BlockReason::InsufficientFree { free, needed } = reason {
        m.insert("free".into(), (*free as u64).to_value());
        m.insert("needed".into(), (*needed as u64).to_value());
    }
    if let Some(job) = reason.blocking_job() {
        m.insert("blocking_job".into(), job.to_value());
    }
    if let Some(until) = reason.until() {
        if until.is_finite() {
            m.insert("until".into(), until.to_value());
        } else {
            m.insert("unbounded".into(), true.to_value());
        }
    }
    m.insert("detail".into(), reason.to_string().to_value());
    Value::Object(m)
}

/// One timestamped span in a request's life. `Copy` and string-free so
/// the recording hot path never allocates; `machine` is an intern-table
/// ID resolved only at drain time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// The wire request this span belongs to.
    pub request: u64,
    /// The job involved, 0 when none.
    pub job: u64,
    /// Interned machine name, 0 when none.
    pub machine: u32,
    /// Which pipeline stage.
    pub stage: Stage,
    /// Stage-specific code: `Grant` — 0 immediate, 1 from queue;
    /// `Deny` — the [`reason_code`]; elsewhere 0.
    pub code: u32,
    /// Stage-specific payload: for `Deny`, the blocking job ID.
    pub detail: u64,
    /// Stage-specific float payload as [`f64::to_bits`]: for `Deny`,
    /// the blocking reservation's start time (service clock).
    pub aux: u64,
    /// Start, in microseconds on the service clock (virtual seconds
    /// × 10⁶ under virtual time).
    pub start_micros: u64,
    /// Duration in microseconds (0 for instant markers).
    pub dur_micros: u64,
}

/// One ring shard: a fixed-capacity circular event buffer plus the
/// per-stage latency histograms, all guarded by the shard's mutex so a
/// recording thread pays exactly one lock acquisition per event.
#[derive(Debug)]
struct RingShard {
    /// Circular buffer: grows to `capacity`, then overwrites at `next`.
    events: Vec<SpanEvent>,
    /// Next write slot once the buffer is full.
    next: usize,
    capacity: usize,
    /// Events overwritten before ever being drained.
    dropped: u64,
    /// Events overwritten over the shard's whole life: unlike `dropped`,
    /// never reset by a clearing drain.
    lost: u64,
    /// Latency distributions of the histogrammed stages, in
    /// microseconds (scale 1: ticks are already integral micros), per
    /// service-clock second in which the span ended, and since boot.
    windows: [WindowRing; Stage::HISTOGRAMMED],
}

impl RingShard {
    fn new(capacity: usize) -> RingShard {
        RingShard {
            events: Vec::with_capacity(capacity),
            next: 0,
            capacity,
            dropped: 0,
            lost: 0,
            windows: std::array::from_fn(|_| WindowRing::with_scale(1.0)),
        }
    }

    /// Buffers one event, overwriting the oldest once full. A span is
    /// windowed under its end second: a long queue wait belongs to the
    /// window it finished in, and never lands in a stale ring slot.
    fn push(&mut self, event: SpanEvent) {
        if (event.stage as usize) < Stage::HISTOGRAMMED {
            let end_sec = (event.start_micros + event.dur_micros) / 1_000_000;
            self.windows[event.stage as usize].record(end_sec, event.dur_micros as f64);
        }
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            // Full: overwrite the oldest entry (the ring is written in
            // slot order, so `next` always holds the oldest).
            self.events[self.next] = event;
            self.next += 1;
            if self.next == self.capacity {
                self.next = 0;
            }
            self.dropped += 1;
            self.lost += 1;
        }
    }

    /// The buffered events in write (oldest-first) order.
    fn ordered(&self) -> Vec<SpanEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.next..]);
        out.extend_from_slice(&self.events[..self.next]);
        out
    }

    fn clear(&mut self) {
        self.events.clear();
        self.next = 0;
        self.dropped = 0;
    }
}

/// Default number of ring shards (a small power of two: enough to keep
/// the worker pool from colliding, cheap to merge at drain time).
pub const DEFAULT_TRACE_SHARDS: usize = 8;

/// Default per-shard event capacity: 4096 events of 64 bytes, 256 KiB
/// reserved per shard and resident only as a thread writes it: 800–1 300
/// requests of look-back at 3–5 spans a grant. A `trace --follow` every
/// 0.5 s loses nothing below 8 192 spans/s per recording thread; past
/// that the ring overwrites its oldest events and counts them as dropped.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Capacity of the routing-decision ring: decisions arrive at most once
/// per routed alloc, so 1024 covers minutes of look-back.
pub const DECISION_CAPACITY: usize = 1024;

/// Source of [`FlightRecorder`] identities.
static NEXT_RECORDER: AtomicU64 = AtomicU64::new(1);

/// The flight recorder: request-ID mint, enable flag, machine-name
/// intern table and the ring shards. One per [`AllocationService`],
/// shared by every connection worker.
///
/// [`AllocationService`]: crate::service::AllocationService
#[derive(Debug)]
pub struct FlightRecorder {
    /// The master switch, read with one relaxed load per request.
    enabled: AtomicBool,
    next_request: AtomicU64,
    /// Distinguishes this recorder in the per-thread intern cache.
    id: u64,
    shards: Vec<Mutex<RingShard>>,
    /// The routing-decision ring: pre-rendered wire objects, oldest
    /// evicted under pressure.
    decisions: Mutex<VecDeque<Value>>,
    /// Machine-name intern table; `names[0]` is the empty "no machine"
    /// slot. Read-mostly: each name is interned once, then every lookup
    /// is a shared-lock scan of a handful of entries.
    names: RwLock<Vec<String>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// A recorder with the default shard count and capacity, disabled.
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_TRACE_SHARDS, DEFAULT_TRACE_CAPACITY)
    }

    /// A recorder with `shards` ring shards of `capacity` events each
    /// (both clamped to at least 1, and the shard count rounded up to a
    /// power of two), disabled until `set_enabled(true)`.
    pub fn with_capacity(shards: usize, capacity: usize) -> FlightRecorder {
        let shards = shards.max(1).next_power_of_two();
        let capacity = capacity.max(1);
        FlightRecorder {
            enabled: AtomicBool::new(false),
            next_request: AtomicU64::new(1),
            id: NEXT_RECORDER.fetch_add(1, Ordering::Relaxed),
            shards: (0..shards)
                .map(|_| Mutex::new(RingShard::new(capacity)))
                .collect(),
            decisions: Mutex::new(VecDeque::new()),
            names: RwLock::new(vec![String::new()]),
        }
    }

    /// Turns recording on or off. Events emitted while off are
    /// discarded before they are built (the [`RequestCtx`] goes inert).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether the recorder is currently accepting events.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Begins a request: one relaxed load when disabled (returning the
    /// inert context), a request-ID mint when enabled.
    pub fn begin(&self) -> RequestCtx<'_> {
        if !self.enabled() {
            return RequestCtx::inert();
        }
        RequestCtx {
            recorder: Some(self),
            request: self.next_request.fetch_add(1, Ordering::Relaxed),
            ..RequestCtx::inert()
        }
    }

    /// Interns `name`, returning its stable ID (0 for the empty name).
    /// Each thread remembers the last name it interned, so a worker
    /// serving one machine skips the table's lock.
    pub fn intern(&self, name: &str) -> u32 {
        if name.is_empty() {
            return 0;
        }
        thread_local! {
            static LAST: RefCell<(u64, String, u32)> = const { RefCell::new((0, String::new(), 0)) };
        }
        LAST.with_borrow_mut(|(recorder, last, id)| {
            if *recorder != self.id || last != name {
                *id = self.intern_in_table(name);
                *recorder = self.id;
                last.clear();
                last.push_str(name);
            }
            *id
        })
    }

    fn intern_in_table(&self, name: &str) -> u32 {
        {
            let names = self.names.read().expect("intern table poisoned");
            if let Some(i) = names.iter().position(|n| n == name) {
                return i as u32;
            }
        }
        let mut names = self.names.write().expect("intern table poisoned");
        // Re-check: another thread may have interned between the locks.
        if let Some(i) = names.iter().position(|n| n == name) {
            return i as u32;
        }
        names.push(name.to_string());
        (names.len() - 1) as u32
    }

    /// Resolves an interned machine ID back to its name (empty for 0 or
    /// unknown IDs).
    pub fn machine_name(&self, id: u32) -> String {
        let names = self.names.read().expect("intern table poisoned");
        names.get(id as usize).cloned().unwrap_or_default()
    }

    /// The calling thread's home shard: assigned round-robin on first
    /// use and cached in a thread-local, so a connection worker always
    /// lands on the same (usually uncontended) lock.
    fn shard_index(&self) -> usize {
        static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static HOME: Cell<usize> = const { Cell::new(usize::MAX) };
        }
        HOME.with(|home| {
            if home.get() == usize::MAX {
                home.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
            }
            home.get()
        }) & (self.shards.len() - 1)
    }

    /// Records one event into the calling thread's shard. Callers go
    /// through [`RequestCtx`], which already checked `enabled`.
    pub fn record(&self, event: SpanEvent) {
        self.shards[self.shard_index()]
            .lock()
            .expect("trace shard poisoned")
            .push(event);
    }

    /// Lifetime count of span events lost to ring overwrites, across
    /// every shard. Monotonic: a clearing drain resets the per-drain
    /// `dropped` figure but never this counter, which backs the
    /// `commalloc_dropped_spans_total` Prometheus counter.
    pub fn dropped_total(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.lock().expect("trace shard poisoned").lost)
            .sum()
    }

    /// Appends one pre-rendered routing-decision record, evicting the
    /// oldest past [`DECISION_CAPACITY`]. Callers gate on
    /// [`RequestCtx::active`], so an untraced route never renders one.
    pub fn record_decision(&self, decision: Value) {
        let mut ring = self.decisions.lock().expect("decision ring poisoned");
        if ring.len() >= DECISION_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(decision);
    }

    /// The buffered routing decisions, oldest first. `limit` keeps only
    /// the most recent records; `clear` empties the ring after reading.
    pub fn decisions(&self, limit: Option<usize>, clear: bool) -> Vec<Value> {
        let mut ring = self.decisions.lock().expect("decision ring poisoned");
        let skip = match limit {
            Some(limit) => ring.len().saturating_sub(limit),
            None => 0,
        };
        let out: Vec<Value> = ring.iter().skip(skip).cloned().collect();
        if clear {
            ring.clear();
        }
        out
    }

    /// Drains the recorder: every buffered event merged across shards
    /// in start-time order, plus the total drop count. `limit` keeps
    /// only the most recent events; `clear` resets the rings (and the
    /// drop counters) after reading.
    pub fn drain(&self, limit: Option<usize>, clear: bool) -> (Vec<SpanEvent>, u64) {
        let mut events = Vec::new();
        let mut dropped = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("trace shard poisoned");
            events.extend(shard.ordered());
            dropped += shard.dropped;
            if clear {
                shard.clear();
            }
        }
        events.sort_by_key(|e| (e.start_micros, e.request));
        if let Some(limit) = limit {
            if events.len() > limit {
                events.drain(..events.len() - limit);
            }
        }
        (events, dropped)
    }

    /// The per-stage latency histograms, merged across shards, indexed
    /// by stage discriminant (microsecond ticks).
    pub fn stage_histograms(&self) -> [LogLinearHistogram; Stage::HISTOGRAMMED] {
        let mut merged: [LogLinearHistogram; Stage::HISTOGRAMMED] =
            std::array::from_fn(|_| LogLinearHistogram::with_scale(1.0));
        for shard in &self.shards {
            let shard = shard.lock().expect("trace shard poisoned");
            for (into, from) in merged.iter_mut().zip(&shard.windows) {
                into.merge(&from.total());
            }
        }
        merged
    }

    /// The per-stage latency histograms restricted to the trailing
    /// `span_secs` seconds ending at `now_sec` (service-clock seconds;
    /// span clamped to the 60-slot window), merged across shards.
    pub fn stage_windows(
        &self,
        now_sec: u64,
        span_secs: u64,
    ) -> [LogLinearHistogram; Stage::HISTOGRAMMED] {
        let mut merged: [LogLinearHistogram; Stage::HISTOGRAMMED] =
            std::array::from_fn(|_| LogLinearHistogram::with_scale(1.0));
        for shard in &self.shards {
            let shard = shard.lock().expect("trace shard poisoned");
            for (into, ring) in merged.iter_mut().zip(&shard.windows) {
                into.merge(&ring.merged(now_sec, span_secs));
            }
        }
        merged
    }

    /// Renders one drained event as the NDJSON wire object, resolving
    /// the interned machine name and decoding stage-specific payloads.
    pub fn event_to_value(&self, event: &SpanEvent) -> Value {
        let mut m = serde::Map::new();
        m.insert("request".into(), event.request.to_value());
        m.insert("stage".into(), event.stage.name().to_value());
        m.insert("ts_micros".into(), event.start_micros.to_value());
        m.insert("dur_micros".into(), event.dur_micros.to_value());
        if event.job != 0 {
            m.insert("job".into(), event.job.to_value());
        }
        if event.machine != 0 {
            m.insert(
                "machine".into(),
                self.machine_name(event.machine).to_value(),
            );
        }
        match event.stage {
            Stage::Grant => {
                m.insert("from_queue".into(), (event.code == 1).to_value());
            }
            Stage::Deny => {
                if let Some(name) = reason_code_name(event.code) {
                    m.insert("reason".into(), name.to_value());
                    if event.detail != 0 {
                        m.insert("blocking_job".into(), event.detail.to_value());
                    }
                    let until = f64::from_bits(event.aux);
                    if until != 0.0 && until.is_finite() {
                        m.insert("until".into(), until.to_value());
                    }
                }
            }
            _ => {
                if event.code != 0 {
                    m.insert("code".into(), event.code.to_value());
                }
            }
        }
        Value::Object(m)
    }
}

/// The per-request context threaded through the service layers: the
/// tracing binding and the request's time. `Copy` and inert by default:
/// every span method on an inert context returns immediately, so
/// untraced paths pay nothing beyond the branch. A stage's end is the
/// next stage's start, so the context carries the last boundary read
/// from its clock ([`RequestCtx::on`]): a traced request with k stages
/// reads the clock k + 1 times, and the time a machine schedules against
/// ([`RequestCtx::now`]) is one of them. An untraced request reads it at
/// most once, when a machine first asks for the time.
#[derive(Debug, Clone, Copy)]
pub struct RequestCtx<'a> {
    recorder: Option<&'a FlightRecorder>,
    clock: Option<&'a Clock>,
    request: u64,
    machine: u32,
    /// The last stage boundary on `clock`, in seconds (NaN until read).
    at: f64,
}

impl RequestCtx<'static> {
    /// The no-op context used by untraced callers.
    pub const fn inert() -> RequestCtx<'static> {
        RequestCtx {
            recorder: None,
            clock: None,
            request: 0,
            machine: 0,
            at: f64::NAN,
        }
    }
}

impl<'a> RequestCtx<'a> {
    /// True when events emitted through this context are recorded.
    pub fn active(&self) -> bool {
        self.recorder.is_some()
    }

    /// The request ID (0 when inert).
    pub fn request(&self) -> u64 {
        self.request
    }

    /// This context on `clock`, the time source its boundaries are read
    /// from. A traced context without a boundary yet reads the clock
    /// once here, to open its timeline.
    pub fn on(&self, clock: &'a Clock) -> RequestCtx<'a> {
        let mut ctx = *self;
        ctx.clock = Some(clock);
        if ctx.active() {
            ctx.now();
        }
        ctx
    }

    /// A copy with no boundary yet, so its next [`RequestCtx::on`]
    /// opens a fresh timeline (each member of a batch starts when it is
    /// served, not when the envelope was parsed).
    pub fn restart(&self) -> RequestCtx<'a> {
        let mut ctx = *self;
        ctx.at = f64::NAN;
        ctx
    }

    /// The request's time in seconds: its last stage boundary, read
    /// from the bound clock on first use. Panics on a context never
    /// bound to a clock (the service binds every request it serves).
    pub fn now(&mut self) -> f64 {
        if self.at.is_nan() {
            self.at = self.clock.expect("request context bound to a clock").now();
        }
        self.at
    }

    /// The last stage boundary in clock microseconds; 0 (and no clock
    /// read) before the first boundary.
    pub fn now_micros(&self) -> u64 {
        micros(self.at)
    }

    /// Ends the current stage: one clock read, recorded as a `stage`
    /// span from the last boundary, which the read then replaces as the
    /// next stage's start. Returns the boundary in microseconds. An
    /// inert context neither reads nor records.
    pub fn lap(&mut self, stage: Stage, job: u64, code: u32) -> u64 {
        if self.active() {
            let start = micros(self.now());
            *self = self.restart();
            let end = micros(self.now());
            self.span(stage, job, code, start, end);
        }
        self.now_micros()
    }

    /// A copy of this context bound to `machine` (interning the name);
    /// subsequent spans carry it automatically.
    pub fn with_machine(&self, machine: &str) -> RequestCtx<'a> {
        match self.recorder {
            Some(r) => RequestCtx {
                machine: r.intern(machine),
                ..*self
            },
            None => *self,
        }
    }

    /// A copy of this context re-bound to another request ID: a grant
    /// from the queue attaches its events to the request that originally
    /// *enqueued* the job, not the one whose release triggered the
    /// drain. A zero `request` (the job was enqueued untraced) keeps the
    /// current binding.
    pub fn for_request(&self, request: u64) -> RequestCtx<'a> {
        if self.recorder.is_some() && request != 0 {
            RequestCtx { request, ..*self }
        } else {
            *self
        }
    }

    /// Emits one duration span (no-op when inert).
    pub fn span(&self, stage: Stage, job: u64, code: u32, start_micros: u64, end_micros: u64) {
        self.emit(stage, job, code, 0, 0, start_micros, end_micros);
    }

    /// Emits one zero-duration marker (no-op when inert).
    pub fn instant(&self, stage: Stage, job: u64, code: u32, at_micros: u64) {
        self.emit(stage, job, code, 0, 0, at_micros, at_micros);
    }

    /// Emits a `Deny` marker carrying a scheduler block reason.
    pub fn deny(&self, job: u64, reason: Option<&BlockReason>, at_micros: u64) {
        let (code, blocking, until) = match reason {
            Some(r) => (
                reason_code(r),
                r.blocking_job().unwrap_or(0),
                r.until().unwrap_or(0.0),
            ),
            None => (0, 0, 0.0),
        };
        self.emit(
            Stage::Deny,
            job,
            code,
            blocking,
            until.to_bits(),
            at_micros,
            at_micros,
        );
    }

    /// The shared emit path: builds the `Copy` event and hands it to
    /// the recorder.
    #[allow(clippy::too_many_arguments)]
    pub fn emit(
        &self,
        stage: Stage,
        job: u64,
        code: u32,
        detail: u64,
        aux: u64,
        start_micros: u64,
        end_micros: u64,
    ) {
        let Some(recorder) = self.recorder else {
            return;
        };
        recorder.record(SpanEvent {
            request: self.request,
            job,
            machine: self.machine,
            stage,
            code,
            detail,
            aux,
            start_micros,
            dur_micros: end_micros.saturating_sub(start_micros),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_mints_nothing_and_records_nothing() {
        let recorder = FlightRecorder::new();
        assert!(!recorder.enabled());
        let ctx = recorder.begin();
        assert!(!ctx.active());
        assert_eq!(ctx.request(), 0);
        assert_eq!(ctx.now_micros(), 0);
        ctx.span(Stage::Parse, 0, 0, 0, 10);
        ctx.instant(Stage::Grant, 1, 0, 10);
        ctx.deny(2, None, 10);
        let (events, dropped) = recorder.drain(None, false);
        assert!(events.is_empty(), "inert contexts must emit nothing");
        assert_eq!(dropped, 0);
        // The inert const context behaves identically.
        let inert = RequestCtx::inert();
        assert!(!inert.active());
        inert.span(Stage::Parse, 0, 0, 0, 10);
    }

    #[test]
    fn enabled_recorder_mints_increasing_ids_and_buffers_events() {
        let recorder = FlightRecorder::new();
        recorder.set_enabled(true);
        let a = recorder.begin();
        let b = recorder.begin();
        assert!(a.active() && b.active());
        assert!(b.request() > a.request());
        a.span(Stage::Parse, 0, 0, 5, 9);
        let on_machine = b.with_machine("m0");
        on_machine.span(Stage::Allocator, 7, 0, 10, 30);
        on_machine.instant(Stage::Grant, 7, 1, 30);
        let (events, dropped) = recorder.drain(None, false);
        assert_eq!(events.len(), 3);
        assert_eq!(dropped, 0);
        assert_eq!(events[0].stage, Stage::Parse);
        assert_eq!(events[0].dur_micros, 4);
        assert_eq!(events[1].stage, Stage::Allocator);
        assert_eq!(recorder.machine_name(events[1].machine), "m0");
        assert_eq!(events[2].code, 1, "grant-from-queue marker");
        // Stage histograms picked the spans up (parse 4µs, alloc 20µs).
        let histograms = recorder.stage_histograms();
        assert_eq!(histograms[Stage::Parse as usize].count(), 1);
        assert_eq!(histograms[Stage::Allocator as usize].count(), 1);
        assert_eq!(histograms[Stage::Allocator as usize].max(), 20.0);
        // Outcome markers are not histogrammed.
        assert_eq!(histograms.len(), Stage::HISTOGRAMMED);
    }

    #[test]
    fn ring_overflow_drops_oldest_first_and_counts() {
        // One shard of 4 slots so overflow is deterministic.
        let recorder = FlightRecorder::with_capacity(1, 4);
        recorder.set_enabled(true);
        let ctx = recorder.begin();
        for i in 0..7u64 {
            ctx.span(Stage::Parse, i + 1, 0, i * 10, i * 10 + 1);
        }
        let (events, dropped) = recorder.drain(None, false);
        assert_eq!(events.len(), 4, "ring caps at capacity");
        assert_eq!(dropped, 3, "three events were overwritten");
        // Oldest-first eviction: jobs 1..3 are gone, 4..7 survive in order.
        let jobs: Vec<u64> = events.iter().map(|e| e.job).collect();
        assert_eq!(jobs, vec![4, 5, 6, 7]);
        // A limited drain keeps the most recent events.
        let (limited, _) = recorder.drain(Some(2), false);
        assert_eq!(
            limited.iter().map(|e| e.job).collect::<Vec<_>>(),
            vec![6, 7]
        );
        // Clearing resets both the ring and the drop counter...
        let (_, _) = recorder.drain(None, true);
        let (after, dropped_after) = recorder.drain(None, false);
        assert!(after.is_empty());
        assert_eq!(dropped_after, 0);
        // ...but the lifetime counter is monotonic across clears.
        assert_eq!(recorder.dropped_total(), 3);
        ctx.span(Stage::Parse, 8, 0, 0, 1);
        assert_eq!(recorder.dropped_total(), 3, "non-overwriting push");
    }

    #[test]
    fn decision_ring_is_bounded_and_drains_oldest_first() {
        let recorder = FlightRecorder::new();
        for i in 0..(DECISION_CAPACITY as u64 + 5) {
            recorder.record_decision(i.to_value());
        }
        let all = recorder.decisions(None, false);
        assert_eq!(all.len(), DECISION_CAPACITY, "ring caps at capacity");
        assert_eq!(all[0].as_u64(), Some(5), "oldest five were evicted");
        let limited = recorder.decisions(Some(2), false);
        assert_eq!(
            limited.iter().map(Value::as_u64).collect::<Vec<_>>(),
            vec![
                Some(DECISION_CAPACITY as u64 + 3),
                Some(DECISION_CAPACITY as u64 + 4)
            ],
            "limit keeps the most recent records"
        );
        let drained = recorder.decisions(None, true);
        assert_eq!(drained.len(), DECISION_CAPACITY);
        assert!(recorder.decisions(None, false).is_empty());
    }

    #[test]
    fn stage_windows_cover_only_the_trailing_span() {
        let recorder = FlightRecorder::with_capacity(1, 64);
        recorder.set_enabled(true);
        let ctx = recorder.begin();
        // One parse span per second for seconds 0..5, each 3µs long.
        for sec in 0..5u64 {
            let at = sec * 1_000_000;
            ctx.span(Stage::Parse, 0, 0, at, at + 3);
        }
        let parse = Stage::Parse as usize;
        assert_eq!(recorder.stage_windows(4, 60)[parse].count(), 5);
        assert_eq!(recorder.stage_windows(4, 2)[parse].count(), 2);
        assert_eq!(recorder.stage_windows(4, 1)[parse].count(), 1);
        // The cumulative histogram is unaffected by windowing.
        assert_eq!(recorder.stage_histograms()[parse].count(), 5);
        // A minute later the windows have aged out entirely.
        assert_eq!(recorder.stage_windows(70, 60)[parse].count(), 0);
    }

    #[test]
    fn reason_codes_round_trip_for_every_block_reason() {
        let reasons = [
            BlockReason::InsufficientFree { free: 3, needed: 9 },
            BlockReason::HeadOfLine { blocking_job: 11 },
            BlockReason::WouldDelayShadow {
                blocking_job: 12,
                shadow_time: 250.0,
            },
            BlockReason::WouldDelayReservation {
                blocking_job: 13,
                reserved_start: 300.0,
            },
        ];
        for reason in &reasons {
            let code = reason_code(reason);
            assert!((1..=4).contains(&code), "codes stay in the wire range");
            assert_eq!(
                reason_code_name(code),
                Some(reason.code()),
                "reason_code_name inverts reason_code onto the stable tag"
            );
        }
        // The codes are distinct, and 0/unknown decode to nothing.
        let codes: std::collections::BTreeSet<u32> = reasons.iter().map(reason_code).collect();
        assert_eq!(codes.len(), reasons.len());
        assert_eq!(reason_code_name(0), None);
        assert_eq!(reason_code_name(5), None);
    }

    #[test]
    fn toggling_off_stops_new_contexts_immediately() {
        let recorder = FlightRecorder::new();
        recorder.set_enabled(true);
        let live = recorder.begin();
        recorder.set_enabled(false);
        // Contexts minted while off are inert...
        let off = recorder.begin();
        assert!(!off.active());
        off.span(Stage::Parse, 0, 0, 0, 1);
        // ...while an in-flight context finishes its request (events
        // from a request that started traced stay coherent).
        live.span(Stage::Parse, 0, 0, 0, 1);
        let (events, _) = recorder.drain(None, false);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].request, live.request());
    }

    #[test]
    fn deny_events_carry_the_block_reason() {
        let recorder = FlightRecorder::new();
        recorder.set_enabled(true);
        let ctx = recorder.begin();
        let reason = BlockReason::WouldDelayReservation {
            blocking_job: 42,
            reserved_start: 1500.0,
        };
        ctx.deny(7, Some(&reason), 100);
        ctx.deny(8, None, 110);
        let (events, _) = recorder.drain(None, false);
        assert_eq!(events[0].code, reason_code(&reason));
        assert_eq!(events[0].detail, 42);
        assert_eq!(f64::from_bits(events[0].aux), 1500.0);
        let rendered = recorder.event_to_value(&events[0]);
        assert_eq!(
            rendered.get("reason").and_then(Value::as_str),
            Some("would_delay_reservation")
        );
        assert_eq!(
            rendered.get("blocking_job").and_then(Value::as_u64),
            Some(42)
        );
        assert_eq!(rendered.get("until").and_then(Value::as_f64), Some(1500.0));
        // A reason-less deny renders without reason fields.
        let plain = recorder.event_to_value(&events[1]);
        assert!(plain.get("reason").is_none());
        assert_eq!(plain.get("stage").and_then(Value::as_str), Some("deny"));
    }

    #[test]
    fn intern_table_is_stable_and_shared() {
        let recorder = FlightRecorder::new();
        let a = recorder.intern("m0");
        let b = recorder.intern("m1");
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
        assert_eq!(recorder.intern("m0"), a, "re-interning is idempotent");
        assert_eq!(recorder.machine_name(a), "m0");
        assert_eq!(recorder.machine_name(0), "");
        assert_eq!(recorder.intern(""), 0);
    }

    #[test]
    fn drain_merges_shards_in_start_order() {
        let recorder = FlightRecorder::with_capacity(4, 16);
        recorder.set_enabled(true);
        // Record from multiple threads so several shards fill.
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let recorder = &recorder;
                scope.spawn(move || {
                    let ctx = recorder.begin();
                    for i in 0..4u64 {
                        ctx.span(Stage::Parse, 0, 0, t * 4 + i, t * 4 + i + 1);
                    }
                });
            }
        });
        let (events, dropped) = recorder.drain(None, false);
        assert_eq!(events.len(), 16);
        assert_eq!(dropped, 0);
        let starts: Vec<u64> = events.iter().map(|e| e.start_micros).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted, "drain must merge shards in time order");
    }

    #[test]
    fn span_event_fits_one_cache_line_pair() {
        // The hot-path contract: events stay small and `Copy`.
        assert!(std::mem::size_of::<SpanEvent>() <= 64);
        let _: fn(SpanEvent) -> SpanEvent = |e| e; // Copy by value
    }
}
