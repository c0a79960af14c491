//! The wire protocol: one table row per message.
//!
//! One JSON object per line in each direction, or one binary frame (see
//! [`crate::framing`]). Requests carry an `"op"` discriminator; responses
//! always carry `"ok"` plus op-specific fields (see the crate docs for the
//! full vocabulary). Node identifiers travel as plain integers (dense
//! [`commalloc_mesh::NodeId`] indices).
//!
//! [`Request`] and [`Response`] are each one `wire!` table: a row per
//! variant gives its head and, per field, its Rust type and the wire
//! *kind* that writes and reads it. From the table the macro generates
//! the enum and both directions, and every back end runs off them:
//!
//! - **writing** ([`Emit`]) renders the fields, in row order, into a
//!   sink: JSON text for `to_line` and the server's NDJSON outbox, the
//!   binary tagged tree for binary frames, a [`Value`] for `to_value`.
//! - **reading** (`read`) takes the fields from any [`Node`]: a tape the
//!   JSON grammar or the binary decoder filled (`from_line`, both server
//!   framings) or a `&Value` (`from_value`). One body, so every error
//!   text is the same whichever way a message arrived.
//!
//! The journal's records, facts and images are tables of the same macro
//! (see [`crate::journal`]), so a field is spelled in one row wherever it
//! travels, and adding one is a one-row change.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

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

// ---------------------------------------------------------------------------
// The table's machinery: how a field travels, and the generator.
// ---------------------------------------------------------------------------

/// How one field travels: its writer and its reader, each written once.
/// A kind is a unit type named in a [`wire!`] row; the generated code
/// calls it with the field's key.
pub(crate) trait Kind<T> {
    /// Writes the field (or nothing) into the open object.
    fn emit<S: Sink>(s: &mut S, key: &str, value: &T);
    /// Reads the field from the object `v`.
    fn read<'a, F: Node<'a>>(v: F, key: &str) -> Result<T, Error>;
}

/// A value of one JSON kind, named in errors as `KIND`.
pub(crate) trait Scalar: Emit + Sized {
    /// The kind, as errors name it (`missing or non-string field ...`).
    const KIND: &'static str;
    /// The value, when `n` is of the kind.
    fn get<'a, F: Node<'a>>(n: F) -> Option<Self>;
}

/// The scalar kinds, plus a tree of any kind (an error's `detail`, a
/// poll's `explain`) and the array of trees `trace.decisions` is.
macro_rules! scalars {
    ($($ty:ty: $kind:literal, |$n:ident| $get:expr;)*) => {$(
        impl Scalar for $ty {
            const KIND: &'static str = $kind;
            fn get<'a, F: Node<'a>>($n: F) -> Option<Self> {
                $get
            }
        }
    )*};
}

scalars! {
    String: "string", |n| n.as_str().map(str::to_string);
    u64: "integer", |n| n.as_u64();
    usize: "integer", |n| n.as_u64().map(|n| n as usize);
    f64: "numeric", |n| n.as_f64();
    bool: "boolean", |n| n.as_bool();
    Value: "tree", |n| Some(n.to_value());
    Vec<Value>: "array", |n| n.items().map(|items| items.map(F::to_value).collect());
}

/// One element of an array field: its writer and its reader.
pub(crate) trait Item: Sized {
    /// Writes the element.
    fn put<S: Sink>(&self, s: &mut S);
    /// Reads the element.
    fn take<'a, F: Node<'a>>(n: F) -> Result<Self, Error>;
}

/// A processor: a plain integer id. A larger one than a [`NodeId`]
/// holds is an error, not an id wrapped onto some other processor.
impl Item for NodeId {
    fn put<S: Sink>(&self, s: &mut S) {
        s.u64(self.0 as u64);
    }
    fn take<'a, F: Node<'a>>(n: F) -> Result<Self, Error> {
        let id = n
            .as_u64()
            .ok_or_else(|| Error::msg("non-integer node id"))?;
        u32::try_from(id)
            .map(NodeId)
            .map_err(|_| Error::msg(format!("node id {id} out of range")))
    }
}

/// A tree, taken whole.
impl Item for Value {
    fn put<S: Sink>(&self, s: &mut S) {
        s.value(self);
    }
    fn take<'a, F: Node<'a>>(n: F) -> Result<Self, Error> {
        Ok(n.to_value())
    }
}

/// A grant: `{"job": id, "nodes": [...]}`.
impl Item for (u64, Vec<NodeId>) {
    fn put<S: Sink>(&self, s: &mut S) {
        s.begin_object();
        Req::emit(s, "job", &self.0);
        Array::emit(s, "nodes", &self.1);
        s.end_object();
    }
    fn take<'a, F: Node<'a>>(n: F) -> Result<Self, Error> {
        Ok((Req::read(n, "job")?, Array::read(n, "nodes")?))
    }
}

/// A type a [`wire!`] table declares: a message, whose fields follow its
/// head, or a fact, whose fields sit in whatever object holds it.
pub(crate) trait Fields: Sized {
    /// Writes the head (if any) and the fields into the open object.
    fn fields<S: Sink>(&self, s: &mut S);
    /// Reads the value from the object `v`.
    fn read_fields<'a, F: Node<'a>>(v: F) -> Result<Self, Error>;
}

#[cold]
fn missing(kind: &str, key: &str) -> Error {
    Error::msg(format!("missing or non-{kind} field {key:?}"))
}

#[cold]
fn mistyped(kind: &str, key: &str) -> Error {
    Error::msg(format!("non-{kind} field {key:?}"))
}

/// The field `key`, unless it is absent or `null`.
#[inline]
fn present<'a, F: Node<'a>>(v: F, key: &str) -> Option<F> {
    v.get(key).filter(|field| !field.is_null())
}

/// An optional field: absent or `null` is `None`, but a present value of
/// another kind is an error rather than a silent `None` (a mistyped
/// `"scheduler":5` must not quietly register an FCFS machine).
#[inline]
fn opt<'a, F: Node<'a>, T: Scalar>(v: F, key: &str) -> Result<Option<T>, Error> {
    present(v, key)
        .map(|field| T::get(field).ok_or_else(|| mistyped(T::KIND, key)))
        .transpose()
}

/// [`opt`] for a string read in place.
#[inline]
fn opt_text<'a, F: Node<'a>>(v: F, key: &str) -> Result<Option<&'a str>, Error> {
    present(v, key)
        .map(|field| field.as_str().ok_or_else(|| mistyped("string", key)))
        .transpose()
}

/// A required string, read in place (the heads' discriminators).
#[inline]
pub(crate) fn get_text<'a, F: Node<'a>>(v: F, key: &str) -> Result<&'a str, Error> {
    v.get(key)
        .and_then(F::as_str)
        .ok_or_else(|| missing("string", key))
}

/// The elements of the required array `key`, its absence reported as
/// `missing or non-array field "key"`.
pub(crate) fn array_items<'a, F: Node<'a>>(v: F, key: &str) -> Result<F::Items, Error> {
    v.get(key)
        .and_then(F::items)
        .ok_or_else(|| missing("array", key))
}

/// As [`array_items`], its absence reported as `missing "key" array`.
fn list_items<'a, F: Node<'a>>(v: F, key: &str) -> Result<F::Items, Error> {
    v.get(key)
        .and_then(F::items)
        .ok_or_else(|| Error::msg(format!("missing {key:?} array")))
}

/// Every element through [`Item::take`], into a vector allocated once:
/// both parsed forms know an array's length before its elements are read.
fn take_items<'a, F: Node<'a>, T: Item>(items: F::Items) -> Result<Vec<T>, Error> {
    let mut out = Vec::with_capacity(items.size_hint().0);
    for item in items {
        out.push(T::take(item)?);
    }
    Ok(out)
}

fn put_items<S: Sink, T: Item>(s: &mut S, key: &str, items: &[T]) {
    s.key(key);
    s.begin_array();
    for item in items {
        item.put(s);
    }
    s.end_array();
}

/// Required.
pub(crate) struct Req;

impl<T: Scalar> Kind<T> for Req {
    #[inline]
    fn emit<S: Sink>(s: &mut S, key: &str, value: &T) {
        s.entry(key, value);
    }
    #[inline]
    fn read<'a, F: Node<'a>>(v: F, key: &str) -> Result<T, Error> {
        v.get(key)
            .and_then(T::get)
            .ok_or_else(|| missing(T::KIND, key))
    }
}

/// Left out when `None`.
pub(crate) struct Opt;

impl<T: Scalar> Kind<Option<T>> for Opt {
    #[inline]
    fn emit<S: Sink>(s: &mut S, key: &str, value: &Option<T>) {
        s.opt_entry(key, value);
    }
    #[inline]
    fn read<'a, F: Node<'a>>(v: F, key: &str) -> Result<Option<T>, Error> {
        opt(v, key)
    }
}

/// `null` when `None`.
pub(crate) struct Null;

impl<T: Scalar> Kind<Option<T>> for Null {
    #[inline]
    fn emit<S: Sink>(s: &mut S, key: &str, value: &Option<T>) {
        s.entry(key, value);
    }
    #[inline]
    fn read<'a, F: Node<'a>>(v: F, key: &str) -> Result<Option<T>, Error> {
        opt(v, key)
    }
}

/// Always emitted; an absent key reads as the default.
pub(crate) struct Dflt;

impl<T: Scalar + Default> Kind<T> for Dflt {
    #[inline]
    fn emit<S: Sink>(s: &mut S, key: &str, value: &T) {
        s.entry(key, value);
    }
    #[inline]
    fn read<'a, F: Node<'a>>(v: F, key: &str) -> Result<T, Error> {
        Ok(opt(v, key)?.unwrap_or_default())
    }
}

/// Left out when it equals the default; an absent key reads as the
/// default.
pub(crate) struct Skip;

impl<T: Scalar + Default + PartialEq> Kind<T> for Skip {
    #[inline]
    fn emit<S: Sink>(s: &mut S, key: &str, value: &T) {
        if *value != T::default() {
            s.entry(key, value);
        }
    }
    #[inline]
    fn read<'a, F: Node<'a>>(v: F, key: &str) -> Result<T, Error> {
        Ok(opt(v, key)?.unwrap_or_default())
    }
}

/// A required array: `missing or non-array field "key"`.
pub(crate) struct Array;

impl<T: Item> Kind<Vec<T>> for Array {
    #[inline]
    fn emit<S: Sink>(s: &mut S, key: &str, value: &Vec<T>) {
        put_items(s, key, value);
    }
    #[inline]
    fn read<'a, F: Node<'a>>(v: F, key: &str) -> Result<Vec<T>, Error> {
        take_items::<F, T>(array_items(v, key)?)
    }
}

/// A required array whose absence reads `missing "key" array`.
pub(crate) struct List;

impl<T: Item> Kind<Vec<T>> for List {
    #[inline]
    fn emit<S: Sink>(s: &mut S, key: &str, value: &Vec<T>) {
        put_items(s, key, value);
    }
    #[inline]
    fn read<'a, F: Node<'a>>(v: F, key: &str) -> Result<Vec<T>, Error> {
        take_items::<F, T>(list_items(v, key)?)
    }
}

/// A fact whose fields sit in the object that holds it (its key is
/// not used).
pub(crate) struct Flat;

impl<T: Fields> Kind<T> for Flat {
    #[inline]
    fn emit<S: Sink>(s: &mut S, _key: &str, value: &T) {
        value.fields(s);
    }
    #[inline]
    fn read<'a, F: Node<'a>>(v: F, _key: &str) -> Result<T, Error> {
        T::read_fields(v)
    }
}

/// A tree of any kind, taken whole; required.
pub(crate) struct Tree;

impl Kind<Value> for Tree {
    fn emit<S: Sink>(s: &mut S, key: &str, value: &Value) {
        s.entry(key, value);
    }
    fn read<'a, F: Node<'a>>(v: F, key: &str) -> Result<Value, Error> {
        v.get(key)
            .map(F::to_value)
            .ok_or_else(|| Error::msg(format!("missing {key:?}")))
    }
}

/// The [`JobRef`] of a `release` or `poll`: a bare ref is the integer
/// it always was, a qualified one its `/`-joined string (parsed per
/// [`JobRef::parse_str`]). The `machine` beside it may be left out only
/// when the ref names its own.
pub(crate) struct Job;

impl Kind<JobRef> for Job {
    #[inline]
    fn emit<S: Sink>(s: &mut S, key: &str, value: &JobRef) {
        match value {
            JobRef::Bare(id) => s.entry(key, id),
            _ => s.entry(key, &value.to_string()),
        }
    }
    #[inline]
    fn read<'a, F: Node<'a>>(v: F, key: &str) -> Result<JobRef, Error> {
        let field = v
            .get(key)
            .ok_or_else(|| Error::msg(format!("missing field {key:?}")))?;
        let job = match field.as_str() {
            Some(text) => JobRef::parse_str(text)?,
            None => field.as_u64().map(JobRef::Bare).ok_or_else(|| {
                Error::msg("job ref must be an integer id or a \"pool/machine/id\" string")
            })?,
        };
        if job.machine().is_none() && present(v, "machine").is_none() {
            let op = v.get("op").and_then(F::as_str).unwrap_or_default();
            return Err(Error::msg(format!(
                "{op} needs a \"machine\" or a qualified job ref"
            )));
        }
        Ok(job)
    }
}

/// A communication pattern, by its canonical name, validated against
/// the known names: an unknown name is a parse error rather than a
/// silently pattern-oblivious job. Left out when `None`.
pub(crate) struct Pattern;

impl Kind<Option<CommPattern>> for Pattern {
    #[inline]
    fn emit<S: Sink>(s: &mut S, key: &str, value: &Option<CommPattern>) {
        s.opt_entry(key, &value.map(|p| p.name()));
    }
    #[inline]
    fn read<'a, F: Node<'a>>(v: F, key: &str) -> Result<Option<CommPattern>, Error> {
        opt_text(v, key)?
            .map(|name| {
                CommPattern::parse(name)
                    .ok_or_else(|| Error::msg(format!("unknown communication pattern {name:?}")))
            })
            .transpose()
    }
}

/// The single boundary rule on walltime estimates: when present, an
/// estimate must be a finite, positive number of seconds. Every
/// validation site — the wire reader ([`Walltime`]), the typed client,
/// the live `allocate` path and the journal-restore fold — consults this
/// one predicate, so the rule cannot drift between layers.
pub(crate) fn walltime_is_valid(w: f64) -> bool {
    w.is_finite() && w > 0.0
}

/// A number that must satisfy [`Bound::holds`] when present, or be
/// refused as `field "key" must be {WHAT}, got {x}`. Left out when
/// `None`. JSON itself cannot spell `NaN`, but it can spell `1e999`
/// (which parses to infinity) and `0` / negatives, none of which may
/// reach the reservation or fair-share math.
pub(crate) trait Bound {
    /// What the number must be, as the error says it.
    const WHAT: &'static str;
    /// Whether `x` is acceptable.
    fn holds(x: f64) -> bool;
}

impl<B: Bound> Kind<Option<f64>> for B {
    #[inline]
    fn emit<S: Sink>(s: &mut S, key: &str, value: &Option<f64>) {
        s.opt_entry(key, value);
    }
    #[inline]
    fn read<'a, F: Node<'a>>(v: F, key: &str) -> Result<Option<f64>, Error> {
        match opt(v, key)? {
            Some(x) if !B::holds(x) => Err(Error::msg(format!(
                "field {key:?} must be {}, got {x}",
                B::WHAT
            ))),
            other => Ok(other),
        }
    }
}

/// A walltime estimate, gated on [`walltime_is_valid`].
pub(crate) struct Walltime;

impl Bound for Walltime {
    const WHAT: &'static str = "a finite, positive number of seconds";
    fn holds(w: f64) -> bool {
        walltime_is_valid(w)
    }
}

/// A fair-share weight: finite and positive.
pub(crate) struct Weight;

impl Bound for Weight {
    const WHAT: &'static str = "a finite, positive number";
    fn holds(w: f64) -> bool {
        w.is_finite() && w > 0.0
    }
}

/// A node-second quota: finite and non-negative.
pub(crate) struct Quota;

impl Bound for Quota {
    const WHAT: &'static str = "a finite, non-negative number of node-seconds";
    fn holds(q: f64) -> bool {
        q.is_finite() && q >= 0.0
    }
}

/// The `metrics` format: `"json"` or `"prometheus"`. Always emitted;
/// an absent key reads as `"json"`.
pub(crate) struct Format;

impl Kind<String> for Format {
    fn emit<S: Sink>(s: &mut S, key: &str, value: &String) {
        s.entry(key, value);
    }
    fn read<'a, F: Node<'a>>(v: F, key: &str) -> Result<String, Error> {
        match opt_text(v, key)?.unwrap_or("json") {
            format @ ("json" | "prometheus") => Ok(format.to_string()),
            other => Err(Error::msg(format!(
                "unknown metrics format {other:?} (expected \"json\" or \"prometheus\")"
            ))),
        }
    }
}

/// The `metrics` window: `"10s"` or `"60s"`. Left out when `None`.
pub(crate) struct Window;

impl Kind<Option<String>> for Window {
    fn emit<S: Sink>(s: &mut S, key: &str, value: &Option<String>) {
        s.opt_entry(key, value);
    }
    fn read<'a, F: Node<'a>>(v: F, key: &str) -> Result<Option<String>, Error> {
        match opt_text(v, key)? {
            Some(w) if w != "10s" && w != "60s" => Err(Error::msg(format!(
                "unknown metrics window {w:?} (expected \"10s\" or \"60s\")"
            ))),
            w => Ok(w.map(str::to_string)),
        }
    }
}

/// A promised start: only a finite one travels, since JSON cannot spell
/// the infinity an unplannable reservation would need (and the explain
/// already marks that case). Left out when `None`.
pub(crate) struct Finite;

impl Kind<Option<f64>> for Finite {
    #[inline]
    fn emit<S: Sink>(s: &mut S, key: &str, value: &Option<f64>) {
        s.opt_entry(key, &value.filter(|t| t.is_finite()));
    }
    #[inline]
    fn read<'a, F: Node<'a>>(v: F, key: &str) -> Result<Option<f64>, Error> {
        opt(v, key)
    }
}

/// The members of a `batch`, read as a [`List`]; batches do not nest.
pub(crate) struct Unnested;

impl Kind<Vec<Request>> for Unnested {
    fn emit<S: Sink>(s: &mut S, key: &str, value: &Vec<Request>) {
        List::emit(s, key, value);
    }
    fn read<'a, F: Node<'a>>(v: F, key: &str) -> Result<Vec<Request>, Error> {
        let requests: Vec<Request> = List::read(v, key)?;
        if requests.iter().any(|r| matches!(r, Request::Batch(_))) {
            return Err(Error::msg("batches do not nest"));
        }
        Ok(requests)
    }
}

/// Machine names, read as a [`List`] of strings.
pub(crate) struct Names;

impl Kind<Vec<String>> for Names {
    fn emit<S: Sink>(s: &mut S, key: &str, value: &Vec<String>) {
        s.entry(key, value);
    }
    fn read<'a, F: Node<'a>>(v: F, key: &str) -> Result<Vec<String>, Error> {
        list_items(v, key)?
            .map(|name| {
                name.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| Error::msg("non-string machine name"))
            })
            .collect()
    }
}

/// Generates a message enum or a fact struct from a table with one row
/// per variant (or field): the type itself, every doc comment kept, and
/// its [`Fields`] and [`Item`] impls — the writer into any [`Sink`] and
/// the reader from any [`Node`]. Nothing else spells a field.
///
/// A variant's row is its docs, its name, its **head** in brackets, then
/// its fields: `{ ... }` for named fields, `("key": Type => Kind)` for
/// a one-field tuple variant (`_` for a [`Flat`] one), nothing for a
/// unit variant. The heads:
///
/// - `[op "alloc"]`: a request, `"op":"alloc"` first;
/// - `[ok "release"]`: a successful response, `"ok":true,"op":"release"`;
///   `[ok "alloc" status "granted"]` adds `"status":"granted"` (the three
///   `alloc` answers; the three `poll` answers use `state`);
/// - `[ok false]`: the error response, `"ok":false`;
/// - `[rec "grant"]`: a journal record (whose caller writes `"seq"`).
///
/// A fact is a struct whose rows are its fields (all `pub`). A field's
/// row is its docs, its name, `= "key"` when the wire key is not the
/// name, its Rust type, and its **kind**, which says how it travels.
/// Fields are written, and read, in row order. The kinds:
///
/// - [`Req`] — required;
/// - [`Opt`] — left out when `None`;
/// - [`Null`] — `null` when `None` (the journal's `walltime`,
///   `allocator`, `clock`);
/// - [`Dflt`] — always emitted, but an absent key reads as the default
///   (`alloc.wait`, `trace.decisions`);
/// - [`Skip`] — left out when it equals the default, and an absent key
///   reads as the default (`trace.clear`, `fair_share`, `held`);
/// - [`Array`] and [`List`] — an array of [`Item`]s, the two differing
///   only in how a missing one is reported; [`Flat`] — a fact whose
///   fields sit in the holding object;
/// - custom, one reader/writer pair each: [`Job`] (a [`JobRef`] and the
///   machine-or-qualified-ref rule), [`Pattern`] (by name),
///   [`Walltime`], [`Weight`] and [`Quota`] (validated numbers),
///   [`Format`] (always emitted, absent reads `"json"`) and [`Window`]
///   (the `metrics` sets), [`Finite`] (`reserved_start`), [`Tree`] (a
///   required tree-valued field; an optional one is [`Opt`]),
///   [`Unnested`] (a `batch` and its no-nesting rule), [`Names`], and
///   the journal's `Members` and `Tenants` (snapshot `tenants`: left
///   out when empty).
///
/// A kind is a unit type implementing [`Kind`] for the field's type, so
/// a new kind is one impl and a new field is one row.
macro_rules! wire {
    // The wire key of a field: its name, unless the row gives one.
    (@key _) => { "" };
    (@key $key:literal) => { $key };
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (@bind $key:tt $name:ident) => { $name };

    // One field, written or read by its kind.
    (@put $s:ident $value:expr, $ty:ty => $kind:ty, $($key:tt)+) => {
        <$kind as $crate::protocol::Kind<$ty>>::emit($s, $crate::protocol::wire!(@key $($key)+), $value)
    };
    (@get $v:ident $ty:ty => $kind:ty, $($key:tt)+) => {
        <$kind as $crate::protocol::Kind<$ty>>::read($v, $crate::protocol::wire!(@key $($key)+))?
    };

    // A head, written.
    (@head $s:ident ok false) => { $s.entry("ok", &false); };
    (@head $s:ident ok $name:literal $($sub:ident $value:literal)?) => {
        $s.entry("ok", &true);
        $s.entry("op", $name);
        $( $s.entry(stringify!($sub), $value); )?
    };
    (@head $s:ident $tag:ident $name:literal) => { $s.entry(stringify!($tag), $name); };

    // A head, as the pattern of the tag that `@tag` reads.
    (@pat ok false) => { (false, _, _) };
    (@pat ok $name:literal) => { (true, $name, None) };
    (@pat ok $name:literal $sub:ident $value:literal) => { (true, $name, Some((_, $value))) };
    (@pat $tag:ident $name:literal) => { $name };

    // The tag of the object `v`, by the family of the first head: the
    // `op` of a request, the `rec` of a record, or for a response its
    // `ok`, `op` and (for the rows that have one) `status` or `state`.
    (@tag $v:ident [$([ok $($head:tt)*])*]) => {
        match $v.get("ok").and_then(|ok| ok.as_bool()) {
            None => return Err(::serde::Error::msg("missing \"ok\" field")),
            Some(false) => (false, "", None),
            Some(true) => {
                let op = $crate::protocol::get_text($v, "op")?;
                let mut sub = None;
                $( $crate::protocol::wire!(@sub $v op sub ok $($head)*); )*
                (true, op, sub)
            }
        }
    };
    (@sub $v:ident $op:ident $sub:ident ok $name:literal $key:ident $value:literal) => {
        if $sub.is_none() && $op == $name {
            $sub = Some((stringify!($key), $crate::protocol::get_text($v, stringify!($key))?));
        }
    };
    (@sub $($other:tt)*) => {};
    (@tag $v:ident [[$tag:ident $($x:tt)*] $($heads:tt)*]) => {
        $crate::protocol::get_text($v, stringify!($tag))?
    };

    // The error for a tag no row has.
    (@unknown $other:ident [[op $($x:tt)*] $($heads:tt)*]) => {
        ::serde::Error::msg(format!("unknown op {:?}", $other))
    };
    (@unknown $other:ident [[rec $($x:tt)*] $($heads:tt)*]) => {
        ::serde::Error::msg(format!("unknown record kind {:?}", $other))
    };
    (@unknown $other:ident $heads:tt) => {
        match $other {
            (_, op, Some((key, value))) => {
                ::serde::Error::msg(format!("unknown {op} {key} {value:?}"))
            }
            (_, op, None) => ::serde::Error::msg(format!("unknown response op {op:?}")),
        }
    };

    // A wire message's public codec (a journal record's takes its `seq`).
    (@api $Enum:ident [[rec $($x:tt)*] $($heads:tt)*]) => {};
    (@api $Enum:ident $heads:tt) => {
        impl ::serde_json::Emit for $Enum {
            fn emit<S: ::serde_json::Sink>(&self, s: &mut S) {
                $crate::protocol::Item::put(self, s);
            }
        }

        impl $Enum {
            /// Reads the message from its wire value, in whichever parsed form.
            pub fn read<'a, F: ::serde_json::Node<'a>>(v: F) -> Result<Self, ::serde::Error> {
                $crate::protocol::Fields::read_fields(v)
            }

            /// Parses the message from its wire value.
            pub fn from_value(v: &::serde::Value) -> Result<Self, ::serde::Error> {
                Self::read(v)
            }

            /// Parses the message from one wire line.
            pub fn from_line(line: &str) -> Result<Self, ::serde::Error> {
                ::serde_json::with_parsed(line, |root| Self::read(root))
            }

            /// Renders the message as its wire value.
            pub fn to_value(&self) -> ::serde::Value {
                ::serde_json::emit_to_value(self)
            }

            /// Renders the message as one wire line (no trailing newline).
            pub fn to_line(&self) -> String {
                ::serde_json::emit_to_string(self)
            }
        }
    };

    // A table type as an array element: one object.
    (@item $T:ident) => {
        impl $crate::protocol::Item for $T {
            #[inline]
            fn put<S: ::serde_json::Sink>(&self, s: &mut S) {
                s.begin_object();
                $crate::protocol::Fields::fields(self, s);
                s.end_object();
            }
            #[inline]
            fn take<'a, F: ::serde_json::Node<'a>>(n: F) -> Result<Self, ::serde::Error> {
                <$T as $crate::protocol::Fields>::read_fields(n)
            }
        }
    };

    // A fact: a struct whose fields sit in whatever object holds it.
    (
        $(#[$meta:meta])*
        $vis:vis struct $Name:ident {
            $( $(#[$fmeta:meta])* $f:ident $(= $key:literal)? : $ty:ty => $kind:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $Name {
            $( $(#[$fmeta])* pub $f: $ty, )*
        }

        impl $crate::protocol::Fields for $Name {
            #[inline]
            fn fields<S: ::serde_json::Sink>(&self, s: &mut S) {
                $( $crate::protocol::wire!(@put s &self.$f, $ty => $kind, $f $($key)?); )*
            }

            #[inline]
            #[deny(clippy::unwrap_used, clippy::expect_used)]
            fn read_fields<'a, F: ::serde_json::Node<'a>>(v: F) -> Result<Self, ::serde::Error> {
                Ok($Name {
                    $( $f: $crate::protocol::wire!(@get v $ty => $kind, $f $($key)?), )*
                })
            }
        }

        $crate::protocol::wire!(@item $Name);
    };

    // A message enum: one row per variant.
    (
        $(#[$meta:meta])*
        $vis:vis enum $Enum:ident {
            $(
                $(#[$vmeta:meta])*
                $V:ident [$($head:tt)*]
                $( ($tkey:tt : $tty:ty => $tkind:ty) )?
                $( {
                    $( $(#[$fmeta:meta])* $f:ident $(= $key:literal)? : $ty:ty => $kind:ty ),*
                    $(,)?
                } )?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $Enum {
            $(
                $(#[$vmeta])*
                $V $( ($tty) )? $( { $( $(#[$fmeta])* $f: $ty, )* } )?,
            )*
        }

        impl $crate::protocol::Fields for $Enum {
            #[inline]
            fn fields<S: ::serde_json::Sink>(&self, s: &mut S) {
                match self {
                    $(
                        $Enum::$V $( ($crate::protocol::wire!(@bind $tkey value)) )?
                            $( { $($f),* } )? => {
                            $crate::protocol::wire!(@head s $($head)*);
                            $( $crate::protocol::wire!(@put s value, $tty => $tkind, $tkey); )?
                            $($( $crate::protocol::wire!(@put s $f, $ty => $kind, $f $($key)?); )*)?
                        }
                    )*
                }
            }

            #[inline]
            #[deny(clippy::unwrap_used, clippy::expect_used)]
            fn read_fields<'a, F: ::serde_json::Node<'a>>(v: F) -> Result<Self, ::serde::Error> {
                Ok(match $crate::protocol::wire!(@tag v [$([$($head)*])*]) {
                    $(
                        $crate::protocol::wire!(@pat $($head)*) => $Enum::$V
                            $( ($crate::protocol::wire!(@get v $tty => $tkind, $tkey)) )?
                            $( { $(
                                $f: $crate::protocol::wire!(@get v $ty => $kind, $f $($key)?),
                            )* } )?,
                    )*
                    other => {
                        return Err($crate::protocol::wire!(@unknown other [$([$($head)*])*]))
                    }
                })
            }
        }

        $crate::protocol::wire!(@item $Enum);
        $crate::protocol::wire!(@api $Enum [$([$($head)*])*]);
    };
}

pub(crate) use wire;

// ---------------------------------------------------------------------------
// The tables.
// ---------------------------------------------------------------------------

wire! {
    /// A client request.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request {
        /// Register a machine. `mesh` is `"WxH"` (2-D) or `"WxHxD"` (3-D);
        /// `allocator` names an [`commalloc_alloc::AllocatorKind`] (2-D) or a
        /// 3-D curve kind; `strategy` names a selection strategy (3-D only);
        /// `scheduler` names a scheduling policy (`"fcfs"`, `"backfill"`,
        /// `"easy"`, `"conservative"` or a full `SchedulerKind` name).
        Register [op "register"] {
            /// Machine name.
            machine: String => Req,
            /// Mesh dimension spec.
            mesh: String => Req,
            /// Allocator (2-D) or curve (3-D) spec; `None` = default.
            allocator: Option<String> => Opt,
            /// Selection strategy spec (3-D); `None` = Best Fit.
            strategy: Option<String> => Opt,
            /// Scheduling-policy spec; `None` = FCFS (the paper's policy).
            scheduler: Option<String> => Opt,
            /// Pool to join (cluster routing); `None` = standalone machine.
            pool: Option<String> => Opt,
        },
        /// Allocate `size` processors for `job` on `machine`; `wait` queues
        /// the request when it cannot be served immediately (admission is
        /// governed by the machine's scheduling policy). A machine of
        /// `"@pool"` routes the request across the pool's members under the
        /// pool's [`crate::cluster::RoutingPolicy`]; the response then names
        /// the machine that took the job.
        Alloc [op "alloc"] {
            /// Machine name, or `"@pool"` for cluster routing.
            machine: String => Req,
            /// Job identifier (client-chosen, unique per machine).
            job: u64 => Req,
            /// Number of processors.
            size: usize => Req,
            /// Queue instead of rejecting on capacity shortfall.
            wait: bool => Dflt,
            /// Runtime estimate in seconds (the reservation input of EASY
            /// and conservative backfilling; FCFS/first-fit ignore it).
            /// Must be finite and positive when present — the wire parser
            /// and the service both reject anything else.
            walltime: Option<f64> => Walltime,
            /// Declared communication pattern of the job (travels as the
            /// pattern's canonical name, e.g. `"all-to-all"`). Feeds the
            /// communication-aware routing policy and the allocator's
            /// contention-scored placement; `None` = pattern-oblivious.
            pattern: Option<CommPattern> => Pattern,
            /// Tenant the job is attributed to. `None` inherits the
            /// connection's `hello` binding (or the default tenant).
            tenant: Option<String> => Opt,
        },
        /// Switch the scheduling policy of a machine at runtime.
        SetScheduler [op "set_scheduler"] {
            /// Machine name.
            machine: String => Req,
            /// Scheduling-policy spec (same grammar as `Register`).
            scheduler: String => Req,
        },
        /// Switch the routing policy of a machine pool at runtime.
        SetRouter [op "set_router"] {
            /// Pool name (without the `@` sigil).
            pool: String => Req,
            /// Routing-policy spec (`round-robin`/`rr`, `least-loaded`/`ll`,
            /// `shortest-queue`/`sq`, `power-of-two`/`p2c`).
            policy: String => Req,
        },
        /// Release the processors of `job` (or cancel it while queued).
        /// `machine` may be a member name or `"@pool"` (the pool job
        /// index resolves a bare id to its owning member); it may be
        /// omitted entirely when the [`JobRef`] is qualified.
        Release [op "release"] {
            /// Machine name or `"@pool"`; `None` iff `job` names its
            /// machine itself.
            machine: Option<String> => Opt,
            /// The job, in any [`JobRef`] form.
            job: JobRef => Job,
        },
        /// Ask where `job` currently stands. Addressing rules match
        /// [`Request::Release`].
        Poll [op "poll"] {
            /// Machine name or `"@pool"`; `None` iff `job` names its
            /// machine itself.
            machine: Option<String> => Opt,
            /// The job, in any [`JobRef`] form.
            job: JobRef => Job,
        },
        /// Bind this connection to a tenant: subsequent requests without
        /// an explicit `tenant` field are attributed to it. Creates the
        /// tenant (with default weight, no quota) when unknown.
        Hello [op "hello"] {
            /// Tenant name.
            tenant: String => Req,
        },
        /// Create or reconfigure a tenant: fair-share weight, node-second
        /// quota, in-flight wire cap. Omitted fields keep their current
        /// values (or the defaults for a new tenant); the resulting
        /// configuration is journaled absolutely.
        SetTenant [op "set_tenant"] {
            /// Tenant name.
            tenant: String => Req,
            /// Fair-share weight (finite, positive).
            weight: Option<f64> => Weight,
            /// Node-second quota; `0` clears it back to unlimited.
            quota: Option<f64> => Quota,
            /// In-flight wire request cap; `0` clears it.
            max_in_flight: Option<u64> => Opt,
        },
        /// The tenant table: configuration plus live usage per tenant.
        Tenants [op "tenants"],
        /// Toggle the weighted fair-share admission layer of a machine:
        /// while enabled, each queue drain first re-orders the pending
        /// queue by tenant fair-share key (outstanding node-seconds over
        /// weight, ties by arrival). Orthogonal to the scheduling policy.
        SetFairShare [op "set_fair_share"] {
            /// Machine name.
            machine: String => Req,
            /// Desired fair-share state.
            enabled: bool => Req,
        },
        /// Occupancy snapshot of a machine.
        Query [op "query"] {
            /// Machine name.
            machine: String => Req,
        },
        /// Operation counters of a machine (plus server totals).
        Stats [op "stats"] {
            /// Machine name.
            machine: String => Req,
        },
        /// Operational counters of the write-ahead journal (recovery epoch,
        /// appended records, segments, fsync policy); answers
        /// `{"enabled": false}` on a daemon running without `--journal`.
        JournalStats [op "journal_stats"],
        /// Toggle the flight recorder (and optionally the placement
        /// calibration plane) at runtime. While off, request handling pays
        /// one relaxed atomic load per plane and emits nothing.
        SetTrace [op "set_trace"] {
            /// Desired recorder state.
            enabled: bool => Req,
            /// Desired calibration-plane state; `None` leaves it unchanged
            /// (the planes toggle independently).
            calibration: Option<bool> => Opt,
        },
        /// Drain the flight recorder: recent span events across all ring
        /// shards, merged in start-time order, plus buffered routing
        /// decisions.
        Trace [op "trace"] {
            /// Keep only the most recent `limit` events; `None` = all.
            limit: Option<usize> => Opt,
            /// Reset the rings (and drop counters) after reading.
            clear: bool => Skip,
        },
        /// Stage-latency histograms and machine counters, as JSON
        /// (`format: "json"`, the default) or a Prometheus-style text
        /// exposition (`format: "prometheus"`).
        Metrics [op "metrics"] {
            /// `"json"` or `"prometheus"` (validated at parse time).
            format: String => Format,
            /// Restrict stage and pool histograms to a trailing time
            /// window: `"10s"` or `"60s"` (validated at parse time);
            /// `None` = cumulative since boot.
            window: Option<String> => Window,
        },
        /// The placement calibration report: per-pattern × per-policy
        /// predicted-vs-realized histograms and rank correlations, joined
        /// at release time.
        Calibration [op "calibration"],
        /// Names of all registered machines.
        List [op "list"],
        /// Liveness check.
        Ping [op "ping"],
        /// Several requests on one wire line, answered by one
        /// [`Response::Batch`] in the same order — the round-trip saver for
        /// closed-loop clients. Batches do not nest.
        Batch [op "batch"] ("requests": Vec<Request> => Unnested),
    }
}

wire! {
    /// A server response.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response {
        /// The request failed (unknown machine, duplicate job, parse
        /// error, ...).
        Error [ok false] {
            /// Human-readable reason.
            message = "error": String => Req,
            /// Machine-readable error class for errors clients are
            /// expected to branch on (`"quota_exceeded"`,
            /// `"ambiguous_job"`); absent for garden-variety failures.
            code: Option<String> => Opt,
            /// Structured detail for coded errors (e.g. `usage`/`limit`
            /// for quota denials, the owning `machines` for collisions).
            detail: Option<Value> => Opt,
        },
        /// Registration succeeded.
        Registered [ok "register"] {
            /// Machine name.
            machine: String => Req,
        },
        /// Allocation granted immediately.
        Granted [ok "alloc" status "granted"] {
            /// Job identifier.
            job: u64 => Req,
            /// Granted processors, in rank order.
            nodes: Vec<NodeId> => Array,
            /// The machine that took the job — present exactly when the
            /// request was routed through a pool (`"@pool"` address).
            machine: Option<String> => Opt,
        },
        /// Allocation queued (FCFS).
        Queued [ok "alloc" status "queued"] {
            /// Job identifier.
            job: u64 => Req,
            /// 1-based queue position at enqueue time.
            position: usize => Req,
            /// The machine the job queues on (pool-routed requests only).
            machine: Option<String> => Opt,
        },
        /// Allocation rejected (no capacity, `wait` unset).
        Rejected [ok "alloc" status "rejected"] {
            /// Job identifier.
            job: u64 => Req,
            /// Human-readable reason.
            reason: String => Req,
            /// The machine that rejected the job (pool-routed requests only).
            machine: Option<String> => Opt,
        },
        /// Release succeeded; `granted` lists jobs admitted from the queue.
        Released [ok "release"] {
            /// The released (or cancelled) job.
            job: u64 => Req,
            /// Jobs granted from the queue by this release, in grant order.
            granted: Vec<(u64, Vec<NodeId>)> => List,
            /// The machine the job was resolved to — present exactly when
            /// the request addressed a pool or a qualified [`JobRef`].
            machine: Option<String> => Opt,
        },
        /// The scheduling policy was switched; `granted` lists jobs the
        /// re-drain admitted from the queue.
        SchedulerSet [ok "set_scheduler"] {
            /// Machine name.
            machine: String => Req,
            /// Canonical name of the now-active policy.
            scheduler: String => Req,
            /// Jobs granted by the policy switch, in grant order.
            granted: Vec<(u64, Vec<NodeId>)> => List,
        },
        /// The routing policy of a pool was switched.
        RouterSet [ok "set_router"] {
            /// Pool name.
            pool: String => Req,
            /// Canonical name of the now-active routing policy.
            policy: String => Req,
        },
        /// Poll result: the job runs on these processors.
        Running [ok "poll" state "running"] {
            /// Job identifier.
            job: u64 => Req,
            /// The processors the job holds.
            nodes: Vec<NodeId> => Array,
            /// The machine the job was resolved to (pool-addressed and
            /// qualified-ref polls only).
            machine: Option<String> => Opt,
        },
        /// Poll result: the job waits at this 1-based position.
        Waiting [ok "poll" state "queued"] {
            /// Job identifier.
            job: u64 => Req,
            /// 1-based queue position.
            position: usize => Req,
            /// The start time the scheduler currently promises the job
            /// (service clock), when the policy plans one and it is finite:
            /// conservative backfilling reserves a start for every queued
            /// job, EASY for the head. Absent under FCFS/first-fit and for
            /// unplannable reservations.
            reserved_start: Option<f64> => Finite,
            /// Machine-readable explanation of what blocks the job right
            /// now (`code`, `detail`, and optionally `blocking_job` /
            /// `until` — the rendering of a scheduler
            /// [`commalloc::scheduler::BlockReason`]).
            explain: Option<Value> => Opt,
            /// The machine the job was resolved to (pool-addressed and
            /// qualified-ref polls only).
            machine: Option<String> => Opt,
        },
        /// Poll result: the job is not present.
        Unknown [ok "poll" state "unknown"] {
            /// Job identifier.
            job: u64 => Req,
        },
        /// The connection is now bound to a tenant.
        Hello [ok "hello"] {
            /// The bound tenant.
            tenant: String => Req,
        },
        /// A tenant was created or reconfigured.
        TenantSet [ok "set_tenant"] {
            /// Tenant name.
            tenant: String => Req,
            /// The now-active fair-share weight.
            weight: f64 => Req,
            /// The now-active node-second quota, if any.
            quota: Option<f64> => Opt,
            /// The now-active in-flight cap, if any.
            max_in_flight: Option<u64> => Opt,
        },
        /// The tenant table (configuration plus live usage, rendered as
        /// one object per tenant, sorted by name).
        Tenants [ok "tenants"] ("tenants": Value => Tree),
        /// The fair-share admission layer of a machine was toggled;
        /// `granted` lists jobs the re-drain admitted from the queue.
        FairShareSet [ok "set_fair_share"] {
            /// Machine name.
            machine: String => Req,
            /// The fair-share state after the toggle.
            enabled: bool => Req,
            /// Jobs granted by the toggle's re-drain, in grant order.
            granted: Vec<(u64, Vec<NodeId>)> => List,
        },
        /// Occupancy snapshot (the `MachineSnapshot` serialised fields).
        Snapshot [ok "query"] ("snapshot": Value => Tree),
        /// Counter snapshot.
        Stats [ok "stats"] ("stats": Value => Tree),
        /// Journal counter snapshot.
        JournalStats [ok "journal_stats"] ("journal": Value => Tree),
        /// The flight recorder was toggled.
        TraceSet [ok "set_trace"] {
            /// The recorder state after the toggle.
            enabled: bool => Req,
        },
        /// Drained flight-recorder events (each rendered per
        /// [`crate::trace::FlightRecorder::event_to_value`]).
        Trace [ok "trace"] {
            /// Whether the recorder is currently enabled.
            enabled: bool => Req,
            /// Events overwritten in the rings before this drain.
            dropped: u64 => Req,
            /// Span events in start-time order.
            events: Vec<Value> => List,
            /// Buffered routing-decision records, oldest first (drained and
            /// cleared together with the span rings). Absent on lines from
            /// pre-calibration daemons, which read as an empty drain.
            decisions: Vec<Value> => Dflt,
        },
        /// The placement calibration report.
        Calibration [ok "calibration"] ("calibration": Value => Tree),
        /// Metrics export: `metrics` is a JSON object for `format: "json"`,
        /// a string holding the text exposition for `format: "prometheus"`.
        Metrics [ok "metrics"] {
            /// The format the payload is in.
            format: String => Req,
            /// The payload.
            metrics: Value => Tree,
        },
        /// Registered machine names.
        Machines [ok "list"] ("machines": Vec<String> => Names),
        /// Liveness answer.
        Pong [ok "pong"],
        /// Per-request answers to a [`Request::Batch`], in request order.
        Batch [ok "batch"] ("responses": Vec<Response> => List),
    }
}

impl Response {
    /// An error answer that carries only a message.
    pub(crate) fn error(message: impl Into<String>) -> Response {
        Response::Error {
            message: message.into(),
            code: None,
            detail: None,
        }
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
