//! Command-line parsing for the `commalloc` driver.
//!
//! **One row per flag.** Each subcommand has a table of [`Flag`] rows: the
//! flag's name, the placeholder its value shows as in the usage text
//! (`None` marks a switch, which takes no value), and a setter that parses
//! the value into the subcommand's options and answers whether it was
//! acceptable. [`parse_flags`] walks one table over an argument list;
//! [`parse_command`] dispatches on the subcommand and then applies the
//! rules that relate two flags (`--router` needs `--pool`, ...), which are
//! rules, not rows. The flag lists of [`usage`] are generated from the
//! same tables, so help cannot drift from the parser. Parsing is pure: an
//! argument vector maps to a [`Command`] or a [`ParseError`], which keeps
//! every flag combination unit-testable. The bench binaries declare their
//! own small tables on the same parser.

use crate::loadgen::LoadgenConfig;
use commalloc::prelude::*;
use commalloc::scheduler::SchedulerKind as Scheduler;
use commalloc_service::{
    parse_dims, validate_tenant_name, Framing, FsyncPolicy, JobRef, RoutingPolicy,
};
use std::fmt::{self, Write as _};
use std::str::FromStr;

/// Errors produced while parsing the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// No subcommand was given.
    MissingCommand,
    /// The subcommand is not one of the known ones.
    UnknownCommand(String),
    /// A flag is not recognised by the chosen subcommand.
    UnknownFlag(String),
    /// A flag was given without its required value.
    MissingValue(String),
    /// A flag value could not be interpreted.
    InvalidValue { flag: String, value: String },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::MissingCommand => write!(f, "missing subcommand; try `commalloc help`"),
            ParseError::UnknownCommand(c) => write!(f, "unknown subcommand {c:?}"),
            ParseError::UnknownFlag(flag) => write!(f, "unknown flag {flag:?}"),
            ParseError::MissingValue(flag) => write!(f, "flag {flag:?} needs a value"),
            ParseError::InvalidValue { flag, value } => {
                write!(f, "invalid value {value:?} for flag {flag:?}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Where the daemon listens, and its clients connect, unless `--addr`
/// says otherwise.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7411";

/// Options shared by the simulation-driving subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateOptions {
    /// The machine.
    pub mesh: Mesh2D,
    /// Communication pattern.
    pub pattern: CommPattern,
    /// Allocation algorithm.
    pub allocator: AllocatorKind,
    /// Scheduling policy.
    pub scheduler: Scheduler,
    /// Load factor applied to the trace arrivals.
    pub load: f64,
    /// Number of synthetic jobs (6087 reproduces the full trace length).
    pub jobs: usize,
    /// RNG seed for trace generation and pattern realisation.
    pub seed: u64,
    /// Optional SWF file to replay instead of the synthetic trace.
    pub swf: Option<String>,
    /// Emit machine-readable JSON instead of the human-readable summary.
    pub json: bool,
}

impl Default for SimulateOptions {
    fn default() -> Self {
        SimulateOptions {
            mesh: Mesh2D::square_16x16(),
            pattern: CommPattern::AllToAll,
            allocator: AllocatorKind::HilbertBestFit,
            scheduler: Scheduler::Fcfs,
            load: 1.0,
            jobs: 400,
            seed: 1996,
            swf: None,
            json: false,
        }
    }
}

/// Options of the `sweep` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOptions {
    /// The machine.
    pub mesh: Mesh2D,
    /// Patterns to sweep (defaults to the paper's three).
    pub patterns: Vec<CommPattern>,
    /// Allocators to sweep (defaults to the paper's nine).
    pub allocators: Vec<AllocatorKind>,
    /// Load factors to sweep.
    pub loads: Vec<f64>,
    /// Number of synthetic jobs.
    pub jobs: usize,
    /// RNG seed.
    pub seed: u64,
    /// Emit JSON.
    pub json: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            mesh: Mesh2D::square_16x16(),
            patterns: CommPattern::paper_patterns().to_vec(),
            allocators: AllocatorKind::paper_set().to_vec(),
            loads: vec![1.0, 0.8, 0.6, 0.4, 0.2],
            jobs: 400,
            seed: 1996,
            json: false,
        }
    }
}

/// Options of the `curves` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct CurvesOptions {
    /// The machine.
    pub mesh: Mesh2D,
    /// Curve to render; `None` renders all of them.
    pub curve: Option<CurveKind>,
    /// Window size for the locality statistics.
    pub window: usize,
}

impl Default for CurvesOptions {
    fn default() -> Self {
        CurvesOptions {
            mesh: Mesh2D::square_16x16(),
            curve: None,
            window: 16,
        }
    }
}

/// Options of the `trace` subcommand. Two modes share the name: the
/// offline mode (no `--addr`) analyses a workload trace; the online
/// mode (`--addr`) drains the daemon's flight recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOptions {
    /// Number of synthetic jobs.
    pub jobs: usize,
    /// RNG seed.
    pub seed: u64,
    /// Optional SWF file to analyse instead of the synthetic trace.
    pub swf: Option<String>,
    /// Emit JSON.
    pub json: bool,
    /// Address of a running daemon; selects the online mode.
    pub addr: Option<String>,
    /// Online output format: `ndjson` (one event per line) or `chrome`
    /// (a Chrome trace-event JSON array for `chrome://tracing`).
    pub format: String,
    /// Write the online output to this file instead of stdout.
    pub out: Option<String>,
    /// Drain at most this many events.
    pub limit: Option<usize>,
    /// Discard the drained events server-side.
    pub clear: bool,
    /// Toggle the daemon's recorder (`--set on|off`) instead of
    /// draining.
    pub set: Option<bool>,
    /// Keep polling and draining (NDJSON only) instead of a one-shot
    /// drain; implies `--clear` per poll so events stream exactly once.
    pub follow: bool,
    /// Seconds between polls in `--follow` mode.
    pub interval: f64,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            jobs: 6087,
            seed: 1996,
            swf: None,
            json: false,
            addr: None,
            format: "ndjson".to_string(),
            out: None,
            limit: None,
            clear: false,
            set: None,
            follow: false,
            interval: 1.0,
        }
    }
}

/// Options of the `serve` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Address to listen on.
    pub addr: String,
    /// Size of the connection worker pool.
    pub workers: usize,
    /// Pre-registered machine: name (ignored when `machines` is given).
    pub machine: String,
    /// Pre-registered machine: mesh spec (`WxH` or `WxHxD`).
    pub mesh: String,
    /// Several pre-registered machines as `(name, mesh)` pairs
    /// (`--machines m0=16x16,m1=8x8`); overrides `machine`/`mesh`.
    pub machines: Vec<(String, String)>,
    /// Pre-registered machine: allocator (2-D) / curve (3-D) spec.
    pub allocator: Option<String>,
    /// Pre-registered machine: scheduling policy (fcfs, backfill,
    /// easy, conservative).
    pub scheduler: Option<String>,
    /// Cluster pool every pre-registered machine joins.
    pub pool: Option<String>,
    /// Initial routing policy of that pool (requires `pool`).
    pub router: Option<String>,
    /// Write-ahead journal directory; `None` runs memoryless. An
    /// existing journal is recovered on startup.
    pub journal: Option<String>,
    /// Fsync policy (`every`, `never`, or a batch size; requires
    /// `journal`).
    pub fsync: Option<FsyncPolicy>,
    /// Records between snapshot compactions (requires `journal`).
    pub snapshot_every: Option<u64>,
    /// Start with the flight recorder capturing (it is off by default
    /// and can be toggled at runtime with `commalloc trace --set`).
    pub trace: bool,
    /// Start with the placement calibration plane recording (off by
    /// default; toggled at runtime via `set_trace`'s calibration rider).
    pub calibration: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: DEFAULT_ADDR.to_string(),
            workers: 4,
            machine: "default".to_string(),
            mesh: "16x16".to_string(),
            machines: Vec::new(),
            allocator: None,
            scheduler: None,
            pool: None,
            router: None,
            journal: None,
            fsync: None,
            snapshot_every: None,
            trace: false,
            calibration: false,
        }
    }
}

/// Options of the `tenant` subcommand: with `--name` (and any of the
/// setting flags) it configures a tenant; bare, it lists the table.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOptions {
    /// Address of the running daemon.
    pub addr: String,
    /// Tenant to configure; `None` lists every tenant.
    pub name: Option<String>,
    /// Fair-share weight to set.
    pub weight: Option<f64>,
    /// Node-second quota to set (`0` clears it).
    pub quota: Option<f64>,
    /// Wire in-flight cap to set (`0` clears it).
    pub max_in_flight: Option<u64>,
    /// Emit JSON.
    pub json: bool,
}

impl Default for TenantOptions {
    fn default() -> Self {
        TenantOptions {
            addr: DEFAULT_ADDR.to_string(),
            name: None,
            weight: None,
            quota: None,
            max_in_flight: None,
            json: false,
        }
    }
}

/// Options of the `fair-share` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FairShareOptions {
    /// Address of the running daemon.
    pub addr: String,
    /// Machine to flip.
    pub machine: String,
    /// New state.
    pub enabled: bool,
}

impl Default for FairShareOptions {
    fn default() -> Self {
        FairShareOptions {
            addr: DEFAULT_ADDR.to_string(),
            machine: "default".to_string(),
            enabled: true,
        }
    }
}

/// Options of the one-shot `release` / `poll` subcommands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOptions {
    /// Address of the running daemon.
    pub addr: String,
    /// Machine or `@pool` address; `None` when the job reference is
    /// itself qualified (`m0/7`, `grid/m0/7`).
    pub machine: Option<String>,
    /// Job reference: `7`, `m0/7`, or `grid/m0/7`.
    pub job: JobRef,
    /// Emit JSON.
    pub json: bool,
}

impl Default for JobOptions {
    fn default() -> Self {
        JobOptions {
            addr: DEFAULT_ADDR.to_string(),
            machine: None,
            job: JobRef::Bare(0),
            json: false,
        }
    }
}

/// Options of the `watch` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchOptions {
    /// Address of the running daemon.
    pub addr: String,
    /// Seconds between dashboard refreshes.
    pub interval: f64,
    /// Trailing window the stage/pool histograms cover (`10s` or
    /// `60s`).
    pub window: String,
    /// Stop after this many refreshes; `None` runs until interrupted.
    pub count: Option<usize>,
}

impl Default for WatchOptions {
    fn default() -> Self {
        WatchOptions {
            addr: DEFAULT_ADDR.to_string(),
            interval: 2.0,
            window: "10s".to_string(),
            count: None,
        }
    }
}

/// Options of the `calibration` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CalibrationOptions {
    /// Address of the running daemon.
    pub addr: String,
    /// Emit the raw report instead of the human-readable table.
    pub json: bool,
}

impl Default for CalibrationOptions {
    fn default() -> Self {
        CalibrationOptions {
            addr: DEFAULT_ADDR.to_string(),
            json: false,
        }
    }
}

/// Options of the `recovery-check` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryCheckOptions {
    /// Address of the recovered daemon.
    pub addr: String,
    /// Claim-table file written by `loadgen --claims-out`.
    pub claims: String,
    /// Emit JSON.
    pub json: bool,
}

impl Default for RecoveryCheckOptions {
    fn default() -> Self {
        RecoveryCheckOptions {
            addr: DEFAULT_ADDR.to_string(),
            claims: "claims.json".to_string(),
            json: false,
        }
    }
}

/// A fully parsed invocation of the driver.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one simulation and print its summary.
    Simulate(SimulateOptions),
    /// Run a (pattern × allocator × load) sweep and print the tables.
    Sweep(SweepOptions),
    /// Render a curve and its locality statistics.
    Curves(CurvesOptions),
    /// Generate (or load) a trace and print its statistics.
    Trace(TraceOptions),
    /// Run the allocation daemon.
    Serve(ServeOptions),
    /// Drive a running daemon with allocate/release traffic; the flag
    /// says whether to report as JSON.
    Loadgen(LoadgenConfig, bool),
    /// Verify a recovered daemon against a loadgen claim table.
    RecoveryCheck(RecoveryCheckOptions),
    /// Configure a tenant or list the tenant table of a running daemon.
    Tenant(TenantOptions),
    /// Flip weighted fair-share admission on a machine.
    FairShare(FairShareOptions),
    /// Release one job on a running daemon (pool-scoped refs accepted).
    Release(JobOptions),
    /// Poll one job on a running daemon (pool-scoped refs accepted).
    Poll(JobOptions),
    /// Poll a running daemon and render a live text dashboard.
    Watch(WatchOptions),
    /// Print a running daemon's placement calibration report.
    Calibration(CalibrationOptions),
    /// List the implemented allocators, patterns, curves and schedulers.
    List,
    /// Print usage.
    Help,
}

/// Parses a mesh specification: `16x16`, `16x22`, or `WxH`.
pub fn parse_mesh(value: &str) -> Option<Mesh2D> {
    let (w, h) = value.split_once(['x', 'X'])?;
    let w: u16 = w.trim().parse().ok()?;
    let h: u16 = h.trim().parse().ok()?;
    if w == 0 || h == 0 {
        return None;
    }
    Some(Mesh2D::new(w, h))
}

/// Parses a comma-separated list of load factors.
fn parse_loads(value: &str) -> Option<Vec<f64>> {
    let loads: Option<Vec<f64>> = value
        .split(',')
        .map(|s| s.trim().parse::<f64>().ok())
        .collect();
    let loads = loads?;
    if loads.is_empty() || loads.iter().any(|&l| l <= 0.0 || l > 1.0) {
        None
    } else {
        Some(loads)
    }
}

/// Parses a curve name.
fn parse_curve(value: &str) -> Option<CurveKind> {
    CurveKind::all()
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(value.trim()))
}

/// Parses a `--machines` list: comma-separated `NAME=MESH` pairs with
/// non-empty names and meshes the service would register.
fn parse_machines(value: &str) -> Option<Vec<(String, String)>> {
    let machines: Option<Vec<(String, String)>> = value
        .split(',')
        .map(|entry| {
            let (name, mesh) = entry.split_once('=')?;
            let (name, mesh) = (name.trim(), mesh.trim());
            (!name.is_empty() && parse_dims(mesh).is_ok())
                .then(|| (name.to_string(), mesh.to_string()))
        })
        .collect();
    machines.filter(|m| !m.is_empty())
}

/// One flag a subcommand accepts, one row of its table: the flag as
/// typed (`"--mesh"`); what its value shows as in the usage text (`None`
/// marks a switch, which takes no value); and the setter, which parses
/// the value (`""` for a switch) into the options and answers `false`
/// to refuse it.
pub struct Flag<O>(
    pub &'static str,
    pub Option<&'static str>,
    pub fn(&mut O, &str) -> bool,
);

/// Walks `args` over one subcommand's `table`, starting from the options'
/// defaults. Arity is the row's: a switch consumes one token, any other
/// flag two. Errors are reported in argument order.
pub fn parse_flags<O: Default>(table: &[Flag<O>], args: &[String]) -> Result<O, ParseError> {
    let mut opts = O::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(Flag(_, placeholder, set)) = table.iter().find(|flag| flag.0 == arg) else {
            return Err(ParseError::UnknownFlag(arg.clone()));
        };
        let value = match placeholder {
            None => "",
            Some(_) => args
                .next()
                .ok_or_else(|| ParseError::MissingValue(arg.clone()))?,
        };
        if !set(&mut opts, value) {
            return Err(ParseError::InvalidValue {
                flag: arg.clone(),
                value: value.to_string(),
            });
        }
    }
    Ok(opts)
}

/// A table's flags as they show in help (`[--mesh WxH] [--json]`),
/// wrapped into lines of at most `width` columns.
pub fn usage_lines<O>(table: &[Flag<O>], width: usize) -> Vec<String> {
    let mut lines: Vec<String> = Vec::new();
    for Flag(name, placeholder, _) in table {
        let item = match placeholder {
            Some(value) => format!("[{name} {value}]"),
            None => format!("[{name}]"),
        };
        match lines.last_mut() {
            Some(line) if line.len() + 1 + item.len() <= width => {
                line.push(' ');
                line.push_str(&item);
            }
            _ => lines.push(item),
        }
    }
    lines
}

/// Stores a parsed value in its option; `false` when it did not parse.
pub fn put<T>(slot: &mut T, parsed: Option<T>) -> bool {
    parsed.map(|value| *slot = value).is_some()
}

/// Any value its type can parse.
pub fn number<T: FromStr>(value: &str) -> Option<T> {
    value.parse().ok()
}

/// An integer above zero.
pub fn positive<T: FromStr + PartialOrd + Default>(value: &str) -> Option<T> {
    number(value).filter(|n| *n > T::default())
}

/// A fraction in `(0, 1]`.
pub fn unit_interval(value: &str) -> Option<f64> {
    number(value).filter(|&f| f > 0.0 && f <= 1.0)
}

/// A finite number above zero.
pub fn finite_positive(value: &str) -> Option<f64> {
    number(value).filter(|&f: &f64| f.is_finite() && f > 0.0)
}

/// `on` / `off` (also `true`/`false`, `1`/`0`).
pub fn on_off(value: &str) -> Option<bool> {
    match value {
        "on" | "true" | "1" => Some(true),
        "off" | "false" | "0" => Some(false),
        _ => None,
    }
}

/// The value as given.
pub fn text(value: &str) -> Option<String> {
    Some(value.to_string())
}

/// The value as given, if `ok`: for values kept as text once the parser
/// that will read them has accepted them.
pub fn checked(value: &str, ok: bool) -> Option<String> {
    ok.then(|| value.to_string())
}

/// The value as given, unless empty.
pub fn non_empty(value: &str) -> Option<String> {
    checked(value, !value.is_empty())
}

#[rustfmt::skip]
const SIMULATE: &[Flag<SimulateOptions>] = &[
    Flag("--mesh", Some("WxH"), |o, v| put(&mut o.mesh, parse_mesh(v))),
    Flag("--pattern", Some("P"), |o, v| put(&mut o.pattern, CommPattern::parse(v))),
    Flag("--allocator", Some("A"), |o, v| put(&mut o.allocator, AllocatorKind::parse(v))),
    Flag("--scheduler", Some("S"), |o, v| put(&mut o.scheduler, Scheduler::parse(v))),
    Flag("--load", Some("L"), |o, v| put(&mut o.load, unit_interval(v))),
    Flag("--jobs", Some("N"), |o, v| put(&mut o.jobs, number(v))),
    Flag("--seed", Some("S"), |o, v| put(&mut o.seed, number(v))),
    Flag("--swf", Some("FILE"), |o, v| put(&mut o.swf, text(v).map(Some))),
    Flag("--json", None, |o, _| put(&mut o.json, Some(true))),
];

#[rustfmt::skip]
const SWEEP: &[Flag<SweepOptions>] = &[
    Flag("--mesh", Some("WxH"), |o, v| put(&mut o.mesh, parse_mesh(v))),
    Flag("--pattern", Some("P"),
        |o, v| put(&mut o.patterns, CommPattern::parse(v).map(|p| vec![p]))),
    Flag("--allocator", Some("A"),
        |o, v| put(&mut o.allocators, AllocatorKind::parse(v).map(|a| vec![a]))),
    // `--extended true` adds the extension allocators.
    Flag("--extended", Some("true"), |o, v| number(v)
        .map(|extended| if extended { o.allocators.extend(AllocatorKind::extended_set()) })
        .is_some()),
    Flag("--loads", Some("1.0,0.6,0.2"), |o, v| put(&mut o.loads, parse_loads(v))),
    Flag("--jobs", Some("N"), |o, v| put(&mut o.jobs, number(v))),
    Flag("--seed", Some("S"), |o, v| put(&mut o.seed, number(v))),
    Flag("--json", None, |o, _| put(&mut o.json, Some(true))),
];

#[rustfmt::skip]
const CURVES: &[Flag<CurvesOptions>] = &[
    Flag("--mesh", Some("WxH"), |o, v| put(&mut o.mesh, parse_mesh(v))),
    Flag("--curve", Some("NAME"), |o, v| put(&mut o.curve, parse_curve(v).map(Some))),
    Flag("--window", Some("K"), |o, v| put(&mut o.window, positive(v))),
];

#[rustfmt::skip]
const TRACE: &[Flag<TraceOptions>] = &[
    Flag("--jobs", Some("N"), |o, v| put(&mut o.jobs, number(v))),
    Flag("--seed", Some("S"), |o, v| put(&mut o.seed, number(v))),
    Flag("--swf", Some("FILE"), |o, v| put(&mut o.swf, text(v).map(Some))),
    Flag("--json", None, |o, _| put(&mut o.json, Some(true))),
    Flag("--addr", Some("HOST:PORT"), |o, v| put(&mut o.addr, text(v).map(Some))),
    Flag("--format", Some("ndjson|chrome"),
        |o, v| put(&mut o.format, checked(v, matches!(v, "ndjson" | "chrome")))),
    Flag("--out", Some("FILE"), |o, v| put(&mut o.out, non_empty(v).map(Some))),
    Flag("--limit", Some("N"), |o, v| put(&mut o.limit, positive(v).map(Some))),
    Flag("--clear", None, |o, _| put(&mut o.clear, Some(true))),
    Flag("--set", Some("on|off"), |o, v| put(&mut o.set, on_off(v).map(Some))),
    Flag("--follow", None, |o, _| put(&mut o.follow, Some(true))),
    Flag("--interval", Some("SECS"), |o, v| put(&mut o.interval, finite_positive(v))),
];

#[rustfmt::skip]
const SERVE: &[Flag<ServeOptions>] = &[
    Flag("--addr", Some("HOST:PORT"), |o, v| put(&mut o.addr, text(v))),
    Flag("--workers", Some("N"), |o, v| put(&mut o.workers, positive(v))),
    Flag("--machine", Some("NAME"), |o, v| put(&mut o.machine, text(v))),
    Flag("--mesh", Some("WxH|WxHxD"), |o, v| put(&mut o.mesh, checked(v, parse_dims(v).is_ok()))),
    Flag("--machines", Some("N0=M0,N1=M1,..."), |o, v| put(&mut o.machines, parse_machines(v))),
    Flag("--allocator", Some("A"), |o, v| put(&mut o.allocator, text(v).map(Some))),
    Flag("--scheduler", Some("fcfs|backfill|easy|conservative"),
        |o, v| put(&mut o.scheduler, checked(v, Scheduler::parse(v).is_some()).map(Some))),
    Flag("--pool", Some("POOL"),
        |o, v| put(&mut o.pool, checked(v, !v.is_empty() && !v.starts_with('@')).map(Some))),
    Flag("--router", Some("rr|ll|sq|p2c|comm-aware"),
        |o, v| put(&mut o.router, checked(v, RoutingPolicy::parse(v).is_some()).map(Some))),
    Flag("--journal", Some("DIR"), |o, v| put(&mut o.journal, non_empty(v).map(Some))),
    Flag("--fsync", Some("every|never|N"),
        |o, v| put(&mut o.fsync, FsyncPolicy::parse(v).map(Some))),
    Flag("--snapshot-every", Some("N"), |o, v| put(&mut o.snapshot_every, positive(v).map(Some))),
    Flag("--trace", None, |o, _| put(&mut o.trace, Some(true))),
    Flag("--calibration", None, |o, _| put(&mut o.calibration, Some(true))),
];

/// `loadgen` fills the generator's own configuration; the `bool` beside
/// it is `--json`.
#[rustfmt::skip]
const LOADGEN: &[Flag<(LoadgenConfig, bool)>] = &[
    Flag("--addr", Some("HOST:PORT"), |o, v| put(&mut o.0.addr, text(v))),
    Flag("--machine", Some("NAME|@POOL"), |o, v| put(&mut o.0.machine, text(v))),
    Flag("--mesh", Some("WxH|WxHxD"), |o, v| put(&mut o.0.mesh, checked(v, parse_dims(v).is_ok()))),
    Flag("--scheduler", Some("P"),
        |o, v| put(&mut o.0.scheduler, checked(v, Scheduler::parse(v).is_some()).map(Some))),
    Flag("--requests", Some("N"), |o, v| put(&mut o.0.requests, positive(v))),
    Flag("--connections", Some("C"), |o, v| put(&mut o.0.connections, positive(v))),
    Flag("--occupancy", Some("F"), |o, v| put(&mut o.0.occupancy, unit_interval(v))),
    Flag("--max-size", Some("K"), |o, v| put(&mut o.0.max_size, positive(v))),
    Flag("--max-walltime", Some("W"), |o, v| {
        put(&mut o.0.max_walltime, number(v).filter(|&w: &f64| w.is_finite() && w >= 1.0).map(Some))
    }),
    Flag("--router", Some("rr|ll|sq|p2c|comm-aware"),
        |o, v| put(&mut o.0.router, checked(v, RoutingPolicy::parse(v).is_some()).map(Some))),
    Flag("--pattern", Some("P"), |o, v| put(&mut o.0.pattern, CommPattern::parse(v).map(Some))),
    Flag("--framing", Some("ndjson|binary"), |o, v| put(&mut o.0.framing, Framing::parse(v))),
    Flag("--seed", Some("S"), |o, v| put(&mut o.0.seed, number(v))),
    Flag("--tenant", Some("NAME"),
        |o, v| put(&mut o.0.tenant, checked(v, validate_tenant_name(v).is_ok()).map(Some))),
    Flag("--no-drain", None, |o, _| put(&mut o.0.no_drain, Some(true))),
    Flag("--claims-out", Some("FILE"), |o, v| put(&mut o.0.claims_out, non_empty(v).map(Some))),
    Flag("--json", None, |o, _| put(&mut o.1, Some(true))),
];

#[rustfmt::skip]
const WATCH: &[Flag<WatchOptions>] = &[
    Flag("--addr", Some("HOST:PORT"), |o, v| put(&mut o.addr, text(v))),
    Flag("--interval", Some("SECS"), |o, v| put(&mut o.interval, finite_positive(v))),
    Flag("--window", Some("10s|60s"),
        |o, v| put(&mut o.window, checked(v, matches!(v, "10s" | "60s")))),
    Flag("--count", Some("N"), |o, v| put(&mut o.count, positive(v).map(Some))),
];

#[rustfmt::skip]
const CALIBRATION: &[Flag<CalibrationOptions>] = &[
    Flag("--addr", Some("HOST:PORT"), |o, v| put(&mut o.addr, text(v))),
    Flag("--json", None, |o, _| put(&mut o.json, Some(true))),
];

#[rustfmt::skip]
const TENANT: &[Flag<TenantOptions>] = &[
    Flag("--addr", Some("HOST:PORT"), |o, v| put(&mut o.addr, text(v))),
    Flag("--name", Some("NAME"),
        |o, v| put(&mut o.name, checked(v, validate_tenant_name(v).is_ok()).map(Some))),
    Flag("--weight", Some("W"), |o, v| put(&mut o.weight, finite_positive(v).map(Some))),
    Flag("--quota", Some("Q"),
        |o, v| put(&mut o.quota, number(v).filter(|&q: &f64| q.is_finite() && q >= 0.0).map(Some))),
    Flag("--max-in-flight", Some("N"), |o, v| put(&mut o.max_in_flight, number(v).map(Some))),
    Flag("--json", None, |o, _| put(&mut o.json, Some(true))),
];

/// The `bool` records that the required `--set` was given.
#[rustfmt::skip]
const FAIR_SHARE: &[Flag<(FairShareOptions, bool)>] = &[
    Flag("--addr", Some("HOST:PORT"), |o, v| put(&mut o.0.addr, text(v))),
    Flag("--machine", Some("NAME"), |o, v| put(&mut o.0.machine, text(v))),
    Flag("--set", Some("on|off"),
        |o, v| put(&mut o.0.enabled, on_off(v)) && put(&mut o.1, Some(true))),
];

/// `release` and `poll`; the `bool` records that the required `--job`
/// was given.
#[rustfmt::skip]
const JOB: &[Flag<(JobOptions, bool)>] = &[
    Flag("--addr", Some("HOST:PORT"), |o, v| put(&mut o.0.addr, text(v))),
    Flag("--machine", Some("NAME|@POOL"), |o, v| put(&mut o.0.machine, text(v).map(Some))),
    Flag("--job", Some("REF"),
        |o, v| put(&mut o.0.job, JobRef::parse_str(v).ok()) && put(&mut o.1, Some(true))),
    Flag("--json", None, |o, _| put(&mut o.0.json, Some(true))),
];

#[rustfmt::skip]
const RECOVERY_CHECK: &[Flag<RecoveryCheckOptions>] = &[
    Flag("--addr", Some("HOST:PORT"), |o, v| put(&mut o.addr, text(v))),
    Flag("--claims", Some("FILE"), |o, v| put(&mut o.claims, non_empty(v))),
    Flag("--json", None, |o, _| put(&mut o.json, Some(true))),
];

/// Parses a complete argument vector (without the program name): the
/// subcommand's table, then the rules that relate two of its flags.
pub fn parse_command(args: &[String]) -> Result<Command, ParseError> {
    let Some((subcommand, rest)) = args.split_first() else {
        return Err(ParseError::MissingCommand);
    };
    let needs = |flag: &str| Err(ParseError::MissingValue(flag.to_string()));
    let requires = |flag: &str, what: &str| {
        Err(ParseError::InvalidValue {
            flag: flag.to_string(),
            value: format!("requires {what}"),
        })
    };
    Ok(match subcommand.as_str() {
        "help" | "--help" | "-h" => Command::Help,
        "allocators" | "list" => Command::List,
        "simulate" => Command::Simulate(parse_flags(SIMULATE, rest)?),
        "sweep" => Command::Sweep(parse_flags(SWEEP, rest)?),
        "curves" => Command::Curves(parse_flags(CURVES, rest)?),
        "trace" => {
            let opts = parse_flags(TRACE, rest)?;
            // The online-only flags have nothing to act on offline.
            let online = opts.out.is_some()
                || opts.limit.is_some()
                || opts.clear
                || opts.set.is_some()
                || opts.follow;
            if online && opts.addr.is_none() {
                return needs("--addr");
            }
            // Following streams NDJSON lines; the chrome format is a
            // single JSON document and cannot be appended to.
            if opts.follow && opts.format != "ndjson" {
                return requires("--follow", "--format ndjson");
            }
            Command::Trace(opts)
        }
        "serve" => {
            let opts = parse_flags(SERVE, rest)?;
            if opts.router.is_some() && opts.pool.is_none() {
                return needs("--pool");
            }
            if (opts.fsync.is_some() || opts.snapshot_every.is_some()) && opts.journal.is_none() {
                return needs("--journal");
            }
            Command::Serve(opts)
        }
        "loadgen" => {
            let (config, json) = parse_flags(LOADGEN, rest)?;
            if config.router.is_some() && !config.machine.starts_with('@') {
                return requires("--router", "--machine @pool");
            }
            Command::Loadgen(config, json)
        }
        "watch" => Command::Watch(parse_flags(WATCH, rest)?),
        "calibration" => Command::Calibration(parse_flags(CALIBRATION, rest)?),
        "tenant" => {
            let opts = parse_flags(TENANT, rest)?;
            // The setting flags act on a named tenant.
            let setting =
                opts.weight.is_some() || opts.quota.is_some() || opts.max_in_flight.is_some();
            if setting && opts.name.is_none() {
                return needs("--name");
            }
            Command::Tenant(opts)
        }
        "fair-share" => match parse_flags(FAIR_SHARE, rest)? {
            (opts, true) => Command::FairShare(opts),
            (_, false) => return needs("--set"),
        },
        "release" | "poll" => match parse_flags(JOB, rest)? {
            (opts, true) if subcommand == "release" => Command::Release(opts),
            (opts, true) => Command::Poll(opts),
            (_, false) => return needs("--job"),
        },
        "recovery-check" => Command::RecoveryCheck(parse_flags(RECOVERY_CHECK, rest)?),
        other => return Err(ParseError::UnknownCommand(other.to_string())),
    })
}

/// One subcommand of the usage text: its one-line description, then its
/// table's flags.
fn usage_block<O>(out: &mut String, name: &str, about: &str, table: &[Flag<O>]) {
    let _ = writeln!(out, "  {name:<11} {about}");
    for line in usage_lines(table, 64) {
        let _ = writeln!(out, "              {line}");
    }
}

/// The usage text printed by `commalloc help`.
#[rustfmt::skip]
pub fn usage() -> String {
    let mut out = String::from(
        "commalloc — trace-driven processor-allocation simulator \
         (Leung, Bunde & Mache 2004 reproduction)\n\n\
         USAGE:\n  commalloc <SUBCOMMAND> [FLAGS]\n\nSUBCOMMANDS:\n",
    );
    let o = &mut out;
    usage_block(o, "simulate", "run one simulation and print its summary", SIMULATE);
    usage_block(o, "sweep", "run a (pattern x allocator x load) sweep and print tables", SWEEP);
    usage_block(o, "curves", "render a processor ordering and its locality statistics", CURVES);
    usage_block(o, "trace", "print a trace's statistics, or drain a daemon's recorder", TRACE);
    usage_block(o, "serve", "run the online allocation daemon (NDJSON + binary over TCP)", SERVE);
    usage_block(o, "loadgen", "drive a running daemon with allocate/release traffic", LOADGEN);
    usage_block(o, "recovery-check", "check a recovered daemon against its claims", RECOVERY_CHECK);
    usage_block(o, "tenant", "configure the named tenant, or list the daemon's tenants", TENANT);
    usage_block(o, "fair-share", "turn a machine's fair-share admission on or off", FAIR_SHARE);
    usage_block(o, "release", "release one job (reference required; forms as for poll)", JOB);
    usage_block(o, "poll", "poll one job; REF is a bare id, MACHINE/ID, or POOL/MACHINE/ID", JOB);
    usage_block(o, "watch", "poll a running daemon and render a live text dashboard", WATCH);
    usage_block(o, "calibration", "print a daemon's placement calibration report", CALIBRATION);
    out.push_str("  allocators  list allocators, patterns, curves and schedulers\n");
    out.push_str("  help        print this message\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn invalid(flag: &str, value: &str) -> ParseError {
        ParseError::InvalidValue {
            flag: flag.to_string(),
            value: value.to_string(),
        }
    }

    #[test]
    fn missing_and_unknown_commands_are_rejected() {
        assert_eq!(parse_command(&[]), Err(ParseError::MissingCommand));
        assert_eq!(
            parse_command(&args(&["frobnicate"])),
            Err(ParseError::UnknownCommand("frobnicate".into()))
        );
        assert_eq!(parse_command(&args(&["help"])), Ok(Command::Help));
        assert_eq!(parse_command(&args(&["allocators"])), Ok(Command::List));
    }

    #[test]
    fn simulate_flags_round_trip() {
        let cmd = parse_command(&args(&[
            "simulate",
            "--mesh",
            "16x22",
            "--pattern",
            "n-body",
            "--allocator",
            "MC1x1",
            "--scheduler",
            "easy",
            "--load",
            "0.4",
            "--jobs",
            "123",
            "--seed",
            "9",
            "--json",
        ]))
        .unwrap();
        match cmd {
            Command::Simulate(opts) => {
                assert_eq!(opts.mesh, Mesh2D::paragon_16x22());
                assert_eq!(opts.pattern, CommPattern::NBody);
                assert_eq!(opts.allocator, AllocatorKind::Mc1x1);
                assert_eq!(opts.scheduler, Scheduler::EasyBackfill);
                assert_eq!(opts.load, 0.4);
                assert_eq!(opts.jobs, 123);
                assert_eq!(opts.seed, 9);
                assert!(opts.json);
                assert!(opts.swf.is_none());
            }
            other => panic!("expected Simulate, got {other:?}"),
        }
    }

    #[test]
    fn invalid_values_name_the_flag() {
        let err = parse_command(&args(&["simulate", "--load", "3.0"])).unwrap_err();
        assert_eq!(
            err,
            ParseError::InvalidValue {
                flag: "--load".into(),
                value: "3.0".into()
            }
        );
        let err = parse_command(&args(&["simulate", "--allocator", "nonsense"])).unwrap_err();
        assert!(matches!(err, ParseError::InvalidValue { .. }));
        let err = parse_command(&args(&["simulate", "--jobs"])).unwrap_err();
        assert_eq!(err, ParseError::MissingValue("--jobs".into()));
        let err = parse_command(&args(&["simulate", "--bogus", "1"])).unwrap_err();
        assert_eq!(err, ParseError::UnknownFlag("--bogus".into()));
        // Arity belongs to the (subcommand, flag) pair, so an unknown flag
        // is unknown even as the last token, is reported before a later
        // flag's missing value, and another subcommand's switch is no
        // switch here.
        for (argv, unknown) in [
            (&["watch", "--verbose"][..], "--verbose"),
            (&["simulate", "--bogus", "1", "--jobs"], "--bogus"),
            (&["simulate", "--clear"], "--clear"),
        ] {
            let err = parse_command(&args(argv)).unwrap_err();
            assert_eq!(err, ParseError::UnknownFlag(unknown.into()));
        }
        // A malformed job reference is refused before any connection.
        let err = parse_command(&args(&["poll", "--job", "a/b/c/d"])).unwrap_err();
        assert_eq!(err, invalid("--job", "a/b/c/d"));
    }

    #[test]
    fn sweep_defaults_match_the_paper() {
        let cmd = parse_command(&args(&["sweep"])).unwrap();
        match cmd {
            Command::Sweep(opts) => {
                assert_eq!(opts.patterns, CommPattern::paper_patterns().to_vec());
                assert_eq!(opts.allocators.len(), 9);
                assert_eq!(opts.loads, vec![1.0, 0.8, 0.6, 0.4, 0.2]);
            }
            other => panic!("expected Sweep, got {other:?}"),
        }
    }

    #[test]
    fn sweep_extended_adds_the_extension_allocators() {
        let cmd = parse_command(&args(&["sweep", "--extended", "true", "--loads", "0.5"])).unwrap();
        match cmd {
            Command::Sweep(opts) => {
                assert!(opts.allocators.len() > 9);
                assert!(opts.allocators.contains(&AllocatorKind::Mbs));
                assert_eq!(opts.loads, vec![0.5]);
            }
            other => panic!("expected Sweep, got {other:?}"),
        }
    }

    #[test]
    fn curves_and_trace_parse() {
        let cmd = parse_command(&args(&["curves", "--mesh", "8x8", "--curve", "hilbert"])).unwrap();
        match cmd {
            Command::Curves(opts) => {
                assert_eq!(opts.mesh, Mesh2D::new(8, 8));
                assert_eq!(opts.curve, Some(CurveKind::Hilbert));
            }
            other => panic!("expected Curves, got {other:?}"),
        }
        let cmd = parse_command(&args(&["trace", "--jobs", "50", "--seed", "3"])).unwrap();
        match cmd {
            Command::Trace(opts) => {
                assert_eq!(opts.jobs, 50);
                assert_eq!(opts.seed, 3);
            }
            other => panic!("expected Trace, got {other:?}"),
        }
    }

    #[test]
    fn trace_online_flags_round_trip() {
        let cmd = parse_command(&args(&[
            "trace", "--addr", "h:1", "--format", "chrome", "--out", "t.json", "--limit", "100",
            "--clear",
        ]))
        .unwrap();
        match cmd {
            Command::Trace(opts) => {
                assert_eq!(opts.addr.as_deref(), Some("h:1"));
                assert_eq!(opts.format, "chrome");
                assert_eq!(opts.out.as_deref(), Some("t.json"));
                assert_eq!(opts.limit, Some(100));
                assert!(opts.clear);
                assert!(opts.set.is_none());
            }
            other => panic!("expected Trace, got {other:?}"),
        }
        let cmd = parse_command(&args(&["trace", "--addr", "h:1", "--set", "on"])).unwrap();
        match cmd {
            Command::Trace(opts) => assert_eq!(opts.set, Some(true)),
            other => panic!("expected Trace, got {other:?}"),
        }
        // Online-only flags without --addr, and bad values, are rejected.
        assert_eq!(
            parse_command(&args(&["trace", "--clear"])),
            Err(ParseError::MissingValue("--addr".into()))
        );
        assert!(parse_command(&args(&["trace", "--addr", "h:1", "--format", "xml"])).is_err());
        assert!(parse_command(&args(&["trace", "--addr", "h:1", "--set", "maybe"])).is_err());
        assert!(parse_command(&args(&["trace", "--addr", "h:1", "--limit", "0"])).is_err());
    }

    #[test]
    fn trace_follow_flags_round_trip() {
        let cmd = parse_command(&args(&[
            "trace",
            "--addr",
            "h:1",
            "--follow",
            "--interval",
            "0.25",
        ]))
        .unwrap();
        match cmd {
            Command::Trace(opts) => {
                assert!(opts.follow);
                assert_eq!(opts.interval, 0.25);
            }
            other => panic!("expected Trace, got {other:?}"),
        }
        // --follow is online-only and streams NDJSON; bad intervals are
        // rejected.
        assert_eq!(
            parse_command(&args(&["trace", "--follow"])),
            Err(ParseError::MissingValue("--addr".into()))
        );
        assert!(parse_command(&args(&[
            "trace", "--addr", "h:1", "--follow", "--format", "chrome"
        ]))
        .is_err());
        assert!(parse_command(&args(&[
            "trace",
            "--addr",
            "h:1",
            "--follow",
            "--interval",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn watch_and_calibration_parse() {
        let cmd = parse_command(&args(&[
            "watch",
            "--addr",
            "h:1",
            "--interval",
            "0.5",
            "--window",
            "60s",
            "--count",
            "3",
        ]))
        .unwrap();
        match cmd {
            Command::Watch(opts) => {
                assert_eq!(opts.addr, "h:1");
                assert_eq!(opts.interval, 0.5);
                assert_eq!(opts.window, "60s");
                assert_eq!(opts.count, Some(3));
            }
            other => panic!("expected Watch, got {other:?}"),
        }
        assert_eq!(
            parse_command(&args(&["watch"])),
            Ok(Command::Watch(WatchOptions::default()))
        );
        assert!(parse_command(&args(&["watch", "--window", "5m"])).is_err());
        assert!(parse_command(&args(&["watch", "--count", "0"])).is_err());
        assert!(parse_command(&args(&["watch", "--interval", "nan"])).is_err());

        let cmd = parse_command(&args(&["calibration", "--addr", "h:1", "--json"])).unwrap();
        match cmd {
            Command::Calibration(opts) => {
                assert_eq!(opts.addr, "h:1");
                assert!(opts.json);
            }
            other => panic!("expected Calibration, got {other:?}"),
        }
        assert!(parse_command(&args(&["calibration", "--window", "10s"])).is_err());
    }

    #[test]
    fn serve_calibration_flag_parses() {
        match parse_command(&args(&["serve", "--calibration"])).unwrap() {
            Command::Serve(opts) => assert!(opts.calibration),
            other => panic!("expected Serve, got {other:?}"),
        }
        match parse_command(&args(&["serve"])).unwrap() {
            Command::Serve(opts) => assert!(!opts.calibration),
            other => panic!("expected Serve, got {other:?}"),
        }
    }

    #[test]
    fn serve_trace_flag_parses() {
        let cmd = parse_command(&args(&["serve", "--trace"])).unwrap();
        match cmd {
            Command::Serve(opts) => assert!(opts.trace),
            other => panic!("expected Serve, got {other:?}"),
        }
        match parse_command(&args(&["serve"])).unwrap() {
            Command::Serve(opts) => assert!(!opts.trace),
            other => panic!("expected Serve, got {other:?}"),
        }
    }

    #[test]
    fn mesh_and_loads_parsers() {
        assert_eq!(parse_mesh("16x22"), Some(Mesh2D::paragon_16x22()));
        assert_eq!(parse_mesh("4X8"), Some(Mesh2D::new(4, 8)));
        assert_eq!(parse_mesh("0x4"), None);
        assert_eq!(parse_mesh("16"), None);
        assert_eq!(parse_loads("1.0, 0.5"), Some(vec![1.0, 0.5]));
        assert_eq!(parse_loads("1.5"), None);
        assert_eq!(parse_loads(""), None);
    }

    #[test]
    fn usage_mentions_every_subcommand() {
        let text = usage();
        for (sub, flags) in [
            ("simulate", usage_lines(SIMULATE, 0)),
            ("sweep", usage_lines(SWEEP, 0)),
            ("curves", usage_lines(CURVES, 0)),
            ("trace", usage_lines(TRACE, 0)),
            ("serve", usage_lines(SERVE, 0)),
            ("loadgen", usage_lines(LOADGEN, 0)),
            ("recovery-check", usage_lines(RECOVERY_CHECK, 0)),
            ("tenant", usage_lines(TENANT, 0)),
            ("fair-share", usage_lines(FAIR_SHARE, 0)),
            ("release", usage_lines(JOB, 0)),
            ("poll", usage_lines(JOB, 0)),
            ("watch", usage_lines(WATCH, 0)),
            ("calibration", usage_lines(CALIBRATION, 0)),
            ("allocators", Vec::new()),
            ("help", Vec::new()),
        ] {
            // The subcommand's block: its header line and the indented
            // flag lines under it.
            let block: Vec<&str> = text
                .lines()
                .skip_while(|line| !line.starts_with(&format!("  {sub} ")))
                .enumerate()
                .take_while(|(at, line)| *at == 0 || line.starts_with("     "))
                .map(|(_, line)| line)
                .collect();
            assert!(!block.is_empty(), "usage must mention {sub}");
            let block = block.join("\n");
            // Every row shows with its placeholder, and nothing shows
            // that is not a row.
            for flag in &flags {
                assert!(block.contains(flag), "{sub}: usage lacks {flag}");
            }
            assert_eq!(block.matches("--").count(), flags.len(), "{sub}: {block}");
        }
    }

    #[test]
    fn bare_subcommands_parse_to_their_defaults() {
        // `fair-share`, `release` and `poll` need one flag; given its
        // default value, nothing else moves.
        let cases: [(&[&str], Command); 13] = [
            (&["simulate"], Command::Simulate(Default::default())),
            (&["sweep"], Command::Sweep(Default::default())),
            (&["curves"], Command::Curves(Default::default())),
            (&["trace"], Command::Trace(Default::default())),
            (&["serve"], Command::Serve(Default::default())),
            (&["loadgen"], Command::Loadgen(Default::default(), false)),
            (
                &["recovery-check"],
                Command::RecoveryCheck(Default::default()),
            ),
            (&["tenant"], Command::Tenant(Default::default())),
            (&["watch"], Command::Watch(Default::default())),
            (&["calibration"], Command::Calibration(Default::default())),
            (
                &["fair-share", "--set", "on"],
                Command::FairShare(Default::default()),
            ),
            (
                &["release", "--job", "0"],
                Command::Release(Default::default()),
            ),
            (&["poll", "--job", "0"], Command::Poll(Default::default())),
        ];
        for (argv, expected) in cases {
            assert_eq!(parse_command(&args(argv)), Ok(expected));
        }
    }

    #[test]
    fn serve_flags_round_trip() {
        let cmd = parse_command(&args(&[
            "serve",
            "--addr",
            "0.0.0.0:9000",
            "--workers",
            "8",
            "--machine",
            "cplant",
            "--mesh",
            "16x22",
            "--allocator",
            "MC1x1",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(opts) => {
                assert_eq!(opts.addr, "0.0.0.0:9000");
                assert_eq!(opts.workers, 8);
                assert_eq!(opts.machine, "cplant");
                assert_eq!(opts.mesh, "16x22");
                assert_eq!(opts.allocator.as_deref(), Some("MC1x1"));
            }
            other => panic!("expected Serve, got {other:?}"),
        }
        // 3-D specs are accepted, malformed ones are not.
        assert!(parse_command(&args(&["serve", "--mesh", "4x4x4"])).is_ok());
        assert!(parse_command(&args(&["serve", "--mesh", "4x4x4x4"])).is_err());
        // The check is the service's own: no dimension, no empty one, no
        // machine above its node limit.
        for bad in ["x", "16x", "2000x2000"] {
            assert_eq!(
                parse_command(&args(&["serve", "--mesh", bad])),
                Err(invalid("--mesh", bad))
            );
        }
        assert!(parse_command(&args(&["serve", "--workers", "0"])).is_err());
    }

    #[test]
    fn serve_cluster_flags_round_trip() {
        let cmd = parse_command(&args(&[
            "serve",
            "--machines",
            "m0=16x16, m1=8x8,m2=4x4x4",
            "--pool",
            "grid",
            "--router",
            "p2c",
            "--scheduler",
            "easy",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(opts) => {
                assert_eq!(
                    opts.machines,
                    vec![
                        ("m0".to_string(), "16x16".to_string()),
                        ("m1".to_string(), "8x8".to_string()),
                        ("m2".to_string(), "4x4x4".to_string()),
                    ]
                );
                assert_eq!(opts.pool.as_deref(), Some("grid"));
                assert_eq!(opts.router.as_deref(), Some("p2c"));
            }
            other => panic!("expected Serve, got {other:?}"),
        }
        assert!(parse_command(&args(&["serve", "--machines", "m0"])).is_err());
        assert!(parse_command(&args(&["serve", "--machines", "=16x16"])).is_err());
        assert!(parse_command(&args(&["serve", "--machines", "m0=16"])).is_err());
        assert_eq!(
            parse_command(&args(&["serve", "--machines", "m0=x"])),
            Err(invalid("--machines", "m0=x"))
        );
        assert!(parse_command(&args(&["serve", "--pool", "@grid"])).is_err());
        // --router without --pool has nothing to act on.
        assert!(parse_command(&args(&["serve", "--router", "p2c"])).is_err());
        assert!(
            parse_command(&args(&["serve", "--pool", "grid", "--router", "nonsense"])).is_err()
        );
    }

    #[test]
    fn loadgen_router_requires_a_pool_address() {
        let cmd = parse_command(&args(&[
            "loadgen",
            "--machine",
            "@grid",
            "--router",
            "least-loaded",
        ]))
        .unwrap();
        match cmd {
            Command::Loadgen(opts, _) => {
                assert_eq!(opts.machine, "@grid");
                assert_eq!(opts.router.as_deref(), Some("least-loaded"));
            }
            other => panic!("expected Loadgen, got {other:?}"),
        }
        assert!(parse_command(&args(&["loadgen", "--router", "ll"])).is_err());
        assert!(parse_command(&args(&[
            "loadgen",
            "--machine",
            "@grid",
            "--router",
            "nonsense"
        ]))
        .is_err());
    }

    #[test]
    fn loadgen_flags_round_trip() {
        let cmd = parse_command(&args(&[
            "loadgen",
            "--addr",
            "127.0.0.1:9000",
            "--requests",
            "5000",
            "--connections",
            "2",
            "--occupancy",
            "0.9",
            "--max-size",
            "16",
            "--seed",
            "3",
            "--no-drain",
            "--claims-out",
            "/tmp/claims.json",
            "--json",
        ]))
        .unwrap();
        match cmd {
            Command::Loadgen(opts, json) => {
                assert_eq!(opts.addr, "127.0.0.1:9000");
                assert_eq!(opts.requests, 5000);
                assert_eq!(opts.connections, 2);
                assert_eq!(opts.occupancy, 0.9);
                assert_eq!(opts.max_size, 16);
                assert_eq!(opts.seed, 3);
                assert!(opts.no_drain);
                assert_eq!(opts.claims_out.as_deref(), Some("/tmp/claims.json"));
                assert!(json);
            }
            other => panic!("expected Loadgen, got {other:?}"),
        }
        // `recovery-check` reads the claim table a `--no-drain` run wrote.
        let check = ["recovery-check", "--claims", "/tmp/claims.json", "--json"];
        match parse_command(&args(&check)).unwrap() {
            Command::RecoveryCheck(opts) => {
                assert_eq!(opts.claims, "/tmp/claims.json");
                assert!(opts.json);
            }
            other => panic!("expected RecoveryCheck, got {other:?}"),
        }
        assert!(parse_command(&args(&["loadgen", "--occupancy", "1.5"])).is_err());
        assert!(parse_command(&args(&["loadgen", "--requests", "0"])).is_err());
        assert_eq!(
            parse_command(&args(&["loadgen", "--mesh", "x"])),
            Err(invalid("--mesh", "x"))
        );
    }

    #[test]
    fn loadgen_tenant_is_validated() {
        match parse_command(&args(&["loadgen", "--tenant", "acme"])).unwrap() {
            Command::Loadgen(opts, _) => assert_eq!(opts.tenant.as_deref(), Some("acme")),
            other => panic!("expected Loadgen, got {other:?}"),
        }
        for bad in ["", "@pool", "a/b"] {
            assert!(
                parse_command(&args(&["loadgen", "--tenant", bad])).is_err(),
                "tenant {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn tenant_flags_round_trip() {
        let cmd = parse_command(&args(&[
            "tenant",
            "--addr",
            "h:1",
            "--name",
            "acme",
            "--weight",
            "3.0",
            "--quota",
            "5000",
            "--max-in-flight",
            "8",
        ]))
        .unwrap();
        match cmd {
            Command::Tenant(opts) => {
                assert_eq!(opts.addr, "h:1");
                assert_eq!(opts.name.as_deref(), Some("acme"));
                assert_eq!(opts.weight, Some(3.0));
                assert_eq!(opts.quota, Some(5000.0));
                assert_eq!(opts.max_in_flight, Some(8));
            }
            other => panic!("expected Tenant, got {other:?}"),
        }
        // Bare `tenant` lists the table.
        match parse_command(&args(&["tenant"])).unwrap() {
            Command::Tenant(opts) => assert!(opts.name.is_none()),
            other => panic!("expected Tenant, got {other:?}"),
        }
        // Setting flags without a name have nothing to act on.
        assert_eq!(
            parse_command(&args(&["tenant", "--weight", "2.0"])),
            Err(ParseError::MissingValue("--name".into()))
        );
        assert!(parse_command(&args(&["tenant", "--name", "a", "--weight", "0"])).is_err());
        assert!(parse_command(&args(&["tenant", "--name", "a", "--quota", "-1"])).is_err());
        assert!(parse_command(&args(&["tenant", "--name", "@a"])).is_err());
    }

    #[test]
    fn fair_share_requires_an_explicit_state() {
        let cmd = parse_command(&args(&["fair-share", "--machine", "m0", "--set", "on"])).unwrap();
        match cmd {
            Command::FairShare(opts) => {
                assert_eq!(opts.machine, "m0");
                assert!(opts.enabled);
            }
            other => panic!("expected FairShare, got {other:?}"),
        }
        assert_eq!(
            parse_command(&args(&["fair-share", "--machine", "m0"])),
            Err(ParseError::MissingValue("--set".into()))
        );
        assert!(parse_command(&args(&["fair-share", "--set", "maybe"])).is_err());
    }

    #[test]
    fn release_and_poll_take_job_references() {
        let cmd = parse_command(&args(&[
            "release",
            "--addr",
            "h:1",
            "--machine",
            "@grid",
            "--job",
            "7",
        ]))
        .unwrap();
        match cmd {
            Command::Release(opts) => {
                assert_eq!(opts.machine.as_deref(), Some("@grid"));
                assert_eq!(opts.job, JobRef::Bare(7));
            }
            other => panic!("expected Release, got {other:?}"),
        }
        let cmd = parse_command(&args(&["poll", "--job", "grid/m0/7"])).unwrap();
        match cmd {
            Command::Poll(opts) => {
                assert!(opts.machine.is_none());
                assert_eq!(
                    opts.job,
                    JobRef::Pooled {
                        pool: "grid".into(),
                        machine: "m0".into(),
                        id: 7
                    }
                );
            }
            other => panic!("expected Poll, got {other:?}"),
        }
        assert_eq!(
            parse_command(&args(&["release"])),
            Err(ParseError::MissingValue("--job".into()))
        );
        assert_eq!(
            parse_command(&args(&["poll"])),
            Err(ParseError::MissingValue("--job".into()))
        );
    }

    #[test]
    fn loadgen_framing_is_validated() {
        let defaulted = parse_command(&args(&["loadgen"])).unwrap();
        match defaulted {
            Command::Loadgen(opts, _) => assert_eq!(opts.framing, Framing::Ndjson),
            other => panic!("expected Loadgen, got {other:?}"),
        }
        for (framing, parsed) in [("ndjson", Framing::Ndjson), ("binary", Framing::Binary)] {
            let cmd = parse_command(&args(&["loadgen", "--framing", framing])).unwrap();
            match cmd {
                Command::Loadgen(opts, _) => assert_eq!(opts.framing, parsed),
                other => panic!("expected Loadgen, got {other:?}"),
            }
        }
        assert!(parse_command(&args(&["loadgen", "--framing", "msgpack"])).is_err());
        assert!(parse_command(&args(&["loadgen", "--framing"])).is_err());
    }
}
