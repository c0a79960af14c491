//! Execution of the parsed CLI commands.
//!
//! Each command renders to a `String` (so the output is unit-testable) and
//! the binary simply prints it.

use crate::args::{
    usage, CalibrationOptions, Command, CurvesOptions, FairShareOptions, JobOptions,
    RecoveryCheckOptions, ServeOptions, SimulateOptions, SweepOptions, TenantOptions, TraceOptions,
    WatchOptions,
};
use crate::loadgen::{self, LoadgenConfig};
use commalloc::experiment::LoadSweep;
use commalloc::prelude::*;
use commalloc::report;
use commalloc_mesh::locality::window_locality;
use commalloc_service::{open_journaled, AllocationService, JournalConfig, Server, ServiceClient};
use commalloc_workload::analysis::TraceAnalysis;
use commalloc_workload::swf;
use serde::{Map, Value};
use std::fmt::Write as _;

/// Errors surfaced to the user by command execution.
#[derive(Debug)]
pub enum RunError {
    /// An SWF trace file could not be read or parsed.
    Swf(String),
    /// Results could not be serialised to JSON.
    Json(String),
    /// The allocation daemon could not start or failed while serving.
    Serve(String),
    /// The load generator could not reach or drive the daemon.
    Loadgen(String),
    /// The daemon's flight recorder could not be drained or toggled.
    Trace(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Swf(e) => write!(f, "could not load SWF trace: {e}"),
            RunError::Json(e) => write!(f, "could not serialise results: {e}"),
            RunError::Serve(e) => write!(f, "daemon failed: {e}"),
            RunError::Loadgen(e) => write!(f, "load generation failed: {e}"),
            RunError::Trace(e) => write!(f, "trace failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl Command {
    /// Executes the command and returns its rendered output.
    pub fn run(&self) -> Result<String, RunError> {
        match self {
            Command::Help => Ok(usage()),
            Command::List => Ok(render_list()),
            Command::Simulate(opts) => run_simulate(opts),
            Command::Sweep(opts) => run_sweep(opts),
            Command::Curves(opts) => Ok(run_curves(opts)),
            Command::Trace(opts) => run_trace(opts),
            Command::Serve(opts) => run_serve(opts),
            Command::Loadgen(config, json) => run_loadgen(config, *json),
            Command::RecoveryCheck(opts) => run_recovery_check(opts),
            Command::Tenant(opts) => run_tenant(opts),
            Command::FairShare(opts) => run_fair_share(opts),
            Command::Release(opts) => run_job_op(opts, true),
            Command::Poll(opts) => run_job_op(opts, false),
            Command::Watch(opts) => run_watch(opts),
            Command::Calibration(opts) => run_calibration(opts),
        }
    }
}

/// Starts the allocation daemon and serves until the process is killed.
/// With `--journal`, an existing journal is recovered first and the
/// pre-registration of `--machine`/`--machines` skips machines the
/// journal already rebuilt (restarting with the same flags must not
/// fail on "already registered").
fn run_serve(opts: &ServeOptions) -> Result<String, RunError> {
    let service = match &opts.journal {
        None => AllocationService::new(),
        Some(dir) => {
            let mut config = JournalConfig::default();
            if let Some(fsync) = opts.fsync {
                config.fsync = fsync;
            }
            if let Some(every) = opts.snapshot_every {
                config.snapshot_every = every;
            }
            let (service, report) = open_journaled(std::path::Path::new(dir), config)
                .map_err(|e| RunError::Serve(format!("journal {dir}: {e}")))?;
            eprintln!(
                "commalloc-service journal at {dir}: epoch {}, {} machine(s) recovered \
                 ({} records applied, {} skipped{}{})",
                report.epoch,
                report.machines,
                report.applied,
                report.skipped,
                if report.snapshot_found {
                    ", from snapshot+tail"
                } else {
                    ""
                },
                if report.torn_tail {
                    "; torn tail dropped"
                } else {
                    ""
                },
            );
            service
        }
    };
    let recovered: std::collections::HashSet<String> = service.list().into_iter().collect();
    // Pools the journal rebuilt, captured before pre-registration adds
    // flag-declared ones: like recovered machines, a recovered pool
    // keeps its journaled routing policy — `--router` seeds only pools
    // the journal did not rebuild, so restarting with the original
    // flags cannot clobber a runtime `set_router` flip.
    let recovered_pools: std::collections::HashSet<String> =
        service.router().pool_names().into_iter().collect();
    let single = [(opts.machine.clone(), opts.mesh.clone())];
    let machines: &[(String, String)] = if opts.machines.is_empty() {
        &single
    } else {
        &opts.machines
    };
    for (name, mesh) in machines {
        if recovered.contains(name) {
            continue;
        }
        service
            .register_in_pool(
                name,
                mesh,
                opts.allocator.as_deref(),
                None,
                opts.scheduler.as_deref(),
                opts.pool.as_deref(),
            )
            .map_err(|e| RunError::Serve(e.to_string()))?;
    }
    if let (Some(pool), Some(router)) = (opts.pool.as_deref(), opts.router.as_deref()) {
        if !recovered_pools.contains(pool) {
            service
                .set_router(pool, router)
                .map_err(|e| RunError::Serve(e.to_string()))?;
        }
    }
    // The banner reports the pool's *active* policy (which on a
    // recovered journal may be a runtime flip, not the flag).
    let pool_banner = match opts.pool.as_deref() {
        Some(pool) => format!(
            "; pool @{pool} routed {}",
            service
                .router()
                .policy(pool)
                .map(|p| p.name().to_string())
                .unwrap_or_else(|_| "round-robin".to_string())
        ),
        None => String::new(),
    };
    if opts.trace {
        service.recorder().set_enabled(true);
    }
    if opts.calibration {
        service.calibration().set_enabled(true);
    }
    let server = Server::bind(opts.addr.as_str(), service, opts.workers)
        .map_err(|e| RunError::Serve(format!("bind {}: {e}", opts.addr)))?;
    let addr = server
        .local_addr()
        .map_err(|e| RunError::Serve(e.to_string()))?;
    let names: Vec<&str> = machines.iter().map(|(n, _)| n.as_str()).collect();
    eprintln!(
        "commalloc-service listening on {addr} ({} workers); machines [{}] ({}){}{}{}",
        opts.workers,
        names.join(", "),
        opts.scheduler.as_deref().unwrap_or("fcfs"),
        pool_banner,
        if opts.trace { "; tracing on" } else { "" },
        if opts.calibration {
            "; calibration on"
        } else {
            ""
        },
    );
    server.run().map_err(|e| RunError::Serve(e.to_string()))?;
    Ok(String::new())
}

/// Drives a running daemon and reports throughput plus invariant checks.
fn run_loadgen(config: &LoadgenConfig, json: bool) -> Result<String, RunError> {
    let report = loadgen::run(config).map_err(RunError::Loadgen)?;
    if report.violations > 0 {
        return Err(RunError::Loadgen(format!(
            "{} occupancy-invariant violations detected",
            report.violations
        )));
    }
    if json {
        serde_json::to_string_pretty(&report.to_json()).map_err(|e| RunError::Json(e.to_string()))
    } else {
        Ok(report.render())
    }
}

/// Renders the daemon's tenant table as rows (pure for testability).
fn render_tenant_table(tenants: &Value) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>7} {:>12} {:>10} {:>9} {:>7} {:>7} {:>9} {:>12}",
        "tenant",
        "weight",
        "quota",
        "used",
        "admitted",
        "denied",
        "queued",
        "in-flight",
        "outstanding"
    );
    let Value::Object(entries) = tenants else {
        return out;
    };
    for (name, entry) in entries.iter() {
        let num = |key: &str| entry.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let count = |key: &str| entry.get(key).and_then(Value::as_u64).unwrap_or(0);
        let quota = match entry.get("quota_node_seconds").and_then(Value::as_f64) {
            Some(q) => format!("{q:.0}"),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<12} {:>7.2} {:>12} {:>10.0} {:>9} {:>7} {:>7} {:>9} {:>12.0}",
            name,
            num("weight"),
            quota,
            num("consumed_node_seconds"),
            count("admitted"),
            count("denied"),
            count("queued"),
            count("in_flight"),
            num("outstanding_node_seconds"),
        );
    }
    out
}

/// `tenant`: configures a tenant (with `--name`) or prints the table.
fn run_tenant(opts: &TenantOptions) -> Result<String, RunError> {
    let mut client = ServiceClient::connect(&opts.addr)
        .map_err(|e| RunError::Trace(format!("connect {}: {e}", opts.addr)))?;
    if let Some(name) = &opts.name {
        let (weight, quota, cap) = client
            .set_tenant(name, opts.weight, opts.quota, opts.max_in_flight)
            .map_err(|e| RunError::Trace(e.to_string()))?;
        return Ok(format!(
            "tenant {name}: weight {weight}, quota {}, max in-flight {}\n",
            quota.map_or_else(|| "none".to_string(), |q| format!("{q}")),
            cap.map_or_else(|| "none".to_string(), |c| format!("{c}")),
        ));
    }
    let tenants = client
        .tenants()
        .map_err(|e| RunError::Trace(e.to_string()))?;
    if opts.json {
        serde_json::to_string_pretty(&tenants).map_err(|e| RunError::Json(e.to_string()))
    } else {
        Ok(render_tenant_table(&tenants))
    }
}

/// `fair-share`: flips weighted fair-share admission on a machine and
/// reports the jobs the re-drain admitted.
fn run_fair_share(opts: &FairShareOptions) -> Result<String, RunError> {
    let mut client = ServiceClient::connect(&opts.addr)
        .map_err(|e| RunError::Trace(format!("connect {}: {e}", opts.addr)))?;
    let granted = client
        .set_fair_share(&opts.machine, opts.enabled)
        .map_err(|e| RunError::Trace(e.to_string()))?;
    Ok(format!(
        "fair-share {} on {} ({} job(s) admitted by the re-drain)\n",
        if opts.enabled { "enabled" } else { "disabled" },
        opts.machine,
        granted.len(),
    ))
}

/// One-shot `release` / `poll` of a job reference (`7`, `m0/7`,
/// `grid/m0/7`) against a machine or `@pool` address.
fn run_job_op(opts: &JobOptions, release: bool) -> Result<String, RunError> {
    let job = &opts.job;
    let mut client = ServiceClient::connect(&opts.addr)
        .map_err(|e| RunError::Trace(format!("connect {}: {e}", opts.addr)))?;
    if release {
        let (machine, granted) = client
            .release_ref(opts.machine.as_deref(), job)
            .map_err(|e| RunError::Trace(e.to_string()))?;
        let at = machine.map_or_else(String::new, |m| format!(" on {m}"));
        Ok(format!(
            "released job {}{at} ({} job(s) admitted from the queue)\n",
            job.id(),
            granted.len(),
        ))
    } else {
        let (machine, status) = client
            .poll_ref(opts.machine.as_deref(), job)
            .map_err(|e| RunError::Trace(e.to_string()))?;
        let at = machine.map_or_else(String::new, |m| format!(" on {m}"));
        use commalloc_service::registry::JobStatus;
        Ok(match status {
            JobStatus::Running(nodes) => {
                format!("job {}{at}: running on {} node(s)\n", job.id(), nodes.len())
            }
            JobStatus::Queued(position) => {
                format!("job {}{at}: queued at position {position}\n", job.id())
            }
            JobStatus::Unknown => format!("job {}: unknown\n", job.id()),
        })
    }
}

/// Verifies a recovered daemon against a saved claim table; a non-zero
/// violation count is an error.
fn run_recovery_check(opts: &RecoveryCheckOptions) -> Result<String, RunError> {
    let report = loadgen::recovery_check(&opts.addr, &opts.claims).map_err(RunError::Loadgen)?;
    if report.violations > 0 {
        return Err(RunError::Loadgen(format!(
            "{} recovery violations (lost grants or resurrected state)",
            report.violations
        )));
    }
    if opts.json {
        serde_json::to_string_pretty(&report).map_err(|e| RunError::Json(e.to_string()))
    } else {
        Ok(report.render())
    }
}

fn load_trace(jobs: usize, seed: u64, swf_path: &Option<String>) -> Result<Trace, RunError> {
    match swf_path {
        Some(path) => swf::parse_file(path).map_err(|e| RunError::Swf(format!("{path}: {e:?}"))),
        None => Ok(if jobs >= 6087 {
            ParagonTraceModel::default().generate(seed)
        } else {
            ParagonTraceModel::scaled(jobs).generate(seed)
        }),
    }
}

fn render_list() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "allocators (paper set marked *):");
    for kind in AllocatorKind::all() {
        let marker = if AllocatorKind::paper_set().contains(&kind) {
            "*"
        } else {
            " "
        };
        let _ = writeln!(out, "  {marker} {}", kind.name());
    }
    let _ = writeln!(out, "\ncommunication patterns (paper set marked *):");
    for pattern in CommPattern::all() {
        let marker = if CommPattern::paper_patterns().contains(&pattern) {
            "*"
        } else {
            " "
        };
        let _ = writeln!(out, "  {marker} {}", pattern.name());
    }
    let _ = writeln!(out, "\ncurves:");
    for curve in CurveKind::all() {
        let _ = writeln!(out, "    {}", curve.name());
    }
    let _ = writeln!(out, "\nschedulers:");
    for scheduler in SchedulerKind::all() {
        let _ = writeln!(out, "    {}", scheduler.name());
    }
    out
}

fn run_simulate(opts: &SimulateOptions) -> Result<String, RunError> {
    let trace = load_trace(opts.jobs, opts.seed, &opts.swf)?
        .filter_fitting(opts.mesh.num_nodes())
        .with_load_factor(opts.load);
    let config = SimConfig::new(opts.mesh, opts.pattern, opts.allocator)
        .with_scheduler(opts.scheduler)
        .with_seed(opts.seed);
    let result = simulate(&trace, &config);
    if opts.json {
        return serde_json::to_string_pretty(&result.summary)
            .map_err(|e| RunError::Json(e.to_string()));
    }
    let profile = UtilizationProfile::from_records(&result.records, opts.mesh.num_nodes());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "simulated {} jobs on {}x{} | pattern {} | allocator {} | scheduler {} | load {}",
        result.records.len(),
        opts.mesh.width(),
        opts.mesh.height(),
        opts.pattern,
        opts.allocator,
        opts.scheduler.name(),
        opts.load
    );
    let s = &result.summary;
    let _ = writeln!(
        out,
        "  mean response time   {:>12.0} s",
        s.mean_response_time
    );
    let _ = writeln!(out, "  mean waiting time    {:>12.0} s", s.mean_wait_time);
    let _ = writeln!(
        out,
        "  mean running time    {:>12.0} s",
        s.mean_running_time
    );
    let _ = writeln!(out, "  makespan             {:>12.0} s", s.makespan);
    let _ = writeln!(
        out,
        "  contiguous jobs      {:>11.1} %",
        s.percent_contiguous
    );
    let _ = writeln!(out, "  components per job   {:>12.2}", s.avg_components);
    let _ = writeln!(
        out,
        "  mean pairwise dist.  {:>12.2}",
        s.mean_pairwise_distance
    );
    let _ = writeln!(
        out,
        "  mean message dist.   {:>12.2}",
        s.mean_message_distance
    );
    let _ = writeln!(
        out,
        "  mean utilization     {:>11.1} %",
        100.0 * profile.mean_utilization()
    );
    let _ = writeln!(
        out,
        "  mean queue length    {:>12.2}",
        profile.mean_queue_length()
    );
    Ok(out)
}

fn run_sweep(opts: &SweepOptions) -> Result<String, RunError> {
    let trace = load_trace(opts.jobs, opts.seed, &None)?;
    let sweep = LoadSweep {
        mesh: opts.mesh,
        patterns: opts.patterns.clone(),
        allocators: opts.allocators.clone(),
        load_factors: opts.loads.clone(),
        ..LoadSweep::paper_figure(opts.mesh, opts.seed)
    };
    let result = sweep.run(&trace);
    if opts.json {
        return serde_json::to_string_pretty(&result).map_err(|e| RunError::Json(e.to_string()));
    }
    let mut out = String::new();
    for &pattern in &opts.patterns {
        let _ = writeln!(out, "{}", report::response_time_table(&result, pattern));
    }
    Ok(out)
}

fn run_curves(opts: &CurvesOptions) -> String {
    let kinds: Vec<CurveKind> = match opts.curve {
        Some(kind) => vec![kind],
        None => CurveKind::all().to_vec(),
    };
    let mut out = String::new();
    for kind in kinds {
        let curve = CurveOrder::build(kind, opts.mesh);
        let window = opts.window.min(curve.len());
        let locality = window_locality(&curve, window);
        let _ = writeln!(
            out,
            "{} on {}x{}: {} gaps, window-{} avg pairwise distance {:.2}, {:.1}% of windows contiguous",
            kind.name(),
            opts.mesh.width(),
            opts.mesh.height(),
            curve.discontinuities(),
            window,
            locality.mean_pairwise_distance,
            100.0 * locality.contiguous_fraction
        );
        // Rendering a big mesh is still readable (ranks are padded), but keep
        // the gallery output bounded.
        if opts.mesh.num_nodes() <= 1024 {
            let _ = writeln!(out, "{}", curve.render_ascii());
        }
    }
    out
}

/// Online mode of `trace`: toggles or drains the flight recorder of a
/// running daemon.
fn run_trace_online(addr: &str, opts: &TraceOptions) -> Result<String, RunError> {
    let mut client = ServiceClient::connect(addr)
        .map_err(|e| RunError::Trace(format!("connect {addr}: {e}")))?;
    if let Some(enabled) = opts.set {
        let state = client
            .set_trace(enabled, None)
            .map_err(|e| RunError::Trace(e.to_string()))?;
        return Ok(format!(
            "tracing {}\n",
            if state { "enabled" } else { "disabled" }
        ));
    }
    if opts.follow {
        return run_trace_follow(&mut client, opts);
    }
    let dump = client
        .trace_events(opts.limit, opts.clear)
        .map_err(|e| RunError::Trace(e.to_string()))?;
    let rendered = match opts.format.as_str() {
        "chrome" => chrome_trace_json(&dump.events),
        _ => ndjson_lines(dump.events.iter().chain(&dump.decisions))?,
    };
    match &opts.out {
        Some(path) => {
            std::fs::write(path, rendered)
                .map_err(|e| RunError::Trace(format!("write {path}: {e}")))?;
            Ok(format!(
                "wrote {} events and {} decisions to {path} ({} dropped; tracing {})\n",
                dump.events.len(),
                dump.decisions.len(),
                dump.dropped,
                if dump.enabled { "on" } else { "off" }
            ))
        }
        None => Ok(rendered),
    }
}

/// Renders wire values as NDJSON, one per line.
fn ndjson_lines<'a>(values: impl Iterator<Item = &'a Value>) -> Result<String, RunError> {
    let mut out = String::new();
    for value in values {
        let line = serde_json::to_string(value).map_err(|e| RunError::Json(e.to_string()))?;
        let _ = writeln!(out, "{line}");
    }
    Ok(out)
}

/// `trace --follow`: polls the daemon at `--interval`, draining with
/// `clear` so each span event and decision record streams exactly once,
/// as NDJSON on stdout (or appended to `--out`). Runs until interrupted
/// or the daemon goes away.
fn run_trace_follow(client: &mut ServiceClient, opts: &TraceOptions) -> Result<String, RunError> {
    use std::io::Write as _;
    let interval = std::time::Duration::from_secs_f64(opts.interval);
    let mut sink: Box<dyn std::io::Write> = match &opts.out {
        Some(path) => Box::new(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| RunError::Trace(format!("open {path}: {e}")))?,
        ),
        None => Box::new(std::io::stdout()),
    };
    loop {
        let dump = client
            .trace_events(opts.limit, true)
            .map_err(|e| RunError::Trace(e.to_string()))?;
        if !dump.events.is_empty() || !dump.decisions.is_empty() {
            let chunk = ndjson_lines(dump.events.iter().chain(&dump.decisions))?;
            sink.write_all(chunk.as_bytes())
                .map_err(|e| RunError::Trace(format!("write: {e}")))?;
            sink.flush()
                .map_err(|e| RunError::Trace(format!("flush: {e}")))?;
        }
        std::thread::sleep(interval);
    }
}

/// Renders drained span events as a Chrome trace-event JSON array
/// (loadable in `chrome://tracing` / Perfetto). Complete events
/// (`ph: "X"`) on one process, one thread per request id.
fn chrome_trace_json(events: &[Value]) -> String {
    let rendered: Vec<Value> = events
        .iter()
        .map(|event| {
            let mut m = Map::new();
            let stage = event
                .get("stage")
                .and_then(Value::as_str)
                .unwrap_or("event");
            m.insert("name".into(), Value::Str(stage.to_string()));
            m.insert("cat".into(), Value::Str("commalloc".to_string()));
            m.insert("ph".into(), Value::Str("X".to_string()));
            m.insert(
                "ts".into(),
                Value::UInt(event.get("ts_micros").and_then(Value::as_u64).unwrap_or(0)),
            );
            m.insert(
                "dur".into(),
                Value::UInt(event.get("dur_micros").and_then(Value::as_u64).unwrap_or(0)),
            );
            m.insert("pid".into(), Value::UInt(1));
            m.insert(
                "tid".into(),
                Value::UInt(event.get("request").and_then(Value::as_u64).unwrap_or(0)),
            );
            m.insert("args".into(), event.clone());
            Value::Object(m)
        })
        .collect();
    serde_json::to_string(&Value::Array(rendered)).unwrap_or_else(|_| "[]".to_string())
}

fn run_trace(opts: &TraceOptions) -> Result<String, RunError> {
    if let Some(addr) = &opts.addr {
        return run_trace_online(addr, opts);
    }
    let trace = load_trace(opts.jobs, opts.seed, &opts.swf)?;
    let summary = trace.summary();
    let analysis = TraceAnalysis::of(&trace, 12);
    if opts.json {
        return serde_json::to_string_pretty(&(summary, &analysis))
            .map_err(|e| RunError::Json(e.to_string()));
    }
    let mut out = String::new();
    let _ = writeln!(out, "trace: {} jobs", summary.jobs);
    let _ = writeln!(
        out,
        "  interarrival  mean {:>9.0} s   CV {:>5.2}   (paper: 1301 s, CV 3.7)",
        summary.mean_interarrival, summary.cv_interarrival
    );
    let _ = writeln!(
        out,
        "  size          mean {:>9.1}     CV {:>5.2}   (paper: 14.5, CV 1.5)",
        summary.mean_size, summary.cv_size
    );
    let _ = writeln!(
        out,
        "  runtime       mean {:>9.0} s   CV {:>5.2}   (paper: 10944 s, CV 1.13)",
        summary.mean_runtime, summary.cv_runtime
    );
    let _ = writeln!(
        out,
        "  power-of-two sizes: {:.0}% of jobs",
        100.0 * summary.power_of_two_fraction
    );
    let _ = writeln!(
        out,
        "\npower-of-two size spectrum (size: fraction of jobs):"
    );
    for (size, fraction) in &analysis.power_of_two_spectrum {
        let _ = writeln!(out, "  {size:>4}: {:>5.1}%", 100.0 * fraction);
    }
    let _ = writeln!(
        out,
        "\noffered load per window (processors kept busy by arriving work):"
    );
    for (start, load) in &analysis.offered_load {
        let _ = writeln!(out, "  t = {start:>12.0} s: {load:>8.1}");
    }
    Ok(out)
}

/// Summary scalars of a wire-serialized [`LogLinearHistogram`]:
/// `(count, mean, p99, max)`. The p99 is the nearest-rank estimate over
/// the sparse `[lower, upper, count]` bucket triples (midpoint of the
/// selected bucket), matching the server-side quantile definition.
fn hist_stats(value: &Value) -> (u64, f64, f64, f64) {
    let count = value.get("count").and_then(Value::as_u64).unwrap_or(0);
    if count == 0 {
        return (0, 0.0, 0.0, 0.0);
    }
    let sum = value.get("sum").and_then(Value::as_f64).unwrap_or(0.0);
    let min = value.get("min").and_then(Value::as_f64).unwrap_or(0.0);
    let max = value.get("max").and_then(Value::as_f64).unwrap_or(0.0);
    let mut p99 = max;
    if let Some(buckets) = value.get("buckets").and_then(Value::as_array) {
        let rank = ((0.99 * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for bucket in buckets {
            let Some(triple) = bucket.as_array() else {
                continue;
            };
            let lo = triple.first().and_then(Value::as_f64).unwrap_or(0.0);
            let hi = triple.get(1).and_then(Value::as_f64);
            let c = triple.get(2).and_then(Value::as_u64).unwrap_or(0);
            seen += c;
            if seen >= rank {
                // Clamped to the observed range, as the server's
                // `LogLinearHistogram::quantile` is.
                p99 = match hi {
                    Some(hi) => (lo + hi) / 2.0,
                    None => lo,
                }
                .clamp(min.min(max), max);
                break;
            }
        }
    }
    (count, sum / count as f64, p99, max)
}

/// Renders one `watch` dashboard frame from a windowed JSON metrics
/// snapshot. Pure so the layout is unit-testable.
fn render_watch_frame(metrics: &Value, addr: &str, window: &str, frame: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "commalloc watch  {addr}  window {window}  frame {frame}"
    );
    if let Some(server) = metrics.get("server") {
        let counter = |name: &str| server.get(name).and_then(Value::as_u64).unwrap_or(0);
        let _ = writeln!(
            out,
            "  server   requests {}  errors {}  protocol_errors {}  connections {}  \
             comm_fallbacks {}",
            counter("requests"),
            counter("errors"),
            counter("protocol_errors"),
            counter("connections"),
            counter("route_comm_fallbacks"),
        );
    }
    if let Some(tracing) = metrics.get("tracing") {
        let flag = |name: &str| {
            if tracing.get(name).and_then(Value::as_bool).unwrap_or(false) {
                "on"
            } else {
                "off"
            }
        };
        let _ = writeln!(
            out,
            "  tracing  {}  calibration {}  dropped_spans_total {}",
            flag("enabled"),
            flag("calibration"),
            tracing
                .get("dropped_spans_total")
                .and_then(Value::as_u64)
                .unwrap_or(0),
        );
    }
    if let Some(Value::Object(stages)) = metrics.get("stages") {
        let _ = writeln!(out, "  stages (latency, micros):");
        for (stage, histogram) in stages.iter() {
            let (count, mean, p99, max) = hist_stats(histogram);
            let _ = writeln!(
                out,
                "    {stage:<12} count {count:>8}  mean {mean:>10.1}  p99 {p99:>10.1}  \
                 max {max:>10.1}"
            );
        }
    }
    if let Some(Value::Object(tenants)) = metrics.get("tenants") {
        if !tenants.is_empty() {
            let _ = writeln!(out, "  tenants:");
            for (tenant, entry) in tenants.iter() {
                let count = |name: &str| entry.get(name).and_then(Value::as_u64).unwrap_or(0);
                let quota = match entry.get("quota_node_seconds").and_then(Value::as_f64) {
                    Some(q) => format!("{q:.0}"),
                    None => "-".to_string(),
                };
                let _ = writeln!(
                    out,
                    "    {tenant:<12} weight {:<6.2} quota {quota:<10} admitted {:>7}  \
                     denied {:>5}  queued {:>5}  in-flight {:>4}  outstanding {:>10.0}",
                    entry.get("weight").and_then(Value::as_f64).unwrap_or(1.0),
                    count("admitted"),
                    count("denied"),
                    count("queued"),
                    count("in_flight"),
                    entry
                        .get("outstanding_node_seconds")
                        .and_then(Value::as_f64)
                        .unwrap_or(0.0),
                );
            }
        }
    }
    if let Some(Value::Object(pools)) = metrics.get("pools") {
        if !pools.is_empty() {
            let _ = writeln!(out, "  pools (route latency, micros):");
            for (pool, entry) in pools.iter() {
                let policy = entry
                    .get("policy")
                    .and_then(Value::as_str)
                    .unwrap_or("round-robin");
                let (count, mean, p99, max) =
                    hist_stats(entry.get("route_latency_micros").unwrap_or(&Value::Null));
                let _ = writeln!(
                    out,
                    "    {pool:<12} policy {policy:<14} routed {count:>8}  mean {mean:>10.1}  \
                     p99 {p99:>10.1}  max {max:>10.1}"
                );
            }
        }
    }
    out
}

/// `watch`: polls a running daemon's windowed metrics and renders a
/// live text dashboard, one frame per `--interval`.
fn run_watch(opts: &WatchOptions) -> Result<String, RunError> {
    use std::io::Write as _;
    let mut client = ServiceClient::connect(&opts.addr)
        .map_err(|e| RunError::Trace(format!("connect {}: {e}", opts.addr)))?;
    let interval = std::time::Duration::from_secs_f64(opts.interval);
    let mut frame = 0usize;
    loop {
        let metrics = client
            .metrics("json", Some(&opts.window))
            .map_err(|e| RunError::Trace(e.to_string()))?;
        frame += 1;
        let rendered = render_watch_frame(&metrics, &opts.addr, &opts.window, frame);
        if opts.count == Some(frame) {
            // The final frame flows through the normal print path, so
            // bounded runs (tests, smoke checks) capture it cleanly.
            return Ok(rendered);
        }
        let mut stdout = std::io::stdout();
        let _ = writeln!(stdout, "{rendered}");
        let _ = stdout.flush();
        std::thread::sleep(interval);
    }
}

/// Renders the calibration report as a human-readable table. Pure so
/// the layout is unit-testable.
fn render_calibration_report(report: &Value) -> String {
    let mut out = String::new();
    let enabled = report
        .get("enabled")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    let joined = report.get("joined").and_then(Value::as_u64).unwrap_or(0);
    let _ = writeln!(
        out,
        "placement calibration: {} ({} joined records)",
        if enabled { "recording" } else { "paused" },
        joined
    );
    let Some(cells) = report.get("cells").and_then(Value::as_array) else {
        return out;
    };
    if cells.is_empty() {
        let _ = writeln!(
            out,
            "  no cells yet (drive patterned allocations with calibration enabled)"
        );
        return out;
    }
    let _ = writeln!(
        out,
        "  {:<12} {:<14} {:>7} {:>6} {:>9} {:>12} {:>12} {:>11}",
        "pattern", "policy", "joined", "cand", "rank-corr", "pred-mean", "held-mean", "disp-mean"
    );
    for cell in cells {
        let field = |name: &str| cell.get(name).and_then(Value::as_str).unwrap_or("?");
        let Some(c) = cell.get("calibration") else {
            continue;
        };
        let rho = match c.get("rank_correlation").and_then(Value::as_f64) {
            Some(rho) => format!("{rho:>9.3}"),
            None => format!("{:>9}", "-"),
        };
        let mean_of = |name: &str| {
            let (count, mean, _, _) = hist_stats(c.get(name).unwrap_or(&Value::Null));
            if count == 0 {
                "-".to_string()
            } else {
                format!("{mean:.2}")
            }
        };
        let _ = writeln!(
            out,
            "  {:<12} {:<14} {:>7} {:>6.1} {} {:>12} {:>12} {:>11}",
            field("pattern"),
            field("policy"),
            c.get("joined").and_then(Value::as_u64).unwrap_or(0),
            c.get("candidates_mean")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            rho,
            mean_of("predicted"),
            mean_of("realized_held"),
            mean_of("realized_dispersal"),
        );
    }
    out
}

/// `calibration`: prints a running daemon's placement calibration
/// report (predicted-vs-realized histograms and rank correlations).
fn run_calibration(opts: &CalibrationOptions) -> Result<String, RunError> {
    let mut client = ServiceClient::connect(&opts.addr)
        .map_err(|e| RunError::Trace(format!("connect {}: {e}", opts.addr)))?;
    let report = client
        .calibration()
        .map_err(|e| RunError::Trace(e.to_string()))?;
    if opts.json {
        serde_json::to_string_pretty(&report).map_err(|e| RunError::Json(e.to_string()))
    } else {
        Ok(render_calibration_report(&report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_command;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_and_list_render() {
        assert!(Command::Help.run().unwrap().contains("simulate"));
        let listing = Command::List.run().unwrap();
        assert!(listing.contains("Hilbert w/BF"));
        assert!(listing.contains("n-body"));
        assert!(listing.contains("EASY backfill"));
    }

    #[test]
    fn simulate_runs_a_tiny_workload() {
        let cmd = parse_command(&args(&[
            "simulate", "--jobs", "20", "--load", "0.8", "--seed", "5",
        ]))
        .unwrap();
        let out = cmd.run().unwrap();
        assert!(out.contains("mean response time"));
        assert!(out.contains("simulated 20 jobs"));
    }

    #[test]
    fn simulate_json_output_is_parseable() {
        let cmd = parse_command(&args(&["simulate", "--jobs", "10", "--json"])).unwrap();
        let out = cmd.run().unwrap();
        let value: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(value.get("mean_response_time").is_some());
    }

    #[test]
    fn sweep_renders_a_table_per_pattern() {
        let cmd = parse_command(&args(&[
            "sweep",
            "--jobs",
            "15",
            "--loads",
            "1.0",
            "--pattern",
            "all-to-all",
            "--allocator",
            "MC",
        ]))
        .unwrap();
        let out = cmd.run().unwrap();
        assert!(out.contains("mean response time"));
        assert!(out.contains("MC"));
    }

    #[test]
    fn curves_render_ascii_and_stats() {
        let cmd = parse_command(&args(&["curves", "--mesh", "8x8", "--curve", "hilbert"])).unwrap();
        let out = cmd.run().unwrap();
        assert!(out.contains("Hilbert on 8x8: 0 gaps"));
        assert!(out.lines().count() > 8, "ASCII grid expected");
    }

    #[test]
    fn trace_statistics_match_the_model() {
        let cmd = parse_command(&args(&["trace", "--jobs", "500", "--seed", "1"])).unwrap();
        let out = cmd.run().unwrap();
        assert!(out.contains("trace: 500 jobs"));
        assert!(out.contains("power-of-two size spectrum"));
    }

    #[test]
    fn watch_frame_renders_counters_stages_and_pools() {
        let metrics: Value = serde_json::from_str(
            r#"{
                "server": {"requests": 12, "errors": 0, "protocol_errors": 0,
                           "connections": 2, "route_comm_fallbacks": 3},
                "tracing": {"enabled": true, "calibration": true,
                            "dropped_spans_total": 7},
                "window": "10s",
                "stages": {"parse": {"count": 4, "sum": 8.0, "min": 1.0,
                                     "max": 3.0, "scale": 1000.0,
                                     "buckets": [[1.0, 3.0, 4]]}},
                "pools": {"grid": {"policy": "comm-aware",
                                   "route_latency_micros": {"count": 2, "sum": 10.0,
                                       "min": 4.0, "max": 6.0, "scale": 1.0,
                                       "buckets": [[4.0, 6.0, 2]]}}}
            }"#,
        )
        .unwrap();
        let frame = render_watch_frame(&metrics, "h:1", "10s", 3);
        assert!(frame.contains("window 10s  frame 3"));
        assert!(frame.contains("requests 12"));
        assert!(frame.contains("comm_fallbacks 3"));
        assert!(frame.contains("dropped_spans_total 7"));
        assert!(frame.contains("calibration on"));
        assert!(frame.contains("parse"));
        assert!(frame.contains("policy comm-aware"));
        // Histogram summary math: mean 5.0, p99 = bucket midpoint.
        let (count, mean, p99, max) = hist_stats(
            metrics
                .get("pools")
                .and_then(|p| p.get("grid"))
                .and_then(|g| g.get("route_latency_micros"))
                .unwrap(),
        );
        assert_eq!(count, 2);
        assert_eq!(mean, 5.0);
        assert_eq!(p99, 5.0);
        assert_eq!(max, 6.0);
        assert_eq!(hist_stats(&Value::Null), (0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn p99_of_one_sample_is_that_sample_not_its_bucket_midpoint() {
        let lone: Value = serde_json::from_str(
            r#"{"count": 1, "sum": 97.0, "min": 97.0, "max": 97.0, "scale": 1.0,
                "buckets": [[96.0, 104.0, 1]]}"#,
        )
        .unwrap();
        assert_eq!(hist_stats(&lone), (1, 97.0, 97.0, 97.0));
    }

    #[test]
    fn calibration_report_renders_cells_and_handles_null_correlation() {
        let report: Value = serde_json::from_str(
            r#"{
                "enabled": true, "joined": 5,
                "cells": [{
                    "pattern": "ring", "policy": "comm-aware",
                    "calibration": {
                        "joined": 5, "candidates_mean": 2.4,
                        "rank_correlation": 0.75, "correlation_pairs": 5,
                        "predicted": {"count": 5, "sum": 10.0, "min": 1.0,
                                      "max": 3.0, "scale": 1000.0, "buckets": []},
                        "realized_held": {"count": 5, "sum": 50.0, "min": 5.0,
                                          "max": 15.0, "scale": 1000.0, "buckets": []},
                        "held_ratio": {"count": 0, "sum": 0.0, "min": 0.0,
                                       "max": 0.0, "scale": 1000.0, "buckets": []},
                        "queue_wait": {"count": 5, "sum": 0.0, "min": 0.0,
                                       "max": 0.0, "scale": 1000.0, "buckets": []},
                        "realized_dispersal": {"count": 5, "sum": 20.0, "min": 2.0,
                                               "max": 6.0, "scale": 1000.0, "buckets": []}
                    }
                }]
            }"#,
        )
        .unwrap();
        let rendered = render_calibration_report(&report);
        assert!(rendered.contains("recording (5 joined records)"));
        assert!(rendered.contains("ring"));
        assert!(rendered.contains("comm-aware"));
        assert!(rendered.contains("0.750"));

        let empty: Value =
            serde_json::from_str(r#"{"enabled": false, "joined": 0, "cells": []}"#).unwrap();
        let rendered = render_calibration_report(&empty);
        assert!(rendered.contains("paused (0 joined records)"));
        assert!(rendered.contains("no cells yet"));
    }

    #[test]
    fn missing_swf_file_is_a_clean_error() {
        let cmd = parse_command(&args(&[
            "trace",
            "--swf",
            "/definitely/not/a/real/file.swf",
        ]))
        .unwrap();
        let err = cmd.run().unwrap_err();
        assert!(matches!(err, RunError::Swf(_)));
        assert!(err.to_string().contains("SWF"));
    }
}
