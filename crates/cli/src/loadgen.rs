//! Closed-loop load generator for the allocation daemon.
//!
//! Each connection runs a closed loop steering the machine towards a
//! target occupancy: below target it allocates a random-size job, at or
//! above target it releases one of its live jobs. Every granted node is
//! claimed in a process-wide atomic claim table shared by all
//! connections, so a double-allocation by the daemon — including across
//! connections — is detected client-side as an occupancy-invariant
//! violation and reported in the summary.
//!
//! **Cluster mode:** a machine address of `"@pool"` routes every
//! allocation through the daemon's placement router. The claim tables
//! are then per pool member (discovered from the daemon's own pool
//! snapshot), grants are claimed on the member the daemon reports, and
//! two extra invariants are checked client-side: the reported member
//! must be a known pool member, and it must be large enough for the
//! request — a router that ever places a job on an undersized machine
//! is flagged as a violation, not an error to retry.
//!
//! The final drain sends releases as **batched** wire ops
//! (`Request::Batch`), cutting the drain's round trips by its batch
//! size.
//!
//! Detection window caveat: a node is unclaimed just *before* its
//! release is sent (the daemon cannot re-grant a node it still holds,
//! while unclaiming after the response races against legitimate
//! re-grants to other connections). A daemon bug that re-granted a node
//! during exactly its own release round trip would therefore go
//! unflagged by the claim table; the end-of-run reconciliation (daemon
//! busy count versus outstanding claims, and the drain leaving the
//! machine empty) still bounds such escapes.

use commalloc_service::client::{ClientAllocOutcome, ServiceClient};
use commalloc_service::{AllocArgs, ClientError, Framing, JobRef, Request, Response};
use commalloc_workload::CommPattern;
use rand::prelude::*;
use serde::{Map, Serialize, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// How many releases ride in one wire line during the final drain.
const DRAIN_BATCH: usize = 64;

/// Configuration of one loadgen run; the `loadgen` subcommand's flag
/// table fills it directly.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenConfig {
    /// Daemon address.
    pub addr: String,
    /// Machine to drive, or `"@pool"` to route across a cluster pool.
    pub machine: String,
    /// Mesh spec used when the machine does not exist yet (ignored in
    /// cluster mode — pool members are registered by the daemon).
    pub mesh: String,
    /// Scheduling policy used when the machine does not exist yet
    /// (`None` = the daemon's default, FCFS).
    pub scheduler: Option<String>,
    /// Total allocate/release requests to issue (across connections).
    pub requests: usize,
    /// Concurrent connections.
    pub connections: usize,
    /// Target occupancy in `(0, 1]`.
    pub occupancy: f64,
    /// Largest request size.
    pub max_size: usize,
    /// Largest walltime estimate attached to allocations, in seconds
    /// (estimates are drawn uniformly from `[1, max_walltime]`; `None`
    /// sends no estimates).
    pub max_walltime: Option<f64>,
    /// Routing policy to switch the pool to before driving (cluster
    /// mode only).
    pub router: Option<String>,
    /// Communication pattern every allocation declares (`None` sends
    /// unpatterned allocations, the pre-pattern wire form).
    pub pattern: Option<CommPattern>,
    /// Wire framing the driving connections speak (`ndjson` or
    /// `binary`; discovery and final reconciliation always use NDJSON).
    pub framing: Framing,
    /// RNG seed.
    pub seed: u64,
    /// Tenant every driving connection binds itself to with `hello`;
    /// allocations then inherit the binding server-side. `None` drives
    /// untenanted (the default-tenant books).
    pub tenant: Option<String>,
    /// Skip the final drain: granted jobs stay live on the daemon. The
    /// crash-recovery harness then kills the daemon and asserts the
    /// recovered occupancy matches the claim table exactly.
    pub no_drain: bool,
    /// Write the end-of-run claim table (live jobs with exact nodes) to
    /// this JSON file for `recovery-check`.
    pub claims_out: Option<String>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: crate::args::DEFAULT_ADDR.to_string(),
            machine: "default".to_string(),
            mesh: "16x16".to_string(),
            scheduler: None,
            requests: 10_000,
            connections: 4,
            occupancy: 0.7,
            max_size: 32,
            max_walltime: None,
            router: None,
            pattern: None,
            framing: Framing::Ndjson,
            seed: 1996,
            tenant: None,
            no_drain: false,
            claims_out: None,
        }
    }
}

/// Aggregated result of a loadgen run.
#[derive(Debug, Clone, Serialize)]
pub struct LoadgenReport {
    /// Requests actually issued (allocates + releases, including drain).
    pub requests: u64,
    /// Immediate grants.
    pub granted: u64,
    /// Rejections (treated as backpressure, not errors).
    pub rejected: u64,
    /// Releases issued.
    pub released: u64,
    /// Occupancy-invariant violations detected client-side (cluster
    /// mode adds misrouting violations: unknown or undersized members).
    pub violations: u64,
    /// Wall-clock seconds of the steady-state window: every connection
    /// established and past the start barrier before the clock starts,
    /// so connect storms at high connection counts don't skew req/s.
    pub elapsed_seconds: f64,
    /// Seconds spent establishing connections before the steady-state
    /// window opened (the excluded ramp).
    pub setup_seconds: f64,
    /// Requests per second over the steady-state window.
    pub throughput: f64,
    /// Final busy count reported by the daemon after draining (summed
    /// over pool members in cluster mode).
    pub final_busy: u64,
    /// Machines driven (1 for a direct machine, pool size in cluster
    /// mode).
    pub machines: u64,
}

impl LoadgenReport {
    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        format!(
            "loadgen: {} requests in {:.2} s steady state ({:.0} req/s, \
             +{:.2} s ramp) across {} machine(s)\n\
             \x20 granted   {:>8}\n\
             \x20 rejected  {:>8}\n\
             \x20 released  {:>8}\n\
             \x20 violations{:>8}\n\
             \x20 final busy{:>8}\n",
            self.requests,
            self.elapsed_seconds,
            self.throughput,
            self.setup_seconds,
            self.machines,
            self.granted,
            self.rejected,
            self.released,
            self.violations,
            self.final_busy,
        )
    }

    /// JSON rendering (for `--json` and the service benchmark).
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("requests".into(), self.requests.to_value());
        m.insert("granted".into(), self.granted.to_value());
        m.insert("rejected".into(), self.rejected.to_value());
        m.insert("released".into(), self.released.to_value());
        m.insert("violations".into(), self.violations.to_value());
        m.insert("elapsed_seconds".into(), self.elapsed_seconds.to_value());
        m.insert("setup_seconds".into(), self.setup_seconds.to_value());
        m.insert("throughput".into(), self.throughput.to_value());
        m.insert("final_busy".into(), self.final_busy.to_value());
        m.insert("machines".into(), self.machines.to_value());
        Value::Object(m)
    }
}

/// Shared counters and the per-machine node claim tables.
struct Shared {
    granted: AtomicU64,
    rejected: AtomicU64,
    released: AtomicU64,
    requests: AtomicU64,
    violations: AtomicU64,
    /// Jobs left live at end of run (`no_drain` mode): each connection
    /// parks its survivors here for the claim-table file.
    surviving: std::sync::Mutex<Vec<LiveJob>>,
    /// Per machine: one flag per node, set while some connection
    /// believes it holds the node. Double allocation trips the swap and
    /// counts as a violation.
    claims: HashMap<String, Vec<AtomicBool>>,
    /// Aggregate node count of the driven machines (from the daemon's
    /// own snapshots); steers the closed loop's occupancy target.
    total_nodes: usize,
    /// Node count of the largest driven machine: the cap on request
    /// sizes, so every request stays routable somewhere in the pool
    /// (an unroutable size is a hard service error, not backpressure).
    max_machine_nodes: usize,
}

impl Shared {
    /// Claims `nodes` on `machine`; an unknown machine or out-of-range
    /// node is itself a violation (the daemon reported a grant the
    /// client-side model cannot even represent).
    fn claim(&self, machine: &str, nodes: &[commalloc_mesh::NodeId]) {
        let Some(table) = self.claims.get(machine) else {
            self.violations.fetch_add(1, Ordering::SeqCst);
            return;
        };
        for node in nodes {
            match table.get(node.index()) {
                Some(flag) => {
                    if flag.swap(true, Ordering::SeqCst) {
                        self.violations.fetch_add(1, Ordering::SeqCst);
                    }
                }
                None => {
                    self.violations.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
    }

    fn unclaim(&self, machine: &str, nodes: &[commalloc_mesh::NodeId]) {
        let Some(table) = self.claims.get(machine) else {
            self.violations.fetch_add(1, Ordering::SeqCst);
            return;
        };
        for node in nodes {
            match table.get(node.index()) {
                Some(flag) => {
                    if !flag.swap(false, Ordering::SeqCst) {
                        self.violations.fetch_add(1, Ordering::SeqCst);
                    }
                }
                None => {
                    self.violations.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
    }

    /// Checks a routed placement: the daemon must have named a known
    /// member large enough for the request.
    fn check_placement(&self, machine: &str, size: usize) {
        match self.claims.get(machine) {
            Some(table) if size <= table.len() => {}
            _ => {
                self.violations.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
}

/// Discovers the machines behind `config.machine`: the pool members (in
/// cluster mode, optionally switching the routing policy first) or the
/// single machine itself (registered on demand). Returns `(name, nodes)`
/// pairs.
fn discover_machines(config: &LoadgenConfig) -> Result<Vec<(String, usize)>, String> {
    let mut client = ServiceClient::connect(&config.addr)
        .map_err(|e| format!("cannot connect to {}: {e}", config.addr))?;
    if let Some(pool) = config.machine.strip_prefix('@') {
        if let Some(router) = &config.router {
            client
                .set_router(pool, router)
                .map_err(|e| format!("set_router failed: {e}"))?;
        }
        let snapshot = client
            .query(&config.machine)
            .map_err(|e| format!("pool query failed: {e}"))?;
        let members = snapshot
            .get("machines")
            .and_then(Value::as_array)
            .ok_or_else(|| "pool snapshot lacks a machines array".to_string())?;
        let machines: Option<Vec<(String, usize)>> = members
            .iter()
            .map(|m| {
                Some((
                    m.get("machine")?.as_str()?.to_string(),
                    m.get("nodes")?.as_u64()? as usize,
                ))
            })
            .collect();
        machines
            .filter(|m| !m.is_empty())
            .ok_or_else(|| "pool snapshot has malformed member entries".to_string())
    } else {
        // Register the machine; racing with another loadgen (or a
        // pre-registered server machine) is fine. The claim table is
        // then sized from the daemon's own snapshot — the live machine
        // may differ from the `--mesh` flag when it already existed.
        match client.register(
            &config.machine,
            &config.mesh,
            None,
            None,
            config.scheduler.as_deref(),
        ) {
            Ok(()) => {}
            Err(ClientError::Service(message)) if message.contains("already registered") => {}
            Err(e) => return Err(format!("register failed: {e}")),
        }
        let nodes = client
            .query(&config.machine)
            .map_err(|e| format!("query failed: {e}"))?
            .get("nodes")
            .and_then(Value::as_u64)
            .ok_or_else(|| "query response lacks a node count".to_string())?
            .max(1) as usize;
        Ok(vec![(config.machine.clone(), nodes)])
    }
}

/// Runs the load against a live daemon. Returns an error string on
/// connection/protocol failure.
pub fn run(config: &LoadgenConfig) -> Result<LoadgenReport, String> {
    let machines = discover_machines(config)?;
    let shared = Arc::new(Shared {
        granted: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        released: AtomicU64::new(0),
        requests: AtomicU64::new(0),
        violations: AtomicU64::new(0),
        surviving: std::sync::Mutex::new(Vec::new()),
        claims: machines
            .iter()
            .map(|(name, nodes)| {
                (
                    name.clone(),
                    (0..*nodes).map(|_| AtomicBool::new(false)).collect(),
                )
            })
            .collect(),
        total_nodes: machines
            .iter()
            .map(|(_, nodes)| nodes)
            .sum::<usize>()
            .max(1),
        max_machine_nodes: machines
            .iter()
            .map(|(_, nodes)| *nodes)
            .max()
            .unwrap_or(1)
            .max(1),
    });

    let connections = config.connections.max(1);
    let per_connection = config.requests.div_ceil(connections);
    // Steady-state window: every connection connects first, then all of
    // them (plus the timing thread here) meet at a barrier before the
    // first request moves. The reported throughput excludes the connect
    // ramp — at high connection counts the accept storm is setup cost,
    // not serving capacity.
    let start_barrier = Barrier::new(connections + 1);
    let setup_start = Instant::now();
    let mut failures: Vec<String> = Vec::new();
    let mut setup = 0.0f64;
    let mut elapsed = 0.0f64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let config = config.clone();
                let start_barrier = &start_barrier;
                scope.spawn(move || {
                    drive_connection(&config, i, per_connection, &shared, start_barrier)
                })
            })
            .collect();
        start_barrier.wait();
        setup = setup_start.elapsed().as_secs_f64();
        let steady_start = Instant::now();
        for handle in handles {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => failures.push(e),
                Err(_) => failures.push("connection thread panicked".to_string()),
            }
        }
        elapsed = steady_start.elapsed().as_secs_f64();
    });
    if let Some(failure) = failures.into_iter().next() {
        return Err(failure);
    }

    // After draining, the daemon must agree every machine is empty.
    let mut client = ServiceClient::connect(&config.addr)
        .map_err(|e| format!("cannot reconnect to {}: {e}", config.addr))?;
    let mut final_busy = 0u64;
    for (name, _) in &machines {
        match client
            .query(name)
            .map_err(|e| format!("final query of {name} failed: {e}"))?
            .get("busy")
            .and_then(Value::as_u64)
        {
            Some(busy) => final_busy += busy,
            // A snapshot without a numeric busy count is itself a
            // violation; do not poison the sum with a sentinel.
            None => {
                shared.violations.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
    let local_claims: u64 = shared
        .claims
        .values()
        .map(|table| table.iter().filter(|c| c.load(Ordering::SeqCst)).count() as u64)
        .sum();
    if final_busy != local_claims {
        shared.violations.fetch_add(1, Ordering::SeqCst);
    }

    if let Some(path) = &config.claims_out {
        let survivors = shared.surviving.lock().expect("surviving table poisoned");
        let claims = claims_value(
            &config.machine,
            config.tenant.as_deref(),
            &machines,
            &survivors,
        );
        let json = serde_json::to_string_pretty(&claims)
            .map_err(|e| format!("cannot render claim table: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    let requests = shared.requests.load(Ordering::SeqCst);
    Ok(LoadgenReport {
        requests,
        granted: shared.granted.load(Ordering::SeqCst),
        rejected: shared.rejected.load(Ordering::SeqCst),
        released: shared.released.load(Ordering::SeqCst),
        violations: shared.violations.load(Ordering::SeqCst),
        elapsed_seconds: elapsed,
        setup_seconds: setup,
        throughput: requests as f64 / elapsed.max(1e-9),
        final_busy,
        machines: machines.len() as u64,
    })
}

/// One connection's closed loop plus final (batched) drain.
fn drive_connection(
    config: &LoadgenConfig,
    index: usize,
    budget: usize,
    shared: &Shared,
    start_barrier: &Barrier,
) -> Result<(), String> {
    // Connect before the barrier so the steady-state clock never counts
    // connection setup — and hit the barrier exactly once even on a
    // failed connect, or the timing thread would deadlock waiting.
    let connected = ServiceClient::connect_with_framing(&config.addr, config.framing);
    start_barrier.wait();
    let mut client = connected.map_err(|e| format!("connection {index}: {e}"))?;
    if let Some(tenant) = &config.tenant {
        client
            .hello(tenant)
            .map_err(|e| format!("connection {index}: hello {tenant}: {e}"))?;
    }
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(index as u64));
    // Job ids are partitioned per connection so they never collide.
    let mut next_job = (index as u64) << 40;
    let total_nodes = shared.total_nodes;
    let mut live: Vec<(String, u64, Vec<commalloc_mesh::NodeId>)> = Vec::new();
    let mut held = 0usize;
    let mut issued = 0usize;

    let fail = |e: ClientError| format!("connection {index}: {e}");

    while issued < budget {
        // Steer towards the per-connection share of the target occupancy.
        let target =
            (config.occupancy * total_nodes as f64 / config.connections.max(1) as f64) as usize;
        let allocate = live.is_empty() || (held < target && rng.gen_bool(0.7));
        if allocate {
            let size = rng.gen_range(1..=config.max_size.min(shared.max_machine_nodes));
            let walltime = config
                .max_walltime
                .map(|max| rng.gen_range(1.0..=max.max(1.0)));
            let job = next_job;
            next_job += 1;
            let args = AllocArgs {
                walltime,
                pattern: config.pattern,
                ..AllocArgs::new(job, size)
            };
            let (machine, outcome) = client.alloc(&config.machine, &args).map_err(fail)?;
            match outcome {
                ClientAllocOutcome::Granted(nodes) => {
                    shared.check_placement(&machine, size);
                    shared.claim(&machine, &nodes);
                    shared.granted.fetch_add(1, Ordering::SeqCst);
                    held += nodes.len();
                    live.push((machine, job, nodes));
                }
                ClientAllocOutcome::Rejected(_) => {
                    shared.rejected.fetch_add(1, Ordering::SeqCst);
                    // Backpressure: free something before trying again.
                    if let Some((machine, job, nodes)) = pick_victim(&mut live, &mut rng) {
                        // Unclaim BEFORE the release reaches the daemon:
                        // once released, the nodes may be granted to
                        // another connection immediately, and a stale
                        // claim would read as a false violation.
                        shared.unclaim(&machine, &nodes);
                        client.release(&machine, job).map_err(fail)?;
                        shared.released.fetch_add(1, Ordering::SeqCst);
                        shared.requests.fetch_add(1, Ordering::SeqCst);
                        held -= nodes.len();
                        issued += 1;
                    }
                }
                ClientAllocOutcome::Queued(_) => {
                    return Err(format!(
                        "connection {index}: unexpected queue (loadgen never sets wait)"
                    ));
                }
            }
        } else if let Some((machine, job, nodes)) = pick_victim(&mut live, &mut rng) {
            shared.unclaim(&machine, &nodes);
            client.release(&machine, job).map_err(fail)?;
            shared.released.fetch_add(1, Ordering::SeqCst);
            held -= nodes.len();
        }
        shared.requests.fetch_add(1, Ordering::SeqCst);
        issued += 1;
    }

    if config.no_drain {
        // Leave the jobs live (claims stay set, so the end-of-run
        // reconciliation still holds) and park them for the claim-table
        // file — the state the crash harness expects recovery to rebuild.
        shared
            .surviving
            .lock()
            .expect("surviving table poisoned")
            .append(&mut live);
        return Ok(());
    }

    // Drain: return everything so the final snapshots must read empty.
    // Releases are batched onto single wire lines — the batch op exists
    // precisely to cut round trips in closed loops like this one.
    for chunk in live.chunks(DRAIN_BATCH) {
        let mut batch = Vec::with_capacity(chunk.len());
        for (machine, job, nodes) in chunk {
            shared.unclaim(machine, nodes);
            batch.push(Request::Release {
                machine: Some(machine.clone()),
                job: JobRef::Bare(*job),
            });
        }
        let responses = client.batch(batch).map_err(fail)?;
        for response in responses {
            match response {
                Response::Released { .. } => {
                    shared.released.fetch_add(1, Ordering::SeqCst);
                    shared.requests.fetch_add(1, Ordering::SeqCst);
                }
                other => {
                    return Err(format!(
                        "connection {index}: drain release answered {other:?}"
                    ))
                }
            }
        }
    }
    Ok(())
}

type LiveJob = (String, u64, Vec<commalloc_mesh::NodeId>);

fn pick_victim(live: &mut Vec<LiveJob>, rng: &mut StdRng) -> Option<LiveJob> {
    if live.is_empty() {
        return None;
    }
    let at = rng.gen_range(0..live.len());
    Some(live.swap_remove(at))
}

/// Renders the claim table: the machines driven and every job left live
/// with its exact nodes — the ground truth `recovery-check` holds a
/// recovered daemon to.
fn claims_value(
    machine_arg: &str,
    tenant: Option<&str>,
    machines: &[(String, usize)],
    live: &[LiveJob],
) -> Value {
    let mut m = Map::new();
    m.insert("machine_arg".into(), machine_arg.to_value());
    if let Some(tenant) = tenant {
        m.insert("tenant".into(), tenant.to_value());
    }
    m.insert(
        "machines".into(),
        Value::Array(
            machines
                .iter()
                .map(|(name, nodes)| {
                    let mut e = Map::new();
                    e.insert("machine".into(), name.to_value());
                    e.insert("nodes".into(), nodes.to_value());
                    Value::Object(e)
                })
                .collect(),
        ),
    );
    m.insert(
        "live".into(),
        Value::Array(
            live.iter()
                .map(|(machine, job, nodes)| {
                    let mut e = Map::new();
                    e.insert("machine".into(), machine.to_value());
                    e.insert("job".into(), Value::UInt(*job));
                    e.insert(
                        "nodes".into(),
                        Value::Array(nodes.iter().map(|n| Value::UInt(n.0 as u64)).collect()),
                    );
                    Value::Object(e)
                })
                .collect(),
        ),
    );
    Value::Object(m)
}

/// The `recovery-check` verdict.
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryCheckReport {
    /// Machines compared.
    pub machines: u64,
    /// Live jobs verified.
    pub jobs: u64,
    /// Processors the claim table says are held.
    pub claimed_nodes: u64,
    /// Processors the recovered daemon reports busy.
    pub recovered_busy: u64,
    /// Divergences: lost grants (claimed job not running, or running on
    /// different nodes), resurrected state (busy count above the
    /// claims, queue entries that should not exist), `@pool`
    /// misresolutions, and tenant-table losses.
    pub violations: u64,
    /// Extra checks performed: `@pool` resolutions of live jobs (in
    /// cluster mode) plus tenant-table verifications (when the claims
    /// were driven under a tenant).
    pub extra_checks: u64,
}

impl RecoveryCheckReport {
    /// Human-readable summary.
    pub fn render(&self) -> String {
        format!(
            "recovery-check: {} machines, {} live jobs\n\
             \x20 claimed nodes  {:>8}\n\
             \x20 recovered busy {:>8}\n\
             \x20 extra checks   {:>8}\n\
             \x20 violations     {:>8}\n",
            self.machines,
            self.jobs,
            self.claimed_nodes,
            self.recovered_busy,
            self.extra_checks,
            self.violations,
        )
    }
}

/// Compares a recovered daemon against a saved claim table: every live
/// job must still run on exactly its claimed nodes (zero lost grants),
/// every machine's busy count must equal the claims against it (zero
/// resurrected releases), and the queues must be empty (loadgen never
/// queues).
pub fn recovery_check(addr: &str, claims_path: &str) -> Result<RecoveryCheckReport, String> {
    use commalloc_service::registry::JobStatus;

    let text = std::fs::read_to_string(claims_path)
        .map_err(|e| format!("cannot read {claims_path}: {e}"))?;
    let claims: Value =
        serde_json::from_str(&text).map_err(|e| format!("{claims_path} is not JSON: {e}"))?;
    let machines = claims
        .get("machines")
        .and_then(Value::as_array)
        .ok_or_else(|| "claim table lacks a machines array".to_string())?;
    let live = claims
        .get("live")
        .and_then(Value::as_array)
        .ok_or_else(|| "claim table lacks a live array".to_string())?;

    let mut client =
        ServiceClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut violations = 0u64;
    let mut extra_checks = 0u64;
    let mut claimed_per_machine: HashMap<String, u64> = HashMap::new();
    // In cluster mode the claims were driven through "@pool": the
    // recovered pool must resolve every live bare id back to the
    // member the router placed it on.
    let pool_address = claims
        .get("machine_arg")
        .and_then(Value::as_str)
        .filter(|arg| arg.starts_with('@'))
        .map(str::to_string);

    // Every claimed job must have survived with its exact processors.
    for entry in live {
        let (Some(machine), Some(job)) = (
            entry.get("machine").and_then(Value::as_str),
            entry.get("job").and_then(Value::as_u64),
        ) else {
            return Err("claim table has a malformed live entry".to_string());
        };
        let want: Option<Vec<u64>> = entry
            .get("nodes")
            .and_then(Value::as_array)
            .map(|nodes| nodes.iter().filter_map(Value::as_u64).collect());
        let want = want.ok_or_else(|| "claim table has a malformed node list".to_string())?;
        *claimed_per_machine.entry(machine.to_string()).or_default() += want.len() as u64;
        let (resolved, status) = match &pool_address {
            // Poll through the pool address: the recovered index does
            // the bare-id → member resolution.
            Some(pool) => client
                .poll_ref(Some(pool), &JobRef::Bare(job))
                .map_err(|e| format!("poll of job {job} via {pool} failed: {e}"))?,
            None => {
                let status = client
                    .poll(machine, job)
                    .map_err(|e| format!("poll of job {job} on {machine} failed: {e}"))?;
                (None, status)
            }
        };
        if let Some(pool) = &pool_address {
            extra_checks += 1;
            if resolved.as_deref() != Some(machine) {
                eprintln!(
                    "recovery-check: {pool} resolved job {job} to {resolved:?}, claimed {machine}"
                );
                violations += 1;
            }
        }
        match status {
            JobStatus::Running(nodes) => {
                let got: Vec<u64> = nodes.iter().map(|n| n.0 as u64).collect();
                if got != want {
                    eprintln!(
                        "recovery-check: job {job} on {machine} holds {got:?}, claimed {want:?}"
                    );
                    violations += 1;
                }
            }
            other => {
                eprintln!("recovery-check: job {job} on {machine} is {other:?}, claimed running");
                violations += 1;
            }
        }
    }

    // Busy counts must equal the claims exactly: anything above is a
    // resurrected release, anything below a lost grant the poll loop
    // already flagged. Queues must be empty (loadgen never waits).
    let mut recovered_busy = 0u64;
    for entry in machines {
        let Some(name) = entry.get("machine").and_then(Value::as_str) else {
            return Err("claim table has a malformed machine entry".to_string());
        };
        let snapshot = client
            .query(name)
            .map_err(|e| format!("query of {name} failed: {e}"))?;
        let busy = snapshot
            .get("busy")
            .and_then(Value::as_u64)
            .unwrap_or(u64::MAX);
        let queue_len = snapshot
            .get("queue_len")
            .and_then(Value::as_u64)
            .unwrap_or(u64::MAX);
        let claimed = claimed_per_machine.get(name).copied().unwrap_or(0);
        recovered_busy += if busy == u64::MAX { 0 } else { busy };
        if busy != claimed {
            eprintln!("recovery-check: {name} reports {busy} busy, claim table says {claimed}");
            violations += 1;
        }
        if queue_len != 0 {
            eprintln!("recovery-check: {name} recovered {queue_len} queued requests from a queue-free run");
            violations += 1;
        }
    }

    // When the claims were driven under a tenant, the recovered tenant
    // table must carry that tenant with outstanding node-seconds that
    // match the survival of its jobs.
    if let Some(tenant) = claims.get("tenant").and_then(Value::as_str) {
        extra_checks += 1;
        let claimed_nodes: u64 = claimed_per_machine.values().sum();
        let tenants = client
            .tenants()
            .map_err(|e| format!("tenant table fetch failed: {e}"))?;
        match tenants.get(tenant) {
            None => {
                eprintln!("recovery-check: tenant {tenant} missing from the recovered table");
                violations += 1;
            }
            Some(row) => {
                let outstanding = row
                    .get("outstanding_node_seconds")
                    .and_then(Value::as_f64)
                    .unwrap_or(-1.0);
                if (claimed_nodes > 0) != (outstanding > 0.0) {
                    eprintln!(
                        "recovery-check: tenant {tenant} shows {outstanding} outstanding \
                         node-seconds against {claimed_nodes} claimed nodes"
                    );
                    violations += 1;
                }
            }
        }
    }

    Ok(RecoveryCheckReport {
        machines: machines.len() as u64,
        jobs: live.len() as u64,
        claimed_nodes: claimed_per_machine.values().sum(),
        recovered_busy,
        violations,
        extra_checks,
    })
}
