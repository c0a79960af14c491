//! A blocking TCP client for the service protocol.

use crate::framing::{self, FrameBuffer, Framing};
use crate::protocol::{AllocArgs, JobRef, Request, Response};
use crate::registry::JobStatus;
use commalloc_mesh::NodeId;
use serde::Value;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server's bytes did not parse as a protocol response, or the
    /// response kind did not match the request.
    Protocol(String),
    /// The server answered with a protocol-level error.
    Service(String),
    /// The request was refused client-side before any bytes were sent
    /// (e.g. a non-finite or non-positive walltime estimate, which the
    /// server would reject anyway and which NDJSON cannot even spell).
    InvalidRequest(String),
    /// The tenant's node-second quota would be exceeded (typed decode
    /// of the server's `quota_exceeded` error).
    QuotaExceeded {
        /// The tenant whose quota blocked admission.
        tenant: String,
        /// Node-seconds already committed or consumed against the quota.
        usage: f64,
        /// The quota itself.
        limit: f64,
    },
    /// A bare job id addressed through `@pool` matched jobs on several
    /// members (typed decode of the server's `ambiguous_job` error).
    AmbiguousJob {
        /// The pool that was addressed.
        pool: String,
        /// The colliding job id.
        job: u64,
        /// Every member holding that id, sorted.
        machines: Vec<String>,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Service(e) => write!(f, "service error: {e}"),
            ClientError::InvalidRequest(e) => write!(f, "invalid request: {e}"),
            ClientError::QuotaExceeded {
                tenant,
                usage,
                limit,
            } => write!(
                f,
                "quota exceeded for tenant {tenant}: {usage} of {limit} node-seconds"
            ),
            ClientError::AmbiguousJob {
                pool,
                job,
                machines,
            } => write!(
                f,
                "job {job} is ambiguous in @{pool}: held by {}",
                machines.join(", ")
            ),
        }
    }
}

/// Decodes a wire error into the richest client error its `code` and
/// `detail` admit; anything unrecognised stays a plain `Service` error.
fn decode_service_error(
    message: String,
    code: Option<String>,
    detail: Option<Value>,
) -> ClientError {
    let detail = detail.unwrap_or(Value::Null);
    match code.as_deref() {
        Some("quota_exceeded") => {
            if let (Some(tenant), Some(usage), Some(limit)) = (
                detail.get("tenant").and_then(Value::as_str),
                detail.get("usage").and_then(Value::as_f64),
                detail.get("limit").and_then(Value::as_f64),
            ) {
                return ClientError::QuotaExceeded {
                    tenant: tenant.to_string(),
                    usage,
                    limit,
                };
            }
            ClientError::Service(message)
        }
        Some("ambiguous_job") => {
            let machines = detail
                .get("machines")
                .and_then(Value::as_array)
                .map(|ms| {
                    ms.iter()
                        .filter_map(Value::as_str)
                        .map(str::to_string)
                        .collect::<Vec<_>>()
                })
                .unwrap_or_default();
            if let (Some(pool), Some(job)) = (
                detail.get("pool").and_then(Value::as_str),
                detail.get("job").and_then(Value::as_u64),
            ) {
                return ClientError::AmbiguousJob {
                    pool: pool.to_string(),
                    job,
                    machines,
                };
            }
            ClientError::Service(message)
        }
        _ => ClientError::Service(message),
    }
}

/// Client-side mirror of the boundary rule on walltime estimates: when
/// present, the estimate must be finite and positive. Checked before a
/// request is rendered — `Value::Float(NaN)` has no NDJSON spelling, so
/// sending it would produce a malformed wire line rather than a clean
/// server-side rejection.
fn validate_walltime(walltime: Option<f64>) -> Result<(), ClientError> {
    match walltime {
        Some(w) if !crate::protocol::walltime_is_valid(w) => Err(ClientError::InvalidRequest(
            format!("walltime estimate must be finite and positive, got {w}"),
        )),
        _ => Ok(()),
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Outcome of a client-side allocation call (mirror of the service's
/// [`crate::registry::AllocOutcome`], decoded from the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientAllocOutcome {
    /// Granted these processors.
    Granted(Vec<NodeId>),
    /// Queued at this 1-based position.
    Queued(usize),
    /// Rejected for this reason.
    Rejected(String),
}

/// One drain of the daemon's flight recorder (see
/// [`ServiceClient::trace_events`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDump {
    /// Span events, oldest first, as raw wire values.
    pub events: Vec<Value>,
    /// Events lost to ring-buffer overflow since the last clearing drain.
    pub dropped: u64,
    /// Whether the recorder was capturing at drain time.
    pub enabled: bool,
    /// Routing-decision records, oldest first, as raw wire values.
    pub decisions: Vec<Value>,
}

/// Jobs granted from the queue by a release, in grant order.
pub type GrantedJobs = Vec<(u64, Vec<NodeId>)>;

/// A blocking connection to the daemon.
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    framing: Framing,
    frames: FrameBuffer,
}

impl ServiceClient {
    /// Connects to a running server speaking NDJSON (the default).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServiceClient> {
        ServiceClient::connect_with_framing(addr, Framing::Ndjson)
    }

    /// Connects to a running server speaking the given framing. The
    /// server discriminates per frame, so no handshake is needed — the
    /// first request's leading byte is the negotiation.
    pub fn connect_with_framing(
        addr: impl ToSocketAddrs,
        framing: Framing,
    ) -> io::Result<ServiceClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(ServiceClient {
            reader: BufReader::new(stream),
            writer,
            framing,
            frames: FrameBuffer::new(),
        })
    }

    /// The framing this client sends requests in.
    pub fn framing(&self) -> Framing {
        self.framing
    }

    /// Sends one request and reads its response frame.
    pub fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        match self.framing {
            Framing::Ndjson => writeln!(self.writer, "{}", request.to_line())?,
            Framing::Binary => {
                let bytes = framing::encode_frame(&request.to_value())
                    .map_err(|e| ClientError::InvalidRequest(format!("unencodable: {e}")))?;
                self.writer.write_all(&bytes)?;
            }
        }
        self.writer.flush()?;
        self.read_response_frame()
    }

    /// Reads one complete frame (of either framing — the server answers
    /// in the request's, but decoding stays general) into a `Response`.
    fn read_response_frame(&mut self) -> Result<Response, ClientError> {
        loop {
            if let Some(frame) = self
                .frames
                .next_frame()
                .map_err(|e| ClientError::Protocol(e.to_string()))?
            {
                return match frame.framing {
                    Framing::Ndjson => std::str::from_utf8(&frame.payload)
                        .map_err(|e| ClientError::Protocol(e.to_string()))
                        .and_then(|line| {
                            Response::from_line(line)
                                .map_err(|e| ClientError::Protocol(e.to_string()))
                        }),
                    Framing::Binary => framing::decode_value(&frame.payload)
                        .map_err(|e| ClientError::Protocol(e.to_string()))
                        .and_then(|value| {
                            Response::from_value(&value)
                                .map_err(|e| ClientError::Protocol(e.to_string()))
                        }),
                };
            }
            let chunk = self.reader.fill_buf()?;
            if chunk.is_empty() {
                return Err(ClientError::Protocol(
                    "server closed the connection".to_string(),
                ));
            }
            let consumed = chunk.len();
            self.frames.extend(chunk);
            self.reader.consume(consumed);
        }
    }

    fn expect<T>(
        &mut self,
        request: &Request,
        decode: impl FnOnce(Response) -> Result<T, Response>,
    ) -> Result<T, ClientError> {
        match self.roundtrip(request)? {
            Response::Error {
                message,
                code,
                detail,
            } => Err(decode_service_error(message, code, detail)),
            other => decode(other).map_err(|unexpected| {
                ClientError::Protocol(format!("unexpected response {unexpected:?}"))
            }),
        }
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.expect(&Request::Ping, |r| match r {
            Response::Pong => Ok(()),
            other => Err(other),
        })
    }

    /// Registers a machine (see [`crate::AllocationService::register`]
    /// for the spec grammar). `scheduler` picks the admission policy
    /// (`"fcfs"`, `"backfill"`, `"easy"`, `"conservative"`;
    /// `None` = FCFS).
    pub fn register(
        &mut self,
        machine: &str,
        mesh: &str,
        allocator: Option<&str>,
        strategy: Option<&str>,
        scheduler: Option<&str>,
    ) -> Result<(), ClientError> {
        self.register_in_pool(machine, mesh, allocator, strategy, scheduler, None)
    }

    /// Registers a machine and joins it to cluster pool `pool` (see
    /// [`crate::AllocationService::register_in_pool`]).
    pub fn register_in_pool(
        &mut self,
        machine: &str,
        mesh: &str,
        allocator: Option<&str>,
        strategy: Option<&str>,
        scheduler: Option<&str>,
        pool: Option<&str>,
    ) -> Result<(), ClientError> {
        let request = Request::Register {
            machine: machine.to_string(),
            mesh: mesh.to_string(),
            allocator: allocator.map(str::to_string),
            strategy: strategy.map(str::to_string),
            scheduler: scheduler.map(str::to_string),
            pool: pool.map(str::to_string),
        };
        self.expect(&request, |r| match r {
            Response::Registered { .. } => Ok(()),
            other => Err(other),
        })
    }

    /// Requests processors for a job from `target` — a machine name or a
    /// `"@pool"` cluster address — and returns the machine that actually
    /// took the request alongside the outcome. For a routed request the
    /// server names the chosen member; a direct request echoes `target`
    /// itself. A `None` tenant falls back to the connection's `hello`
    /// binding (or the default tenant).
    pub fn alloc(
        &mut self,
        target: &str,
        args: &AllocArgs<'_>,
    ) -> Result<(String, ClientAllocOutcome), ClientError> {
        validate_walltime(args.walltime)?;
        let request = Request::Alloc {
            machine: target.to_string(),
            job: args.job,
            size: args.size,
            wait: args.wait,
            walltime: args.walltime,
            pattern: args.pattern,
            tenant: args.tenant.map(str::to_string),
        };
        let (machine, outcome) = self.expect(&request, |r| match r {
            Response::Granted { nodes, machine, .. } => {
                Ok((machine, ClientAllocOutcome::Granted(nodes)))
            }
            Response::Queued {
                position, machine, ..
            } => Ok((machine, ClientAllocOutcome::Queued(position))),
            Response::Rejected {
                reason, machine, ..
            } => Ok((machine, ClientAllocOutcome::Rejected(reason))),
            other => Err(other),
        })?;
        match machine {
            Some(member) => Ok((member, outcome)),
            None if !target.starts_with('@') => Ok((target.to_string(), outcome)),
            None => Err(ClientError::Protocol(
                "routed alloc response names no machine".to_string(),
            )),
        }
    }

    /// Switches the routing policy of pool `pool` (no `@` sigil);
    /// returns the canonical name of the now-active policy.
    pub fn set_router(&mut self, pool: &str, policy: &str) -> Result<String, ClientError> {
        let request = Request::SetRouter {
            pool: pool.to_string(),
            policy: policy.to_string(),
        };
        self.expect(&request, |r| match r {
            Response::RouterSet { policy, .. } => Ok(policy),
            other => Err(other),
        })
    }

    /// Sends several requests on one wire line and returns the per-
    /// request responses in order (the round-trip saver). Service-level
    /// failures of individual members come back as
    /// [`Response::Error`] entries rather than failing the whole batch.
    pub fn batch(&mut self, requests: Vec<Request>) -> Result<Vec<Response>, ClientError> {
        let expected = requests.len();
        match self.roundtrip(&Request::Batch(requests))? {
            Response::Error {
                message,
                code,
                detail,
            } => Err(decode_service_error(message, code, detail)),
            Response::Batch(responses) if responses.len() == expected => Ok(responses),
            Response::Batch(responses) => Err(ClientError::Protocol(format!(
                "batch of {expected} answered with {} responses",
                responses.len()
            ))),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Switches the machine's scheduling policy at runtime; returns the
    /// jobs the re-drain admitted from the queue, in grant order.
    pub fn set_scheduler(
        &mut self,
        machine: &str,
        scheduler: &str,
    ) -> Result<Vec<(u64, Vec<NodeId>)>, ClientError> {
        let request = Request::SetScheduler {
            machine: machine.to_string(),
            scheduler: scheduler.to_string(),
        };
        self.expect(&request, |r| match r {
            Response::SchedulerSet { granted, .. } => Ok(granted),
            other => Err(other),
        })
    }

    /// Releases (or cancels) `job`; returns the jobs granted from the
    /// queue by this release.
    pub fn release(
        &mut self,
        machine: &str,
        job: u64,
    ) -> Result<Vec<(u64, Vec<NodeId>)>, ClientError> {
        self.release_ref(Some(machine), &JobRef::Bare(job))
            .map(|(_, granted)| granted)
    }

    /// Releases a job by reference. `machine` may be a member name, a
    /// `"@pool"` address (the pool's members are asked who holds a bare
    /// id, one lock each), or `None` when the reference itself is
    /// qualified (`"m0/7"`, `"grid/m0/7"` — no member is asked; the
    /// alloc response names the member). Returns the member that
    /// held the job (when the server names it) and the jobs granted
    /// from the queue by this release.
    pub fn release_ref(
        &mut self,
        machine: Option<&str>,
        job: &JobRef,
    ) -> Result<(Option<String>, GrantedJobs), ClientError> {
        let request = Request::Release {
            machine: machine.map(str::to_string),
            job: job.clone(),
        };
        self.expect(&request, |r| match r {
            Response::Released {
                granted, machine, ..
            } => Ok((machine, granted)),
            other => Err(other),
        })
    }

    /// Where `job` stands.
    pub fn poll(&mut self, machine: &str, job: u64) -> Result<JobStatus, ClientError> {
        self.poll_ref(Some(machine), &JobRef::Bare(job))
            .map(|(_, status)| status)
    }

    /// [`ServiceClient::poll`] by job reference, with the same
    /// addressing forms as [`ServiceClient::release_ref`]. Returns the
    /// resolved member (when the server names it) and the status.
    pub fn poll_ref(
        &mut self,
        machine: Option<&str>,
        job: &JobRef,
    ) -> Result<(Option<String>, JobStatus), ClientError> {
        let request = Request::Poll {
            machine: machine.map(str::to_string),
            job: job.clone(),
        };
        self.expect(&request, |r| match r {
            Response::Running { nodes, machine, .. } => Ok((machine, JobStatus::Running(nodes))),
            Response::Waiting {
                position, machine, ..
            } => Ok((machine, JobStatus::Queued(position))),
            Response::Unknown { .. } => Ok((None, JobStatus::Unknown)),
            other => Err(other),
        })
    }

    /// Binds this connection to `tenant`: subsequent requests without
    /// an explicit tenant are billed to it. Returns the bound tenant as
    /// the server confirmed it.
    pub fn hello(&mut self, tenant: &str) -> Result<String, ClientError> {
        let request = Request::Hello {
            tenant: tenant.to_string(),
        };
        self.expect(&request, |r| match r {
            Response::Hello { tenant } => Ok(tenant),
            other => Err(other),
        })
    }

    /// Creates or reconfigures a tenant: fair-share `weight`,
    /// node-second `quota`, and wire in-flight cap. `None` leaves a
    /// field unchanged; `Some(0.0)` / `Some(0)` clears quota or cap.
    /// Returns the tenant's effective `(weight, quota, max_in_flight)`.
    pub fn set_tenant(
        &mut self,
        tenant: &str,
        weight: Option<f64>,
        quota: Option<f64>,
        max_in_flight: Option<u64>,
    ) -> Result<(f64, Option<f64>, Option<u64>), ClientError> {
        let request = Request::SetTenant {
            tenant: tenant.to_string(),
            weight,
            quota,
            max_in_flight,
        };
        self.expect(&request, |r| match r {
            Response::TenantSet {
                weight,
                quota,
                max_in_flight,
                ..
            } => Ok((weight, quota, max_in_flight)),
            other => Err(other),
        })
    }

    /// Per-tenant accounting snapshot (raw wire value: one object per
    /// tenant keyed by name).
    pub fn tenants(&mut self) -> Result<Value, ClientError> {
        self.expect(&Request::Tenants, |r| match r {
            Response::Tenants(v) => Ok(v),
            other => Err(other),
        })
    }

    /// Turns weighted fair-share admission on or off for `machine`;
    /// returns the jobs the re-drain admitted from the queue.
    pub fn set_fair_share(
        &mut self,
        machine: &str,
        enabled: bool,
    ) -> Result<Vec<(u64, Vec<NodeId>)>, ClientError> {
        let request = Request::SetFairShare {
            machine: machine.to_string(),
            enabled,
        };
        self.expect(&request, |r| match r {
            Response::FairShareSet { granted, .. } => Ok(granted),
            other => Err(other),
        })
    }

    /// Occupancy snapshot of `machine` (raw wire value).
    pub fn query(&mut self, machine: &str) -> Result<Value, ClientError> {
        let request = Request::Query {
            machine: machine.to_string(),
        };
        self.expect(&request, |r| match r {
            Response::Snapshot(v) => Ok(v),
            other => Err(other),
        })
    }

    /// Counter snapshot of `machine` (raw wire value).
    pub fn stats(&mut self, machine: &str) -> Result<Value, ClientError> {
        let request = Request::Stats {
            machine: machine.to_string(),
        };
        self.expect(&request, |r| match r {
            Response::Stats(v) => Ok(v),
            other => Err(other),
        })
    }

    /// Operational counters of the daemon's write-ahead journal (raw
    /// wire value; `{"enabled": false}` when journaling is off).
    pub fn journal_stats(&mut self) -> Result<Value, ClientError> {
        self.expect(&Request::JournalStats, |r| match r {
            Response::JournalStats(v) => Ok(v),
            other => Err(other),
        })
    }

    /// Turns the daemon's flight recorder on or off, and with
    /// `Some(state)` the placement calibration plane too (`None` leaves
    /// it unchanged); returns the recorder's new state as the server
    /// confirmed it.
    pub fn set_trace(
        &mut self,
        enabled: bool,
        calibration: Option<bool>,
    ) -> Result<bool, ClientError> {
        let request = Request::SetTrace {
            enabled,
            calibration,
        };
        self.expect(&request, |r| match r {
            Response::TraceSet { enabled } => Ok(enabled),
            other => Err(other),
        })
    }

    /// Drains up to `limit` span events from the daemon's flight
    /// recorder (all of them when `None`). `clear` discards the drained
    /// events server-side; otherwise they stay for the next reader.
    pub fn trace_events(
        &mut self,
        limit: Option<usize>,
        clear: bool,
    ) -> Result<TraceDump, ClientError> {
        self.expect(&Request::Trace { limit, clear }, |r| match r {
            Response::Trace {
                events,
                dropped,
                enabled,
                decisions,
            } => Ok(TraceDump {
                events,
                dropped,
                enabled,
                decisions,
            }),
            other => Err(other),
        })
    }

    /// Daemon-wide metrics. `format` is `"json"` (structured
    /// [`Value`]) or `"prometheus"` (the exposition text as a
    /// `Value::Str`); `window` restricts the stage and pool histograms
    /// to a trailing `"10s"` or `"60s"` (`None` = since boot).
    pub fn metrics(&mut self, format: &str, window: Option<&str>) -> Result<Value, ClientError> {
        let request = Request::Metrics {
            format: format.to_string(),
            window: window.map(str::to_string),
        };
        self.expect(&request, |r| match r {
            Response::Metrics { metrics, .. } => Ok(metrics),
            other => Err(other),
        })
    }

    /// The daemon's placement calibration report (raw wire value: per-
    /// pattern × per-policy predicted-vs-realized histograms and rank
    /// correlations).
    pub fn calibration(&mut self) -> Result<Value, ClientError> {
        self.expect(&Request::Calibration, |r| match r {
            Response::Calibration(v) => Ok(v),
            other => Err(other),
        })
    }

    /// Names of all registered machines.
    pub fn list(&mut self) -> Result<Vec<String>, ClientError> {
        self.expect(&Request::List, |r| match r {
            Response::Machines(names) => Ok(names),
            other => Err(other),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;
    use crate::service::AllocationService;

    #[test]
    fn typed_client_round_trips_against_a_live_server() {
        let service = AllocationService::new();
        let handle = Server::bind("127.0.0.1:0", service, 2)
            .unwrap()
            .spawn()
            .unwrap();
        let mut client = ServiceClient::connect(handle.addr()).unwrap();

        client.ping().unwrap();
        client.register("m0", "8x8", None, None, None).unwrap();
        assert_eq!(client.list().unwrap(), vec!["m0".to_string()]);

        let (machine, ClientAllocOutcome::Granted(nodes)) =
            client.alloc("m0", &AllocArgs::new(1, 10)).unwrap()
        else {
            panic!("grant expected");
        };
        assert_eq!(machine, "m0", "a direct target echoes itself");
        assert_eq!(nodes.len(), 10);
        assert_eq!(client.poll("m0", 1).unwrap(), JobStatus::Running(nodes));

        let snapshot = client.query("m0").unwrap();
        assert_eq!(snapshot.get("busy").and_then(Value::as_u64), Some(10));

        // Service-level failures surface as ClientError::Service.
        let err = client.alloc("nope", &AllocArgs::new(1, 1)).unwrap_err();
        assert!(matches!(err, ClientError::Service(_)), "got {err:?}");

        // Poisoned walltime estimates are refused before any bytes move:
        // a typed error, never a grant with NaN in the reservation math.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -5.0] {
            let args = AllocArgs::new(99, 1).or_wait().with_walltime(bad);
            let err = client.alloc("m0", &args).unwrap_err();
            assert!(
                matches!(err, ClientError::InvalidRequest(_)),
                "walltime {bad} gave {err:?}"
            );
        }
        assert_eq!(
            client.poll("m0", 99).unwrap(),
            JobStatus::Unknown,
            "rejected walltimes must not reach the server"
        );

        assert!(client.release("m0", 1).unwrap().is_empty());
        let stats = client.stats("m0").unwrap();
        assert_eq!(
            stats
                .get("counters")
                .and_then(|c| c.get("released"))
                .and_then(Value::as_u64),
            Some(1)
        );
        drop(client);
        handle.shutdown().unwrap();
    }

    #[test]
    fn binary_framed_client_round_trips_against_a_live_server() {
        let service = AllocationService::new();
        let handle = Server::bind("127.0.0.1:0", service, 2)
            .unwrap()
            .spawn()
            .unwrap();
        let mut client =
            ServiceClient::connect_with_framing(handle.addr(), Framing::Binary).unwrap();
        assert_eq!(client.framing(), Framing::Binary);

        client.ping().unwrap();
        client.register("b0", "8x8", None, None, None).unwrap();
        assert_eq!(client.list().unwrap(), vec!["b0".to_string()]);
        let args = AllocArgs::new(1, 10).with_walltime(60.0);
        let (_, ClientAllocOutcome::Granted(nodes)) = client.alloc("b0", &args).unwrap() else {
            panic!("grant expected");
        };
        assert_eq!(nodes.len(), 10);
        let snapshot = client.query("b0").unwrap();
        assert_eq!(snapshot.get("busy").and_then(Value::as_u64), Some(10));
        assert!(client.release("b0", 1).unwrap().is_empty());

        // Batches (nested values) survive the binary codec too.
        let responses = client.batch(vec![Request::Ping, Request::List]).unwrap();
        assert_eq!(
            responses,
            vec![Response::Pong, Response::Machines(vec!["b0".into()])]
        );

        // Service-level failures still decode as typed errors.
        let err = client.alloc("nope", &AllocArgs::new(1, 1)).unwrap_err();
        assert!(matches!(err, ClientError::Service(_)), "got {err:?}");

        drop(client);
        handle.shutdown().unwrap();
    }
}
