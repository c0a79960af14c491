//! The TCP transport: a thread-per-core readiness loop speaking NDJSON
//! and length-prefixed binary frames on the same port.
//!
//! [`Server`] is the wire front end: an accept thread pins each incoming
//! connection to one of `workers` event-loop threads (round-robin at
//! accept, shared-nothing thereafter — a connection's frames are only
//! ever touched by its worker). Each worker drives its sockets with
//! the `polling` compat shim (epoll on Linux, `poll(2)` elsewhere):
//! nonblocking reads drain every complete frame per readiness wakeup
//! (pipelining), responses accumulate in a per-connection outbox and go
//! out in one write, and an outbox above the high-water mark pauses read
//! interest until the peer drains it (backpressure).
//!
//! The protocol half is a `Conn`: a state machine over bytes that
//! never sees a socket (the sans-IO split). It takes the bytes a read
//! returned and end of input, dispatches frames, and exposes the bytes
//! to write and whether it wants more; the readiness loop (`EventLoop`)
//! is the only code that reads, writes or polls a socket, so every
//! protocol state can be driven in tests without a port or a thread.
//!
//! Framing is discriminated per frame by the first byte (see
//! [`crate::framing`]); responses return in the framing the request
//! arrived in, so `nc` keeps working while binary clients skip JSON
//! entirely. No value tree stands between the socket and the service:
//! each connection parses its frames into one reused tape, the request
//! is read straight off it, and the response is rendered straight into
//! the outbox. Everything is `std`-only.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::framing::{self, FrameBuffer, Framing};
use crate::metrics::ServiceMetrics;
use crate::protocol::{Request, Response};
use crate::service::AllocationService;
use crate::trace::Stage;
use polling::{Event, Poller, Waker};
use serde_json::Tape;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Outbox size above which a connection's read interest is paused until
/// the peer drains responses (per-connection backpressure).
const OUTBOX_HIGH_WATER: usize = 1 << 20;

/// Poller key reserved for each worker's cross-thread waker.
const WAKER_KEY: usize = usize::MAX;

/// Per-wakeup cap on read passes for one connection, so a firehose peer
/// cannot starve its worker's other connections (level-triggered
/// readiness re-reports whatever is left on the next wait).
const MAX_READS_PER_WAKEUP: usize = 16;

/// A bound, not-yet-running readiness-loop server.
pub struct Server {
    listener: TcpListener,
    service: AllocationService,
    workers: usize,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) serving
    /// `service` with `workers` event-loop threads.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: AllocationService,
        workers: usize,
    ) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            service,
            workers: workers.max(1),
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop on the calling thread until the process
    /// exits or the listener fails.
    pub fn run(self) -> io::Result<()> {
        self.serve(Arc::new(AtomicBool::new(false)))
    }

    /// Runs the server on background threads, returning a handle that can
    /// stop it.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let shutdown_for_accept = Arc::clone(&shutdown);
        let accept_thread = std::thread::spawn(move || self.serve(shutdown_for_accept));
        Ok(ServerHandle {
            addr,
            shutdown,
            accept_thread,
        })
    }

    /// The accept loop proper: spins up the event-loop workers, pins each
    /// accepted connection to one (round-robin), and on exit wakes every
    /// worker so they drop their connections, and joins them. Returns the
    /// accept result.
    fn serve(self, shutdown: Arc<AtomicBool>) -> io::Result<()> {
        let loops = (0..self.workers)
            .map(|_| EventLoop::new().map(Arc::new))
            .collect::<io::Result<Vec<_>>>()?;
        let handles: Vec<JoinHandle<()>> = loops
            .iter()
            .map(|event_loop| {
                let event_loop = Arc::clone(event_loop);
                let service = self.service.clone();
                let shutdown = Arc::clone(&shutdown);
                std::thread::spawn(move || event_loop.run(&service, &shutdown))
            })
            .collect();
        let mut next = 0usize;
        let result = loop {
            match self.listener.accept() {
                _ if shutdown.load(Ordering::SeqCst) => break Ok(()),
                Ok((stream, _)) => {
                    ServiceMetrics::bump(&self.service.metrics().connections);
                    let target = &loops[next % loops.len()];
                    next = next.wrapping_add(1);
                    target.inject().push(stream);
                    target.waker.wake();
                }
                Err(e) => break Err(e),
            }
        };
        // Whatever ended the accept loop ends the workers too.
        shutdown.store(true, Ordering::SeqCst);
        for event_loop in &loops {
            event_loop.waker.wake();
        }
        for worker in handles {
            let _ = worker.join();
        }
        result
    }
}

/// One worker's shared face: the poller it sleeps on, the waker the
/// accept thread pokes, and the queue of freshly accepted connections.
struct EventLoop {
    poller: Poller,
    waker: Waker,
    inject: Mutex<Vec<TcpStream>>,
}

/// A socket the worker owns: the stream, the interest it is registered
/// with, and the connection state its bytes drive.
struct Socket {
    stream: TcpStream,
    interest: Event,
    conn: Conn,
}

impl EventLoop {
    fn new() -> io::Result<EventLoop> {
        let poller = Poller::new()?;
        let waker = Waker::new(&poller, WAKER_KEY)?;
        Ok(EventLoop {
            poller,
            waker,
            inject: Mutex::new(Vec::new()),
        })
    }

    /// The queue of accepted streams. Poisoned-lock policy: pushing or
    /// draining a `Vec` of streams cannot leave it half-changed, so a
    /// queue poisoned by a panicking holder is used as it stands rather
    /// than taking the accept thread or a worker down with it.
    fn inject(&self) -> MutexGuard<'_, Vec<TcpStream>> {
        self.inject.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The worker thread body: sleep on readiness, serve every ready
    /// socket, pick up injected connections, exit on shutdown.
    fn run(&self, service: &AllocationService, shutdown: &AtomicBool) {
        let mut sockets: HashMap<usize, Socket> = HashMap::new();
        let mut events: Vec<Event> = Vec::new();
        let mut scratch = vec![0u8; 16 * 1024];
        loop {
            events.clear();
            if self.poller.wait(&mut events, None).is_err() {
                return;
            }
            if events.iter().any(|e| e.key == WAKER_KEY) {
                self.waker.drain();
                if shutdown.load(Ordering::SeqCst) {
                    // Dropping the map closes every connection.
                    return;
                }
                for stream in std::mem::take(&mut *self.inject()) {
                    if let Some(key) = self.adopt(&mut sockets, stream) {
                        // Serve what the client sent before registration
                        // now: readiness would report it a wakeup later.
                        self.serve(&mut sockets, key, service, &mut scratch);
                    }
                }
            }
            for event in &events {
                if event.key != WAKER_KEY {
                    self.serve(&mut sockets, event.key, service, &mut scratch);
                }
            }
        }
    }

    /// Registers a fresh connection with the poller and returns its key
    /// (`None`, and the stream closes, when it cannot be registered).
    fn adopt(&self, sockets: &mut HashMap<usize, Socket>, stream: TcpStream) -> Option<usize> {
        // Responses are batched per wakeup but still small; without
        // TCP_NODELAY the request/response cycle stalls on Nagle +
        // delayed ACK (~40 ms/op).
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true).ok()?;
        let key = stream.as_raw_fd() as usize;
        let interest = Event::readable(key);
        self.poller.add(stream.as_raw_fd(), interest).ok()?;
        let socket = Socket {
            stream,
            interest,
            conn: Conn::default(),
        };
        sockets.insert(key, socket);
        Some(key)
    }

    /// Serves one ready socket: read, write, retune interest. Drops the
    /// socket when its connection is done, on an I/O error, or on a
    /// handler panic (a panic drops one connection, never a worker).
    fn serve(
        &self,
        sockets: &mut HashMap<usize, Socket>,
        key: usize,
        service: &AllocationService,
        scratch: &mut [u8],
    ) {
        let Some(socket) = sockets.get_mut(&key) else {
            return;
        };
        let keep = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            socket.pump(service, scratch)
        }))
        .unwrap_or_else(|_| {
            eprintln!("commalloc-service: connection handler panicked; worker continuing");
            false
        });
        if keep {
            let conn = &socket.conn;
            let desired = Event {
                key,
                readable: conn.wants_read(service),
                writable: !conn.output().is_empty(),
            };
            if socket.interest.readable && !desired.readable && !conn.closing {
                service
                    .tenants()
                    .note_backpressure_pause(conn.inflight_tenant.as_deref());
            }
            let fd = socket.stream.as_raw_fd();
            if desired != socket.interest && self.poller.modify(fd, desired).is_ok() {
                socket.interest = desired;
            }
        } else if let Some(Socket { stream, conn, .. }) = sockets.remove(&key) {
            let _ = self.poller.delete(stream.as_raw_fd());
            // Release the tenant's in-flight slots held by responses the
            // peer will never read.
            if conn.unflushed > 0 {
                service
                    .tenants()
                    .wire_dec(conn.inflight_tenant.as_deref(), conn.unflushed);
            }
            // Dropping the stream closes it.
        }
    }
}

impl Socket {
    /// One readiness wakeup's worth of I/O: frames a pause left buffered
    /// first, then at most [`MAX_READS_PER_WAKEUP`] reads while the
    /// connection wants them, then as much of its output as the socket
    /// accepts. Returns false when the socket should be dropped.
    fn pump(&mut self, service: &AllocationService, scratch: &mut [u8]) -> bool {
        let conn = &mut self.conn;
        conn.receive(service, &[]);
        let mut reads = 0;
        while reads < MAX_READS_PER_WAKEUP && conn.wants_read(service) {
            reads += 1;
            match self.stream.read(scratch) {
                Ok(0) => conn.receive_eof(service),
                Ok(n) => conn.receive(service, &scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        let mut sent = 0;
        while sent < conn.output().len() {
            match self.stream.write(&conn.output()[sent..]) {
                Ok(0) => return false,
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        conn.written(service, sent);
        !conn.is_done()
    }
}

/// One connection's protocol state, with no socket in it: the
/// incremental frame splitter, the tape its requests parse into, the
/// response outbox, and the tenant binding and in-flight accounting.
/// Bytes go in through [`Conn::receive`] and [`Conn::receive_eof`];
/// [`Conn::output`] is what to write, and [`Conn::written`] says how
/// much of it went.
#[derive(Default)]
struct Conn {
    buffer: FrameBuffer,
    tape: Tape,
    outbox: Vec<u8>,
    outpos: usize,
    /// Reads are done (EOF or fatal framing error); the connection stays
    /// only until the outbox flushes.
    closing: bool,
    /// The tenant this connection is bound to (`hello`); requests
    /// without their own `tenant` field inherit it.
    tenant: Option<String>,
    /// Responses queued but not yet fully flushed — the figure the
    /// per-tenant in-flight cap rides on.
    unflushed: u64,
    /// The tenant the unflushed responses were billed to (snapshotted
    /// at the first inc so a mid-stream `hello` cannot unbalance the
    /// ledger).
    inflight_tenant: Option<String>,
}

impl Conn {
    /// The bytes waiting to be written.
    fn output(&self) -> &[u8] {
        &self.outbox[self.outpos..]
    }

    /// Whether the connection is finished: reads are over and every
    /// response is written.
    fn is_done(&self) -> bool {
        self.closing && self.output().is_empty()
    }

    /// Whether more input is wanted. Backpressure: not while the peer
    /// lags on responses or the tenant sits at its in-flight cap.
    fn wants_read(&self, service: &AllocationService) -> bool {
        !self.closing && self.output().len() <= OUTBOX_HIGH_WATER && !self.over_tenant_cap(service)
    }

    /// True while this connection's tenant sits above its in-flight
    /// cap (counted across all of its connections) *and* this
    /// connection contributes to it — the
    /// second condition guarantees a writable event is pending, so the
    /// pause always has a wakeup that ends it.
    fn over_tenant_cap(&self, service: &AllocationService) -> bool {
        self.unflushed > 0
            && service
                .tenants()
                .over_in_flight_cap(self.inflight_tenant.as_deref())
    }

    /// Takes the bytes a read returned (none, to dispatch frames a
    /// tenant-cap pause left buffered) and dispatches every complete
    /// frame (pipelining), pausing while the tenant is at its in-flight
    /// cap. A fatal framing error (stream desync) queues an error
    /// response and ends reading; the connection is done once it flushes.
    fn receive(&mut self, service: &AllocationService, bytes: &[u8]) {
        if self.closing {
            return;
        }
        // A payload borrows the splitter while dispatch writes the rest
        // of the connection, so the splitter is lifted out for the pass.
        let mut buffer = std::mem::take(&mut self.buffer);
        buffer.extend(bytes);
        while !self.over_tenant_cap(service) {
            match buffer.next_payload() {
                // Blank NDJSON lines are skipped unanswered (so
                // interactive `nc` sessions can hit return freely), and
                // only an answered frame takes an in-flight slot.
                Ok(Some((Framing::Ndjson, payload)))
                    if payload.iter().all(u8::is_ascii_whitespace) => {}
                Ok(Some((framing, payload))) => {
                    self.dispatch_frame(service, framing, payload);
                    if self.unflushed == 0 {
                        self.inflight_tenant = self.tenant.clone();
                    }
                    self.unflushed += 1;
                    service
                        .tenants()
                        .wire_inc(self.inflight_tenant.as_deref(), 1);
                }
                Ok(None) => break,
                Err(e) => {
                    ServiceMetrics::bump(&service.metrics().protocol_errors);
                    let response = Response::error(format!("bad frame: {e}"));
                    // Answer in the framing that failed: the client is
                    // reading that one.
                    let framing = buffer.pending_framing().unwrap_or(Framing::Binary);
                    self.append_response(framing, &response);
                    self.closing = true;
                    break;
                }
            }
        }
        self.buffer = buffer;
    }

    /// End of input. A partial frame left in the buffer is a torn final
    /// frame: reject it (there is nobody left to answer, but the books
    /// must balance).
    fn receive_eof(&mut self, service: &AllocationService) {
        if self.buffer.finish().is_err() {
            ServiceMetrics::bump(&service.metrics().protocol_errors);
        }
        self.closing = true;
    }

    /// The first `n` bytes of [`Conn::output`] were written. Once all of
    /// it is, the tenant's in-flight slots are returned and frames a cap
    /// pause left buffered are dispatched (no read may come for them).
    fn written(&mut self, service: &AllocationService, n: usize) {
        self.outpos += n;
        if self.outpos == self.outbox.len() {
            self.outbox.clear();
            self.outpos = 0;
            if self.unflushed > 0 {
                service
                    .tenants()
                    .wire_dec(self.inflight_tenant.as_deref(), self.unflushed);
                self.unflushed = 0;
                self.receive(service, &[]);
            }
        } else if self.outpos >= 64 * 1024 {
            // Reclaim the flushed prefix of a slow-draining outbox.
            self.outbox.drain(..self.outpos);
            self.outpos = 0;
        }
    }

    /// Parses one frame into a `Request`, dispatches it, and queues the
    /// response in the framing the request arrived in. A successful
    /// top-level `hello` rebinds the connection.
    fn dispatch_frame(&mut self, service: &AllocationService, framing: Framing, payload: &[u8]) {
        // Mint the request id before parsing so the parse itself is on
        // the timeline; a disabled recorder makes this ctx inert.
        let mut ctx = service.begin();
        let request =
            framing::parse_frame(framing, payload, &mut self.tape, |root| Request::read(root));
        let response = match request {
            Ok(mut request) => {
                ctx.lap(Stage::Parse, 0, 0);
                self.bind_tenant(&mut request);
                let response = service.handle_traced(&request, &ctx);
                if let (Request::Hello { tenant }, Response::Hello { .. }) = (&request, &response) {
                    self.tenant = Some(tenant.clone());
                }
                response
            }
            Err(e) => {
                ctx.lap(Stage::Parse, 0, 1);
                ServiceMetrics::bump(&service.metrics().protocol_errors);
                Response::error(format!("bad request: {e}"))
            }
        };
        self.append_response(framing, &response);
    }

    /// Injects the connection's bound tenant into requests that carry no
    /// explicit tenant (recursing into batches). Explicit per-request
    /// tenants always win.
    fn bind_tenant(&self, request: &mut Request) {
        let Some(bound) = &self.tenant else { return };
        match request {
            Request::Alloc {
                tenant: tenant @ None,
                ..
            } => *tenant = Some(bound.clone()),
            Request::Batch(requests) => {
                for member in requests {
                    self.bind_tenant(member);
                }
            }
            _ => {}
        }
    }

    /// Renders `response` straight into the outbox in the given framing.
    /// A binary frame over the length cap is answered with a small error
    /// instead.
    fn append_response(&mut self, framing: Framing, response: &Response) {
        if let Err(e) = framing::append_frame(&mut self.outbox, framing, response) {
            let fallback = Response::error(format!("response unencodable: {e}"));
            // Cannot fail: a one-line message is far below the frame cap.
            let _ = framing::append_frame(&mut self.outbox, framing, &fallback);
        }
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drops every live connection and joins all
    /// threads. Clients should disconnect before calling this.
    pub fn shutdown(self) -> io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.accept_thread
            .join()
            .map_err(|_| io::Error::other("server accept thread panicked"))?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::{BufRead, BufReader};
    use std::net::Shutdown;

    const REGISTER_M0: &str = r#"{"op":"register","machine":"m0","mesh":"8x8"}"#;

    fn spawn_server() -> (AllocationService, ServerHandle) {
        let service = AllocationService::new();
        let server = Server::bind("127.0.0.1:0", service.clone(), 2).unwrap();
        let handle = server.spawn().unwrap();
        (service, handle)
    }

    fn binary(request: &Request) -> Vec<u8> {
        framing::encode_frame(&request.to_value()).unwrap()
    }

    fn protocol_errors(service: &AllocationService) -> u64 {
        service.metrics().protocol_errors.load(Ordering::Relaxed)
    }

    /// Feeds `wire` to a fresh connection in one read and writes out
    /// all it answers; returns the connection and the answers, decoded.
    fn exchange(service: &AllocationService, wire: &[u8]) -> (Conn, Vec<(Framing, Response)>) {
        let mut conn = Conn::default();
        conn.receive(service, wire);
        let mut frames = FrameBuffer::new();
        frames.extend(conn.output());
        conn.written(service, conn.output().len());
        let (mut tape, mut answers) = (Tape::new(), Vec::new());
        while let Some((framing, payload)) = frames.next_payload().unwrap() {
            let read = framing::parse_frame(framing, payload, &mut tape, |r| Response::read(r));
            answers.push((framing, read.unwrap()));
        }
        (conn, answers)
    }

    #[test]
    fn spawn_serve_shutdown_round_trip() {
        let (service, handle) = spawn_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let ping = Request::Ping.to_line();
        write!(stream, "{ping}\n{REGISTER_M0}\nthis is not json\n").unwrap();
        let answers: Vec<Response> = BufReader::new(stream)
            .lines()
            .take(3)
            .map(|line| Response::from_line(&line.unwrap()).unwrap())
            .collect();
        let machine = "m0".to_string();
        assert_eq!(
            answers[..2],
            [Response::Pong, Response::Registered { machine }]
        );
        assert!(matches!(answers[2], Response::Error { .. }));
        // The machine registered over TCP is visible in-process.
        assert_eq!(service.list(), vec!["m0".to_string()]);
        assert_eq!(protocol_errors(&service), 1);
        handle.shutdown().unwrap();
    }

    #[test]
    fn torn_final_binary_frame_is_rejected() {
        let (service, handle) = spawn_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let full = binary(&Request::Ping);
        stream.write_all(&full[..full.len() - 2]).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        // Server closes without answering the torn frame…
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "unexpected bytes {rest:?}");
        // …and books it as a protocol error.
        assert_eq!(protocol_errors(&service), 1);
        handle.shutdown().unwrap();
    }

    #[test]
    fn binary_and_ndjson_frames_interleave_on_one_connection() {
        let service = AllocationService::new();
        // One read carrying three pipelined requests in mixed framings.
        let mut wire = binary(&Request::Ping);
        wire.extend(format!("{REGISTER_M0}\n").bytes());
        wire.extend(binary(&Request::List));
        let (_, answers) = exchange(&service, &wire);
        // Responses come back in order, each in its request's framing.
        let machine = "m0".to_string();
        assert_eq!(
            answers,
            [
                (Framing::Binary, Response::Pong),
                (Framing::Ndjson, Response::Registered { machine }),
                (Framing::Binary, Response::Machines(vec!["m0".into()])),
            ]
        );
    }

    #[test]
    fn pipelined_binary_requests_drain_in_order() {
        let service = AllocationService::new();
        let (_, answers) = exchange(&service, &binary(&Request::Ping).repeat(500));
        assert_eq!(answers, vec![(Framing::Binary, Response::Pong); 500]);
    }

    /// `wire` draws exactly one answer, an error in `framing`, and ends
    /// its connection.
    fn closes_with_one_error(wire: &[u8], framing: Framing) {
        let service = AllocationService::new();
        let (conn, answers) = exchange(&service, wire);
        assert!(matches!(answers[..], [(f, Response::Error { .. })] if f == framing));
        assert!(conn.is_done());
        assert_eq!(protocol_errors(&service), 1);
    }

    #[test]
    fn oversized_frame_length_closes_with_an_error() {
        let mut wire = vec![framing::MAGIC];
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        // Nothing after the desync is answered.
        wire.extend(binary(&Request::Ping));
        closes_with_one_error(&wire, Framing::Binary);
    }

    #[test]
    fn oversized_line_closes_with_an_ndjson_error() {
        // One byte over the cap and no newline.
        closes_with_one_error(&vec![b'x'; framing::MAX_FRAME_LEN + 1], Framing::Ndjson);
    }

    #[test]
    fn blank_ndjson_lines_are_skipped_without_an_answer() {
        let service = AllocationService::new();
        let ping = Request::Ping.to_line();
        let mut wire = format!("{ping}\n\n  \t\n{ping}\n").into_bytes();
        wire.extend(binary(&Request::Ping));
        let (mut conn, answers) = exchange(&service, &wire);
        conn.receive_eof(&service);
        assert!(conn.is_done());
        let pong = |framing| (framing, Response::Pong);
        let (ndjson, binary) = (pong(Framing::Ndjson), pong(Framing::Binary));
        assert_eq!(answers, [ndjson.clone(), ndjson, binary]);
        assert_eq!(protocol_errors(&service), 0);
    }

    #[test]
    fn blank_ndjson_lines_take_no_in_flight_slot() {
        let service = capped_service();
        let mut conn = Conn::default();
        let wire = "{\"op\":\"hello\",\"tenant\":\"capped\"}\n\n \n\t\n{\"op\":\"ping\"}\n";
        conn.receive(&service, wire.as_bytes());
        // Both answers are due before anything is written: the blank
        // lines took none of the tenant's two slots.
        let output = std::str::from_utf8(conn.output()).unwrap();
        let answers: Vec<_> = output
            .lines()
            .map(|l| Response::from_line(l).unwrap())
            .collect();
        assert!(matches!(
            answers[..],
            [Response::Hello { .. }, Response::Pong]
        ));
        assert_eq!(conn.unflushed, 2);
    }

    /// A service whose tenant `capped` may hold two responses in flight.
    fn capped_service() -> AllocationService {
        let service = AllocationService::new();
        service.set_tenant("capped", None, None, Some(2)).unwrap();
        service
    }

    /// The script every connection of the property is fed, and an
    /// offset inside its batch frame: a `hello` binding `capped`, both
    /// framings, blank lines, a bad line and an error answer. Nothing
    /// past the `hello` changes state, so one connection's answers do
    /// not depend on another's.
    fn script() -> (Vec<u8>, usize) {
        let mut wire = br#"{"op":"hello","tenant":"capped"}"#.to_vec();
        wire.extend(b"\n  \r\n{\"op\":\"list\"}\nnot json\n");
        wire.extend(binary(&Request::Ping));
        let mid = wire.len() + 8;
        wire.extend(binary(&Request::Batch(vec![Request::Ping, Request::List])));
        wire.extend(br#"{"op":"query","machine":"nowhere"}"#);
        wire.extend(b"\n{\"op\":\"ping\"}\n");
        wire.extend(binary(&Request::Ping).repeat(3));
        (wire, mid)
    }

    /// One connection of the property: its wire cut into chunks, the
    /// bytes written from it, and how often its tenant cap held it.
    struct Peer<'a> {
        conn: Conn,
        chunks: std::vec::IntoIter<&'a [u8]>,
        out: Vec<u8>,
        paused: usize,
    }

    impl<'a> Peer<'a> {
        fn new(wire: &'a [u8], cuts: &[usize]) -> Peer<'a> {
            let mut at: Vec<usize> = cuts.iter().map(|c| c % wire.len()).collect();
            at.extend([0, wire.len()]);
            at.sort_unstable();
            at.dedup();
            let chunks: Vec<&[u8]> = at.windows(2).map(|w| &wire[w[0]..w[1]]).collect();
            let (conn, chunks) = (Conn::default(), chunks.into_iter());
            let (out, paused) = (Vec::new(), 0);
            Peer {
                conn,
                chunks,
                out,
                paused,
            }
        }

        /// One wakeup as the readiness loop runs it, writing at most
        /// `room` bytes.
        fn step(&mut self, service: &AllocationService, room: usize) {
            self.conn.receive(service, &[]);
            if self.conn.over_tenant_cap(service) {
                // At its cap the tenant dispatches nothing, even from
                // bytes that arrive, until its output is consumed.
                self.paused += 1;
                let before = self.conn.output().len();
                self.conn
                    .receive(service, self.chunks.next().unwrap_or_default());
                assert_eq!(self.conn.output().len(), before);
                assert!(!self.conn.wants_read(service));
            } else if self.conn.wants_read(service) {
                match self.chunks.next() {
                    Some(chunk) => self.conn.receive(service, chunk),
                    None => self.conn.receive_eof(service),
                }
            }
            let n = room.min(self.conn.output().len());
            self.out.extend_from_slice(&self.conn.output()[..n]);
            self.conn.written(service, n);
        }
    }

    /// Steps every peer in turn, writing all it can, until all are done.
    fn finish(peers: &mut [Peer], service: &AllocationService) {
        for _ in 0..200 {
            peers
                .iter_mut()
                .for_each(|peer| peer.step(service, usize::MAX));
        }
        assert!(peers.iter().all(|peer| peer.conn.is_done()));
    }

    /// What `wire` draws on a service of its own, fed in one read.
    fn whole_feed(wire: &[u8]) -> Vec<u8> {
        let mut alone = [Peer::new(wire, &[])];
        finish(&mut alone, &capped_service());
        let [alone] = alone;
        assert!(alone.paused > 0, "the script reaches the tenant's cap");
        alone.out
    }

    proptest! {
        #[test]
        fn chunked_interleaved_connections_answer_as_a_whole_feed_does(
            cuts in (prop::collection::vec(0usize..1000, 0..24), prop::collection::vec(0usize..1000, 0..24)),
            schedule in prop::collection::vec((any::<bool>(), 0usize..96), 0..160),
        ) {
            // Connection 0 ends on a declared-huge binary frame and never
            // answers the ping after it. Both cut the batch frame, so a
            // half frame is finished by a later read.
            let (served, mid) = script();
            let mut fatal = served.clone();
            fatal.push(framing::MAGIC);
            fatal.extend_from_slice(&u32::MAX.to_le_bytes());
            fatal.extend(binary(&Request::Ping));
            let (mut cut0, mut cut1) = cuts;
            cut0.push(mid);
            cut1.push(mid);
            let service = capped_service();
            let mut peers = [Peer::new(&fatal, &cut0), Peer::new(&served, &cut1)];
            for &(which, room) in &schedule {
                peers[usize::from(which)].step(&service, room);
            }
            finish(&mut peers, &service);
            prop_assert_eq!(&peers[0].out, &whole_feed(&fatal));
            prop_assert_eq!(&peers[1].out, &whole_feed(&served));
        }
    }
}
