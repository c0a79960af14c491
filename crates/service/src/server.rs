//! The TCP transport: a thread-per-core readiness loop speaking NDJSON
//! and length-prefixed binary frames on the same port.
//!
//! [`Server`] is the wire front end: an accept thread pins each incoming
//! connection to one of `workers` event-loop threads (round-robin at
//! accept, shared-nothing thereafter — a connection's frames are only
//! ever touched by its worker). Each worker drives its connections with
//! the `polling` compat shim (epoll on Linux, `poll(2)` elsewhere):
//! nonblocking reads drain every complete frame per readiness wakeup
//! (pipelining), responses accumulate in a per-connection outbox and go
//! out in one write, and an outbox above the high-water mark pauses read
//! interest until the peer drains it (backpressure).
//!
//! Framing is discriminated per frame by the first byte (see
//! [`crate::framing`]); responses return in the framing the request
//! arrived in, so `nc` keeps working while binary clients skip JSON
//! entirely. No value tree stands between the socket and the service:
//! each connection parses its frames into one reused tape, the request
//! is read straight off it, and the response is rendered straight into
//! the outbox. Everything is `std`-only.

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
use std::sync::{Arc, Mutex};
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
        let shutdown = Arc::new(AtomicBool::new(false));
        let (accept_result, workers) = self.serve(shutdown);
        for worker in workers {
            let _ = worker.join();
        }
        accept_result
    }

    /// Runs the server on background threads, returning a handle that can
    /// stop it.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let shutdown_for_accept = Arc::clone(&shutdown);
        let accept_thread = std::thread::spawn(move || {
            let (result, workers) = self.serve(shutdown_for_accept);
            for worker in workers {
                let _ = worker.join();
            }
            result
        });
        Ok(ServerHandle {
            addr,
            shutdown,
            accept_thread,
        })
    }

    /// The accept loop proper: spins up the event-loop workers, pins each
    /// accepted connection to one (round-robin), and on exit wakes every
    /// worker so they drop their connections and join. Returns the accept
    /// result plus the worker handles.
    fn serve(self, shutdown: Arc<AtomicBool>) -> (io::Result<()>, Vec<JoinHandle<()>>) {
        let mut loops = Vec::with_capacity(self.workers);
        for _ in 0..self.workers {
            match EventLoop::new() {
                Ok(event_loop) => loops.push(Arc::new(event_loop)),
                Err(e) => return (Err(e), Vec::new()),
            }
        }
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
                Ok((stream, _)) => {
                    if shutdown.load(Ordering::SeqCst) {
                        break Ok(());
                    }
                    ServiceMetrics::bump(&self.service.metrics().connections);
                    let target = &loops[next % loops.len()];
                    next = next.wrapping_add(1);
                    target
                        .inject
                        .lock()
                        .expect("inject queue poisoned")
                        .push(stream);
                    target.waker.wake();
                }
                Err(e) => {
                    if shutdown.load(Ordering::SeqCst) {
                        break Ok(());
                    }
                    break Err(e);
                }
            }
        };
        // Whatever ended the accept loop ends the workers too.
        shutdown.store(true, Ordering::SeqCst);
        for event_loop in &loops {
            event_loop.waker.wake();
        }
        (result, handles)
    }
}

/// One worker's shared face: the poller it sleeps on, the waker the
/// accept thread pokes, and the queue of freshly accepted connections.
struct EventLoop {
    poller: Poller,
    waker: Waker,
    inject: Mutex<Vec<TcpStream>>,
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

    /// The worker thread body: sleep on readiness, serve every ready
    /// connection, pick up injected connections, exit on shutdown.
    fn run(&self, service: &AllocationService, shutdown: &AtomicBool) {
        let mut conns: HashMap<usize, Conn> = HashMap::new();
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
                let fresh: Vec<TcpStream> = self
                    .inject
                    .lock()
                    .expect("inject queue poisoned")
                    .drain(..)
                    .collect();
                for stream in fresh {
                    self.adopt(&mut conns, stream, service, &mut scratch);
                }
            }
            for event in &events {
                if event.key == WAKER_KEY {
                    continue;
                }
                self.service_conn(&mut conns, event.key, service, &mut scratch);
            }
        }
    }

    /// Registers a fresh connection and eagerly serves any bytes the
    /// client sent before registration (level-triggered readiness would
    /// also report them, but serving now saves a wakeup of latency).
    fn adopt(
        &self,
        conns: &mut HashMap<usize, Conn>,
        stream: TcpStream,
        service: &AllocationService,
        scratch: &mut [u8],
    ) {
        // Responses are batched per wakeup but still small; without
        // TCP_NODELAY the request/response cycle stalls on Nagle +
        // delayed ACK (~40 ms/op).
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let key = stream.as_raw_fd() as usize;
        let interest = Event::readable(key);
        if self.poller.add(stream.as_raw_fd(), interest).is_err() {
            return;
        }
        conns.insert(key, Conn::new(stream, interest));
        self.service_conn(conns, key, service, scratch);
    }

    /// Serves one ready connection: drain reads, dispatch frames, flush
    /// the outbox, retune interest. Removes the connection on close or
    /// on a handler panic (a panic drops one connection, never a worker).
    fn service_conn(
        &self,
        conns: &mut HashMap<usize, Conn>,
        key: usize,
        service: &AllocationService,
        scratch: &mut [u8],
    ) {
        let Some(conn) = conns.get_mut(&key) else {
            return;
        };
        let keep = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            conn.serve(service, scratch)
        }))
        .unwrap_or_else(|_| {
            eprintln!("commalloc-service: connection handler panicked; worker continuing");
            false
        });
        if !keep {
            let conn = conns.remove(&key).expect("connection vanished mid-serve");
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            // Release the tenant's in-flight slots held by responses the
            // peer will never read.
            if conn.unflushed > 0 {
                service
                    .tenants()
                    .wire_dec(conn.inflight_tenant.as_deref(), conn.unflushed);
            }
            return; // dropping the stream closes it
        }
        let conn = conns.get_mut(&key).expect("connection vanished mid-serve");
        let desired = conn.desired_interest(key, service);
        if conn.interest.readable && !desired.readable && !conn.closing {
            service
                .tenants()
                .note_backpressure_pause(conn.inflight_tenant.as_deref());
        }
        if desired != conn.interest && self.poller.modify(conn.stream.as_raw_fd(), desired).is_ok()
        {
            conn.interest = desired;
        }
    }
}

/// One pinned connection's state: the incremental frame splitter, the
/// tape its requests parse into, and the response outbox.
struct Conn {
    stream: TcpStream,
    buffer: FrameBuffer,
    tape: Tape,
    outbox: Vec<u8>,
    outpos: usize,
    interest: Event,
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
    fn new(stream: TcpStream, interest: Event) -> Conn {
        Conn {
            stream,
            buffer: FrameBuffer::new(),
            tape: Tape::new(),
            outbox: Vec::new(),
            outpos: 0,
            interest,
            closing: false,
            tenant: None,
            unflushed: 0,
            inflight_tenant: None,
        }
    }

    fn pending_out(&self) -> usize {
        self.outbox.len() - self.outpos
    }

    /// True while this connection's tenant sits at or above its
    /// in-flight cap *and* this connection contributes to it — the
    /// second condition guarantees a writable event is pending, so the
    /// pause always has a wakeup that ends it.
    fn over_tenant_cap(&self, service: &AllocationService) -> bool {
        self.unflushed > 0
            && service
                .tenants()
                .over_in_flight_cap(self.inflight_tenant.as_deref())
    }

    fn desired_interest(&self, key: usize, service: &AllocationService) -> Event {
        Event {
            key,
            // Backpressure: stop reading while the peer lags on responses
            // or the tenant sits at its in-flight cap.
            readable: !self.closing
                && self.pending_out() <= OUTBOX_HIGH_WATER
                && !self.over_tenant_cap(service),
            writable: self.pending_out() > 0,
        }
    }

    /// One readiness wakeup's worth of work. Returns false when the
    /// connection should be dropped.
    fn serve(&mut self, service: &AllocationService, scratch: &mut [u8]) -> bool {
        // Frames can outlive the read that delivered them (a tenant-cap
        // pause leaves them buffered): dispatch leftovers before
        // reading more.
        if !self.closing && !self.drain_frames(service) {
            self.closing = true;
        }
        if !self.closing
            && self.pending_out() <= OUTBOX_HIGH_WATER
            && !self.over_tenant_cap(service)
        {
            let mut reads = 0;
            while reads < MAX_READS_PER_WAKEUP {
                reads += 1;
                match self.stream.read(scratch) {
                    Ok(0) => {
                        // EOF. A partial frame left in the buffer is a torn
                        // final frame: reject it (there is nobody left to
                        // answer, but the books must balance).
                        if self.buffer.finish().is_err() {
                            ServiceMetrics::bump(&service.metrics().protocol_errors);
                        }
                        self.closing = true;
                        break;
                    }
                    Ok(n) => {
                        self.buffer.extend(&scratch[..n]);
                        if !self.drain_frames(service) {
                            self.closing = true;
                            break;
                        }
                        if self.pending_out() > OUTBOX_HIGH_WATER || self.over_tenant_cap(service) {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return false,
                }
            }
        }
        if self.flush_outbox().is_err() {
            return false;
        }
        if self.pending_out() == 0 && self.unflushed > 0 {
            service
                .tenants()
                .wire_dec(self.inflight_tenant.as_deref(), self.unflushed);
            self.unflushed = 0;
        }
        // Closing and nothing left to say: drop.
        !(self.closing && self.pending_out() == 0)
    }

    /// Dispatches every complete frame currently buffered (pipelining),
    /// pausing while the connection's tenant is at its in-flight cap
    /// (the rest dispatch after the outbox flushes). Returns false on a
    /// fatal framing error (stream desync): an error response is queued
    /// and the connection closes once it flushes.
    fn drain_frames(&mut self, service: &AllocationService) -> bool {
        loop {
            if self.over_tenant_cap(service) {
                return true;
            }
            match self.buffer.next_payload() {
                Ok(Some((framing, payload))) => {
                    dispatch_frame(
                        service,
                        framing,
                        payload,
                        &mut self.tape,
                        &mut self.outbox,
                        &mut self.tenant,
                    );
                    if self.unflushed == 0 {
                        self.inflight_tenant = self.tenant.clone();
                    }
                    self.unflushed += 1;
                    service
                        .tenants()
                        .wire_inc(self.inflight_tenant.as_deref(), 1);
                }
                Ok(None) => return true,
                Err(e) => {
                    ServiceMetrics::bump(&service.metrics().protocol_errors);
                    let response = Response::Error {
                        message: format!("bad frame: {e}"),
                        code: None,
                        detail: None,
                    };
                    // Answer in the framing that failed: the client is
                    // reading that one.
                    let framing = self.buffer.pending_framing().unwrap_or(Framing::Binary);
                    append_response(&mut self.outbox, framing, &response);
                    return false;
                }
            }
        }
    }

    /// Writes as much of the outbox as the socket accepts right now.
    fn flush_outbox(&mut self) -> io::Result<()> {
        while self.outpos < self.outbox.len() {
            match self.stream.write(&self.outbox[self.outpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.outpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.outpos == self.outbox.len() {
            self.outbox.clear();
            self.outpos = 0;
        } else if self.outpos >= 64 * 1024 {
            // Reclaim the flushed prefix of a slow-draining outbox.
            self.outbox.drain(..self.outpos);
            self.outpos = 0;
        }
        Ok(())
    }
}

/// Parses one frame into a `Request`, dispatches it, and queues the
/// response in the framing the request arrived in. Blank NDJSON lines
/// are ignored (so interactive `nc` sessions can hit return freely).
/// `conn_tenant` is the connection's `hello` binding: it is injected
/// into requests that carry no tenant of their own, and a successful
/// `hello` rebinds it.
fn dispatch_frame(
    service: &AllocationService,
    framing: Framing,
    payload: &[u8],
    tape: &mut Tape,
    outbox: &mut Vec<u8>,
    conn_tenant: &mut Option<String>,
) {
    if framing == Framing::Ndjson && payload.iter().all(u8::is_ascii_whitespace) {
        return;
    }
    // Mint the request id before parsing so the parse itself is on the
    // timeline; a disabled recorder makes this ctx inert.
    let ctx = service.recorder().begin();
    let parse_start = ctx.now_micros();
    let request = framing::parse_frame(framing, payload, tape, |root| Request::read(root));
    let response = match request {
        Ok(mut request) => {
            ctx.span(Stage::Parse, 0, 0, parse_start, ctx.now_micros());
            bind_tenant(&mut request, conn_tenant);
            let response = service.handle_traced(&request, &ctx);
            if let (Request::Hello { tenant }, Response::Hello { .. }) = (&request, &response) {
                *conn_tenant = Some(tenant.clone());
            }
            response
        }
        Err(e) => {
            ctx.span(Stage::Parse, 0, 1, parse_start, ctx.now_micros());
            ServiceMetrics::bump(&service.metrics().protocol_errors);
            Response::Error {
                message: format!("bad request: {e}"),
                code: None,
                detail: None,
            }
        }
    };
    append_response(outbox, framing, &response);
}

/// Injects the connection's bound tenant into requests that carry no
/// explicit tenant (recursing into batches). Explicit per-request
/// tenants always win.
fn bind_tenant(request: &mut Request, conn_tenant: &Option<String>) {
    let Some(bound) = conn_tenant else { return };
    match request {
        Request::Alloc {
            tenant: tenant @ None,
            ..
        } => *tenant = Some(bound.clone()),
        Request::Batch(requests) => {
            for member in requests {
                bind_tenant(member, conn_tenant);
            }
        }
        _ => {}
    }
}

/// Renders `response` straight into the outbox in the given framing. A
/// binary frame over the length cap is answered with a small error
/// instead.
fn append_response(outbox: &mut Vec<u8>, framing: Framing, response: &Response) {
    if let Err(e) = framing::append_frame(outbox, framing, response) {
        let fallback = Response::Error {
            message: format!("response unencodable: {e}"),
            code: None,
            detail: None,
        };
        framing::append_frame(outbox, framing, &fallback)
            .expect("a small error response always encodes");
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
    use crate::framing::Frame;
    use std::io::{BufRead, BufReader};
    use std::net::Shutdown;

    fn spawn_server() -> (AllocationService, ServerHandle) {
        let service = AllocationService::new();
        let server = Server::bind("127.0.0.1:0", service.clone(), 2).unwrap();
        let handle = server.spawn().unwrap();
        (service, handle)
    }

    /// Reads frames off `stream` until `want` have arrived or EOF.
    fn read_frames(stream: &mut TcpStream, want: usize) -> Vec<Frame> {
        let mut buffer = FrameBuffer::new();
        let mut frames = Vec::new();
        let mut chunk = [0u8; 4096];
        while frames.len() < want {
            let n = stream.read(&mut chunk).unwrap();
            if n == 0 {
                break;
            }
            buffer.extend(&chunk[..n]);
            while let Some(frame) = buffer.next_frame().unwrap() {
                frames.push(frame);
            }
        }
        frames
    }

    fn decode_response(frame: &Frame) -> Response {
        match frame.framing {
            Framing::Ndjson => {
                Response::from_line(std::str::from_utf8(&frame.payload).unwrap()).unwrap()
            }
            Framing::Binary => {
                Response::from_value(&framing::decode_value(&frame.payload).unwrap()).unwrap()
            }
        }
    }

    #[test]
    fn spawn_serve_shutdown_round_trip() {
        let (service, handle) = spawn_server();
        let addr = handle.addr();

        {
            let mut stream = TcpStream::connect(addr).unwrap();
            writeln!(stream, "{}", Request::Ping.to_line()).unwrap();
            writeln!(
                stream,
                "{}",
                Request::Register {
                    machine: "m0".into(),
                    mesh: "8x8".into(),
                    allocator: None,
                    strategy: None,
                    scheduler: None,
                    pool: None,
                }
                .to_line()
            )
            .unwrap();
            writeln!(stream, "this is not json").unwrap();
            stream.flush().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(Response::from_line(&line).unwrap(), Response::Pong);
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert_eq!(
                Response::from_line(&line).unwrap(),
                Response::Registered {
                    machine: "m0".into()
                }
            );
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(matches!(
                Response::from_line(&line).unwrap(),
                Response::Error { .. }
            ));
        }

        // The machine registered over TCP is visible in-process.
        assert_eq!(service.list(), vec!["m0".to_string()]);
        assert_eq!(service.metrics().protocol_errors.load(Ordering::Relaxed), 1);
        handle.shutdown().unwrap();
    }

    #[test]
    fn binary_and_ndjson_frames_interleave_on_one_connection() {
        let (_service, handle) = spawn_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();

        // One write carrying three pipelined requests in mixed framings.
        let mut wire = Vec::new();
        wire.extend_from_slice(&framing::encode_frame(&Request::Ping.to_value()).unwrap());
        wire.extend_from_slice(
            Request::Register {
                machine: "mixed".into(),
                mesh: "8x8".into(),
                allocator: None,
                strategy: None,
                scheduler: None,
                pool: None,
            }
            .to_line()
            .as_bytes(),
        );
        wire.push(b'\n');
        wire.extend_from_slice(&framing::encode_frame(&Request::List.to_value()).unwrap());
        stream.write_all(&wire).unwrap();
        stream.flush().unwrap();

        let frames = read_frames(&mut stream, 3);
        assert_eq!(frames.len(), 3);
        // Responses come back in order, each in its request's framing.
        assert_eq!(frames[0].framing, Framing::Binary);
        assert_eq!(decode_response(&frames[0]), Response::Pong);
        assert_eq!(frames[1].framing, Framing::Ndjson);
        assert_eq!(
            decode_response(&frames[1]),
            Response::Registered {
                machine: "mixed".into()
            }
        );
        assert_eq!(frames[2].framing, Framing::Binary);
        assert_eq!(
            decode_response(&frames[2]),
            Response::Machines(vec!["mixed".into()])
        );

        drop(stream);
        handle.shutdown().unwrap();
    }

    #[test]
    fn pipelined_binary_requests_drain_in_order() {
        let (_service, handle) = spawn_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let n = 500;
        let mut wire = Vec::new();
        for _ in 0..n {
            wire.extend_from_slice(&framing::encode_frame(&Request::Ping.to_value()).unwrap());
        }
        stream.write_all(&wire).unwrap();
        let frames = read_frames(&mut stream, n);
        assert_eq!(frames.len(), n);
        for frame in &frames {
            assert_eq!(decode_response(frame), Response::Pong);
        }
        drop(stream);
        handle.shutdown().unwrap();
    }

    #[test]
    fn torn_final_binary_frame_is_rejected() {
        let (service, handle) = spawn_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let full = framing::encode_frame(&Request::Ping.to_value()).unwrap();
        stream.write_all(&full[..full.len() - 2]).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        // Server closes without answering the torn frame…
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "unexpected bytes {rest:?}");
        // …and books it as a protocol error.
        assert_eq!(service.metrics().protocol_errors.load(Ordering::Relaxed), 1);
        handle.shutdown().unwrap();
    }

    #[test]
    fn oversized_frame_length_closes_with_an_error() {
        let (service, handle) = spawn_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut wire = vec![framing::MAGIC];
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        stream.write_all(&wire).unwrap();
        let frames = read_frames(&mut stream, 1);
        assert_eq!(frames.len(), 1);
        assert!(matches!(
            decode_response(&frames[0]),
            Response::Error { .. }
        ));
        // The connection is closed after the error.
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        assert_eq!(service.metrics().protocol_errors.load(Ordering::Relaxed), 1);
        handle.shutdown().unwrap();
    }

    #[test]
    fn oversized_line_closes_with_an_ndjson_error() {
        let (service, handle) = spawn_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // One byte over the cap and no newline: the server has read every
        // byte sent when it gives up, so it closes cleanly after the one
        // error line, which a text client can read.
        stream
            .write_all(&vec![b'x'; framing::MAX_FRAME_LEN + 1])
            .unwrap();
        let frames = read_frames(&mut stream, usize::MAX);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].framing, Framing::Ndjson);
        assert!(matches!(
            decode_response(&frames[0]),
            Response::Error { .. }
        ));
        assert_eq!(service.metrics().protocol_errors.load(Ordering::Relaxed), 1);
        handle.shutdown().unwrap();
    }

    #[test]
    fn blank_ndjson_lines_are_skipped_without_an_answer() {
        let (service, handle) = spawn_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let ping = Request::Ping.to_line();
        let mut wire = format!("{ping}\n\n  \t\n{ping}\n").into_bytes();
        wire.extend_from_slice(&framing::encode_frame(&Request::Ping.to_value()).unwrap());
        stream.write_all(&wire).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();

        // Reading to EOF proves the blank lines drew no answer at all.
        let frames = read_frames(&mut stream, usize::MAX);
        let framings: Vec<Framing> = frames.iter().map(|f| f.framing).collect();
        assert_eq!(
            framings,
            vec![Framing::Ndjson, Framing::Ndjson, Framing::Binary]
        );
        for frame in &frames {
            assert_eq!(decode_response(frame), Response::Pong);
        }
        assert_eq!(service.metrics().protocol_errors.load(Ordering::Relaxed), 0);
        handle.shutdown().unwrap();
    }
}
