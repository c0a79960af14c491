//! The wire run: one TCP connection to a one-worker `Server`, closed
//! loop, and every received byte compared with the twin's.

use crate::script::{self, Profile, Script};
use crate::stats::{self, LatencySamples};
use commalloc_service::framing::{Framing, MAGIC};
use commalloc_service::{AllocationService, Request, Server, ServerHandle};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Ops in flight before the client stops sending. Callers of an
/// allocation daemon wait for their reply, so the loop is closed; 64 in
/// flight keeps the one worker busy without the client becoming a queue.
pub const WINDOW: usize = 64;
/// Sending resumes once this many are in flight.
const REFILL_AT: usize = WINDOW / 2;
/// A response this late never arrived, as far as a caller is concerned.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);

/// Compares the received byte stream with the cycle's expected bytes.
///
/// While everything matches this is one `memcmp` per read, so the client
/// stays far cheaper than the daemon it measures. The first mismatch
/// switches to frame-by-frame comparison for the rest of the run, so a
/// wrong response is counted as exactly the ops it affects.
pub struct Comparer<'a> {
    script: &'a Script,
    /// Next op of the cycle whose response is awaited.
    op: usize,
    /// Fast mode: expected bytes of this cycle matched so far.
    matched: usize,
    /// Slow mode: received bytes not yet split into frames.
    unsplit: Option<Vec<u8>>,
    pub failed: u64,
}

impl<'a> Comparer<'a> {
    pub fn new(script: &'a Script) -> Comparer<'a> {
        Comparer {
            script,
            op: 0,
            matched: 0,
            unsplit: None,
            failed: 0,
        }
    }

    /// Feeds received bytes; returns how many responses they completed.
    pub fn feed(&mut self, mut chunk: &[u8]) -> usize {
        let (expected, ends) = (&self.script.response_bytes, &self.script.response_ends);
        let mut completed = 0;
        while self.unsplit.is_none() && !chunk.is_empty() {
            let take = chunk.len().min(expected.len() - self.matched);
            if chunk[..take] != expected[self.matched..self.matched + take] {
                // Re-split from the start of the frame in progress: its
                // matched prefix plus everything from here on.
                let frame = self.script.response_span(self.op);
                let frame_start = ends[self.op] as usize - frame.len();
                let mut unsplit = frame[..self.matched - frame_start].to_vec();
                unsplit.extend_from_slice(chunk);
                self.unsplit = Some(unsplit);
                chunk = &[];
                break;
            }
            self.matched += take;
            chunk = &chunk[take..];
            while self.op < ends.len() && ends[self.op] as usize <= self.matched {
                self.op += 1;
                completed += 1;
            }
            if self.matched == expected.len() {
                self.matched = 0;
                self.op = 0;
            }
        }
        if let Some(mut unsplit) = self.unsplit.take() {
            unsplit.extend_from_slice(chunk);
            let mut at = 0;
            while let Some(len) = self.frame_len(&unsplit[at..]) {
                if unsplit[at..at + len] != *self.script.response_span(self.op) {
                    self.failed += 1;
                }
                at += len;
                self.op = (self.op + 1) % ends.len();
                completed += 1;
            }
            unsplit.drain(..at);
            self.unsplit = Some(unsplit);
        }
        completed
    }

    /// Length of the first complete frame in `bytes`, if there is one. A
    /// byte that cannot start a binary frame is consumed alone, so a
    /// desynced stream fails op after op instead of stalling the run.
    fn frame_len(&self, bytes: &[u8]) -> Option<usize> {
        match self.script.profile.framing {
            Framing::Ndjson => bytes.iter().position(|&b| b == b'\n').map(|at| at + 1),
            Framing::Binary => match bytes {
                [] => None,
                [first, ..] if *first != MAGIC => Some(1),
                [_, a, b, c, d, rest @ ..] => {
                    let len = u32::from_le_bytes([*a, *b, *c, *d]) as usize;
                    (rest.len() >= len).then_some(5 + len)
                }
                _ => None,
            },
        }
    }
}

/// A daemon under test with one client connected.
pub struct Rig {
    pub service: AllocationService,
    server: ServerHandle,
    pub stream: TcpStream,
    journal_dir: Option<PathBuf>,
}

impl Rig {
    /// Starts the daemon for `profile` (with a default-configured file
    /// journal in a fresh directory under `scratch` when `journaled`),
    /// one event-loop worker, and connects the one client.
    pub fn start(profile: &Profile, journaled: bool, scratch: &Path) -> io::Result<Rig> {
        let journal_dir = journaled.then(|| scratch.join("journal"));
        let sink = journal_dir
            .as_deref()
            .map(script::default_journal)
            .transpose()?;
        let service = script::build_service(profile, sink);
        let server = Server::bind("127.0.0.1:0", service.clone(), 1)?.spawn()?;
        let stream = TcpStream::connect(server.addr())?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        Ok(Rig {
            service,
            server,
            stream,
            journal_dir,
        })
    }

    /// Disconnects, stops the server and waits for its threads, closes
    /// the journal (joining its flusher) and removes its directory.
    pub fn stop(self) -> io::Result<()> {
        drop(self.stream);
        self.server.shutdown()?;
        drop(self.service);
        if let Some(dir) = self.journal_dir {
            std::fs::remove_dir_all(dir)?;
        }
        Ok(())
    }
}

/// What one wire run measured.
#[derive(Default)]
pub struct WireRun {
    /// Ops completed inside the measured window.
    pub ops: u64,
    /// Ops attempted over the whole run (warm-up and reconciliation
    /// included): everything that could have failed.
    pub attempted: u64,
    pub failed: u64,
    /// Wall seconds of each whole cycle inside the window.
    pub cycle_seconds: Vec<f64>,
    pub window_seconds: f64,
    pub latency: LatencySamples,
    pub process_cpu_ns: u64,
    pub client_cpu_ns: u64,
    /// Voluntary context switches (a thread blocked and was woken): the
    /// whole process, and the client thread's share.
    pub process_switches: u64,
    pub client_switches: u64,
    pub spin_before_ns: f64,
    pub spin_after_ns: f64,
}

/// Replays `script` over `rig`'s connection: one warm-up cycle, then
/// whole cycles until `seconds` have passed (`seconds == 0`: the warm-up
/// cycle alone, for `--check`). Ends with one reconciliation op per
/// machine: after whole cycles the twin is idle, so the daemon must be.
pub fn drive(rig: &mut Rig, script: &Script, seconds: f64) -> WireRun {
    let n = script.len() as u64;
    let mut comparer = Comparer::new(script);
    let stream = &mut rig.stream;
    let mut chunk = vec![0u8; 64 * 1024];
    let mut send_times = [Instant::now(); 2 * WINDOW];
    let (mut sent, mut received) = (0u64, 0u64);
    // The op count at which sending stops: unknown until the deadline
    // has passed at the start of a cycle.
    let mut stop_at = if seconds > 0.0 { None } else { Some(n) };
    let mut lost = 0u64;

    let mut run = WireRun::default();
    // Set when the warm-up cycle's last response arrives.
    let mut window: Option<Window> = None;

    'run: loop {
        // The deadline is looked at between cycles only, so the window is
        // whole cycles: each the same work.
        if stop_at.is_none() && sent % n == 0 {
            if let Some(w) = &window {
                if w.start.elapsed().as_secs_f64() >= seconds {
                    stop_at = Some(sent);
                }
            }
        }
        let in_flight = (sent - received) as usize;
        if in_flight <= REFILL_AT && stop_at.is_none_or(|stop| sent < stop) {
            // One burst, one write: from the next unsent op up to a full
            // window, not past the end of the cycle or the stop.
            let first = (sent % n) as usize;
            let until_stop = stop_at.map_or(u64::MAX, |stop| stop - sent);
            let burst = (WINDOW - in_flight)
                .min(script.len() - first)
                .min(usize::try_from(until_stop).unwrap_or(usize::MAX));
            let now = Instant::now();
            if stream
                .write_all(script.request_range(first, burst))
                .is_err()
            {
                lost = sent - received;
                break 'run;
            }
            for i in 0..burst as u64 {
                send_times[((sent + i) % send_times.len() as u64) as usize] = now;
            }
            sent += burst as u64;
            if in_flight + burst < WINDOW && stop_at.is_none_or(|stop| sent < stop) {
                continue; // the burst ended at the cycle's end: top up
            }
        }
        if stop_at == Some(received) {
            break;
        }
        let got = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => {
                lost = sent - received;
                break 'run;
            }
            Ok(got) => got,
        };
        // A desynced stream can "complete" more frames than were asked
        // for; the excess answers no request, so it is neither counted
        // nor timed (the frames already count as failed).
        let completed = (comparer.feed(&chunk[..got]) as u64).min(sent - received);
        let now = Instant::now();
        for op in received..received + completed {
            if let Some(w) = &window {
                if op >= w.first_op {
                    let sent_at = send_times[(op % send_times.len() as u64) as usize];
                    run.latency.record((now - sent_at).as_nanos() as u64, 1);
                }
            }
            if (op + 1) % n == 0 {
                // A cycle's last response: close the cycle, and open the
                // window if this was the warm-up.
                match &mut window {
                    None if seconds > 0.0 => {
                        run.spin_before_ns = stats::spin_ns();
                        window = Some(Window::open(op + 1));
                    }
                    None => {}
                    Some(w) => {
                        let at = Instant::now();
                        run.cycle_seconds.push((at - w.cycle_start).as_secs_f64());
                        w.cycle_start = at;
                    }
                }
            }
        }
        received += completed;
    }

    if let Some(w) = window {
        run.window_seconds = (w.cycle_start - w.start).as_secs_f64();
        run.ops = run.cycle_seconds.len() as u64 * n;
        run.process_cpu_ns = stats::process_cpu_ns() - w.process_cpu_ns;
        run.client_cpu_ns = stats::thread_cpu_ns() - w.client_cpu_ns;
        run.process_switches = stats::process_voluntary_switches() - w.process_switches;
        run.client_switches = stats::thread_voluntary_switches() - w.client_switches;
        run.spin_after_ns = stats::spin_ns();
    }
    run.attempted = sent;
    run.failed = comparer.failed + lost;
    if lost == 0 {
        let (asked, wrong) = reconcile(rig, script);
        run.attempted += asked;
        run.failed += wrong;
    }
    run
}

/// Readings taken when the measured window opens.
struct Window {
    start: Instant,
    cycle_start: Instant,
    first_op: u64,
    process_cpu_ns: u64,
    client_cpu_ns: u64,
    process_switches: u64,
    client_switches: u64,
}

impl Window {
    fn open(first_op: u64) -> Window {
        let process_switches = stats::process_voluntary_switches();
        let client_switches = stats::thread_voluntary_switches();
        let process_cpu_ns = stats::process_cpu_ns();
        let client_cpu_ns = stats::thread_cpu_ns();
        let start = Instant::now();
        Window {
            start,
            cycle_start: start,
            first_op,
            process_cpu_ns,
            client_cpu_ns,
            process_switches,
            client_switches,
        }
    }
}

/// One `query` per machine over the same connection, compared with the
/// idle twin: returns (ops asked, ops whose answer was wrong).
fn reconcile(rig: &mut Rig, script: &Script) -> (u64, u64) {
    let framing = script.profile.framing;
    let twin = script::build_service(&script.profile, None);
    let mut wrong = 0;
    let machines = script.profile.machines();
    for (name, _) in machines {
        let request = Request::Query {
            machine: name.to_string(),
        };
        let mut expected = Vec::new();
        script::encode_response(&twin.handle(&request), framing, &mut expected);
        let mut bytes = Vec::new();
        script::encode_request(&request, framing, &mut bytes);
        let mut got = vec![0u8; expected.len()];
        let answered =
            rig.stream.write_all(&bytes).is_ok() && rig.stream.read_exact(&mut got).is_ok();
        if !answered || got != expected {
            wrong += 1;
        }
    }
    (machines.len() as u64, wrong)
}

/// True when `response` is what an idle machine's `query` answers —
/// used by the self-tests to show reconciliation is not vacuous.
#[cfg(test)]
fn is_idle_snapshot(response: &commalloc_service::Response) -> bool {
    match response {
        commalloc_service::Response::Snapshot(v) => {
            v.get("busy").and_then(serde::Value::as_u64) == Some(0)
                && v.get("queue_len").and_then(serde::Value::as_u64) == Some(0)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::generate;

    fn profile(framing: Framing) -> Profile {
        Profile {
            framing,
            pooled: framing == Framing::Binary,
            patterned: false,
            size_scale: 1,
            ops: 400,
        }
    }

    /// Feeds two cycles of `stream` in reads of `read` bytes.
    fn feed_all(script: &Script, stream: &[u8], read: usize) -> (usize, u64) {
        let mut comparer = Comparer::new(script);
        let completed = stream.chunks(read).map(|c| comparer.feed(c)).sum();
        (completed, comparer.failed)
    }

    #[test]
    fn matching_streams_complete_every_op_whatever_the_read_size() {
        for framing in [Framing::Ndjson, Framing::Binary] {
            let script = generate(&profile(framing), 5);
            let two_cycles = script.response_bytes.repeat(2);
            for read in [1, 7, 4096, two_cycles.len()] {
                assert_eq!(
                    feed_all(&script, &two_cycles, read),
                    (2 * script.len(), 0),
                    "{framing} in reads of {read}"
                );
            }
        }
    }

    #[test]
    fn one_flipped_response_byte_is_one_failed_op() {
        for framing in [Framing::Ndjson, Framing::Binary] {
            let script = generate(&profile(framing), 5);
            let mut stream = script.response_bytes.repeat(2);
            // A payload byte in the middle of the first cycle's op 100
            // (not a newline, not a frame header).
            let victim = (script.response_ends[99] + 7) as usize;
            stream[victim] ^= 0x01;
            assert_ne!(stream[victim], b'\n');
            for read in [1, 13, 4096, stream.len()] {
                assert_eq!(
                    feed_all(&script, &stream, read),
                    (2 * script.len(), 1),
                    "{framing} in reads of {read}"
                );
            }
        }
    }

    #[test]
    fn a_live_daemon_answers_a_cycle_and_the_reconciliation_as_the_twin_does() {
        let scratch = std::env::temp_dir();
        for framing in [Framing::Ndjson, Framing::Binary] {
            let script = generate(&profile(framing), 9);
            let mut rig = Rig::start(&script.profile, false, &scratch).expect("rig starts");
            let run = drive(&mut rig, &script, 0.0);
            assert_eq!(run.failed, 0);
            assert_eq!(
                run.attempted,
                (script.len() + script.profile.machines().len()) as u64
            );
            rig.stop().expect("rig stops");
        }
    }

    #[test]
    fn a_corrupted_expectation_fails_the_live_run() {
        let mut script = generate(&profile(Framing::Ndjson), 9);
        let victim = (script.response_ends[10] + 3) as usize;
        script.response_bytes[victim] ^= 0x01;
        let mut rig =
            Rig::start(&script.profile, false, &std::env::temp_dir()).expect("rig starts");
        let run = drive(&mut rig, &script, 0.0);
        assert_eq!(run.failed, 1);
        rig.stop().expect("rig stops");
    }

    #[test]
    fn reconciliation_sees_a_daemon_that_is_not_idle() {
        let script = generate(&profile(Framing::Ndjson), 9);
        let mut rig =
            Rig::start(&script.profile, false, &std::env::temp_dir()).expect("rig starts");
        assert!(is_idle_snapshot(&rig.service.handle(&Request::Query {
            machine: "m0".into()
        })));
        rig.service
            .allocate("m0", 999_999, 3, false, None)
            .expect("an idle machine grants");
        assert_eq!(reconcile(&mut rig, &script), (1, 1));
        rig.stop().expect("rig stops");
    }
}
