//! Hostile and careless clients against a real daemon over TCP: each
//! class of malformed line, malformed binary frame, bad request and
//! rude connection behaviour the wire admits, one test apiece.
//!
//! Every test checks three things: what the client is told; that the
//! same connection (or, after a fatal frame, a fresh one) is still
//! served; and that the books balance (protocol errors counted, tenant
//! in-flight slots returned). A handler panic drops its connection
//! without an answer, so "answered, then served again" rules a panic
//! out on the path under test. The `Conn` state machine's own suite
//! covers the same bytes without a socket; this one pins the readiness
//! loop around it: reads, writes, end of input, close after a fatal
//! frame, backpressure and shutdown.

use commalloc_service::framing::{self, MAGIC, MAX_DEPTH, MAX_FRAME_LEN};
use commalloc_service::{
    AllocationService, FrameBuffer, Framing, Request, Response, Server, ServerHandle,
};
use serde_json::Tape;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// How long a client waits for an answer before the test fails (a
/// stalled connection fails its test rather than hanging the suite).
const PATIENCE: Duration = Duration::from_secs(10);

const REGISTER_M0: &str = r#"{"op":"register","machine":"m0","mesh":"8x8"}"#;

/// A daemon on an ephemeral port and the service behind it.
struct Daemon {
    service: AllocationService,
    handle: ServerHandle,
}

impl Daemon {
    fn start(workers: usize) -> Daemon {
        let service = AllocationService::new();
        let handle = Server::bind("127.0.0.1:0", service.clone(), workers)
            .unwrap()
            .spawn()
            .unwrap();
        Daemon { service, handle }
    }

    fn connect(&self) -> Client {
        let stream = TcpStream::connect(self.handle.addr()).unwrap();
        stream.set_read_timeout(Some(PATIENCE)).unwrap();
        stream.set_nodelay(true).unwrap();
        Client {
            stream,
            frames: FrameBuffer::new(),
            tape: Tape::new(),
        }
    }

    fn protocol_errors(&self) -> u64 {
        self.service
            .metrics()
            .protocol_errors
            .load(Ordering::Relaxed)
    }

    /// A fresh connection is answered: the daemon as a whole survived.
    fn assert_serving(&self) {
        self.connect().assert_served();
    }

    /// The tenant's wire in-flight count.
    fn in_flight(&self, tenant: &str) -> u64 {
        let rows = self.service.tenants().export();
        rows.iter()
            .find(|row| row.tenant == tenant)
            .map_or(0, |row| row.in_flight)
    }

    /// Waits until the tenant holds no in-flight slot (the daemon
    /// returns them when a connection flushes or goes away).
    fn assert_in_flight_drains(&self, tenant: &str) {
        let start = Instant::now();
        while self.in_flight(tenant) > 0 {
            assert!(
                start.elapsed() < PATIENCE,
                "tenant {tenant} still holds {} in-flight slots",
                self.in_flight(tenant)
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn stop(self) {
        self.handle.shutdown().unwrap();
    }
}

/// A raw client: writes any bytes, decodes whatever comes back.
struct Client {
    stream: TcpStream,
    frames: FrameBuffer,
    tape: Tape,
}

impl Client {
    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).unwrap();
    }

    fn line(&mut self, text: &str) {
        self.send(format!("{text}\n").as_bytes());
    }

    fn binary(&mut self, request: &Request) {
        self.send(&binary(request));
    }

    /// The next decoded answer, or `None` at end of stream.
    fn next_answer(&mut self) -> Option<(Framing, Response)> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((framing, payload)) = self.frames.next_payload().unwrap() {
                let read =
                    framing::parse_frame(framing, payload, &mut self.tape, |r| Response::read(r));
                return Some((framing, read.unwrap()));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.frames.finish().unwrap();
                    return None;
                }
                Ok(n) => self.frames.extend(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => panic!("no answer within {PATIENCE:?}: {e}"),
            }
        }
    }

    fn answer(&mut self) -> (Framing, Response) {
        self.next_answer()
            .expect("the daemon closed the connection")
    }

    fn answers(&mut self, n: usize) -> Vec<(Framing, Response)> {
        (0..n).map(|_| self.answer()).collect()
    }

    /// The next answer is an error in `framing`; returns its message.
    fn error(&mut self, framing: Framing) -> String {
        match self.answer() {
            (f, Response::Error { message, .. }) if f == framing => message,
            other => panic!("expected an error in {framing:?}, got {other:?}"),
        }
    }

    /// Sends an NDJSON ping and reads its pong: the connection is open
    /// and its frame boundaries are intact.
    fn assert_served(&mut self) {
        self.line(&Request::Ping.to_line());
        assert_eq!(self.answer(), (Framing::Ndjson, Response::Pong));
    }

    /// Half-closes and reads every remaining answer up to end of stream.
    fn rest(mut self) -> Vec<(Framing, Response)> {
        self.stream.shutdown(Shutdown::Write).unwrap();
        std::iter::from_fn(|| self.next_answer()).collect()
    }

    /// The daemon closes the connection with nothing more to say.
    fn assert_closed(mut self) {
        assert_eq!(self.next_answer(), None);
    }

    /// Hangs up without having sent a byte.
    fn hang_up(self) {
        self.stream.shutdown(Shutdown::Both).unwrap();
    }
}

fn binary(request: &Request) -> Vec<u8> {
    framing::encode_frame(&request.to_value()).unwrap()
}

/// A binary frame around an arbitrary payload.
fn binary_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = vec![MAGIC];
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Sends one NDJSON line that must be refused as a bad request, and
/// checks the connection is served afterwards.
fn refused_line(line: &[u8], reason: &str) {
    let daemon = Daemon::start(1);
    let mut client = daemon.connect();
    client.send(line);
    client.send(b"\n");
    let message = client.error(Framing::Ndjson);
    assert!(message.starts_with("bad request: "), "{message}");
    assert!(message.contains(reason), "{message:?} lacks {reason:?}");
    client.assert_served();
    assert_eq!(daemon.protocol_errors(), 1);
    daemon.stop();
}

/// Sends one binary frame that must be refused as a bad request, and
/// checks the connection is served afterwards, in both framings.
fn refused_frame(payload: &[u8], reason: &str) {
    let daemon = Daemon::start(1);
    let mut client = daemon.connect();
    client.send(&binary_frame(payload));
    let message = client.error(Framing::Binary);
    assert!(message.starts_with("bad request: "), "{message}");
    assert!(message.contains(reason), "{message:?} lacks {reason:?}");
    client.binary(&Request::Ping);
    assert_eq!(client.answer(), (Framing::Binary, Response::Pong));
    client.assert_served();
    assert_eq!(daemon.protocol_errors(), 1);
    daemon.stop();
}

/// Sends a well-formed request the service must refuse; a refusal is
/// not a protocol error, and the connection is served afterwards.
fn refused_request(setup: &[&str], request: &str, reason: &str) {
    let daemon = Daemon::start(1);
    let mut client = daemon.connect();
    for line in setup {
        client.line(line);
        assert!(
            !matches!(client.answer().1, Response::Error { .. }),
            "setup {line}"
        );
    }
    client.line(request);
    let message = client.error(Framing::Ndjson);
    assert!(message.contains(reason), "{message:?} lacks {reason:?}");
    client.assert_served();
    assert_eq!(daemon.protocol_errors(), 0);
    daemon.stop();
}

// ---- Malformed NDJSON lines: one error each, the connection stays. ----

#[test]
fn text_that_is_not_json_is_refused() {
    refused_line(b"hello, is anybody there?", "at byte 0");
}

#[test]
fn a_truncated_json_object_is_refused() {
    refused_line(br#"{"op":"ping""#, "expected");
}

#[test]
fn a_json_array_at_the_root_is_refused() {
    refused_line(b"[1,2,3]", "\"op\"");
}

#[test]
fn a_json_scalar_at_the_root_is_refused() {
    refused_line(b"42", "\"op\"");
}

#[test]
fn an_object_without_an_op_is_refused() {
    refused_line(b"{}", "op");
}

#[test]
fn an_unknown_op_is_refused() {
    refused_line(br#"{"op":"detonate"}"#, "detonate");
}

#[test]
fn a_numeric_op_is_refused() {
    refused_line(br#"{"op":7}"#, "op");
}

#[test]
fn a_line_that_is_not_utf8_is_refused() {
    refused_line(b"{\"op\":\"\xff\xfe\"}", "UTF-8");
}

#[test]
fn nul_bytes_in_a_line_are_refused() {
    refused_line(b"\0\0{\"op\":\"ping\"}", "at byte 0");
}

#[test]
fn nesting_past_the_depth_cap_is_refused() {
    let depth = MAX_DEPTH + 2;
    let line = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    refused_line(line.as_bytes(), "nesting");
}

#[test]
fn a_job_size_that_overflows_a_float_is_refused() {
    refused_line(
        br#"{"op":"alloc","machine":"m0","job":1,"size":1e999}"#,
        "size",
    );
}

#[test]
fn a_negative_job_size_is_refused() {
    refused_line(
        br#"{"op":"alloc","machine":"m0","job":1,"size":-4}"#,
        "size",
    );
}

#[test]
fn a_fractional_job_size_is_refused() {
    refused_line(
        br#"{"op":"alloc","machine":"m0","job":1,"size":1.5}"#,
        "size",
    );
}

#[test]
fn a_job_size_given_as_text_is_refused() {
    refused_line(
        br#"{"op":"alloc","machine":"m0","job":1,"size":"four"}"#,
        "size",
    );
}

#[test]
fn a_job_id_past_u64_is_refused() {
    refused_line(
        br#"{"op":"alloc","machine":"m0","job":18446744073709551616,"size":4}"#,
        "job",
    );
}

#[test]
fn a_batch_inside_a_batch_is_refused() {
    refused_line(
        br#"{"op":"batch","requests":[{"op":"batch","requests":[]}]}"#,
        "nest",
    );
}

#[test]
fn a_batch_whose_requests_are_not_a_list_is_refused() {
    refused_line(br#"{"op":"batch","requests":{"op":"ping"}}"#, "requests");
}

#[test]
fn a_batch_with_one_malformed_member_is_refused_whole() {
    let daemon = Daemon::start(1);
    let mut client = daemon.connect();
    let batch = format!(r#"{{"op":"batch","requests":[{REGISTER_M0},{{"op":"nope"}}]}}"#);
    client.line(&batch);
    let message = client.error(Framing::Ndjson);
    assert!(message.contains("nope"), "{message}");
    // Nothing in a refused batch ran.
    assert!(daemon.service.list().is_empty());
    client.assert_served();
    daemon.stop();
}

// ---- Malformed binary frames: one error each, the connection stays. ----

#[test]
fn an_empty_binary_payload_is_refused() {
    refused_frame(&[], "ended mid-value");
}

#[test]
fn an_unknown_binary_tag_is_refused() {
    refused_frame(&[0x7f], "tag 0x7f");
}

#[test]
fn a_binary_string_longer_than_its_payload_is_refused() {
    // An object of one entry whose key claims a kilobyte.
    let mut payload = vec![0x08];
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.extend_from_slice(&1024u32.to_le_bytes());
    payload.extend_from_slice(b"op");
    refused_frame(&payload, "ended mid-value");
}

#[test]
fn a_binary_array_declaring_four_billion_elements_is_refused() {
    // The count is read, never reserved: decode runs out of payload.
    let mut payload = vec![0x07];
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    payload.push(0x00);
    refused_frame(&payload, "ended mid-value");
}

#[test]
fn bytes_past_the_root_value_are_refused() {
    let mut payload = binary(&Request::Ping)[5..].to_vec();
    payload.extend_from_slice(&[0x00, 0x00]);
    refused_frame(&payload, "2");
}

#[test]
fn a_binary_string_that_is_not_utf8_is_refused() {
    let mut payload = vec![0x08];
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.extend_from_slice(&2u32.to_le_bytes());
    payload.extend_from_slice(b"op");
    payload.push(0x06);
    payload.extend_from_slice(&2u32.to_le_bytes());
    payload.extend_from_slice(&[0xc3, 0x28]);
    refused_frame(&payload, "UTF-8");
}

#[test]
fn binary_nesting_past_the_depth_cap_is_refused() {
    let mut payload = Vec::new();
    for _ in 0..MAX_DEPTH + 2 {
        payload.push(0x07);
        payload.extend_from_slice(&1u32.to_le_bytes());
    }
    payload.push(0x00);
    refused_frame(&payload, "too deep");
}

#[test]
fn a_binary_value_that_is_not_an_object_is_refused() {
    let mut payload = vec![0x03];
    payload.extend_from_slice(&42i64.to_le_bytes());
    refused_frame(&payload, "\"op\"");
}

// ---- Requests the service refuses: not protocol errors. ----

#[test]
fn an_alloc_on_an_unknown_machine_is_refused() {
    refused_request(
        &[],
        r#"{"op":"alloc","machine":"nowhere","job":1,"size":4}"#,
        "nowhere",
    );
}

#[test]
fn a_release_of_an_unknown_job_is_refused() {
    refused_request(
        &[REGISTER_M0],
        r#"{"op":"release","machine":"m0","job":99}"#,
        "99",
    );
}

#[test]
fn a_malformed_mesh_is_refused() {
    refused_request(
        &[],
        r#"{"op":"register","machine":"m1","mesh":"8x"}"#,
        "mesh",
    );
}

#[test]
fn a_mesh_above_the_node_limit_is_refused() {
    refused_request(
        &[],
        r#"{"op":"register","machine":"m1","mesh":"65535x65535"}"#,
        "limit",
    );
}

#[test]
fn an_unknown_strategy_is_refused() {
    refused_request(
        &[],
        r#"{"op":"register","machine":"m1","mesh":"4x4x4","strategy":"psychic"}"#,
        "psychic",
    );
}

#[test]
fn registering_a_machine_name_twice_is_refused() {
    refused_request(&[REGISTER_M0], REGISTER_M0, "m0");
}

#[test]
fn a_job_larger_than_its_machine_is_refused() {
    refused_request(
        &[REGISTER_M0],
        r#"{"op":"alloc","machine":"m0","job":1,"size":65}"#,
        "exceeds machine size",
    );
}

#[test]
fn a_hello_with_an_invalid_tenant_name_is_refused_and_binds_nothing() {
    let daemon = Daemon::start(1);
    let mut client = daemon.connect();
    client.line(r#"{"op":"hello","tenant":"a/b"}"#);
    let message = client.error(Framing::Ndjson);
    assert!(message.contains("a/b"), "{message}");
    // An alloc after the refused hello is billed to nobody in particular.
    client.line(REGISTER_M0);
    client.answer();
    client.line(r#"{"op":"alloc","machine":"m0","job":1,"size":4}"#);
    assert!(matches!(client.answer().1, Response::Granted { .. }));
    let rows = daemon.service.tenants().export();
    assert!(rows.iter().all(|row| row.tenant != "a/b"), "{rows:?}");
    client.assert_served();
    daemon.stop();
}

#[test]
fn a_megabyte_machine_name_is_refused_and_the_connection_stays_open() {
    let name = "x".repeat(1 << 20);
    let alloc = format!(r#"{{"op":"alloc","machine":"{name}","job":1,"size":4}}"#);
    refused_request(&[], &alloc, "unknown machine");
}

// ---- Fatal frames: one error, then the daemon closes the connection. ----

#[test]
fn a_declared_length_over_the_cap_ends_the_connection_after_one_error() {
    let daemon = Daemon::start(1);
    let mut client = daemon.connect();
    let mut wire = vec![MAGIC];
    wire.extend_from_slice(&((MAX_FRAME_LEN + 1) as u32).to_le_bytes());
    wire.extend(binary(&Request::Ping));
    client.send(&wire);
    let message = client.error(Framing::Binary);
    assert!(message.starts_with("bad frame: "), "{message}");
    client.assert_closed();
    assert_eq!(daemon.protocol_errors(), 1);
    daemon.assert_serving();
    daemon.stop();
}

#[test]
fn a_fatal_frame_after_pipelined_requests_still_answers_those_first() {
    let daemon = Daemon::start(1);
    let mut client = daemon.connect();
    let mut wire = binary(&Request::Ping).repeat(3);
    wire.extend(format!("{REGISTER_M0}\n").bytes());
    wire.push(MAGIC);
    wire.extend_from_slice(&u32::MAX.to_le_bytes());
    client.send(&wire);
    let answers = client.rest();
    assert_eq!(answers.len(), 5, "{answers:?}");
    assert!(answers[..3]
        .iter()
        .all(|a| *a == (Framing::Binary, Response::Pong)));
    assert!(matches!(answers[3].1, Response::Registered { .. }));
    assert!(matches!(
        answers[4],
        (Framing::Binary, Response::Error { .. })
    ));
    assert_eq!(daemon.service.list(), ["m0"]);
    daemon.stop();
}

// ---- Rude connections. ----

#[test]
fn a_torn_ndjson_line_at_end_of_input_is_counted_and_not_run() {
    let daemon = Daemon::start(1);
    let mut client = daemon.connect();
    client.send(REGISTER_M0.as_bytes());
    assert_eq!(client.rest(), []);
    assert_eq!(daemon.protocol_errors(), 1);
    assert!(daemon.service.list().is_empty());
    daemon.assert_serving();
    daemon.stop();
}

#[test]
fn disconnecting_mid_batch_frame_runs_none_of_the_batch() {
    let daemon = Daemon::start(1);
    let mut client = daemon.connect();
    let register = |machine: &str| Request::Register {
        machine: machine.into(),
        mesh: "4x4".into(),
        allocator: None,
        strategy: None,
        scheduler: None,
        pool: None,
    };
    let batch = binary(&Request::Batch(vec![register("a"), register("b")]));
    client.send(&batch[..batch.len() / 2]);
    assert_eq!(client.rest(), []);
    assert_eq!(daemon.protocol_errors(), 1);
    assert!(daemon.service.list().is_empty());
    daemon.assert_serving();
    daemon.stop();
}

#[test]
fn disconnecting_after_a_batch_without_reading_runs_it_and_returns_the_slots() {
    let daemon = Daemon::start(1);
    daemon
        .service
        .set_tenant("acme", None, None, Some(1000))
        .unwrap();
    let mut client = daemon.connect();
    client.line(r#"{"op":"hello","tenant":"acme"}"#);
    client.answer();
    let members = (0..64)
        .map(|i| format!(r#"{{"op":"register","machine":"m{i}","mesh":"4x4"}}"#))
        .collect::<Vec<_>>()
        .join(",");
    let ping = Request::Ping.to_line();
    client.line(&format!(r#"{{"op":"batch","requests":[{members}]}}"#));
    client.send(format!("{ping}\n").repeat(200).as_bytes());
    drop(client);
    daemon.assert_in_flight_drains("acme");
    // A batch that was read is run whole, whoever reads its answer.
    let start = Instant::now();
    while daemon.service.list().len() < 64 {
        assert!(start.elapsed() < PATIENCE, "batch not run");
        std::thread::sleep(Duration::from_millis(2));
    }
    daemon.assert_serving();
    daemon.stop();
}

#[test]
fn a_half_closed_client_still_receives_every_answer() {
    let daemon = Daemon::start(1);
    let mut client = daemon.connect();
    client.send(
        format!("{}\n", Request::Ping.to_line())
            .repeat(100)
            .as_bytes(),
    );
    client.send(&binary(&Request::List).repeat(100));
    let answers = client.rest();
    assert_eq!(answers.len(), 200);
    assert!(answers[..100]
        .iter()
        .all(|a| *a == (Framing::Ndjson, Response::Pong)));
    let none = (Framing::Binary, Response::Machines(vec![]));
    assert!(answers[100..].iter().all(|a| *a == none));
    daemon.stop();
}

#[test]
fn a_request_dripped_one_byte_at_a_time_is_answered() {
    let daemon = Daemon::start(1);
    let mut client = daemon.connect();
    let mut wire = format!("{REGISTER_M0}\n").into_bytes();
    wire.extend(binary(&Request::List));
    for byte in &wire {
        client.send(std::slice::from_ref(byte));
        std::thread::sleep(Duration::from_micros(200));
    }
    let machine = "m0".to_string();
    assert_eq!(
        client.answers(2),
        [
            (Framing::Ndjson, Response::Registered { machine }),
            (Framing::Binary, Response::Machines(vec!["m0".into()])),
        ]
    );
    daemon.stop();
}

#[test]
fn a_slow_partial_frame_does_not_hold_up_another_connection() {
    let daemon = Daemon::start(1);
    let mut slow = daemon.connect();
    let ping = format!("{}\n", Request::Ping.to_line());
    slow.send(&ping.as_bytes()[..5]);
    let frame = binary(&Request::Ping);
    let mut slow_binary = daemon.connect();
    slow_binary.send(&frame[..3]);
    // One worker serves all three; the two partial frames wait for
    // their rest while the third connection is answered in full.
    let mut other = daemon.connect();
    for _ in 0..10 {
        other.assert_served();
    }
    slow.send(&ping.as_bytes()[5..]);
    slow_binary.send(&frame[3..]);
    assert_eq!(slow.answer(), (Framing::Ndjson, Response::Pong));
    assert_eq!(slow_binary.answer(), (Framing::Binary, Response::Pong));
    daemon.stop();
}

#[test]
fn garbage_on_one_connection_does_not_disturb_another_mid_session() {
    let daemon = Daemon::start(1);
    let mut good = daemon.connect();
    good.line(REGISTER_M0);
    good.answer();
    let mut bad = daemon.connect();
    bad.send(&[MAGIC, 0xff, 0xff, 0xff, 0xff]);
    bad.error(Framing::Binary);
    bad.assert_closed();
    good.line(r#"{"op":"alloc","machine":"m0","job":1,"size":4}"#);
    assert!(matches!(good.answer().1, Response::Granted { .. }));
    daemon.service.check_invariants("m0").unwrap();
    daemon.stop();
}

#[test]
fn random_bytes_draw_only_errors_and_never_take_a_worker_down() {
    let daemon = Daemon::start(2);
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..16 {
        let mut client = daemon.connect();
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                // xorshift64: the same noise on every run.
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed as u8
            })
            .collect();
        client.send(&noise);
        for (_, answer) in client.rest() {
            assert!(matches!(answer, Response::Error { .. }), "{answer:?}");
        }
    }
    assert!(daemon.protocol_errors() >= 16);
    daemon.assert_serving();
    daemon.stop();
}

#[test]
fn connections_closed_without_a_byte_leave_the_daemon_serving() {
    let daemon = Daemon::start(2);
    for _ in 0..32 {
        daemon.connect().hang_up();
    }
    daemon.assert_serving();
    assert_eq!(daemon.protocol_errors(), 0);
    daemon.stop();
}

#[test]
fn many_concurrent_connections_each_get_their_own_answers_in_order() {
    let daemon = Daemon::start(2);
    let threads: Vec<_> = (0..16)
        .map(|i| {
            let mut client = daemon.connect();
            std::thread::spawn(move || {
                let machine = format!("c{i}");
                client.line(&format!(
                    r#"{{"op":"register","machine":"{machine}","mesh":"4x4"}}"#
                ));
                for job in 1..=16u64 {
                    client.line(&format!(
                        r#"{{"op":"alloc","machine":"{machine}","job":{job},"size":1}}"#
                    ));
                }
                assert_eq!(
                    client.answer().1,
                    Response::Registered {
                        machine: machine.clone()
                    }
                );
                for _ in 1..=16u64 {
                    assert!(matches!(client.answer().1, Response::Granted { .. }));
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().unwrap();
    }
    for i in 0..16 {
        daemon.service.check_invariants(&format!("c{i}")).unwrap();
    }
    daemon.stop();
}

#[test]
fn a_client_that_does_not_read_is_paused_and_then_gets_every_answer_in_order() {
    let daemon = Daemon::start(1);
    let mut client = daemon.connect();
    let mut writer = client.stream.try_clone().unwrap();
    // Well past the outbox high-water mark, unread until all is sent.
    const PINGS: usize = 120_000;
    let sender = std::thread::spawn(move || {
        let wire = format!("{}\n", Request::Ping.to_line()).repeat(PINGS);
        writer.write_all(wire.as_bytes()).unwrap();
    });
    // A neighbour on the same worker is served meanwhile.
    let mut neighbour = daemon.connect();
    neighbour.assert_served();
    std::thread::sleep(Duration::from_millis(50));
    for _ in 0..PINGS {
        assert_eq!(client.answer(), (Framing::Ndjson, Response::Pong));
    }
    sender.join().unwrap();
    neighbour.assert_served();
    daemon.stop();
}

#[test]
fn a_tenant_at_its_in_flight_cap_is_still_served_every_pipelined_request() {
    let daemon = Daemon::start(1);
    daemon
        .service
        .set_tenant("capped", None, None, Some(2))
        .unwrap();
    let mut client = daemon.connect();
    let mut wire = b"{\"op\":\"hello\",\"tenant\":\"capped\"}\n".to_vec();
    wire.extend(format!("{}\n", Request::Ping.to_line()).repeat(10).bytes());
    client.send(&wire);
    assert!(matches!(client.answer().1, Response::Hello { .. }));
    for _ in 0..10 {
        assert_eq!(client.answer(), (Framing::Ndjson, Response::Pong));
    }
    daemon.assert_in_flight_drains("capped");
    daemon.stop();
}

#[test]
fn shutdown_closes_a_connected_idle_client() {
    let daemon = Daemon::start(2);
    let mut client = daemon.connect();
    client.assert_served();
    daemon.stop();
    let mut byte = [0u8; 1];
    match client.stream.read(&mut byte) {
        Ok(n) => assert_eq!(n, 0),
        Err(e) => assert_ne!(e.kind(), io::ErrorKind::WouldBlock, "still open"),
    }
}
