//! Differential test of the wire codec. Every message is rendered once
//! through `Emit` and read once through a reader generic over the parsed
//! form, so each back end is checked against the value-tree route that
//! is built from the same pieces separately:
//!
//! - **write side:** the NDJSON sink's bytes equal `serde_json::to_string`
//!   of the message's tree, and the binary sink's equal `encode_frame` of
//!   it, for every generated `Request` and `Response`;
//! - **read side:** `from_line` (the tape) agrees with `from_str` +
//!   `from_value` (the tree) on the message *and* on the exact error
//!   text, for every generated line and a corpus of malformed ones; binary
//!   payloads are checked the same way against `decode_value` +
//!   `from_value`.
//!
//! The journal's lines are held to the same rule: `JournalRecord::from_line`
//! (the tape) agrees with `JournalRecord::read` of the parsed tree, record
//! and error text alike, for every generated record and every prefix of
//! pinned lines (recovery's torn-tail rule rests on that Ok/Err split).
//!
//! Also: a line nested past the depth cap is answered, not fatal, on a
//! live server.

mod strategies;

use commalloc_service::framing::{self, Framing};
use commalloc_service::{AllocationService, JournalRecord, Request, Response, Server};
use proptest::prelude::*;
use serde::Value;
use serde_json::{Emit, Tape};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use strategies::{request_strategy, response_strategy};

/// Both sinks of `message` against the value-tree route.
fn check_write_side<M: Emit>(message: &M, tree: &Value) -> Result<(), TestCaseError> {
    let mut line = Vec::new();
    framing::append_frame(&mut line, Framing::Ndjson, message)
        .map_err(|e| TestCaseError::fail(format!("ndjson: {e}")))?;
    let text = serde_json::to_string(tree).expect("trees render");
    prop_assert_eq!(&line[..line.len() - 1], text.as_bytes());
    prop_assert_eq!(line.last(), Some(&b'\n'));
    let mut frame = Vec::new();
    framing::append_frame(&mut frame, Framing::Binary, message)
        .map_err(|e| TestCaseError::fail(format!("binary: {e}")))?;
    let expected = framing::encode_frame(tree).expect("trees encode");
    prop_assert_eq!(frame, expected);
    Ok(())
}

/// The tape route and the tree route of one request line: the same
/// request, or the same error text.
fn request_routes(line: &str) -> (Result<Request, String>, Result<Request, String>) {
    let tape = Request::from_line(line).map_err(|e| e.to_string());
    let tree = serde_json::from_str::<Value>(line)
        .and_then(|v| Request::from_value(&v))
        .map_err(|e| e.to_string());
    (tape, tree)
}

fn response_routes(line: &str) -> (Result<Response, String>, Result<Response, String>) {
    let tape = Response::from_line(line).map_err(|e| e.to_string());
    let tree = serde_json::from_str::<Value>(line)
        .and_then(|v| Response::from_value(&v))
        .map_err(|e| e.to_string());
    (tape, tree)
}

/// The same for a binary payload: `decode` into a tape and read it,
/// against `decode_value` and `from_value`.
fn binary_request_routes(payload: &[u8]) -> (Result<Request, String>, Result<Request, String>) {
    let mut tape = Tape::new();
    let direct = framing::decode(payload, &mut tape)
        .map_err(|e| e.to_string())
        .and_then(|root| Request::read(root).map_err(|e| e.to_string()));
    let tree = framing::decode_value(payload)
        .map_err(|e| e.to_string())
        .and_then(|v| Request::from_value(&v).map_err(|e| e.to_string()));
    (direct, tree)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn requests_agree_across_sinks_and_readers(request in request_strategy()) {
        let tree = request.to_value();
        check_write_side(&request, &tree)?;
        prop_assert_eq!(request.to_line(), serde_json::to_string(&tree).expect("trees render"));
        let (tape, via_tree) = request_routes(&request.to_line());
        prop_assert_eq!(&tape, &via_tree);
        prop_assert_eq!(tape, Ok(request.clone()));
        let frame = framing::encode_frame(&tree).expect("trees encode");
        let (direct, via_tree) = binary_request_routes(&frame[5..]);
        prop_assert_eq!(&direct, &via_tree);
        prop_assert_eq!(direct, Ok(request));
    }

    #[test]
    fn responses_agree_across_sinks_and_readers(response in response_strategy()) {
        let tree = response.to_value();
        check_write_side(&response, &tree)?;
        prop_assert_eq!(response.to_line(), serde_json::to_string(&tree).expect("trees render"));
        let (tape, via_tree) = response_routes(&response.to_line());
        prop_assert_eq!(&tape, &via_tree);
        prop_assert_eq!(tape, Ok(response));
    }
}

const ALLOC: &str = r#"{"op":"alloc","machine":"m0","job":7,"size":4,"wait":true,"walltime":12.5,"pattern":"n-body","tenant":"acme"}"#;

/// `{"op":"batch","requests":` and `depth` arrays: the innermost array
/// sits `depth` containers below the root object.
fn nested_batch(depth: usize) -> String {
    format!(
        r#"{{"op":"batch","requests":{}{}}}"#,
        "[".repeat(depth),
        "]".repeat(depth)
    )
}

/// Malformed and awkward lines: each must read the same, or fail with the
/// same text, through the tape and through the tree.
fn corpus() -> Vec<String> {
    let mut lines: Vec<String> = (0..=ALLOC.len()).map(|n| ALLOC[..n].to_string()).collect();
    lines.extend(
        [
            // Duplicate keys: the last wins, whatever the field.
            r#"{"op":"alloc","machine":"a","job":1,"size":2,"machine":"b"}"#,
            r#"{"op":"ping","op":"alloc","machine":"m0","job":1,"size":2}"#,
            r#"{"op":"alloc","machine":"m0","job":1,"size":2,"job":"x"}"#,
            r#"{"op":"alloc","machine":"m0","job":1,"size":2,"wait":true,"wait":null}"#,
            // Keys in any order, `op` last.
            r#"{"size":2,"job":1,"walltime":30,"machine":"m0","op":"alloc"}"#,
            r#"{"job":9,"machine":"@grid","op":"release"}"#,
            r#"{"job":"grid/m0/9","op":"poll"}"#,
            // `\u` escapes, surrogate pairs included, in keys and values.
            r#"{"op":"alloc","machine":"m\u00e9sh\ud83d\ude00","job":1,"size":2}"#,
            r#"{"op":"alloc","m\u0061chine":"m0","job":1,"size":2}"#,
            r#"{"op":"alloc","machine":"mésh😀","job":1,"size":2}"#,
            r#"{"op":"hello","tenant":"\ud83d"}"#,
            r#"{"op":"hello","tenant":"\ude00"}"#,
            r#"{"op":"hello","tenant":"\ud83dA"}"#,
            r#"{"op":"hello","tenant":"\u12"}"#,
            r#"{"op":"hello","tenant":"tab\tquote\"slash\/back\\"}"#,
            r#"{"op":"hello","tenant":"bad\x"}"#,
            // Numbers at the edges.
            r#"{"op":"alloc","machine":"m0","job":1,"size":2,"walltime":1e999}"#,
            r#"{"op":"alloc","machine":"m0","job":-0,"size":2}"#,
            r#"{"op":"alloc","machine":"m0","job":18446744073709551616,"size":2}"#,
            r#"{"op":"alloc","machine":"m0","job":18446744073709551615,"size":2}"#,
            r#"{"op":"alloc","machine":"m0","job":-9223372036854775808,"size":2}"#,
            r#"{"op":"alloc","machine":"m0","job":1,"size":2,"walltime":-}"#,
            r#"{"op":"alloc","machine":"m0","job":1.0,"size":2}"#,
            r#"{"op":"set_tenant","tenant":"t","weight":2.5e0,"max_in_flight":007}"#,
            // Whitespace around every token.
            " \t{ \"op\" : \"alloc\" ,\r\n \"machine\" : \"m0\" , \"job\" : 1 , \"size\" : 2 , \"wait\" : true } \n",
            // Not objects, not JSON, trailing bytes.
            "",
            "   ",
            "[]",
            "7",
            "null",
            r#"{"op":"ping"} x"#,
            r#"{"op":"ping"}}"#,
            r#"{"op":"pong","ok":true}"#,
            r#"{"op":"batch","requests":[{"op":"ping"},{"op":"batch","requests":[]}]}"#,
            r#"{"op":"batch","requests":{"op":"ping"}}"#,
            r#"{"op":"ping","x":[1,{"y":[true,false,null]}]}"#,
            r#"{"op":7}"#,
            r#"{op:"ping"}"#,
            r#"{"op":"ping",}"#,
            r#"{"op":"ping" "x":1}"#,
            r#"{"op":"ping","x":tru}"#,
        ]
        .map(str::to_string),
    );
    lines.extend([127, 128, 129, 130, 10_000].map(nested_batch));
    lines
}

#[test]
fn malformed_and_awkward_lines_read_the_same_through_the_tape() {
    for line in corpus() {
        let (tape, tree) = request_routes(&line);
        assert_eq!(tape, tree, "request line {line:?}");
        let (tape, tree) = response_routes(&line);
        assert_eq!(tape, tree, "response line {line:?}");
    }
}

#[test]
fn the_depth_cap_is_where_the_binary_decoder_puts_it() {
    // 127 and 128 nested arrays below the root object read (as the
    // error an array of arrays earns); 129 and more are refused by the
    // grammar, as the binary decoder refuses them.
    for depth in [127, 128] {
        let err = Request::from_line(&nested_batch(depth))
            .unwrap_err()
            .to_string();
        assert!(!err.contains("nesting"), "depth {depth}: {err}");
    }
    for depth in [129, 130, 10_000] {
        let err = Request::from_line(&nested_batch(depth))
            .unwrap_err()
            .to_string();
        assert!(
            err.starts_with("nesting deeper than 128"),
            "depth {depth}: {err}"
        );
    }
    for depth in [127, 128, 129, 130] {
        let tree = serde_json::from_str::<Value>(&nested_batch(depth.min(128)))
            .expect("the cap admits 128");
        let mut payload = Vec::new();
        framing::encode_value(&tree, &mut payload).expect("trees encode");
        if depth > 128 {
            // Wrap the innermost array deeper by hand: the grammar would
            // not have built the tree.
            let wrap = depth - 128;
            let mut deeper = Vec::new();
            let head = payload.len() - 5; // `[` tag + zero count of the innermost
            deeper.extend_from_slice(&payload[..head]);
            for _ in 0..wrap {
                deeper.push(0x07);
                deeper.extend_from_slice(&1u32.to_le_bytes());
            }
            deeper.extend_from_slice(&payload[head..]);
            payload = deeper;
        }
        let (direct, tree) = binary_request_routes(&payload);
        assert_eq!(direct, tree, "binary depth {depth}");
        let nested = direct.unwrap_err();
        assert_eq!(
            nested.contains("too deep"),
            depth > 128,
            "depth {depth}: {nested}"
        );
    }
}

#[test]
fn truncated_and_flipped_binary_frames_read_the_same_through_the_tape() {
    let request = Request::from_line(ALLOC).expect("the fixture parses");
    let frame = framing::encode_frame(&request.to_value()).expect("trees encode");
    let payload = &frame[5..];
    for n in 0..=payload.len() {
        let (direct, tree) = binary_request_routes(&payload[..n]);
        assert_eq!(direct, tree, "truncated to {n} bytes");
    }
    for at in 0..payload.len() {
        for flip in [0x01, 0x80, 0xff] {
            let mut bytes = payload.to_vec();
            bytes[at] ^= flip;
            let (direct, tree) = binary_request_routes(&bytes);
            assert_eq!(direct, tree, "byte {at} ^ {flip:#x}");
        }
    }
}

#[test]
fn a_line_nested_past_the_cap_is_answered_and_the_daemon_keeps_serving() {
    let server = Server::bind("127.0.0.1:0", AllocationService::new(), 2)
        .expect("binds")
        .spawn()
        .expect("spawns");
    let mut stream = TcpStream::connect(server.addr()).expect("connects");
    // About 10 KB: enough nesting to overflow a worker's stack if the
    // grammar had no cap.
    writeln!(stream, "{}", nested_batch(10_000)).expect("writes");
    writeln!(stream, "{}", Request::Ping.to_line()).expect("writes");
    let mut reader = BufReader::new(stream.try_clone().expect("clones"));
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("the deep line is answered");
    match Response::from_line(&line).expect("an answer parses") {
        Response::Error { message, .. } => {
            assert!(message.contains("nesting deeper than 128"), "{message}")
        }
        other => panic!("unexpected {other:?}"),
    }
    line.clear();
    reader
        .read_line(&mut line)
        .expect("the same connection answers");
    assert_eq!(Response::from_line(&line).expect("parses"), Response::Pong);

    let mut second = TcpStream::connect(server.addr()).expect("a second connection");
    writeln!(second, "{}", Request::Ping.to_line()).expect("writes");
    let mut line = String::new();
    BufReader::new(second.try_clone().expect("clones"))
        .read_line(&mut line)
        .expect("the second connection is served");
    assert_eq!(Response::from_line(&line).expect("parses"), Response::Pong);
    drop((stream, second, reader));
    server.shutdown().expect("shuts down");
}

/// The tape route and the tree route of one journal line.
type JournalRead = Result<(u64, JournalRecord), String>;

fn journal_routes(line: &str) -> (JournalRead, JournalRead) {
    let tape = JournalRecord::from_line(line).map_err(|e| e.to_string());
    let tree = serde_json::from_str::<Value>(line)
        .and_then(|v| JournalRecord::read(&v))
        .map_err(|e| e.to_string());
    (tape, tree)
}

proptest! {
    #[test]
    fn journal_records_read_the_same_through_the_tape(
        record in strategies::journal::record_strategy(),
        seq in any::<u64>(),
    ) {
        let line = record.to_line(seq);
        let (tape, via_tree) = journal_routes(&line);
        prop_assert_eq!(&tape, &via_tree);
        prop_assert_eq!(tape, Ok((seq, record)));
    }
}

/// One line of each record kind that carries a fact, tagged and escaped.
const JOURNAL_LINES: [&str; 4] = [
    r#"{"seq":9,"rec":"grant","machine":"m\"0","job":7,"nodes":[1,2],"walltime":30,"start":1.5,"pattern":"ring","tenant":"acmé"}"#,
    r#"{"seq":10,"rec":"queue","machine":"m0","job":8,"size":4,"walltime":null,"enqueued_at":2}"#,
    r#"{"seq":11,"rec":"set_tenant","tenant":"acme","weight":2.5,"quota":1000000,"max_in_flight":32}"#,
    r#"{"seq":40,"rec":"snapshot","epoch":1,"covers":2,"machines":[{"machine":"m0","mesh":"4x4","allocator":"Hilbert w/BF","strategy":null,"scheduler":"EASY backfill","seq":12,"clock":8.5,"fair_share":true,"running":[{"job":1,"nodes":[0,1],"walltime":30,"start":1.5,"pattern":"ring","tenant":"acme"}],"queue":[{"job":2,"size":16,"walltime":null,"enqueued_at":2}]}],"pools":[{"pool":"grid","members":["m0"],"policy":"shortest-queue"}],"tenants":[{"tenant":"acme","weight":2,"quota":500000,"max_in_flight":8,"consumed":45}]}"#,
];

#[test]
fn every_prefix_of_a_journal_line_reads_the_same_through_the_tape() {
    for line in JOURNAL_LINES {
        assert!(JournalRecord::from_line(line).is_ok(), "{line}");
        for n in (0..=line.len()).filter(|&n| line.is_char_boundary(n)) {
            let (tape, tree) = journal_routes(&line[..n]);
            assert_eq!(tape, tree, "prefix {:?}", &line[..n]);
        }
    }
}
