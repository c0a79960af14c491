//! The codec's steady state, counted: with a warm outbox and a warm tape
//! (what a connection keeps between frames), rendering the hot responses
//! allocates nothing in either framing, decoding `ping` allocates
//! nothing, and decoding an `alloc`, `release` or `poll` allocates once,
//! for its `machine` string.

use commalloc_mesh::NodeId;
use commalloc_service::framing::{self, Framing};
use commalloc_service::{JobRef, Request, Response};
use serde::{Map, Value};
use serde_json::Tape;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised without a destructor: reading it from inside the
    // allocator neither allocates nor meets a torn-down slot.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local counter
// bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr`/`layout` describe a live `System` block, as the
        // caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn bump() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Heap allocations (reallocations included) the calling thread makes
/// in `work`. Tests run on parallel threads; each counts only its own.
fn allocations<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn nodes(n: u32) -> Vec<NodeId> {
    (0..n).map(|i| NodeId(i * 7)).collect()
}

#[test]
fn rendering_the_hot_responses_into_a_warm_outbox_allocates_nothing() {
    let mut explain = Map::new();
    explain.insert("code".into(), Value::Str("insufficient_free".into()));
    explain.insert("detail".into(), Value::Str("17 needed, 4 free".into()));
    let responses = [
        Response::Granted {
            job: 7,
            nodes: nodes(17),
            machine: None,
        },
        Response::Released {
            job: 7,
            granted: vec![(8, nodes(3)), (9, nodes(60))],
            machine: Some("m1".into()),
        },
        Response::Running {
            job: 8,
            nodes: nodes(3),
            machine: None,
        },
        Response::Waiting {
            job: 10,
            position: 2,
            reserved_start: Some(120.5),
            explain: Some(Value::Object(explain)),
            machine: None,
        },
        Response::Pong,
    ];
    for framing in [Framing::Ndjson, Framing::Binary] {
        let mut outbox = Vec::with_capacity(64 * 1024);
        for response in &responses {
            let (rendered, count) =
                allocations(|| framing::append_frame(&mut outbox, framing, response));
            rendered.expect("renders");
            assert_eq!(count, 0, "{framing} rendering of {response:?}");
        }
    }
}

/// Decodes `request` from its encoding in `framing` into `tape`,
/// counting the allocations of the decode alone.
fn decode_count(tape: &mut Tape, framing: Framing, request: &Request) -> u64 {
    let mut frame = Vec::new();
    framing::append_frame(&mut frame, framing, request).expect("encodes");
    let (decoded, count) = match framing {
        Framing::Ndjson => {
            let line = std::str::from_utf8(&frame[..frame.len() - 1]).expect("UTF-8");
            allocations(|| {
                tape.parse(line)
                    .and_then(Request::read)
                    .map_err(|e| e.to_string())
            })
        }
        Framing::Binary => allocations(|| {
            framing::decode(&frame[5..], tape)
                .map_err(|e| e.to_string())
                .and_then(|root| Request::read(root).map_err(|e| e.to_string()))
        }),
    };
    assert_eq!(decoded.as_ref(), Ok(request));
    count
}

#[test]
fn decoding_into_a_warm_tape_allocates_only_the_machine_name() {
    let with_machine = [
        Request::Alloc {
            machine: "m0".into(),
            job: 12,
            size: 17,
            wait: true,
            walltime: Some(12_242.955_374_495_312),
            pattern: None,
            tenant: None,
        },
        Request::Release {
            machine: Some("m0".into()),
            job: JobRef::Bare(12),
        },
        Request::Poll {
            machine: Some("m0".into()),
            job: JobRef::Bare(12),
        },
    ];
    for framing in [Framing::Ndjson, Framing::Binary] {
        let mut tape = Tape::new();
        // Warm the tape on the longest request first.
        decode_count(&mut tape, framing, &with_machine[0]);
        assert_eq!(
            decode_count(&mut tape, framing, &Request::Ping),
            0,
            "{framing} ping"
        );
        for request in &with_machine {
            assert_eq!(
                decode_count(&mut tape, framing, request),
                1,
                "{framing} {request:?}"
            );
        }
    }
}
