//! The flight recorder's footprint, counted: an idle service holds no
//! histogram buckets, and its recorder costs no more than the
//! preallocated span rings plus a small constant; a recording thread
//! adds only the windows it touches, one bucket array per stage per
//! second it records in.

use commalloc_service::trace::{DEFAULT_TRACE_CAPACITY, DEFAULT_TRACE_SHARDS};
use commalloc_service::{
    AllocationService, LogLinearHistogram, Request, SpanEvent, Stage, LOG_LINEAR_SLOTS,
    WINDOW_SLOTS,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

/// Bytes of one histogram's bucket array.
const BUCKET_BYTES: usize = LOG_LINEAR_SLOTS * size_of::<u64>();

/// What an idle service allocates besides its span rings: the recorder
/// and service scaffolding (shard mutexes, empty rings, maps). Pinned
/// near today's figure, so a regrowing fixed cost shows.
const IDLE_SCAFFOLD_BYTES: usize = 8 * 1024;

thread_local! {
    // Const-initialised without a destructor: reading them from inside
    // the allocator neither allocates nor meets a torn-down slot.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    static FREED: Cell<usize> = const { Cell::new(0) };
    static BUCKET_ARRAYS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is thread-local counter
// bumps that neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: `ptr` came from `System` via the methods of this type.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_free(layout.size());
        note_alloc(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block, as the
        // caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn note_alloc(size: usize) {
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + size));
    if size == BUCKET_BYTES {
        let _ = BUCKET_ARRAYS.try_with(|n| n.set(n.get() + 1));
    }
}

fn note_free(size: usize) {
    let _ = FREED.try_with(|n| n.set(n.get() + size));
}

/// What the calling thread allocated during `work`: total bytes, live
/// bytes (allocated minus freed) and histogram bucket arrays. Tests run
/// on parallel threads; each counts only its own.
#[derive(Debug)]
struct Counted {
    bytes: usize,
    live: isize,
    bucket_arrays: usize,
}

fn counted<T>(work: impl FnOnce() -> T) -> (T, Counted) {
    let read = || {
        (
            ALLOCATED.with(Cell::get),
            FREED.with(Cell::get),
            BUCKET_ARRAYS.with(Cell::get),
        )
    };
    let (allocated, freed, buckets) = read();
    let out = work();
    let (allocated_after, freed_after, buckets_after) = read();
    let bytes = allocated_after - allocated;
    let counts = Counted {
        bytes,
        live: bytes as isize - (freed_after - freed) as isize,
        bucket_arrays: buckets_after - buckets,
    };
    (out, counts)
}

fn ring_bytes() -> usize {
    DEFAULT_TRACE_SHARDS * DEFAULT_TRACE_CAPACITY * size_of::<SpanEvent>()
}

#[test]
fn an_idle_service_holds_no_histogram_buckets() {
    let (service, idle) = counted(AllocationService::new);
    assert_eq!(
        idle.bucket_arrays,
        0,
        "an idle service allocated {} histogram bucket arrays ({} bytes)",
        idle.bucket_arrays,
        idle.bucket_arrays * BUCKET_BYTES
    );
    assert!(
        idle.bytes <= ring_bytes() + IDLE_SCAFFOLD_BYTES,
        "an idle service allocated {} bytes: more than its span rings ({}) \
         plus {IDLE_SCAFFOLD_BYTES}",
        idle.bytes,
        ring_bytes()
    );
    // Reading every surface of an idle recorder allocates no buckets.
    let (_, read) = counted(|| {
        let _ = service.recorder().stage_histograms();
        let _ = service.recorder().stage_windows(0, 60);
        let _ = service.metrics_value(None);
        let _ = service.prometheus_text(Some("10s"));
    });
    assert_eq!(read.bucket_arrays, 0);
    drop(service);
}

#[test]
fn a_recording_thread_pays_only_for_the_windows_it_touches() {
    let service = AllocationService::new();
    service.register("m0", "16x16", None, None, None).unwrap();
    // Virtual time: every span ends in the same second.
    service.clock().set_time(7.0);
    let ops = |first_job: u64, traced: bool| {
        for job in first_job..first_job + 500 {
            let alloc = Request::Alloc {
                machine: "m0".into(),
                job,
                size: 4,
                wait: false,
                walltime: None,
                pattern: None,
                tenant: None,
            };
            let release = Request::Release {
                machine: Some("m0".into()),
                job: commalloc_service::JobRef::Bare(job),
            };
            for request in [alloc, release] {
                if traced {
                    let mut ctx = service.begin();
                    ctx.lap(Stage::Parse, 0, 0);
                    service.handle_traced(&request, &ctx);
                } else {
                    service.handle(&request);
                }
            }
        }
    };
    // The same 1 000 requests untraced first: the machine's own books
    // reach their steady size, so what the traced run adds is the
    // recorder's.
    ops(1, false);
    // Intern the machine name outside the counted run too: its cost is
    // the intern table's growth, not the recorder's windows.
    service.recorder().intern("m0");
    service.recorder().set_enabled(true);
    let (_, traced) = counted(|| ops(1_001, true));

    let histograms = service.recorder().stage_histograms();
    let touched = histograms.iter().filter(|h| !h.is_empty()).count();
    assert!(touched >= 2, "parse and allocator spans were recorded");
    assert_eq!(
        histograms[Stage::Parse as usize].count(),
        1_000,
        "every traced request left a parse span"
    );
    // One bucket array per touched stage for the one second recorded.
    assert_eq!(traced.bucket_arrays, touched);
    // Live bytes: each touched stage's slot array and one second's
    // buckets, and nothing else.
    let window = WINDOW_SLOTS * size_of::<(u64, LogLinearHistogram)>() + BUCKET_BYTES;
    assert_eq!(
        traced.live,
        (touched * window) as isize,
        "1 000 traced requests must leave exactly {touched} touched windows live"
    );
}
