//! Recovery's footprint, counted: `open_journaled` folds each WAL record
//! as it reads it, so the heap it holds at its peak is the recovered
//! state plus one line buffer and its reader, however long the tail.
//! Two journals that end in the same state, one four times the other's
//! length, must peak within that margin of each other. And the fold
//! moves what it parsed: a recovered grant's node list and tenant name
//! become the running job's, in the tail and in the snapshot alike.

use commalloc_service::{
    open_journaled, read_journal_dir, AllocArgs, AllocationService, FsyncPolicy, JournalConfig,
    JournalRecord, RequestCtx,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

/// What a longer tail may add to the peak: the `BufReader`'s buffer
/// (8 KiB, its default capacity) and one line buffer (a record line is
/// well under 1 KiB). Collecting the tail costs about 250 B a record.
const LINE_AND_READER_BYTES: usize = 8 * 1024 + 1024;

thread_local! {
    // Const-initialised without a destructor: reading them from inside
    // the allocator neither allocates nor meets a torn-down slot. A
    // block freed on another thread than its own can take a thread's
    // live count below zero, hence signed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is thread-local counter
// updates that neither allocate nor unwind.
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
        let _ = ALLOCS.try_with(|n| n.set(n.get() - 1)); // a resize, not a new block
                                                         // SAFETY: `ptr`/`layout` describe a live `System` block, as the
                                                         // caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn note_alloc(size: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + size as isize);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn note_free(size: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - size as isize));
}

/// The highest the calling thread's live heap rose above its level at
/// the start of `work`. Tests run on parallel threads; each counts only
/// its own.
fn peak_during<T>(work: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = work();
    (out, (PEAK.with(Cell::get) - base) as usize)
}

/// The heap blocks the calling thread allocated during `work`
/// (reallocations of a live block not counted).
fn allocations_during<T>(work: impl FnOnce() -> T) -> (T, usize) {
    let base = ALLOCS.with(Cell::get);
    let out = work();
    (out, ALLOCS.with(Cell::get) - base)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "commalloc-recovery-footprint-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// No snapshot is ever due, so every record stays in the WAL tail.
fn config() -> JournalConfig {
    JournalConfig {
        fsync: FsyncPolicy::Never,
        snapshot_every: u64::MAX,
    }
}

/// Journals `cycles` whole cycles of an op script that ends idle (a
/// grant, an admission that queues behind it, the release that grants
/// the queued job from the queue, its release) and then the first half
/// of one more, so every journal ends in the same state: job 1 running,
/// job 2 queued. Returns the records written.
fn write_journal(dir: &Path, cycles: u64) -> u64 {
    let ctx = RequestCtx::inert();
    let (service, _) = open_journaled(dir, config()).unwrap();
    service
        .register("m0", "8x8", None, None, Some("FCFS"))
        .unwrap();
    let half = |service: &AllocationService| {
        let first = AllocArgs::new(1, 40).with_walltime(60.0).for_tenant("acme");
        service.alloc("m0", &first, &ctx).unwrap();
        let second = AllocArgs::new(2, 30).or_wait().with_walltime(30.0);
        service.alloc("m0", &second, &ctx).unwrap();
    };
    for _ in 0..cycles {
        half(&service);
        service.release("m0", 1, &ctx).unwrap();
        service.release("m0", 2, &ctx).unwrap();
    }
    half(&service);
    let stats = service.journal_stats();
    stats.get("appended").and_then(|n| n.as_u64()).unwrap()
}

/// The peak live heap of recovering a fresh journal of `cycles` cycles.
fn recovery_peak(tag: &str, cycles: u64) -> (u64, usize) {
    let dir = temp_dir(tag);
    let records = write_journal(&dir, cycles);
    let (recovered, peak) = peak_during(|| open_journaled(&dir, config()).unwrap());
    let (service, report) = recovered;
    assert_eq!(report.applied, records, "every record folded");
    let image = service.machine_image("m0").unwrap();
    assert_eq!((image.running.len(), image.queue.len()), (1, 1));
    drop(service);
    std::fs::remove_dir_all(&dir).unwrap();
    (records, peak)
}

#[test]
fn a_longer_tail_adds_nothing_to_the_recovery_peak() {
    // Warm the thread's lazies (the parse tape grows to the longest
    // line once and is kept), so both measured runs start alike.
    recovery_peak("warm", 4);
    let (short_records, short) = recovery_peak("short", 500);
    let (long_records, long) = recovery_peak("long", 2_000);
    println!(
        "peak live heap: {short} B over {short_records} records, {long} B over {long_records}"
    );
    assert!(
        long.abs_diff(short) <= LINE_AND_READER_BYTES,
        "recovering {long_records} records peaked at {long} B, {short_records} at {short} B: \
         more than {LINE_AND_READER_BYTES} B apart"
    );
}

/// Grants recovered per journal in the allocation count below.
const GRANTS: usize = 1_000;

/// What restoring `GRANTS` grants may allocate when it moves each one:
/// nothing per grant, only the amortised growth of the running list and
/// its index (29 blocks measured, the snapshot path being the larger),
/// plus a margin of 35. Copying a grant's node list and tenant name
/// instead costs two more per grant, and a set per grant one more.
const MOVED_GRANTS_BUDGET: usize = 64;

#[test]
fn recovery_moves_each_grant_it_parsed_instead_of_copying_it() {
    // GRANTS one-node jobs, each tagged with a tenant, so every grant
    // record owns two heap blocks: its node list and its tenant name.
    let dir = temp_dir("moves");
    let ctx = RequestCtx::inert();
    {
        let (service, _) = open_journaled(&dir, config()).unwrap();
        service
            .register("m0", "64x64", None, None, Some("FCFS"))
            .unwrap();
        for job in 1..=GRANTS as u64 {
            let args = AllocArgs::new(job, 1).for_tenant("acme");
            service.alloc("m0", &args, &ctx).unwrap();
        }
    }
    // The tail: the registration, then the GRANTS grant records.
    let mut tail = read_journal_dir(&dir).unwrap().tail.into_iter();
    let service = AllocationService::new();
    service
        .apply_journal_record(tail.next().unwrap().1)
        .unwrap();
    let grants: Vec<JournalRecord> = tail.map(|(_, record)| record).collect();
    assert_eq!(grants.len(), GRANTS);
    let ((), from_tail) = allocations_during(|| {
        for record in grants {
            service.apply_journal_record(record).unwrap();
        }
    });
    drop(service);
    // Recovering once installs a snapshot of the GRANTS running jobs.
    drop(open_journaled(&dir, config()).unwrap());
    let image = read_journal_dir(&dir).unwrap().snapshot.unwrap();
    assert_eq!(image.machines[0].running.len(), GRANTS);
    let service = AllocationService::new();
    let (watermarks, from_snapshot) = allocations_during(|| service.apply_snapshot(image));
    assert!(watermarks.is_ok());
    assert_eq!(service.machine_image("m0").unwrap().running.len(), GRANTS);
    drop(service);
    std::fs::remove_dir_all(&dir).unwrap();
    println!("{from_tail} allocations folding {GRANTS} grant records, {from_snapshot} applying a snapshot of {GRANTS} jobs");
    assert!(
        from_tail <= MOVED_GRANTS_BUDGET,
        "folding {GRANTS} grant records made {from_tail} allocations, over {MOVED_GRANTS_BUDGET}"
    );
    assert!(
        from_snapshot <= MOVED_GRANTS_BUDGET,
        "a snapshot of {GRANTS} jobs made {from_snapshot} allocations, over {MOVED_GRANTS_BUDGET}"
    );
}
