//! The `recovery` workload: the journal used the other way round.
//!
//! Set-up appends a journal by driving a journaled in-process service
//! with the pooled script (whole cycles, then half of one more so the
//! machines are loaded and queues are non-empty at the cut). The timed
//! part is `open_journaled` on that directory; the recovered state must
//! equal the state of the service that wrote it.

use crate::script::{self, Script, POOL_NAME};
use crate::stats;
use commalloc_service::journal::MachineImage;
use commalloc_service::{
    open_journaled, read_journal_dir, AllocationService, FileJournal, JournalConfig, JournalSink,
};
use serde::{Map, Value};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// A written journal plus the state its writer ended in.
pub struct Fixture {
    pub dir: PathBuf,
    /// Records appended — all of them in WAL segments, none compacted
    /// into a snapshot, so recovery folds every one.
    pub records: u64,
    pub bytes: u64,
    /// Ops the writer handled, and how many answered unlike the twin.
    pub ops: u64,
    pub wrong: u64,
    images: Vec<MachineImage>,
    pool: Value,
    tenants: Value,
}

/// One counter of a journaled service's `journal_stats`.
pub fn journal_stat(service: &AllocationService, key: &str) -> u64 {
    service
        .journal_stats()
        .get(key)
        .and_then(Value::as_u64)
        .expect("a journaled service reports its counters")
}

/// The durable part of a machine's image: the watermark and the clock
/// belong to the incarnation, not to the recovered state.
fn durable(mut image: MachineImage) -> MachineImage {
    image.seq = 0;
    image.clock = None;
    image
}

fn state_of(service: &AllocationService, script: &Script) -> (Vec<MachineImage>, Value, Value) {
    let images = script
        .profile
        .machines()
        .iter()
        .map(|(name, _)| durable(service.machine_image(name).expect("machine exists")))
        .collect();
    let pool = service.pool_snapshot(POOL_NAME).expect("pool exists");
    (images, pool, durable_tenants(&service.tenants_value()))
}

/// The tenant table as recovery promises it: configuration, consumed
/// totals and queued counts per tenant. Admission counters restart with
/// the incarnation, and outstanding node-seconds are re-summed from the
/// restored jobs in another order (equal to within rounding, not bit for
/// bit), so neither is compared.
fn durable_tenants(table: &Value) -> Value {
    const DURABLE: [&str; 5] = [
        "weight",
        "quota_node_seconds",
        "max_in_flight",
        "consumed_node_seconds",
        "queued",
    ];
    let mut out = Map::new();
    for (tenant, row) in table.as_object().expect("tenants is an object").iter() {
        let mut kept = Map::new();
        for key in DURABLE {
            if let Some(value) = row.get(key) {
                kept.insert(key.to_string(), value.clone());
            }
        }
        out.insert(tenant.clone(), Value::Object(kept));
    }
    Value::Object(out)
}

/// Writes a journal of at least `min_records` records into `dir`.
pub fn write_journal(script: &Script, min_records: u64, dir: &Path) -> io::Result<Fixture> {
    assert!(script.profile.pooled, "recovery replays the pooled script");
    let _ = std::fs::remove_dir_all(dir);
    let config = JournalConfig {
        // Above any record count reached here: no snapshot, every record
        // stays in the tail and is folded at recovery.
        snapshot_every: u64::MAX,
        ..JournalConfig::default()
    };
    let sink: Arc<dyn JournalSink> = Arc::new(FileJournal::create(dir, config, 0, 1, 0)?);
    let service = script::build_service(&script.profile, Some(sink));
    let (mut ops, mut wrong) = (0u64, 0u64);
    let mut replay = |upto: usize| {
        for (request, expected) in script.requests[..upto].iter().zip(&script.expected) {
            ops += 1;
            wrong += u64::from(service.handle(request) != *expected);
        }
    };
    while journal_stat(&service, "appended") < min_records {
        replay(script.len());
    }
    replay(script.len() / 2);
    let (images, pool, tenants) = state_of(&service, script);
    let records = journal_stat(&service, "appended");
    let bytes = journal_stat(&service, "bytes_appended");
    // Dropping the last handle closes the journal: flusher joined,
    // buffer flushed, segment synced.
    drop(service);
    Ok(Fixture {
        dir: dir.to_path_buf(),
        records,
        bytes,
        ops,
        wrong,
        images,
        pool,
        tenants,
    })
}

/// One timed recovery.
pub struct Recovery {
    pub seconds: f64,
    pub cpu_ns: u64,
    /// Recovered state equals the writer's, and every record was folded.
    pub correct: bool,
}

/// Recovers from a hard-linked copy of the fixture in `work` (recovery
/// compacts and prunes the directory it opens; links keep the fixture
/// intact for the next repetition without copying its bytes).
pub fn recover(fixture: &Fixture, script: &Script, work: &Path) -> io::Result<Recovery> {
    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work)?;
    for entry in std::fs::read_dir(&fixture.dir)? {
        let entry = entry?;
        std::fs::hard_link(entry.path(), work.join(entry.file_name()))?;
    }
    let cpu = stats::process_cpu_ns();
    let start = Instant::now();
    let (service, report) = open_journaled(work, JournalConfig::default())
        .map_err(|e| io::Error::other(format!("recovery failed: {e}")))?;
    let seconds = start.elapsed().as_secs_f64();
    let cpu_ns = stats::process_cpu_ns() - cpu;
    let (images, pool, tenants) = state_of(&service, script);
    let correct = report.applied == fixture.records
        && report.skipped == 0
        && !report.torn_tail
        && images == fixture.images
        && pool == fixture.pool
        && tenants == fixture.tenants;
    drop(service);
    std::fs::remove_dir_all(work)?;
    Ok(Recovery {
        seconds,
        cpu_ns,
        correct,
    })
}

/// Seconds `read_journal_dir` alone takes on the fixture (the read and
/// parse half of recovery; the rest of `open_journaled` is the fold).
pub fn read_seconds(fixture: &Fixture) -> io::Result<f64> {
    let start = Instant::now();
    let contents = read_journal_dir(&fixture.dir)
        .map_err(|e| io::Error::other(format!("journal unreadable: {e}")))?;
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(contents.tail.len() as u64, fixture.records);
    Ok(seconds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{generate, Profile};
    use commalloc_service::framing::Framing;

    fn pooled_script() -> Script {
        generate(
            &Profile {
                framing: Framing::Binary,
                pooled: true,
                patterned: false,
                size_scale: 1,
                ops: 800,
            },
            21,
        )
    }

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("commbench-test-{tag}-{}", std::process::id()))
    }

    #[test]
    fn a_recovered_daemon_equals_the_one_that_wrote_the_journal() {
        let script = pooled_script();
        let dir = scratch("fixture");
        let fixture = write_journal(&script, 2_000, &dir).expect("journal writes");
        assert!(fixture.records >= 2_000);
        assert_eq!(fixture.wrong, 0);
        assert!(
            fixture.images.iter().any(|m| !m.running.is_empty()),
            "the cut must leave jobs running, or equality is vacuous"
        );
        for _ in 0..2 {
            let recovery = recover(&fixture, &script, &scratch("work")).expect("recovers");
            assert!(recovery.correct);
        }
        assert!(read_seconds(&fixture).expect("reads") > 0.0);
        std::fs::remove_dir_all(dir).expect("fixture removed");
    }

    #[test]
    fn a_journal_missing_its_last_record_recovers_to_a_different_state() {
        let script = pooled_script();
        let dir = scratch("short");
        let fixture = write_journal(&script, 2_000, &dir).expect("journal writes");
        let segment = dir.join("wal-000001.ndjson");
        let text = std::fs::read_to_string(&segment).expect("segment reads");
        let cut = text[..text.len() - 1].rfind('\n').expect("many lines") + 1;
        std::fs::write(&segment, &text[..cut]).expect("segment rewrites");
        let recovery = recover(&fixture, &script, &scratch("short-work")).expect("recovers");
        assert!(!recovery.correct);
        std::fs::remove_dir_all(dir).expect("fixture removed");
    }
}
