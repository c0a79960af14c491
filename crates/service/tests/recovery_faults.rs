//! Faults recovery meets late in the journal. `open_journaled` folds
//! each record as it reads it, so a fault may surface after thousands
//! of records have been applied in memory; the directory must still be
//! left exactly as found, and of two faults the earlier one in file
//! order is the one reported.

use commalloc_mesh::NodeId;
use commalloc_service::journal::RunningJob;
use commalloc_service::{
    open_journaled, AllocArgs, AllocationService, JournalConfig, JournalError, JournalRecord,
    RequestCtx,
};
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "commalloc-recovery-faults-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Every file in `dir`, by name, with its bytes.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            (name, fs::read(entry.path()).unwrap())
        })
        .collect()
}

/// Journals `cycles` grant/release cycles of two jobs on `m0`.
fn churn(service: &AllocationService, cycles: u64) {
    let ctx = RequestCtx::inert();
    for _ in 0..cycles {
        for job in [1, 2] {
            service.alloc("m0", &AllocArgs::new(job, 8), &ctx).unwrap();
        }
        for job in [1, 2] {
            service.release("m0", job, &ctx).unwrap();
        }
    }
}

/// Appends `text` to segment `index` and returns the line number its
/// first line lands on.
fn append(dir: &Path, index: u64, text: &str) -> usize {
    let path = dir.join(format!("wal-{index:06}.ndjson"));
    let lines = fs::read_to_string(&path).unwrap().lines().count();
    let mut file = fs::OpenOptions::new().append(true).open(&path).unwrap();
    file.write_all(text.as_bytes()).unwrap();
    lines + 1
}

fn corrupt_reason(dir: &Path) -> String {
    match open_journaled(dir, JournalConfig::default()) {
        Err(JournalError::Corrupt(reason)) => reason,
        Err(e) => panic!("expected corruption, got {e}"),
        Ok(_) => panic!("a corrupt journal opened"),
    }
}

#[test]
fn a_malformed_line_after_many_records_leaves_the_directory_untouched() {
    let dir = temp_dir("late-malformed");
    let (service, _) = open_journaled(&dir, JournalConfig::default()).unwrap();
    service.register("m0", "8x8", None, None, None).unwrap();
    churn(&service, 100);
    // A snapshot covering segment 1, then more records in segment 2:
    // a recovery that succeeded would install a new snapshot, start new
    // segments and prune segment 2.
    service.install_journal_snapshot().unwrap();
    churn(&service, 500);
    drop(service);
    let line = append(&dir, 2, "{\"seq\":9999,\"rec\":\"grant\"\n");
    let before = files(&dir);
    assert_eq!(
        before.keys().collect::<Vec<_>>(),
        ["snapshot.ndjson", "wal-000002.ndjson"]
    );

    let reason = corrupt_reason(&dir);
    assert!(
        reason.contains(&format!("wal-000002.ndjson:{line} holds a malformed")),
        "{reason}"
    );
    assert_eq!(files(&dir), before, "recovery changed the directory");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_inconsistent_grant_is_reported_before_a_later_malformed_line() {
    let dir = temp_dir("grant-then-malformed");
    let (service, _) = open_journaled(&dir, JournalConfig::default()).unwrap();
    service.register("m0", "8x8", None, None, None).unwrap();
    churn(&service, 50);
    let ctx = RequestCtx::inert();
    service.alloc("m0", &AllocArgs::new(1, 4), &ctx).unwrap();
    let busy: NodeId = service.machine_image("m0").unwrap().running[0].nodes[0];
    drop(service);
    // A grant of a node job 1 holds, a valid record, then a line that
    // kept its newline but does not parse.
    let grant = JournalRecord::Grant {
        machine: "m0".into(),
        job: RunningJob {
            job: 2,
            nodes: vec![busy],
            walltime: None,
            start: 0.0,
            pattern: None,
            tenant: None,
        },
    };
    let release = JournalRecord::Release {
        machine: "m0".into(),
        job: 1,
        held: 0.0,
    };
    let tail = format!(
        "{}\n{}\nnot json\n",
        grant.to_line(900),
        release.to_line(901)
    );
    let line = append(&dir, 1, &tail);
    let before = files(&dir);

    let reason = corrupt_reason(&dir);
    assert!(
        reason.starts_with(&format!(
            "{}:{line}: ",
            dir.join("wal-000001.ndjson").display()
        )),
        "{reason}"
    );
    assert!(reason.contains("already busy"), "{reason}");
    assert_eq!(files(&dir), before, "recovery changed the directory");
    fs::remove_dir_all(&dir).unwrap();
}
