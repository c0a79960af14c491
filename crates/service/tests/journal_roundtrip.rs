//! Property tests for the write-ahead journal's NDJSON wire format —
//! every [`JournalRecord`] variant round-trips losslessly through one
//! line, including adversarial machine names and snapshot images — plus
//! torn-tail recovery: a final line truncated by `kill -9` is dropped,
//! never an error, and never costs any *earlier* record.

#[allow(dead_code)] // the request/response strategies stay unused here
mod strategies;

use commalloc_service::journal::{read_journal_dir, FileJournal, JournalError, SnapshotImage};
use commalloc_service::{open_journaled, AllocArgs, JournalConfig, JournalRecord, RequestCtx};
use proptest::prelude::*;
use std::path::PathBuf;
use strategies::journal::{
    machine_image_strategy, queued_strategy, record_strategy, running_strategy,
    tenant_image_strategy,
};

/// In-process callers trace nothing.
const INERT: RequestCtx<'static> = RequestCtx::inert();

/// What `record` renders between `prefix` (its `seq`/`rec` head, plus
/// the machine name where the record carries one beside the fact) and
/// `suffix`: the body of the fact it recreates.
fn body_of<'a>(line: &'a str, prefix: &str, suffix: &str) -> &'a str {
    line.strip_prefix(prefix)
        .and_then(|rest| rest.strip_suffix(suffix))
        .unwrap_or_else(|| panic!("{line} is not {prefix}…{suffix}"))
}

proptest! {
    #[test]
    fn every_journal_record_round_trips_through_ndjson(
        record in record_strategy(),
        seq in any::<u64>(),
    ) {
        let line = record.to_line(seq);
        prop_assert!(!line.contains('\n'), "wire lines must be single lines");
        let (parsed_seq, parsed) = JournalRecord::from_line(&line)
            .map_err(|e| TestCaseError::fail(format!("{e} on {line}")))?;
        prop_assert_eq!(parsed_seq, seq);
        prop_assert_eq!(parsed, record, "line was {}", line);
    }

    /// A snapshot is the compacted log: the image of a fact is, byte for
    /// byte, the body of the record that recreates it — a running job a
    /// `grant`, a queued one a `queue`, a machine a `register` (less its
    /// pool, plus its state), a tenant a `set_tenant` (plus `consumed`).
    #[test]
    fn an_image_renders_each_fact_as_the_body_of_its_record(
        mut machine in machine_image_strategy(),
        job in running_strategy(),
        request in queued_strategy(),
        tenant in tenant_image_strategy(),
    ) {
        let grant = JournalRecord::Grant { machine: "m".into(), job: job.clone() }.to_line(0);
        let queue = JournalRecord::Queue { machine: "m".into(), request: request.clone() }
            .to_line(0);
        let register = JournalRecord::Register { spec: machine.spec.clone(), pool: None }
            .to_line(0);
        let set_tenant = JournalRecord::SetTenant(tenant.spec.clone()).to_line(0);
        let job_body = body_of(&grant, "{\"seq\":0,\"rec\":\"grant\",\"machine\":\"m\",", "}");
        let request_body = body_of(&queue, "{\"seq\":0,\"rec\":\"queue\",\"machine\":\"m\",", "}");
        let spec_body = body_of(&register, "{\"seq\":0,\"rec\":\"register\",", ",\"pool\":null}");
        let tenant_body = body_of(&set_tenant, "{\"seq\":0,\"rec\":\"set_tenant\",", "}");

        machine.running = vec![job];
        machine.queue = vec![request];
        let (seq, consumed) = (machine.seq, tenant.consumed);
        let snapshot = JournalRecord::Snapshot(SnapshotImage {
            machines: vec![machine],
            tenants: vec![tenant],
            ..SnapshotImage::default()
        })
        .to_line(0);
        for part in [
            format!("\"machines\":[{{{spec_body},\"seq\":{seq},"),
            format!("\"running\":[{{{job_body}}}],\"queue\":[{{{request_body}}}]}}]"),
            format!("\"tenants\":[{{{tenant_body},\"consumed\":{consumed}}}]"),
        ] {
            prop_assert!(snapshot.contains(&part), "{} does not hold {}", snapshot, part);
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("commalloc-journal-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The torn-tail contract end to end: a daemon journals live traffic,
/// dies mid-append (simulated by truncating the final line), and the
/// next incarnation recovers everything up to the torn record without
/// erroring — the torn grant simply never happened.
#[test]
fn recovery_ignores_a_torn_final_line() {
    let dir = temp_dir("torn-tail");
    {
        let (service, report) = open_journaled(&dir, JournalConfig::default()).unwrap();
        assert_eq!(report.epoch, 0);
        service.register("m0", "8x8", None, None, None).unwrap();
        service.alloc("m0", &AllocArgs::new(1, 10), &INERT).unwrap();
        service.alloc("m0", &AllocArgs::new(2, 5), &INERT).unwrap();
        service.release("m0", 1, &INERT).unwrap();
    }
    // Tear the last record (job 1's release... no: the drain order makes
    // the release the final line) mid-write, like a crash would.
    let contents = read_journal_dir(&dir).unwrap();
    assert!(!contents.torn_tail);
    let segment = dir.join(format!("wal-{:06}.ndjson", contents.max_segment));
    let text = std::fs::read_to_string(&segment).unwrap();
    let keep_lines: Vec<&str> = text.lines().collect();
    let (last, earlier) = keep_lines.split_last().unwrap();
    let torn = format!("{}\n{}", earlier.join("\n"), &last[..last.len() / 2]);
    std::fs::write(&segment, torn).unwrap();

    let (recovered, report) = open_journaled(&dir, JournalConfig::default()).unwrap();
    assert!(report.torn_tail, "the truncated line must be detected");
    assert_eq!(report.epoch, 1);
    // The torn release never happened: both jobs still hold processors.
    let snap = recovered.query("m0").unwrap();
    assert_eq!(snap.busy, 15, "torn release must not replay");
    assert_eq!(snap.live_jobs, 2);
    recovered.check_invariants("m0").unwrap();
    // A second, clean restart recovers the post-recovery snapshot.
    drop(recovered);
    let (again, report) = open_journaled(&dir, JournalConfig::default()).unwrap();
    assert_eq!(report.epoch, 2);
    assert!(report.snapshot_found);
    assert!(!report.torn_tail);
    assert_eq!(again.query("m0").unwrap().busy, 15);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Corruption before the tail is refused, not guessed around.
#[test]
fn recovery_refuses_corruption_before_the_tail() {
    let dir = temp_dir("corrupt");
    {
        let (service, _) = open_journaled(&dir, JournalConfig::default()).unwrap();
        service.register("m0", "4x4", None, None, None).unwrap();
        service.alloc("m0", &AllocArgs::new(1, 4), &INERT).unwrap();
        service.release("m0", 1, &INERT).unwrap();
    }
    let contents = read_journal_dir(&dir).unwrap();
    let segment = dir.join(format!("wal-{:06}.ndjson", contents.max_segment));
    let text = std::fs::read_to_string(&segment).unwrap();
    std::fs::write(&segment, format!("garbage\n{text}")).unwrap();
    assert!(open_journaled(&dir, JournalConfig::default()).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A grant naming a node id past `u32::MAX` on a 4x4 machine: the same
/// journal with node 0 recovers, so only the id can make it refuse. An
/// id that wrapped to 32 bits would have passed the range check as
/// node 0.
#[test]
fn recovery_refuses_a_node_id_past_u32_instead_of_wrapping_it() {
    let recover = |tag: &str, node: u64| {
        let dir = temp_dir(tag);
        {
            let (service, _) = open_journaled(&dir, JournalConfig::default()).unwrap();
            service.register("m0", "4x4", None, None, None).unwrap();
        }
        let segment = dir.join("wal-000001.ndjson");
        let mut text = std::fs::read_to_string(&segment).unwrap();
        text.push_str(&format!(
            "{{\"seq\":2,\"rec\":\"grant\",\"machine\":\"m0\",\"job\":1,\
             \"nodes\":[{node}],\"walltime\":null,\"start\":0}}\n"
        ));
        std::fs::write(&segment, text).unwrap();
        let recovered = open_journaled(&dir, JournalConfig::default())
            .map(|(service, _)| service.query("m0").unwrap().busy);
        std::fs::remove_dir_all(&dir).unwrap();
        recovered
    };
    assert_eq!(recover("node-id-0", 0).unwrap(), 1);
    match recover("node-id-wide", 1 << 32) {
        Err(JournalError::Corrupt(reason)) => {
            assert!(
                reason.contains("node id 4294967296 out of range"),
                "{reason}"
            )
        }
        other => panic!("expected corruption, got {:?}", other.map(|_| ())),
    }
}

/// The journal_stats surface: counters move as records append, and a
/// non-durable service reports `enabled: false`.
#[test]
fn journal_stats_reflect_appends_and_epochs() {
    use serde::Value;
    let dir = temp_dir("stats");
    let (service, _) = open_journaled(&dir, JournalConfig::default()).unwrap();
    service.register("m0", "4x4", None, None, None).unwrap();
    service.alloc("m0", &AllocArgs::new(1, 4), &INERT).unwrap();
    let stats = service.journal_stats();
    assert_eq!(stats.get("enabled").and_then(Value::as_bool), Some(true));
    assert_eq!(stats.get("epoch").and_then(Value::as_u64), Some(0));
    assert!(stats.get("appended").and_then(Value::as_u64).unwrap() >= 2);
    // The recovery epoch also travels in the plain stats response.
    let full = service.stats("m0").unwrap();
    let journal = full.get("journal").expect("stats carry a journal section");
    assert_eq!(journal.get("enabled").and_then(Value::as_bool), Some(true));
    assert_eq!(journal.get("epoch").and_then(Value::as_u64), Some(0));

    let plain = commalloc_service::AllocationService::new();
    let stats = plain.journal_stats();
    assert_eq!(stats.get("enabled").and_then(Value::as_bool), Some(false));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A FileJournal attached to a plain service also journals through the
/// explicit `with_journal` path (what `serve --journal` does under the
/// hood when the directory is fresh).
#[test]
fn explicit_sink_attachment_round_trips_state() {
    let dir = temp_dir("attach");
    {
        let sink = FileJournal::create(&dir, JournalConfig::default(), 0, 1, 0).unwrap();
        let service =
            commalloc_service::AllocationService::new().with_journal(std::sync::Arc::new(sink));
        service
            .register_in_pool("m0", "8x8", None, None, Some("easy"), Some("grid"))
            .unwrap();
        service
            .register_in_pool("m1", "4x4", None, None, None, Some("grid"))
            .unwrap();
        service.set_router("grid", "p2c").unwrap();
        service
            .alloc("m0", &AllocArgs::new(1, 60).with_walltime(50.0), &INERT)
            .unwrap();
        service
            .alloc(
                "m0",
                &AllocArgs::new(2, 10).or_wait().with_walltime(10.0),
                &INERT,
            )
            .unwrap();
        service.handle(&commalloc_service::Request::Alloc {
            machine: "@grid".into(),
            job: 3,
            size: 4,
            wait: true,
            walltime: None,
            pattern: Some(commalloc_workload::CommPattern::AllToAll),
            tenant: None,
        });
    }
    let (recovered, report) = open_journaled(&dir, JournalConfig::default()).unwrap();
    assert_eq!(report.epoch, 1);
    assert_eq!(report.machines, 2);
    assert_eq!(recovered.list(), vec!["m0".to_string(), "m1".to_string()]);
    assert_eq!(
        recovered.router().members("grid").unwrap(),
        vec!["m0".to_string(), "m1".to_string()]
    );
    assert_eq!(
        recovered.router().policy("grid").unwrap(),
        commalloc_service::RoutingPolicy::PowerOfTwoChoices
    );
    let m0 = recovered.query("m0").unwrap();
    assert_eq!(m0.scheduler, "EASY backfill");
    assert!(m0.busy >= 60);
    for machine in ["m0", "m1"] {
        recovered.check_invariants(machine).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The conservative scheduler kind round-trips through both journal
/// shapes: a `Register` record carrying the client's spec, a
/// `SetScheduler` record carrying the canonical name, and a snapshot
/// image — a `kill -9` (scope drop) plus recovery resurrects machines
/// that keep scheduling conservatively.
#[test]
fn conservative_kind_round_trips_through_register_and_set_scheduler() {
    let dir = temp_dir("conservative");
    {
        let (service, _) = open_journaled(&dir, JournalConfig::default()).unwrap();
        // m0 is conservative from registration; m1 flips at runtime.
        service
            .register("m0", "16x16", None, None, Some("conservative"))
            .unwrap();
        service.register("m1", "8x8", None, None, None).unwrap();
        service.set_scheduler("m1", "conservative", &INERT).unwrap();
        // Leave running + queued state behind so recovery exercises the
        // conservative drain: job 1 holds 200 until t = 100, job 2 is
        // the reserved head, job 3 would be an unsafe backfill.
        service.set_time("m0", 0.0).unwrap();
        service
            .alloc("m0", &AllocArgs::new(1, 200).with_walltime(100.0), &INERT)
            .unwrap();
        service
            .alloc(
                "m0",
                &AllocArgs::new(2, 100).or_wait().with_walltime(50.0),
                &INERT,
            )
            .unwrap();
        service
            .alloc(
                "m0",
                &AllocArgs::new(3, 250).or_wait().with_walltime(100.0),
                &INERT,
            )
            .unwrap();
    }
    let (recovered, report) = open_journaled(&dir, JournalConfig::default()).unwrap();
    assert_eq!(report.epoch, 1);
    for machine in ["m0", "m1"] {
        assert_eq!(
            recovered.query(machine).unwrap().scheduler,
            "conservative backfill",
            "{machine} must recover the conservative kind"
        );
        recovered.check_invariants(machine).unwrap();
    }
    let m0 = recovered.query("m0").unwrap();
    assert_eq!(m0.busy, 200);
    assert_eq!(m0.queue_len, 2);
    // The recovered queue still drains conservatively: a long job that
    // exactly fits the free processors would delay job 3's recovered
    // reservation, so it queues; a short one backfills.
    use commalloc_service::AllocOutcome;
    assert!(matches!(
        recovered
            .alloc(
                "m0",
                &AllocArgs::new(4, 56).or_wait().with_walltime(10_000.0),
                &INERT
            )
            .unwrap(),
        AllocOutcome::Queued(_)
    ));
    assert!(matches!(
        recovered
            .alloc(
                "m0",
                &AllocArgs::new(5, 30).or_wait().with_walltime(40.0),
                &INERT
            )
            .unwrap(),
        AllocOutcome::Granted(_)
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}
