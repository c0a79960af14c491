//! Crash recovery of the real daemon. Each case spawns the `commalloc`
//! binary serving a two-machine pool from a journal synced per record,
//! drives it with the loadgen (binary framing, so each grant's response
//! waits in a connection outbox behind its journal append), SIGKILLs
//! it, restarts it on the same journal, and checks the restarted daemon
//! against the loadgen's claim table: every live job on exactly its
//! claimed processors, busy counts equal to the claims, empty queues.

use commalloc_cli::loadgen::{self, LoadgenConfig};
use commalloc_service::{Framing, ServiceClient};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// One `commalloc serve` process on an ephemeral port. Dropping it
/// SIGKILLs the process (`Child::kill`) and reaps it.
struct Daemon {
    child: Child,
    addr: String,
    /// What the daemon logged about the journal it opened.
    journal_line: String,
}

impl Daemon {
    fn start(journal: &Path, scheduler: &str) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_commalloc"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(["--machines", "m0=16x16,m1=8x8", "--pool", "grid"])
            .args(["--scheduler", scheduler, "--fsync", "every", "--journal"])
            .arg(journal)
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn the daemon");
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let mut journal_line = String::new();
        let addr = loop {
            let line = match lines.next() {
                Some(Ok(line)) => line,
                other => panic!("the daemon exited before serving: {other:?}"),
            };
            if let Some(rest) = line.strip_prefix("commalloc-service listening on ") {
                break rest.split(' ').next().expect("an address").to_string();
            }
            if line.starts_with("commalloc-service journal at") {
                journal_line = line;
            }
        };
        // Keep draining stderr so the daemon never blocks on a full pipe.
        std::thread::spawn(move || lines.for_each(drop));
        Daemon {
            child,
            addr,
            journal_line,
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A fresh journal directory for one case.
fn journal_dir(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("commalloc-crash-{case}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Loadgen against `@grid` as an operator would run it: 4 connections
/// at 90% occupancy, jobs up to 48 processors and 300 s walltimes. With
/// `claims`, granted jobs stay live and the claim table is written
/// there.
fn drive(addr: &str, tenant: Option<&str>, requests: usize, claims: Option<&Path>) {
    let config = LoadgenConfig {
        addr: addr.to_string(),
        machine: "@grid".to_string(),
        requests,
        connections: 4,
        occupancy: 0.9,
        max_size: 48,
        max_walltime: Some(300.0),
        framing: Framing::Binary,
        tenant: tenant.map(str::to_string),
        no_drain: claims.is_some(),
        claims_out: claims.map(|path| path.display().to_string()),
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(&config).expect("loadgen completes");
    assert_eq!(report.violations, 0, "{}", report.render());
    assert!(report.granted > 0 && report.released > 0);
}

/// The restarted daemon holds exactly what the claim table says.
fn assert_recovered(daemon: &Daemon, claims: &Path) {
    let report = loadgen::recovery_check(&daemon.addr, &claims.display().to_string())
        .expect("recovery-check runs");
    assert_eq!(report.violations, 0, "{}", report.render());
    assert!(report.jobs > 0, "the kill must leave live jobs to check");
    assert_eq!(report.recovered_busy, report.claimed_nodes);
    assert!(
        report.extra_checks >= report.jobs,
        "each job resolves via @grid"
    );
}

/// Appends half a record to the newest WAL segment: the shape a kill in
/// the middle of an append leaves behind.
fn tear_the_wal_tail(journal: &Path) {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(journal)
        .expect("the journal exists")
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("wal-") && name.ends_with(".ndjson")
        })
        .collect();
    segments.sort();
    let last = segments.last().expect("a WAL segment");
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(last)
        .expect("open the newest segment");
    file.write_all(br#"{"seq":999999999,"rec":"grant","machine":"m0""#)
        .expect("append the torn line");
}

/// Kill, tear, recover, kill again, recover again: the recovered state
/// (snapshot plus watermark resume) survives a second crash.
#[test]
fn acknowledged_grants_survive_two_kills_and_a_torn_tail() {
    let journal = journal_dir("grants");
    let claims = journal.with_extension("claims.json");
    let daemon = Daemon::start(&journal, "conservative");
    drive(&daemon.addr, None, 4_000, Some(&claims));
    drop(daemon);

    tear_the_wal_tail(&journal);
    let daemon = Daemon::start(&journal, "conservative");
    assert!(
        daemon.journal_line.contains("torn tail dropped"),
        "{}",
        daemon.journal_line
    );
    assert_recovered(&daemon, &claims);
    drop(daemon);

    let daemon = Daemon::start(&journal, "conservative");
    assert!(
        daemon.journal_line.contains("epoch 2") && daemon.journal_line.contains("snapshot+tail"),
        "{}",
        daemon.journal_line
    );
    assert_recovered(&daemon, &claims);
    drop(daemon);
    std::fs::remove_dir_all(&journal).unwrap();
    std::fs::remove_file(&claims).unwrap();
}

/// One tenant's row of the daemon's tenant table.
fn tenant_row<'a>(table: &'a Value, tenant: &str) -> &'a Value {
    table
        .get(tenant)
        .unwrap_or_else(|| panic!("{tenant} missing from {table:?}"))
}

fn number(row: &Value, key: &str) -> f64 {
    row.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{key} missing from {row:?}"))
}

/// Two quota-configured tenants share the pool. acme's run drains, so
/// all its consumption is settled; rival's leaves live grants behind.
/// After the kill, both tenants' configuration, acme's and rival's
/// settled consumption and rival's live commitments are all back.
#[test]
fn the_tenant_table_survives_a_kill() {
    let journal = journal_dir("tenants");
    let claims = journal.with_extension("claims.json");
    let daemon = Daemon::start(&journal, "easy");
    let mut client = ServiceClient::connect(&daemon.addr).unwrap();
    client
        .set_tenant("acme", Some(4.0), Some(500_000_000.0), None)
        .unwrap();
    client
        .set_tenant("rival", Some(1.0), Some(800_000_000.0), None)
        .unwrap();
    drive(&daemon.addr, Some("acme"), 2_000, None);
    drive(&daemon.addr, Some("rival"), 2_000, Some(&claims));
    let before = client.tenants().unwrap();
    drop(client);
    drop(daemon);

    let daemon = Daemon::start(&journal, "easy");
    assert_recovered(&daemon, &claims);
    let after = ServiceClient::connect(&daemon.addr)
        .unwrap()
        .tenants()
        .unwrap();
    for (tenant, weight, quota) in [("acme", 4.0, 5e8), ("rival", 1.0, 8e8)] {
        let row = tenant_row(&after, tenant);
        assert_eq!(number(row, "weight"), weight, "{tenant}");
        assert_eq!(number(row, "quota_node_seconds"), quota, "{tenant}");
        let was = number(tenant_row(&before, tenant), "consumed_node_seconds");
        let is = number(row, "consumed_node_seconds");
        assert!(was > 0.0, "{tenant} settled some usage before the kill");
        assert!(
            (is - was).abs() <= 1e-9 * was,
            "{tenant}'s settled usage must survive: {was} before the kill, {is} after"
        );
    }
    let rival = tenant_row(&after, "rival");
    assert!(
        number(rival, "outstanding_node_seconds") > 0.0,
        "rival's live holds must survive"
    );
    drop(daemon);
    std::fs::remove_dir_all(&journal).unwrap();
    std::fs::remove_file(&claims).unwrap();
}
