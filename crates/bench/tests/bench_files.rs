//! The three deterministic benchmarks reproduce their committed files.
//!
//! `scheduler_throughput`, `cluster_routing` and `routing_study` run in
//! virtual time on seeded inputs, so each `BENCH_*.json` they write is a
//! pure function of the code: a change to a scheduler, a router, the
//! shared stream generator or the placement scorer shows up here as a
//! byte diff. They are also the only tests that run `replay` and
//! `replay_cluster` at benchmark scale. Each binary runs in its own fresh
//! directory, so the committed files are never touched; a zero exit
//! status covers `routing_study`'s own gate (comm-aware contention no
//! worse than round-robin's). After a deliberate change, regenerate the
//! files by running the three binaries from the repository root.

use std::path::PathBuf;
use std::process::Command;

fn reproduces(binary: &str, exe: &str, file: &str, committed: &str) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(binary);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the run directory is created");
    let output = Command::new(exe)
        .current_dir(&dir)
        .output()
        .expect("the benchmark binary starts");
    assert!(
        output.status.success(),
        "{binary} exited {:?}: {}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let written = std::fs::read_to_string(dir.join(file)).expect("the binary wrote its file");
    assert_eq!(written, committed, "{binary} wrote a different {file}");
}

#[test]
fn scheduler_throughput_reproduces_bench_schedulers() {
    reproduces(
        "scheduler_throughput",
        env!("CARGO_BIN_EXE_scheduler_throughput"),
        "BENCH_schedulers.json",
        include_str!("../../../BENCH_schedulers.json"),
    );
}

#[test]
fn cluster_routing_reproduces_bench_cluster() {
    reproduces(
        "cluster_routing",
        env!("CARGO_BIN_EXE_cluster_routing"),
        "BENCH_cluster.json",
        include_str!("../../../BENCH_cluster.json"),
    );
}

#[test]
fn routing_study_passes_its_gate_and_reproduces_bench_routing() {
    reproduces(
        "routing_study",
        env!("CARGO_BIN_EXE_routing_study"),
        "BENCH_routing.json",
        include_str!("../../../BENCH_routing.json"),
    );
}
