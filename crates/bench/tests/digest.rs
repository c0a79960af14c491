//! Runs the reproduction digest, the one binary that exercises every
//! figure's pipeline, and compares its stdout with the committed one.
//!
//! Nothing else runs a figure binary under `cargo test`, so this is the
//! guard that a change to the allocators, the fluid model or the mesh
//! locality metrics (`avg_pairwise_distance`, `components`) moved no
//! figure: every rank, component count and correlation in the digest is a
//! pure function of the code. After a deliberate change, regenerate with
//! `cargo run --release -p commalloc-bench --bin run_all_experiments >
//! crates/bench/tests/expected/run_all_experiments.txt`.

use std::process::Command;

fn digest() -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_run_all_experiments"))
        .output()
        .expect("the digest binary starts");
    assert!(
        output.status.success(),
        "run_all_experiments exited {:?}: {}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("the digest is UTF-8")
}

#[test]
fn default_digest_repeats_and_equals_the_committed_one() {
    let first = digest();
    assert_eq!(first, digest(), "two runs of the digest differ");
    assert_eq!(first, include_str!("expected/run_all_experiments.txt"));
}
