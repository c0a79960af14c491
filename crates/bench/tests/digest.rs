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

/// Runs a figure binary at default flags and returns its stdout.
fn stdout_of(mut command: Command) -> String {
    let output = command.output().expect("the binary starts");
    assert!(
        output.status.success(),
        "{command:?} exited {:?}: {}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("the output is UTF-8")
}

fn digest() -> String {
    stdout_of(Command::new(env!("CARGO_BIN_EXE_run_all_experiments")))
}

/// The number after `key` on the first line of `text` that contains both
/// `label` and `key`.
fn number_after(text: &str, label: &str, key: &str) -> f64 {
    let line = text
        .lines()
        .find(|line| line.contains(label) && line.contains(key))
        .unwrap_or_else(|| panic!("no line with {label:?} and {key:?} in:\n{text}"));
    let rest = &line[line.find(key).expect("key on the line") + key.len()..];
    let number: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    number.parse().expect("a number follows the key")
}

#[test]
fn default_digest_repeats_and_equals_the_committed_one() {
    let first = digest();
    assert_eq!(first, digest(), "two runs of the digest differ");
    assert_eq!(first, include_str!("expected/run_all_experiments.txt"));
}

#[test]
fn digest_judges_figs_9_10_on_the_numbers_the_figure_binary_prints() {
    // The binary saves its records under `target/experiments` relative to
    // its working directory; run it where that lands outside the sources.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fig09_10");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let mut command = Command::new(env!("CARGO_BIN_EXE_fig09_10_correlation"));
    command.current_dir(&dir);
    let figure = stdout_of(command);
    // The test above holds the live digest equal to the committed one;
    // reading that saves a third run of the digest.
    let digest = include_str!("expected/run_all_experiments.txt");
    for (figure_label, digest_key) in [("Figure 9 ", "r(pairwise)="), ("Figure 10 ", "r(message)=")]
    {
        let printed = number_after(&figure, figure_label, "Pearson r = ");
        let judged = number_after(digest, "Figs 9/10", digest_key);
        // The digest rounds to 2 places, the binary to 3: the same r
        // prints at most 0.005 + 0.0005 apart.
        assert!(
            (printed - judged).abs() <= 0.0055 + 1e-9,
            "{}: binary prints {printed}, digest judges {judged}",
            figure_label.trim()
        );
    }
}
