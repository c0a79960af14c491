//! Rendering and persisting experiment results.
//!
//! The figure binaries print the same rows/series the paper plots and also
//! write machine-readable JSON under `target/experiments/` so their numbers
//! can be regenerated and re-plotted externally.

use crate::experiment::{ExperimentPoint, SweepResult};
use commalloc_alloc::AllocatorKind;
use commalloc_workload::CommPattern;
use serde::Serialize;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Renders one pattern's response-time series as a text table:
/// one row per allocator, one column per load factor (the layout of
/// Figures 7 and 8).
pub fn response_time_table(result: &SweepResult, pattern: CommPattern) -> String {
    let mut loads: Vec<f64> = result
        .points
        .iter()
        .filter(|p| p.pattern == pattern)
        .map(|p| p.load_factor)
        .collect();
    loads.sort_by(|a, b| a.total_cmp(b));
    loads.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

    let mut allocators: Vec<AllocatorKind> = result
        .points
        .iter()
        .filter(|p| p.pattern == pattern)
        .map(|p| p.allocator)
        .collect();
    allocators.sort_by_key(|a| a.name());
    allocators.dedup();

    let mut out = String::new();
    out.push_str(&format!(
        "mean response time (seconds), pattern = {pattern}\n"
    ));
    out.push_str(&format!("{:<16}", "allocator"));
    for load in &loads {
        out.push_str(&format!("  load {load:<6.1}"));
    }
    out.push('\n');
    for allocator in &allocators {
        out.push_str(&format!("{:<16}", allocator.name()));
        for load in &loads {
            match result.response_time(pattern, *allocator, *load) {
                Some(rt) => out.push_str(&format!("  {rt:>11.0}")),
                None => out.push_str(&format!("  {:>11}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders the Figure 11 table: percent of jobs allocated contiguously and
/// average number of components, per allocator, for the given pattern and
/// load factor.
pub fn contiguity_table(result: &SweepResult, pattern: CommPattern, load_factor: f64) -> String {
    let mut rows: Vec<&ExperimentPoint> = result
        .points
        .iter()
        .filter(|p| p.pattern == pattern && (p.load_factor - load_factor).abs() < 1e-9)
        .collect();
    // The paper sorts Figure 11 by percent contiguous, best first.
    rows.sort_by(|a, b| b.percent_contiguous.total_cmp(&a.percent_contiguous));
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16}{:>14}{:>18}\n",
        "Algorithm", "% contiguous", "Ave. components"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<16}{:>13.1}%{:>18.2}\n",
            row.allocator.name(),
            row.percent_contiguous,
            row.avg_components
        ));
    }
    out
}

/// The directory experiment artefacts are written to
/// (`target/experiments/` relative to the workspace root, honouring
/// `CARGO_TARGET_DIR` when set).
pub fn experiments_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    Path::new(&target).join("experiments")
}

/// Serialises `value` as pretty JSON to `target/experiments/<name>.json`,
/// creating the directory when needed, and returns the path written.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let dir = experiments_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let mut file = std::fs::File::create(&path)?;
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    file.write_all(json.as_bytes())?;
    file.write_all(b"\n")?;
    Ok(path)
}

/// Writes a simple CSV with the given header and rows.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::io::Result<PathBuf> {
    let dir = experiments_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut file = std::fs::File::create(&path)?;
    writeln!(file, "{header}")?;
    for row in rows {
        writeln!(file, "{row}")?;
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use commalloc_mesh::Mesh2D;

    fn fake_result() -> SweepResult {
        let mk = |allocator, load, rt, pc, ac| ExperimentPoint {
            pattern: CommPattern::AllToAll,
            allocator,
            load_factor: load,
            mean_response_time: rt,
            mean_running_time: rt / 2.0,
            percent_contiguous: pc,
            avg_components: ac,
            mean_pairwise_distance: 2.0,
            mean_message_distance: 1.5,
        };
        SweepResult {
            mesh: Mesh2D::square_16x16(),
            points: vec![
                mk(AllocatorKind::HilbertBestFit, 1.0, 1000.0, 81.3, 1.33),
                mk(AllocatorKind::HilbertBestFit, 0.2, 5000.0, 80.0, 1.40),
                mk(AllocatorKind::Mc, 1.0, 1200.0, 68.5, 1.91),
                mk(AllocatorKind::Mc, 0.2, 6000.0, 67.0, 2.00),
            ],
        }
    }

    #[test]
    fn response_table_contains_all_allocators_and_loads() {
        let table = response_time_table(&fake_result(), CommPattern::AllToAll);
        assert!(table.contains("Hilbert w/BF"));
        assert!(table.contains("MC"));
        assert!(table.contains("load 0.2"));
        assert!(table.contains("load 1.0"));
        assert!(table.contains("5000"));
    }

    #[test]
    fn contiguity_table_is_sorted_best_first() {
        let table = contiguity_table(&fake_result(), CommPattern::AllToAll, 1.0);
        let hilbert_pos = table.find("Hilbert w/BF").unwrap();
        let mc_pos = table.find("MC").unwrap();
        assert!(hilbert_pos < mc_pos, "higher contiguity must come first");
        assert!(table.contains("81.3%"));
    }

    #[test]
    fn write_json_and_csv_round_trip() {
        let dir = tempdir();
        std::env::set_var("CARGO_TARGET_DIR", &dir);
        let path = write_json("unit_test_report", &vec![1, 2, 3]).unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.contains('1'));
        let csv = write_csv("unit_test_report", "a,b", &["1,2".to_string()]).unwrap();
        let contents = std::fs::read_to_string(&csv).unwrap();
        assert!(contents.starts_with("a,b"));
        std::env::remove_var("CARGO_TARGET_DIR");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn tempdir() -> String {
        let dir =
            std::env::temp_dir().join(format!("commalloc-report-test-{}", std::process::id()));
        dir.to_string_lossy().into_owned()
    }
}
