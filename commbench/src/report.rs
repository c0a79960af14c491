//! Result lines, the all-workloads table and report, and `--repeat`.

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads::{Measured, Workload};
use serde::{Map, Value};
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};

/// A value to four significant digits, for tables.
pub fn short(value: f64) -> String {
    if value == 0.0 {
        return "0".to_string();
    }
    let magnitude = value.abs().log10().floor() as i32;
    let decimals = (3 - magnitude).clamp(0, 9) as usize;
    format!("{value:.decimals$}")
}

/// The one JSON object a run ends with. Values go out as measured, with
/// all their digits. An end-to-end metric that is missing, zero or not
/// finite is an error; a per-layer metric the workload does not have
/// reads 0.
pub fn result_line(
    measured: &Measured,
    list: &[Metric],
    end_to_end: bool,
) -> Result<String, String> {
    let mut metrics = Map::new();
    for metric in list {
        let value = match measured.get(metric.name) {
            Some(v) if v.is_finite() && (v != 0.0 || !end_to_end) => v,
            Some(v) => return Err(format!("{} measured as {v}", metric.name)),
            None if end_to_end => return Err(format!("{} was not measured", metric.name)),
            None => 0.0,
        };
        let mut entry = Map::new();
        entry.insert("value".into(), Value::Float(value));
        entry.insert("unit".into(), Value::Str(metric.unit.into()));
        metrics.insert(metric.name.into(), Value::Object(entry));
    }
    let mut line = Map::new();
    line.insert("correct".into(), Value::Bool(measured.failed == 0));
    line.insert("attempted".into(), Value::UInt(measured.attempted.max(1)));
    line.insert("failed".into(), Value::UInt(measured.failed));
    line.insert("metrics".into(), Value::Object(metrics));
    serde_json::to_string(&Value::Object(line)).map_err(|e| e.to_string())
}

/// One child run's result line, parsed back.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Value,
}

impl ChildResult {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name)?.get("value")?.as_f64()
    }
}

/// Runs one workload in a fresh child process of this executable.
fn child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> io::Result<ChildResult> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let broken = |why: &str| {
        io::Error::other(format!(
            "{} (trace {}) {why}; exit {:?}",
            workload.name(),
            u8::from(trace),
            output.status.code()
        ))
    };
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| broken("printed no result"))?;
    let parsed: Value = serde_json::from_str(line).map_err(|_| broken("printed no JSON"))?;
    let field = |key: &str| {
        parsed
            .get(key)
            .ok_or_else(|| broken("printed a partial result"))
    };
    Ok(ChildResult {
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_u64().unwrap_or(0),
        failed: field("failed")?.as_u64().unwrap_or(0),
        metrics: field("metrics")?.clone(),
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The filesystem type under `path`: the longest mount point that is a
/// prefix of it. Journal appends and fsyncs cost what this makes them.
fn filesystem_of(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

fn host_facts() -> Value {
    let mut host = Map::new();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    host.insert("nproc".into(), Value::UInt(nproc as u64));
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    host.insert("kernel".into(), Value::Str(kernel.trim().to_string()));
    host.insert(
        "rustc".into(),
        Value::Str(command_line("rustc", &["--version"])),
    );
    host.insert(
        "commit".into(),
        Value::Str(command_line("git", &["rev-parse", "HEAD"])),
    );
    let exe = std::env::current_exe().unwrap_or_default();
    host.insert(
        "journal_filesystem".into(),
        Value::Str(filesystem_of(exe.parent().unwrap_or(Path::new("/")))),
    );
    Value::Object(host)
}

fn print_table(title: &str, list: &[Metric], rows: &[(Workload, ChildResult)]) {
    print!("\n{title:<34} {:<6}", "unit");
    for (workload, _) in rows {
        print!(" {:>19}", workload.name());
    }
    println!();
    for metric in list {
        print!("{:<34} {:<6}", metric.name, metric.unit);
        for (_, result) in rows {
            // A per-layer metric reads 0 on a workload that lacks it.
            let cell = match result.value(metric.name) {
                Some(v) if v != 0.0 => short(v),
                _ => "-".to_string(),
            };
            print!(" {cell:>19}");
        }
        println!();
    }
}

/// `--workload all`: every workload, untraced then traced, each in a
/// fresh process; prints every metric by name and writes the same, with
/// host facts, as JSON.
pub fn all(seed: u64, seconds: f64, out: Option<&Path>) -> io::Result<bool> {
    let mut end_to_end = Vec::new();
    let mut per_layer = Vec::new();
    for workload in Workload::ALL {
        end_to_end.push((workload, child(workload, seed, seconds, false)?));
        per_layer.push((workload, child(workload, seed, seconds, true)?));
    }
    println!("commbench: seed {seed}, {seconds} s per run");
    print_table("end-to-end (tracing off)", &END_TO_END, &end_to_end);
    print_table("per-layer (traced pass)", &PER_LAYER, &per_layer);
    println!();

    let mut workloads = Map::new();
    let mut all_correct = true;
    for ((workload, untraced), (_, traced)) in end_to_end.iter().zip(&per_layer) {
        let attempted = untraced.attempted + traced.attempted;
        let failed = untraced.failed + traced.failed;
        let noisy = traced.value("host.noisy") == Some(1.0);
        all_correct &= untraced.correct && traced.correct;
        println!(
            "{:<20} failed_ops_share {failed}/{attempted}{}",
            workload.name(),
            if noisy {
                "  (noisy host: the spin readings differ by more than a tenth)"
            } else {
                ""
            }
        );
        let mut row = Map::new();
        row.insert(
            "correct".into(),
            Value::Bool(untraced.correct && traced.correct),
        );
        row.insert("attempted".into(), Value::UInt(attempted));
        row.insert("failed".into(), Value::UInt(failed));
        row.insert("noisy".into(), Value::Bool(noisy));
        row.insert("end_to_end".into(), untraced.metrics.clone());
        row.insert("per_layer".into(), traced.metrics.clone());
        workloads.insert(workload.name().into(), Value::Object(row));
    }
    let mut report = Map::new();
    report.insert("benchmark".into(), Value::Str("commbench".into()));
    report.insert("seed".into(), Value::UInt(seed));
    report.insert("run_seconds".into(), Value::Float(seconds));
    report.insert("host".into(), host_facts());
    report.insert("workloads".into(), Value::Object(workloads));
    let json = serde_json::to_string_pretty(&Value::Object(report)).map_err(io::Error::other)?;
    let default_path = std::env::current_exe()?.with_file_name("commbench-report.json");
    let path = out.unwrap_or(&default_path);
    std::fs::write(path, json)?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

/// The bound of each end-to-end metric, from `BENCHMARK.json` in the
/// working directory (the root of the checkout, where the benchmark's
/// command runs).
fn bounds() -> io::Result<Vec<(String, f64)>> {
    let text = std::fs::read_to_string("BENCHMARK.json")?;
    let file: Value = serde_json::from_str(&text).map_err(io::Error::other)?;
    let list = file
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or_else(|| io::Error::other("BENCHMARK.json lacks end_to_end"))?;
    Ok(list
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// `--repeat N`: the untraced suite N times, each run with another seed
/// (`seed`, `seed + 1`, …), workload order alternating; then per metric
/// and workload the median, the quartiles and their distance as a share
/// of the median, against the metric's bound. Markdown on stdout.
pub fn repeat(repeats: usize, seed: u64, seconds: f64) -> io::Result<bool> {
    let bounds = bounds()?;
    let mut samples: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::new(); END_TO_END.len()]; Workload::ALL.len()];
    let mut all_correct = true;
    for round in 0..repeats {
        let mut order: Vec<usize> = (0..Workload::ALL.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let result = child(Workload::ALL[w], seed + round as u64, seconds, false)?;
            all_correct &= result.correct && result.failed == 0;
            for (m, metric) in END_TO_END.iter().enumerate() {
                let value = result
                    .value(metric.name)
                    .ok_or_else(|| io::Error::other(format!("{} missing", metric.name)))?;
                samples[w][m].push(value);
            }
        }
    }
    println!(
        "{repeats} runs per workload, seeds {seed}..={}, {seconds} s per run, order alternating.\n",
        seed + repeats as u64 - 1
    );
    println!("| workload | metric | unit | median | q1 | q3 | spread | bound | within |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut all_within = true;
    for (w, workload) in Workload::ALL.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let [q1, q2, q3] = stats::quartiles(&samples[w][m]);
            let spread = (q3 - q1) / q2;
            let bound = bounds
                .iter()
                .find(|(n, _)| n == metric.name)
                .map(|(_, b)| *b);
            // The driver does not hold set-up time to its spread.
            let within = match bound {
                Some(b) if metric.name != "setup_s" => {
                    all_within &= spread <= b;
                    if spread <= b / 3.0 {
                        "yes, under a third"
                    } else if spread <= b {
                        "yes"
                    } else {
                        "NO"
                    }
                }
                _ => "-",
            };
            println!(
                "| {} | {} | {} | {} | {} | {} | {:.4} | {} | {within} |",
                workload.name(),
                metric.name,
                metric.unit,
                short(q2),
                short(q1),
                short(q3),
                spread,
                bound.map_or("-".to_string(), |b| b.to_string()),
            );
        }
    }
    println!("\nevery run correct: {all_correct}; every spread within its bound: {all_within}");
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_keeps_four_significant_digits() {
        assert_eq!(short(0.0), "0");
        assert_eq!(short(0.000_856_3), "0.0008563");
        assert_eq!(short(2.71849), "2.718");
        assert_eq!(short(206_042.9), "206043");
    }

    #[test]
    fn an_end_to_end_line_needs_every_metric_and_none_zero() {
        let mut measured = Measured {
            attempted: 10,
            failed: 0,
            ..Measured::default()
        };
        assert!(result_line(&measured, &END_TO_END, true).is_err());
        for metric in &END_TO_END {
            measured.set(metric.name, 1.5);
        }
        let line = result_line(&measured, &END_TO_END, true).expect("complete");
        let parsed: Value = serde_json::from_str(&line).expect("JSON");
        let keys: Vec<&String> = parsed
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.as_object())
                .map(Map::len),
            Some(END_TO_END.len())
        );
        measured.values[0].1 = 0.0;
        assert!(result_line(&measured, &END_TO_END, true).is_err());
    }

    #[test]
    fn a_per_layer_line_reads_zero_where_a_workload_has_no_such_layer() {
        let mut measured = Measured::default();
        measured.set("journal.append_ns", 120.25);
        let line = result_line(&measured, &PER_LAYER, false).expect("renders");
        let parsed: Value = serde_json::from_str(&line).expect("JSON");
        let value = |name: &str| parsed.get("metrics")?.get(name)?.get("value")?.as_f64();
        assert_eq!(value("journal.append_ns"), Some(120.25));
        assert_eq!(value("score.predict_ns"), Some(0.0));
        assert_eq!(parsed.get("attempted").and_then(Value::as_u64), Some(1));
    }
}
