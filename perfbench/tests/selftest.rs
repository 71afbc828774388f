//! Self-test of the benchmark at toy size: every workload runs end to
//! end in both modes, prints every metric `BENCHMARK.json` names with
//! its unit, and answers every query correctly.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// which lists one metric per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.lines()
        .filter_map(|line| Some((field(line, "name")?, field(line, "unit")?)))
        .collect()
}

fn workloads() -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let body = &text[text.find("\"workloads\"").expect("workloads listed")..];
    let body = &body[..body.find(']').expect("workloads is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closed string")].to_string())
        .collect()
}

/// Run one toy workload; return the last stdout line.
fn run(workload: &str, trace: u8) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.4"])
        .args(["--trace", &trace.to_string(), "--toy"])
        .current_dir(&dir)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

/// The numeric value printed for `name` with `unit`.
fn value(line: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {line}"))
        + key.len()..];
    let (number, rest) = rest.split_once(',').expect("value then unit");
    assert!(
        rest.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
        "{name} printed without unit {unit}: {line}"
    );
    number.parse().expect("value is a number")
}

#[test]
fn every_workload_prints_every_metric_and_answers_correctly() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    assert!(per_layer.iter().any(|(n, _)| n == "error_frac"));
    let names = workloads();
    assert_eq!(
        names,
        ["serve-pair-hot", "embed-pair-cold", "serve-topk-cold"]
    );
    for workload in &names {
        let line = run(workload, 0);
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
        assert!(line.contains("\"failed\": 0, "), "{line}");
        for (name, unit) in &end_to_end {
            let v = value(&line, name, unit);
            assert!(v.is_finite() && v > 0.0, "{workload}: {name} = {v}");
        }
        let line = run(workload, 1);
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
        for (name, unit) in &per_layer {
            assert!(value(&line, name, unit).is_finite());
        }
        assert_eq!(value(&line, "error_frac", "ratio"), 0.0, "{workload}");
    }
}
