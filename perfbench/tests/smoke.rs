//! Smoke tests of the benchmark itself.
//!
//! `every_workload_prints_every_metric` runs one op of every workload listed
//! in `BENCHMARK.json`, untraced and traced, and asserts that the result line
//! names every metric the file declares, with its unit, and that every
//! output check passed.
//!
//! `count_metrics_repeat_across_runs_and_thread_counts` (ignored: about two
//! minutes) runs the traced op three times per workload — twice on the
//! default pool, once with `PIM_THREADS=1` — and asserts that every count
//! metric reads the same each time. Run it with
//! `cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored`.

use std::path::Path;
use std::process::Command;

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The string values of `key` in the objects of the JSON array `section`.
fn field(json: &str, section: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{section}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let pattern = format!("\"{key}\": \"");
    body.match_indices(&pattern)
        .map(|(i, _)| {
            let rest = &body[i + pattern.len()..];
            rest[..rest.find('"').expect("closed string")].to_string()
        })
        .collect()
}

/// Runs one op and returns the result line, asserting a zero exit.
fn run(workload: &str, trace: bool, threads: Option<&str>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(["--workload", workload, "--seed", "0", "--seconds", "0"]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(n) = threads {
        cmd.env("PIM_THREADS", n);
    }
    let out = cmd.output().expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

/// The value of metric `name` as printed, if present with `unit`.
fn value<'a>(line: &'a str, name: &str, unit: &str) -> Option<&'a str> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let (value, tail) = rest.split_once(',')?;
    tail.starts_with(&format!(" \"unit\": \"{unit}\"}}")).then_some(value)
}

fn metrics(json: &str, section: &str) -> Vec<(String, String)> {
    field(json, section, "name").into_iter().zip(field(json, section, "unit")).collect()
}

#[test]
fn every_workload_prints_every_metric() {
    let json = benchmark_json();
    let workloads = field(&json, "workloads", "name");
    assert_eq!(workloads, ["reduced-flow", "fit-audit", "corpus-block"]);
    for workload in &workloads {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let line = run(workload, trace, None);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{workload}: {line}");
            assert!(line.contains("\"failed\": 0,"), "{workload}: {line}");
            let declared = metrics(&json, section);
            assert!(!declared.is_empty());
            for (name, unit) in &declared {
                let v = value(&line, name, unit)
                    .unwrap_or_else(|| panic!("{workload}: {name} [{unit}] missing in {line}"));
                assert!(v.parse::<f64>().is_ok_and(f64::is_finite), "{workload}: {name} = {v}");
            }
            assert_eq!(line.matches("\"value\"").count(), declared.len(), "{workload}: {line}");
        }
    }
}

#[test]
#[ignore = "about two minutes: three traced ops per workload"]
fn count_metrics_repeat_across_runs_and_thread_counts() {
    let json = benchmark_json();
    let counts: Vec<(String, String)> = metrics(&json, "per_layer")
        .into_iter()
        .filter(|(name, unit)| {
            unit == "count" || name == "passivity.accept_ratio" || name == "core.rung_success_ratio"
        })
        .collect();
    for workload in field(&json, "workloads", "name") {
        let runs = [
            run(&workload, true, None),
            run(&workload, true, None),
            run(&workload, true, Some("1")),
        ];
        for (name, unit) in &counts {
            let values: Vec<Option<&str>> = runs.iter().map(|l| value(l, name, unit)).collect();
            assert!(values[0].is_some(), "{workload}: {name} missing");
            assert!(
                values.iter().all(|v| *v == values[0]),
                "{workload}: {name} differs: {values:?}"
            );
        }
    }
}
