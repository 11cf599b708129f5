//! Drives the built `bench` binary at `--smoke` size: every metric
//! `BENCHMARK.json` names must come out exactly once per workload with a
//! finite value and no failed operation, the trace must be well formed, and
//! a single flipped byte in an output must fail the run.

use netsession_obs::json::{parse, JsonValue};
use std::path::Path;
use std::process::{Command, Output};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn names(section: &str) -> Vec<String> {
    let spec = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    spec.get(section)
        .and_then(JsonValue::as_arr)
        .expect("section is an array")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("bench starts")
}

fn run(workload: &str, trace: &str, extra: &[&str]) -> (Output, JsonValue) {
    let mut args = vec!["run", "--workload", workload, "--seed", "7"];
    args.extend(["--seconds", "1", "--trace", trace, "--smoke"]);
    args.extend(extra);
    let output = bench(&args);
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).unwrap_or_else(|e| panic!("{workload}: result line parses: {e}"));
    (output, result)
}

/// The result object has exactly the contract's keys, reports no failure,
/// and its metrics are exactly `expected`, each once, each finite.
fn check_result(workload: &str, output: &Output, result: &JsonValue, expected: &[String]) {
    assert!(
        output.status.success(),
        "{workload}: exit {}",
        output.status
    );
    let JsonValue::Obj(members) = result else {
        panic!("{workload}: result is not an object");
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert!(
        result
            .get("attempted")
            .and_then(JsonValue::as_u64)
            .expect("attempted")
            >= 1
    );
    let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: metrics is not an object");
    };
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(String::as_str).collect();
    assert_eq!(got, want, "{workload}: every listed metric, once, in order");
    for (name, m) in metrics {
        let value = m.get("value").and_then(JsonValue::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} is finite"
        );
        assert!(m.get("unit").and_then(JsonValue::as_str).is_some());
    }
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    let expected = names("end_to_end");
    for workload in names("workloads") {
        let (output, result) = run(&workload, "0", &[]);
        check_result(&workload, &output, &result, &expected);
        for name in &expected {
            let v = result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"));
            assert!(
                v.and_then(JsonValue::as_f64).is_some_and(|v| v > 0.0),
                "{workload}: end-to-end metric {name} is never 0"
            );
        }
    }
}

#[test]
fn traced_runs_report_every_layer_metric_and_a_well_formed_trace() {
    let expected = names("per_layer");
    for workload in names("workloads") {
        let (output, result) = run(&workload, "1", &[]);
        check_result(&workload, &output, &result, &expected);

        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/{workload}.trace.json"));
        let text = std::fs::read_to_string(&path).expect("trace file written");
        let trace = parse(&text).expect("trace parses");
        let events = trace
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("events");
        assert!(!events.is_empty(), "{workload}: spans were recorded");
        let arg = |e: &JsonValue, key: &str| e.get("args").and_then(|a| a.get(key)).cloned();
        let ids: Vec<u64> = events
            .iter()
            .map(|e| arg(e, "id").and_then(|v| v.as_u64()).expect("span id"))
            .collect();
        for e in events {
            match arg(e, "parent").expect("parent key") {
                JsonValue::Null => {}
                parent => {
                    let parent = parent.as_u64().expect("parent is an id");
                    assert!(
                        ids.contains(&parent),
                        "{workload}: parent {parent} is a span"
                    );
                }
            }
            assert!(e
                .get("dur")
                .and_then(JsonValue::as_f64)
                .is_some_and(|d| d >= 0.0));
        }
    }
}

#[test]
fn a_flipped_byte_fails_the_check() {
    // One byte of a scaled `report()`, one bit of a published hash, one
    // character of a hybrid output digest.
    for workload in ["scaled_seq", "live_edge", "hybrid_month"] {
        let (output, result) = run(workload, "0", &["--corrupt"]);
        assert!(
            !output.status.success(),
            "{workload}: exit code is non-zero"
        );
        assert_eq!(
            result.get("correct").and_then(JsonValue::as_bool),
            Some(false)
        );
        assert!(
            result
                .get("failed")
                .and_then(JsonValue::as_u64)
                .expect("failed")
                >= 1
        );
    }
}

#[test]
fn compare_applies_the_bounds() {
    let names = names("end_to_end");
    let file = |scale: f64| {
        let mut doc = String::from("{\"workloads\": {");
        for (w, workload) in self::names("workloads").iter().enumerate() {
            let cells: Vec<String> = names
                .iter()
                .map(|n| {
                    let v = 2.0 * scale;
                    format!(
                        "\"{n}\": {{\"median\": {v}, \"spread\": 0.01, \"values\": [{}, {v}, {}]}}",
                        v * 0.99,
                        v * 1.01
                    )
                })
                .collect();
            let sep = if w > 0 { "," } else { "" };
            doc.push_str(&format!(
                "{sep}\"{workload}\": {{\"end_to_end\": {{{}}}}}",
                cells.join(",")
            ));
        }
        doc.push_str("}}");
        doc
    };
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    std::fs::write(&a, file(1.0)).expect("write a");
    std::fs::write(&b, file(1.5)).expect("write b");
    let path = |p: &Path| p.to_str().expect("utf-8 path").to_string();

    let same = bench(&["compare", &path(&a), &path(&a)]);
    assert!(same.status.success(), "a file agrees with itself");
    assert!(!String::from_utf8_lossy(&same.stdout).contains("regression"));

    // Everything 50 % larger: the lower-is-better metrics regress, the
    // higher-is-better ones improve, and the command fails.
    let worse = bench(&["compare", &path(&a), &path(&b)]);
    assert!(!worse.status.success());
    let rows = String::from_utf8_lossy(&worse.stdout).to_string();
    let verdict_of = |metric: &str| {
        let row = rows
            .lines()
            .find(|l| l.contains(metric))
            .expect("a row per metric");
        row.split_whitespace().last().expect("verdict").to_string()
    };
    assert_eq!(verdict_of("pass_wall_s"), "regression");
    assert_eq!(verdict_of("work_per_s"), "ok");
}
