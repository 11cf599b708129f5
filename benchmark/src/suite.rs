//! The whole benchmark in one go — every workload, each run in a fresh
//! child process so peak RSS is per run — the result file it leaves, and
//! `compare`, the one rule by which two result files are judged.

use crate::spec::{Metric, Spec};
use crate::stats::{median, quartiles, spread};
use crate::RunArgs;
use netsession_obs::json::{parse, push_str_literal, JsonValue};
use std::collections::BTreeMap;
use std::process::Command;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

fn first_line_of(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// What a reader needs to weigh the numbers: the hardware line, the load
/// model and the run shape.
fn env_json(args: &RunArgs) -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let mut out = String::from("{");
    let mut field = |key: &str, value: &str, quote: bool| {
        if out.len() > 1 {
            out.push_str(", ");
        }
        push_str_literal(&mut out, key);
        out.push_str(": ");
        if quote {
            push_str_literal(&mut out, value);
        } else {
            out.push_str(value);
        }
    };
    field("nproc", &nproc().to_string(), false);
    field(
        "cpu_model",
        &first_line_of("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
        true,
    );
    field("kernel", kernel.trim(), true);
    field("commit", &git_commit(), true);
    field("seed", &args.seed.to_string(), false);
    field("seconds", &args.seconds.to_string(), false);
    field("runs", &args.runs.to_string(), false);
    field("smoke", &args.smoke.to_string(), false);
    field("generator_threads", "1", false);
    field("max_open_connections", "2", false);
    field("network", "loopback, closed loop", true);
    out.push('}');
    out
}

/// One child run: `bench run --workload W …`; returns the result object it
/// printed last, or `None` if it printed none.
fn child_run(args: &RunArgs, workload: &str, seed: u64, trace: bool) -> Option<JsonValue> {
    let mut cmd = Command::new(std::env::current_exe().expect("own path"));
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().expect("child process starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = stdout.lines().last().and_then(|l| parse(l).ok());
    if !output.status.success() || result.is_none() {
        eprintln!(
            "# {workload} seed {seed}: child exited with {} \n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        );
    }
    result
}

fn metric_of(result: &JsonValue, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// A JSON number, or `null` where there is none (no spread from one run).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".into()
    }
}

fn num_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(", "))
}

pub fn run_all(args: &RunArgs, spec: &Spec) -> i32 {
    let mut failed_runs = 0;
    let mut doc = format!(
        "{{\n\"schema\": \"netsession-benchmark/1\",\n\"env\": {},\n\"workloads\": {{\n",
        env_json(args)
    );
    for (w, workload) in spec.workloads.iter().enumerate() {
        let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let (mut attempted, mut failed) = (0u64, 0u64);
        for r in 0..args.runs.max(1) as u64 {
            let Some(result) = child_run(args, workload, args.seed + r, false) else {
                failed_runs += 1;
                continue;
            };
            attempted += result
                .get("attempted")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0);
            failed += result
                .get("failed")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0);
            if result.get("correct").and_then(JsonValue::as_bool) != Some(true) {
                failed_runs += 1;
            }
            for m in &spec.end_to_end {
                if let Some(v) = metric_of(&result, &m.name) {
                    samples.entry(&m.name).or_default().push(v);
                }
            }
        }
        let traced = child_run(args, workload, args.seed, true);
        if traced.is_none() {
            failed_runs += 1;
        }

        if w > 0 {
            doc.push_str(",\n");
        }
        push_str_literal(&mut doc, workload);
        doc.push_str(&format!(
            ": {{\n  \"attempted\": {attempted}, \"failed\": {failed},\n  \"end_to_end\": {{\n"
        ));
        println!("== {workload}: attempted {attempted}, failed {failed}");
        for (i, m) in spec.end_to_end.iter().enumerate() {
            let values = samples.get(m.name.as_str()).cloned().unwrap_or_default();
            let (q1, q3) = quartiles(&values).unwrap_or((f64::NAN, f64::NAN));
            doc.push_str("    ");
            push_str_literal(&mut doc, &m.name);
            doc.push_str(&format!(
                ": {{\"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"spread\": {}, \"values\": {}}}{}\n",
                m.unit,
                json_num(median(&values)),
                json_num(q1),
                json_num(q3),
                json_num(spread(&values).unwrap_or(f64::NAN)),
                num_list(&values),
                if i + 1 < spec.end_to_end.len() { "," } else { "" }
            ));
            println!(
                "{:<40} {:>16.6} {:<6} spread {:>6.2} % of bound {:>4.1} %  (n = {})",
                m.name,
                median(&values),
                m.unit,
                spread(&values).unwrap_or(f64::NAN) * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                values.len()
            );
        }
        doc.push_str("  },\n  \"per_layer\": {\n");
        for (i, m) in spec.per_layer.iter().enumerate() {
            let v = traced
                .as_ref()
                .and_then(|t| metric_of(t, &m.name))
                .unwrap_or(0.0);
            doc.push_str("    ");
            push_str_literal(&mut doc, &m.name);
            doc.push_str(&format!(
                ": {{\"unit\": \"{}\", \"value\": {v}}}{}\n",
                m.unit,
                if i + 1 < spec.per_layer.len() {
                    ","
                } else {
                    ""
                }
            ));
            if v != 0.0 {
                println!("  {:<42} {:>16.6} {}", m.name, v, m.unit);
            }
        }
        doc.push_str("  }\n}");
    }
    doc.push_str("\n}\n}\n");

    let path = args
        .out
        .clone()
        .unwrap_or_else(|| crate::out_dir().join("results.json"));
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, doc) {
        Ok(()) => println!("# results: {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            return 1;
        }
    }
    i32::from(failed_runs > 0)
}

/// One (metric, workload) cell of a result file.
struct Cell {
    median: f64,
    spread: Option<f64>,
    values: Vec<f64>,
}

fn cell(doc: &JsonValue, workload: &str, metric: &str) -> Option<Cell> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    Some(Cell {
        median: m.get("median")?.as_f64()?,
        spread: m.get("spread").and_then(JsonValue::as_f64),
        values: m
            .get("values")?
            .as_arr()?
            .iter()
            .filter_map(JsonValue::as_f64)
            .collect(),
    })
}

/// The rule: B regresses when its median is worse than A's by more than the
/// metric's bound. Where the run-to-run spread either file recorded is
/// wider than the bound the pair is `unresolved`, not `ok` — unless every
/// run of B reads better than every run of A.
fn verdict(m: &Metric, a: &Cell, b: &Cell) -> &'static str {
    let bound = m.bound.unwrap_or(0.0);
    let sign = if m.higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (b.median - a.median) / a.median.abs();
    let all_better = !a.values.is_empty()
        && !b.values.is_empty()
        && a.values
            .iter()
            .all(|x| b.values.iter().all(|y| sign * (y - x) < 0.0));
    let resolved = match (a.spread, b.spread) {
        (Some(sa), Some(sb)) => sa.max(sb) <= bound,
        _ => false,
    };
    if all_better {
        "ok"
    } else if !resolved {
        "unresolved"
    } else if worse_by > bound {
        "regression"
    } else {
        "ok"
    }
}

pub fn compare(path_a: &str, path_b: &str, spec: &Spec) -> i32 {
    let load = |path: &str| -> Result<JsonValue, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench compare: {e}");
            return 2;
        }
    };
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>8} {:>7} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound", "spread"
    );
    let mut regressions = 0;
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let (Some(ca), Some(cb)) = (cell(&a, workload, &m.name), cell(&b, workload, &m.name))
            else {
                println!("{workload:<14} {:<22} missing in one file", m.name);
                regressions += 1;
                continue;
            };
            let v = verdict(m, &ca, &cb);
            regressions += usize::from(v == "regression");
            let wider = ca
                .spread
                .unwrap_or(f64::NAN)
                .max(cb.spread.unwrap_or(f64::NAN));
            println!(
                "{workload:<14} {:<22} {:>14.6} {:>14.6} {:>+7.2}% {:>6.1}% {:>7.2}%  {v}",
                m.name,
                ca.median,
                cb.median,
                (cb.median / ca.median - 1.0) * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                wider * 100.0
            );
        }
    }
    i32::from(regressions > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool) -> Metric {
        Metric {
            name: "m".into(),
            unit: "s".into(),
            higher_is_better: higher,
            bound: Some(0.10),
        }
    }

    fn cell_of(values: &[f64]) -> Cell {
        Cell {
            median: median(values),
            spread: spread(values),
            values: values.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let base = cell_of(&[1.00, 1.01, 0.99, 1.00]);
        // Lower is better: +20 % is a regression, +5 % is within the bound.
        assert_eq!(
            verdict(&metric(false), &base, &cell_of(&[1.20, 1.21, 1.19, 1.2])),
            "regression"
        );
        assert_eq!(
            verdict(&metric(false), &base, &cell_of(&[1.05, 1.06, 1.04, 1.05])),
            "ok"
        );
        // Higher is better flips the sign.
        assert_eq!(
            verdict(&metric(true), &base, &cell_of(&[0.80, 0.81, 0.79, 0.8])),
            "regression"
        );
        assert_eq!(
            verdict(&metric(true), &base, &cell_of(&[1.20, 1.21, 1.19, 1.2])),
            "ok"
        );
        // A spread wider than the bound cannot resolve a small change …
        let noisy = cell_of(&[0.8, 1.0, 1.2, 1.3]);
        assert_eq!(verdict(&metric(false), &base, &noisy), "unresolved");
        // … unless every run of B beats every run of A.
        assert_eq!(
            verdict(&metric(false), &noisy, &cell_of(&[0.5, 0.6, 0.7, 0.4])),
            "ok"
        );
        // One run per file records no spread at all.
        assert_eq!(
            verdict(&metric(false), &cell_of(&[1.0]), &cell_of(&[1.0])),
            "unresolved"
        );
    }
}
