//! The repository benchmark named by `BENCHMARK.json`.
//!
//! ```text
//! bench run --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!     one run of one workload; the last line of stdout is the result
//!     object the driver reads, every metric is also listed on stderr
//! bench run [--seed N] [--seconds S] [--runs R] [--smoke] [--out FILE]
//!     every workload, R untraced runs (seeds N, N+1, …) and one traced
//!     run each, every run in a fresh child process; writes a result file
//! bench compare A.json B.json
//!     applies the bounds in BENCHMARK.json to two result files
//! ```
//!
//! All load is closed-loop from one generator thread with at most two open
//! connections; the threads the program itself spawns (shard threads,
//! daemon workers) are the thing measured. The benchmark drives the system
//! only through public functions of `crates/*`.

mod hybrid_month;
mod live;
mod probes;
mod scaled;
mod spans;
mod spec;
mod stats;
mod suite;

use netsession_obs::json::push_str_literal;
use spans::Spans;
use spec::{Metric, Spec};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Mean peer efficiency of peer-assisted downloads in the paper (§5.1).
const PAPER_PEER_EFFICIENCY: f64 = 0.714;

/// The default seed; `20121031` is the held-out seed later claims must
/// also hold on.
const DEFAULT_SEED: u64 = 20121001;

pub struct RunArgs {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrinks every workload to a seconds-scale size, for tests only.
    pub smoke: bool,
    /// Test hook: flips one byte of one output before it is checked, which
    /// must surface as a failed operation and a non-zero exit.
    pub corrupt: bool,
    pub runs: usize,
    pub out: Option<PathBuf>,
}

/// What one run of one workload produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every metric the run measured, end-to-end and per-layer alike; the
    /// result line carries the ones `BENCHMARK.json` lists for the mode.
    pub metrics: BTreeMap<String, f64>,
    pub spans: Spans,
}

impl Outcome {
    pub fn new(spans: Spans) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            spans,
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn setup(&mut self, secs: &[f64]) {
        self.set("setup_s", stats::median(secs));
    }

    /// The pass-wall family: the bounded median and 75th percentile, plus
    /// the sample count and the highest percentile the sample supports.
    pub fn passes(&mut self, walls: &[f64]) {
        self.set("pass_wall_s", stats::median(walls));
        self.set("pass_wall_p75_s", stats::percentile(walls, 75.0));
        let (pct, hi) = stats::high_percentile(walls);
        self.set("bench.samples", walls.len() as f64);
        self.set("bench.pass_wall_hi_s", hi);
        self.set("bench.pass_wall_hi_pct", pct);
    }

    /// Peer efficiency — simulated, or measured on the live fleet — and its
    /// distance from the paper's.
    pub fn efficiency(&mut self, peer_share: f64) {
        let err = (peer_share - PAPER_PEER_EFFICIENCY).abs();
        self.set("efficiency_agreement", 1.0 - err);
        self.set("bench.efficiency_abs_err", err);
        self.set("bench.peer_share", peer_share);
    }
}

/// Run `pass(i)` for `i = 0, 1, …` until `--seconds` have elapsed and at
/// least `min` passes are done; returns the wall of the whole phase.
pub fn timed_passes(args: &RunArgs, min: usize, mut pass: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    let mut i = 0;
    while i < min || t.elapsed().as_secs_f64() < args.seconds {
        pass(i);
        i += 1;
    }
    t.elapsed().as_secs_f64()
}

/// Peak resident set of this process (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where traces and result files go: `benchmark/out/`, next to the sources.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_workload(args: &RunArgs, workload: &str, spec: &Spec) -> i32 {
    let mut outcome = match workload {
        "hybrid_month" => hybrid_month::run(args),
        "scaled_seq" => scaled::run(args, false),
        "scaled_par" => scaled::run(args, true),
        "live_edge" => live::run(args, false),
        "live_swarm" => live::run(args, true),
        other => {
            eprintln!(
                "unknown workload `{other}`; BENCHMARK.json lists {:?}",
                spec.workloads
            );
            return 2;
        }
    };
    // Probes and the trace file come after the workload so they cannot
    // disturb it; peak RSS is read before them for the same reason.
    outcome.set("peak_rss_mb", peak_rss_mb());
    if args.trace {
        probes::run(&mut outcome, args.smoke);
        let path = out_dir().join(format!("{workload}.trace.json"));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|_| std::fs::write(&path, outcome.spans.chrome_json()));
        match written {
            Ok(()) => eprintln!("# trace: {}", path.display()),
            Err(e) => eprintln!("# trace not written: {e}"),
        }
    }

    let listed = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    for name in outcome.metrics.keys() {
        let known = spec.end_to_end.iter().chain(&spec.per_layer);
        assert!(
            known.into_iter().any(|m| &m.name == name),
            "metric `{name}` is measured but not listed in BENCHMARK.json"
        );
    }
    // A per-layer metric the workload never touched reads 0: that layer did
    // no work in it. An end-to-end metric must always be measured.
    let value = |m: &Metric| -> f64 {
        match outcome.metrics.get(&m.name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => panic!("end-to-end metric `{}` was not measured", m.name),
        }
    };
    if listed.iter().any(|m| !value(m).is_finite()) {
        eprintln!("a metric is not finite; counting the run as failed");
        outcome.failed += 1;
    }

    eprintln!(
        "# {workload} seed={} seconds={} trace={} nproc={}: attempted {} failed {}",
        args.seed,
        args.seconds,
        args.trace as u8,
        suite::nproc(),
        outcome.attempted,
        outcome.failed
    );
    for m in listed {
        eprintln!("{:<40} {:>18.6} {}", m.name, value(m), m.unit);
    }

    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in listed.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        push_str_literal(&mut line, &m.name);
        let v = value(m);
        line.push_str(&format!(
            ": {{\"value\": {}, \"unit\": ",
            if v.is_finite() { v } else { 0.0 }
        ));
        push_str_literal(&mut line, &m.unit);
        line.push('}');
    }
    line.push_str("}}");
    println!("{line}");
    if outcome.failed == 0 {
        0
    } else {
        1
    }
}

fn parse_run_args(argv: &[String]) -> Result<RunArgs, String> {
    let mut args = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        smoke: false,
        corrupt: false,
        runs: 1,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value()?.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value()? != "0",
            "--runs" => args.runs = value()?.parse().map_err(|e| bad(&e))?,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--corrupt" => args.corrupt = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    let code = match argv.first().map(String::as_str) {
        Some("run") => match parse_run_args(&argv[1..]) {
            Ok(args) => match args.workload.clone() {
                Some(workload) => run_workload(&args, &workload, &spec),
                None => suite::run_all(&args, &spec),
            },
            Err(e) => {
                eprintln!("bench run: {e}");
                2
            }
        },
        Some("compare") if argv.len() == 3 => suite::compare(&argv[1], &argv[2], &spec),
        _ => {
            eprintln!(
                "usage: bench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
                 [--runs R] [--smoke] [--out FILE]\n       bench compare A.json B.json"
            );
            2
        }
    };
    std::process::exit(code);
}
