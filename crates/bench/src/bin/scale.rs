//! `scale` — the million-peer sharded-runner bench and determinism gate.
//!
//! Runs [`netsession_hybrid::run_scaled`] at a configurable population and
//! prints the deterministic merged report — now followed by the shard
//! profiler's load-imbalance report — on **stdout** (byte-identical
//! run-to-run and parallel-vs-sequential — `scripts/check.sh` diffs the
//! two). Wall-clock and peak-RSS timings go to **stderr**, keeping stdout
//! replayable, and three sidecars land in `results/`:
//!
//! - `scale.metrics.json` — registry snapshot (incl. the idempotent
//!   `shard.*` counters), PR 1 convention;
//! - `scale.profile.json` — `netsession-shard-profile/1`: the
//!   deterministic imbalance profile plus a clearly separated volatile
//!   timing section (busy / barrier-wait / merge wall time);
//! - `scale.shardtrace.json` — Perfetto/Chrome timeline, one track per
//!   shard, slices named busy/wait/merge — plus virtual-time counter
//!   tracks for the merged time series. It holds wall-clock timings, so
//!   it is written as a local sample and not committed;
//! - `scale.timeseries.json` — `netsession-timeseries/1`: the merged
//!   per-(metric, region) sim-hour series, the structured injected-fault
//!   log, and the `AlertEngine` detections replayed over the series.
//!
//! ```text
//! scale                        1M peers, 31 days, 16 sub-shards, parallel
//! scale --smoke                20k peers, 7 days, 2 shards (CI gate scale)
//! scale --sequential           run the sequential oracle instead
//! scale --chaos                inject FaultSchedule::scaled_campaign(days)
//! scale --no-timeseries        disable series sampling (stdout reverts to
//!                              the pre-telemetry byte format)
//! scale --peers N --days N --objects N --shards K --window-secs S --seed S
//! scale --profile-det-out F    also write ONLY the deterministic profile
//!                              JSON to F (the check.sh byte-diff target)
//! scale --timeseries-out F     also write the timeseries sidecar to F
//!                              (the check.sh byte-diff target)
//! scale --lint F               validate any sidecar against its schema
//!                              (crates/bench/src/schema.rs) and exit
//! ```
//!
//! Flag order never matters: explicit value flags override the `--smoke`
//! preset wherever they appear, and the effective config is validated at
//! parse time (`ScaledConfig::validate`) with an actionable error instead
//! of a deep panic. Shards are contiguous sub-region blocks, so `K` may
//! exceed the nine regions (up to `MAX_SHARDS`, and never above the
//! population). An unknown flag, a flag without its value, a non-numeric
//! value or an invalid effective config prints the message and the usage
//! on stderr and exits 2.

use netsession_bench::runner::{flag_value, peak_rss_kb, write_file, write_result};
use netsession_bench::schema;
use netsession_core::time::SimDuration;
use netsession_hybrid::alerts::{detected_classes, replay_standard_alerts, SeriesDetection};
use netsession_hybrid::{run_scaled_profiled, FaultSchedule, ScaledAlert, ScaledConfig};
use netsession_logs::{ProfileDigest, SeriesDigest};
use netsession_obs::json::push_str_literal;
use netsession_obs::profile::ShardProfiler;
use netsession_obs::MergedSeries;
use netsession_obs::MetricsRegistry;
use std::path::Path;
use std::time::Instant;

/// A failed artifact write is a failed run: name the path and exit 1
/// rather than leave a stale file behind a zero status.
fn or_exit(written: std::io::Result<()>) {
    if let Err(e) = written {
        eprintln!("scale: {e}");
        std::process::exit(1);
    }
}

/// Validate a fresh sidecar before it lands anywhere, with the schema
/// check.sh applies to the committed copy; a failure exits 1.
fn self_check(what: &str, sidecar: &str) {
    if let Err(e) = schema::validate(sidecar) {
        eprintln!("scale: fresh {what} sidecar fails its own schema: {e}");
        std::process::exit(1);
    }
}

/// The `netsession-timeseries/1` sidecar: schema tag, recomputable series
/// digest, the merged series, the structured injected-fault log (region
/// indices resolved to the series' group labels), and the replayed
/// detections. Deterministic bytes — the check.sh gate diffs the
/// sequential and parallel runs' files directly.
fn timeseries_sidecar_json(
    ts: &MergedSeries,
    alerts: &[ScaledAlert],
    detections: &[SeriesDetection],
) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": \"netsession-timeseries/1\",");
    let _ = writeln!(s, "  \"digest\": \"{}\",", SeriesDigest::fingerprint(ts));
    let _ = write!(s, "  \"series\": {},\n  \"alerts\": [", ts.to_json());
    for (i, a) in alerts.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {\"class\": ");
        push_str_literal(&mut s, a.class);
        let _ = write!(
            s,
            ", \"at_hours\": {}, \"window\": {}, \"region\": ",
            a.at_hours, a.window
        );
        push_str_literal(&mut s, &ts.groups[a.region as usize]);
        let _ = write!(s, ", \"detail\": {}}}", a.detail);
    }
    if !alerts.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n  \"detections\": [");
    for (i, d) in detections.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {\"region\": ");
        match &d.region {
            Some(r) => push_str_literal(&mut s, r),
            None => s.push_str("null"),
        }
        s.push_str(", \"rule\": ");
        push_str_literal(&mut s, &d.event.rule);
        let _ = write!(
            s,
            ", \"raised\": {}, \"at_us\": {}, \"message\": ",
            d.event.raised, d.event.at_us
        );
        push_str_literal(&mut s, &d.event.message);
        s.push('}');
    }
    if !detections.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

const USAGE: &str = "usage: scale [--smoke] [--sequential|--parallel] [--chaos] \
[--no-timeseries] [--peers N] [--days N] [--objects N] [--shards K] [--window-secs S] \
[--seed S] [--profile-det-out F] [--timeseries-out F] | scale --lint F";

/// What the command line asks for.
#[derive(Debug)]
enum Command {
    /// Simulate the effective, validated config.
    Run(RunArgs),
    /// Validate the sidecar at this path and exit.
    Lint(String),
}

#[derive(Debug)]
struct RunArgs {
    cfg: ScaledConfig,
    parallel: bool,
    det_out: Option<String>,
    ts_out: Option<String>,
}

/// Parse `scale`'s flags (without the program name) into the effective,
/// validated config. Overrides are collected first and applied after the
/// base config is chosen, so `--shards 16 --smoke` and `--smoke --shards
/// 16` mean the same thing (explicit flags always beat the smoke preset).
/// `--lint F` ends the parse: the flags after it are not read.
fn parse_args_from(argv: &[String]) -> Result<Command, String> {
    let mut smoke = false;
    let mut parallel = true;
    let mut chaos = false;
    let mut timeseries = true;
    let (mut det_out, mut ts_out) = (None, None);
    let (mut peers, mut objects, mut days, mut shards) = (None, None, None, None);
    let (mut window_secs, mut seed) = (None::<u64>, None);
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--parallel" => parallel = true,
            "--sequential" => parallel = false,
            "--chaos" => chaos = true,
            "--no-timeseries" => timeseries = false,
            "--peers" => peers = Some(flag_value(a, it.next())?),
            "--objects" => objects = Some(flag_value(a, it.next())?),
            "--days" => days = Some(flag_value(a, it.next())?),
            "--shards" => shards = Some(flag_value(a, it.next())?),
            "--window-secs" => window_secs = Some(flag_value(a, it.next())?),
            "--seed" => seed = Some(flag_value(a, it.next())?),
            "--profile-det-out" => det_out = Some(flag_value(a, it.next())?),
            "--timeseries-out" => ts_out = Some(flag_value(a, it.next())?),
            "--lint" => return Ok(Command::Lint(flag_value(a, it.next())?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }

    let mut cfg = if smoke {
        ScaledConfig::smoke()
    } else {
        ScaledConfig {
            peers: 1_000_000,
            objects: 20_000,
            days: 31,
            shards: 16,
            ..ScaledConfig::default()
        }
    };
    cfg.peers = peers.unwrap_or(cfg.peers);
    cfg.objects = objects.unwrap_or(cfg.objects);
    cfg.days = days.unwrap_or(cfg.days);
    cfg.shards = shards.unwrap_or(cfg.shards);
    if let Some(s) = window_secs {
        let us = s
            .checked_mul(1_000_000)
            .ok_or_else(|| format!("--window-secs: {s} s overflows the microsecond clock"))?;
        cfg.window = SimDuration::from_micros(us);
    }
    cfg.seed = seed.unwrap_or(cfg.seed);
    cfg.timeseries = timeseries;
    // Validate the *effective* config here, where the error can name the
    // flag to fix — not as a panic deep inside the world constructor.
    // The campaign is built after, from a day count known to fit the clock.
    cfg.validate()
        .map_err(|e| format!("invalid configuration: {e}"))?;
    if chaos {
        cfg.faults = FaultSchedule::scaled_campaign(cfg.days);
    }
    Ok(Command::Run(RunArgs {
        cfg,
        parallel,
        det_out,
        ts_out,
    }))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let RunArgs {
        cfg,
        parallel,
        det_out,
        ts_out,
    } = match parse_args_from(&argv) {
        Ok(Command::Run(args)) => args,
        Ok(Command::Lint(path)) => match schema::validate_file(&path) {
            Ok(doc) => {
                println!("{} lint OK: {path}", doc.schema.tag);
                return;
            }
            Err(e) => {
                eprintln!("lint FAILED: {e}");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("scale: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    eprintln!(
        "# scale: {} peers, {} days, {} shards, {}",
        cfg.peers,
        cfg.days,
        cfg.shards,
        if parallel { "parallel" } else { "sequential" }
    );
    let registry = MetricsRegistry::new();
    let profiler = ShardProfiler::new().with_sink(Box::new(ProfileDigest::new()));
    let t = Instant::now();
    let (out, profiler) = run_scaled_profiled(&cfg, parallel, Some(&registry), Some(profiler));
    let wall = t.elapsed().as_secs_f64();
    let profiler = profiler.expect("profiler rides the whole run");
    // The pool the runner sized for itself, and the host it sized it to.
    let threads = profiler.timings().threads();
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let stats = profiler.exec().stats();
    let stream = profiler.stream_fingerprint().expect("digest sink attached");

    // Deterministic stdout: merged report, then the shard profile, then
    // the time-series fingerprint and detections (sampling on only — with
    // `--no-timeseries` these lines vanish and stdout is byte-identical
    // to the pre-telemetry format). Every half is byte-identical
    // sequential-vs-parallel and run-to-run.
    print!("{}", out.report());
    print!(
        "{}",
        stats.render_report(&out.shard_labels, &out.shard_peers)
    );
    println!("  stream {stream}");
    let detections = out.timeseries.as_ref().map(replay_standard_alerts);
    if let (Some(ts), Some(dets)) = (&out.timeseries, &detections) {
        println!(
            "timeseries: windows={} metrics={} digest={}",
            ts.windows,
            ts.metrics.len(),
            SeriesDigest::fingerprint(ts)
        );
        let raised = dets.iter().filter(|d| d.event.raised).count();
        let classes = detected_classes(dets);
        println!(
            "detections: {} transitions, {} raised, classes [{}]",
            dets.len(),
            raised,
            classes.join(", ")
        );
    }

    let det_json = stats.to_json(&out.shard_labels, &out.shard_peers, Some(&stream));
    if let Some(path) = det_out {
        let det_only = format!("{{\n  \"deterministic\": {det_json}\n}}\n");
        or_exit(write_file(Path::new(&path), det_only.as_bytes()));
    }
    let ts_sidecar = match (&out.timeseries, &detections) {
        (Some(ts), Some(dets)) => {
            let alerts: Vec<ScaledAlert> = out
                .regions
                .iter()
                .flat_map(|r| r.alerts.iter().copied())
                .collect();
            let sidecar = timeseries_sidecar_json(ts, &alerts, dets);
            self_check("timeseries", &sidecar);
            Some(sidecar)
        }
        _ => None,
    };
    if let (Some(path), Some(sidecar)) = (&ts_out, &ts_sidecar) {
        or_exit(write_file(Path::new(path), sidecar.as_bytes()));
    }

    // Sidecars (stderr-announced, stdout untouched).
    or_exit(write_result(
        "scale",
        "metrics.json",
        registry.full_snapshot_json().as_bytes(),
    ));
    let timings = profiler.timings();
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut vol = String::new();
    {
        use std::fmt::Write;
        let _ = writeln!(vol, "{{");
        let _ = writeln!(
            vol,
            "    \"mode\": \"{}\",",
            if parallel { "parallel" } else { "sequential" }
        );
        let _ = writeln!(vol, "    \"cpus\": {cpus},");
        let _ = writeln!(vol, "    \"threads\": {threads},");
        let _ = writeln!(vol, "    \"wall_s\": {wall:.3},");
        let busy: Vec<String> = (0..timings.n_shards())
            .map(|k| format!("{:.1}", ms(timings.busy_total_ns(k))))
            .collect();
        let waitv: Vec<String> = (0..timings.n_shards())
            .map(|k| format!("{:.1}", ms(timings.wait_total_ns(k))))
            .collect();
        let _ = writeln!(vol, "    \"busy_ms\": [{}],", busy.join(", "));
        let _ = writeln!(vol, "    \"wait_ms\": [{}],", waitv.join(", "));
        let _ = writeln!(
            vol,
            "    \"merge_ms\": {:.1},",
            ms(timings.merge_total_ns())
        );
        let _ = writeln!(
            vol,
            "    \"wall_critical_path_ms\": {:.1},",
            ms(timings.wall_critical_path_ns())
        );
        let _ = writeln!(
            vol,
            "    \"wall_speedup_ceiling\": {:.3}",
            timings.wall_speedup_ceiling()
        );
        let _ = write!(vol, "  }}");
    }
    let profile = format!(
            "{{\n  \"schema\": \"netsession-shard-profile/1\",\n  \"deterministic\": {det_json},\n  \"volatile\": {vol}\n}}\n"
        );
    self_check("profile", &profile);
    or_exit(write_result("scale", "profile.json", profile.as_bytes()));
    // Per-shard bucket budget shrinks as shards grow so the export
    // stays under the 1 MiB trace budget at any (K, population).
    let buckets = (2048 / cfg.shards.max(1)).clamp(64, 512);
    let mut trace = profiler.timings().export_chrome_json(buckets);
    if let Some(ts) = &out.timeseries {
        // Counter tracks ride the same trace on their own pid (the
        // slice pids are 0..shards for workers plus one for the
        // barrier) with their own coalescing budget, sized so the
        // whole file stays within the 1 MiB lint at month scale.
        let ts_buckets = (1536 / ts.metrics.len().max(1)).clamp(32, 128);
        let counters = ts.chrome_counter_events(cfg.shards + 1, ts_buckets);
        if let Some(pos) = trace.rfind("\n]}") {
            trace.insert_str(pos, &counters);
        }
    }
    or_exit(write_result("scale", "shardtrace.json", trace.as_bytes()));
    if let Some(sidecar) = &ts_sidecar {
        or_exit(write_result("scale", "timeseries.json", sidecar.as_bytes()));
    }

    eprintln!(
        "# wall {:.1} s on {threads} threads ({cpus} cpus), {:.0} events/s, peak RSS {} KiB",
        wall,
        out.events as f64 / wall,
        peak_rss_kb().unwrap_or(0)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn run(args: &[&str]) -> RunArgs {
        match parse_args_from(&argv(args)) {
            Ok(Command::Run(r)) => r,
            other => panic!("{args:?} parsed to {other:?}"),
        }
    }

    fn err(args: &[&str]) -> String {
        match parse_args_from(&argv(args)) {
            Err(e) => e,
            Ok(c) => panic!("{args:?} parsed to {c:?}"),
        }
    }

    #[test]
    fn no_flags_is_the_committed_million_peer_run() {
        let r = run(&[]);
        assert_eq!(
            (r.cfg.peers, r.cfg.objects, r.cfg.days, r.cfg.shards),
            (1_000_000, 20_000, 31, 16)
        );
        assert_eq!(r.cfg.window, ScaledConfig::default().window);
        assert!(r.parallel && r.cfg.timeseries && r.cfg.faults.is_empty());
        assert_eq!((r.det_out, r.ts_out), (None, None));
    }

    #[test]
    fn every_flag_reaches_the_config_in_any_order() {
        let groups: [&[&str]; 13] = [
            &["--smoke"],
            &["--sequential"],
            &["--chaos"],
            &["--no-timeseries"],
            &["--peers", "30000"],
            &["--objects", "700"],
            &["--days", "5"],
            &["--shards", "12"],
            &["--window-secs", "90"],
            &["--seed", "7"],
            &["--profile-det-out", "det.json"],
            &["--timeseries-out", "ts.json"],
            &["--parallel", "--sequential"],
        ];
        let n = groups.len();
        // Every rotation, forwards and backwards: each flag appears first,
        // last and on both sides of `--smoke`.
        for rot in 0..n {
            for reverse in [false, true] {
                let mut order: Vec<usize> = (0..n).map(|i| (i + rot) % n).collect();
                if reverse {
                    order.reverse();
                }
                let args: Vec<&str> = order.iter().flat_map(|&g| groups[g].to_vec()).collect();
                let r = run(&args);
                let c = &r.cfg;
                assert_eq!(
                    (c.peers, c.objects, c.days, c.shards, c.seed),
                    (30_000, 700, 5, 12, 7),
                    "{args:?}"
                );
                assert_eq!(c.window, SimDuration::from_secs(90), "{args:?}");
                assert!(!c.timeseries, "{args:?}");
                assert_eq!(c.faults, FaultSchedule::scaled_campaign(5), "{args:?}");
                assert!(!r.parallel, "{args:?}");
                assert_eq!(r.det_out.as_deref(), Some("det.json"));
                assert_eq!(r.ts_out.as_deref(), Some("ts.json"));
            }
        }
    }

    #[test]
    fn smoke_preset_fills_what_no_flag_names() {
        let smoke = ScaledConfig::smoke();
        let r = run(&["--shards", "3", "--smoke"]);
        assert_eq!(r.cfg.shards, 3);
        assert_eq!(
            (r.cfg.peers, r.cfg.objects, r.cfg.days),
            (smoke.peers, smoke.objects, smoke.days)
        );
    }

    #[test]
    fn bad_flags_are_errors_not_panics() {
        assert_eq!(err(&["--smoke", "--bogus"]), "unknown flag --bogus");
        assert_eq!(err(&["bare"]), "unknown flag bare");
        assert_eq!(err(&["--smoke", "--peers"]), "--peers needs a value");
        assert_eq!(err(&["--timeseries-out"]), "--timeseries-out needs a value");
        assert_eq!(err(&["--lint"]), "--lint needs a value");
        assert_eq!(
            err(&["--days", "many", "--smoke"]),
            "--days: \"many\" is not a number"
        );
        assert_eq!(err(&["--shards", "-1"]), "--shards: \"-1\" is not a number");
    }

    #[test]
    fn zero_or_overflowing_window_is_rejected() {
        let zero = err(&["--smoke", "--window-secs", "0"]);
        assert!(zero.contains("window must be > 0"), "{zero}");
        let huge = err(&["--smoke", "--window-secs", &u64::MAX.to_string()]);
        assert!(huge.contains("overflows"), "{huge}");
        // 10^13 s is 10^19 µs: it fits a u64, but the windows after the
        // first would wrap the clock.
        let wide = err(&["--smoke", "--window-secs", "10000000000000"]);
        assert!(wide.contains("overflow the microsecond clock"), "{wide}");
    }

    #[test]
    fn invalid_effective_config_is_an_error() {
        let e = err(&["--smoke", "--peers", "3", "--shards", "4"]);
        assert!(e.starts_with("invalid configuration: "), "{e}");
        let e = err(&["--chaos", "--days", &u64::MAX.to_string()]);
        assert!(e.contains("overflow the microsecond clock"), "{e}");
    }

    #[test]
    fn lint_ends_the_parse() {
        match parse_args_from(&argv(&["--smoke", "--lint", "f.json", "--bogus"])) {
            Ok(Command::Lint(p)) => assert_eq!(p, "f.json"),
            other => panic!("{other:?}"),
        }
    }
}
