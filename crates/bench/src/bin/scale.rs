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
//!   tracks for the merged time series;
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
//! population).

use netsession_bench::runner::{peak_rss_kb, write_file, write_result};
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

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    // Overrides are collected first and applied after the base config is
    // chosen, so `--shards 16 --smoke` and `--smoke --shards 16` mean the
    // same thing (explicit flags always beat the smoke preset).
    let mut smoke = false;
    let mut parallel = true;
    let mut chaos = false;
    let mut timeseries = true;
    let mut det_out: Option<String> = None;
    let mut ts_out: Option<String> = None;
    let mut peers: Option<u64> = None;
    let mut objects: Option<u64> = None;
    let mut days: Option<u64> = None;
    let mut shards: Option<usize> = None;
    let mut window_secs: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut i = 1;
    let next = |argv: &[String], i: &mut usize, flag: &str| -> u64 {
        let v = argv
            .get(*i + 1)
            .unwrap_or_else(|| panic!("{flag} <n>"))
            .parse()
            .unwrap_or_else(|_| panic!("{flag} <n>"));
        *i += 2;
        v
    };
    let next_str = |argv: &[String], i: &mut usize, flag: &str| -> String {
        let v = argv
            .get(*i + 1)
            .unwrap_or_else(|| panic!("{flag} <path>"))
            .clone();
        *i += 2;
        v
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--parallel" => {
                parallel = true;
                i += 1;
            }
            "--sequential" => {
                parallel = false;
                i += 1;
            }
            "--peers" => peers = Some(next(&argv, &mut i, "--peers")),
            "--objects" => objects = Some(next(&argv, &mut i, "--objects")),
            "--days" => days = Some(next(&argv, &mut i, "--days")),
            "--shards" => shards = Some(next(&argv, &mut i, "--shards") as usize),
            "--window-secs" => window_secs = Some(next(&argv, &mut i, "--window-secs")),
            "--seed" => seed = Some(next(&argv, &mut i, "--seed")),
            "--chaos" => {
                chaos = true;
                i += 1;
            }
            "--no-timeseries" => {
                timeseries = false;
                i += 1;
            }
            "--profile-det-out" => det_out = Some(next_str(&argv, &mut i, "--profile-det-out")),
            "--timeseries-out" => ts_out = Some(next_str(&argv, &mut i, "--timeseries-out")),
            "--lint" => {
                let path = next_str(&argv, &mut i, "--lint");
                match schema::validate_file(&path) {
                    Ok(doc) => {
                        println!("{} lint OK: {path}", doc.schema.tag);
                        return;
                    }
                    Err(e) => {
                        eprintln!("lint FAILED: {e}");
                        std::process::exit(1);
                    }
                }
            }
            other => panic!("unknown flag {other}"),
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
    if let Some(v) = peers {
        cfg.peers = v;
    }
    if let Some(v) = objects {
        cfg.objects = v;
    }
    if let Some(v) = days {
        cfg.days = v;
    }
    if let Some(v) = shards {
        cfg.shards = v;
    }
    if let Some(v) = window_secs {
        cfg.window = SimDuration::from_secs(v);
    }
    if let Some(v) = seed {
        cfg.seed = v;
    }
    cfg.timeseries = timeseries;
    if chaos {
        cfg.faults = FaultSchedule::scaled_campaign(cfg.days);
    }
    // Validate the *effective* config here, where the error can name the
    // flag to fix — not as a panic deep inside the world constructor.
    if let Err(e) = cfg.validate() {
        eprintln!("scale: invalid configuration: {e}");
        std::process::exit(2);
    }

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
