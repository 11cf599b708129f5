//! Cross-PR performance trajectory: fold every committed
//! `results/bench/BENCH_<issue>.json` snapshot into one table so a perf
//! regression shows up as a *trend break*, not a single-run blip. Used by
//! `perfbench --trend`, which is also the gate's lint of every committed
//! snapshot in `scripts/check.sh` (a missing required snapshot, or one
//! that breaks the schema, fails the gate).
//!
//! Families appear as they were introduced: the event-queue macro speedup
//! exists from the first snapshot, the scaled-runner family from issue 7,
//! the shard-profile family from issue 8, the time-series family from
//! issue 10 — absent cells print `-` rather than failing, because old
//! snapshots are immutable history.

use netsession_obs::json::{self, JsonValue};

/// One `BENCH_<issue>.json` snapshot, reduced to the headline trajectory
/// cells. `None` = the family did not exist yet in that snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct TrendRow {
    /// Issue (PR) number the snapshot was recorded for.
    pub issue: u64,
    /// `event_queue.macro_speedup` — wheel vs heap macro run.
    pub macro_speedup: Option<f64>,
    /// `scale.par_wall_ms` — the sharded runner's parallel wall time.
    pub scale_wall_ms: Option<f64>,
    /// `scale.peak_rss_kb`.
    pub scale_rss_kb: Option<f64>,
    /// `scale.parallel_speedup` (sequential wall / parallel wall).
    pub scale_speedup: Option<f64>,
    /// `shard_profile.skew` — max-over-mean per-shard event share.
    pub skew: Option<f64>,
    /// `shard_profile.speedup_ceiling` — critical-path bound.
    pub ceiling: Option<f64>,
    /// `timeseries.overhead_pct` — sampling cost vs sampling off.
    pub ts_overhead_pct: Option<f64>,
}

/// The value at a dotted `path` (`families.scale.cpus`) of a snapshot.
fn at<'a>(doc: &'a JsonValue, path: &str) -> Option<&'a JsonValue> {
    path.split('.').try_fold(doc, |v, key| v.get(key))
}

fn num(doc: &JsonValue, path: &str) -> Option<f64> {
    at(doc, path)?.as_f64()
}

/// Fields of one block of the snapshot schema. A block whose fields
/// arrived in different snapshots has one row per arrival.
pub struct Family {
    /// Dotted path of the block: `families.<name>`, or `headline` for the
    /// macro run every snapshot reports.
    pub block: &'static str,
    /// Issue whose snapshot first carried these fields; older snapshots are
    /// immutable history and stay lintable without them.
    pub since: u64,
    /// Numeric fields a snapshot from `since` on must have.
    pub nums: &'static [&'static str],
    /// String fields it must have (context a number cannot be read without).
    pub text: &'static [&'static str],
    /// The family's self-check flag: written as 1 only after the run's
    /// A/B outputs were asserted identical, so anything else is a lie.
    pub flag: Option<&'static str>,
}

/// The snapshot schema, block by block: the table `perfbench --trend`
/// ([`parse_snapshot`]) lints a snapshot against.
pub const FAMILIES: [Family; 10] = [
    Family {
        block: "headline",
        since: 0,
        nums: &["wall_ms", "events_per_sec"],
        text: &[],
        flag: None,
    },
    Family {
        block: "families.event_queue",
        since: 0,
        nums: &["macro_speedup"],
        text: &[],
        flag: None,
    },
    Family {
        block: "families.hashing",
        since: 0,
        nums: &["hash_speedup"],
        text: &[],
        flag: None,
    },
    // SHA-256 throughput at the two sizes the system hashes, and the kernel
    // that produced it: a `scalar` snapshot is a CPU without the SHA
    // extensions, not a regression against a `sha-ni` one.
    Family {
        block: "families.hashing",
        since: 15,
        nums: &["sha256_64k_mb_s", "sha256_64b_mb_s"],
        text: &["sha256_kernel"],
        flag: None,
    },
    Family {
        block: "families.alloc_churn",
        since: 0,
        nums: &["flownet_recompute_allocs_per_op"],
        text: &[],
        flag: None,
    },
    Family {
        block: "families.obs",
        since: 0,
        nums: &["tracing_overhead_pct"],
        text: &[],
        flag: None,
    },
    Family {
        block: "families.scale",
        since: 7,
        nums: &[
            "peers",
            "days",
            "shards",
            "seq_wall_ms",
            "par_wall_ms",
            "parallel_speedup",
            "peak_rss_kb",
        ],
        text: &[],
        flag: Some("outputs_identical"),
    },
    // The context a speedup cannot be read without: how many cores ran it,
    // and which regions each shard carried.
    Family {
        block: "families.scale",
        since: 8,
        nums: &["cpus"],
        text: &["shard_regions"],
        flag: None,
    },
    Family {
        block: "families.shard_profile",
        since: 8,
        nums: &[
            "shards",
            "windows",
            "events",
            "critical_path_events",
            "speedup_ceiling",
            "split_busiest_ceiling",
            "skew",
        ],
        text: &[],
        flag: Some("det_stream_identical"),
    },
    Family {
        block: "families.timeseries",
        since: 10,
        nums: &[
            "windows",
            "metrics",
            "on_wall_ms",
            "off_wall_ms",
            "overhead_pct",
        ],
        text: &[],
        flag: Some("report_identical"),
    },
];

/// Lint a snapshot recorded for `issue` against [`FAMILIES`]: every row
/// that existed by then is present and complete.
pub fn lint_families(doc: &JsonValue, issue: u64) -> Result<(), String> {
    for fam in FAMILIES.iter().filter(|fam| issue >= fam.since) {
        let name = fam.block;
        let Some(block) = at(doc, name) else {
            return Err(format!(
                "{name} missing (required from BENCH_{} on)",
                fam.since
            ));
        };
        for key in fam.nums.iter().chain(&fam.flag) {
            if block.get(key).and_then(|v| v.as_f64()).is_none() {
                return Err(format!("required number {name}.{key} missing"));
            }
        }
        for key in fam.text {
            if block.get(key).and_then(|v| v.as_str()).is_none() {
                return Err(format!("required string {name}.{key} missing"));
            }
        }
        if let Some(flag) = fam.flag {
            if block.get(flag).and_then(|v| v.as_f64()) != Some(1.0) {
                return Err(format!("{name}.{flag} must be 1"));
            }
        }
    }
    // Snapshots from 13 on measure the persistent-pool runner, whose
    // threaded run may not lose to its own oracle (with one core it *is*
    // the oracle, so only noise separates them). Both fields are rows above.
    if issue >= 13 {
        let cpus = num(doc, "families.scale.cpus").unwrap_or(0.0);
        let floor = if cpus >= 2.0 { 1.0 } else { 0.95 };
        let speedup = num(doc, "families.scale.parallel_speedup").unwrap_or(0.0);
        if speedup < floor {
            return Err(format!(
                "families.scale.parallel_speedup {speedup:.2} < {floor} on {cpus} cpus: \
                 the parallel runner must not lose to the sequential oracle"
            ));
        }
    }
    Ok(())
}

/// Parse one snapshot's text into its trend row.
pub fn parse_snapshot(text: &str) -> Result<TrendRow, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    match doc.get("schema").and_then(|s| s.as_str()) {
        Some("netsession-perfbench/1") => {}
        other => return Err(format!("bad schema tag {other:?}")),
    }
    let issue = doc
        .get("issue")
        .and_then(|i| i.as_u64())
        .ok_or("missing issue number")?;
    // A snapshot must not have dropped families older snapshots carry:
    // that is how staleness shows up after a schema change.
    lint_families(&doc, issue)?;
    Ok(TrendRow {
        issue,
        macro_speedup: num(&doc, "families.event_queue.macro_speedup"),
        scale_wall_ms: num(&doc, "families.scale.par_wall_ms"),
        scale_rss_kb: num(&doc, "families.scale.peak_rss_kb"),
        scale_speedup: num(&doc, "families.scale.parallel_speedup"),
        skew: num(&doc, "families.shard_profile.skew"),
        ceiling: num(&doc, "families.shard_profile.speedup_ceiling"),
        ts_overhead_pct: num(&doc, "families.timeseries.overhead_pct"),
    })
}

/// Read every `BENCH_*.json` under `dir`, sorted by issue number.
pub fn collect(dir: &str) -> Result<Vec<TrendRow>, String> {
    let mut rows = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let path = entry.path();
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        let row = parse_snapshot(&text).map_err(|e| format!("{name}: {e}"))?;
        // The filename is part of the contract: BENCH_<issue>.json.
        let from_name: Option<u64> = name
            .trim_start_matches("BENCH_")
            .trim_end_matches(".json")
            .parse()
            .ok();
        if from_name != Some(row.issue) {
            return Err(format!(
                "{name}: filename does not match issue {} inside",
                row.issue
            ));
        }
        rows.push(row);
    }
    if rows.is_empty() {
        return Err(format!("no BENCH_*.json snapshots under {dir}"));
    }
    rows.sort_by_key(|r| r.issue);
    Ok(rows)
}

fn cell(v: Option<f64>, width: usize, decimals: usize) -> String {
    match v {
        Some(x) => format!("{x:>width$.decimals$}"),
        None => format!("{:>width$}", "-"),
    }
}

/// Render the trajectory table (deterministic given the snapshot set —
/// the cells are whatever the snapshots recorded).
pub fn render(rows: &[TrendRow]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:>5} {:>9} {:>13} {:>12} {:>9} {:>6} {:>8} {:>8}",
        "issue",
        "queue_spd",
        "scale_wall_ms",
        "scale_rss_kb",
        "scale_spd",
        "skew",
        "ceiling",
        "ts_ov_%"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:>5} {} {} {} {} {} {} {}",
            r.issue,
            cell(r.macro_speedup, 9, 3),
            cell(r.scale_wall_ms, 13, 0),
            cell(r.scale_rss_kb, 12, 0),
            cell(r.scale_speedup, 9, 3),
            cell(r.skew, 6, 2),
            cell(r.ceiling, 8, 3),
            cell(r.ts_overhead_pct, 8, 2),
        );
    }
    s
}

/// Gate mode: collect (which lints every snapshot against [`FAMILIES`]),
/// render (returned for printing), and require a snapshot for
/// `require_issue`.
pub fn check(dir: &str, require_issue: u64) -> Result<String, String> {
    let rows = collect(dir)?;
    let table = render(&rows);
    if !rows.iter().any(|r| r.issue == require_issue) {
        return Err(format!(
            "no BENCH_{require_issue}.json snapshot: record one with `perfbench` before shipping"
        ));
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_snapshot_and_tolerates_later_families_missing() {
        let base_snapshot = |issue: u64| {
            format!(
                "{{\"schema\": \"netsession-perfbench/1\", \"issue\": {issue}, \
                 \"headline\": {{\"wall_ms\": 3983, \"events_per_sec\": 230501}}, \
                 \"families\": {{\"event_queue\": {{\"macro_speedup\": 1.25}}, \
                 \"hashing\": {{\"hash_speedup\": 2}}, \
                 \"alloc_churn\": {{\"flownet_recompute_allocs_per_op\": 0}}, \
                 \"obs\": {{\"tracing_overhead_pct\": 3}}}}}}"
            )
        };
        let row = parse_snapshot(&base_snapshot(6)).unwrap();
        assert_eq!(row.issue, 6);
        assert_eq!(row.macro_speedup, Some(1.25));
        assert_eq!(row.scale_wall_ms, None);
        assert!(render(&[row]).contains("1.250"));
        // The same families under a later issue number are a stale snapshot.
        let err = parse_snapshot(&base_snapshot(7)).unwrap_err();
        assert!(err.contains("families.scale missing"), "{err}");
    }

    fn bench_15() -> String {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/bench/BENCH_15.json"
        );
        std::fs::read_to_string(path).expect("committed snapshot")
    }

    /// Renaming any field BENCH_15 must carry fails the lint, naming the
    /// field.
    #[test]
    fn bench_15_fails_the_lint_naming_each_renamed_required_field() {
        let text = bench_15();
        parse_snapshot(&text).expect("BENCH_15 carries every required field");
        for (field, path) in [
            ("sha256_64k_mb_s", "families.hashing.sha256_64k_mb_s"),
            ("sha256_kernel", "families.hashing.sha256_kernel"),
            ("wall_ms", "headline.wall_ms"),
            ("events_per_sec", "headline.events_per_sec"),
            ("cpus", "families.scale.cpus"),
            ("shard_regions", "families.scale.shard_regions"),
        ] {
            let renamed = text.replace(&format!("\"{field}\""), "\"renamed\"");
            let err = parse_snapshot(&renamed).unwrap_err();
            assert!(err.contains(path), "{err}");
        }
    }

    #[test]
    fn parallel_runner_may_not_lose_to_its_oracle() {
        let text = bench_15();
        let speedup = |s: &str| text.replace("\"parallel_speedup\": 1.603", s);
        let err = parse_snapshot(&speedup("\"parallel_speedup\": 0.99")).unwrap_err();
        assert!(
            err.contains("families.scale.parallel_speedup 0.99 < 1"),
            "{err}"
        );
        // One core runs the oracle's own work: only noise separates them.
        let one_cpu = speedup("\"parallel_speedup\": 0.96").replace("\"cpus\": 2", "\"cpus\": 1");
        parse_snapshot(&one_cpu).expect("0.96 clears the one-core floor");
    }

    #[test]
    fn rejects_wrong_schema() {
        assert!(parse_snapshot("{\"schema\": \"x/1\", \"issue\": 6}").is_err());
    }

    #[test]
    fn trend_over_the_committed_snapshots_includes_every_issue() {
        // Runs against the repo's real results/bench directory.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/bench");
        let rows = collect(dir).expect("committed snapshots parse");
        assert!(rows.len() >= 4, "expected the PR 6..=9+ snapshots");
        assert!(rows.windows(2).all(|w| w[0].issue < w[1].issue));
        let table = render(&rows);
        for r in &rows {
            assert!(table.contains(&format!("\n{:>5} ", r.issue)), "{table}");
        }
    }
}
