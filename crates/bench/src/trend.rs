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

use crate::schema;

/// The trajectory columns: header, snapshot path, cell width, decimals.
const COLUMNS: [(&str, &str, usize, usize); 7] = [
    // Wheel vs heap macro run.
    ("queue_spd", "families.event_queue.macro_speedup", 9, 3),
    // The sharded runner's parallel wall time and peak RSS.
    ("scale_wall_ms", "families.scale.par_wall_ms", 13, 0),
    ("scale_rss_kb", "families.scale.peak_rss_kb", 12, 0),
    // Sequential wall / parallel wall.
    ("scale_spd", "families.scale.parallel_speedup", 9, 3),
    // Max-over-mean per-shard event share, and the critical-path bound.
    ("skew", "families.shard_profile.skew", 6, 2),
    ("ceiling", "families.shard_profile.speedup_ceiling", 8, 3),
    // Sampling cost vs sampling off.
    ("ts_ov_%", "families.timeseries.overhead_pct", 8, 2),
];

/// One `BENCH_<issue>.json` snapshot, reduced to the headline trajectory
/// cells.
#[derive(Clone, Debug, PartialEq)]
pub struct TrendRow {
    /// Issue (PR) number the snapshot was recorded for.
    pub issue: u64,
    /// One cell per [`COLUMNS`] entry; `None` = the family did not exist
    /// yet in that snapshot.
    pub cells: Vec<Option<f64>>,
}

/// Validate one snapshot's text against [`schema::PERFBENCH`] and reduce
/// it to its trend row.
pub fn parse_snapshot(text: &str) -> Result<TrendRow, String> {
    let doc = schema::validate(text)?;
    if doc.schema.tag != schema::PERFBENCH.tag {
        return Err(format!("bad schema tag {:?}", doc.schema.tag));
    }
    Ok(TrendRow {
        issue: doc.uint("issue"),
        cells: COLUMNS.iter().map(|(_, path, ..)| doc.num(path)).collect(),
    })
}

/// Read every `BENCH_*.json` under `dir`, sorted by issue number.
pub fn collect(dir: &str) -> Result<Vec<TrendRow>, String> {
    let mut rows = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(stem) = name
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".json"))
        else {
            continue;
        };
        let text = std::fs::read_to_string(entry.path()).map_err(|e| format!("{name}: {e}"))?;
        let row = parse_snapshot(&text).map_err(|e| format!("{name}: {e}"))?;
        // The filename is part of the contract: BENCH_<issue>.json.
        if stem.parse() != Ok(row.issue) {
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

/// Render the trajectory table (deterministic given the snapshot set —
/// the cells are whatever the snapshots recorded).
pub fn render(rows: &[TrendRow]) -> String {
    use std::fmt::Write;
    let mut s = format!("{:>5}", "issue");
    for (header, _, width, _) in COLUMNS {
        let _ = write!(s, " {header:>width$}");
    }
    for r in rows {
        let _ = write!(s, "\n{:>5}", r.issue);
        for (cell, (_, _, width, decimals)) in r.cells.iter().zip(COLUMNS) {
            let _ = match cell {
                Some(x) => write!(s, " {x:>width$.decimals$}"),
                None => write!(s, " {:>width$}", "-"),
            };
        }
    }
    s.push('\n');
    s
}

/// Gate mode: collect (which validates every snapshot against
/// [`schema::PERFBENCH`]), render (returned for printing), and require a
/// snapshot for `require_issue`.
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
        assert_eq!(row.cells[0], Some(1.25), "queue_spd");
        assert_eq!(row.cells[1], None, "scale_wall_ms");
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
