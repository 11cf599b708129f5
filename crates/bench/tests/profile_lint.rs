//! Corrupted-sidecar coverage for the `scale.profile.json` lint: a
//! damaged artifact must fail loudly, never sail through the gate. The
//! regression of record: `deterministic.shards` missing or zero used to
//! default to 0 and vacuously match an empty `per_shard` array.

use netsession_bench::profile_lint::{lint_profile, lint_profile_text};

/// A minimal well-formed sidecar the mutations below corrupt.
fn good() -> String {
    r#"{
  "schema": "netsession-shard-profile/1",
  "deterministic": {
    "shards": 2,
    "windows": 10,
    "events": 100,
    "critical_path_events": 60,
    "critical_path_split_events": 55,
    "speedup_ceiling": 1.6667,
    "split_busiest_ceiling": 1.8182,
    "skew": 1.2,
    "per_shard": [
      { "shard": 0, "regions": "US East", "peers": 10, "events": 60, "share_pct": 60.00 },
      { "shard": 1, "regions": "Europe", "peers": 10, "events": 40, "share_pct": 40.00 }
    ],
    "mail_matrix": [[0, 1], [2, 0]]
  },
  "volatile": {
    "mode": "parallel",
    "cpus": 1,
    "wall_s": 0.5,
    "wall_critical_path_ms": 400.0,
    "wall_speedup_ceiling": 1.2
  }
}"#
    .to_string()
}

#[test]
fn well_formed_sidecar_passes() {
    lint_profile_text(&good()).expect("well-formed profile lints clean");
}

/// The regression: `shards: 0` + empty `per_shard` used to pass because
/// the length check compared `0 == 0`.
#[test]
fn zero_shards_with_empty_per_shard_fails() {
    let corrupt = good().replace("\"shards\": 2,", "\"shards\": 0,").replace(
        r#""per_shard": [
      { "shard": 0, "regions": "US East", "peers": 10, "events": 60, "share_pct": 60.00 },
      { "shard": 1, "regions": "Europe", "peers": 10, "events": 40, "share_pct": 40.00 }
    ],"#,
        r#""per_shard": [],"#,
    );
    let err = lint_profile_text(&corrupt).expect_err("zero-shard profile must fail");
    assert!(
        err.contains("shards is 0"),
        "message must name the corruption: {err}"
    );
}

#[test]
fn missing_shards_key_fails() {
    let corrupt = good().replace("\"shards\": 2,", "");
    let err = lint_profile_text(&corrupt).expect_err("missing shards must fail");
    assert!(err.contains("shards"), "message must name the field: {err}");
}

#[test]
fn per_shard_length_mismatch_names_both_counts() {
    let corrupt = good().replace("\"shards\": 2,", "\"shards\": 3,");
    let err = lint_profile_text(&corrupt).expect_err("length mismatch must fail");
    assert!(
        err.contains("2 entries") && err.contains("3"),
        "message must name both counts: {err}"
    );
}

#[test]
fn volatile_leak_into_deterministic_fails() {
    let corrupt = good().replace("\"skew\": 1.2,", "\"skew\": 1.2, \"wall_s\": 0.5,");
    let err = lint_profile_text(&corrupt).expect_err("wall-clock leak must fail");
    assert!(err.contains("leaked"), "got: {err}");
}

/// `volatile.threads` is optional (sidecars older than issue 13 have
/// none) but, when written, must be a pool the run could have had.
#[test]
fn pool_size_is_checked_when_present() {
    let with = |threads: &str| {
        good().replace(
            "\"cpus\": 1,",
            &format!("\"cpus\": 1, \"threads\": {threads},"),
        )
    };
    lint_profile_text(&with("2")).expect("2 threads over 2 shards");
    for bad in ["0", "3", "1.5"] {
        let err = lint_profile_text(&with(bad)).expect_err("impossible pool size");
        assert!(err.contains("volatile.threads"), "{bad}: {err}");
    }
    let sequential = with("2").replace("\"parallel\"", "\"sequential\"");
    let err = lint_profile_text(&sequential).expect_err("the oracle runs on one thread");
    assert!(err.contains("sequential"), "got: {err}");
}

#[test]
fn path_variant_reports_missing_file() {
    let err = lint_profile("/nonexistent/scale.profile.json").expect_err("missing file");
    assert!(err.contains("/nonexistent/scale.profile.json"));
}
