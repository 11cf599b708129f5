//! Corrupted-sidecar coverage for `schema::validate`: a damaged artifact
//! must fail loudly, never sail through the gate, and no byte of one may
//! panic the reader. The regression of record: `deterministic.shards`
//! missing or zero used to default to 0 and vacuously match an empty
//! `per_shard` array.

use netsession_bench::schema::{self, validate, validate_file};
use proptest::prelude::*;

/// A minimal well-formed profile sidecar the mutations below corrupt.
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
    "stream": "0123456789abcdefx20",
    "per_shard": [
      { "shard": 0, "regions": "US East", "peers": 10, "events": 60, "share_pct": 60.00, "windows_occupied": 10, "mail_sent": 1, "mail_recv": 2, "max_queue_depth": 5 },
      { "shard": 1, "regions": "Europe", "peers": 10, "events": 40, "share_pct": 40.00, "windows_occupied": 9, "mail_sent": 2, "mail_recv": 1, "max_queue_depth": 4 }
    ],
    "mail_matrix": [[0, 1], [2, 0]]
  },
  "volatile": {
    "mode": "parallel",
    "cpus": 1,
    "threads": 1,
    "wall_s": 0.5,
    "busy_ms": [300.0, 200.0],
    "wait_ms": [10.0, 110.0],
    "merge_ms": 1.5,
    "wall_critical_path_ms": 400.0,
    "wall_speedup_ceiling": 1.2
  }
}"#
    .to_string()
}

fn results(name: &str) -> String {
    format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn well_formed_sidecar_passes() {
    validate(&good()).expect("well-formed profile validates");
}

/// The regression: `shards: 0` + empty `per_shard` used to pass because
/// the length check compared `0 == 0`.
#[test]
fn zero_shards_with_empty_per_shard_fails() {
    let per_shard_start = good().find("\"per_shard\": [").unwrap();
    let per_shard_end = good().find("\"mail_matrix\"").unwrap();
    let mut corrupt = good();
    corrupt.replace_range(per_shard_start..per_shard_end, "\"per_shard\": [],\n    ");
    let corrupt = corrupt.replace("\"shards\": 2,", "\"shards\": 0,");
    let err = validate(&corrupt)
        .err()
        .expect("zero-shard profile must fail");
    assert!(
        err.contains("shards is 0"),
        "message must name the corruption: {err}"
    );
}

#[test]
fn missing_shards_key_fails() {
    let corrupt = good().replace("\"shards\": 2,", "");
    let err = validate(&corrupt).err().expect("missing shards must fail");
    assert!(err.contains("shards"), "message must name the field: {err}");
}

#[test]
fn per_shard_length_mismatch_names_both_counts() {
    let corrupt = good().replace("\"shards\": 2,", "\"shards\": 3,");
    let err = validate(&corrupt).err().expect("length mismatch must fail");
    assert!(
        err.contains("2 entries") && err.contains("3"),
        "message must name both counts: {err}"
    );
}

#[test]
fn volatile_leak_into_deterministic_fails() {
    let corrupt = good().replace("\"skew\": 1.2,", "\"skew\": 1.2, \"wall_s\": 0.5,");
    let err = validate(&corrupt).err().expect("wall-clock leak must fail");
    assert!(err.contains("leaked"), "got: {err}");
}

/// The leak check is derived from the table: every key a volatile row
/// declares fails when it shows up in the deterministic section.
#[test]
fn every_volatile_row_key_is_a_leak_inside_deterministic() {
    let keys: Vec<&str> = schema::PROFILE.volatile_keys().collect();
    assert!(keys.len() >= 9, "{keys:?}");
    for key in keys {
        let corrupt = good().replace("\"skew\": 1.2,", &format!("\"skew\": 1.2, \"{key}\": 1,"));
        let err = validate(&corrupt).err().expect("leak must fail");
        assert!(err.contains("leaked") && err.contains(key), "{key}: {err}");
    }
}

/// Every field the writer emits is a row: dropping any one fails, naming it.
#[test]
fn every_written_profile_field_is_required() {
    for key in [
        "stream",
        "mail_matrix",
        "critical_path_split_events",
        "wall_s",
    ] {
        let corrupt = good().replace(&format!("\"{key}\""), "\"renamed\"");
        let err = validate(&corrupt).err().expect("renamed field must fail");
        assert!(err.contains(key), "{key}: {err}");
    }
    for key in ["busy_ms", "wait_ms", "merge_ms", "threads"] {
        let corrupt = good().replace(&format!("\"{key}\""), "\"renamed\"");
        let err = validate(&corrupt).err().expect("renamed field must fail");
        assert!(err.contains(&format!("volatile.{key}")), "{key}: {err}");
    }
}

/// `volatile.threads` must be a pool the run could have had.
#[test]
fn pool_size_is_checked() {
    let with =
        |threads: &str| good().replace("\"threads\": 1,", &format!("\"threads\": {threads},"));
    validate(&with("2")).expect("2 threads over 2 shards");
    for bad in ["0", "3", "1.5"] {
        let err = validate(&with(bad)).err().expect("impossible pool size");
        assert!(err.contains("volatile.threads"), "{bad}: {err}");
    }
    let sequential = with("2").replace("\"parallel\"", "\"sequential\"");
    let err = validate(&sequential)
        .err()
        .expect("the oracle runs on one thread");
    assert!(err.contains("sequential"), "got: {err}");
}

#[test]
fn path_variant_reports_missing_file() {
    let err = validate_file("/nonexistent/scale.profile.json")
        .err()
        .expect("missing file");
    assert!(err.contains("/nonexistent/scale.profile.json"));
}

#[test]
fn timeseries_rejects_wrong_schema_and_missing_sections() {
    assert!(validate("{}").is_err());
    let err = validate("{\"schema\": \"netsession-timeseries/1\"}")
        .err()
        .unwrap();
    assert!(err.contains("series"), "{err}");
    let err = validate("{\"schema\": \"other/9\"}").err().unwrap();
    assert!(err.contains("schema"), "{err}");
}

#[test]
fn committed_sidecars_validate() {
    for name in ["scale.profile.json", "scale.timeseries.json"] {
        validate_file(&results(name)).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// The decoded series (counters, a level and a flags metric) re-encodes to
/// the exact bytes the writer put in the sidecar.
#[test]
fn decoded_series_round_trips_to_the_written_bytes() {
    let text = std::fs::read_to_string(results("scale.timeseries.json")).unwrap();
    let series = validate(&text).unwrap().timeseries.unwrap().series;
    assert!(text.contains(&format!("\"series\": {},\n", series.to_json())));
}

/// Values a row types correctly but the decoder must still refuse: a
/// series row outside `groups × windows`, a series too large to allocate,
/// an unknown kind, class or region.
#[test]
fn out_of_range_timeseries_values_are_errors_not_panics() {
    let text = std::fs::read_to_string(results("scale.timeseries.json")).unwrap();
    for (from, to, expect) in [
        (
            "{\"group\": 1, \"start\": 0",
            "{\"group\": 99, \"start\": 0",
            "outside the series",
        ),
        (
            "{\"group\": 1, \"start\": 0",
            "{\"group\": 1, \"start\": 99999",
            "outside the series",
        ),
        ("\"windows\": 757", "\"windows\": 9999999", "exceeds"),
        ("\"kind\": \"level\"", "\"kind\": \"gauge\"", "bad kind"),
        (
            "\"class\": \"cn_crash\"",
            "\"class\": \"meteor\"",
            "unknown fault class meteor",
        ),
        (
            "\"region\": \"US East\", \"detail\"",
            "\"region\": \"Mars\", \"detail\"",
            "Mars",
        ),
    ] {
        assert!(text.contains(from), "{from}");
        let err = validate(&text.replacen(from, to, 1)).err().expect(to);
        assert!(err.contains(expect), "{to}: {err}");
    }
}

/// Every committed sidecar the schemas cover, as raw bytes.
fn committed_sidecars() -> Vec<Vec<u8>> {
    let mut paths = vec![
        results("scale.profile.json"),
        results("scale.timeseries.json"),
    ];
    for entry in std::fs::read_dir(results("bench")).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            paths.push(path.to_string_lossy().into_owned());
        }
    }
    paths.iter().map(|p| std::fs::read(p).unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Truncated or bit-flipped sidecars come back `Ok` or `Err`; the
    /// reader never panics on any byte.
    #[test]
    fn no_sidecar_byte_panics_the_reader(
        cut in 0.0f64..1.0,
        flips in proptest::collection::vec((0.0f64..1.0, any::<u8>()), 1..4),
    ) {
        for bytes in committed_sidecars() {
            let truncated = &bytes[..(bytes.len() as f64 * cut) as usize];
            let _ = validate(&String::from_utf8_lossy(truncated));
            let mut flipped = bytes.clone();
            for (at, byte) in &flips {
                flipped[(bytes.len() as f64 * at) as usize] = *byte;
            }
            let _ = validate(&String::from_utf8_lossy(&flipped));
        }
    }
}
