//! The `paper` experiment table against the committed `results/*.txt`
//! oracle and against itself: coverage, determinism, entry independence,
//! and table4's equivalence to the no-simulation render it replaced.

use netsession_bench::paper::{select, EXPERIMENTS};
use netsession_bench::runner::{config_for, run_default, ExperimentArgs};
use netsession_hybrid::{Scenario, SimOutput};
use std::collections::BTreeSet;
use std::path::Path;

fn small_args() -> ExperimentArgs {
    ExperimentArgs {
        peers: 2_000,
        downloads: 3_000,
        ..ExperimentArgs::default()
    }
}

fn render(out: &SimOutput, names: &[&str]) -> Vec<(&'static str, String)> {
    let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
    select(&names)
        .unwrap()
        .into_iter()
        .map(|(name, render)| (*name, render(out)))
        .collect()
}

#[test]
fn table_and_committed_results_cover_each_other() {
    let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate table name");

    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let committed: BTreeSet<String> = std::fs::read_dir(&results)
        .unwrap()
        .filter_map(|f| f.unwrap().file_name().into_string().ok())
        .filter_map(|f| f.strip_suffix(".txt").map(String::from))
        .filter(|stem| {
            stem.starts_with("fig")
                || stem.starts_with("table")
                || ["headline", "outcomes", "mobility"].contains(&stem.as_str())
        })
        .collect();
    let names: BTreeSet<String> = names.into_iter().map(String::from).collect();
    assert_eq!(names, committed);
}

#[test]
fn unknown_name_is_an_error_listing_the_table() {
    let err = select(&["fig5".to_string(), "fig99".to_string()])
        .err()
        .unwrap();
    assert!(err.contains("fig99") && err.contains("mobility"), "{err}");
}

#[test]
fn same_seed_renders_identically_and_entries_are_independent() {
    let out = run_default(&small_args());
    // Subset first, so a full render cannot have warmed anything up.
    let subset = render(&out, &["fig5", "table4"]);
    let full = render(&out, &[]);
    assert_eq!(full.len(), EXPERIMENTS.len());
    assert_eq!(
        subset.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        ["table4", "fig5"],
        "selection keeps table order"
    );
    for (name, text) in &subset {
        let in_full = &full.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(text, in_full, "{name} differs between subset and full set");
    }

    let again = render(&run_default(&small_args()), &[]);
    for ((name, a), (_, b)) in full.iter().zip(&again) {
        assert!(!a.is_empty(), "{name} rendered nothing");
        assert_eq!(a, b, "{name} differs between same-seed runs");
    }
}

#[test]
fn table4_from_the_run_equals_table4_from_scenario_build_alone() {
    let args = small_args();
    let mut out = run_default(&args);
    let after_month = render(&out, &["table4"]);
    out.scenario = Scenario::build(config_for(&args));
    assert_eq!(after_month, render(&out, &["table4"]));
}
