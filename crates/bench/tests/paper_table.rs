//! The `paper` experiment table against the committed `results/*.txt`
//! oracle and against itself: coverage, the planner's month sharing,
//! determinism, entry independence, and table4's equivalence to the
//! no-simulation render it replaced.

use netsession_bench::paper::{plan, select, EXPERIMENTS};
use netsession_bench::runner::{config_for, ExperimentArgs, Overrides};
use netsession_hybrid::{HybridSim, Scenario};
use std::collections::BTreeSet;
use std::convert::Infallible;
use std::path::Path;
use std::sync::Arc;

const SMALL: Overrides = Overrides {
    peers: Some(2_000),
    downloads: Some(3_000),
    seed: None,
};

fn names(names: &str) -> Vec<String> {
    names.split_whitespace().map(String::from).collect()
}

/// How many months `paper <selection>` simulates.
fn months(selection: &str) -> usize {
    plan(&select(&names(selection)).unwrap(), &Overrides::default())
        .runs
        .len()
}

/// Every deterministic file `paper <selection>` writes at [`SMALL`] scale
/// (the metrics snapshots carry wall-clock timings), in emission order.
fn files(selection: &str) -> Vec<(String, String)> {
    let mut files = Vec::new();
    plan(&select(&names(selection)).unwrap(), &SMALL)
        .execute(|file, text, _| {
            if !file.ends_with(".metrics.json") {
                files.push((file.to_string(), text.to_string()));
            }
            Ok::<(), Infallible>(())
        })
        .unwrap();
    files
}

#[test]
fn table_and_committed_results_cover_each_other() {
    let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate table name");

    // Every committed results/*.txt is a table output, bar the `scale`
    // harness's artifact.
    let declared: BTreeSet<String> = EXPERIMENTS
        .iter()
        .flat_map(|e| e.outputs())
        .filter(|f| f.ends_with(".txt"))
        .chain(["scale.txt".to_string()])
        .collect();
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let committed: BTreeSet<String> = std::fs::read_dir(&results)
        .unwrap()
        .filter_map(|f| f.unwrap().file_name().into_string().ok())
        .filter(|f| f.ends_with(".txt"))
        .collect();
    assert_eq!(declared, committed);
}

#[test]
fn unknown_name_is_an_error_listing_the_table() {
    let err = select(&names("fig5 fig99")).err().unwrap();
    assert!(
        err.contains("fig99") && err.contains("ablate_sessions"),
        "{err}"
    );
}

#[test]
fn equal_configs_are_planned_as_one_month() {
    // 17 also pins month identity: months one field apart (A4's list
    // sizes, A5's fractions) are never merged.
    assert_eq!(months(""), 17);
    assert_eq!(months("fig5"), 1);
    assert_eq!(months("fig5 table4 mobility"), 1);
    // The campaign's baseline is the figures' standard month.
    assert_eq!(months("chaos"), 2);
    assert_eq!(months("chaos headline"), 2);
    // Four peer-list sizes, of which 40 is the standard config.
    assert_eq!(months("ablate_peerlist"), 4);
    // Backstop on, cap 30 and factor 1.0 all build the standard config:
    // one shared month plus four deltas.
    assert_eq!(
        months("ablate_backstop ablate_uploadcap ablate_sessions"),
        5
    );

    // At one scale the figures' month and the ablations' baseline merge
    // too, and the shared month keeps the figures' telemetry name.
    let flags = Overrides {
        peers: Some(12_000),
        downloads: Some(15_000),
        seed: None,
    };
    let shared = plan(&select(&names("ablate_backstop fig5")).unwrap(), &flags);
    assert_eq!(shared.runs.len(), 2);
    assert_eq!(shared.entries[0].1[0], shared.entries[1].1[0]);
    assert_eq!(shared.runs[0].sidecars, Some("paper"));
    assert_eq!(shared.runs[1].sidecars, None);
}

#[test]
fn same_seed_renders_identically_and_entries_are_independent() {
    // A second same-seed invocation of every entry, on another thread: the
    // figures off one month of their own, then each multi-month entry
    // alone, sharing no month with any other entry.
    let again = std::thread::spawn(|| {
        let (figures, rest): (Vec<&str>, Vec<&str>) = EXPERIMENTS
            .iter()
            .map(|e| e.name)
            .partition(|name| months(name) == 1);
        std::iter::once(figures.join(" "))
            .chain(rest.into_iter().map(String::from))
            .flat_map(|selection| files(&selection))
            .collect::<Vec<_>>()
    });
    // Subset first, so a full render cannot have warmed anything up.
    let subset = files("fig5 table4");
    let full = files("");
    let again = again.join().unwrap();

    assert_eq!(
        subset.iter().map(|(f, _)| f.as_str()).collect::<Vec<_>>(),
        ["paper.trace.json", "table4.txt", "fig5.txt"],
        "selection keeps table order"
    );
    let expected: BTreeSet<String> = EXPERIMENTS
        .iter()
        .flat_map(|e| e.outputs())
        .chain(["paper.trace.json", "chaos.trace.json"].map(String::from))
        .collect();
    let written = |files: &[(String, String)]| -> BTreeSet<String> {
        files.iter().map(|(f, _)| f.clone()).collect()
    };
    assert_eq!(written(&full), expected);
    assert_eq!(full.len(), expected.len(), "a file was written twice");
    assert_eq!(
        written(&again),
        expected,
        "second invocation skipped a file"
    );

    for (file, text) in &full {
        assert!(!text.is_empty(), "{file} rendered nothing");
    }
    for (file, text) in subset.iter().chain(&again) {
        let in_full = &full.iter().find(|(f, _)| f == file).unwrap().1;
        assert_eq!(text, in_full, "{file} differs between invocations");
    }
}

#[test]
fn table4_from_the_run_equals_table4_from_scenario_build_alone() {
    let config = config_for(&SMALL.over(ExperimentArgs::FIGURES));
    let table4 = select(&names("table4")).unwrap()[0].render;
    let out = Arc::new(HybridSim::run_config(config.clone()));
    let after_month = table4(&mut std::iter::once(out.clone()));
    let mut out = Arc::into_inner(out).unwrap();
    out.scenario = Scenario::build(config);
    assert_eq!(after_month, table4(&mut std::iter::once(Arc::new(out))));
}
