//! The timing wheel is an optimization, not an approximation: `run()` and
//! `run_with_oracle_queue()` share one loop body and every `EventSched`
//! pops in `(time, seq)` order, so a month on the wheel must equal the
//! same month on the binary-heap oracle in every judged byte — fault-free
//! and under a schedule that drives all four fault classes through their
//! paced recovery events.

use netsession_hybrid::{
    FaultEvent, FaultKind, FaultSchedule, HybridSim, Scenario, ScenarioConfig, SimOutput,
};

fn tiny(faults: FaultSchedule) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::tiny();
    cfg.faults = faults;
    // Dense enough that the trace export carries download stories, not
    // only the always-sampled fault spans.
    cfg.obs.trace_sample_every = 8;
    cfg
}

/// One fault class per week, every region (the `chaos` campaign's shape).
fn four_class_schedule() -> FaultSchedule {
    let at = |at_hours, kind| FaultEvent { at_hours, kind };
    let mut events = Vec::new();
    for region in 0..9 {
        events.push(at(186, FaultKind::CnCrash { region }));
        events.push(at(330, FaultKind::DnWipe { region }));
        let secs = 7_200;
        events.push(at(480, FaultKind::EdgeOutage { region, secs }));
    }
    events.push(at(600, FaultKind::ChurnBurst { fraction: 0.3 }));
    FaultSchedule { events }
}

fn assert_backends_agree(cfg: ScenarioConfig) -> SimOutput {
    let wheel = HybridSim::new(Scenario::build(cfg.clone())).run();
    let heap = HybridSim::new(Scenario::build(cfg)).run_with_oracle_queue();
    // `assert!(a == b)`, not `assert_eq!`: a divergence should name the
    // artifact, not dump megabytes of it.
    assert!(
        format!("{:?}", wheel.dataset) == format!("{:?}", heap.dataset),
        "dataset diverged"
    );
    assert_eq!(wheel.stats, heap.stats);
    assert_eq!(wheel.alerts, heap.alerts);
    assert!(
        wheel.metrics.snapshot_json() == heap.metrics.snapshot_json(),
        "deterministic metrics snapshot diverged"
    );
    assert!(
        wheel.trace.export_chrome_json() == heap.trace.export_chrome_json(),
        "trace export diverged"
    );
    wheel
}

#[test]
fn wheel_equals_heap_on_a_fault_free_month() {
    let out = assert_backends_agree(tiny(FaultSchedule::default()));
    assert!(out.stats.completed > 0 && out.alerts.is_empty());
    assert!(out.trace.export_chrome_json().contains("\"peer_transfer\""));
}

#[test]
fn wheel_equals_heap_under_all_four_fault_classes() {
    let out = assert_backends_agree(tiny(four_class_schedule()));
    // Not vacuous: every recovery event kind fired, and the alert engine
    // saw the campaign.
    let snap = out.metrics.scrape();
    for counter in [
        "hybrid.ev_fault",
        "hybrid.ev_readmit",
        "hybrid.ev_readd",
        "hybrid.ev_edge_recover",
        "hybrid.fault.churn_offline",
    ] {
        assert!(snap.counter(counter) > 0, "{counter} never moved");
    }
    assert!(!out.alerts.is_empty());
}
