//! Cross-crate integration tests: one simulated month exercised end to end
//! and checked against the paper's qualitative claims plus internal
//! consistency invariants (accounting, registration, conservation).

use netsession::analytics::{efficiency, guidgraph, mobility, outcomes, overview, settings};
use netsession::core::id::VersionId;
use netsession::core::units::ByteCount;
use netsession::hybrid::{FaultEvent, FaultKind, HybridSim, ScenarioConfig, SimOutput};
use netsession::logs::records::DownloadOutcome;
use std::sync::OnceLock;

/// One shared run for all assertions (the simulation is deterministic).
fn run() -> &'static SimOutput {
    static OUT: OnceLock<SimOutput> = OnceLock::new();
    OUT.get_or_init(|| {
        let mut cfg = ScenarioConfig::tiny();
        cfg.population.peers = 4_000;
        cfg.workload.downloads = 6_000;
        cfg.objects = 400;
        HybridSim::run_config(cfg)
    })
}

#[test]
fn headline_shape_holds() {
    let out = run();
    let h = overview::headline(&out.dataset);
    assert!(
        (0.25..0.40).contains(&h.enabled_fraction),
        "enabled {}",
        h.enabled_fraction
    );
    assert!(
        h.p2p_file_fraction < 0.08,
        "p2p files {}",
        h.p2p_file_fraction
    );
    assert!(
        h.p2p_byte_share > 0.25,
        "p2p-enabled files dominate bytes: {}",
        h.p2p_byte_share
    );
    assert!(
        h.mean_peer_efficiency > 0.2,
        "peer efficiency {}",
        h.mean_peer_efficiency
    );
}

#[test]
fn completed_downloads_conserve_bytes() {
    let out = run();
    let mut checked = 0;
    for d in &out.dataset.downloads {
        if d.outcome == DownloadOutcome::Completed {
            let got = d.total_bytes().bytes() as f64;
            let want = d.size.bytes() as f64;
            assert!(
                (got - want).abs() / want.max(1.0) < 0.02,
                "completed download got {got}, size {want}"
            );
            checked += 1;
        }
    }
    assert!(checked > 1000, "checked {checked}");
}

#[test]
fn transfers_match_download_peer_bytes() {
    let out = run();
    let transfer_total: u64 = out.dataset.transfers.iter().map(|t| t.bytes.bytes()).sum();
    let download_peer_total: u64 = out
        .dataset
        .downloads
        .iter()
        .map(|d| d.bytes_peers.bytes())
        .sum();
    let diff = (transfer_total as f64 - download_peer_total as f64).abs();
    assert!(
        diff / (download_peer_total.max(1) as f64) < 0.02,
        "transfer records {transfer_total} vs download records {download_peer_total}"
    );
}

#[test]
fn uploaders_had_uploads_enabled() {
    let out = run();
    // Every transfer source must be a peer whose installation had uploads
    // enabled at some point (setting changes are rare).
    let pop = &out.scenario.population;
    let mut by_guid = std::collections::HashMap::new();
    for p in &pop.peers {
        by_guid.insert(p.guid, p);
    }
    let mut violations = 0;
    for t in out.dataset.transfers.iter().take(5000) {
        if let Some(p) = by_guid.get(&t.from_guid) {
            if !p.uploads_enabled {
                violations += 1;
            }
        }
    }
    // Allowed: rare setting-changers (Table 3 says ~0.04%-1.9%).
    assert!(
        violations < 50,
        "{violations} transfers from disabled uploaders"
    );
}

#[test]
fn accounting_ledger_reconciles_the_usage_reports() {
    let out = run();
    // Rebuild usage records from the download log and reconcile against
    // the edge receipts — the §3.5 anti-accounting-attack pipeline. All
    // honest records must survive.
    let records: Vec<netsession::core::msg::UsageRecord> = out
        .dataset
        .downloads
        .iter()
        .map(|d| netsession::core::msg::UsageRecord {
            guid: d.guid,
            version: VersionId {
                object: d.object,
                version: 1,
            },
            started: d.started,
            ended: d.ended,
            bytes_from_infrastructure: d.bytes_infra,
            bytes_from_peers: d.bytes_peers,
        })
        .collect();
    let sizes: std::collections::HashMap<u64, ByteCount> = out
        .scenario
        .catalog
        .objects()
        .iter()
        .map(|o| (o.id.0, o.size))
        .collect();
    let completed: std::collections::HashSet<(u128, u64)> = out
        .dataset
        .downloads
        .iter()
        .filter(|d| d.outcome == DownloadOutcome::Completed)
        .map(|d| (d.guid.0, d.object.0))
        .collect();
    let (accepted, flagged) = out.scenario.ledger.reconcile(&records, |r| {
        completed
            .contains(&(r.guid.0, r.version.object.0))
            .then(|| sizes[&r.version.object.0])
    });
    assert!(
        flagged.len() * 100 < records.len(),
        "honest records flagged: {} of {} ({:?}…)",
        flagged.len(),
        records.len(),
        flagged.first()
    );
    assert!(accepted.len() > records.len() * 9 / 10);
}

#[test]
fn forged_usage_reports_are_flagged() {
    let out = run();
    let d = out
        .dataset
        .downloads
        .iter()
        .find(|d| d.outcome == DownloadOutcome::Completed)
        .unwrap();
    // A compromised peer inflates its infrastructure byte claim 100×.
    let forged = netsession::core::msg::UsageRecord {
        guid: d.guid,
        version: VersionId {
            object: d.object,
            version: 1,
        },
        started: d.started,
        ended: d.ended,
        bytes_from_infrastructure: ByteCount(d.bytes_infra.bytes() * 100 + 10_000_000),
        bytes_from_peers: d.bytes_peers,
    };
    let (accepted, flagged) = out.scenario.ledger.reconcile(&[forged], |_| None);
    assert!(accepted.is_empty());
    assert_eq!(flagged.len(), 1);
}

#[test]
fn efficiency_grows_with_copies_and_peers() {
    let out = run();
    let (lo_copies, hi_copies, few_peers, many_peers) = efficiency::growth_summary(&out.dataset);
    assert!(
        hi_copies > lo_copies,
        "Fig 5 trend: {lo_copies} → {hi_copies}"
    );
    assert!(
        many_peers > few_peers,
        "Fig 6 trend: {few_peers} → {many_peers}"
    );
}

#[test]
fn outcome_split_matches_the_papers_story() {
    let out = run();
    let (infra, p2p) = outcomes::outcome_split(&out.dataset);
    assert!(infra.completed > 0.85 && p2p.completed > 0.75);
    assert!(p2p.abandoned > infra.abandoned, "bigger files pause more");
    assert!(infra.failed_system < 0.01 && p2p.failed_system < 0.01);
    // Fig 7: pause rate grows with size.
    let buckets = outcomes::fig7(&out.dataset);
    assert!(buckets.last().unwrap().all >= buckets.first().unwrap().all);
}

#[test]
fn mobility_mix_is_calibrated() {
    let out = run();
    let m = mobility::summarize(&out.dataset);
    assert!(
        (0.72..0.90).contains(&m.single_as),
        "single-AS {}",
        m.single_as
    );
    assert!(
        (0.60..0.92).contains(&m.within_10km),
        "10km {}",
        m.within_10km
    );
}

#[test]
fn table3_stickiness_reproduced() {
    let out = run();
    let (disabled, enabled) = settings::table3(&out.dataset);
    let (dz, _, _) = disabled.fractions();
    let (ez, _, _) = enabled.fractions();
    assert!(dz > 0.995, "disabled zero-change {dz}");
    assert!(ez > 0.95, "enabled zero-change {ez}");
}

#[test]
fn guid_graphs_mostly_linear_with_rare_trees() {
    let out = run();
    let census = guidgraph::fig12(&out.dataset);
    let nl = guidgraph::nonlinear_fraction(&census);
    assert!(nl < 0.05, "nonlinear fraction {nl}");
    assert!(
        nl > 0.0,
        "the clone/anomaly machinery must produce some trees"
    );
}

#[test]
fn control_plane_restart_does_not_hurt_service() {
    // §3.8: "when a new CN/DN software version is released, all CNs and
    // DNs are restarted in a short timeframe, and this does not negatively
    // affect the service."
    let baseline = run();
    let mut cfg = ScenarioConfig::tiny();
    cfg.population.peers = 4_000;
    cfg.workload.downloads = 6_000;
    cfg.objects = 400;
    // The rolling restart, as faults: at 03:00 on day 15 every region's CN
    // drops its connections and its DN loses its soft state; the paced
    // readmissions re-register each peer's cache (fate-sharing).
    for region in 0..9 {
        for kind in [FaultKind::CnCrash { region }, FaultKind::DnWipe { region }] {
            cfg.faults.events.push(FaultEvent {
                at_hours: 15 * 24 + 3,
                kind,
            });
        }
    }
    let restarted = HybridSim::run_config(cfg);

    let completion = |o: &SimOutput| {
        o.dataset
            .downloads
            .iter()
            .filter(|d| d.outcome == DownloadOutcome::Completed)
            .count() as f64
            / o.dataset.downloads.len().max(1) as f64
    };
    assert!(
        (completion(&restarted) - completion(baseline)).abs() < 0.03,
        "restart changed completion: {} vs {}",
        completion(&restarted),
        completion(baseline)
    );
    // Peer-assisted delivery keeps working after day 15.
    let restart_at =
        netsession::core::time::SimTime::ZERO + netsession::core::time::SimDuration::from_days(16);
    let p2p_after: u64 = restarted
        .dataset
        .downloads
        .iter()
        .filter(|d| d.started > restart_at)
        .map(|d| d.bytes_peers.bytes())
        .sum();
    assert!(p2p_after > 0, "swarming must survive the restart");
    let eff = |o: &SimOutput| overview::headline(&o.dataset).mean_peer_efficiency;
    assert!(
        (eff(&restarted) - eff(baseline)).abs() < 0.12,
        "efficiency moved too much: {} vs {}",
        eff(&restarted),
        eff(baseline)
    );
}
