//! The §2 design-space claims, tested: the hybrid keeps the strengths of
//! both pure architectures and avoids their weaknesses.

use netsession::baseline::bittorrent::{Swarm, SwarmConfig};
use netsession::core::rng::DetRng;
use netsession::hybrid::{HybridSim, ScenarioConfig};
use netsession::logs::records::DownloadOutcome;

fn hybrid(edge_backstop: bool) -> netsession::hybrid::SimOutput {
    let mut cfg = ScenarioConfig::tiny();
    cfg.edge_backstop = edge_backstop;
    HybridSim::run_config(cfg)
}

#[test]
fn hybrid_offloads_infrastructure_unlike_pure_cdn() {
    let out = hybrid(true);
    // In the pure CDN every byte is origin traffic.
    let pure_cdn_bytes: u64 = out
        .dataset
        .downloads
        .iter()
        .map(|d| d.total_bytes().bytes())
        .sum();
    let hybrid_infra: u64 = out
        .dataset
        .downloads
        .iter()
        .map(|d| d.bytes_infra.bytes())
        .sum();
    assert!(
        (hybrid_infra as f64) < pure_cdn_bytes as f64 * 0.9,
        "the hybrid must save ≥10% origin traffic (saved {:.0}%)",
        (1.0 - hybrid_infra as f64 / pure_cdn_bytes as f64) * 100.0
    );
}

#[test]
fn hybrid_keeps_reliability_unlike_pure_p2p() {
    let with = hybrid(true);
    let without = hybrid(false);
    let rate = |o: &netsession::hybrid::SimOutput| {
        o.dataset
            .downloads
            .iter()
            .filter(|d| d.outcome == DownloadOutcome::Completed)
            .count() as f64
            / o.dataset.downloads.len().max(1) as f64
    };
    assert!(rate(&with) > 0.85, "hybrid completion {}", rate(&with));
    assert!(
        rate(&with) > rate(&without),
        "backstop must beat pure p2p ({} vs {})",
        rate(&with),
        rate(&without)
    );
}

#[test]
fn freeloading_is_harmless_in_the_hybrid_but_punished_in_bittorrent() {
    // Hybrid: force everyone to disable uploads — downloads still complete
    // (the infrastructure absorbs the cost, §3.4).
    let mut cfg = ScenarioConfig::tiny();
    cfg.enable_fraction_override = Some(0.0);
    let out = HybridSim::run_config(cfg);
    let completed = out
        .dataset
        .downloads
        .iter()
        .filter(|d| d.outcome == DownloadOutcome::Completed)
        .count() as f64
        / out.dataset.downloads.len().max(1) as f64;
    assert!(
        completed > 0.85,
        "all-freeloader hybrid still completes: {completed}"
    );
    assert_eq!(
        out.stats.p2p_bytes, 0,
        "nobody uploads, nobody swarm-serves"
    );

    // BitTorrent: free-riders in a seed-scarce swarm fall behind or starve.
    let mut rng = DetRng::seeded(11);
    let swarm = Swarm::new(
        SwarmConfig {
            freerider_fraction: 0.3,
            leechers: 80,
            seeds: 1,
            pieces: 96,
            max_rounds: 1500,
            ..SwarmConfig::default()
        },
        &mut rng,
    );
    let result = swarm.run(&mut rng);
    let contributors = result
        .mean_finish_round(false)
        .expect("contributors finish");
    // None means fully starved — the strongest form of punishment.
    if let Some(freeriders) = result.mean_finish_round(true) {
        assert!(freeriders > contributors);
    }
}

#[test]
fn infra_cdn_speed_is_the_downlink_hybrid_peers_add_capacity_not_speed() {
    // Fig 4's story: peer-assisted downloads are somewhat slower per
    // download, but the system serves the same demand with a fraction of
    // the infrastructure.
    let out = hybrid(true);
    let offload =
        out.stats.p2p_bytes as f64 / (out.stats.p2p_bytes + out.stats.edge_bytes).max(1) as f64;
    assert!(offload > 0.15, "offload {offload}");
}
