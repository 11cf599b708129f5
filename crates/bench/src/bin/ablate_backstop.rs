//! A2 — the edge backstop vs pure p2p.
//!
//! The defining hybrid property (§2.3, §3.3): "if a peer is 'unlucky' and
//! picks peers that are slow or unreliable, the infrastructure can cover
//! the difference." Turning the backstop off should crater completion and
//! speed for unlucky downloads; the BitTorrent baseline shows the same
//! failure mode independently.

use netsession_analytics::outcomes;
use netsession_analytics::stats::Cdf;
use netsession_baseline::bittorrent::{Swarm, SwarmConfig};
use netsession_bench::runner::{config_for, parse_flags_or_exit, write_sidecars};
use netsession_core::rng::DetRng;
use netsession_hybrid::HybridSim;
use netsession_logs::records::DownloadOutcome;
use netsession_obs::MetricsRegistry;

fn main() -> std::io::Result<()> {
    let metrics = MetricsRegistry::new();
    let args = parse_flags_or_exit("ablate_backstop");

    println!("A2: the infrastructure backstop");
    println!(
        "{:<22}{:>12}{:>14}{:>18}",
        "system", "completed", "abandoned", "median speed Mbps"
    );
    let mut baseline_trace = None;
    for (label, backstop) in [("hybrid (backstop)", true), ("pure p2p (no edge)", false)] {
        let mut cfg = config_for(&args);
        cfg.edge_backstop = backstop;
        let out = HybridSim::run_config_with(cfg, &metrics);
        if baseline_trace.is_none() {
            baseline_trace = Some(out.trace.clone());
        }
        let (infra, p2p) = outcomes::outcome_split(&out.dataset);
        let completed = (infra.completed * infra.total as f64 + p2p.completed * p2p.total as f64)
            / (infra.total + p2p.total).max(1) as f64;
        let abandoned = (infra.abandoned * infra.total as f64 + p2p.abandoned * p2p.total as f64)
            / (infra.total + p2p.total).max(1) as f64;
        let speeds: Vec<f64> = out
            .dataset
            .downloads
            .iter()
            .filter(|d| d.outcome == DownloadOutcome::Completed)
            .map(|d| d.mean_speed().as_mbps())
            .filter(|s| *s > 0.0)
            .collect();
        let median = if speeds.is_empty() {
            0.0
        } else {
            Cdf::from_values(speeds).median()
        };
        println!(
            "{:<22}{:>11.1}%{:>13.1}%{:>18.2}",
            label,
            completed * 100.0,
            abandoned * 100.0,
            median
        );
    }

    // The independent BitTorrent baseline: seed death strands the swarm.
    let mut rng = DetRng::seeded(args.seed);
    let healthy = Swarm::new(SwarmConfig::default(), &mut rng).run(&mut rng);
    let mut rng = DetRng::seeded(args.seed);
    let orphaned = Swarm::new(
        SwarmConfig {
            seed_leaves_at: Some(2),
            ..SwarmConfig::default()
        },
        &mut rng,
    )
    .run(&mut rng);
    println!();
    println!(
        "BitTorrent baseline: completion {:.0}% with stable seed, {:.0}% when the seed dies early",
        healthy.completion_rate() * 100.0,
        orphaned.completion_rate() * 100.0
    );

    if let Some(trace) = &baseline_trace {
        write_sidecars("ablate_backstop", &metrics, trace)?;
    }
    Ok(())
}
