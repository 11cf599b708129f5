//! A4 — sweep of the peers initially returned by the control plane.
//!
//! Fig 6 reads peer efficiency against the peer-list size the standard run
//! happened to return; this ablation forces the control-plane `max_peers`
//! to 5/10/20/40 and re-simulates. Paper shape: ~80 % efficiency is
//! generally reached with about 25–30 peers, consistent with BitTorrent
//! needing a few tens of peers.

use netsession_analytics::stats::mean;
use netsession_bench::runner::{config_for, parse_flags_or_exit, write_sidecars};
use netsession_hybrid::HybridSim;
use netsession_logs::records::DownloadOutcome;
use netsession_obs::MetricsRegistry;

fn main() -> std::io::Result<()> {
    let metrics = MetricsRegistry::new();
    let args = parse_flags_or_exit("ablate_peerlist");

    println!("A4 sweep: forcing max peers returned (re-simulating)");
    println!("{:>12}{:>12}", "max_peers", "mean eff %");
    let mut baseline_trace = None;
    for max in [5usize, 10, 20, 40] {
        let mut cfg = config_for(&args);
        cfg.peers_returned = max;
        let out = HybridSim::run_config_with(cfg, &metrics);
        if baseline_trace.is_none() {
            baseline_trace = Some(out.trace.clone());
        }
        let effs: Vec<f64> = out
            .dataset
            .downloads
            .iter()
            .filter(|d| d.p2p_enabled && d.outcome == DownloadOutcome::Completed)
            .map(|d| d.peer_efficiency() * 100.0)
            .collect();
        println!("{:>12}{:>12.1}", max, mean(effs));
    }

    if let Some(trace) = &baseline_trace {
        write_sidecars("ablate_peerlist", &metrics, trace)?;
    }
    Ok(())
}
