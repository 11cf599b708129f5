//! A6 — persistent background client vs launch-on-demand sessions.
//!
//! §3.4: "the short session times that have been observed in p2p systems
//! suggest that users launch the client only when they intend to download
//! something, so the time window in which objects can be uploaded to other
//! peers tends to be very short. As a persistent background application,
//! NetSession does not have this problem." The ablation shrinks each
//! peer's daily online window to model launch-on-demand clients.

use netsession_analytics::overview;
use netsession_bench::runner::{config_for, parse_flags_or_exit, write_sidecars};
use netsession_hybrid::HybridSim;
use netsession_obs::MetricsRegistry;

fn main() -> std::io::Result<()> {
    let metrics = MetricsRegistry::new();
    let args = parse_flags_or_exit("ablate_sessions");

    println!("A6: background client vs launch-on-demand sessions");
    println!(
        "{:<28}{:>16}{:>14}{:>12}",
        "availability model", "mean eff %", "p2p TB", "logins"
    );
    let mut baseline_trace = None;
    for (label, factor) in [
        ("persistent background", 1.0),
        ("half-day sessions", 0.5),
        ("short sessions (15%)", 0.15),
    ] {
        let mut cfg = config_for(&args);
        cfg.session_mode_factor = factor;
        let out = HybridSim::run_config_with(cfg, &metrics);
        if baseline_trace.is_none() {
            baseline_trace = Some(out.trace.clone());
        }
        let h = overview::headline(&out.dataset);
        println!(
            "{:<28}{:>16.1}{:>14.2}{:>12}",
            label,
            h.mean_peer_efficiency * 100.0,
            out.stats.p2p_bytes as f64 / 1e12,
            out.stats.logins
        );
    }
    println!();
    println!("expectation: shorter upload windows shrink swarm capacity and efficiency");

    if let Some(trace) = &baseline_trace {
        write_sidecars("ablate_sessions", &metrics, trace)?;
    }
    Ok(())
}
