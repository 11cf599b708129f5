//! A5 — sweep of the uploads-enabled fraction.
//!
//! §5.1 observes ~31 % enabled and argues the infrastructure "can easily
//! absorb the cost of a few users who decide not to upload" (§3.4). The
//! sweep quantifies how peer efficiency and edge offload scale with the
//! willing-uploader fraction.

use netsession_analytics::overview;
use netsession_bench::runner::{config_for, parse_flags_or_exit, write_sidecars};
use netsession_hybrid::HybridSim;
use netsession_obs::MetricsRegistry;

fn main() -> std::io::Result<()> {
    let metrics = MetricsRegistry::new();
    let args = parse_flags_or_exit("ablate_enablefrac");

    println!("A5: uploads-enabled fraction sweep");
    println!(
        "{:>10}{:>16}{:>14}{:>14}",
        "enabled", "mean eff %", "p2p TB", "edge TB"
    );
    let mut baseline_trace = None;
    for frac in [0.0, 0.1, 0.31, 0.6, 1.0] {
        let mut cfg = config_for(&args);
        cfg.enable_fraction_override = Some(frac);
        let out = HybridSim::run_config_with(cfg, &metrics);
        if baseline_trace.is_none() {
            baseline_trace = Some(out.trace.clone());
        }
        let h = overview::headline(&out.dataset);
        println!(
            "{:>9.0}%{:>16.1}{:>14.2}{:>14.2}",
            frac * 100.0,
            h.mean_peer_efficiency * 100.0,
            out.stats.p2p_bytes as f64 / 1e12,
            out.stats.edge_bytes as f64 / 1e12
        );
    }
    println!();
    println!(
        "expectation: efficiency grows with the enabled fraction; ~31% already \
         yields the bulk of the achievable offload (diminishing returns)"
    );

    if let Some(trace) = &baseline_trace {
        write_sidecars("ablate_enablefrac", &metrics, trace)?;
    }
    Ok(())
}
