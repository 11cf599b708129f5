//! A1 — locality-aware selection vs random selection.
//!
//! The paper argues (§3.7, §6.1, citing Choffnes & Bustamante) that a
//! simple locality-aware selection strategy avoids burdening ISPs. This
//! ablation turns the locality ladder off and measures intra-AS share and
//! cross-region traffic.

use netsession_analytics::astraffic;
use netsession_bench::runner::{config_for, parse_flags_or_exit, write_sidecars};
use netsession_hybrid::HybridSim;
use netsession_obs::MetricsRegistry;

fn main() -> std::io::Result<()> {
    let metrics = MetricsRegistry::new();
    let args = parse_flags_or_exit("ablate_locality");

    let mut rows = Vec::new();
    let mut baseline_trace = None;
    for (label, locality) in [("locality ladder ON", true), ("random selection", false)] {
        let mut cfg = config_for(&args);
        cfg.locality_aware = locality;
        // The ladder only matters when there are more candidates than
        // slots; return few peers so selection is actually selective.
        cfg.peers_returned = 8;
        let out = HybridSim::run_config_with(cfg, &metrics);
        if baseline_trace.is_none() {
            baseline_trace = Some(out.trace.clone());
        }
        let t = astraffic::build(&out.dataset);
        // Cross-country share of p2p bytes.
        let mut cross_country = 0u64;
        let mut total = 0u64;
        for rec in &out.dataset.transfers {
            total += rec.bytes.bytes();
            if rec.from_country != rec.to_country {
                cross_country += rec.bytes.bytes();
            }
        }
        rows.push((
            label,
            t.intra_as_share() * 100.0,
            cross_country as f64 / total.max(1) as f64 * 100.0,
            out.stats.p2p_bytes as f64 / 1e12,
        ));
    }

    println!("A1: impact of locality-aware peer selection");
    println!(
        "{:<22}{:>14}{:>18}{:>14}",
        "policy", "intra-AS %", "cross-country %", "p2p TB"
    );
    for (label, intra, cross, tb) in &rows {
        println!("{label:<22}{intra:>14.1}{cross:>18.1}{tb:>14.2}");
    }
    println!();
    println!(
        "expectation: locality ON keeps more traffic intra-AS and in-country \
         (ISP-friendly), at equal p2p volume"
    );

    if let Some(trace) = &baseline_trace {
        write_sidecars("ablate_locality", &metrics, trace)?;
    }
    Ok(())
}
