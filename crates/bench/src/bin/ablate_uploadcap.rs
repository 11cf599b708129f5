//! A3 — the per-object upload cap.
//!
//! §6.1: "NetSession avoids such biases in part by limiting the number of
//! times a peer will upload a file it has locally cached." Removing the
//! cap should skew upload volume toward a smaller set of (high-upstream)
//! peers and ASes.

use netsession_bench::runner::{config_for, parse_flags_or_exit, write_sidecars};
use netsession_hybrid::HybridSim;
use netsession_obs::MetricsRegistry;
use std::collections::HashMap;

fn main() -> std::io::Result<()> {
    let metrics = MetricsRegistry::new();
    let args = parse_flags_or_exit("ablate_uploadcap");

    println!("A3: the per-object upload cap");
    println!(
        "{:<18}{:>14}{:>22}{:>20}",
        "policy", "p2p TB", "top-1% uploader share", "max uploads/peer"
    );
    let mut baseline_trace = None;
    for (label, cap) in [("cap = 30", Some(30u32)), ("uncapped", None)] {
        let mut cfg = config_for(&args);
        cfg.per_object_upload_cap = cap;
        let out = HybridSim::run_config_with(cfg, &metrics);
        if baseline_trace.is_none() {
            baseline_trace = Some(out.trace.clone());
        }
        // Upload bytes per uploader GUID.
        let mut per_uploader: HashMap<u128, u64> = HashMap::new();
        for t in &out.dataset.transfers {
            *per_uploader.entry(t.from_guid.0).or_insert(0) += t.bytes.bytes();
        }
        let mut vols: Vec<u64> = per_uploader.values().copied().collect();
        vols.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = vols.iter().sum();
        let top1: u64 = vols[..(vols.len() / 100).max(1)].iter().sum();
        // Upload *counts* per (uploader, object).
        let mut counts: HashMap<(u128, u64), u32> = HashMap::new();
        for t in &out.dataset.transfers {
            *counts.entry((t.from_guid.0, t.object.0)).or_insert(0) += 1;
        }
        let max_count = counts.values().max().copied().unwrap_or(0);
        println!(
            "{:<18}{:>14.2}{:>21.1}%{:>20}",
            label,
            out.stats.p2p_bytes as f64 / 1e12,
            top1 as f64 / total.max(1) as f64 * 100.0,
            max_count
        );
    }
    println!();
    println!("expectation: uncapped concentrates upload volume on fewer peers");

    if let Some(trace) = &baseline_trace {
        write_sidecars("ablate_uploadcap", &metrics, trace)?;
    }
    Ok(())
}
