//! `tsreport` — deterministic operational report over a
//! `netsession-timeseries/1` sidecar (`scale --chaos` output).
//!
//! Answers the paper's temporal questions from the artifact alone, no
//! re-run needed:
//!
//! - the fleet diurnal curve (mean active peers per hour-of-day — the
//!   Fig. 2 shape, summed over regions whose local hours differ);
//! - per-region peak/trough windows of download starts;
//! - every injected fault joined to its `AlertEngine` detection with
//!   time-to-detection, plus the local dip vs the region's mean;
//! - the top-N anomalous windows of the fleet completion series.
//!
//! ```text
//! tsreport [path] [--top N]      default path results/scale.timeseries.json
//! ```
//!
//! Everything printed is a pure function of the sidecar bytes, so the
//! output is byte-deterministic and diffable in gates.

use netsession_analytics::timeseries::{diurnal_profile, peak_trough, top_anomalies};
use netsession_bench::schema::{self, Timeseries};
use netsession_hybrid::alerts::FAULT_CLASS_RULES;

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let mut path = "results/scale.timeseries.json".to_string();
    let mut top_n = 8usize;
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--top" => {
                top_n = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--top <n>"));
                i += 2;
            }
            flag if flag.starts_with("--") => panic!("unknown flag {flag}"),
            p => {
                path = p.to_string();
                i += 1;
            }
        }
    }

    // A sidecar that fails its schema is reported, not half-printed.
    let doc = schema::validate_file(&path).and_then(|doc| {
        doc.timeseries
            .ok_or_else(|| format!("{path}: not a timeseries sidecar"))
    });
    let Timeseries {
        series,
        alerts,
        detections,
    } = doc.unwrap_or_else(|e| {
        eprintln!("tsreport: {e}");
        std::process::exit(2);
    });

    let windows_per_day = (86_400_000_000 / series.interval_us.max(1)) as usize;
    println!(
        "timeseries report: {} windows x {} s, {} regions, {} metrics, {} faults, {} detections",
        series.windows,
        series.interval_us / 1_000_000,
        series.groups.len(),
        series.metrics.len(),
        alerts.len(),
        detections.len()
    );

    // Fleet diurnal curve: mean active peers per hour-of-day (UTC grid;
    // regional local-time offsets smear the trough, exactly as the
    // paper's global curves do).
    let active = series
        .metric("scaled.active_peers")
        .expect("active_peers in catalog")
        .global();
    let prof = diurnal_profile(&active, windows_per_day.max(1));
    let peak_slot = prof
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(&a.0)))
        .map_or(0, |(s, _)| s);
    let top = prof.iter().cloned().fold(0.0f64, f64::max).max(1.0);
    println!("\ndiurnal curve (mean active peers per hour-of-day, UTC):");
    for (slot, &v) in prof.iter().enumerate() {
        let bar = "#".repeat(((v / top) * 40.0).round() as usize);
        println!(
            "  h{slot:02} {v:>12.1} {bar}{}",
            if slot == peak_slot { " <- peak" } else { "" }
        );
    }

    // Per-region peak/trough of download starts.
    let starts = series
        .metric("scaled.downloads_started")
        .expect("downloads_started in catalog");
    println!("\nper-region download-start peak/trough (window = sim hour):");
    for (g, label) in series.groups.iter().enumerate() {
        if let Some((peak, trough)) = peak_trough(&starts.values[g]) {
            println!(
                "  {label:>14}: peak {} @h{:03}, trough {} @h{:03}",
                peak.value, peak.window, trough.value, trough.window
            );
        }
    }

    // Injected faults joined to their detections.
    if !alerts.is_empty() {
        let bytes_peers = series
            .metric("scaled.bytes_peers")
            .expect("bytes_peers in catalog");
        println!("\nfault detections (rule join, time-to-detection in minutes):");
        for a in &alerts {
            let rule = FAULT_CLASS_RULES
                .iter()
                .find(|(c, _, _)| *c == a.class)
                .map(|(_, r, _)| *r)
                .unwrap_or("?");
            let inject_us = a.at_hours.saturating_mul(3_600_000_000);
            let region = series.groups[a.region as usize].as_str();
            // Earliest raise of the paired rule at-or-after injection;
            // region-scoped detection preferred, fleet-wide accepted.
            let hit = detections
                .iter()
                .filter(|d| d.event.rule == rule && d.event.raised && d.event.at_us >= inject_us)
                .min_by_key(|d| (d.event.at_us, d.region.as_deref() != Some(region)));
            let row = &bytes_peers.values[a.region as usize];
            let mean = row.iter().map(|&v| v as f64).sum::<f64>() / row.len().max(1) as f64;
            let at = row.get(a.window as usize).copied().unwrap_or(0) as f64;
            let dip = if mean > 0.0 {
                100.0 * (at - mean) / mean
            } else {
                0.0
            };
            match hit {
                Some(d) => println!(
                    "  h{:03} {:>14} {:<11} detail={:<6} -> {} ({}) ttd {:>5.1} min, peer-bytes dip {:+.1}%",
                    a.at_hours,
                    region,
                    a.class,
                    a.detail,
                    d.event.rule,
                    d.region.as_deref().unwrap_or("fleet"),
                    (d.event.at_us - inject_us) as f64 / 60e6,
                    dip,
                ),
                None => println!(
                    "  h{:03} {:>14} {:<11} detail={:<6} -> UNDETECTED",
                    a.at_hours, region, a.class, a.detail
                ),
            }
        }
    }

    // Most anomalous completion windows.
    let completed = series
        .metric("scaled.downloads_completed")
        .expect("downloads_completed in catalog")
        .global();
    println!("\ntop {top_n} anomalous windows (fleet downloads completed, |z|):");
    for a in top_anomalies(&completed, top_n) {
        println!("  h{:03} value {:>10} z {:+.2}", a.window, a.value, a.z);
    }
}
