//! chaos — the §3.8 robustness campaign.
//!
//! Runs the standard scenario twice with the same seed: once untouched
//! (baseline) and once under a deterministic fault-injection campaign —
//! CN crashes (paced readmission), DN soft-state wipes (RE-ADD
//! fate-sharing), a fleet-wide edge outage (backstop flows cut, then
//! re-attached), and a mass churn burst. Reports the service-level
//! damage (completion rate, peer-efficiency dip) and the recovery
//! machinery's work, plus per-fault-class recovery latency measured from
//! the always-sampled fault trace spans.

use netsession_bench::runner::{
    config_for, parse_flags_or_exit, pct, write_result, write_sidecars,
};
use netsession_hybrid::alerts::FAULT_CLASS_RULES;
use netsession_hybrid::{FaultEvent, FaultKind, HybridSim, SimOutput};
use netsession_logs::records::DownloadOutcome;
use netsession_obs::json::push_str_literal;
use netsession_obs::AlertEvent;
use std::collections::BTreeMap;

/// The injected campaign: one fault class per week, every region.
fn campaign() -> Vec<FaultEvent> {
    let mut events = Vec::new();
    for region in 0..9 {
        events.push(FaultEvent {
            at_hours: 186, // day 8
            kind: FaultKind::CnCrash { region },
        });
        events.push(FaultEvent {
            at_hours: 330, // day 14
            kind: FaultKind::DnWipe { region },
        });
        events.push(FaultEvent {
            at_hours: 480, // day 20
            kind: FaultKind::EdgeOutage {
                region,
                secs: 7_200,
            },
        });
    }
    events.push(FaultEvent {
        at_hours: 600, // day 25
        kind: FaultKind::ChurnBurst { fraction: 0.3 },
    });
    events
}

/// First injection hour of each fault class, in [`FAULT_CLASS_RULES`]
/// order (joined against the campaign above).
const INJECTION_HOURS: [u64; 4] = [186, 330, 480, 600];

/// Time-to-detection per fault class: the first raise of the class's
/// detection rule at-or-after its injection instant.
fn detection_table(out: &SimOutput) -> Vec<(&'static str, &'static str, u64, Option<u64>)> {
    FAULT_CLASS_RULES
        .iter()
        .zip(INJECTION_HOURS)
        .map(|((class, rule, _), at_hours)| {
            let injected_us = at_hours * 3_600_000_000;
            let detected = out
                .alerts
                .iter()
                .find(|e| e.rule == *rule && e.raised && e.at_us >= injected_us)
                .map(|e| e.at_us);
            (*class, *rule, injected_us, detected)
        })
        .collect()
}

/// Deterministic sidecar: the full alert log plus the TTD table as JSON.
fn write_alerts_sidecars(
    ttd: &[(&str, &str, u64, Option<u64>)],
    log: &[AlertEvent],
    baseline_alerts: usize,
) -> std::io::Result<()> {
    let mut txt = String::from("# chaos-run alert transitions (virtual time)\n");
    for e in log {
        txt.push_str(&format!(
            "{:>10.1}s  {}  {:<20} {}\n",
            e.at_us as f64 / 1e6,
            if e.raised { "RAISE" } else { "clear" },
            e.rule,
            e.message
        ));
    }

    let mut json = String::from("{\n  \"baseline_alerts\": ");
    json.push_str(&baseline_alerts.to_string());
    json.push_str(",\n  \"time_to_detection\": [\n");
    for (i, (class, rule, injected_us, detected)) in ttd.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"class\": \"{class}\", \"rule\": \"{rule}\", \"injected_us\": {injected_us}, "
        ));
        match detected {
            Some(at) => json.push_str(&format!(
                "\"detected_us\": {at}, \"ttd_s\": {:.1}}}",
                (at - injected_us) as f64 / 1e6
            )),
            None => json.push_str("\"detected_us\": null, \"ttd_s\": null}"),
        }
        json.push_str(if i + 1 < ttd.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"log\": [\n");
    for (i, e) in log.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"at_us\": {}, \"rule\": \"{}\", \"raised\": {}, \"message\": ",
            e.at_us, e.rule, e.raised
        ));
        push_str_literal(&mut json, &e.message);
        json.push('}');
        json.push_str(if i + 1 < log.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    write_result("alerts", "txt", txt.as_bytes())?;
    write_result("alerts", "json", json.as_bytes())
}

fn completion_rate(out: &SimOutput) -> f64 {
    out.stats.completed as f64 / out.dataset.downloads.len().max(1) as f64
}

fn peer_efficiency(out: &SimOutput) -> f64 {
    let total = out.stats.p2p_bytes + out.stats.edge_bytes;
    if total == 0 {
        0.0
    } else {
        out.stats.p2p_bytes as f64 / total as f64
    }
}

/// Per-day peer byte share over completed downloads, keyed by the day the
/// download ended.
fn daily_efficiency(out: &SimOutput) -> BTreeMap<u64, f64> {
    let mut per_day: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for rec in &out.dataset.downloads {
        if rec.outcome != DownloadOutcome::Completed {
            continue;
        }
        let day = rec.ended.as_micros() / (24 * 3_600 * 1_000_000);
        let e = per_day.entry(day).or_insert((0, 0));
        e.0 += rec.bytes_peers.bytes();
        e.1 += rec.bytes_infra.bytes();
    }
    per_day
        .into_iter()
        .map(|(day, (peers, infra))| {
            let total = peers + infra;
            let eff = if total == 0 {
                0.0
            } else {
                peers as f64 / total as f64
            };
            (day, eff)
        })
        .collect()
}

fn main() -> std::io::Result<()> {
    let args = parse_flags_or_exit("chaos");
    let cfg = config_for(&args);

    let baseline = HybridSim::run_config(cfg.clone());
    assert!(
        baseline.alerts.is_empty(),
        "zero-fault baseline fired alerts (false positives): {:?}",
        baseline.alerts
    );
    let mut chaos_cfg = cfg;
    chaos_cfg.faults.events = campaign();
    let out = HybridSim::run_config(chaos_cfg);
    write_sidecars("chaos", &out.metrics, &out.trace)?;
    let ttd = detection_table(&out);
    write_alerts_sidecars(&ttd, &out.alerts, baseline.alerts.len())?;

    println!("injected campaign (one fault class per week, all 9 regions):");
    println!(
        "  day  8  cn_crash     control connections drop; paced readmission + re-registration"
    );
    println!("  day 14  dn_wipe      directory soft state lost; paced RE-ADD repopulates it");
    println!(
        "  day 20  edge_outage  edge dark for 2h; backstop flows cut, re-attached on recovery"
    );
    println!("  day 25  churn_burst  30% of idle online peers drop offline at once");
    println!();

    println!("service level                   baseline     chaos");
    println!(
        "downloads completed             {:<12} {}",
        baseline.stats.completed, out.stats.completed
    );
    println!(
        "completion rate                 {:<12} {}",
        pct(completion_rate(&baseline)),
        pct(completion_rate(&out))
    );
    println!(
        "peer efficiency (byte share)    {:<12} {}",
        pct(peer_efficiency(&baseline)),
        pct(peer_efficiency(&out))
    );
    println!(
        "p2p bytes (TB)                  {:<12.2} {:.2}",
        baseline.stats.p2p_bytes as f64 / 1e12,
        out.stats.p2p_bytes as f64 / 1e12
    );
    println!(
        "edge bytes (TB)                 {:<12.2} {:.2}",
        baseline.stats.edge_bytes as f64 / 1e12,
        out.stats.edge_bytes as f64 / 1e12
    );
    println!();

    // The worst per-day peer-efficiency dip vs the baseline.
    let base_daily = daily_efficiency(&baseline);
    let chaos_daily = daily_efficiency(&out);
    let mut worst: Option<(u64, f64, f64)> = None;
    for (day, chaos_eff) in &chaos_daily {
        let Some(base_eff) = base_daily.get(day) else {
            continue;
        };
        let dip = base_eff - chaos_eff;
        if worst.is_none_or(|(_, b, c)| dip > b - c) {
            worst = Some((*day, *base_eff, *chaos_eff));
        }
    }
    match worst {
        Some((day, base_eff, chaos_eff)) => println!(
            "worst peer-efficiency dip: day {:>2}  {} -> {}  ({:+.1} pts)",
            day,
            pct(base_eff),
            pct(chaos_eff),
            (chaos_eff - base_eff) * 100.0
        ),
        None => println!("worst peer-efficiency dip: n/a"),
    }
    println!();

    let counter = |name: &str| out.metrics.counter(name).get();
    println!("recovery machinery (chaos run):");
    println!(
        "  cn crashes: {} dropped {} connections; {} paced readmissions re-registered {} cached versions",
        counter("hybrid.fault.cn_crashes"),
        counter("hybrid.fault.peers_disconnected"),
        counter("hybrid.fault.readmissions"),
        counter("hybrid.fault.reregistered_versions"),
    );
    println!(
        "  dn wipes:   {} triggered {} RE-ADDs covering {} versions",
        counter("hybrid.fault.dn_wipes"),
        counter("hybrid.fault.readds"),
        counter("hybrid.fault.readd_versions"),
    );
    println!(
        "  edge:       {} outages cut {} backstop flows, {} re-attached on recovery",
        counter("hybrid.fault.edge_outages"),
        counter("hybrid.fault.edge_flows_cut"),
        counter("hybrid.fault.edge_flows_restored"),
    );
    println!(
        "  churn:      {} burst(s) took {} peers offline",
        counter("hybrid.fault.churn_bursts"),
        counter("hybrid.fault.churn_offline"),
    );
    println!(
        "  degraded:   {} downloads started edge-only while control was unreachable",
        counter("hybrid.fault.edge_only_downloads"),
    );
    println!();

    // Recovery latency per fault class, from the always-sampled fault
    // spans (span end covers the paced recovery wave / outage window).
    let mut latency: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for span in out.trace.spans() {
        if span.cat != "fault" {
            continue;
        }
        let Some(end) = span.end_us else { continue };
        let dur = end.saturating_sub(span.start_us);
        let e = latency.entry(span.name).or_insert((0, 0));
        e.0 += 1;
        e.1 = e.1.max(dur);
    }
    println!("recovery latency (virtual time, per fault class):");
    for (name, (n, max_us)) in &latency {
        println!(
            "  {:<18} n={:<3} max recovery {:.1}s",
            name,
            n,
            *max_us as f64 / 1e6
        );
    }
    println!();

    // §3.8 alerting: the AlertEngine ran over virtual time during both
    // runs. The baseline fired nothing (asserted above); here the chaos
    // run must detect every injected class.
    println!("alert engine (baseline run): 0 transitions — zero false positives");
    println!("time-to-detection (first raise after injection, virtual time):");
    let mut missed = 0;
    for (class, rule, injected_us, detected) in &ttd {
        match detected {
            Some(at) => println!(
                "  {:<12} rule {:<16} injected day {:<5.2} detected +{:.1}s",
                class,
                rule,
                *injected_us as f64 / 86.4e9,
                (at - injected_us) as f64 / 1e6
            ),
            None => {
                missed += 1;
                println!("  {class:<12} rule {rule:<16} NEVER DETECTED");
            }
        }
    }
    println!(
        "alert transitions over the chaos month: {} ({} raises)",
        out.alerts.len(),
        out.alerts.iter().filter(|e| e.raised).count()
    );
    assert_eq!(missed, 0, "every injected fault class must be detected");
    Ok(())
}
