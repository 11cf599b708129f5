//! The §3.8 robustness campaign as a `paper` entry.
//!
//! Reads two months with the same seed: the standard one (baseline) and
//! one under a deterministic fault-injection campaign — CN crashes (paced
//! readmission), DN soft-state wipes (RE-ADD fate-sharing), a fleet-wide
//! edge outage (backstop flows cut, then re-attached), and a mass churn
//! burst. Reports the service-level damage (completion rate,
//! peer-efficiency dip) and the recovery machinery's work, plus
//! per-fault-class recovery latency measured from the always-sampled fault
//! trace spans, and the alert log with its time-to-detection table
//! (`results/alerts.{txt,json}`).

use netsession_hybrid::alerts::FAULT_CLASS_RULES;
use netsession_hybrid::{FaultEvent, FaultKind, SimOutput};
use netsession_logs::records::DownloadOutcome;
use netsession_obs::json::push_str_literal;
use netsession_obs::AlertEvent;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::runner::pct;

/// The injected campaign: one fault class per week, every region.
pub(super) fn campaign() -> Vec<FaultEvent> {
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

/// The [`FAULT_CLASS_RULES`] class label of a fault.
fn class_of(kind: &FaultKind) -> &'static str {
    match kind {
        FaultKind::CnCrash { .. } => "cn_crash",
        FaultKind::DnWipe { .. } => "dn_wipe",
        FaultKind::EdgeOutage { .. } => "edge_outage",
        FaultKind::ChurnBurst { .. } => "churn_burst",
    }
}

/// Hour of the first injection of fault class `class` in `events`.
fn injection_hour(events: &[FaultEvent], class: &str) -> Option<u64> {
    events
        .iter()
        .filter(|e| class_of(&e.kind) == class)
        .map(|e| e.at_hours)
        .min()
}

/// Time-to-detection per fault class the run's own campaign injected: the
/// first raise of the class's detection rule at-or-after its first
/// injection instant.
fn detection_table(out: &SimOutput) -> Vec<(&'static str, &'static str, u64, Option<u64>)> {
    FAULT_CLASS_RULES
        .iter()
        .filter_map(|(class, rule, _)| {
            let at_hours = injection_hour(&out.scenario.config.faults.events, class)?;
            let injected_us = at_hours * 3_600_000_000;
            let detected = out
                .alerts
                .iter()
                .find(|e| e.rule == *rule && e.raised && e.at_us >= injected_us)
                .map(|e| e.at_us);
            Some((*class, *rule, injected_us, detected))
        })
        .collect()
}

/// The alert log as text and, with the TTD table, as JSON
/// (`results/alerts.txt`, `results/alerts.json`).
fn alerts_files(
    ttd: &[(&str, &str, u64, Option<u64>)],
    log: &[AlertEvent],
    baseline_alerts: usize,
) -> (String, String) {
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
    (txt, json)
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

/// `chaos.txt`, `alerts.txt` and `alerts.json` from the baseline month and
/// the campaign month.
pub(super) fn render(months: &mut dyn Iterator<Item = Arc<SimOutput>>) -> Vec<String> {
    let mut month = || months.next().expect("chaos reads two months");
    let (baseline, out) = (&month(), &month());
    assert!(
        baseline.alerts.is_empty(),
        "zero-fault baseline fired alerts (false positives): {:?}",
        baseline.alerts
    );
    let ttd = detection_table(out);
    let (alerts_txt, alerts_json) = alerts_files(&ttd, &out.alerts, baseline.alerts.len());

    let mut txt = String::new();
    txt += "injected campaign (one fault class per week, all 9 regions):\n";
    txt += "  day  8  cn_crash     control connections drop; paced readmission + re-registration\n";
    txt += "  day 14  dn_wipe      directory soft state lost; paced RE-ADD repopulates it\n";
    txt += "  day 20  edge_outage  edge dark for 2h; backstop flows cut, re-attached on recovery\n";
    txt += "  day 25  churn_burst  30% of idle online peers drop offline at once\n";
    txt.push('\n');

    txt += "service level                   baseline     chaos\n";
    txt += &format!(
        "downloads completed             {:<12} {}\n",
        baseline.stats.completed, out.stats.completed
    );
    txt += &format!(
        "completion rate                 {:<12} {}\n",
        pct(completion_rate(baseline)),
        pct(completion_rate(out))
    );
    txt += &format!(
        "peer efficiency (byte share)    {:<12} {}\n",
        pct(peer_efficiency(baseline)),
        pct(peer_efficiency(out))
    );
    txt += &format!(
        "p2p bytes (TB)                  {:<12.2} {:.2}\n",
        baseline.stats.p2p_bytes as f64 / 1e12,
        out.stats.p2p_bytes as f64 / 1e12
    );
    txt += &format!(
        "edge bytes (TB)                 {:<12.2} {:.2}\n",
        baseline.stats.edge_bytes as f64 / 1e12,
        out.stats.edge_bytes as f64 / 1e12
    );
    txt.push('\n');

    // The worst per-day peer-efficiency dip vs the baseline.
    let base_daily = daily_efficiency(baseline);
    let chaos_daily = daily_efficiency(out);
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
        Some((day, base_eff, chaos_eff)) => {
            txt += &format!(
                "worst peer-efficiency dip: day {:>2}  {} -> {}  ({:+.1} pts)\n",
                day,
                pct(base_eff),
                pct(chaos_eff),
                (chaos_eff - base_eff) * 100.0
            )
        }
        None => txt += "worst peer-efficiency dip: n/a\n",
    }
    txt.push('\n');

    let counter = |name: &str| out.metrics.counter(name).get();
    txt += "recovery machinery (chaos run):\n";
    txt += &format!(
        "  cn crashes: {} dropped {} connections; {} paced readmissions re-registered {} cached versions\n",
        counter("hybrid.fault.cn_crashes"),
        counter("hybrid.fault.peers_disconnected"),
        counter("hybrid.fault.readmissions"),
        counter("hybrid.fault.reregistered_versions"),
    );
    txt += &format!(
        "  dn wipes:   {} triggered {} RE-ADDs covering {} versions\n",
        counter("hybrid.fault.dn_wipes"),
        counter("hybrid.fault.readds"),
        counter("hybrid.fault.readd_versions"),
    );
    txt += &format!(
        "  edge:       {} outages cut {} backstop flows, {} re-attached on recovery\n",
        counter("hybrid.fault.edge_outages"),
        counter("hybrid.fault.edge_flows_cut"),
        counter("hybrid.fault.edge_flows_restored"),
    );
    txt += &format!(
        "  churn:      {} burst(s) took {} peers offline\n",
        counter("hybrid.fault.churn_bursts"),
        counter("hybrid.fault.churn_offline"),
    );
    txt += &format!(
        "  degraded:   {} downloads started edge-only while control was unreachable\n",
        counter("hybrid.fault.edge_only_downloads"),
    );
    txt.push('\n');

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
    txt += "recovery latency (virtual time, per fault class):\n";
    for (name, (n, max_us)) in &latency {
        txt += &format!(
            "  {:<18} n={:<3} max recovery {:.1}s\n",
            name,
            n,
            *max_us as f64 / 1e6
        );
    }
    txt.push('\n');

    // §3.8 alerting: the AlertEngine ran over virtual time during both
    // runs. The baseline fired nothing (asserted above); here the chaos
    // run must detect every injected class.
    txt += "alert engine (baseline run): 0 transitions — zero false positives\n";
    txt += "time-to-detection (first raise after injection, virtual time):\n";
    let mut missed = 0;
    for (class, rule, injected_us, detected) in &ttd {
        match detected {
            Some(at) => {
                txt += &format!(
                    "  {:<12} rule {:<16} injected day {:<5.2} detected +{:.1}s\n",
                    class,
                    rule,
                    *injected_us as f64 / 86.4e9,
                    (at - injected_us) as f64 / 1e6
                )
            }
            None => {
                missed += 1;
                txt += &format!("  {class:<12} rule {rule:<16} NEVER DETECTED\n");
            }
        }
    }
    txt += &format!(
        "alert transitions over the chaos month: {} ({} raises)\n",
        out.alerts.len(),
        out.alerts.iter().filter(|e| e.raised).count()
    );
    assert_eq!(missed, 0, "every injected fault class must be detected");
    vec![txt, alerts_txt, alerts_json]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_hours_come_from_the_campaign_and_cover_every_class() {
        let hours: Vec<Option<u64>> = FAULT_CLASS_RULES
            .iter()
            .map(|(class, _, _)| injection_hour(&campaign(), class))
            .collect();
        assert_eq!(hours, [Some(186), Some(330), Some(480), Some(600)]);
    }
}
