//! Causal drill-down over exported download traces.
//!
//! The experiment binaries write `results/<bin>.trace.json` — the
//! standard run's is `results/paper.trace.json` — (Chrome trace-event
//! JSON, see `netsession_obs`'s trace exporter). This module
//! reads one of those files back and reconstructs the *story* of a
//! download: how many sources the control plane offered, which connect
//! attempts succeeded or why they were rejected, what the NAT penalty
//! was, when the first source engaged, and how the bytes split between
//! peers and the edge backstop. The `trace_explain` binary is a thin
//! CLI over [`parse_trace`], [`downloads`], and [`narrate`].

use netsession_obs::json::{parse, JsonValue};
use std::collections::BTreeMap;

/// One `"ph":"X"` event from an exported trace file.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Span name (`"download"`, `"connect_attempt"`, ...).
    pub name: String,
    /// Layer category (`"hybrid"`, `"control"`, `"peer"`, `"edge"`, `"sim"`).
    pub cat: String,
    /// Start timestamp, micros.
    pub ts: u64,
    /// Duration, micros (0 for instants and unfinished spans).
    pub dur: u64,
    /// Trace id (16 hex digits).
    pub trace: String,
    /// Span id (16 hex digits).
    pub span: String,
    /// Parent span id, if any.
    pub parent: Option<String>,
    /// Remaining args: span attributes.
    pub attrs: Vec<(String, JsonValue)>,
}

impl TraceEvent {
    /// Attribute lookup.
    pub fn attr(&self, key: &str) -> Option<&JsonValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn attr_u64(&self, key: &str) -> Option<u64> {
        self.attr(key).and_then(JsonValue::as_u64)
    }

    fn attr_str(&self, key: &str) -> Option<&str> {
        self.attr(key).and_then(JsonValue::as_str)
    }
}

/// A parsed trace file.
#[derive(Clone, Debug)]
pub struct TraceDoc {
    /// All span events, in file order (= recording order).
    pub events: Vec<TraceEvent>,
    /// Spans the sink dropped at its capacity bound.
    pub dropped: u64,
}

/// Parse an exported `.trace.json` document.
pub fn parse_trace(input: &str) -> Result<TraceDoc, String> {
    let doc = parse(input).map_err(|e| format!("invalid JSON at byte {}: {}", e.at, e.msg))?;
    let dropped = doc
        .get("droppedSpans")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    let Some(raw_events) = doc.get("traceEvents").and_then(JsonValue::as_arr) else {
        return Err("missing traceEvents array".into());
    };
    let mut events = Vec::new();
    for ev in raw_events {
        // Skip metadata ("M") and anything that isn't a complete event.
        if ev.get("ph").and_then(JsonValue::as_str) != Some("X") {
            continue;
        }
        let field = |k: &str| -> Result<String, String> {
            ev.get(k)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("event missing string field {k:?}"))
        };
        let num = |k: &str| -> Result<u64, String> {
            ev.get(k)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("event missing numeric field {k:?}"))
        };
        let args = ev.get("args").ok_or("event missing args")?;
        let arg_str = |k: &str| -> Result<String, String> {
            args.get(k)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("args missing {k:?}"))
        };
        let attrs = match args {
            JsonValue::Obj(members) => members
                .iter()
                .filter(|(k, _)| k != "trace" && k != "span" && k != "parent")
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            _ => Vec::new(),
        };
        events.push(TraceEvent {
            name: field("name")?,
            cat: field("cat")?,
            ts: num("ts")?,
            dur: num("dur")?,
            trace: arg_str("trace")?,
            span: arg_str("span")?,
            parent: args
                .get("parent")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
            attrs,
        });
    }
    Ok(TraceDoc { events, dropped })
}

/// One download's events: the root `download` span plus everything that
/// shares its trace id.
#[derive(Clone, Debug)]
pub struct DownloadTrace<'a> {
    /// The root span.
    pub root: &'a TraceEvent,
    /// Every event of the trace (root included), in recording order.
    pub events: Vec<&'a TraceEvent>,
}

/// Group a document into download traces, in recording order.
pub fn downloads(doc: &TraceDoc) -> Vec<DownloadTrace<'_>> {
    let mut by_trace: BTreeMap<&str, Vec<&TraceEvent>> = BTreeMap::new();
    let mut order: Vec<&str> = Vec::new();
    for ev in &doc.events {
        let entry = by_trace.entry(ev.trace.as_str()).or_default();
        if entry.is_empty() {
            order.push(ev.trace.as_str());
        }
        entry.push(ev);
    }
    let mut out = Vec::new();
    for trace in order {
        let events = by_trace.remove(trace).unwrap_or_default();
        if let Some(root) = events.iter().find(|e| e.name == "download") {
            out.push(DownloadTrace {
                root,
                events: events.clone(),
            });
        }
    }
    out
}

/// The distilled causal summary of one download.
#[derive(Clone, Debug, Default)]
pub struct ExplainSummary {
    /// Trace id (16 hex digits).
    pub trace: String,
    /// Root outcome attr (`"completed"`, `"abandoned"`, ...); empty if
    /// the trace is unfinished.
    pub outcome: String,
    /// Object id from the root span.
    pub object: Option<u64>,
    /// Root span start, micros.
    pub start_us: u64,
    /// Root span duration, micros.
    pub duration_us: u64,
    /// Bytes served by the edge (root attr).
    pub bytes_edge: u64,
    /// Bytes served by peers (root attr).
    pub bytes_peers: u64,
    /// Contacts the control plane offered across all queries.
    pub offered: u64,
    /// Control-plane query rounds observed.
    pub queries: u64,
    /// Connect attempts made.
    pub attempts: u64,
    /// Attempts that became transfer sources.
    pub connected: u64,
    /// GUIDs of the peers we successfully connected to (the
    /// `connect_attempt` span's `dst_guid` — the dialed peer).
    pub connected_guids: Vec<String>,
    /// Rejected attempts, by reason label, sorted by label.
    pub rejected: BTreeMap<String, u64>,
    /// Attempts lost to NAT: unreachable pairings plus failed punches.
    pub nat_blocked: u64,
    /// Micros from download start to the first engaged source (peer
    /// transfer or edge backstop/fallback), if any engaged.
    pub first_source_us: Option<u64>,
    /// Whether the edge backstop / fallback engaged.
    pub edge_engaged: bool,
}

/// Distill one download trace.
pub fn summarize(dl: &DownloadTrace<'_>) -> ExplainSummary {
    let root = dl.root;
    let mut s = ExplainSummary {
        trace: root.trace.clone(),
        outcome: root.attr_str("outcome").unwrap_or("").to_string(),
        object: root.attr_u64("object"),
        start_us: root.ts,
        duration_us: root.dur,
        bytes_edge: root.attr_u64("bytes_edge").unwrap_or(0),
        bytes_peers: root.attr_u64("bytes_peers").unwrap_or(0),
        ..ExplainSummary::default()
    };
    let mut first_source: Option<u64> = None;
    for ev in &dl.events {
        match ev.name.as_str() {
            "query_peers" => {
                s.queries += 1;
                s.offered += ev.attr_u64("offered").unwrap_or(0);
            }
            "connect_attempt" => {
                s.attempts += 1;
                match ev.attr_str("result") {
                    Some("connected") => {
                        s.connected += 1;
                        if let Some(guid) = ev.attr_str("dst_guid") {
                            s.connected_guids.push(guid.to_string());
                        }
                    }
                    Some(reason) => {
                        if reason == "blocked" || reason == "punch_failed" {
                            s.nat_blocked += 1;
                        }
                        *s.rejected.entry(reason.to_string()).or_insert(0) += 1;
                    }
                    None => {}
                }
            }
            "peer_transfer" | "edge_backstop" | "edge_fallback" => {
                if ev.name != "peer_transfer" {
                    s.edge_engaged = true;
                }
                let dt = ev.ts.saturating_sub(root.ts);
                first_source = Some(first_source.map_or(dt, |cur: u64| cur.min(dt)));
            }
            _ => {}
        }
    }
    s.first_source_us = first_source;
    s
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1_000_000_000 {
        format!("{:.2} GB", b as f64 / 1e9)
    } else if b >= 1_000_000 {
        format!("{:.2} MB", b as f64 / 1e6)
    } else if b >= 1_000 {
        format!("{:.1} kB", b as f64 / 1e3)
    } else {
        format!("{b} B")
    }
}

fn fmt_secs(us: u64) -> String {
    format!("{:.1}s", us as f64 / 1e6)
}

/// Render the summary as a human-readable causal narrative.
pub fn narrate(s: &ExplainSummary) -> String {
    let mut out = String::new();
    let total = s.bytes_edge + s.bytes_peers;
    out.push_str(&format!(
        "download {} — {}{} in {}\n",
        s.trace,
        if s.outcome.is_empty() {
            "unfinished".to_string()
        } else {
            s.outcome.clone()
        },
        s.object
            .map(|o| format!(" (object {o})"))
            .unwrap_or_default(),
        fmt_secs(s.duration_us),
    ));
    out.push_str(&format!(
        "  control plane: {} round(s) offered {} contact(s)\n",
        s.queries, s.offered
    ));
    out.push_str(&format!(
        "  connections:   {} attempt(s), {} connected\n",
        s.attempts, s.connected
    ));
    if !s.connected_guids.is_empty() {
        out.push_str(&format!(
            "                 peers dialed: {}\n",
            s.connected_guids.join(", ")
        ));
    }
    for (reason, n) in &s.rejected {
        out.push_str(&format!("                 {n} rejected: {reason}\n"));
    }
    if s.nat_blocked > 0 {
        out.push_str(&format!(
            "  nat penalty:   {} attempt(s) lost to NAT (unreachable or failed punch)\n",
            s.nat_blocked
        ));
    }
    match s.first_source_us {
        Some(us) => out.push_str(&format!(
            "  first source:  engaged after {}{}\n",
            fmt_secs(us),
            if s.edge_engaged {
                " (edge backstop active)"
            } else {
                ""
            }
        )),
        None => out.push_str("  first source:  none engaged\n"),
    }
    if total > 0 {
        out.push_str(&format!(
            "  byte split:    {} from peers ({:.1}%), {} from edge ({:.1}%)\n",
            fmt_bytes(s.bytes_peers),
            s.bytes_peers as f64 / total as f64 * 100.0,
            fmt_bytes(s.bytes_edge),
            s.bytes_edge as f64 / total as f64 * 100.0,
        ));
    } else {
        out.push_str("  byte split:    no bytes delivered\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> TraceDoc {
        let trace = netsession_obs::TraceSink::new(1);
        let ctx = trace.start_trace("download", "hybrid", 1_000_000);
        trace.add_attr(ctx.span, "object", 7u64);
        let q = trace.span(ctx, "query_peers", "control", 1_000_000);
        trace.add_attr(q, "offered", 3u64);
        trace.end_span(q, 1_000_500);
        for (i, result) in ["connected", "blocked", "punch_failed"].iter().enumerate() {
            let a = trace.instant(ctx, "connect_attempt", "peer", 1_001_000 + i as u64);
            trace.add_attr(a, "dst_guid", format!("{:016x}", 100 + i as u64));
            trace.add_attr(a, "result", *result);
        }
        let t = trace.span(ctx, "peer_transfer", "peer", 1_002_000);
        trace.add_attr(t, "bytes", 600u64);
        trace.end_span(t, 4_000_000);
        let e = trace.span(ctx, "edge_backstop", "edge", 1_500_000);
        trace.add_attr(e, "bytes", 400u64);
        trace.end_span(e, 4_000_000);
        trace.add_attr(ctx.span, "outcome", "completed");
        trace.add_attr(ctx.span, "bytes_edge", 400u64);
        trace.add_attr(ctx.span, "bytes_peers", 600u64);
        trace.end_span(ctx.span, 4_200_000);
        parse_trace(&trace.export_chrome_json()).expect("export parses")
    }

    #[test]
    fn summarize_reconstructs_the_story() {
        let doc = sample_doc();
        assert_eq!(doc.dropped, 0);
        let dls = downloads(&doc);
        assert_eq!(dls.len(), 1);
        let s = summarize(&dls[0]);
        assert_eq!(s.outcome, "completed");
        assert_eq!(s.object, Some(7));
        assert_eq!(s.queries, 1);
        assert_eq!(s.offered, 3);
        assert_eq!(s.attempts, 3);
        assert_eq!(s.connected, 1);
        assert_eq!(s.connected_guids, vec!["0000000000000064".to_string()]);
        assert_eq!(s.nat_blocked, 2);
        assert_eq!(s.bytes_peers, 600);
        assert_eq!(s.bytes_edge, 400);
        assert!(s.edge_engaged);
        assert_eq!(s.first_source_us, Some(2_000));
        assert_eq!(s.duration_us, 3_200_000);
    }

    #[test]
    fn narrate_mentions_the_key_facts() {
        let doc = sample_doc();
        let s = summarize(&downloads(&doc)[0]);
        let text = narrate(&s);
        assert!(text.contains("completed"));
        assert!(text.contains("offered 3 contact(s)"));
        assert!(text.contains("3 attempt(s), 1 connected"));
        assert!(text.contains("peers dialed: 0000000000000064"));
        assert!(text.contains("lost to NAT"));
        assert!(text.contains("600 B from peers (60.0%)"));
        assert!(text.contains("400 B from edge (40.0%)"));
    }
}
