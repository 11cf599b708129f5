//! Drill into an exported download trace.
//!
//! Usage:
//!   trace_explain --trace results/paper.trace.json            # index
//!   trace_explain --trace results/paper.trace.json --download 3
//!   trace_explain --trace results/paper.trace.json --download 000100000000002a
//!
//! With `--download` (an index from the listing, or a 16-hex-digit trace
//! id) it prints the full causal narrative for that download: contacts
//! offered vs connected vs rejected, the NAT penalty, time-to-first-source,
//! and the peer/edge byte split.

use netsession_bench::explain::{downloads, narrate, parse_trace, summarize};
use netsession_obs::json::JsonValue;

fn render(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".into(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(n) => {
            if n.fract() == 0.0 {
                format!("{}", *n as i64)
            } else {
                n.to_string()
            }
        }
        JsonValue::Str(s) => s.clone(),
        other => format!("{other:?}"),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let mut trace_path: Option<String> = None;
    let mut selector: Option<String> = None;
    let mut i = 1;
    while i + 1 < argv.len() {
        match argv[i].as_str() {
            "--trace" => trace_path = Some(argv[i + 1].clone()),
            "--download" => selector = Some(argv[i + 1].clone()),
            other => {
                eprintln!("unknown flag {other} (expected --trace/--download)");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    let Some(path) = trace_path else {
        eprintln!("usage: trace_explain --trace <file.trace.json> [--download <index|trace-id>]");
        std::process::exit(2);
    };
    let input = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let doc = match parse_trace(&input) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(1);
        }
    };
    let dls = downloads(&doc);
    if doc.dropped > 0 {
        eprintln!("# note: sink dropped {} span(s) at capacity", doc.dropped);
    }
    if dls.is_empty() {
        println!("no download traces in {path}");
        return;
    }

    match selector {
        None => {
            println!(
                "{} download trace(s) in {path} (use --download <#|id> to drill in)",
                dls.len()
            );
            println!(
                "{:>4}  {:<16}  {:<13}  {:>12}  {:>12}  {:>9}",
                "#", "trace", "outcome", "peer bytes", "edge bytes", "duration"
            );
            for (i, dl) in dls.iter().enumerate() {
                let s = summarize(dl);
                println!(
                    "{:>4}  {:<16}  {:<13}  {:>12}  {:>12}  {:>8.1}s",
                    i,
                    s.trace,
                    if s.outcome.is_empty() {
                        "unfinished"
                    } else {
                        &s.outcome
                    },
                    s.bytes_peers,
                    s.bytes_edge,
                    s.duration_us as f64 / 1e6
                );
            }
        }
        Some(sel) => {
            let found = match sel.parse::<usize>() {
                Ok(idx) => dls.get(idx),
                Err(_) => dls.iter().find(|dl| dl.root.trace == sel),
            };
            let Some(dl) = found else {
                eprintln!(
                    "no download {sel:?} (have {} traces, ids are 16 hex digits)",
                    dls.len()
                );
                std::process::exit(1);
            };
            print!("{}", narrate(&summarize(dl)));
            println!("  span timeline:");
            for ev in &dl.events {
                let indent = if ev.parent.is_none() { "" } else { "  " };
                let mut attrs = String::new();
                for (k, v) in &ev.attrs {
                    attrs.push_str(&format!(" {k}={}", render(v)));
                }
                println!(
                    "    {:>10.3}s {:>9.3}s  {indent}{}/{}{attrs}",
                    ev.ts as f64 / 1e6,
                    ev.dur as f64 / 1e6,
                    ev.cat,
                    ev.name,
                );
            }
        }
    }
}
