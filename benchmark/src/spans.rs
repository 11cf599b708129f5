//! Phase spans the benchmark records around each call it makes into a
//! layer: name, start, end, the span that caused it, and one operation id
//! per pass or download. Kept in memory; written as Chrome-trace JSON when
//! a traced run ends.
//!
//! Timing and recording are separate: every phase is timed (the end-to-end
//! metrics need the walls), but a span is stored only in a traced run.

use crate::stats::median;
use netsession_obs::json::push_str_literal;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
    pub parent: Option<usize>,
    pub op: u64,
}

pub struct Spans {
    record: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Spans {
    pub fn new(record: bool) -> Spans {
        Spans {
            record,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Start the next operation (pass or download); spans recorded until
    /// the next call share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Run `f` as a span named `name` under the currently open span and
    /// return its result with its wall time in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let slot = self.record.then(|| {
            self.spans.push(Span {
                name,
                start_us: self.epoch.elapsed().as_secs_f64() * 1e6,
                dur_us: 0.0,
                parent: self.open.last().copied(),
                op: self.op,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let t = Instant::now();
        let out = f(self);
        let secs = t.elapsed().as_secs_f64();
        if let Some(i) = slot {
            self.spans[i].dur_us = secs * 1e6;
            self.open.pop();
        }
        (out, secs)
    }

    /// Record a span measured elsewhere (the daemon's own trace) under the
    /// currently open span, `start_us` after that span began.
    pub fn adopt(&mut self, name: &'static str, start_us: f64, dur_us: f64) {
        if !self.record {
            return;
        }
        let parent = self.open.last().copied();
        let base = parent.map_or(0.0, |p| self.spans[p].start_us);
        self.spans.push(Span {
            name,
            start_us: base + start_us,
            dur_us,
            parent,
            op: self.op,
        });
    }

    /// Median duration in seconds of the spans called `name`, one sample
    /// per operation (a name used twice in an operation is summed first).
    pub fn median_secs(&self, name: &str) -> f64 {
        let mut per_op: Vec<(u64, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            match per_op.last_mut() {
                Some((op, sum)) if *op == s.op => *sum += s.dur_us,
                _ => per_op.push((s.op, s.dur_us)),
            }
        }
        median(&per_op.iter().map(|(_, us)| us / 1e6).collect::<Vec<_>>())
    }

    /// A span's own time: its duration minus what its children cover.
    pub fn self_us(&self, index: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| s.dur_us)
            .sum();
        (self.spans[index].dur_us - children).max(0.0)
    }

    /// Median over the spans called `name` of the share of their duration
    /// that no child span covers, in percent.
    pub fn median_unaccounted_pct(&self, name: &str) -> f64 {
        let shares: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && s.dur_us > 0.0)
            .map(|(i, s)| self.self_us(i) / s.dur_us * 100.0)
            .collect();
        median(&shares)
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto). The layer —
    /// the span name up to its last dot — is the category; `args` carries
    /// the span id, its parent (null for a root), the operation id and the
    /// self time.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let layer = s.name.rsplit_once('.').map_or(s.name, |(layer, _)| layer);
            out.push_str("{\"name\":");
            push_str_literal(&mut out, s.name);
            out.push_str(",\"cat\":");
            push_str_literal(&mut out, layer);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{},\"self_us\":{:.3}}}}}",
                s.start_us,
                s.dur_us,
                s.op,
                self.self_us(i)
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}
