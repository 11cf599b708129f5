//! Shard-layer execution profiler.
//!
//! The sharded runner (`netsession-sim::shard`) executes virtual time in
//! fixed windows with a barrier between them; until this module it reported
//! four lifetime counters per shard and nothing else. The profiler splits
//! what a window execution can tell us into two **strictly separated
//! channels**:
//!
//! * **Deterministic execution telemetry** — one [`WindowRecord`] per
//!   shard per barrier: events processed, queue depth at the barrier,
//!   cross-shard mail received this window and sent per destination shard.
//!   These are pure functions of the program and seed, so the stream is
//!   byte-identical across runs *and across thread schedules* — the
//!   sequential oracle and the parallel runner must produce the same
//!   bytes, and `scripts/check.sh` diffs them. Records flow through a
//!   [`ProfileSink`] the moment the barrier closes, so paper-scale runs
//!   keep O(shards²) state, not O(windows): the standard consumers are
//!   the [`ExecProfile`] accumulator (load-imbalance report) and a
//!   running SHA-256 digest (`netsession_logs::sink::ProfileDigest`,
//!   hashing [`encode_window`]'s canonical bytes like every other record
//!   stream).
//!
//! * **Volatile timing telemetry** — [`ShardTimings`]: per-window,
//!   per-shard busy wall time, barrier-wait time (see
//!   [`WindowTiming::wait_ns`] for how to read it when shards share pool
//!   threads), and barrier merge time, measured with monotonic clocks by
//!   the runner. Wall clocks can never
//!   be identical across runs, so this channel **never touches
//!   deterministic output**: it is excluded from the deterministic report
//!   and JSON section by construction and surfaces only in the volatile
//!   sidecar section and the Perfetto timeline export
//!   ([`ShardTimings::export_chrome_json`]).
//!
//! The consumer-facing summary is [`ImbalanceStats`]: per-shard event /
//! mail shares, max-over-mean skew, and a **critical-path speedup
//! ceiling** — with per-window telemetry the best any parallel schedule
//! can do is `total_events / Σ_w max_k events(w, k)`, because the slowest
//! shard of each window is on every schedule's critical path. The same
//! fold also predicts the ceiling after splitting the busiest shard in
//! two, which is the number ROADMAP item 1 needs for the Europe rebalance.

use crate::json::{parse, push_str_literal, JsonValue};

/// One shard's deterministic execution record for one window.
///
/// Borrowed view: the profiler assembles it per shard at the barrier and
/// hands it to every sink; sinks that need to keep data copy what they
/// aggregate.
#[derive(Clone, Copy, Debug)]
pub struct WindowRecord<'a> {
    /// Barrier ordinal, 0-based, strictly increasing.
    pub window: u64,
    /// Start of the window on the global grid, in virtual µs.
    pub window_start_us: u64,
    /// Shard index.
    pub shard: u32,
    /// Events this shard handled inside the window (0 = idle).
    pub events: u64,
    /// Events left in the shard's queue when the barrier closed.
    pub queue_depth: u64,
    /// Cross-shard messages delivered into this shard at the window open.
    pub mail_recv: u64,
    /// Cross-shard messages sent this window, per destination shard
    /// (length = shard count).
    pub mail_sent: &'a [u64],
}

/// Canonical byte encoding of a [`WindowRecord`]: fixed-width
/// little-endian fields in declaration order, then the `mail_sent` row.
/// Two runs produce the same digest over these bytes iff they emitted
/// bit-identical records in the same order — the byte-identity obligation
/// the determinism gate checks.
pub fn encode_window(r: &WindowRecord<'_>, out: &mut Vec<u8>) {
    out.extend_from_slice(&r.window.to_le_bytes());
    out.extend_from_slice(&r.window_start_us.to_le_bytes());
    out.extend_from_slice(&r.shard.to_le_bytes());
    out.extend_from_slice(&r.events.to_le_bytes());
    out.extend_from_slice(&r.queue_depth.to_le_bytes());
    out.extend_from_slice(&r.mail_recv.to_le_bytes());
    out.extend_from_slice(&(r.mail_sent.len() as u32).to_le_bytes());
    for &m in r.mail_sent {
        out.extend_from_slice(&m.to_le_bytes());
    }
}

/// Receives deterministic execution records as each barrier closes, in
/// canonical order (window-major, shard index within a window).
pub trait ProfileSink: Send {
    /// One shard's record for one window.
    fn on_window(&mut self, r: &WindowRecord<'_>);

    /// Compact fingerprint of everything consumed so far (e.g. a running
    /// hash), `None` when the sink has no notion of one.
    fn fingerprint(&self) -> Option<String> {
        None
    }
}

/// Per-shard lifetime aggregates of the deterministic channel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardExec {
    /// Events handled.
    pub events: u64,
    /// Windows in which the shard handled at least one event.
    pub windows_occupied: u64,
    /// Cross-shard messages sent.
    pub mail_sent: u64,
    /// Cross-shard messages received.
    pub mail_recv: u64,
    /// Largest barrier queue depth observed.
    pub max_queue_depth: u64,
}

/// O(shards²) accumulator over the deterministic channel: per-shard
/// totals, the shard→shard mail matrix, and the running critical-path
/// folds. Everything in here is integer state derived from deterministic
/// records, so two runs of the same program — sequential or parallel —
/// produce `==` profiles (asserted by the scaled-determinism tests).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecProfile {
    per_shard: Vec<ShardExec>,
    /// Row-major `[src * n + dst]` cross-shard message counts.
    mail_matrix: Vec<u64>,
    windows: u64,
    total_events: u64,
    /// Σ over closed windows of the busiest shard's events.
    crit_events: u64,
    /// Σ over closed windows of `max(ceil(busiest/2), second-busiest)` —
    /// the critical path if the busiest shard of every window were split
    /// perfectly in two.
    crit_split_events: u64,
    // Fold state for the window currently streaming in.
    cur_window: u64,
    cur_open: bool,
    cur_max: u64,
    cur_second: u64,
}

impl ExecProfile {
    /// Fresh, empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_shards(&mut self, n: usize) {
        if self.per_shard.len() < n {
            self.per_shard.resize(n, ShardExec::default());
            let mut m = vec![0u64; n * n];
            for (src, row) in self
                .mail_matrix
                .chunks(self.per_shard.len().max(1))
                .enumerate()
            {
                m[src * n..src * n + row.len()].copy_from_slice(row);
            }
            self.mail_matrix = m;
        }
    }

    fn fold_window(&mut self) {
        if self.cur_open {
            self.crit_events += self.cur_max;
            self.crit_split_events += self.cur_max.div_ceil(2).max(self.cur_second);
            self.cur_open = false;
        }
    }

    /// Finished summary. Folds the in-flight window into the critical
    /// path, so it can be taken at any barrier (the profile itself is
    /// left untouched).
    pub fn stats(&self) -> ImbalanceStats {
        let mut done = self.clone();
        done.fold_window();
        ImbalanceStats {
            shards: done.per_shard.len(),
            windows: done.windows,
            events: done.total_events,
            crit_events: done.crit_events,
            crit_split_events: done.crit_split_events,
            per_shard: done.per_shard,
            mail_matrix: done.mail_matrix,
        }
    }
}

impl ProfileSink for ExecProfile {
    fn on_window(&mut self, r: &WindowRecord<'_>) {
        let n = r.mail_sent.len();
        self.ensure_shards(n);
        if self.cur_open && r.window != self.cur_window {
            self.fold_window();
        }
        if !self.cur_open {
            self.cur_open = true;
            self.cur_window = r.window;
            self.cur_max = 0;
            self.cur_second = 0;
            self.windows += 1;
        }
        let k = r.shard as usize;
        let s = &mut self.per_shard[k];
        s.events += r.events;
        s.windows_occupied += u64::from(r.events > 0);
        s.mail_recv += r.mail_recv;
        s.max_queue_depth = s.max_queue_depth.max(r.queue_depth);
        let mut sent = 0;
        for (dst, &m) in r.mail_sent.iter().enumerate() {
            sent += m;
            self.mail_matrix[k * n + dst] += m;
        }
        s.mail_sent += sent;
        self.total_events += r.events;
        if r.events >= self.cur_max {
            self.cur_second = self.cur_max;
            self.cur_max = r.events;
        } else if r.events > self.cur_second {
            self.cur_second = r.events;
        }
    }
}

/// The load-imbalance summary: shares, skew, and critical-path speedup
/// ceilings, all derived from deterministic integers (the float ratios
/// and their formatting are therefore run-invariant too).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImbalanceStats {
    /// Shard count.
    pub shards: usize,
    /// Barriers crossed.
    pub windows: u64,
    /// Total events across shards.
    pub events: u64,
    /// Critical path in events: Σ over windows of the busiest shard.
    pub crit_events: u64,
    /// Critical path after splitting the busiest shard of every window.
    pub crit_split_events: u64,
    /// Per-shard aggregates.
    pub per_shard: Vec<ShardExec>,
    /// Row-major `[src * shards + dst]` mail counts.
    pub mail_matrix: Vec<u64>,
}

impl ImbalanceStats {
    /// Upper bound on parallel speedup implied by per-window load
    /// imbalance alone: `events / crit_events`. No schedule on any
    /// number of cores can beat it, because every window must wait for
    /// its slowest shard.
    pub fn speedup_ceiling(&self) -> f64 {
        if self.crit_events == 0 {
            1.0
        } else {
            self.events as f64 / self.crit_events as f64
        }
    }

    /// The ceiling if the busiest shard of every window were split in
    /// two — the predicted gain from rebalancing (e.g. splitting the
    /// Europe shard).
    pub fn split_busiest_ceiling(&self) -> f64 {
        if self.crit_split_events == 0 {
            1.0
        } else {
            self.events as f64 / self.crit_split_events as f64
        }
    }

    /// Max-over-mean event skew across shards (1.0 = perfectly even).
    pub fn skew(&self) -> f64 {
        let max = self.per_shard.iter().map(|s| s.events).max().unwrap_or(0);
        if self.events == 0 || self.shards == 0 {
            return 0.0;
        }
        max as f64 / (self.events as f64 / self.shards as f64)
    }

    /// A shard's share of all events.
    pub fn event_share(&self, shard: usize) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.per_shard[shard].events as f64 / self.events as f64
        }
    }

    /// Index of the shard with the most events (lowest index wins ties —
    /// deterministic).
    pub fn busiest(&self) -> usize {
        self.per_shard
            .iter()
            .enumerate()
            .max_by_key(|(k, s)| (s.events, std::cmp::Reverse(*k)))
            .map_or(0, |(k, _)| k)
    }

    /// Index of the shard with the fewest events (lowest index wins ties).
    pub fn lightest(&self) -> usize {
        self.per_shard
            .iter()
            .enumerate()
            .min_by_key(|(k, s)| (s.events, *k))
            .map_or(0, |(k, _)| k)
    }

    /// Deterministic multi-line report. `labels[k]` names shard `k`
    /// (e.g. its region block), `peers[k]` its resident population; both
    /// must have one entry per shard. Safe to print on byte-diffed
    /// stdout: everything here derives from the deterministic channel.
    pub fn render_report(&self, labels: &[String], peers: &[u64]) -> String {
        use std::fmt::Write;
        assert_eq!(labels.len(), self.shards, "one label per shard");
        assert_eq!(peers.len(), self.shards, "one peer count per shard");
        let mut s = String::new();
        let _ = writeln!(
            s,
            "shard_profile: shards={} windows={} events={} skew={:.2} \
             ceiling={:.2}x split_busiest={:.2}x",
            self.shards,
            self.windows,
            self.events,
            self.skew(),
            self.speedup_ceiling(),
            self.split_busiest_ceiling(),
        );
        // One-line balance summary: the per-shard table below grows with
        // K (sub-region sharding goes well past 9), so name the extremes
        // up front.
        if self.shards > 1 {
            let (b, l) = (self.busiest(), self.lightest());
            let _ = writeln!(
                s,
                "  balance: busiest=shard {b} [{}] {:.1}% lightest=shard {l} [{}] {:.1}%",
                labels[b],
                self.event_share(b) * 100.0,
                labels[l],
                self.event_share(l) * 100.0,
            );
        }
        for (k, sh) in self.per_shard.iter().enumerate() {
            let occ = if self.windows == 0 {
                0.0
            } else {
                sh.windows_occupied as f64 / self.windows as f64 * 100.0
            };
            let _ = writeln!(
                s,
                "  shard {k} [{}]: peers={} events={} share={:.1}% occ={:.1}% \
                 mail_out={} mail_in={} depth_max={}",
                labels[k],
                peers[k],
                sh.events,
                self.event_share(k) * 100.0,
                occ,
                sh.mail_sent,
                sh.mail_recv,
                sh.max_queue_depth,
            );
        }
        let _ = writeln!(
            s,
            "  critical_path: {} of {} events ({:.1}% of sequential work is on the barrier floor)",
            self.crit_events,
            self.events,
            if self.events == 0 {
                0.0
            } else {
                self.crit_events as f64 / self.events as f64 * 100.0
            }
        );
        s
    }

    /// The deterministic half of `scale.profile.json`: a self-contained
    /// JSON object (no volatile timings by construction — this is the
    /// byte string the determinism gate diffs across runs and modes).
    /// `stream` is the deterministic record stream's fingerprint when a
    /// digest sink rode along.
    pub fn to_json(&self, labels: &[String], peers: &[u64], stream: Option<&str>) -> String {
        use std::fmt::Write;
        assert_eq!(labels.len(), self.shards, "one label per shard");
        assert_eq!(peers.len(), self.shards, "one peer count per shard");
        let mut j = String::from("{\n");
        let _ = writeln!(j, "    \"shards\": {},", self.shards);
        let _ = writeln!(j, "    \"windows\": {},", self.windows);
        let _ = writeln!(j, "    \"events\": {},", self.events);
        let _ = writeln!(j, "    \"critical_path_events\": {},", self.crit_events);
        let _ = writeln!(
            j,
            "    \"critical_path_split_events\": {},",
            self.crit_split_events
        );
        let _ = writeln!(j, "    \"speedup_ceiling\": {:.4},", self.speedup_ceiling());
        let _ = writeln!(
            j,
            "    \"split_busiest_ceiling\": {:.4},",
            self.split_busiest_ceiling()
        );
        let _ = writeln!(j, "    \"skew\": {:.4},", self.skew());
        if let Some(fp) = stream {
            j.push_str("    \"stream\": ");
            push_str_literal(&mut j, fp);
            j.push_str(",\n");
        }
        j.push_str("    \"per_shard\": [\n");
        for (k, sh) in self.per_shard.iter().enumerate() {
            j.push_str("      { \"shard\": ");
            let _ = write!(j, "{k}, \"regions\": ");
            push_str_literal(&mut j, &labels[k]);
            let _ = write!(
                j,
                ", \"peers\": {}, \"events\": {}, \"share_pct\": {:.2}, \
                 \"windows_occupied\": {}, \"mail_sent\": {}, \"mail_recv\": {}, \
                 \"max_queue_depth\": {} }}",
                peers[k],
                sh.events,
                self.event_share(k) * 100.0,
                sh.windows_occupied,
                sh.mail_sent,
                sh.mail_recv,
                sh.max_queue_depth
            );
            j.push_str(if k + 1 < self.shards { ",\n" } else { "\n" });
        }
        j.push_str("    ],\n");
        j.push_str("    \"mail_matrix\": [");
        for src in 0..self.shards {
            j.push('[');
            for dst in 0..self.shards {
                let _ = write!(j, "{}", self.mail_matrix[src * self.shards + dst]);
                if dst + 1 < self.shards {
                    j.push_str(", ");
                }
            }
            j.push(']');
            if src + 1 < self.shards {
                j.push_str(", ");
            }
        }
        j.push_str("]\n  }");
        j
    }

    /// Parse a JSON object produced by [`ImbalanceStats::to_json`] back
    /// into numbers (round-trip used by tests and the schema lint).
    pub fn parse_json(text: &str) -> Result<JsonValue, String> {
        let v = parse(text).map_err(|e| format!("{e}"))?;
        for key in [
            "shards",
            "windows",
            "events",
            "critical_path_events",
            "speedup_ceiling",
            "split_busiest_ceiling",
            "skew",
        ] {
            if v.get(key).and_then(|x| x.as_f64()).is_none() {
                return Err(format!("deterministic profile: missing number {key}"));
            }
        }
        match v.get("per_shard").and_then(|x| x.as_arr()) {
            Some(arr) if !arr.is_empty() => {}
            _ => return Err("deterministic profile: per_shard missing or empty".into()),
        }
        Ok(v)
    }
}

/// Volatile wall-clock timings for one window: when each shard started,
/// how long it computed, how long after its finish the window's barrier
/// closed, and how long the leader spent folding the shards' reports. All
/// offsets are nanoseconds from the run's start on the host's monotonic
/// clock.
#[derive(Clone, Debug, Default)]
pub struct WindowTiming {
    /// Offset of the window's processing start.
    pub start_ns: u64,
    /// Per-shard busy start offsets (0 for idle shards).
    pub busy_start_ns: Vec<u64>,
    /// Per-shard busy wall time: delivering the shard's due mail and
    /// handling its events (0 for idle shards).
    pub busy_ns: Vec<u64>,
    /// Per-shard barrier wait: the window's collect barrier minus the
    /// shard's own finish, for shards that were busy; always 0 on one
    /// thread. The runner steps K shards on [`ShardTimings::threads`]
    /// pool threads, each thread its shards in turn, so with fewer threads
    /// than shards this includes the time the shard's thread went on to
    /// spend on the sibling shards queued behind it. A thread's idle time
    /// at the barrier is the wait of the *last* busy shard it stepped.
    pub wait_ns: Vec<u64>,
    /// Leader time spent folding reports and routing mail at this barrier.
    pub merge_ns: u64,
}

/// The volatile timing channel: per-window [`WindowTiming`]s plus the
/// Perfetto exporter. Never feeds deterministic output.
#[derive(Clone, Debug, Default)]
pub struct ShardTimings {
    n_shards: usize,
    threads: usize,
    windows: Vec<WindowTiming>,
}

impl ShardTimings {
    /// Pool threads of the latest run (0 before the first): how many
    /// shards could be busy at once, which `wait_ns` is read against.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Shard count (0 before the first window).
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// All recorded windows, in order.
    pub fn windows(&self) -> &[WindowTiming] {
        &self.windows
    }

    /// Record one window's timings.
    pub fn push(&mut self, t: WindowTiming) {
        debug_assert_eq!(t.busy_ns.len(), t.wait_ns.len());
        self.n_shards = self.n_shards.max(t.busy_ns.len());
        self.windows.push(t);
    }

    /// Total busy wall time of shard `k`.
    pub fn busy_total_ns(&self, k: usize) -> u64 {
        self.windows
            .iter()
            .map(|w| w.busy_ns.get(k).copied().unwrap_or(0))
            .sum()
    }

    /// Total barrier wait of shard `k`.
    pub fn wait_total_ns(&self, k: usize) -> u64 {
        self.windows
            .iter()
            .map(|w| w.wait_ns.get(k).copied().unwrap_or(0))
            .sum()
    }

    /// Total coordinator merge time.
    pub fn merge_total_ns(&self) -> u64 {
        self.windows.iter().map(|w| w.merge_ns).sum()
    }

    /// Busy time summed over every shard and window.
    pub fn busy_sum_ns(&self) -> u64 {
        (0..self.n_shards).map(|k| self.busy_total_ns(k)).sum()
    }

    /// Wall-clock critical path: Σ over windows of the slowest shard's
    /// busy time. A parallel execution cannot finish the windows faster
    /// than this (plus barrier overhead).
    pub fn wall_critical_path_ns(&self) -> u64 {
        self.windows
            .iter()
            .map(|w| w.busy_ns.iter().copied().max().unwrap_or(0))
            .sum()
    }

    /// Measured-wall speedup ceiling: total busy work over its critical
    /// path. The volatile sibling of
    /// [`ImbalanceStats::speedup_ceiling`].
    pub fn wall_speedup_ceiling(&self) -> f64 {
        let crit = self.wall_critical_path_ns();
        if crit == 0 {
            1.0
        } else {
            self.busy_sum_ns() as f64 / crit as f64
        }
    }

    /// Export the timeline as Chrome trace-event JSON (loadable in
    /// Perfetto / `chrome://tracing`, same flavour as the PR 3 download
    /// traces): one process row per shard with `busy` then `wait` slices
    /// per window, plus a `barrier` row with the coordinator's `merge`
    /// slices. Perfetto colors slices by name, so the three phases are
    /// visually distinct. When the run has more than `max_buckets`
    /// windows, adjacent windows are coalesced (durations summed, slice
    /// named `busy xN`) to bound the export size.
    pub fn export_chrome_json(&self, max_buckets: usize) -> String {
        use std::fmt::Write;
        let group = if max_buckets == 0 {
            1
        } else {
            self.windows.len().div_ceil(max_buckets).max(1)
        };
        let mut out = String::from("{\"displayTimeUnit\":\"ms\"");
        out.push_str(",\"traceEvents\":[");
        let mut first = true;
        let meta = |out: &mut String, pid: usize, name: &str, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            let _ = write!(
                out,
                "\n{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":"
            );
            push_str_literal(out, name);
            out.push_str("}}");
        };
        for k in 0..self.n_shards {
            meta(&mut out, k, &format!("shard {k}"), &mut first);
        }
        meta(&mut out, self.n_shards, "barrier", &mut first);
        let suffix = if group > 1 {
            format!(" x{group}")
        } else {
            String::new()
        };
        let emit = |out: &mut String, pid: usize, ts_ns: u64, dur_ns: u64, name: &str| {
            if dur_ns == 0 {
                return;
            }
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"dur\":{},\"name\":",
                ts_ns / 1_000,
                (dur_ns / 1_000).max(1)
            );
            push_str_literal(out, name);
            out.push('}');
        };
        for bucket in self.windows.chunks(group) {
            let start = bucket[0].start_ns;
            for k in 0..self.n_shards {
                let busy_start = bucket
                    .iter()
                    .map(|w| w.busy_start_ns.get(k).copied().unwrap_or(0))
                    .find(|&s| s > 0)
                    .unwrap_or(start);
                let busy: u64 = bucket
                    .iter()
                    .map(|w| w.busy_ns.get(k).copied().unwrap_or(0))
                    .sum();
                let wait: u64 = bucket
                    .iter()
                    .map(|w| w.wait_ns.get(k).copied().unwrap_or(0))
                    .sum();
                emit(&mut out, k, busy_start, busy, &format!("busy{suffix}"));
                emit(
                    &mut out,
                    k,
                    busy_start + busy,
                    wait,
                    &format!("wait{suffix}"),
                );
            }
            let merge: u64 = bucket.iter().map(|w| w.merge_ns).sum();
            emit(
                &mut out,
                self.n_shards,
                start,
                merge,
                &format!("merge{suffix}"),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// The handle the sharded runner drives: owns the always-on
/// [`ExecProfile`] accumulator, the volatile [`ShardTimings`], and an
/// optional extra deterministic sink (typically the SHA-256 stream
/// digest). Attach with `ShardRunner::attach_profiler`, retrieve with
/// `ShardRunner::take_profiler`.
#[derive(Default)]
pub struct ShardProfiler {
    exec: ExecProfile,
    timings: ShardTimings,
    sink: Option<Box<dyn ProfileSink>>,
    n_shards: usize,
    window_index: u64,
}

impl ShardProfiler {
    /// Profiler with the built-in accumulator only.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an extra deterministic sink (e.g. a stream digest). The sink
    /// sees every record the accumulator sees, in the same order.
    pub fn with_sink(mut self, sink: Box<dyn ProfileSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The deterministic accumulator.
    pub fn exec(&self) -> &ExecProfile {
        &self.exec
    }

    /// The volatile timing channel.
    pub fn timings(&self) -> &ShardTimings {
        &self.timings
    }

    /// The extra sink's stream fingerprint, when one is attached and
    /// keeps one.
    pub fn stream_fingerprint(&self) -> Option<String> {
        self.sink.as_ref().and_then(|s| s.fingerprint())
    }

    // -- runner-facing hooks ---------------------------------------------

    /// Called by the runner before its first window. Repeated calls with
    /// the same shard count continue accumulation.
    pub fn begin_run(&mut self, n_shards: usize) {
        assert!(
            self.n_shards == 0 || self.n_shards == n_shards,
            "profiler reused across runs with different shard counts"
        );
        self.n_shards = n_shards;
    }

    /// Called by the runner as a run starts, with the size of its pool.
    pub fn set_threads(&mut self, threads: usize) {
        self.timings.threads = threads;
    }

    /// Deterministic channel: one barrier's worth of per-shard data.
    /// `mail_sent` is the row-major `[src * n + dst]` matrix for this
    /// window. Emits records in shard-index order regardless of how the
    /// window was scheduled.
    pub fn record_window(
        &mut self,
        window_start_us: u64,
        events: &[u64],
        queue_depth: &[u64],
        mail_recv: &[u64],
        mail_sent: &[u64],
    ) {
        let n = self.n_shards;
        debug_assert_eq!(events.len(), n);
        debug_assert_eq!(mail_sent.len(), n * n);
        for k in 0..n {
            let rec = WindowRecord {
                window: self.window_index,
                window_start_us,
                shard: k as u32,
                events: events[k],
                queue_depth: queue_depth[k],
                mail_recv: mail_recv[k],
                mail_sent: &mail_sent[k * n..(k + 1) * n],
            };
            self.exec.on_window(&rec);
            if let Some(sink) = &mut self.sink {
                sink.on_window(&rec);
            }
        }
        self.window_index += 1;
    }

    /// Volatile channel: the same barrier's wall-clock measurements.
    /// Strictly separated from the deterministic channel — nothing
    /// recorded here can reach deterministic output.
    pub fn record_window_timing(&mut self, t: WindowTiming) {
        self.timings.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(p: &mut ExecProfile, window: u64, events: [u64; 2], sent: [[u64; 2]; 2]) {
        for k in 0..2u32 {
            p.on_window(&WindowRecord {
                window,
                window_start_us: window * 1_000,
                shard: k,
                events: events[k as usize],
                queue_depth: 5 + k as u64,
                mail_recv: 1,
                mail_sent: &sent[k as usize],
            });
        }
    }

    #[test]
    fn critical_path_and_ceiling() {
        let mut p = ExecProfile::new();
        feed(&mut p, 0, [10, 2], [[0, 1], [0, 0]]);
        feed(&mut p, 1, [8, 8], [[0, 0], [2, 0]]);
        let s = p.stats();
        assert_eq!(s.windows, 2);
        assert_eq!(s.events, 28);
        // Window 0 critical shard does 10, window 1 does 8.
        assert_eq!(s.crit_events, 18);
        // Splitting the busiest: max(5, 2) + max(4, 8) = 13.
        assert_eq!(s.crit_split_events, 13);
        assert!((s.speedup_ceiling() - 28.0 / 18.0).abs() < 1e-12);
        assert!((s.split_busiest_ceiling() - 28.0 / 13.0).abs() < 1e-12);
        // Shares and mail totals.
        assert_eq!(s.per_shard[0].events, 18);
        assert_eq!(s.per_shard[0].mail_sent, 1);
        assert_eq!(s.per_shard[1].mail_sent, 2);
        assert_eq!(s.mail_matrix, vec![0, 1, 2, 0]);
        // Skew: max 18 over mean 14.
        assert!((s.skew() - 18.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn stats_fold_is_idempotent_and_nondestructive() {
        let mut p = ExecProfile::new();
        feed(&mut p, 0, [4, 6], [[0, 0], [0, 0]]);
        let a = p.stats();
        let b = p.stats();
        assert_eq!(a, b);
        // The profile keeps accepting records after a stats() call.
        feed(&mut p, 1, [1, 1], [[0, 0], [0, 0]]);
        assert_eq!(p.stats().windows, 2);
    }

    #[test]
    fn encode_window_is_stable() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        let rec = WindowRecord {
            window: 3,
            window_start_us: 600,
            shard: 1,
            events: 42,
            queue_depth: 7,
            mail_recv: 2,
            mail_sent: &[0, 9],
        };
        encode_window(&rec, &mut a);
        encode_window(&rec, &mut b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8 + 8 + 4 + 8 + 8 + 8 + 4 + 16);
        let other = WindowRecord { events: 43, ..rec };
        let mut c = Vec::new();
        encode_window(&other, &mut c);
        assert_ne!(a, c);
    }

    #[test]
    fn report_and_json_round_trip() {
        let mut p = ExecProfile::new();
        feed(&mut p, 0, [10, 2], [[0, 1], [0, 0]]);
        feed(&mut p, 1, [8, 8], [[0, 0], [2, 0]]);
        let s = p.stats();
        let labels = vec!["left".to_string(), "right".to_string()];
        let peers = vec![700u64, 300];
        let report = s.render_report(&labels, &peers);
        assert!(report.contains("shard 0 [left]: peers=700 events=18"));
        assert!(report.contains("critical_path: 18 of 28"));
        let json = s.to_json(&labels, &peers, Some("deadbeefx4"));
        let v = ImbalanceStats::parse_json(&json).expect("round-trip");
        assert_eq!(v.get("events").and_then(|x| x.as_u64()), Some(28));
        assert_eq!(
            v.get("critical_path_events").and_then(|x| x.as_u64()),
            Some(18)
        );
        assert_eq!(v.get("stream").and_then(|x| x.as_str()), Some("deadbeefx4"));
        let per = v.get("per_shard").and_then(|x| x.as_arr()).unwrap();
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].get("peers").and_then(|x| x.as_u64()), Some(700));
    }

    #[test]
    fn profiler_streams_to_extra_sink_in_canonical_order() {
        struct Collect(Vec<(u64, u32, u64)>);
        impl ProfileSink for Collect {
            fn on_window(&mut self, r: &WindowRecord<'_>) {
                self.0.push((r.window, r.shard, r.events));
            }
            fn fingerprint(&self) -> Option<String> {
                Some(format!("n={}", self.0.len()))
            }
        }
        let mut p = ShardProfiler::new().with_sink(Box::new(Collect(Vec::new())));
        p.begin_run(2);
        p.record_window(0, &[3, 1], &[0, 0], &[0, 0], &[0, 1, 0, 0]);
        p.record_window(600, &[2, 5], &[4, 4], &[0, 1], &[0, 0, 0, 0]);
        assert_eq!(p.stream_fingerprint().as_deref(), Some("n=4"));
        assert_eq!(p.exec().stats().events, 11);
        assert_eq!(p.exec().stats().crit_events, 3 + 5);
    }

    #[test]
    fn timings_stay_volatile_and_export_chrome_json() {
        let mut t = ShardTimings::default();
        t.push(WindowTiming {
            start_ns: 0,
            busy_start_ns: vec![1_000, 2_000],
            busy_ns: vec![10_000, 4_000],
            wait_ns: vec![0, 6_000],
            merge_ns: 1_500,
        });
        t.push(WindowTiming {
            start_ns: 20_000,
            busy_start_ns: vec![21_000, 21_500],
            busy_ns: vec![3_000, 9_000],
            wait_ns: vec![6_000, 0],
            merge_ns: 500,
        });
        assert_eq!(t.busy_total_ns(0), 13_000);
        assert_eq!(t.wait_total_ns(1), 6_000);
        assert_eq!(t.merge_total_ns(), 2_000);
        assert_eq!(t.wall_critical_path_ns(), 19_000);
        assert!((t.wall_speedup_ceiling() - 26_000.0 / 19_000.0).abs() < 1e-12);
        let json = t.export_chrome_json(512);
        assert!(json.contains("\"name\":\"shard 0\""));
        assert!(json.contains("\"name\":\"barrier\""));
        assert!(json.contains("\"busy\""));
        assert!(json.contains("\"wait\""));
        assert!(json.contains("\"merge\""));
        // Valid JSON per the in-tree parser.
        crate::json::parse(&json).expect("chrome export parses");
        // Bucketing caps the slice count and tags coalesced names.
        let mut big = ShardTimings::default();
        for w in 0..100 {
            big.push(WindowTiming {
                start_ns: w * 1_000,
                busy_start_ns: vec![w * 1_000],
                busy_ns: vec![500],
                wait_ns: vec![0],
                merge_ns: 10,
            });
        }
        let bucketed = big.export_chrome_json(10);
        assert!(bucketed.contains("busy x10"));
        assert!(bucketed.matches("\"ph\":\"X\"").count() <= 25);
    }
}
