//! Deterministic sharded time-series telemetry.
//!
//! The paper's operational story (§3.6/§3.8 and the diurnal Fig. 2 family)
//! is *temporal*: load, fault impact, and recovery are curves over hours,
//! not end-of-run totals. This module is the substrate that turns the
//! sharded runner's event stream into fixed-interval windowed series —
//! counter deltas, sampled levels, and degradation flags keyed by
//! `(metric, group)` — with the same determinism bar as the rest of the
//! scaled path:
//!
//! - **per-shard accumulation** ([`ShardSeries`]): every value is recorded
//!   at its *content time* (the virtual time the underlying event is keyed
//!   to, carried across shard boundaries when needed), never at processing
//!   time, so a shard's series is a pure function of its peer block;
//! - **canonical merge** ([`merge_shards`]): parts are folded in shard
//!   index order with a commutative combine per metric kind (sum for
//!   counters/levels, bitwise OR for flags), so the merged result is
//!   byte-identical between the sequential oracle and the threaded run
//!   and — for metrics flagged `k_invariant` — invariant in the shard
//!   count;
//! - **virtual-time alert replay** ([`MergedSeries::replay`]): the merged
//!   series is fed window-by-window into the PR 5 [`AlertEngine`] as
//!   cumulative-counter / gauge snapshots, so the same declarative rules
//!   that watch the live fleet detect fault classes in a month-long
//!   simulation after the fact.
//!
//! Resident memory is O(windows · groups · metrics) per shard — a few
//! hundred KiB for a 744-hour month at nine regions — independent of the
//! event count.
//!
//! ## Window semantics
//!
//! The timeline is cut into fixed windows of `interval_us`; window `w`
//! covers `[w·I, (w+1)·I)` and is *sampled at its close* `(w+1)·I`.
//!
//! - A **counter** delta at time `t` lands in the window containing `t`.
//! - A **level** (gauge) delta effective from time `t` is visible at every
//!   window close `≥ t`: the merged series reports the level *as sampled
//!   at each close*.
//! - A **flags** interval `[from, until)` marks every window whose close
//!   falls inside it (state active at the sampling instant).

use crate::alert::{AlertEngine, AlertEvent, AlertRule};
use crate::json::push_str_literal;
use crate::registry::RegistrySnapshot;

/// How a metric accumulates within a window and combines across shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesKind {
    /// Per-window delta; shards sum. Rendered as the delta per window.
    Counter,
    /// Running level sampled at each window close; per-window *net
    /// deltas* are recorded and shards sum, then the merge prefix-sums
    /// into the sampled level (e.g. concurrently-online peers).
    Level,
    /// Bitmask sampled at each window close; shards OR (e.g. which
    /// subsystems are fault-degraded).
    Flags,
}

impl SeriesKind {
    /// Stable lowercase tag used in the JSON schema.
    pub fn tag(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Level => "level",
            SeriesKind::Flags => "flags",
        }
    }

    /// Inverse of [`SeriesKind::tag`].
    pub fn from_tag(tag: &str) -> Option<SeriesKind> {
        match tag {
            "counter" => Some(SeriesKind::Counter),
            "level" => Some(SeriesKind::Level),
            "flags" => Some(SeriesKind::Flags),
            _ => None,
        }
    }
}

/// Static description of one tracked metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeriesSpec {
    /// Metric name; alert rules join on this (snapshot key in replay).
    pub name: &'static str,
    /// Accumulation/merge semantics.
    pub kind: SeriesKind,
    /// Whether the merged per-group series is invariant in the shard
    /// count. Anything recorded at content time is; shard-topology
    /// metrics (cross-shard mail) are not and must be flagged so the
    /// K-invariance gate knows to skip them.
    pub k_invariant: bool,
}

impl SeriesSpec {
    /// A K-invariant counter.
    pub const fn counter(name: &'static str) -> SeriesSpec {
        SeriesSpec {
            name,
            kind: SeriesKind::Counter,
            k_invariant: true,
        }
    }

    /// A counter that legitimately depends on the shard topology.
    pub const fn counter_k_variant(name: &'static str) -> SeriesSpec {
        SeriesSpec {
            name,
            kind: SeriesKind::Counter,
            k_invariant: false,
        }
    }

    /// A K-invariant sampled level.
    pub const fn level(name: &'static str) -> SeriesSpec {
        SeriesSpec {
            name,
            kind: SeriesKind::Level,
            k_invariant: true,
        }
    }

    /// A K-invariant sampled bitmask.
    pub const fn flags(name: &'static str) -> SeriesSpec {
        SeriesSpec {
            name,
            kind: SeriesKind::Flags,
            k_invariant: true,
        }
    }
}

/// One shard's accumulator: dense per-window values per `(metric, group)`,
/// grown on first touch. All mutation is content-time-keyed; there is no
/// notion of "current window", so late-arriving contributions (cross-shard
/// mail carrying its origin timestamp) land in the right window for free.
#[derive(Clone, Debug)]
pub struct ShardSeries {
    specs: &'static [SeriesSpec],
    groups: usize,
    interval_us: u64,
    /// `data[m * groups + g][w]` — dense, independently grown rows.
    data: Vec<Vec<i64>>,
}

impl ShardSeries {
    /// New empty accumulator over `groups` groups.
    pub fn new(specs: &'static [SeriesSpec], groups: usize, interval_us: u64) -> ShardSeries {
        assert!(interval_us > 0, "interval must be positive");
        assert!(groups > 0, "at least one group");
        ShardSeries {
            specs,
            groups,
            interval_us,
            data: vec![Vec::new(); specs.len() * groups],
        }
    }

    /// The window containing instant `t` (counter semantics).
    #[inline]
    pub fn window_of(&self, t_us: u64) -> u64 {
        t_us / self.interval_us
    }

    /// The first window whose *close* observes an instant `t`: level and
    /// flag changes at `t` become visible at close `(w+1)·I ≥ t`.
    #[inline]
    pub fn close_window_of(&self, t_us: u64) -> u64 {
        t_us.div_ceil(self.interval_us).saturating_sub(1)
    }

    #[inline]
    fn row(&mut self, metric: usize, group: usize, window: u64) -> &mut i64 {
        debug_assert!(group < self.groups);
        let row = &mut self.data[metric * self.groups + group];
        let w = window as usize;
        if row.len() <= w {
            row.resize(w + 1, 0);
        }
        &mut row[w]
    }

    /// Add a counter delta at content time `t_us`.
    #[inline]
    pub fn add(&mut self, metric: usize, group: usize, t_us: u64, delta: i64) {
        debug_assert_eq!(self.specs[metric].kind, SeriesKind::Counter);
        let w = self.window_of(t_us);
        *self.row(metric, group, w) += delta;
    }

    /// Shift a level by `delta`, effective at every window close `≥ t_us`.
    /// Pair `+1` at a session start with `-1` at its (current) end time;
    /// to *move* an end, cancel the old `-1` and place a new one.
    #[inline]
    pub fn level_shift(&mut self, metric: usize, group: usize, t_us: u64, delta: i64) {
        debug_assert_eq!(self.specs[metric].kind, SeriesKind::Level);
        let w = self.close_window_of(t_us);
        *self.row(metric, group, w) += delta;
    }

    /// OR `bits` into every window whose close instant lies in
    /// `[from_us, until_us)` (the span the flagged state is active).
    pub fn flag_span(
        &mut self,
        metric: usize,
        group: usize,
        from_us: u64,
        until_us: u64,
        bits: i64,
    ) {
        debug_assert_eq!(self.specs[metric].kind, SeriesKind::Flags);
        if until_us <= from_us {
            return;
        }
        let w0 = self.close_window_of(from_us);
        // Largest w with (w+1)·I < until  ⇔  w ≤ ceil(until/I) − 2.
        let hi = until_us.div_ceil(self.interval_us);
        if hi < 2 {
            return;
        }
        let w1 = hi - 2;
        if w1 < w0 {
            return;
        }
        for w in w0..=w1 {
            *self.row(metric, group, w) |= bits;
        }
    }

    /// Last window index touched by any metric flagged `k_invariant`
    /// (plus one = series length). The merge horizon is the max of this
    /// over shards, which keeps the merged length itself K-invariant.
    fn invariant_horizon(&self) -> usize {
        let mut h = 0usize;
        for (m, spec) in self.specs.iter().enumerate() {
            if !spec.k_invariant {
                continue;
            }
            for g in 0..self.groups {
                h = h.max(self.data[m * self.groups + g].len());
            }
        }
        h
    }
}

/// One merged metric: name, semantics, and a dense `values[group][window]`
/// matrix. For [`SeriesKind::Counter`] the values are per-window deltas;
/// for [`SeriesKind::Level`] and [`SeriesKind::Flags`] they are the value
/// *as sampled at each window close*.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergedMetric {
    /// Metric name (alert rules join on this).
    pub name: String,
    /// Accumulation semantics.
    pub kind: SeriesKind,
    /// Whether the per-group series is shard-count-invariant.
    pub k_invariant: bool,
    /// `values[group][window]`, dense over `0..windows`.
    pub values: Vec<Vec<i64>>,
}

impl MergedMetric {
    /// Sum of a group's per-window deltas (counters only; for levels and
    /// flags a run total is meaningless).
    pub fn group_total(&self, group: usize) -> i64 {
        self.values[group].iter().sum()
    }

    /// Per-window values summed (counter/level) or OR'd (flags) across
    /// all groups — the fleet-wide view of the metric.
    pub fn global(&self) -> Vec<i64> {
        let windows = self.values.first().map_or(0, Vec::len);
        let mut out = vec![0i64; windows];
        for row in &self.values {
            for (o, v) in out.iter_mut().zip(row) {
                match self.kind {
                    SeriesKind::Flags => *o |= v,
                    _ => *o += v,
                }
            }
        }
        out
    }
}

/// The merged, canonical-order result of a sharded run: what the sidecar
/// serializes, the gates byte-diff, and the alert replay consumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergedSeries {
    /// Window length in virtual µs.
    pub interval_us: u64,
    /// Number of windows (the K-invariant horizon: last window touched by
    /// any `k_invariant` metric across all shards).
    pub windows: u32,
    /// Group labels (regions), index-aligned with every metric's rows.
    pub groups: Vec<String>,
    /// Metrics in spec order.
    pub metrics: Vec<MergedMetric>,
}

/// Fold per-shard accumulators — **in canonical shard index order** — into
/// one [`MergedSeries`]. Counters and level deltas sum, flags OR; levels
/// are then prefix-summed into sampled values. The horizon is the maximum
/// `k_invariant` extent over shards, so contributions from K-dependent
/// metrics beyond it (cross-shard mail delivered at a barrier after the
/// last content event) are deterministically truncated.
pub fn merge_shards(parts: &[ShardSeries], group_labels: &[String]) -> MergedSeries {
    let first = parts.first().expect("at least one shard");
    let specs = first.specs;
    let groups = first.groups;
    let interval_us = first.interval_us;
    assert_eq!(groups, group_labels.len(), "label per group");
    for p in parts {
        assert!(std::ptr::eq(p.specs, specs) && p.groups == groups && p.interval_us == interval_us);
    }
    let windows = parts
        .iter()
        .map(|p| p.invariant_horizon())
        .max()
        .unwrap_or(0);
    let metrics = specs
        .iter()
        .enumerate()
        .map(|(m, spec)| {
            let mut values = vec![vec![0i64; windows]; groups];
            for part in parts {
                for (g, out) in values.iter_mut().enumerate() {
                    let row = &part.data[m * groups + g];
                    for (w, &v) in row.iter().enumerate().take(windows) {
                        match spec.kind {
                            SeriesKind::Flags => out[w] |= v,
                            _ => out[w] += v,
                        }
                    }
                }
            }
            if spec.kind == SeriesKind::Level {
                for row in &mut values {
                    let mut acc = 0i64;
                    for v in row.iter_mut() {
                        acc += *v;
                        *v = acc;
                    }
                }
            }
            MergedMetric {
                name: spec.name.to_string(),
                kind: spec.kind,
                k_invariant: spec.k_invariant,
                values,
            }
        })
        .collect();
    MergedSeries {
        interval_us,
        windows: windows as u32,
        groups: group_labels.to_vec(),
        metrics,
    }
}

impl MergedSeries {
    /// Look a metric up by name.
    pub fn metric(&self, name: &str) -> Option<&MergedMetric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Canonical byte encoding (fixed-width little-endian, declaration
    /// order) — the input to stream fingerprints. Two runs produce the
    /// same bytes iff they merged bit-identical series.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.interval_us.to_le_bytes());
        out.extend_from_slice(&self.windows.to_le_bytes());
        out.extend_from_slice(&(self.groups.len() as u32).to_le_bytes());
        for g in &self.groups {
            out.extend_from_slice(&(g.len() as u32).to_le_bytes());
            out.extend_from_slice(g.as_bytes());
        }
        out.extend_from_slice(&(self.metrics.len() as u32).to_le_bytes());
        for m in &self.metrics {
            out.extend_from_slice(&(m.name.len() as u32).to_le_bytes());
            out.extend_from_slice(m.name.as_bytes());
            out.push(match m.kind {
                SeriesKind::Counter => 0,
                SeriesKind::Level => 1,
                SeriesKind::Flags => 2,
            });
            out.push(m.k_invariant as u8);
            for row in &m.values {
                for v in row {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        out
    }

    /// Perfetto/Chrome counter-track events for this series: a fragment
    /// of `traceEvents` entries (each prefixed `,\n`, no brackets) to
    /// splice into an existing export before its closing `]`. One
    /// `"ph":"C"` event per coalesced window bucket per metric on the
    /// given `pid`, with one `args` entry per group; `ts` is *virtual*
    /// µs — the slice tracks run on wall time, but counters get their own
    /// process so the two time bases never share a track. Buckets
    /// coalesce `ceil(windows / max_buckets)` windows — counters sum,
    /// levels keep the bucket's last sample, flags OR — and coalesced
    /// names carry the same ` xN` suffix as the profiler's slices.
    /// All-zero buckets are skipped.
    pub fn chrome_counter_events(&self, pid: usize, max_buckets: usize) -> String {
        use std::fmt::Write;
        let windows = self.windows as usize;
        let mut out = String::new();
        if windows == 0 || self.groups.is_empty() {
            return out;
        }
        let group = if max_buckets == 0 {
            1
        } else {
            windows.div_ceil(max_buckets).max(1)
        };
        out.push_str(",\n{\"ph\":\"M\",\"pid\":");
        let _ = write!(out, "{pid}");
        out.push_str(",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":");
        push_str_literal(&mut out, "timeseries (virtual time)");
        out.push_str("}}");
        let suffix = if group > 1 {
            format!(" x{group}")
        } else {
            String::new()
        };
        for m in &self.metrics {
            let mut b0 = 0usize;
            while b0 < windows {
                let b1 = (b0 + group).min(windows);
                let mut vals = vec![0i64; self.groups.len()];
                for (g, val) in vals.iter_mut().enumerate() {
                    let row = &m.values[g];
                    *val = match m.kind {
                        SeriesKind::Counter => row[b0..b1].iter().sum(),
                        SeriesKind::Level => row[b1 - 1],
                        SeriesKind::Flags => row[b0..b1].iter().fold(0, |a, v| a | v),
                    };
                }
                if vals.iter().any(|&v| v != 0) {
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"name\":",
                        b0 as u64 * self.interval_us
                    );
                    push_str_literal(&mut out, &format!("{}{}", m.name, suffix));
                    out.push_str(",\"args\":{");
                    for (g, label) in self.groups.iter().enumerate() {
                        if g > 0 {
                            out.push(',');
                        }
                        push_str_literal(&mut out, label);
                        let _ = write!(out, ":{}", vals[g]);
                    }
                    out.push_str("}}");
                }
                b0 = b1;
            }
        }
        out
    }

    /// Replay the merged series through an [`AlertEngine`] in virtual
    /// time: one observation per window, at its close instant. Counters
    /// are presented cumulatively (Prometheus semantics — the engine
    /// measures `increase()` over its own trailing window); levels and
    /// flags are presented as gauges. `group` restricts the view to one
    /// group; `None` evaluates the fleet-wide aggregate.
    pub fn replay(&self, rules: Vec<AlertRule>, group: Option<usize>) -> Vec<AlertEvent> {
        let mut engine = AlertEngine::new(rules);
        let mut cum: Vec<i64> = vec![0; self.metrics.len()];
        let mut snap = RegistrySnapshot::default();
        for w in 0..self.windows as usize {
            for (m, metric) in self.metrics.iter().enumerate() {
                let v = match group {
                    Some(g) => metric.values[g][w],
                    None => match metric.kind {
                        SeriesKind::Flags => {
                            metric.values.iter().fold(0i64, |acc, row| acc | row[w])
                        }
                        _ => metric.values.iter().map(|row| row[w]).sum(),
                    },
                };
                match metric.kind {
                    SeriesKind::Counter => {
                        cum[m] += v;
                        snap.counters
                            .insert(metric.name.clone(), cum[m].max(0) as u64);
                    }
                    SeriesKind::Level | SeriesKind::Flags => {
                        snap.gauges.insert(metric.name.clone(), v);
                    }
                }
            }
            let close_us = (w as u64 + 1) * self.interval_us;
            engine.observe(close_us, &snap);
        }
        engine.log().to_vec()
    }

    /// Render the series object of the `netsession-timeseries/1` schema
    /// (the caller wraps it with the schema tag and the alert log).
    /// Zero runs of each row are trimmed to a `start` offset plus a dense
    /// `values` array, keeping the committed month-scale sidecar compact.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\n    \"interval_us\": {},\n    \"windows\": {},\n    \"groups\": [",
            self.interval_us, self.windows
        );
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            push_str_literal(&mut s, g);
        }
        s.push_str("],\n    \"metrics\": [");
        for (mi, m) in self.metrics.iter().enumerate() {
            if mi > 0 {
                s.push(',');
            }
            s.push_str("\n      {\"name\": ");
            push_str_literal(&mut s, &m.name);
            let _ = write!(
                s,
                ", \"kind\": \"{}\", \"k_invariant\": {}, \"series\": [",
                m.kind.tag(),
                m.k_invariant
            );
            let mut first = true;
            for (g, row) in m.values.iter().enumerate() {
                let Some(lo) = row.iter().position(|&v| v != 0) else {
                    continue;
                };
                let hi = row.iter().rposition(|&v| v != 0).expect("nonzero exists");
                if !first {
                    s.push(',');
                }
                first = false;
                let _ = write!(
                    s,
                    "\n        {{\"group\": {g}, \"start\": {lo}, \"values\": ["
                );
                for (i, v) in row[lo..=hi].iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "{v}");
                }
                s.push_str("]}");
            }
            if !first {
                s.push_str("\n      ");
            }
            s.push_str("]}");
        }
        s.push_str("\n    ]\n  }");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::RuleKind;

    const HOUR: u64 = 3_600_000_000;

    const SPECS: &[SeriesSpec] = &[
        SeriesSpec::counter("t.count"),
        SeriesSpec::level("t.level"),
        SeriesSpec::flags("t.flags"),
        SeriesSpec::counter_k_variant("t.mail"),
    ];

    fn labels() -> Vec<String> {
        vec!["a".into(), "b".into()]
    }

    #[test]
    fn counter_deltas_land_in_their_content_window() {
        let mut s = ShardSeries::new(SPECS, 2, HOUR);
        s.add(0, 0, 0, 1);
        s.add(0, 0, HOUR - 1, 1);
        s.add(0, 0, HOUR, 5);
        s.add(0, 1, 3 * HOUR + 7, 2);
        let m = merge_shards(&[s], &labels());
        assert_eq!(m.windows, 4);
        let c = m.metric("t.count").unwrap();
        assert_eq!(c.values[0], vec![2, 5, 0, 0]);
        assert_eq!(c.values[1], vec![0, 0, 0, 2]);
        assert_eq!(c.group_total(0), 7);
    }

    #[test]
    fn level_is_sampled_at_window_closes() {
        let mut s = ShardSeries::new(SPECS, 2, HOUR);
        // Session [30min, 2h10min): online at closes of windows 0 and 1,
        // gone by the close of window 2.
        s.level_shift(1, 0, HOUR / 2, 1);
        s.level_shift(1, 0, 2 * HOUR + 600_000_000, -1);
        // Keep the horizon at 4 windows via the counter.
        s.add(0, 0, 3 * HOUR, 1);
        let m = merge_shards(&[s], &labels());
        assert_eq!(m.metric("t.level").unwrap().values[0], vec![1, 1, 0, 0]);
    }

    #[test]
    fn level_boundary_instants_follow_close_semantics() {
        let mut s = ShardSeries::new(SPECS, 2, HOUR);
        // Start exactly at a window close: visible at that close.
        s.level_shift(1, 0, HOUR, 1);
        // End exactly at a close: *not* online at that close (until is
        // exclusive).
        s.level_shift(1, 0, 3 * HOUR, -1);
        s.add(0, 0, 3 * HOUR, 1);
        let m = merge_shards(&[s], &labels());
        // Closes at 1h, 2h, 3h, 4h → online at 1h and 2h only.
        assert_eq!(m.metric("t.level").unwrap().values[0], vec![1, 1, 0, 0]);
    }

    #[test]
    fn flag_spans_mark_closes_inside_the_span() {
        let mut s = ShardSeries::new(SPECS, 2, HOUR);
        // Active [1.5h, 3h): closes 2h is inside; 3h is not (exclusive).
        s.flag_span(2, 1, HOUR + HOUR / 2, 3 * HOUR, 0b10);
        s.add(0, 0, 4 * HOUR, 1);
        let m = merge_shards(&[s], &labels());
        assert_eq!(m.metric("t.flags").unwrap().values[1], vec![0, 2, 0, 0, 0]);
    }

    #[test]
    fn merge_sums_counters_and_ors_flags_in_any_part_count() {
        let mut a = ShardSeries::new(SPECS, 2, HOUR);
        let mut b = ShardSeries::new(SPECS, 2, HOUR);
        a.add(0, 0, 10, 3);
        b.add(0, 0, 20, 4);
        a.flag_span(2, 0, 0, 2 * HOUR, 0b01);
        b.flag_span(2, 0, 0, 2 * HOUR, 0b10);
        a.level_shift(1, 0, 0, 2);
        b.level_shift(1, 0, HOUR + 1, 3);
        let m = merge_shards(&[a, b], &labels());
        let c = m.metric("t.count").unwrap();
        assert_eq!(c.values[0][0], 7);
        assert_eq!(m.metric("t.flags").unwrap().values[0][0], 0b11);
        assert_eq!(m.metric("t.level").unwrap().values[0], vec![2, 5]);
    }

    #[test]
    fn k_variant_metrics_do_not_extend_the_horizon() {
        let mut s = ShardSeries::new(SPECS, 2, HOUR);
        s.add(0, 0, HOUR, 1); // invariant horizon: 2 windows
        s.add(3, 0, 10 * HOUR, 9); // mail far beyond it
        let m = merge_shards(&[s], &labels());
        assert_eq!(m.windows, 2, "horizon set by k_invariant metrics only");
        assert_eq!(m.metric("t.mail").unwrap().values[0], vec![0, 0]);
    }

    #[test]
    fn replay_detects_a_counter_burst_per_group_and_globally() {
        let mut s = ShardSeries::new(SPECS, 2, HOUR);
        s.add(0, 1, 5 * HOUR + 10, 3); // burst in group 1, window 5
        s.add(0, 0, 9 * HOUR, 0); // extend horizon quietly
        s.level_shift(1, 0, 9 * HOUR, 1);
        let m = merge_shards(&[s], &labels());
        let rule = || {
            vec![AlertRule::new(
                "burst",
                "t.count",
                RuleKind::RateAbove { delta: 1 },
                HOUR,
            )]
        };
        let global = m.replay(rule(), None);
        assert!(global.iter().any(|e| e.raised && e.rule == "burst"));
        // Raised at the close of window 5 = 6h of virtual time.
        assert_eq!(global.iter().find(|e| e.raised).unwrap().at_us, 6 * HOUR);
        let g1 = m.replay(rule(), Some(1));
        assert!(g1.iter().any(|e| e.raised));
        let g0 = m.replay(rule(), Some(0));
        assert!(g0.iter().all(|e| !e.raised), "quiet group stays quiet");
    }

    #[test]
    fn replay_clears_after_a_quiet_window() {
        let mut s = ShardSeries::new(SPECS, 1, HOUR);
        s.add(0, 0, HOUR, 5);
        s.add(0, 0, 8 * HOUR, 0); // horizon
        let m = merge_shards(&[s], &["a".to_string()]);
        let log = m.replay(
            vec![AlertRule::new(
                "burst",
                "t.count",
                RuleKind::RateAbove { delta: 1 },
                HOUR,
            )],
            None,
        );
        assert_eq!(log.len(), 2, "one raise, one clear: {log:?}");
        assert!(log[0].raised && !log[1].raised);
        assert!(log[1].at_us > log[0].at_us);
    }
}
