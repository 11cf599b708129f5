//! Sidecar schemas: one declarative row table per JSON artifact the repo
//! commits, and one reader, [`validate`], that every consumer goes
//! through — `scale --lint` and `scale`'s self-checks, `tsreport`, and
//! `perfbench --trend` (via [`crate::trend::parse_snapshot`]):
//!
//! - [`PROFILE`], `netsession-shard-profile/1` (`scale.profile.json`);
//! - [`TIMESERIES`], `netsession-timeseries/1` (`scale.timeseries.json`);
//! - [`PERFBENCH`], `netsession-perfbench/1` (`results/bench/BENCH_<issue>.json`).
//!
//! A [`Row`] names a dotted field path (`[]` = every element of an
//! array), its [`Ty`], an optional inclusive range (on an array, its
//! length), its [`Channel`] and, for perfbench rows, the issue whose
//! snapshot first carried it: older snapshots are immutable history and
//! stay valid without later fields. What a row cannot say is a named
//! cross-field check attached to the schema. The deterministic/volatile
//! separation is derived from the table: no key a volatile row declares
//! may appear in a section a deterministic row declares.

use netsession_hybrid::alerts::{SeriesDetection, FAULT_CLASS_RULES};
use netsession_hybrid::ScaledAlert;
use netsession_logs::SeriesDigest;
use netsession_obs::json::{self, JsonValue};
use netsession_obs::{AlertEvent, MergedMetric, MergedSeries, SeriesKind};
use std::fmt::Write;

/// The JSON type a row requires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ty {
    /// Any number.
    Num,
    /// A whole number `>= 0`.
    Uint,
    /// A whole number `>= 1`.
    PosInt,
    /// A string.
    Str,
    /// A string or `null`.
    NullOrStr,
    /// `true` / `false`.
    Bool,
    /// An array.
    Arr,
}

impl Ty {
    fn admits(self, v: &JsonValue) -> bool {
        match self {
            Ty::Num => v.as_f64().is_some(),
            Ty::Uint => v.as_u64().is_some(),
            Ty::PosInt => v.as_u64().is_some_and(|n| n > 0),
            Ty::Str => v.as_str().is_some(),
            Ty::NullOrStr => v.as_str().is_some() || *v == JsonValue::Null,
            Ty::Bool => v.as_bool().is_some(),
            Ty::Arr => v.as_arr().is_some(),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Ty::Num => "a number",
            Ty::Uint => "a non-negative integer",
            Ty::PosInt => "a positive integer",
            Ty::Str => "a string",
            Ty::NullOrStr => "a string or null",
            Ty::Bool => "a bool",
            Ty::Arr => "an array",
        }
    }
}

/// Which telemetry channel a field belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Channel {
    /// Reproduces byte for byte at the same seed.
    Det,
    /// Wall-clock or host-dependent; must stay out of deterministic sections.
    Volatile,
    /// The artifact has no deterministic/volatile split.
    None,
}

/// One field of a schema.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Dotted path from the document root; `key[]` visits every element.
    pub path: &'static str,
    /// Required type of every value at `path`.
    pub ty: Ty,
    /// Inclusive bounds on the value (on an array: on its length).
    pub range: Option<(f64, f64)>,
    /// Telemetry channel.
    pub channel: Channel,
    /// First perfbench issue whose snapshot must carry the field (0 = all).
    pub since: u64,
}

const fn det(path: &'static str, ty: Ty) -> Row {
    Row {
        path,
        ty,
        range: None,
        channel: Channel::Det,
        since: 0,
    }
}

const fn vol(path: &'static str, ty: Ty) -> Row {
    Row {
        channel: Channel::Volatile,
        ..det(path, ty)
    }
}

const fn bench(since: u64, path: &'static str, ty: Ty) -> Row {
    Row {
        channel: Channel::None,
        since,
        ..det(path, ty)
    }
}

impl Row {
    const fn range(self, lo: f64, hi: f64) -> Row {
        Row {
            range: Some((lo, hi)),
            ..self
        }
    }

    /// `(section, key)`: the first two path segments, brackets dropped.
    fn section_key(&self) -> (&'static str, Option<&'static str>) {
        let mut segs = self.path.split(['.', '[']);
        (segs.next().unwrap_or(""), segs.next())
    }

    fn check(&self, root: &JsonValue) -> Result<(), String> {
        // `a.b[][]` → `a`, `b`, `]`, `]`: a `]` segment is "every element".
        let segs: Vec<&str> = self.path.split(['.', '[']).collect();
        self.visit(root, &segs, &mut String::new())
    }

    /// Descend one path segment from `v`, whose path is `at`.
    fn visit(&self, v: &JsonValue, segs: &[&str], at: &mut String) -> Result<(), String> {
        let Some((&seg, rest)) = segs.split_first() else {
            return self.check_leaf(v, at);
        };
        if seg == "]" {
            let items = v.as_arr().ok_or_else(|| format!("{at} is not an array"))?;
            let len = at.len();
            for (i, item) in items.iter().enumerate() {
                at.truncate(len);
                let _ = write!(at, "[{i}]");
                self.visit(item, rest, at)?;
            }
            return Ok(());
        }
        if !at.is_empty() {
            at.push('.');
        }
        at.push_str(seg);
        match (v.get(seg), self.since) {
            (Some(child), _) => self.visit(child, rest, at),
            (None, 0) => Err(format!("{at} missing")),
            (None, since) => Err(format!("{at} missing (required from BENCH_{since} on)")),
        }
    }

    fn check_leaf(&self, v: &JsonValue, at: &str) -> Result<(), String> {
        if !self.ty.admits(v) {
            return Err(match v.as_f64() {
                Some(n) => format!("{at} is {n}, not {}", self.ty.name()),
                None => format!("{at} is not {}", self.ty.name()),
            });
        }
        let Some((lo, hi)) = self.range else {
            return Ok(());
        };
        let (measure, what) = match v.as_arr() {
            Some(items) => (items.len() as f64, " entries"),
            None => (v.as_f64().unwrap_or(lo), ""),
        };
        if (lo..=hi).contains(&measure) {
            Ok(())
        } else {
            Err(format!("{at} is {measure}{what}, outside {lo}..={hi}"))
        }
    }
}

/// A cross-field rule of one schema, run after every row holds.
pub type Check = fn(&Doc) -> Result<(), String>;

/// One sidecar format: its `schema` tag, rows and cross-field checks.
pub struct Schema {
    /// Value of the document's `schema` field.
    pub tag: &'static str,
    /// Every field, checked in order; the first failure is the error.
    pub rows: &'static [Row],
    /// Rules rows cannot express, checked in order after the rows.
    pub checks: &'static [Check],
}

impl Schema {
    /// Keys the volatile rows declare (`volatile.busy_ms[]` → `busy_ms`).
    pub fn volatile_keys(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.rows
            .iter()
            .filter(|r| r.channel == Channel::Volatile)
            .filter_map(|r| r.section_key().1)
    }

    /// The separation rule, from the table: no volatile key inside any
    /// section a deterministic row lives in.
    fn check_separation(&self, root: &JsonValue) -> Result<(), String> {
        for row in self.rows.iter().filter(|r| r.channel == Channel::Det) {
            let section = row.section_key().0;
            let obj = root.get(section).unwrap_or(&JsonValue::Null);
            if let Some(key) = self.volatile_keys().find(|k| obj.get(k).is_some()) {
                return Err(format!(
                    "volatile field {key} leaked into {section} section"
                ));
            }
        }
        Ok(())
    }
}

/// The shard profiler's sidecar: every field `scale` writes.
pub static PROFILE: Schema = Schema {
    tag: "netsession-shard-profile/1",
    rows: &[
        det("deterministic.shards", Ty::PosInt),
        det("deterministic.windows", Ty::Uint),
        det("deterministic.events", Ty::Uint),
        det("deterministic.critical_path_events", Ty::Uint),
        det("deterministic.critical_path_split_events", Ty::Uint),
        det("deterministic.speedup_ceiling", Ty::Num),
        det("deterministic.split_busiest_ceiling", Ty::Num),
        det("deterministic.skew", Ty::Num),
        det("deterministic.stream", Ty::Str),
        det("deterministic.per_shard[].shard", Ty::Uint),
        det("deterministic.per_shard[].regions", Ty::Str),
        det("deterministic.per_shard[].peers", Ty::Uint),
        det("deterministic.per_shard[].events", Ty::Uint),
        det("deterministic.per_shard[].share_pct", Ty::Num).range(0.0, 100.0),
        det("deterministic.per_shard[].windows_occupied", Ty::Uint),
        det("deterministic.per_shard[].mail_sent", Ty::Uint),
        det("deterministic.per_shard[].mail_recv", Ty::Uint),
        det("deterministic.per_shard[].max_queue_depth", Ty::Uint),
        det("deterministic.mail_matrix[][]", Ty::Uint),
        vol("volatile.mode", Ty::Str),
        vol("volatile.cpus", Ty::Uint),
        vol("volatile.threads", Ty::PosInt),
        vol("volatile.wall_s", Ty::Num),
        vol("volatile.busy_ms[]", Ty::Num),
        vol("volatile.wait_ms[]", Ty::Num),
        vol("volatile.merge_ms", Ty::Num),
        vol("volatile.wall_critical_path_ms", Ty::Num),
        vol("volatile.wall_speedup_ceiling", Ty::Num),
    ],
    checks: &[sized_by_shards, threads_fit_shards],
};

/// Fault-campaign metrics the sidecar's series must carry: the alert
/// rules join on the `hybrid.fault.*` names, and `tsreport` reads the
/// `scaled.*` ones.
const REPORT_METRICS: [&str; 4] = [
    "scaled.active_peers",
    "scaled.downloads_started",
    "scaled.downloads_completed",
    "scaled.bytes_peers",
];

/// The merged windowed series, injected-fault log and replayed detections.
pub static TIMESERIES: Schema = Schema {
    tag: "netsession-timeseries/1",
    rows: &[
        det("series.interval_us", Ty::PosInt),
        det("series.windows", Ty::PosInt),
        det("series.groups", Ty::Arr).range(1.0, f64::INFINITY),
        det("series.groups[]", Ty::Str),
        det("series.metrics", Ty::Arr).range(1.0, f64::INFINITY),
        det("series.metrics[].name", Ty::Str),
        det("series.metrics[].kind", Ty::Str),
        det("series.metrics[].k_invariant", Ty::Bool),
        det("series.metrics[].series[].group", Ty::Uint),
        det("series.metrics[].series[].start", Ty::Uint),
        det("series.metrics[].series[].values[]", Ty::Num),
        det("digest", Ty::Str),
        det("alerts[].class", Ty::Str),
        det("alerts[].at_hours", Ty::Uint),
        det("alerts[].window", Ty::Uint).range(0.0, u32::MAX as f64),
        det("alerts[].region", Ty::Str),
        det("alerts[].detail", Ty::Uint),
        det("detections[].region", Ty::NullOrStr),
        det("detections[].rule", Ty::Str),
        det("detections[].raised", Ty::Bool),
        det("detections[].at_us", Ty::Uint),
        det("detections[].message", Ty::Str),
    ],
    checks: &[
        catalog_has_joined_metrics,
        digest_matches_series,
        injected_classes_raised_their_rules,
        no_detections_without_faults,
    ],
};

/// One `perfbench` trajectory snapshot. Each family's self-check flag is
/// written as 1 only after the run's A/B outputs were asserted
/// identical, so anything else is a lie.
pub static PERFBENCH: Schema = Schema {
    tag: "netsession-perfbench/1",
    rows: &[
        bench(0, "issue", Ty::Uint),
        bench(0, "headline.wall_ms", Ty::Num),
        bench(0, "headline.events_per_sec", Ty::Num),
        bench(0, "families.event_queue.macro_speedup", Ty::Num),
        bench(0, "families.hashing.hash_speedup", Ty::Num),
        // SHA-256 throughput at the two sizes the system hashes, and the
        // kernel behind it: a `scalar` snapshot is a CPU without the SHA
        // extensions, not a regression against a `sha-ni` one.
        bench(15, "families.hashing.sha256_64k_mb_s", Ty::Num),
        bench(15, "families.hashing.sha256_64b_mb_s", Ty::Num),
        bench(15, "families.hashing.sha256_kernel", Ty::Str),
        bench(
            0,
            "families.alloc_churn.flownet_recompute_allocs_per_op",
            Ty::Num,
        ),
        bench(0, "families.obs.tracing_overhead_pct", Ty::Num),
        bench(7, "families.scale.peers", Ty::PosInt),
        bench(7, "families.scale.days", Ty::PosInt),
        bench(7, "families.scale.shards", Ty::PosInt),
        bench(7, "families.scale.seq_wall_ms", Ty::Num),
        bench(7, "families.scale.par_wall_ms", Ty::Num),
        bench(7, "families.scale.parallel_speedup", Ty::Num),
        bench(7, "families.scale.peak_rss_kb", Ty::Uint),
        bench(7, "families.scale.outputs_identical", Ty::Num).range(1.0, 1.0),
        // The context a speedup cannot be read without: how many cores
        // ran it, and which regions each shard carried.
        bench(8, "families.scale.cpus", Ty::PosInt),
        bench(8, "families.scale.shard_regions", Ty::Str),
        bench(8, "families.shard_profile.shards", Ty::PosInt),
        bench(8, "families.shard_profile.windows", Ty::PosInt),
        bench(8, "families.shard_profile.events", Ty::Uint),
        bench(8, "families.shard_profile.critical_path_events", Ty::Uint),
        bench(8, "families.shard_profile.speedup_ceiling", Ty::Num),
        bench(8, "families.shard_profile.split_busiest_ceiling", Ty::Num),
        bench(8, "families.shard_profile.skew", Ty::Num),
        bench(8, "families.shard_profile.det_stream_identical", Ty::Num).range(1.0, 1.0),
        bench(10, "families.timeseries.windows", Ty::PosInt),
        bench(10, "families.timeseries.metrics", Ty::PosInt),
        bench(10, "families.timeseries.on_wall_ms", Ty::Num),
        bench(10, "families.timeseries.off_wall_ms", Ty::Num),
        bench(10, "families.timeseries.overhead_pct", Ty::Num),
        bench(10, "families.timeseries.report_identical", Ty::Num).range(1.0, 1.0),
    ],
    checks: &[parallel_runner_keeps_up],
};

/// Every schema [`validate`] dispatches on.
pub static SCHEMAS: [&Schema; 3] = [&PROFILE, &TIMESERIES, &PERFBENCH];

/// A sidecar that passed [`validate`].
pub struct Doc {
    /// The schema it was validated against.
    pub schema: &'static Schema,
    /// The parsed document.
    pub root: JsonValue,
    /// The decoded series and logs, for a [`TIMESERIES`] sidecar.
    pub timeseries: Option<Timeseries>,
}

impl Doc {
    /// The value at a dotted path without `[]` (`families.scale.cpus`).
    pub fn get(&self, path: &str) -> Option<&JsonValue> {
        path.split('.').try_fold(&self.root, |v, key| v.get(key))
    }

    /// The number at a dotted path.
    pub fn num(&self, path: &str) -> Option<f64> {
        self.get(path)?.as_f64()
    }

    /// The whole number at a dotted path (0 if absent).
    pub fn uint(&self, path: &str) -> u64 {
        uint(self.get(path))
    }

    fn series(&self) -> Result<&Timeseries, String> {
        self.timeseries
            .as_ref()
            .ok_or_else(|| format!("{} carries no series", self.schema.tag))
    }
}

fn uint(v: Option<&JsonValue>) -> u64 {
    v.and_then(JsonValue::as_u64).unwrap_or(0)
}

/// The elements of an array (none for any other value).
fn items_of(v: &JsonValue) -> &[JsonValue] {
    v.as_arr().unwrap_or(&[])
}

fn items<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    v.get(key).map_or(&[], items_of)
}

/// The typed contents of a [`TIMESERIES`] sidecar: what `scale` wrote
/// it from.
pub struct Timeseries {
    /// The merged per-(metric, region) series.
    pub series: MergedSeries,
    /// The injected-fault log (`region` indexes `series.groups`).
    pub alerts: Vec<ScaledAlert>,
    /// The replayed detections.
    pub detections: Vec<SeriesDetection>,
}

/// Largest `windows × groups × metrics` a timeseries sidecar may declare.
const MAX_SERIES_CELLS: usize = 1 << 24;

impl Timeseries {
    /// Decode a document whose rows all hold (so the defaults below are
    /// never taken). What rows cannot say is checked here: each metric's
    /// kind tag, each sparse row landing inside `groups × windows`, and
    /// each alert naming a known fault class and a series group.
    fn decode(root: &JsonValue) -> Result<Self, String> {
        let text =
            |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_str).map(str::to_string);
        let int = |v: &JsonValue, key: &str| uint(v.get(key));
        let flag = |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_bool) == Some(true);
        let series = root.get("series").unwrap_or(&JsonValue::Null);
        let windows = int(series, "windows");
        let groups: Vec<String> = items(series, "groups")
            .iter()
            .filter_map(|g| g.as_str().map(str::to_string))
            .collect();
        // The series is dense: bound what a damaged header can make us
        // allocate (the committed full run is ~120k cells).
        let specs = items(series, "metrics");
        let cells = (windows as usize)
            .saturating_mul(groups.len())
            .saturating_mul(specs.len());
        if cells > MAX_SERIES_CELLS {
            return Err(format!(
                "series of {cells} cells exceeds {MAX_SERIES_CELLS}"
            ));
        }
        let mut metrics = Vec::new();
        for m in specs {
            let name = text(m, "name").unwrap_or_default();
            let kind = text(m, "kind").and_then(|k| SeriesKind::from_tag(&k));
            let kind = kind.ok_or_else(|| format!("metric {name}: bad kind"))?;
            let mut values = vec![vec![0i64; windows as usize]; groups.len()];
            for row in items(m, "series") {
                let (g, start, vals) = (int(row, "group"), int(row, "start"), items(row, "values"));
                let cells = values
                    .get_mut(g as usize)
                    .and_then(|cells| cells.get_mut(start as usize..)?.get_mut(..vals.len()))
                    .ok_or_else(|| format!("metric {name}: group {g} row outside the series"))?;
                for (cell, v) in cells.iter_mut().zip(vals) {
                    *cell = v.as_f64().unwrap_or(0.0) as i64;
                }
            }
            metrics.push(MergedMetric {
                k_invariant: flag(m, "k_invariant"),
                name,
                kind,
                values,
            });
        }
        let mut alerts = Vec::new();
        for (i, a) in items(root, "alerts").iter().enumerate() {
            let class = text(a, "class").unwrap_or_default();
            let Some(&(class, _, _)) = FAULT_CLASS_RULES.iter().find(|(c, _, _)| *c == class)
            else {
                return Err(format!("alerts[{i}]: unknown fault class {class}"));
            };
            let region = text(a, "region").unwrap_or_default();
            let index = groups.iter().position(|g| *g == region);
            let Some(index) = index.and_then(|g| u8::try_from(g).ok()) else {
                return Err(format!(
                    "alerts[{i}]: region {region} is not a series group"
                ));
            };
            alerts.push(ScaledAlert {
                class,
                at_hours: int(a, "at_hours"),
                window: int(a, "window") as u32,
                region: index,
                detail: int(a, "detail"),
            });
        }
        let detections = items(root, "detections")
            .iter()
            .map(|d| SeriesDetection {
                region: text(d, "region"),
                event: AlertEvent {
                    at_us: int(d, "at_us"),
                    rule: text(d, "rule").unwrap_or_default(),
                    raised: flag(d, "raised"),
                    message: text(d, "message").unwrap_or_default(),
                },
            })
            .collect();
        Ok(Self {
            series: MergedSeries {
                interval_us: int(series, "interval_us"),
                windows: windows as u32,
                groups,
                metrics,
            },
            alerts,
            detections,
        })
    }
}

/// Parse `text`, pick its schema by the `schema` tag, and check every row
/// that applies, the separation rule and the schema's cross-field checks.
pub fn validate(text: &str) -> Result<Doc, String> {
    let root = json::parse(text).map_err(|e| e.to_string())?;
    let tag = root.get("schema").and_then(JsonValue::as_str);
    let Some(schema) = SCHEMAS.iter().copied().find(|s| Some(s.tag) == tag) else {
        return Err(format!("bad schema tag {tag:?}"));
    };
    // Perfbench rows bind from their issue on; the `issue` row itself
    // (since 0) rejects a snapshot without a readable one.
    let issue = uint(root.get("issue"));
    for row in schema.rows.iter().filter(|r| r.since <= issue) {
        row.check(&root)?;
    }
    schema.check_separation(&root)?;
    let timeseries = (schema.tag == TIMESERIES.tag)
        .then(|| Timeseries::decode(&root))
        .transpose()?;
    let doc = Doc {
        schema,
        root,
        timeseries,
    };
    for check in schema.checks {
        check(&doc)?;
    }
    Ok(doc)
}

/// [`validate`] the file at `path`; errors are prefixed with the path.
pub fn validate_file(path: &str) -> Result<Doc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    validate(&text).map_err(|e| format!("{path}: {e}"))
}

/// One entry per shard in `per_shard`, the mail matrix (both ways) and
/// the per-shard wall timings.
fn sized_by_shards(doc: &Doc) -> Result<(), String> {
    let shards = doc.uint("deterministic.shards") as usize;
    let sized = [
        "deterministic.per_shard",
        "deterministic.mail_matrix",
        "volatile.busy_ms",
        "volatile.wait_ms",
    ];
    let matrix = doc
        .get("deterministic.mail_matrix")
        .map_or(&[][..], |m| items_of(m));
    let rows = matrix
        .iter()
        .enumerate()
        .map(|(i, row)| (format!("deterministic.mail_matrix[{i}]"), Some(row)));
    for (path, v) in sized
        .map(|p| (p.to_string(), doc.get(p)))
        .into_iter()
        .chain(rows)
    {
        let n = v.map_or(0, |v| items_of(v).len());
        if n != shards {
            return Err(format!(
                "{path} has {n} entries, deterministic.shards says {shards}"
            ));
        }
    }
    Ok(())
}

/// The runner's pool is at most one thread per shard, and the sequential
/// oracle is one thread. With fewer threads than shards, `wait_ms`
/// includes time queued behind the thread's other shards.
fn threads_fit_shards(doc: &Doc) -> Result<(), String> {
    let shards = doc.uint("deterministic.shards");
    let threads = doc.uint("volatile.threads");
    let sequential = doc.get("volatile.mode").and_then(JsonValue::as_str) == Some("sequential");
    if threads > shards {
        Err(format!(
            "volatile.threads is {threads}, outside 1..={shards}"
        ))
    } else if sequential && threads != 1 {
        Err(format!("volatile.threads is {threads} in sequential mode"))
    } else {
        Ok(())
    }
}

/// The catalog carries every metric the alert join and the report read;
/// a catalog that lost them would make the detections log vacuous.
fn catalog_has_joined_metrics(doc: &Doc) -> Result<(), String> {
    let series = &doc.series()?.series;
    let joined = FAULT_CLASS_RULES.iter().map(|(_, _, metric)| *metric);
    match joined
        .chain(REPORT_METRICS)
        .find(|m| series.metric(m).is_none())
    {
        Some(metric) => Err(format!("series catalog is missing {metric}")),
        None => Ok(()),
    }
}

/// The digest is recomputed from the decoded values, not read back, so a
/// sidecar regenerated from different code or edited by hand fails here.
fn digest_matches_series(doc: &Doc) -> Result<(), String> {
    let digest = doc.get("digest").and_then(JsonValue::as_str).unwrap_or("");
    if digest == SeriesDigest::fingerprint(&doc.series()?.series) {
        Ok(())
    } else {
        Err(format!(
            "digest {digest} does not match the decoded series: stale or corrupted sidecar"
        ))
    }
}

/// Every injected fault class raised its paired rule
/// ([`FAULT_CLASS_RULES`]) somewhere in the detections log.
fn injected_classes_raised_their_rules(doc: &Doc) -> Result<(), String> {
    let ts = doc.series()?;
    let injected = |class: &str| ts.alerts.iter().any(|a| a.class == class);
    let raised = |rule: &str| {
        ts.detections
            .iter()
            .any(|d| d.event.rule == rule && d.event.raised)
    };
    match FAULT_CLASS_RULES
        .iter()
        .find(|(c, r, _)| injected(c) && !raised(r))
    {
        Some((class, rule, _)) => Err(format!(
            "fault class {class} was injected but rule {rule} never raised"
        )),
        None => Ok(()),
    }
}

/// A fault-free run raises nothing: any detection is a false positive.
fn no_detections_without_faults(doc: &Doc) -> Result<(), String> {
    let ts = doc.series()?;
    if ts.alerts.is_empty() && !ts.detections.is_empty() {
        return Err(format!(
            "{} detections on a fault-free run: false positives",
            ts.detections.len()
        ));
    }
    Ok(())
}

/// Snapshots from issue 13 on measure the persistent-pool runner, whose
/// threaded run may not lose to its own oracle (with one core it *is* the
/// oracle, so only noise separates them).
fn parallel_runner_keeps_up(doc: &Doc) -> Result<(), String> {
    if doc.uint("issue") < 13 {
        return Ok(());
    }
    let cpus = doc.num("families.scale.cpus").unwrap_or(0.0);
    let floor = if cpus >= 2.0 { 1.0 } else { 0.95 };
    let speedup = doc.num("families.scale.parallel_speedup").unwrap_or(0.0);
    if speedup < floor {
        return Err(format!(
            "families.scale.parallel_speedup {speedup:.2} < {floor} on {cpus} cpus: \
             the parallel runner must not lose to the sequential oracle"
        ));
    }
    Ok(())
}
