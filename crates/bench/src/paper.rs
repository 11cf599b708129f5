//! The paper's experiment table: every table and figure of §4–§6 is a view
//! of one simulated month, and every design argument (the §3.8 chaos
//! campaign, ablations A1–A6) is that month with one parameter changed. An
//! entry names the months it reads — the standard config at its committed
//! scale plus a config delta each — and renders their [`SimOutput`]s to the
//! text committed as `results/<name>.txt`. The `paper` binary [`plan`]s the
//! selected entries, simulates every *distinct* config once and walks this
//! table (DESIGN.md's per-experiment index E1–E21 and A1–A6 maps paper
//! artifacts to entries).

mod ablations;
mod chaos;

use netsession_analytics::guidgraph::{self, ChainPattern};
use netsession_analytics::regions::{self, CoverageClass};
use netsession_analytics::stats::{mean, Cdf};
use netsession_analytics::{
    astraffic, efficiency, mobility, outcomes, overview, settings, sizes, speeds,
};
use netsession_core::time::TRACE_MONTH;
use netsession_hybrid::{HybridSim, ScenarioConfig, SimOutput};
use netsession_world::customers::{customer_by_cp, customer_by_name, CUSTOMERS};
use netsession_world::geo::{continent_of, Continent, Region, WORLD_COUNTRIES};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::runner::{config_for, pct, ExperimentArgs, Overrides};

/// What one month changes in the standard config.
pub type Delta = fn(&mut ScenarioConfig);

/// An entry's renderer: pulls its months in `runs` order (each is freed
/// when the renderer lets go of it unless a later reader needs it) and
/// returns one text per output file, `<name>.txt` first, then `extra` in
/// order.
pub type Render = fn(&mut dyn Iterator<Item = Arc<SimOutput>>) -> Vec<String>;

/// One simulated month an entry reads.
pub struct Run {
    /// Applied to the standard config at the entry's scale.
    pub delta: Delta,
    /// Stem of the `results/<stem>.{metrics,trace}.json` pair this month's
    /// telemetry is committed as, if it is.
    pub sidecars: Option<&'static str>,
}

/// The fault-free standard month: what every figure reads.
const MONTH: Run = Run {
    delta: |_| {},
    sidecars: Some("paper"),
};

/// One paper artifact.
pub struct Experiment {
    /// The `paper` binary's positional argument and the stem of
    /// `results/<name>.txt`.
    pub name: &'static str,
    /// The scale the committed artifact was rendered at (flags override).
    pub scale: ExperimentArgs,
    /// The months it reads.
    pub runs: &'static [Run],
    /// Further files it writes beside `results/<name>.txt`.
    pub extra: &'static [&'static str],
    /// Renders them.
    pub render: Render,
}

impl Experiment {
    /// The files this entry writes under `results/`, in `render` order.
    pub fn outputs(&self) -> impl Iterator<Item = String> + '_ {
        std::iter::once(format!("{}.txt", self.name))
            .chain(self.extra.iter().map(|f| f.to_string()))
    }
}

/// A view of the standard month, named after its renderer below.
macro_rules! figure {
    ($name:ident) => {
        Experiment {
            name: stringify!($name),
            scale: ExperimentArgs::FIGURES,
            runs: &[MONTH],
            extra: &[],
            render: |months| vec![$name(&months.next().expect("a figure reads one month"))],
        }
    };
}

/// A comparison across `runs`, none of which commits telemetry.
const fn ablation(name: &'static str, runs: &'static [Run], render: Render) -> Experiment {
    Experiment {
        name,
        scale: ExperimentArgs::ABLATIONS,
        runs,
        extra: &[],
        render,
    }
}

/// A month that commits no telemetry.
const fn vary(delta: Delta) -> Run {
    Run {
        delta,
        sidecars: None,
    }
}

/// Every paper artifact, in DESIGN.md index order (E1–E20, the chaos
/// campaign, A1–A6).
pub const EXPERIMENTS: &[Experiment] = &[
    figure!(table1),
    figure!(table2),
    figure!(table3),
    figure!(table4),
    figure!(fig2),
    figure!(fig3a),
    figure!(fig3b),
    figure!(fig3c),
    figure!(fig4),
    figure!(fig5),
    figure!(fig6),
    figure!(fig7),
    figure!(fig8),
    figure!(fig9),
    figure!(fig10),
    figure!(fig11),
    figure!(fig12),
    figure!(headline),
    figure!(outcomes),
    figure!(mobility),
    Experiment {
        name: "chaos",
        scale: ExperimentArgs::FIGURES,
        runs: &[
            MONTH,
            Run {
                delta: |c| c.faults.events = chaos::campaign(),
                sidecars: Some("chaos"),
            },
        ],
        extra: &["alerts.txt", "alerts.json"],
        render: chaos::render,
    },
    // The ladder only matters when there are more candidates than slots;
    // both A1 months return few peers so selection is actually selective.
    ablation(
        "ablate_locality",
        &[
            vary(|c| {
                c.locality_aware = true;
                c.peers_returned = 8;
            }),
            vary(|c| {
                c.locality_aware = false;
                c.peers_returned = 8;
            }),
        ],
        ablations::locality,
    ),
    ablation(
        "ablate_backstop",
        &[
            vary(|c| c.edge_backstop = true),
            vary(|c| c.edge_backstop = false),
        ],
        ablations::backstop,
    ),
    ablation(
        "ablate_uploadcap",
        &[
            vary(|c| c.per_object_upload_cap = Some(30)),
            vary(|c| c.per_object_upload_cap = None),
        ],
        ablations::uploadcap,
    ),
    ablation(
        "ablate_peerlist",
        &[
            vary(|c| c.peers_returned = 5),
            vary(|c| c.peers_returned = 10),
            vary(|c| c.peers_returned = 20),
            vary(|c| c.peers_returned = 40),
        ],
        ablations::peerlist,
    ),
    ablation(
        "ablate_enablefrac",
        &[
            vary(|c| c.enable_fraction_override = Some(0.0)),
            vary(|c| c.enable_fraction_override = Some(0.1)),
            vary(|c| c.enable_fraction_override = Some(0.31)),
            vary(|c| c.enable_fraction_override = Some(0.6)),
            vary(|c| c.enable_fraction_override = Some(1.0)),
        ],
        ablations::enablefrac,
    ),
    ablation(
        "ablate_sessions",
        &[
            vary(|c| c.session_mode_factor = 1.0),
            vary(|c| c.session_mode_factor = 0.5),
            vary(|c| c.session_mode_factor = 0.15),
        ],
        ablations::sessions,
    ),
];

/// The entries named by `names`, in table order (all of them when `names`
/// is empty). An unknown name is an error that lists the table.
pub fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if let Some(bad) = names
        .iter()
        .find(|n| !EXPERIMENTS.iter().any(|e| e.name == *n))
    {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        return Err(format!(
            "unknown experiment {bad} (known: {})",
            known.join(" ")
        ));
    }
    Ok(EXPERIMENTS
        .iter()
        .filter(|e| names.is_empty() || names.iter().any(|n| n == e.name))
        .collect())
}

/// One distinct month of a [`Plan`].
pub struct PlannedRun {
    /// The month's full config: an entry's standard config plus a delta.
    pub config: ScenarioConfig,
    /// Stem its telemetry pair is written under, if any reader commits it.
    pub sidecars: Option<&'static str>,
    /// Entry runs that read it.
    reads: usize,
}

/// The selected entries and the distinct months they read: two runs whose
/// deltas build equal configs are one month, simulated once.
pub struct Plan {
    /// Distinct months, in first-use order.
    pub runs: Vec<PlannedRun>,
    /// Each selected entry with one index into `runs` per entry run.
    pub entries: Vec<(&'static Experiment, Vec<usize>)>,
}

/// Plan `selected` (table order) under the command line's `flags`.
pub fn plan(selected: &[&'static Experiment], flags: &Overrides) -> Plan {
    let mut runs: Vec<PlannedRun> = Vec::new();
    let mut entries = Vec::new();
    for exp in selected {
        let standard = config_for(&flags.over(exp.scale));
        let reads = exp.runs.iter().map(|run| {
            let mut config = standard.clone();
            (run.delta)(&mut config);
            let i = runs
                .iter()
                .position(|r| r.config == config)
                .unwrap_or_else(|| {
                    runs.push(PlannedRun {
                        config,
                        sidecars: None,
                        reads: 0,
                    });
                    runs.len() - 1
                });
            runs[i].sidecars = runs[i].sidecars.or(run.sidecars);
            runs[i].reads += 1;
            i
        });
        entries.push((*exp, reads.collect()));
    }
    Plan { runs, entries }
}

impl Plan {
    /// Walk the entries in order while a scoped pool of
    /// `available_parallelism()` workers simulates the months in first-use
    /// order. A month is a pure function of its config, so which worker
    /// runs it, and when, changes no byte. A worker starts a month only
    /// while it lies less than one pool width past the furthest month the
    /// walk has asked for, so at most that many finished months wait
    /// unread; after its first read a month is held only until its last, so
    /// a sweep keeps few months alive at a time (plus any a later entry
    /// shares). `emit(file, text, echo)` receives every file to write
    /// under `results/` — per entry, the telemetry pairs of the months it
    /// read first, then its outputs — with `echo` set on `<name>.txt`,
    /// which the `paper` binary also prints.
    pub fn execute<E>(
        self,
        mut emit: impl FnMut(&str, &str, bool) -> Result<(), E>,
    ) -> Result<(), E> {
        let Plan { runs, entries } = self;
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(runs.len());
        let pool = Pool {
            runs: &runs,
            window: workers,
            state: Mutex::new(PoolState {
                next: 0,
                wanted: 0,
                done: runs.iter().map(|_| None).collect(),
                stop: false,
                failed: false,
            }),
            changed: Condvar::new(),
        };
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| pool.work());
            }
            let _halt = Halt {
                pool: &pool,
                always: true,
            };
            let mut left: Vec<usize> = runs.iter().map(|r| r.reads).collect();
            let mut held: Vec<Option<Arc<SimOutput>>> = vec![None; runs.len()];
            for (exp, reads) in &entries {
                let mut sidecars = Vec::new();
                let mut months = reads.iter().map(|&i| {
                    left[i] -= 1;
                    let out = held[i].take().unwrap_or_else(|| {
                        let (out, files) = pool.take(i);
                        sidecars.extend(files);
                        out
                    });
                    if left[i] > 0 {
                        held[i] = Some(out.clone());
                    }
                    out
                });
                let texts = (exp.render)(&mut months);
                for (file, text) in &sidecars {
                    emit(file, text, false)?;
                }
                for (n, (file, text)) in exp.outputs().zip(&texts).enumerate() {
                    emit(&file, text, n == 0)?;
                }
            }
            Ok(())
        })
    }
}

/// The pool's lock is poisoned only once another thread has panicked.
const POISONED: &str = "a paper thread panicked holding the month pool's lock";

/// A simulated month and the telemetry files it commits, if any.
type Simulated = (Arc<SimOutput>, Vec<(String, String)>);

/// The months of a [`Plan`], simulated ahead of the walk by a worker pool.
struct Pool<'a> {
    runs: &'a [PlannedRun],
    /// How far past the furthest month asked for a worker may start one.
    window: usize,
    state: Mutex<PoolState>,
    changed: Condvar,
}

struct PoolState {
    /// The month the next free worker starts.
    next: usize,
    /// One past the furthest month the walk has asked for.
    wanted: usize,
    /// Finished months the walk has not taken yet.
    done: Vec<Option<Simulated>>,
    /// The walk is over: start no more months.
    stop: bool,
    /// A worker panicked, so its month never arrives.
    failed: bool,
}

impl Pool<'_> {
    fn work(&self) {
        let _halt = Halt {
            pool: self,
            always: false,
        };
        let mut st = self.state.lock().expect(POISONED);
        loop {
            while !st.stop && st.next < self.runs.len() && st.next >= st.wanted + self.window {
                st = self.changed.wait(st).expect(POISONED);
            }
            if st.stop || st.next == self.runs.len() {
                return;
            }
            let i = st.next;
            st.next += 1;
            drop(st);
            let run = &self.runs[i];
            let out = Arc::new(HybridSim::run_config(run.config.clone()));
            // The full snapshot (volatile wall-clock section included) and
            // the sampled download traces as Chrome trace-event JSON
            // (deterministic: same seed, same bytes) for Perfetto and
            // `trace_explain`.
            let files = run.sidecars.map_or_else(Vec::new, |stem| {
                vec![
                    (
                        format!("{stem}.metrics.json"),
                        out.metrics.full_snapshot_json(),
                    ),
                    (format!("{stem}.trace.json"), out.trace.export_chrome_json()),
                ]
            });
            st = self.state.lock().expect(POISONED);
            st.done[i] = Some((out, files));
            self.changed.notify_all();
        }
    }

    /// Month `i`, once a worker has finished it. The walk takes each month
    /// once, at its first read.
    fn take(&self, i: usize) -> Simulated {
        let mut st = self.state.lock().expect(POISONED);
        st.wanted = st.wanted.max(i + 1);
        self.changed.notify_all();
        loop {
            if let Some(month) = st.done[i].take() {
                return month;
            }
            assert!(!st.failed, "a worker panicked before month {i} finished");
            st = self.changed.wait(st).expect(POISONED);
        }
    }
}

/// Stops the pool when dropped — always for the walk, on a panic for a
/// worker — so no thread waits for a month that will never come.
struct Halt<'p, 'a> {
    pool: &'p Pool<'a>,
    always: bool,
}

impl Drop for Halt<'_, '_> {
    fn drop(&mut self) {
        let panicking = std::thread::panicking();
        if self.always || panicking {
            let mut st = self
                .pool
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            st.stop = true;
            st.failed |= panicking;
            self.pool.changed.notify_all();
        }
    }
}

/// E1 — Table 1: overall statistics for the data set.
///
/// The paper's trace (October 2012): 4,150,989,257 log entries; 25,941,122
/// GUIDs; 4,038,894 distinct URLs; 133,690,372 distinct IPs; 12,508,764
/// downloads; 34,383 locations; 31,190 ASes; 239 country codes. Our run is
/// scaled down (`--scale`); the scale factor is printed so shares can be
/// compared.
fn table1(out: &SimOutput) -> String {
    let mut txt = String::new();
    let s = out.dataset.summary();

    let scale = 25_941_122.0 / out.scenario.config.population.peers as f64;
    txt += &format!("Table 1: overall statistics (scale factor ≈ {scale:.0}× below the paper)\n");
    txt += &format!("{:<34}{:>16}{:>16}\n", "quantity", "paper", "measured");
    let rows: [(&str, u64, u64); 8] = [
        ("Log entries", 4_150_989_257, s.log_entries),
        ("Number of GUIDs", 25_941_122, s.guids),
        ("Distinct URLs", 4_038_894, s.urls),
        ("Distinct IPs", 133_690_372, s.ips),
        ("Downloads initiated", 12_508_764, s.downloads),
        ("Distinct locations", 34_383, s.locations),
        ("Distinct autonomous systems", 31_190, s.ases),
        ("Distinct country codes", 239, s.countries),
    ];
    for (name, paper, measured) in rows {
        txt += &format!("{name:<34}{paper:>16}{measured:>16}\n");
    }
    txt.push('\n');
    txt += &format!(
        "per-GUID downloads: paper {:.2}, measured {:.2}\n",
        12_508_764.0 / 25_941_122.0,
        s.downloads as f64 / s.guids.max(1) as f64
    );
    txt
}

/// E2 — Table 2: global distribution of downloads for the ten largest
/// content providers.
fn table2(out: &SimOutput) -> String {
    let mut txt = String::new();
    let (rows, all) = regions::table2(&out.dataset);

    txt += &format!("{:<14}", "customer");
    for r in Region::ALL {
        txt += &format!("{:>11}", r.label());
    }
    txt.push('\n');

    let mut print_row = |name: &str, mix: &[f64; 9]| {
        txt += &format!("{name:<14}");
        for v in mix {
            if *v < 0.005 {
                txt += &format!("{:>11}", "-");
            } else {
                txt += &format!("{:>10.0}%", v * 100.0);
            }
        }
        txt.push('\n');
    };

    for (cp, mix) in &rows {
        let name = customer_by_cp(*cp).map(|c| c.name).unwrap_or("?");
        print_row(&format!("Customer {name}"), mix);
    }
    print_row("All customers", &all);

    txt.push('\n');
    txt += "paper row for comparison (All customers): 7% 4% 11% 3% 2% 20% 46% 4% 2%\n";
    txt += "paper-specified per-customer rows are encoded in netsession_world::customers::CUSTOMERS:\n";
    for c in CUSTOMERS {
        let row: Vec<String> = c
            .region_mix
            .iter()
            .map(|v| {
                if *v < 0.005 {
                    "-".to_string()
                } else {
                    format!("{:.0}%", v * 100.0)
                }
            })
            .collect();
        txt += &format!("  {} (target): {}\n", c.name, row.join(" "));
    }
    txt
}

/// E3 — Table 3: observed changes to the upload-enable setting.
///
/// Paper: initially disabled — 99.96 % zero changes, 0.03 % one, 0.01 %
/// two-plus; initially enabled — 98.11 % / 1.80 % / 0.09 %.
fn table3(out: &SimOutput) -> String {
    let mut txt = String::new();
    let (disabled, enabled) = settings::table3(&out.dataset);

    txt += "Table 3: observed changes to the upload setting\n";
    txt += &format!(
        "{:<22}{:>12}{:>10}{:>10}{:>10}\n",
        "uploads initially...", "GUIDs", "0", "1", ">=2"
    );
    for (label, row, paper) in [
        ("Disabled", &disabled, "99.96% 0.03% 0.01%"),
        ("Enabled", &enabled, "98.11% 1.80% 0.09%"),
    ] {
        let (z, o, t) = row.fractions();
        txt += &format!(
            "{:<22}{:>12}{:>9.2}%{:>9.2}%{:>9.2}%   (paper: {})\n",
            label,
            row.total,
            z * 100.0,
            o * 100.0,
            t * 100.0,
            paper
        );
    }
    txt
}

/// E4 — Table 4: fraction of peers with content uploads enabled, per
/// customer.
///
/// Paper row: A <1, B 20, C 2, D 94, E 2, F 45, G 47, H <1, I 91, J <1 (%).
fn table4(out: &SimOutput) -> String {
    let mut txt = String::new();
    // Table 4 is a property of the installed base: the simulation tracks
    // setting changes in its own peer table and never rewrites the
    // population spec, so the end-of-month scenario reads as freshly built.
    let mut enabled = vec![0u64; CUSTOMERS.len()];
    let mut total = vec![0u64; CUSTOMERS.len()];
    for p in &out.scenario.population.peers {
        total[p.customer] += 1;
        if p.uploads_enabled {
            enabled[p.customer] += 1;
        }
    }

    txt += "Table 4: fraction of peers with content uploads enabled\n";
    txt += &format!("{:<10}", "customer");
    for c in CUSTOMERS {
        txt += &format!("{:>7}", c.name);
    }
    txt.push('\n');
    txt += &format!("{:<10}", "measured");
    for i in 0..CUSTOMERS.len() {
        let f = enabled[i] as f64 / total[i].max(1) as f64 * 100.0;
        if f < 1.0 {
            txt += &format!("{:>7}", "<1%");
        } else {
            txt += &format!("{:>6.0}%", f);
        }
    }
    txt.push('\n');
    txt += &format!("{:<10}", "paper");
    for c in CUSTOMERS {
        let f = c.upload_enabled_fraction * 100.0;
        if f < 1.0 {
            txt += &format!("{:>7}", "<1%");
        } else {
            txt += &format!("{:>6.0}%", f);
        }
    }
    txt.push('\n');
    let overall = enabled.iter().sum::<u64>() as f64 / total.iter().sum::<u64>().max(1) as f64;
    txt.push('\n');
    txt += &format!(
        "overall enabled fraction: {:.1}% (paper: ~31%)\n",
        overall * 100.0
    );
    txt
}

/// E5 — Fig 2: global distribution of peers ("bubble plot" data).
///
/// Prints, per country, the number of peers whose first control-plane
/// connection came from there, plus continental shares to compare against
/// §4.2 (North America 27 %, Europe 35 %).
fn fig2(out: &SimOutput) -> String {
    let mut txt = String::new();
    let bubbles = regions::fig2_first_connections(&out.dataset);

    txt += "Fig 2: first-connection counts per country (bubble sizes)\n";
    txt += &format!("{:<6}{:<24}{:>10}\n", "iso", "country", "peers");
    for (country_idx, count) in bubbles.iter().take(25) {
        let c = &WORLD_COUNTRIES[*country_idx as usize];
        txt += &format!("{:<6}{:<24}{:>10}\n", c.iso, c.name, count);
    }
    if bubbles.len() > 25 {
        txt += &format!("… and {} more countries\n", bubbles.len() - 25);
    }

    let total: u64 = bubbles.iter().map(|(_, n)| n).sum();
    let mut shares: HashMap<Continent, u64> = HashMap::new();
    for (country_idx, count) in &bubbles {
        let iso = WORLD_COUNTRIES[*country_idx as usize].iso;
        *shares.entry(continent_of(iso)).or_insert(0) += count;
    }
    txt.push('\n');
    txt += "continental shares (paper: North America 27%, Europe 35%):\n";
    let mut shares: Vec<(Continent, u64)> = shares.into_iter().collect();
    shares.sort_by_key(|(cont, _)| format!("{cont:?}"));
    for (cont, count) in &shares {
        txt += &format!(
            "  {:?}: {:.0}%\n",
            cont,
            *count as f64 / total.max(1) as f64 * 100.0
        );
    }
    txt += &format!(
        "countries with peers: {} (paper: 239 incl. territories)\n",
        bubbles.len()
    );
    txt
}

/// E6 — Fig 3a: request distribution by object size.
///
/// Paper shape: peer-assisted requests are strongly biased toward large
/// objects — 82 % of them exceed 500 MB — while infrastructure-only
/// requests skew small.
fn fig3a(out: &SimOutput) -> String {
    let mut txt = String::new();
    let cdfs = sizes::fig3a(&out.dataset);

    txt += "Fig 3a: CDF of requests by object size (GB)\n";
    txt += &format!(
        "{:>12}{:>14}{:>10}{:>16}\n",
        "size (GB)", "infra-only", "all", "peer-assisted"
    );
    for x in [0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
        txt += &format!(
            "{:>12}{:>13.0}%{:>9.0}%{:>15.0}%\n",
            x,
            cdfs.infra_only.fraction_at(x) * 100.0,
            cdfs.all.fraction_at(x) * 100.0,
            cdfs.peer_assisted.fraction_at(x) * 100.0
        );
    }
    txt.push('\n');
    txt += &format!(
        "peer-assisted requests >500MB: {:.0}% (paper: 82%)\n",
        sizes::p2p_large_request_fraction(&out.dataset) * 100.0
    );
    txt += &format!(
        "medians (GB): infra-only {:.3}, all {:.3}, peer-assisted {:.3}\n",
        cdfs.infra_only.median(),
        cdfs.all.median(),
        cdfs.peer_assisted.median()
    );
    txt
}

/// E7 — Fig 3b: content popularity ("the nearly ubiquitous power law").
///
/// Prints the downloads-vs-rank series and the fitted log-log slope.
fn fig3b(out: &SimOutput) -> String {
    let mut txt = String::new();
    let ranked = sizes::fig3b(&out.dataset);

    txt += "Fig 3b: content popularity (downloads per object by rank)\n";
    txt += &format!("{:>10}{:>14}\n", "rank", "downloads");
    let mut rank = 1usize;
    while rank <= ranked.len() {
        txt += &format!("{:>10}{:>14}\n", rank, ranked[rank - 1]);
        rank *= 4;
    }
    txt.push('\n');
    let alpha = sizes::powerlaw_exponent(&ranked);
    txt += &format!("objects downloaded: {}\n", ranked.len());
    txt +=
        &format!("fitted log-log slope: {alpha:.2} (a power law shows a clear negative slope)\n");
    txt += &format!(
        "top-1% share of downloads: {:.0}%\n",
        ranked[..(ranked.len() / 100).max(1)].iter().sum::<u64>() as f64
            / ranked.iter().sum::<u64>().max(1) as f64
            * 100.0
    );
    txt
}

/// E8 — Fig 3c: bytes served over time ("the usual diurnal patterns").
///
/// Prints TB/hour aggregated by hour of day, in GMT and in requesters'
/// local time. The paper's signature: the local-time curve shows a strong
/// evening peak; the GMT curve is flattened by timezone spread.
fn fig3c(out: &SimOutput) -> String {
    let mut txt = String::new();
    let hours = TRACE_MONTH.as_hours_f64() as usize + 48;
    let (gmt, local) = sizes::fig3c(&out.dataset, hours, |c| {
        WORLD_COUNTRIES[c as usize].tz_offset
    });

    // Collapse to hour-of-day profiles.
    let mut gmt_prof = [0.0f64; 24];
    let mut local_prof = [0.0f64; 24];
    for (h, v) in gmt.iter().enumerate() {
        gmt_prof[h % 24] += v;
    }
    for (h, v) in local.iter().enumerate() {
        local_prof[h % 24] += v;
    }

    txt += "Fig 3c: bytes served by hour of day (TB, summed over the month)\n";
    txt += &format!("{:>6}{:>12}{:>12}\n", "hour", "GMT", "local");
    for h in 0..24 {
        txt += &format!("{:>6}{:>12.3}{:>12.3}\n", h, gmt_prof[h], local_prof[h]);
    }
    let spread = |v: &[f64; 24]| {
        let max = v.iter().cloned().fold(0.0, f64::max);
        let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
        max / min.max(1e-9)
    };
    txt.push('\n');
    txt += &format!(
        "peak/trough ratio: GMT {:.1}x, local {:.1}x (paper: local curve visibly more diurnal)\n",
        spread(&gmt_prof),
        spread(&local_prof)
    );
    txt += &format!(
        "total served: {:.2} TB over {:.0} days\n",
        gmt.iter().sum::<f64>(),
        TRACE_MONTH.as_hours_f64() / 24.0
    );
    txt
}

/// E9 — Fig 4: edge-only vs peer-assisted download speed in the two
/// largest ASes.
///
/// Paper shape: peer-assisted downloads are somewhat slower but still
/// multiple Mbps; the gap is biggest in high-bandwidth networks (upstream
/// asymmetry).
fn fig4(out: &SimOutput) -> String {
    let mut txt = String::new();

    for (label, s) in ["AS X", "AS Y"].iter().zip(speeds::fig4(&out.dataset)) {
        txt += &format!(
            "Fig 4 — {} ({}, {} downloads): CDF of mean download speed (Mbps)\n",
            label, s.asn, s.downloads
        );
        txt += &format!("{:>12}{:>12}{:>12}\n", "speed", "edge-only", ">50% p2p");
        for x in [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0] {
            txt += &format!(
                "{:>12}{:>11.0}%{:>11.0}%\n",
                x,
                s.edge_only.fraction_at(x) * 100.0,
                s.mostly_p2p.fraction_at(x) * 100.0
            );
        }
        if !s.edge_only.is_empty() && !s.mostly_p2p.is_empty() {
            txt += &format!(
                "medians: edge-only {:.1} Mbps, >50% p2p {:.1} Mbps (paper: p2p somewhat slower, both multi-Mbps)\n",
                s.edge_only.median(),
                s.mostly_p2p.median()
            );
        }
        txt.push('\n');
    }
    txt
}

/// E10 — Fig 5: registered file copies vs. peer efficiency.
///
/// Paper shape: below ~50 registered copies efficiency is under 10 %, it
/// rises rapidly after that, and reaches ~80 % around 10,000 copies.
fn fig5(out: &SimOutput) -> String {
    let mut txt = String::new();
    let buckets = efficiency::fig5(&out.dataset);

    txt += "Fig 5: peer efficiency vs file copies registered during the month\n";
    txt += &format!(
        "{:>14}{:>8}{:>10}{:>9}{:>9}\n",
        "copies (~)", "files", "mean %", "p20 %", "p80 %"
    );
    for b in &buckets {
        txt += &format!(
            "{:>14.0}{:>8}{:>10.1}{:>9.1}{:>9.1}\n",
            b.copies, b.files, b.mean, b.p20, b.p80
        );
    }
    txt.push('\n');
    if let (Some(first), Some(last)) = (buckets.first(), buckets.last()) {
        txt += &format!(
            "trend: {:.0}% at ~{:.0} copies → {:.0}% at ~{:.0} copies (paper: <10% below 50 copies, ~80% at 10k)\n",
            first.mean, first.copies, last.mean, last.copies
        );
    }
    txt
}

/// E11 — Fig 6: impact of the number of peers initially returned by the
/// control plane on peer efficiency.
///
/// Paper shape: ~80 % efficiency is generally reached with about 25–30
/// peers, consistent with BitTorrent needing a few tens of peers.
fn fig6(out: &SimOutput) -> String {
    let mut txt = String::new();
    let buckets = efficiency::fig6(&out.dataset);
    txt += "Fig 6: peer efficiency vs peers initially returned\n";
    txt += &format!("{:>8}{:>12}{:>10}\n", "peers", "downloads", "mean %");
    // Group into fives for readability.
    let mut grouped: BTreeMap<u32, Vec<f64>> = Default::default();
    for b in &buckets {
        grouped
            .entry((b.peers / 5) * 5)
            .or_default()
            .extend(std::iter::repeat_n(b.mean, b.downloads));
    }
    for (lo, vals) in &grouped {
        txt += &format!(
            "{:>5}-{:<3}{:>11}{:>10.1}\n",
            lo,
            lo + 4,
            vals.len(),
            mean(vals.iter().copied())
        );
    }

    txt
}

/// E12 — Fig 7: downloads of larger files are terminated more often.
///
/// Paper shape: pause rates grow from a few percent for <10 MB files to
/// roughly 15–25 % for >1 GB files; peer-assisted downloads pause more
/// because they carry the bigger files, not because p2p is less reliable.
fn fig7(out: &SimOutput) -> String {
    let mut txt = String::new();
    let buckets = outcomes::fig7(&out.dataset);

    txt += "Fig 7: pause/termination rate by file size (%)\n";
    txt += &format!(
        "{:<12}{:>10}{:>14}{:>16}{:>8}\n",
        "size", "all", "infra-only", "peer-assisted", "n"
    );
    for b in &buckets {
        txt += &format!(
            "{:<12}{:>10.1}{:>14.1}{:>16.1}{:>8}\n",
            b.label, b.all, b.infra_only, b.peer_assisted, b.total
        );
    }
    txt.push('\n');
    let first = &buckets[0];
    let last = &buckets[buckets.len() - 1];
    txt += &format!(
        "trend: {:.1}% (<10MB) → {:.1}% (>1GB); paper shows the same monotone growth\n",
        first.all, last.all
    );
    txt
}

/// E13 — Fig 8: peer contributions in different regions (one p2p-enabled
/// provider).
///
/// Paper shape: a mixed picture — peers contribute more in some regions
/// (Africa, South America) but contributions "do not vary much overall"
/// because the edge infrastructure already covers the globe.
fn fig8(out: &SimOutput) -> String {
    let mut txt = String::new();
    // Customer D: a typical p2p-enabled provider (94 % uploads enabled).
    let cp = customer_by_name("D").expect("customer D").cp;
    let classes = regions::fig8_country_classes(&out.dataset, cp);

    txt += "Fig 8: per-country byte split for customer D (p2p-enabled provider)\n";
    txt += &format!(
        "{:<6}{:<22}{:>12}{:>12}{:<20}\n",
        "iso", "country", "infra GB", "peer GB", "  class"
    );
    let mut by_class: BTreeMap<CoverageClass, usize> = BTreeMap::new();
    let mut by_continent: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (country, infra, peers, class) in &classes {
        let c = &WORLD_COUNTRIES[*country as usize];
        *by_class.entry(*class).or_insert(0) += 1;
        let cont = match continent_of(c.iso) {
            Continent::NorthAmerica => "NorthAmerica",
            Continent::SouthAmerica => "SouthAmerica",
            Continent::Europe => "Europe",
            Continent::Asia => "Asia",
            Continent::Africa => "Africa",
            Continent::Oceania => "Oceania",
        };
        let e = by_continent.entry(cont).or_insert((0, 0));
        e.0 += infra;
        e.1 += peers;
        txt += &format!(
            "{:<6}{:<22}{:>12.2}{:>12.2}  {:?}\n",
            c.iso,
            c.name,
            *infra as f64 / 1e9,
            *peers as f64 / 1e9,
            class
        );
    }
    txt.push('\n');
    txt += &format!("class counts: {by_class:?}\n");
    txt += "per-continent infra/peer byte split:\n";
    for (cont, (infra, peers)) in &by_continent {
        let share = *peers as f64 / (*infra + *peers).max(1) as f64 * 100.0;
        txt += &format!("  {cont}: peers serve {share:.0}% of bytes\n");
    }
    txt
}

/// E14/E21 — Fig 9: inter-AS traffic distribution.
///
/// Paper shape: (a) roughly half the ASes send no inter-AS p2p bytes; a
/// heavy tail sends terabytes. (b) 98 % of ASes contribute only ~10 % of
/// the bytes; the remaining 2 % ("heavy uploaders") contribute ~90 %.
/// (c) heavy uploaders simply contain far more peers (IPs). Also prints
/// the §6.1 headline shares: 18 % intra-AS traffic, ~35 % of heavy-pair
/// bytes on direct links.
fn fig9(out: &SimOutput) -> String {
    let mut txt = String::new();
    let t = astraffic::build(&out.dataset);
    let as_model = &out.scenario.population.as_model;

    txt += &format!(
        "intra-AS share of p2p bytes: {:.0}% (paper: 18%)\n",
        t.intra_as_share() * 100.0
    );
    txt += &format!(
        "total p2p content bytes: {:.2} TB across {} uploading ASes\n",
        t.total_bytes as f64 / 1e12,
        t.uploaded.len()
    );
    txt.push('\n');

    // Fig 9a.
    let all_ases: Vec<netsession_core::id::AsNumber> =
        as_model.specs().iter().map(|s| s.asn).collect();
    let cdf = t.fig9a(all_ases.iter().copied());
    txt += "Fig 9a: CDF of inter-AS p2p bytes uploaded per AS\n";
    txt += &format!("{:>14}{:>14}\n", "bytes", "frac of ASes");
    for x in [0.0, 1e6, 1e8, 1e9, 1e10, 1e11, 1e12] {
        txt += &format!("{:>14.0}{:>13.0}%\n", x, cdf.fraction_at(x) * 100.0);
    }
    txt.push('\n');

    // Fig 9b.
    let curve = t.fig9b();
    txt += "Fig 9b: cumulative contribution (paper: 98% of ASes → 10% of bytes)\n";
    if !curve.is_empty() {
        let n = curve.len();
        let idx98 = ((n as f64 * 0.98) as usize).min(n - 1);
        txt += &format!(
            "  98% of uploading ASes contribute {:.0}% of the bytes\n",
            curve[idx98].1
        );
        let heavy = t.heavy_uploaders(0.02);
        txt += &format!(
            "  top 2% ({} ASes) contribute {:.0}% (paper: 90%)\n",
            heavy.len(),
            t.heavy_share(&heavy) * 100.0
        );

        // Fig 9c.
        let (light, heavy_ips) = t.fig9c(&heavy);
        txt.push('\n');
        txt += "Fig 9c: distinct IPs per AS (light vs heavy uploaders)\n";
        if !light.is_empty() && !heavy_ips.is_empty() {
            txt += &format!(
                "  median IPs: light {:.0}, heavy {:.0} (paper: heavy ASes hold far more peers)\n",
                light.median(),
                heavy_ips.median()
            );
            txt += &format!(
                "  p90 IPs:    light {:.0}, heavy {:.0}\n",
                light.percentile(90.0),
                heavy_ips.percentile(90.0)
            );
        }

        // §6.1 direct-link estimate.
        let share = t.direct_link_share(&heavy, |a, b| {
            match (as_model.index_of(a), as_model.index_of(b)) {
                (Some(x), Some(y)) => as_model.direct_link(x, y),
                _ => false,
            }
        });
        txt.push('\n');
        txt += &format!(
            "heavy-pair bytes on direct AS links: {:.0}% (paper estimate: ~35%)\n",
            share * 100.0
        );
    }
    txt
}

/// E15 — Fig 10: p2p bytes uploaded vs downloaded per AS.
///
/// Paper shape: light ASes scatter with large relative imbalances; the
/// heavy uploaders cluster near the diagonal — "they usually receive as
/// much as they send".
fn fig10(out: &SimOutput) -> String {
    let mut txt = String::new();
    let t = astraffic::build(&out.dataset);
    let heavy = t.heavy_uploaders(0.02);
    let scatter = t.fig10(&heavy);

    txt += "Fig 10: per-AS uploaded vs downloaded inter-AS bytes (sample)\n";
    txt += &format!("{:>16}{:>16}{:>8}\n", "uploaded", "downloaded", "heavy");
    for (up, down, is_heavy) in scatter.iter().rev().take(20) {
        txt += &format!("{:>16}{:>16}{:>8}\n", up, down, is_heavy);
    }
    txt += &format!("… {} ASes total in the scatter\n", scatter.len());
    txt.push('\n');

    let ratios = t.heavy_balance_ratios(&heavy);
    if !ratios.is_empty() {
        let cdf = Cdf::from_values(ratios.clone());
        txt += &format!(
            "heavy-uploader balance ratio up/down: median {:.2}, p10 {:.2}, p90 {:.2}\n",
            cdf.median(),
            cdf.percentile(10.0),
            cdf.percentile(90.0)
        );
        let near =
            ratios.iter().filter(|r| **r > 0.5 && **r < 2.0).count() as f64 / ratios.len() as f64;
        txt += &format!(
            "heavy uploaders within 2x of balance: {:.0}% (paper: heavy traffic is well balanced)\n",
            near * 100.0
        );
    }
    // Light-AS imbalance for contrast.
    let light_ratios: Vec<f64> = scatter
        .iter()
        .filter(|(up, down, h)| !h && *up > 0 && *down > 0)
        .map(|(up, down, _)| *up as f64 / *down as f64)
        .collect();
    if !light_ratios.is_empty() {
        let near = light_ratios
            .iter()
            .filter(|r| **r > 0.5 && **r < 2.0)
            .count() as f64
            / light_ratios.len() as f64;
        txt += &format!(
            "light uploaders within 2x of balance: {:.0}%\n",
            near * 100.0
        );
    }
    txt
}

/// E16 — Fig 11: traffic balance on AS-to-AS links.
///
/// Paper shape: among directly connected heavy uploaders, the pairwise
/// A→B vs B→A byte counts hug the diagonal — no pairwise imbalance either.
fn fig11(out: &SimOutput) -> String {
    let mut txt = String::new();
    let t = astraffic::build(&out.dataset);
    let as_model = &out.scenario.population.as_model;
    let heavy = t.heavy_uploaders(0.02);

    let pairs = t.fig11(&heavy, |a, b| {
        match (as_model.index_of(a), as_model.index_of(b)) {
            (Some(x), Some(y)) => as_model.direct_link(x, y),
            _ => false,
        }
    });

    txt += &format!(
        "Fig 11: A→B vs B→A bytes for {} directly connected heavy pairs\n",
        pairs.len()
    );
    txt += &format!("{:>16}{:>16}\n", "A→B bytes", "B→A bytes");
    for (ab, ba) in pairs.iter().rev().take(20) {
        txt += &format!("{:>16}{:>16}\n", ab, ba);
    }
    let ratios: Vec<f64> = pairs
        .iter()
        .filter(|(ab, ba)| *ab > 0 && *ba > 0)
        .map(|(ab, ba)| *ab as f64 / *ba as f64)
        .collect();
    if !ratios.is_empty() {
        let cdf = Cdf::from_values(ratios.clone());
        let near =
            ratios.iter().filter(|r| **r > 0.5 && **r < 2.0).count() as f64 / ratios.len() as f64;
        txt.push('\n');
        txt += &format!(
            "pairwise balance: median ratio {:.2}; {:.0}% of pairs within 2x (paper: roughly even)\n",
            cdf.median(),
            near * 100.0
        );
    }
    txt
}

/// E17 — Fig 12: secondary-GUID chain patterns.
///
/// Paper: 17.7 M graphs with ≥3 vertices; 99.4 % linear chains, 0.6 %
/// trees. Of the nonlinear ones: 46.2 % one long branch plus a one-vertex
/// stub (failed update), 6.2 % two long branches (restored backup), 23.5 %
/// several short/medium branches (re-imaging/cloning), rest irregular.
fn fig12(out: &SimOutput) -> String {
    let mut txt = String::new();
    let census = guidgraph::fig12(&out.dataset);

    let total: u64 = census.values().sum();
    let get = |p: ChainPattern| census.get(&p).copied().unwrap_or(0);
    let linear = get(ChainPattern::Linear);
    let nonlinear = total - linear;

    txt += &format!("Fig 12: secondary-GUID graph census ({total} graphs with ≥3 vertices)\n");
    txt += &format!(
        "linear chains: {} ({:.2}%)   [paper: 99.4%]\n",
        linear,
        linear as f64 / total.max(1) as f64 * 100.0
    );
    txt += &format!(
        "nonlinear (trees): {} ({:.2}%) [paper: 0.6%]\n",
        nonlinear,
        guidgraph::nonlinear_fraction(&census) * 100.0
    );
    txt.push('\n');
    if nonlinear > 0 {
        txt += "pattern mix among nonlinear graphs:\n";
        let pct = |n: u64| n as f64 / nonlinear as f64 * 100.0;
        txt += &format!(
            "  long + one-vertex stub : {:>5.1}%  [paper: 46.2%]\n",
            pct(get(ChainPattern::LongPlusStub))
        );
        txt += &format!(
            "  two long branches      : {:>5.1}%  [paper:  6.2%]\n",
            pct(get(ChainPattern::TwoLongBranches))
        );
        txt += &format!(
            "  several branches       : {:>5.1}%  [paper: 23.5%]\n",
            pct(get(ChainPattern::SeveralBranches))
        );
        txt += &format!(
            "  irregular              : {:>5.1}%  [paper: 24.1%]\n",
            pct(get(ChainPattern::Irregular))
        );
    }
    txt
}

/// E18 — the §5.1 headline numbers.
///
/// Paper values: ~31 % of peers upload-enabled; p2p enabled on 1.7 % of
/// files accounting for 57.4 % of bytes; mean peer efficiency for
/// peer-assisted downloads 71.4 %; 70–80 % of peer-assisted traffic
/// offloaded to peers.
fn headline(out: &SimOutput) -> String {
    let mut txt = String::new();
    let h = overview::headline(&out.dataset);

    txt += "metric                          paper      measured\n";
    txt += &format!(
        "uploads enabled (peers)         ~31%       {}\n",
        pct(h.enabled_fraction)
    );
    txt += &format!(
        "p2p-enabled files               1.7%       {}\n",
        pct(h.p2p_file_fraction)
    );
    txt += &format!(
        "bytes on p2p-enabled files      57.4%      {}\n",
        pct(h.p2p_byte_share)
    );
    txt += &format!(
        "mean peer efficiency (p2p dls)  71.4%      {}\n",
        pct(h.mean_peer_efficiency)
    );
    txt += &format!(
        "offload (bytes-weighted)        70-80%     {}\n",
        pct(h.offload_fraction)
    );
    txt.push('\n');
    txt += &format!(
        "downloads logged: {}  completed: {}  abandoned: {}  failed(sys/env): {}/{}\n",
        out.dataset.downloads.len(),
        out.stats.completed,
        out.stats.abandoned,
        out.stats.failed_system,
        out.stats.failed_env
    );
    txt += &format!(
        "p2p bytes: {:.2} TB  edge bytes: {:.2} TB  logins: {}  punch failures: {}\n",
        out.stats.p2p_bytes as f64 / 1e12,
        out.stats.edge_bytes as f64 / 1e12,
        out.stats.logins,
        out.stats.punch_failures
    );
    txt
}

/// E19 — §5.2: are peer-assisted downloads less reliable?
///
/// Paper: 94 % of infrastructure-only downloads complete vs 92 % of
/// peer-assisted; system-related failures 0.1 % vs 0.2 %; pauses 3 % vs
/// 8 % — the completion gap is explained by pauses, which grow with file
/// size, not by system failures.
fn outcomes(out: &SimOutput) -> String {
    let mut txt = String::new();
    let (infra, p2p) = outcomes::outcome_split(&out.dataset);

    txt += "§5.2 outcome split\n";
    txt += &format!(
        "{:<24}{:>14}{:>16}\n",
        "metric", "infra-only", "peer-assisted"
    );
    txt += &format!("{:<24}{:>14}{:>16}\n", "downloads", infra.total, p2p.total);
    let mut row = |name: &str, a: f64, b: f64, paper: &str| {
        txt += &format!(
            "{:<24}{:>13.1}%{:>15.1}%   (paper: {})\n",
            name,
            a * 100.0,
            b * 100.0,
            paper
        );
    };
    row("completed", infra.completed, p2p.completed, "94% / 92%");
    row(
        "failed (system)",
        infra.failed_system,
        p2p.failed_system,
        "0.1% / 0.2%",
    );
    row(
        "failed (other)",
        infra.failed_other,
        p2p.failed_other,
        "rest",
    );
    row(
        "paused/terminated",
        infra.abandoned,
        p2p.abandoned,
        "3% / 8%",
    );
    txt.push('\n');
    txt += &format!(
        "qualitative check: p2p pauses more ({}), system failures stay tiny both ways ({})\n",
        p2p.abandoned > infra.abandoned,
        infra.failed_system < 0.01 && p2p.failed_system < 0.01
    );
    txt
}

/// E20 — §6.2: mobility-related churn.
///
/// Paper: 80.6 % of GUIDs connected from one AS, 13.4 % from two, 6 % from
/// more; 77 % stayed within 10 km; the control plane receives 20,922 new
/// connections per minute on average.
fn mobility(out: &SimOutput) -> String {
    let mut txt = String::new();
    let s = mobility::summarize(&out.dataset);

    txt += &format!("§6.2 mobility summary ({} GUIDs observed)\n", s.guids);
    txt += &format!("{:<28}{:>10}{:>12}\n", "metric", "paper", "measured");
    txt += &format!(
        "{:<28}{:>10}{:>11.1}%\n",
        "single AS",
        "80.6%",
        s.single_as * 100.0
    );
    txt += &format!(
        "{:<28}{:>10}{:>11.1}%\n",
        "two ASes",
        "13.4%",
        s.two_as * 100.0
    );
    txt += &format!(
        "{:<28}{:>10}{:>11.1}%\n",
        "more than two",
        "6.0%",
        s.more_as * 100.0
    );
    txt += &format!(
        "{:<28}{:>10}{:>11.1}%\n",
        "within 10 km",
        "77%",
        s.within_10km * 100.0
    );
    let scale = 25_941_122.0 / out.scenario.config.population.peers as f64;
    txt += &format!(
        "{:<28}{:>10}{:>12.1}   (×{:.0} scale → {:.0} at paper scale)\n",
        "new connections / minute",
        "20,922",
        s.connections_per_minute,
        scale,
        s.connections_per_minute * scale
    );
    txt
}
