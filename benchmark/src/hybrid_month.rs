//! `hybrid_month`: the per-flow fidelity at the headline size. One pass is
//! what a user of any figure binary waits for — assemble the scenario,
//! simulate the month, run the batch analyses.
//!
//! The deployment (population, AS universe, catalog) is fixed at the
//! repository's canonical seed; `--seed` generates the month's request
//! trace and the simulator's own randomness. A seed that redrew the
//! catalog would redraw the handful of large peer-assisted objects that
//! dominate FlowNet's cost, and the pass wall would swing by 40 % from seed
//! to seed for the same event count.

use crate::spans::Spans;
use crate::stats::median;
use crate::{timed_passes, Outcome, RunArgs};
use netsession_analytics::{
    astraffic, efficiency, guidgraph, mobility, outcomes, overview, regions, settings, sizes,
    speeds,
};
use netsession_core::hash::Sha256;
use netsession_core::rng::DetRng;
use netsession_hybrid::{HybridSim, Scenario, ScenarioConfig};
use netsession_logs::TraceDataset;
use netsession_obs::MetricsRegistry;
use netsession_world::population::PopulationConfig;
use netsession_world::workload::{Request, Workload, WorkloadConfig};
use std::hint::black_box;
use std::time::Instant;

/// The deployment every run simulates (`ExperimentArgs::default().seed`).
const WORLD_SEED: u64 = 20121001;

/// `netsession_bench::runner::config_for`, re-stated: the benchmark may
/// not depend on the experiment binaries it will later judge.
fn config(peers: usize, downloads: usize) -> ScenarioConfig {
    ScenarioConfig {
        seed: WORLD_SEED,
        population: PopulationConfig {
            peers,
            ases: (peers / 50).clamp(120, 2_000),
            ..PopulationConfig::default()
        },
        objects: (downloads / 12).clamp(250, 20_000),
        workload: WorkloadConfig {
            downloads,
            ..WorkloadConfig::default()
        },
        ..ScenarioConfig::default()
    }
}

/// The month's requests for `seed`, drawn against the fixed deployment.
fn request_trace(cfg: &ScenarioConfig, seed: u64) -> Vec<Request> {
    let world = Scenario::build(cfg.clone());
    let mut rng = DetRng::seeded(seed);
    Workload::generate(&cfg.workload, &world.population, &world.catalog, &mut rng).requests
}

type Analysis = (&'static str, fn(&TraceDataset));

/// An analysis result is computed for its cost alone.
fn keep<T>(result: T) {
    black_box(result);
}

/// The batch analyses after `overview::headline`, one span each.
const ANALYSES: [Analysis; 13] = [
    ("analytics.efficiency_fig5", |ds| keep(efficiency::fig5(ds))),
    ("analytics.efficiency_fig6", |ds| keep(efficiency::fig6(ds))),
    ("analytics.guidgraph_fig12", |ds| keep(guidgraph::fig12(ds))),
    ("analytics.mobility_summarize", |ds| {
        keep(mobility::summarize(ds))
    }),
    ("analytics.outcomes_split", |ds| {
        keep(outcomes::outcome_split(ds))
    }),
    ("analytics.outcomes_fig7", |ds| keep(outcomes::fig7(ds))),
    ("analytics.regions_table2", |ds| keep(regions::table2(ds))),
    ("analytics.regions_fig2", |ds| {
        keep(regions::fig2_first_connections(ds))
    }),
    ("analytics.settings_table3", |ds| keep(settings::table3(ds))),
    ("analytics.sizes_fig3a", |ds| keep(sizes::fig3a(ds))),
    ("analytics.sizes_fig3b", |ds| keep(sizes::fig3b(ds))),
    ("analytics.speeds_fig4", |ds| keep(speeds::fig4(ds))),
    ("analytics.astraffic_build", |ds| keep(astraffic::build(ds))),
];

struct Pass {
    wall: f64,
    simulate: f64,
    events: u64,
    efficiency: f64,
    digest: String,
    consistent: bool,
    metrics: MetricsRegistry,
    log_entries: u64,
}

fn one_pass(spans: &mut Spans, cfg: &ScenarioConfig, seed: u64, requests: &[Request]) -> Pass {
    spans.next_op();
    let ((simulate, efficiency, out), wall) = spans.time("bench.pass", |spans| {
        let (scenario, _) = spans.time("world.build", |_| {
            let mut scenario = Scenario::build(cfg.clone());
            scenario.workload = Workload {
                requests: requests.to_vec(),
            };
            scenario.config.seed = seed;
            scenario
        });
        let (out, simulate) = spans.time("hybrid.sim.run", |_| HybridSim::new(scenario).run());
        let (efficiency, _) = spans.time("analytics.suite", |spans| {
            let ds = &out.dataset;
            let (headline, _) =
                spans.time("analytics.overview_headline", |_| overview::headline(ds));
            for (name, analysis) in ANALYSES {
                spans.time(name, |_| analysis(ds));
            }
            headline.mean_peer_efficiency
        });
        (simulate, efficiency, out)
    });

    // Checked outside the timed pass: every download that was logged has
    // exactly one outcome, and the digest covers the dataset summary plus
    // every deterministic counter and histogram of the run.
    let stats = &out.stats;
    let outcomes = stats.completed + stats.abandoned + stats.failed_system + stats.failed_env;
    let consistent = outcomes == out.dataset.downloads.len() as u64
        && !out.dataset.downloads.is_empty()
        && (0.0..=1.0).contains(&efficiency);
    let summary = out.dataset.summary();
    let mut h = Sha256::new();
    h.update(format!("{summary:?}").as_bytes());
    h.update(out.metrics.snapshot_json().as_bytes());
    Pass {
        wall,
        simulate,
        events: out.metrics.scrape().counter("sim.events_processed"),
        efficiency,
        digest: h.finalize().to_hex(),
        consistent,
        metrics: out.metrics.clone(),
        log_entries: summary.log_entries,
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let (peers, downloads) = if args.smoke {
        (2_000, 3_000)
    } else {
        (30_000, 40_000)
    };
    let cfg = config(peers, downloads);

    // Set-up: generate the input. Done three times so `setup_s` is a median.
    let mut setups = Vec::new();
    let mut requests = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        requests = request_trace(&cfg, args.seed);
        setups.push(t.elapsed().as_secs_f64());
    }

    // In a traced run every second pass samples every download
    // (`trace_sample_every = 1`); the other passes are the untraced
    // reference its wall is compared with.
    let mut traced_cfg = cfg.clone();
    traced_cfg.obs.trace_sample_every = 1;
    let mut spans = Spans::new(args.trace);
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    timed_passes(args, 3, |i| {
        let traced = args.trace && i % 2 == 1;
        let cfg = if traced { &traced_cfg } else { &cfg };
        let mut pass = one_pass(&mut spans, cfg, args.seed, &requests);
        if args.corrupt && i == 2 {
            pass.digest.replace_range(0..1, "x");
        }
        passes.push((traced, pass));
    });

    // Every pass of a kind must reproduce the first of its kind.
    let mut out = Outcome::new(spans);
    for (traced, pass) in &passes {
        let first = &passes.iter().find(|(t, _)| t == traced).expect("self").1;
        out.attempted += 1;
        if !pass.consistent || pass.digest != first.digest {
            eprintln!("hybrid_month: pass output check failed ({})", pass.digest);
            out.failed += 1;
        }
    }

    let walls = |want: bool| -> Vec<f64> {
        passes
            .iter()
            .filter(|(t, _)| *t == want)
            .map(|(_, p)| p.wall)
            .collect()
    };
    let simulate: Vec<f64> = passes.iter().map(|(_, p)| p.simulate).collect();
    let last = &passes.last().expect("at least one pass").1;
    out.setup(&setups);
    out.passes(&walls(false));
    out.set("work_per_s", last.events as f64 / median(&simulate));
    out.efficiency(last.efficiency);

    if args.trace {
        layers(&mut out, last, &walls(false), &walls(true));
    }
    out
}

/// Per-layer numbers of the traced run: the benchmark's own spans plus what
/// the simulator already exposes — its volatile per-handler histograms and
/// its deterministic counters.
fn layers(out: &mut Outcome, last: &Pass, untraced: &[f64], traced: &[f64]) {
    for name in ["world.build", "hybrid.sim.run", "analytics.suite"] {
        let secs = out.spans.median_secs(name);
        out.set(&format!("{name}_s"), secs);
    }
    let analyses = ANALYSES.iter().map(|(name, _)| *name);
    for name in std::iter::once("analytics.overview_headline").chain(analyses) {
        let secs = out.spans.median_secs(name);
        out.set(&format!("{name}_ms"), secs * 1e3);
    }

    let metrics = &last.metrics;
    let busy = |event: &str| {
        metrics
            .volatile_histogram(&format!("hybrid.ev_{event}_ns"))
            .sum() as f64
            / 1e9
    };
    let mut handlers = 0.0;
    for event in [
        "arrival",
        "online",
        "offline",
        "tick",
        "control_restart",
        "fault",
        "readmit",
        "readd",
        "edge_recover",
    ] {
        handlers += busy(event);
    }
    for event in ["arrival", "online", "offline", "tick"] {
        out.set(&format!("hybrid.sim.ev_{event}_busy_s"), busy(event));
    }
    // Queue pops, the 60 s alert scrape loop and bookkeeping: what the run
    // spent outside its event handlers.
    out.set(
        "hybrid.sim.loop_other_s",
        (last.simulate - handlers).max(0.0),
    );
    out.set("hybrid.sim.events", last.events as f64);

    let snap = metrics.scrape();
    let ratio = |num: &str, den: &str| snap.counter(num) as f64 / snap.counter(den).max(1) as f64;
    out.set(
        "sim.flownet.recomputes",
        snap.counter("sim.flownet_recomputes") as f64,
    );
    out.set(
        "sim.flownet.flows_per_recompute",
        ratio(
            "sim.flownet_active_flows_recomputed",
            "sim.flownet_recomputes",
        ),
    );
    out.set(
        "control.peer_queries",
        snap.counter("control.peer_queries") as f64,
    );
    out.set("edge.auth_grants", snap.counter("edge.auth_grants") as f64);
    out.set("logs.records", last.log_entries as f64);
    out.set(
        "control.empty_selection_share",
        ratio("control.empty_selections", "control.peer_queries"),
    );
    out.set(
        "peer.nat_ok_share",
        ratio("peer.nat_traversal_ok", "peer.nat_traversal_attempts"),
    );

    // Telemetry as its own layer: tracing every download against 1 in 1024.
    let base = median(untraced);
    if base > 0.0 && !traced.is_empty() {
        out.set(
            "obs.trace.overhead_pct",
            (median(traced) / base - 1.0) * 100.0,
        );
    }

    // The three phases should account for the pass; what they leave
    // (cloning the request trace aside, nothing should be) is printed.
    let rest = out.spans.median_unaccounted_pct("bench.pass");
    out.set("bench.unaccounted_pct", rest);
}
