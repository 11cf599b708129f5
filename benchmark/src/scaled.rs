//! `scaled_seq` and `scaled_par`: the closed-form sharded runner and its
//! streaming sinks, same configuration, run by the one-thread oracle or by
//! the threaded window runner. Identical events either way, so a change to
//! the barrier shows on `scaled_par` alone and a change to the event loop
//! shows on both.
//!
//! One pass is `run_scaled` + `report()` + the alert replay over the merged
//! series — what the `scale` binary does before it prints.

use crate::spans::Spans;
use crate::stats::median;
use crate::{timed_passes, Outcome, RunArgs};
use netsession_hybrid::alerts::replay_standard_alerts;
use netsession_hybrid::{run_scaled_profiled, ScaledConfig};
use netsession_obs::profile::ShardProfiler;
use std::hint::black_box;

/// What a traced run varies from pass to pass, to price each telemetry
/// channel against the plain pass.
#[derive(Clone, Copy, PartialEq)]
enum Variant {
    Plain,
    Profiled,
    SeriesOff,
}

struct Pass {
    variant: Variant,
    wall: f64,
    simulate: f64,
    report: String,
    events: u64,
    windows: u64,
    cross_messages: u64,
    efficiency: f64,
    profiler: Option<ShardProfiler>,
}

fn one_pass(spans: &mut Spans, cfg: &ScaledConfig, parallel: bool, variant: Variant) -> Pass {
    let cfg = ScaledConfig {
        timeseries: variant != Variant::SeriesOff,
        ..cfg.clone()
    };
    let profiler = (variant == Variant::Profiled).then(ShardProfiler::new);
    spans.next_op();
    let ((out, profiler, simulate, report), wall) = spans.time("bench.pass", |spans| {
        let ((out, profiler), simulate) = spans.time("hybrid.scaled.run", |_| {
            run_scaled_profiled(&cfg, parallel, None, profiler)
        });
        let (report, _) = spans.time("hybrid.scaled.report", |_| out.report());
        if let Some(series) = &out.timeseries {
            spans.time("hybrid.alerts.replay", |_| {
                black_box(replay_standard_alerts(series));
            });
        }
        (out, profiler, simulate, report)
    });
    Pass {
        variant,
        wall,
        simulate,
        report,
        events: out.events,
        windows: out.windows,
        cross_messages: out.cross_messages,
        efficiency: out.peer_efficiency,
        profiler,
    }
}

pub fn run(args: &RunArgs, parallel: bool) -> Outcome {
    let cfg = if args.smoke {
        ScaledConfig {
            seed: args.seed,
            peers: 20_000,
            days: 7,
            shards: 2,
            ..ScaledConfig::default()
        }
    } else {
        ScaledConfig {
            seed: args.seed,
            peers: 100_000,
            objects: 20_000,
            days: 31,
            shards: 16,
            ..ScaledConfig::default()
        }
    };
    let mut spans = Spans::new(false);

    // Set-up: one sequential pass. It warms the allocator and yields the
    // oracle report every timed pass must reproduce byte for byte. Done
    // three times so `setup_s` is a median.
    let mut setups = Vec::new();
    let mut oracle = String::new();
    for _ in 0..3 {
        let pass = one_pass(&mut spans, &cfg, false, Variant::Plain);
        setups.push(pass.wall);
        oracle = pass.report;
    }

    let mut spans = Spans::new(args.trace);
    let mut passes: Vec<Pass> = Vec::new();
    timed_passes(args, 3, |i| {
        let variant = match (args.trace, i % 3) {
            (true, 1) => Variant::Profiled,
            (true, 2) => Variant::SeriesOff,
            _ => Variant::Plain,
        };
        let mut pass = one_pass(&mut spans, &cfg, parallel, variant);
        if args.corrupt && i == 1 {
            let flipped = pass.report.remove(0) as u8 ^ 1;
            pass.report.insert(0, flipped as char);
        }
        passes.push(pass);
    });

    // Neither the threads nor either telemetry channel may change a byte.
    let mut out = Outcome::new(spans);
    for pass in &passes {
        out.attempted += 1;
        if pass.report != oracle {
            eprintln!("scaled: a pass's report() differs from the sequential oracle's");
            out.failed += 1;
        }
    }

    let walls = |variant: Variant| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| p.variant == variant)
            .map(|p| p.wall)
            .collect()
    };
    let plain = walls(Variant::Plain);
    let simulate: Vec<f64> = passes
        .iter()
        .filter(|p| p.variant == Variant::Plain)
        .map(|p| p.simulate)
        .collect();
    let last = passes.last().expect("at least one pass");
    out.setup(&setups);
    out.passes(&plain);
    out.set("work_per_s", last.events as f64 / median(&simulate));
    out.efficiency(last.efficiency);

    if args.trace {
        out.set(
            "hybrid.scaled.run_s",
            out.spans.median_secs("hybrid.scaled.run"),
        );
        out.set(
            "hybrid.scaled.report_ms",
            out.spans.median_secs("hybrid.scaled.report") * 1e3,
        );
        out.set(
            "hybrid.alerts.replay_ms",
            out.spans.median_secs("hybrid.alerts.replay") * 1e3,
        );
        out.set("hybrid.scaled.events", last.events as f64);
        out.set("hybrid.scaled.windows", last.windows as f64);
        out.set("hybrid.scaled.cross_messages", last.cross_messages as f64);
        if parallel {
            // Realized parallelism: the oracle pass of set-up against the
            // threaded pass, on the `nproc` printed beside it.
            out.set(
                "sim.shard.parallel_speedup",
                median(&setups) / median(&plain),
            );
        }
        out.set(
            "obs.profile.overhead_pct",
            (median(&walls(Variant::Profiled)) / median(&plain) - 1.0) * 100.0,
        );
        out.set(
            "obs.timeseries.overhead_pct",
            (median(&plain) / median(&walls(Variant::SeriesOff)) - 1.0) * 100.0,
        );
        if let Some(p) = passes.iter().rev().find_map(|p| p.profiler.as_ref()) {
            let t = p.timings();
            let shards = 0..t.n_shards();
            out.set("sim.shard.busy_s", t.busy_sum_ns() as f64 / 1e9);
            // Σ over windows of the slowest shard: with the barrier wait
            // and the merge, this — not the busy sum — bounds the wall.
            out.set(
                "sim.shard.busy_max_s",
                t.wall_critical_path_ns() as f64 / 1e9,
            );
            out.set(
                "sim.shard.wait_s",
                shards.map(|k| t.wait_total_ns(k)).sum::<u64>() as f64 / 1e9,
            );
            out.set("sim.shard.merge_s", t.merge_total_ns() as f64 / 1e9);
            let imbalance = p.exec().stats();
            out.set("sim.shard.skew", imbalance.skew());
            out.set("sim.shard.speedup_ceiling", imbalance.speedup_ceiling());
        }
        let rest = out.spans.median_unaccounted_pct("bench.pass");
        out.set("bench.unaccounted_pct", rest);
    }
    out
}
