//! The sharded scaled runner is an optimization, not an approximation: the
//! merged download/login/transfer record streams (SHA-256 digests), the
//! alert logs, the streamed summary, and every per-region tally from a
//! parallel run must be **byte-identical** to the sequential oracle — the
//! same shard programs stepped one window at a time on one thread. Checked
//! across 50+ seeded small-scale scenarios, roughly half with an active
//! `FaultSchedule` covering every fault kind.

use netsession_core::rng::DetRng;
use netsession_core::time::SimDuration;
use netsession_hybrid::scaled::run_scaled_on;
use netsession_hybrid::{
    run_scaled, run_scaled_profiled, FaultEvent, FaultKind, FaultSchedule, ScaledConfig, MAX_SHARDS,
};
use netsession_logs::ProfileDigest;
use netsession_obs::profile::ShardProfiler;
use netsession_obs::MetricsRegistry;

/// A randomized fault schedule touching every kind over the run's days.
fn random_faults(rng: &mut DetRng, days: u64) -> FaultSchedule {
    let horizon = days * 24;
    let n = 1 + rng.index(4);
    let events = (0..n)
        .map(|_| {
            let region = rng.below(9) as u32;
            let kind = match rng.index(4) {
                0 => FaultKind::CnCrash { region },
                1 => FaultKind::DnWipe { region },
                2 => FaultKind::EdgeOutage {
                    region,
                    secs: 600 + rng.below(7200),
                },
                _ => FaultKind::ChurnBurst {
                    fraction: 0.1 + rng.f64() * 0.8,
                },
            };
            FaultEvent {
                at_hours: rng.below(horizon),
                kind,
            }
        })
        .collect();
    FaultSchedule { events }
}

fn scenario(seed: u64) -> ScaledConfig {
    let mut rng = DetRng::seeded(0x5ca1_ed00 ^ seed);
    let days = 2 + rng.below(3);
    let faults = if seed.is_multiple_of(2) {
        random_faults(&mut rng, days)
    } else {
        FaultSchedule::default()
    };
    // Shard counts span the whole sub-region regime: singleton, a few
    // whole-region-ish cuts, and counts past the 9 regions (blocks then
    // split regions into sub-ranges).
    const SHARD_CHOICES: [usize; 10] = [1, 2, 3, 4, 5, 6, 9, 12, 16, 32];
    ScaledConfig {
        seed: seed.wrapping_mul(0x9e37_79b9) + 7,
        peers: 1_500 + rng.below(2_500),
        objects: 200 + rng.below(400),
        days,
        shards: SHARD_CHOICES[rng.index(SHARD_CHOICES.len())],
        window: SimDuration::from_secs(300 + rng.below(900)),
        faults,
        ..ScaledConfig::default()
    }
}

/// `ScaledOutput` derives `PartialEq` over *everything* — per-region
/// SHA-256 stream digests, alert strings, tallies, summary, runner stats —
/// so one `assert_eq!` is full byte-identity of the merged outputs.
#[test]
fn parallel_run_is_byte_identical_to_sequential_oracle_across_52_seeds() {
    let mut faulty = 0;
    for seed in 0..52u64 {
        let cfg = scenario(seed);
        if !cfg.faults.events.is_empty() {
            faulty += 1;
        }
        let oracle = run_scaled(&cfg, false, None);
        let threaded = run_scaled(&cfg, true, None);
        assert_eq!(
            oracle,
            threaded,
            "seed {seed} ({} shards, {} faults): parallel diverged",
            cfg.shards,
            cfg.faults.events.len()
        );
        assert_eq!(
            oracle.report(),
            threaded.report(),
            "seed {seed}: report text"
        );
        assert!(oracle.summary.downloads > 0, "seed {seed}: degenerate run");
    }
    assert!(faulty >= 20, "fault coverage too thin: {faulty}/52");
}

/// The shard profiler's **deterministic** channel (per-window events,
/// barrier queue depth, mail matrix) must be byte-identical between the
/// sequential oracle and the threaded run — the SHA-256 stream
/// fingerprint compares the exact canonical bytes, and `ExecProfile`
/// equality compares the aggregates. Exercised at 2, 4, and 16 shards —
/// the last past the region count, so sub-region blocks are covered —
/// under 10+ seeded fault scenarios (every even seed carries a random
/// `FaultSchedule`; see [`scenario`]).
#[test]
fn profiler_deterministic_channel_is_byte_identical_across_modes() {
    let mut faulty = 0;
    for seed in (0..20u64).step_by(2) {
        for shards in [2usize, 4, 16] {
            let mut cfg = scenario(seed);
            cfg.shards = shards;
            assert!(!cfg.faults.events.is_empty(), "even seeds carry faults");
            faulty += 1;
            let profiled = |parallel: bool| {
                let p = ShardProfiler::new().with_sink(Box::new(ProfileDigest::new()));
                let (out, p) = run_scaled_profiled(&cfg, parallel, None, Some(p));
                let p = p.expect("profiler returned");
                let fp = p.stream_fingerprint().expect("digest sink fingerprint");
                (out, p.exec().clone(), fp)
            };
            let (out_seq, exec_seq, fp_seq) = profiled(false);
            let (out_par, exec_par, fp_par) = profiled(true);
            assert_eq!(out_seq, out_par, "seed {seed} x{shards}: output diverged");
            assert_eq!(
                exec_seq, exec_par,
                "seed {seed} x{shards}: deterministic profile diverged"
            );
            assert_eq!(
                fp_seq, fp_par,
                "seed {seed} x{shards}: profile stream bytes diverged"
            );
            // The profile is consistent with the run it watched.
            let stats = exec_seq.stats();
            assert_eq!(stats.events, out_seq.events, "profiler event total");
            assert_eq!(stats.windows, out_seq.windows, "profiler barrier count");
            assert_eq!(stats.shards, shards);
            assert!(stats.crit_events >= stats.events / shards as u64);
            assert!(stats.crit_events <= stats.events);
        }
    }
    assert!(faulty >= 10, "fault scenario coverage too thin: {faulty}");
}

/// `RegistrySnapshot::merge` over the shard-labeled runner counters:
/// folding two runs' registries reads like one registry that saw both
/// (counters add), which is how multi-run dashboards aggregate.
#[test]
fn registry_snapshot_merge_over_shard_labeled_metrics() {
    let cfg = scenario(4);
    let reg_a = MetricsRegistry::new();
    let reg_b = MetricsRegistry::new();
    let a = run_scaled(&cfg, false, Some(&reg_a));
    let b = run_scaled(&cfg, true, Some(&reg_b));
    assert_eq!(a, b);
    let one = reg_a.scrape();
    let mut merged = reg_a.scrape();
    merged.merge(&reg_b.scrape());
    for k in 0..cfg.shards {
        for stat in ["events", "windows", "cross_sent", "cross_recv"] {
            let name = format!("shard.{k}.{stat}");
            assert_eq!(
                merged.counter(&name),
                2 * one.counter(&name),
                "{name} must add under merge"
            );
        }
    }
    assert_eq!(
        merged.counter("shard.windows_total"),
        2 * one.counter("shard.windows_total")
    );
    assert_eq!(one.counter("shard.windows_total"), a.windows);
}

/// Faults must actually bite — otherwise the faulty half of the property
/// test exercises nothing. An edge outage plus control crash in a region
/// must change that region's record streams and leave alerts behind.
#[test]
fn faults_change_outputs_and_leave_alerts() {
    let base = ScaledConfig {
        peers: 4_000,
        objects: 300,
        days: 3,
        shards: 3,
        ..ScaledConfig::default()
    };
    let faulty = ScaledConfig {
        faults: FaultSchedule {
            events: vec![
                FaultEvent {
                    at_hours: 10,
                    kind: FaultKind::CnCrash { region: 6 },
                },
                FaultEvent {
                    at_hours: 30,
                    kind: FaultKind::EdgeOutage {
                        region: 6,
                        secs: 3_600,
                    },
                },
                FaultEvent {
                    at_hours: 40,
                    kind: FaultKind::ChurnBurst { fraction: 0.5 },
                },
            ],
        },
        ..base.clone()
    };
    let clean = run_scaled(&base, true, None);
    let hurt = run_scaled(&faulty, true, None);
    assert_ne!(clean, hurt, "faults must perturb the run");
    let europe = hurt.regions.iter().find(|r| r.region == "Europe").unwrap();
    // Region faults alert exactly once (the region's home sub-shard logs
    // them); a churn burst alerts once per sub-shard part of the region,
    // each line carrying that part's dropped count.
    let count = |needle: &str| europe.alerts.iter().filter(|a| a.class == needle).count();
    assert_eq!(count("cn_crash"), 1, "alerts: {:?}", europe.alerts);
    assert_eq!(count("edge_outage"), 1, "alerts: {:?}", europe.alerts);
    assert!(count("churn_burst") >= 1, "alerts: {:?}", europe.alerts);
    assert_eq!(
        europe.alerts.len(),
        2 + count("churn_burst"),
        "all three faults hit Europe: {:?}",
        europe.alerts
    );
    let clean_eu = clean.regions.iter().find(|r| r.region == "Europe").unwrap();
    assert_ne!(
        europe.digest, clean_eu.digest,
        "faulted region's record streams must differ"
    );
    // A 50% churn burst cuts thousands of sessions out from under their
    // scheduled requests; the handful of natural skips (a next-day login
    // re-shortening an overlapping session) can't match it. Both runs are
    // deterministic, so the comparison is stable.
    let skips = |o: &netsession_hybrid::ScaledOutput| {
        o.regions.iter().map(|r| r.skipped_offline).sum::<u64>()
    };
    assert!(
        skips(&hurt) > skips(&clean),
        "churn burst must cut sessions out from under scheduled requests: {} vs {}",
        skips(&hurt),
        skips(&clean)
    );
}

/// Shard-count edge cases for the sub-region partition: the degenerate
/// singleton, K above the region count, and the supported maximum — each
/// byte-identical parallel-vs-sequential and keeping the nine-region
/// report shape.
#[test]
fn shard_count_edges_stay_byte_identical() {
    let base = ScaledConfig {
        peers: 2_000,
        objects: 250,
        days: 2,
        ..ScaledConfig::default()
    };
    for shards in [1usize, 12, MAX_SHARDS] {
        let cfg = ScaledConfig {
            shards,
            ..base.clone()
        };
        cfg.validate().expect("edge config valid");
        let oracle = run_scaled(&cfg, false, None);
        let threaded = run_scaled(&cfg, true, None);
        assert_eq!(oracle, threaded, "K={shards}: parallel diverged");
        assert_eq!(oracle.regions.len(), 9, "K={shards}");
        assert_eq!(oracle.shard_peers.iter().sum::<u64>(), cfg.peers);
        assert!(oracle.shard_peers.iter().all(|&p| p > 0), "K={shards}");
    }
}

/// K = 16 — past the nine regions, so every shard is a genuine
/// sub-region block — must hold byte-identity across seeded fault
/// scenarios of every kind, also on a pool of 3 threads: a size the 2-CPU
/// test container never picks for itself, and one that deals 16 shards out
/// unevenly (6, 5, 5).
#[test]
fn sixteen_sub_shards_byte_identical_across_fault_scenarios() {
    let mut faulty = 0;
    for seed in 0..10u64 {
        let mut cfg = scenario(seed);
        cfg.shards = 16;
        if !cfg.faults.events.is_empty() {
            faulty += 1;
        }
        let oracle = run_scaled(&cfg, false, None);
        let threaded = run_scaled(&cfg, true, None);
        assert_eq!(
            oracle,
            threaded,
            "seed {seed} (16 sub-shards, {} faults): parallel diverged",
            cfg.faults.events.len()
        );
        assert_eq!(oracle.report(), threaded.report(), "seed {seed}: report");
        let (three, _) = run_scaled_on(&cfg, 3, None, None);
        assert_eq!(oracle, three, "seed {seed}: 3 threads diverged");
    }
    assert!(faulty >= 4, "fault coverage too thin: {faulty}/10");

    // One scenario per fault kind, profiled, so the deterministic profile
    // channel is compared at 3 threads too.
    let kinds = [
        FaultKind::CnCrash { region: 6 },
        FaultKind::DnWipe { region: 2 },
        FaultKind::EdgeOutage {
            region: 6,
            secs: 3_600,
        },
        FaultKind::ChurnBurst { fraction: 0.5 },
    ];
    for kind in kinds {
        let mut cfg = scenario(1);
        cfg.shards = 16;
        cfg.faults.events = vec![FaultEvent { at_hours: 20, kind }];
        let profiled = |threads: usize| {
            let p = ShardProfiler::new().with_sink(Box::new(ProfileDigest::new()));
            let (out, p) = run_scaled_on(&cfg, threads, None, Some(p));
            let p = p.expect("profiler returned");
            assert_eq!(p.timings().threads(), threads);
            (out, p.exec().clone(), p.stream_fingerprint())
        };
        let oracle = profiled(1);
        assert_eq!(oracle, profiled(3), "{kind:?}: 3 threads diverged");
        assert!(!oracle.0.regions.iter().all(|r| r.alerts.is_empty()));
    }
}

/// A population smaller than the shard count cannot form non-empty
/// blocks: `validate` must reject it with an actionable message, before
/// any runner machinery is built.
#[test]
fn population_below_shard_count_is_rejected() {
    let cfg = ScaledConfig {
        peers: 7,
        shards: 8,
        ..ScaledConfig::default()
    };
    let err = cfg.validate().expect_err("7 peers over 8 shards");
    assert!(
        err.contains("must not exceed peers"),
        "actionable message, got: {err}"
    );
    let over = ScaledConfig {
        shards: MAX_SHARDS + 1,
        ..ScaledConfig::default()
    };
    assert!(over.validate().is_err(), "ceiling enforced");
}
