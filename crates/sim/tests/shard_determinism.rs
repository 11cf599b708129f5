//! The sharded runner's parallel mode is an optimization, not an
//! approximation: across randomized programs — bursty local schedules,
//! cross-shard fan-out at minimum lookahead, same-instant deliveries from
//! multiple sources, mail held over several windows, idle shards — the
//! parallel execution must produce per-shard event logs, stats and profiler
//! records bit-identical to the sequential oracle, regardless of thread
//! interleaving and of how many threads the shards are dealt out to.

use netsession_core::rng::DetRng;
use netsession_core::time::{SimDuration, SimTime};
use netsession_obs::profile::{ExecProfile, ShardProfiler};
use netsession_sim::shard::{Outbox, ShardRunner, ShardStats, ShardWorker};

/// A worker whose behaviour is a deterministic function of (shard, event):
/// content-keyed RNG, no draw-order dependence — the pattern real shard
/// programs must follow.
struct ChaosWorker {
    shard: usize,
    program_seed: u64,
    log: Vec<(u64, u64)>,
}

impl ShardWorker for ChaosWorker {
    type Event = u64;

    fn handle(&mut self, at: SimTime, token: u64, out: &mut Outbox<u64>) {
        self.log.push((at.as_micros(), token));
        // Key the RNG on content, not on call order.
        let mut rng = DetRng::seeded(
            self.program_seed ^ (self.shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ token,
        );
        // Tokens carry a budget in their low bits; spend it on follow-ups.
        let budget = token & 0xf;
        if budget == 0 {
            return;
        }
        let n = 1 + rng.index(3);
        for i in 0..n {
            let child = (token ^ rng.below(1 << 40) << 8) & !0xf | (budget - 1);
            if rng.chance(0.4) && out.n_shards() > 1 {
                // Cross send at (or just past) minimum lookahead, with
                // deliberate timestamp collisions across sources; one in
                // five overshoots by up to four windows and is held.
                let dst = rng.index(out.n_shards());
                let slack = match rng.index(10) {
                    0..=4 => 0,
                    5..=7 => rng.below(3),
                    _ => rng.below(4) * 10_000_000 + rng.below(3),
                };
                out.send(dst, out.window_end() + SimDuration(slack), child);
            } else {
                let dt = rng.below(20_000_000);
                out.schedule(at + SimDuration(dt + i as u64), child);
            }
        }
    }
}

/// Per-shard `(time, token)` logs, the runner's stats, and the profiler's
/// deterministic channel.
type RunOutput = (Vec<Vec<(u64, u64)>>, Vec<ShardStats>, ExecProfile);

/// Run program `seed` on a pool of `threads` (clamped to the shard count;
/// 1 is the sequential oracle).
fn run(seed: u64, n_shards: usize, threads: usize) -> RunOutput {
    let workers = (0..n_shards)
        .map(|k| ChaosWorker {
            shard: k,
            program_seed: seed,
            log: Vec::new(),
        })
        .collect();
    let mut runner = ShardRunner::new(workers, SimDuration::from_secs(10));
    let mut rng = DetRng::seeded(0x5eed_caf3 ^ seed);
    let n_seeds = 1 + rng.index(6);
    for _ in 0..n_seeds {
        let shard = rng.index(n_shards);
        let at = SimTime(rng.below(30_000_000));
        // Budget ≤ 6 keeps the branching program finite.
        let token = (rng.below(1 << 40) << 8) | rng.below(7);
        runner.seed(shard, at, token);
    }
    runner.attach_profiler(ShardProfiler::new());
    runner.run_on(threads);
    let profiler = runner.take_profiler().expect("attached");
    assert_eq!(profiler.timings().threads(), threads.min(n_shards));
    let stats = runner.stats().to_vec();
    let logs = runner.into_workers().into_iter().map(|w| w.log).collect();
    (logs, stats, profiler.exec().clone())
}

/// The container that runs these has 2 CPUs, so `run_parallel` alone would
/// only ever exercise pools of 1 and 2: 3 deals the shards out unevenly, K
/// gives every shard its own thread, K + 5 must clamp to that.
#[test]
fn every_pool_size_matches_sequential_oracle_across_60_seeds() {
    let mut mail = 0;
    for seed in 0..60u64 {
        let n_shards = 2 + (seed % 5) as usize;
        let oracle = run(seed, n_shards, 1);
        for threads in [2, 3, n_shards, n_shards + 5] {
            assert_eq!(
                oracle,
                run(seed, n_shards, threads),
                "seed {seed} ({n_shards} shards): {threads} threads diverged from oracle"
            );
        }
        assert!(
            oracle.0.iter().any(|l| !l.is_empty()),
            "seed {seed}: degenerate run"
        );
        let recv: u64 = oracle.1.iter().map(|s| s.cross_recv).sum();
        let sent: u64 = oracle.1.iter().map(|s| s.cross_sent).sum();
        assert_eq!(recv, sent, "seed {seed}: mail lost or left undelivered");
        mail += sent;
    }
    assert!(mail > 1_000, "the programs barely exercise the exchange");
}

/// Shard count must not change *what happens*, only *where*: the union of
/// all per-shard logs is invariant when every shard's program is keyed by
/// content. (Weaker than byte-identity across K — cross-send targets here
/// depend on `n_shards` — so this checks the single-shard case embeds.)
#[test]
fn single_shard_run_is_the_sequential_program() {
    for seed in 0..10u64 {
        let a = run(seed, 1, 1);
        let b = run(seed, 1, 4);
        assert_eq!(a, b, "seed {seed}: 1-shard parallel must be trivial");
    }
}
