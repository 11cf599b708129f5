//! Million-peer scaled simulation on the sharded runner.
//!
//! The full-fidelity [`crate::sim::HybridSim`] models every flow through
//! the max-min fair fluid network; that is the right tool at 30 k peers and
//! the wrong one at the paper's 25.9 M GUIDs. This module is the scale
//! path: a purpose-built month simulation that holds **struct-of-arrays**
//! peer state (8 bytes of mutable state per peer), derives every static
//! peer attribute procedurally (hash of the peer index — nothing
//! materialized), replaces the fluid solver with a closed-form regional
//! rate model, and **streams** every record into per-region
//! [`RecordSink`]s (running summaries + SHA-256 stream digests) instead of
//! accumulating `Vec`s. RAM is O(peers) with a ~10-byte constant, not
//! O(records).
//!
//! ## Sub-region sharding and determinism
//!
//! The shard key is a **contiguous sub-region block** of the peer index
//! space. Peers are laid out by region (the nine Table-2 regions occupy
//! contiguous index blocks in [`Region::ALL`] order), and a
//! [`BlockPartition`] cuts `0..peers` into K equal-population blocks —
//! so `--shards K` works for any `K ≤ min(peers, MAX_SHARDS)`, well past
//! the former K ≤ 9 region cap. A block may span several regions or a
//! *sub-range* of one; a shard holds one `RegionLocal` per region its
//! block overlaps and only ever touches its own peers' state. Equal
//! population is the right load proxy here: the committed
//! `results/scale.profile.json` mail matrix shows per-peer event rates
//! near-uniform across regions and no dominant cross-region pair, so
//! keeping the `Region::ALL`-order contiguity (rather than reordering
//! regions) co-locates the hottest same-region traffic by construction.
//!
//! The one cross-shard interaction — a download sourcing bytes from an
//! uploader owned by another shard — becomes a cross-shard message
//! delivered at the next window barrier, which models the slow
//! cross-continent discovery path and satisfies the runner's lookahead
//! contract for free. All randomness is **content-keyed**
//! (`DetRng::seeded(mix(seed, entity, purpose))`), so no decision depends
//! on global draw order. Together these meet the [`netsession_sim::shard`]
//! proof obligations, and the parallel run is bit-identical to the
//! sequential oracle — enforced by `tests/scaled_determinism.rs` across
//! 50+ seeded scenarios (faulty and fault-free, shard counts 1..=32) and
//! by the 2-shard and 16-sub-shard gates in `scripts/check.sh`.
//!
//! ## Lazy per-day event seeding
//!
//! Login events are not enqueued a day ahead: `DayStart` makes one pass
//! over the shard's peers and drops each would-be login into one of 24
//! reusable **hour buckets** (4 bytes per pending login), and an
//! `HourSeed` event at each hour boundary re-derives the exact login time
//! from the same content-keyed RNG and schedules the real `Login` then.
//! In-flight queue events are thereby O(active peers) — roughly one hour
//! of logins plus open sessions' downloads — instead of O(day's events),
//! which is what lets the paper's full 25.9 M-GUID population × 31 days
//! fit in a few GiB.

use crate::config::{FaultKind, FaultSchedule};
use netsession_core::id::{AsNumber, CpCode, Guid, ObjectId};
use netsession_core::rng::DetRng;
use netsession_core::time::{SimDuration, SimTime};
use netsession_core::units::ByteCount;
use netsession_logs::dataset::DatasetSummary;
use netsession_logs::sink::{DigestSink, DigestTriple, RecordSink, StreamingSummary};
use netsession_logs::{DownloadOutcome, DownloadRecord, LoginRecord, TransferRecord};
use netsession_obs::profile::ShardProfiler;
use netsession_obs::timeseries::{merge_shards, MergedSeries, SeriesSpec, ShardSeries};
use netsession_obs::MetricsRegistry;
use netsession_sim::shard::{BlockPartition, Outbox, ShardRunner, ShardWorker};
use netsession_sim::{BinaryHeapSched, EventSched, TimingWheel};
use netsession_world::geo::Region;
use std::sync::Arc;

const DAY_US: u64 = 86_400_000_000;
/// The longest run [`ScaledConfig::validate`] admits, in µs (≈292k years):
/// half the clock, so that nothing a run schedules past it can overflow.
const CLOCK_LIMIT_US: u64 = u64::MAX / 2;
const HOUR_US: u64 = 3_600_000_000;

/// Hard ceiling on sub-region shard count. Far above any plausible core
/// count; mostly a guard against typo'd `--shards` values allocating
/// thousands of queues.
pub const MAX_SHARDS: usize = 512;

/// Peer-population share per region, §4.2-calibrated ("most of the peers
/// are located in North America (27%) and Europe (35%)"), in
/// [`Region::ALL`] order, summing to 100.
const REGION_WEIGHTS: [u64; 9] = [15, 12, 12, 5, 8, 8, 35, 2, 3];

/// Region timezone offsets (hours from GMT) for the diurnal curve.
const REGION_TZ: [i32; 9] = [-5, -8, -4, 5, 8, 7, 1, 2, 10];

/// Regional median downstream access speed, Mbps (Fig 3 has strong
/// regional skew; these are coarse 2012-era medians).
const REGION_DOWN_MBPS: [f64; 9] = [10.0, 12.0, 4.0, 1.5, 6.0, 5.0, 9.0, 1.0, 8.0];

/// Hour-of-local-day activity weights (diurnal curve, §4.2 Fig 2 shape).
const DIURNAL: [f64; 24] = [
    0.45, 0.35, 0.30, 0.28, 0.30, 0.35, 0.45, 0.60, 0.75, 0.85, 0.90, 0.95, 1.00, 1.00, 0.95, 0.95,
    0.95, 1.00, 1.00, 1.00, 0.95, 0.85, 0.70, 0.55,
];

// Purpose tags for content-keyed RNG streams. Distinct constants keep the
// streams independent; the mixer multiplies by odd constants so (entity,
// purpose) pairs never collide by accident.
/// Time-series window length: one simulated hour, the paper's diurnal
/// resolution (Fig. 2) and the alert rules' trailing window.
pub const TS_INTERVAL_US: u64 = HOUR_US;

// Metric indices into [`TS_METRICS`], used by the recording hot path.
const TS_LOGINS: usize = 0;
const TS_DL_STARTED: usize = 1;
const TS_DL_COMPLETED: usize = 2;
const TS_DL_FAILED: usize = 3;
const TS_DL_ABANDONED: usize = 4;
const TS_BYTES_PEERS: usize = 5;
const TS_BYTES_INFRA: usize = 6;
const TS_TRANSFERS: usize = 7;
const TS_MAIL: usize = 8;
const TS_ACTIVE: usize = 9;
const TS_DEGRADED: usize = 10;
const TS_CN_CRASHES: usize = 11;
const TS_DN_WIPES: usize = 12;
const TS_EDGE_OUTAGES: usize = 13;
const TS_CHURN_BURSTS: usize = 14;
const TS_CHURN_OFFLINE: usize = 15;
const TS_EDGE_ONLY: usize = 16;
const TS_INJECTED: usize = 17;

// Bits of the `scaled.degraded` flags gauge (per region, OR across the
// sub-shards holding slices of the region — every part sees the same
// fault event, so the OR is exact).
const DEG_CONTROL: i64 = 1;
const DEG_DIRECTORY: i64 = 2;
const DEG_EDGE: i64 = 4;

/// The scaled runner's time-series catalog, in sidecar order. Workload
/// metrics carry the `scaled.` prefix; fault metrics reuse the
/// `hybrid.fault.*` names the PR 5 alert rules watch, so
/// [`crate::alerts::standard_rules`] runs over the merged series
/// unchanged (and `check.sh`'s alert-coverage grep keeps them honest).
///
/// Everything recorded at content time is K-invariant; only
/// `scaled.cross_shard_mail` (counted at barrier delivery, a pure
/// shard-topology artifact) is flagged otherwise.
pub const TS_METRICS: &[SeriesSpec] = &[
    SeriesSpec::counter("scaled.logins"),
    SeriesSpec::counter("scaled.downloads_started"),
    SeriesSpec::counter("scaled.downloads_completed"),
    SeriesSpec::counter("scaled.downloads_failed"),
    SeriesSpec::counter("scaled.downloads_abandoned"),
    SeriesSpec::counter("scaled.bytes_peers"),
    SeriesSpec::counter("scaled.bytes_infra"),
    SeriesSpec::counter("scaled.transfers"),
    SeriesSpec::counter_k_variant("scaled.cross_shard_mail"),
    SeriesSpec::level("scaled.active_peers"),
    SeriesSpec::flags("scaled.degraded"),
    SeriesSpec::counter("hybrid.fault.cn_crashes"),
    SeriesSpec::counter("hybrid.fault.dn_wipes"),
    SeriesSpec::counter("hybrid.fault.edge_outages"),
    SeriesSpec::counter("hybrid.fault.churn_bursts"),
    SeriesSpec::counter("hybrid.fault.churn_offline"),
    SeriesSpec::counter("hybrid.fault.edge_only_downloads"),
    SeriesSpec::counter("hybrid.fault.injected"),
];

const P_LOGIN: u64 = 0x01;
const P_SESSION: u64 = 0x02;
const P_DOWNLOAD: u64 = 0x03;
const P_UPLOADERS: u64 = 0x04;
const P_CHURN: u64 = 0x05;
const P_STATIC: u64 = 0x06;

#[inline]
fn key_rng(seed: u64, a: u64, b: u64, purpose: u64) -> DetRng {
    DetRng::seeded(
        seed ^ a
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
            .wrapping_add(purpose.wrapping_mul(0x1656_67b1_9e37_79f9)),
    )
}

#[inline]
fn hash64(seed: u64, x: u64, purpose: u64) -> u64 {
    // One splitmix64 round over the mixed key: cheap enough to call per
    // static attribute instead of materializing per-peer structs.
    let mut z = seed
        .wrapping_add(x.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(purpose.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Configuration for one scaled run.
#[derive(Clone, Debug)]
pub struct ScaledConfig {
    /// Master seed.
    pub seed: u64,
    /// Installed population (the paper's 25.9 M GUIDs; bench target 1 M+).
    pub peers: u64,
    /// Catalog size.
    pub objects: u64,
    /// Simulated days (the trace month is 31).
    pub days: u64,
    /// Shard count, `1..=MAX_SHARDS` and at most `peers`: shards are
    /// contiguous equal-population sub-region blocks of the peer index
    /// space, so any count with non-empty blocks is valid.
    pub shards: usize,
    /// Conservative window length (also the cross-region message latency
    /// floor).
    pub window: SimDuration,
    /// Probability an installed peer logs in on a given day (§4.2).
    pub daily_login_prob: f64,
    /// Mean downloads initiated per login session.
    pub downloads_per_login: f64,
    /// Probability a peer-sourced byte share comes from a remote region.
    pub cross_region_prob: f64,
    /// Deterministic fault schedule (shares [`crate::config::FaultSchedule`]
    /// with the full-fidelity sim).
    pub faults: FaultSchedule,
    /// Record the per-(metric, region) sim-hour time series ([`TS_METRICS`])
    /// and attach the merged result to [`ScaledOutput::timeseries`]. Off
    /// reproduces the pre-telemetry run byte-for-byte (sampling is pure
    /// observation — the report is identical either way).
    pub timeseries: bool,
}

impl Default for ScaledConfig {
    fn default() -> Self {
        ScaledConfig {
            seed: 20121001,
            peers: 100_000,
            objects: 20_000,
            days: 31,
            shards: 4,
            window: SimDuration::from_secs(600),
            daily_login_prob: 0.4,
            downloads_per_login: 0.35,
            cross_region_prob: 0.15,
            faults: FaultSchedule::default(),
            timeseries: true,
        }
    }
}

impl ScaledConfig {
    /// Seconds-scale configuration for gates and tests.
    pub fn smoke() -> Self {
        ScaledConfig {
            peers: 20_000,
            objects: 2_000,
            days: 7,
            shards: 2,
            ..ScaledConfig::default()
        }
    }

    /// Check every config constraint, returning an actionable message for
    /// the first violation. [`run_scaled`] panics on an invalid config, so
    /// CLI front-ends should call this at parse time and print the error
    /// instead.
    pub fn validate(&self) -> Result<(), String> {
        if self.peers == 0 || self.peers > u32::MAX as u64 {
            return Err(format!(
                "peers must be 1..={} (got {})",
                u32::MAX,
                self.peers
            ));
        }
        if self.objects == 0 {
            return Err("objects must be > 0".into());
        }
        if self.days == 0 {
            return Err("days must be > 0".into());
        }
        if !(1..=MAX_SHARDS).contains(&self.shards) {
            return Err(format!(
                "shards must be 1..={MAX_SHARDS} (got {}): shards are contiguous \
                 sub-region blocks, so counts past the 9 regions are fine, but \
                 {MAX_SHARDS} queues is the supported ceiling",
                self.shards
            ));
        }
        if self.shards as u64 > self.peers {
            return Err(format!(
                "shards ({}) must not exceed peers ({}): every sub-region block \
                 needs at least one peer — lower --shards or raise --peers",
                self.shards, self.peers
            ));
        }
        if self.window.as_micros() == 0 {
            return Err("window must be > 0: it is the shards' conservative \
                 lookahead, and a zero window never advances virtual time"
                .into());
        }
        // Windows run past the last day while downloads finish and mail
        // lands (mail is due a window after its send, its window ends one
        // more on), so the clock must hold the horizon plus two windows,
        // with the other half of it left for downloads still running.
        let span = self
            .days
            .checked_mul(DAY_US)
            .zip(self.window.as_micros().checked_mul(2))
            .and_then(|(horizon, windows)| horizon.checked_add(windows));
        if span.is_none_or(|s| s > CLOCK_LIMIT_US) {
            return Err(format!(
                "days ({}) and window ({} µs) overflow the microsecond clock: \
                 days × 1 day + 2 × window must be at most {CLOCK_LIMIT_US} µs",
                self.days,
                self.window.as_micros()
            ));
        }
        if !(0.0..=1.0).contains(&self.daily_login_prob) {
            return Err(format!(
                "daily_login_prob must be in [0, 1] (got {})",
                self.daily_login_prob
            ));
        }
        if !(0.0..=1.0).contains(&self.cross_region_prob) {
            return Err(format!(
                "cross_region_prob must be in [0, 1] (got {})",
                self.cross_region_prob
            ));
        }
        Ok(())
    }
}

/// Immutable world geometry shared by all shards: region → peer-index
/// blocks and the sub-region shard partition of the same index space.
struct ScaledWorld {
    cfg: ScaledConfig,
    /// `region_starts[r]..region_starts[r+1]` is region r's peer block.
    region_starts: [u32; 10],
    /// `shard_starts[k]..shard_starts[k+1]` is shard k's peer block:
    /// equal-population [`BlockPartition`] cuts over the same contiguous,
    /// region-ordered index space. A shard block may span several regions
    /// or a sub-range of one.
    shard_starts: Vec<u32>,
}

impl ScaledWorld {
    fn new(cfg: ScaledConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid ScaledConfig: {e}");
        }
        let total: u64 = REGION_WEIGHTS.iter().sum();
        let mut region_starts = [0u32; 10];
        let mut cum = 0u64;
        for (r, w) in REGION_WEIGHTS.iter().enumerate() {
            cum += w;
            region_starts[r + 1] = (cfg.peers * cum / total) as u32;
        }
        let part = BlockPartition::equal(cfg.peers, cfg.shards);
        let shard_starts = part.bounds().iter().map(|&s| s as u32).collect();
        ScaledWorld {
            cfg,
            region_starts,
            shard_starts,
        }
    }

    fn shard_of_peer(&self, peer: u32) -> usize {
        debug_assert!((peer as u64) < self.cfg.peers);
        self.shard_starts.partition_point(|&s| s <= peer) - 1
    }

    fn shard_peers(&self, shard: usize) -> std::ops::Range<u32> {
        self.shard_starts[shard]..self.shard_starts[shard + 1]
    }

    /// Regions shard `k`'s peer block overlaps (possibly partially at
    /// either end). Blocks are never empty, so neither is this range; it
    /// may include interior regions that are empty at tiny populations.
    fn regions_of_shard(&self, shard: usize) -> std::ops::Range<usize> {
        let peers = self.shard_peers(shard);
        let lo = self.region_of_peer(peers.start);
        let hi = self.region_of_peer(peers.end - 1);
        lo..hi + 1
    }

    /// Shards overlapping region `r`'s peer block; empty for a region
    /// that holds no peers (tiny populations).
    fn shards_of_region(&self, r: usize) -> std::ops::Range<usize> {
        let peers = self.region_peers(r);
        if peers.is_empty() {
            return 0..0;
        }
        let lo = self.shard_of_peer(peers.start);
        let hi = self.shard_of_peer(peers.end - 1);
        lo..hi + 1
    }

    fn region_of_peer(&self, peer: u32) -> usize {
        self.region_starts[1..]
            .iter()
            .position(|&end| peer < end)
            .expect("peer in range")
    }

    fn region_peers(&self, r: usize) -> std::ops::Range<u32> {
        self.region_starts[r]..self.region_starts[r + 1]
    }

    /// Shard label: overlapped regions joined with `+`; a partially held
    /// region is tagged with this shard's part index, e.g. `Europe[2/3]`.
    fn shard_label(&self, shard: usize) -> String {
        self.regions_of_shard(shard)
            .map(|r| {
                let parts = self.shards_of_region(r);
                if parts.len() <= 1 {
                    Region::ALL[r].label().to_string()
                } else {
                    format!(
                        "{}[{}/{}]",
                        Region::ALL[r].label(),
                        shard - parts.start + 1,
                        parts.len()
                    )
                }
            })
            .collect::<Vec<_>>()
            .join("+")
    }

    // -- procedural static attributes ------------------------------------

    fn guid(&self, peer: u32) -> Guid {
        let lo = hash64(self.cfg.seed, peer as u64, P_STATIC);
        let hi = hash64(self.cfg.seed, peer as u64, P_STATIC + 16);
        Guid(((hi as u128) << 64) | lo as u128)
    }

    fn ip(&self, peer: u32, day: u64) -> u32 {
        // Stable home address with light mobility: a second address shows
        // up on ~1 day in 4 (laptops roam, §6.3).
        let home = 0x0a00_0000u32.wrapping_add(peer.wrapping_mul(7)) | 1;
        if hash64(self.cfg.seed, (peer as u64) << 9 | day, P_STATIC + 1).is_multiple_of(4) {
            home.wrapping_add(0x4000_0000)
        } else {
            home
        }
    }

    fn asn(&self, peer: u32) -> AsNumber {
        let r = self.region_of_peer(peer) as u64;
        AsNumber((1000 + r * 500 + hash64(self.cfg.seed, peer as u64, P_STATIC + 2) % 60) as u32)
    }

    fn country(&self, peer: u32) -> u16 {
        let r = self.region_of_peer(peer) as u64;
        (r * 24 + hash64(self.cfg.seed, peer as u64, P_STATIC + 3) % 12) as u16
    }

    fn lat_lon(&self, peer: u32) -> (f64, f64) {
        let h = hash64(self.cfg.seed, peer as u64, P_STATIC + 4);
        let lat = ((h % 1600) as f64) / 10.0 - 80.0;
        let lon = (((h >> 16) % 3600) as f64) / 10.0 - 180.0;
        (lat, lon)
    }

    fn uploads_enabled(&self, peer: u32) -> bool {
        hash64(self.cfg.seed, peer as u64, P_STATIC + 5) % 100 < 85
    }

    fn down_mbps(&self, peer: u32) -> f64 {
        let base = REGION_DOWN_MBPS[self.region_of_peer(peer)];
        let h = hash64(self.cfg.seed, peer as u64, P_STATIC + 6);
        // Log-uniform spread of 0.25x..4x around the regional median.
        base * (0.25f64) * 2f64.powf(((h % 4097) as f64) / 4096.0 * 4.0)
    }

    fn object_size(&self, object: u64) -> u64 {
        // Log-uniform 1 MiB..1 GiB, heavier on small objects.
        (1u64 << 20) << (hash64(self.cfg.seed, object, P_STATIC + 7) % 11).min(10)
    }
}

/// Download metadata computed at start, carried to the finish event.
#[derive(Clone, Copy, Debug)]
struct DlMeta {
    object: u64,
    size: u64,
    bytes_infra: u64,
    bytes_peers: u64,
    started_us: u64,
    /// 0 = completed, 1 = failed (other), 2 = failed (system), 3 = abandoned
    outcome: u8,
    initial_peers: u32,
    day: u32,
    k: u32,
}

enum ScaledEvent {
    DayStart {
        day: u64,
    },
    /// Lazy seeding: drain this hour's login bucket, re-deriving each
    /// peer's exact login time from its content-keyed RNG.
    HourSeed {
        day: u64,
        hour: u8,
    },
    Login {
        peer: u32,
        day: u32,
    },
    StartDownload {
        peer: u32,
        day: u32,
        k: u32,
    },
    FinishDownload {
        peer: u32,
        meta: DlMeta,
    },
    Fault {
        idx: u32,
    },
    /// Cross-shard: a remote-region peer uploaded `bytes` of `object` to
    /// the (carried) downloader. Emitted as a [`TransferRecord`] in the
    /// uploader's region stream at barrier delivery. `at_us` carries the
    /// *origin* (download-finish) time so the receiving shard can record
    /// the transfer into its content-time window — crediting it at
    /// delivery time would make the per-window series depend on where the
    /// window barrier happens to fall, i.e. on `--shards`.
    RemoteUpload {
        region: u8,
        from_peer: u32,
        to_guid: u128,
        to_as: u32,
        to_country: u16,
        bytes: u64,
        object: u64,
        at_us: u64,
    },
}

/// One injected fault, as a structured record: class, region, the
/// sim-hour window it lands in, and a class-specific detail (outage
/// seconds, peers dropped). [`ScaledAlert::render`] reproduces the exact
/// legacy report lines, so committed artifacts are unaffected by the
/// move away from free-form strings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScaledAlert {
    /// Fault class tag: `cn_crash`, `dn_wipe`, `edge_outage`, `churn_burst`.
    pub class: &'static str,
    /// Schedule hour of the injection ([`FaultEvent::at_hours`]).
    pub at_hours: u64,
    /// Time-series window index ([`TS_INTERVAL_US`] grid) of the injection.
    pub window: u32,
    /// Region index into [`Region::ALL`].
    pub region: u8,
    /// `edge_outage`: outage seconds; `churn_burst`: sessions dropped in
    /// this region (this shard part); otherwise 0.
    pub detail: u64,
}

impl ScaledAlert {
    /// The report line for this alert — byte-identical to the strings the
    /// pre-structured implementation pushed.
    pub fn render(&self) -> String {
        let region = Region::ALL[self.region as usize].label();
        match self.class {
            "edge_outage" => format!(
                "h{:03} {}: edge_outage {}s",
                self.at_hours, region, self.detail
            ),
            "churn_burst" => format!(
                "h{:03} {}: churn_burst dropped={}",
                self.at_hours, region, self.detail
            ),
            class => format!("h{:03} {}: {}", self.at_hours, region, class),
        }
    }
}

/// Mutable per-region state: fault windows, streaming sinks, tallies.
/// All counters are u64 — at a simulated month × million-peer scale the
/// byte tallies alone pass 2^40.
struct RegionLocal {
    digest: DigestSink,
    summary: StreamingSummary,
    control_down_until: u64,
    dir_degraded_until: u64,
    edge_down_until: u64,
    logins: u64,
    downloads: u64,
    completed: u64,
    abandoned: u64,
    failed: u64,
    skipped_offline: u64,
    bytes_infra: u64,
    bytes_peers: u64,
    transfers: u64,
    remote_uploads_in: u64,
    alerts: Vec<ScaledAlert>,
}

impl RegionLocal {
    fn new() -> Self {
        RegionLocal {
            digest: DigestSink::new(),
            summary: StreamingSummary::new(),
            control_down_until: 0,
            dir_degraded_until: 0,
            edge_down_until: 0,
            logins: 0,
            downloads: 0,
            completed: 0,
            abandoned: 0,
            failed: 0,
            skipped_offline: 0,
            bytes_infra: 0,
            bytes_peers: 0,
            transfers: 0,
            remote_uploads_in: 0,
            alerts: Vec::new(),
        }
    }
}

/// One shard: a contiguous sub-region block of the peer index space, with
/// a `RegionLocal` per region the block overlaps.
struct ScaledShard {
    world: Arc<ScaledWorld>,
    shard: usize,
    /// Regions this shard's block overlaps (ends possibly partial).
    regions: std::ops::Range<usize>,
    peer_lo: u32,
    peer_hi: u32,
    /// SoA mutable peer state: session end time in µs (0 = offline).
    /// This is the *entire* per-peer mutable footprint — 8 bytes.
    online_until: Vec<u64>,
    locals: Vec<RegionLocal>,
    /// Reusable hour buckets for the *current* day's pending logins:
    /// filled by `DayStart` in one pass, drained in order by `HourSeed`.
    /// 4 bytes per pending login instead of a ~64-byte queued event.
    login_buckets: Vec<Vec<u32>>,
    /// Per-(metric, region) sim-hour series ([`TS_METRICS`] × the nine
    /// global regions). Every sample is keyed by content time, so the
    /// merged result is invariant in the shard count; `None` when
    /// [`ScaledConfig::timeseries`] is off.
    series: Option<ShardSeries>,
}

impl ScaledShard {
    fn new(world: Arc<ScaledWorld>, shard: usize) -> Self {
        let peers = world.shard_peers(shard);
        let (peer_lo, peer_hi) = (peers.start, peers.end);
        let regions = world.regions_of_shard(shard);
        ScaledShard {
            shard,
            regions: regions.clone(),
            peer_lo,
            peer_hi,
            online_until: vec![0u64; (peer_hi - peer_lo) as usize],
            locals: regions.map(|_| RegionLocal::new()).collect(),
            login_buckets: (0..24).map(|_| Vec::new()).collect(),
            series: world
                .cfg
                .timeseries
                .then(|| ShardSeries::new(TS_METRICS, Region::ALL.len(), TS_INTERVAL_US)),
            world,
        }
    }

    #[inline]
    fn ts_add(&mut self, metric: usize, region: usize, t_us: u64, delta: i64) {
        if let Some(s) = &mut self.series {
            s.add(metric, region, t_us, delta);
        }
    }

    #[inline]
    fn ts_level(&mut self, region: usize, t_us: u64, delta: i64) {
        if let Some(s) = &mut self.series {
            s.level_shift(TS_ACTIVE, region, t_us, delta);
        }
    }

    #[inline]
    fn ts_flags(&mut self, region: usize, from_us: u64, until_us: u64, bits: i64) {
        if let Some(s) = &mut self.series {
            s.flag_span(TS_DEGRADED, region, from_us, until_us, bits);
        }
    }

    #[inline]
    fn online(&self, peer: u32) -> u64 {
        self.online_until[(peer - self.peer_lo) as usize]
    }

    #[inline]
    fn set_online(&mut self, peer: u32, until: u64) {
        self.online_until[(peer - self.peer_lo) as usize] = until;
    }

    #[inline]
    fn local_mut(&mut self, region: usize) -> &mut RegionLocal {
        &mut self.locals[region - self.regions.start]
    }

    fn day_start(&mut self, at: SimTime, day: u64, out: &mut Outbox<ScaledEvent>) {
        let cfg = &self.world.cfg;
        let p = cfg.daily_login_prob;
        debug_assert!(
            self.login_buckets.iter().all(|b| b.is_empty()),
            "previous day's buckets fully drained"
        );
        for peer in self.peer_lo..self.peer_hi {
            let mut rng = key_rng(cfg.seed, peer as u64, day, P_LOGIN);
            if rng.chance(p) {
                let hour = (rng.below(DAY_US) / HOUR_US) as usize;
                self.login_buckets[hour].push(peer);
            }
        }
        for (hour, bucket) in self.login_buckets.iter().enumerate() {
            if !bucket.is_empty() {
                out.schedule(
                    at + SimDuration(hour as u64 * HOUR_US),
                    ScaledEvent::HourSeed {
                        day,
                        hour: hour as u8,
                    },
                );
            }
        }
        if day + 1 < cfg.days {
            out.schedule(
                SimTime((day + 1) * DAY_US),
                ScaledEvent::DayStart { day: day + 1 },
            );
        }
    }

    fn hour_seed(&mut self, day: u64, hour: u8, out: &mut Outbox<ScaledEvent>) {
        let cfg = &self.world.cfg;
        let (seed, p) = (cfg.seed, cfg.daily_login_prob);
        // Take the bucket out (keeping its capacity for the next day) and
        // replay each peer's login draw: the same content-keyed stream the
        // bucketing pass consumed, so the derived time is bit-identical to
        // what eager seeding would have scheduled.
        let mut bucket = std::mem::take(&mut self.login_buckets[hour as usize]);
        for &peer in &bucket {
            let mut rng = key_rng(seed, peer as u64, day, P_LOGIN);
            let logs_in = rng.chance(p);
            debug_assert!(logs_in, "bucketed peer must re-draw its login");
            let _ = logs_in;
            let t = SimTime(day * DAY_US + rng.below(DAY_US));
            debug_assert_eq!((t.as_micros() % DAY_US) / HOUR_US, hour as u64);
            out.schedule(
                t,
                ScaledEvent::Login {
                    peer,
                    day: day as u32,
                },
            );
        }
        bucket.clear();
        self.login_buckets[hour as usize] = bucket;
    }

    fn login(&mut self, at: SimTime, peer: u32, day: u32, out: &mut Outbox<ScaledEvent>) {
        let world = Arc::clone(&self.world);
        let cfg = &world.cfg;
        let mut rng = key_rng(cfg.seed, peer as u64, day as u64, P_SESSION);
        // Sessions: 30 min .. ~12.5 h (background-mode clients stay up).
        let session_us = 1_800_000_000 + rng.below(43_200_000_000);
        let now_us = at.as_micros();
        let prev_until = self.online(peer);
        let until = now_us + session_us;
        self.set_online(peer, until);
        let region = world.region_of_peer(peer);
        self.ts_add(TS_LOGINS, region, now_us, 1);
        if prev_until >= now_us {
            // Re-login while still online: the peer stays one active
            // session, its end just moves — cancel the scheduled −1 and
            // re-post it at the new end.
            self.ts_level(region, prev_until, 1);
        } else {
            self.ts_level(region, now_us, 1);
        }
        self.ts_level(region, until, -1);

        let (lat, lon) = world.lat_lon(peer);
        let rec = LoginRecord {
            at,
            guid: world.guid(peer),
            ip: world.ip(peer, day as u64),
            asn: world.asn(peer),
            country: world.country(peer),
            lat,
            lon,
            uploads_enabled: world.uploads_enabled(peer),
            software_version: (hash64(cfg.seed, peer as u64, P_STATIC + 8) % 12) as u32,
            secondary_guids: Vec::new(),
        };
        let local = self.local_mut(region);
        local.digest.on_login(&rec);
        local.summary.on_login(&rec);
        local.logins += 1;

        // Downloads this session: geometric-ish knockdown around the mean.
        let mut p = cfg.downloads_per_login;
        let mut k = 0u32;
        while k < 8 && rng.chance(p.min(1.0)) {
            let t = at + SimDuration(rng.below(session_us));
            out.schedule(t, ScaledEvent::StartDownload { peer, day, k });
            k += 1;
            p *= 0.55;
        }
    }

    fn start_download(
        &mut self,
        at: SimTime,
        peer: u32,
        day: u32,
        k: u32,
        out: &mut Outbox<ScaledEvent>,
    ) {
        let world = Arc::clone(&self.world);
        let cfg = &world.cfg;
        let region = world.region_of_peer(peer);
        let now_us = at.as_micros();
        if self.online(peer) < now_us {
            // Session truncated (churn burst) before this request fired.
            self.local_mut(region).skipped_offline += 1;
            return;
        }
        let mut rng = key_rng(
            cfg.seed,
            peer as u64,
            ((day as u64) << 4) | k as u64,
            P_DOWNLOAD,
        );
        // Zipf-flavoured catalog draw: log-uniform rank.
        let rank = ((cfg.objects as f64).powf(rng.f64()) as u64).min(cfg.objects - 1);
        let object = rank;
        let size = world.object_size(object);

        let hour = at.hour_of_day_local(REGION_TZ[region]) as usize;
        let avail = DIURNAL[hour];
        let pop = 1.0 / (1.0 + 4.0 * rank as f64 / cfg.objects as f64);
        let mut eta = 0.85 * pop * avail;

        let local = &self.locals[region - self.regions.start];
        let control_down = now_us < local.control_down_until;
        let dir_degraded = now_us < local.dir_degraded_until;
        let edge_down = now_us < local.edge_down_until;
        self.ts_add(TS_DL_STARTED, region, now_us, 1);
        if control_down {
            // Control crash symptom: this request proceeds without peer
            // sources at all (eta = 0 below) — the §3.8 edge-only mode.
            self.ts_add(TS_EDGE_ONLY, region, now_us, 1);
        }
        if control_down {
            eta = 0.0; // no source queries: edge-only degradation (§3.8)
        } else if dir_degraded {
            eta *= 0.3; // DN re-populating via paced RE-ADDs
        }
        eta = eta.min(0.95);

        let initial_peers = (eta * 40.0) as u32;
        let down_bps = world.down_mbps(peer) * 125_000.0;
        let mut outcome = 0u8;
        let (bytes_peers, bytes_infra);
        let mut rate = down_bps * (0.55 + 0.45 * avail);
        if edge_down {
            if eta <= 0.0 {
                // Control and edge both dark: nothing can serve this.
                outcome = 2;
                bytes_peers = 0;
                bytes_infra = 0;
            } else {
                bytes_peers = size; // peer-only, slower
                bytes_infra = 0;
                rate *= 0.6;
            }
        } else {
            bytes_peers = (size as f64 * eta) as u64;
            bytes_infra = size - bytes_peers;
        }
        if outcome == 0 && rng.chance(0.003) {
            outcome = if rng.chance(0.3) { 2 } else { 1 };
        }
        let nominal_us = ((size as f64 / rate) * 1e6) as u64 + rng.below(30_000_000) + 1;
        let dur_us = match outcome {
            1 | 2 => nominal_us / 3,
            _ => nominal_us,
        };
        let meta = DlMeta {
            object,
            size,
            bytes_infra,
            bytes_peers,
            started_us: now_us,
            outcome,
            initial_peers,
            day,
            k,
        };
        out.schedule(
            SimTime(now_us + dur_us),
            ScaledEvent::FinishDownload { peer, meta },
        );
    }

    fn finish_download(
        &mut self,
        at: SimTime,
        peer: u32,
        meta: DlMeta,
        out: &mut Outbox<ScaledEvent>,
    ) {
        let world = Arc::clone(&self.world);
        let cfg = &world.cfg;
        let region = world.region_of_peer(peer);
        let finish_us = at.as_micros();
        let mut ended = finish_us;
        let mut outcome = meta.outcome;
        let mut bytes_infra = meta.bytes_infra;
        let mut bytes_peers = meta.bytes_peers;
        // The session may have ended — naturally or via a churn burst —
        // before the transfer finished: truncate to what was fetched.
        let online_until = self.online(peer);
        if online_until < finish_us && outcome == 0 {
            outcome = 3;
            ended = online_until.max(meta.started_us + 1);
            let frac =
                (ended - meta.started_us) as f64 / (finish_us - meta.started_us).max(1) as f64;
            bytes_infra = (bytes_infra as f64 * frac) as u64;
            bytes_peers = (bytes_peers as f64 * frac) as u64;
        } else if outcome == 1 || outcome == 2 {
            bytes_infra /= 3;
            bytes_peers /= 3;
        }
        let rec = DownloadRecord {
            guid: world.guid(peer),
            object: ObjectId(meta.object),
            cp: CpCode((meta.object % 40) as u32),
            size: ByteCount(meta.size),
            p2p_enabled: true,
            started: SimTime(meta.started_us),
            ended: SimTime(ended),
            bytes_infra: ByteCount(bytes_infra),
            bytes_peers: ByteCount(bytes_peers),
            outcome: match outcome {
                0 => DownloadOutcome::Completed,
                1 => DownloadOutcome::Failed {
                    system_related: false,
                },
                2 => DownloadOutcome::Failed {
                    system_related: true,
                },
                _ => DownloadOutcome::Abandoned,
            },
            initial_peers: meta.initial_peers,
            asn: world.asn(peer),
            country: world.country(peer),
            region: region as u8,
        };
        {
            let local = self.local_mut(region);
            local.digest.on_download(&rec);
            local.summary.on_download(&rec);
            local.downloads += 1;
            match outcome {
                0 => local.completed += 1,
                1 | 2 => local.failed += 1,
                _ => local.abandoned += 1,
            }
            local.bytes_infra += bytes_infra;
            local.bytes_peers += bytes_peers;
        }
        match outcome {
            0 => self.ts_add(TS_DL_COMPLETED, region, ended, 1),
            1 | 2 => self.ts_add(TS_DL_FAILED, region, ended, 1),
            _ => self.ts_add(TS_DL_ABANDONED, region, ended, 1),
        }
        self.ts_add(TS_BYTES_PEERS, region, ended, bytes_peers as i64);
        self.ts_add(TS_BYTES_INFRA, region, ended, bytes_infra as i64);

        // Attribute peer bytes to uploaders (§6.1 transfer tuples). The
        // transfer record belongs to the *uploader's* region stream, so
        // the routing key is which shard owns the uploader's peer index:
        // our own block emits here, anything else (remote region, or the
        // same region's other sub-shards) travels as cross-shard mail and
        // is emitted at barrier delivery.
        if bytes_peers == 0 {
            return;
        }
        let mut rng = key_rng(
            cfg.seed,
            peer as u64,
            ((meta.day as u64) << 4) | meta.k as u64,
            P_UPLOADERS,
        );
        let n_up = 1 + rng.index(3) as u64;
        let share = bytes_peers / n_up;
        let to_guid = world.guid(peer);
        let to_as = world.asn(peer);
        let to_country = world.country(peer);
        for i in 0..n_up {
            let bytes = if i == n_up - 1 {
                bytes_peers - share * (n_up - 1)
            } else {
                share
            };
            if bytes == 0 {
                continue;
            }
            let src_region = if rng.chance(cfg.cross_region_prob) {
                rng.index(Region::ALL.len())
            } else {
                region
            };
            let peers = world.region_peers(src_region);
            let from_peer = peers.start + rng.below((peers.end - peers.start) as u64) as u32;
            if (self.peer_lo..self.peer_hi).contains(&from_peer) {
                let t = TransferRecord {
                    from_guid: world.guid(from_peer),
                    to_guid,
                    from_as: world.asn(from_peer),
                    to_as,
                    from_country: world.country(from_peer),
                    to_country,
                    bytes: ByteCount(bytes),
                    object: ObjectId(meta.object),
                };
                let local = self.local_mut(src_region);
                local.digest.on_transfer(&t);
                local.summary.on_transfer(&t);
                local.transfers += 1;
                self.ts_add(TS_TRANSFERS, src_region, ended, 1);
            } else {
                out.send(
                    world.shard_of_peer(from_peer),
                    out.window_end(),
                    ScaledEvent::RemoteUpload {
                        region: src_region as u8,
                        from_peer,
                        to_guid: to_guid.0,
                        to_as: to_as.0,
                        to_country,
                        bytes,
                        object: meta.object,
                        at_us: ended,
                    },
                );
            }
        }
    }

    /// Is this shard region `r`'s *home* — the shard owning its first
    /// peer? A region fault's state applies in every overlapping
    /// sub-shard, but only the home shard logs the alert, so the merged
    /// report carries one line per fault regardless of the shard count.
    fn is_region_home(&self, r: usize) -> bool {
        let peers = self.world.region_peers(r);
        !peers.is_empty() && self.world.shard_of_peer(peers.start) == self.shard
    }

    fn fault(&mut self, at: SimTime, idx: u32) {
        let world = Arc::clone(&self.world);
        let cfg = &world.cfg;
        let ev = cfg.faults.events[idx as usize];
        let now_us = at.as_micros();
        let window = (now_us / TS_INTERVAL_US) as u32;
        match ev.kind {
            FaultKind::CnCrash { region } => {
                let r = region as usize;
                if self.regions.contains(&r) {
                    let home = self.is_region_home(r);
                    let until = now_us + 600_000_000;
                    self.local_mut(r).control_down_until = until;
                    // Every overlapping part marks the same span, so the
                    // OR-merged flag is identical at every shard count.
                    self.ts_flags(r, now_us, until, DEG_CONTROL);
                    if home {
                        self.ts_add(TS_CN_CRASHES, r, now_us, 1);
                        self.ts_add(TS_INJECTED, r, now_us, 1);
                        self.local_mut(r).alerts.push(ScaledAlert {
                            class: "cn_crash",
                            at_hours: ev.at_hours,
                            window,
                            region: r as u8,
                            detail: 0,
                        });
                    }
                }
            }
            FaultKind::DnWipe { region } => {
                let r = region as usize;
                if self.regions.contains(&r) {
                    let home = self.is_region_home(r);
                    let until = now_us + 1_800_000_000;
                    self.local_mut(r).dir_degraded_until = until;
                    self.ts_flags(r, now_us, until, DEG_DIRECTORY);
                    if home {
                        self.ts_add(TS_DN_WIPES, r, now_us, 1);
                        self.ts_add(TS_INJECTED, r, now_us, 1);
                        self.local_mut(r).alerts.push(ScaledAlert {
                            class: "dn_wipe",
                            at_hours: ev.at_hours,
                            window,
                            region: r as u8,
                            detail: 0,
                        });
                    }
                }
            }
            FaultKind::EdgeOutage { region, secs } => {
                let r = region as usize;
                if self.regions.contains(&r) {
                    let home = self.is_region_home(r);
                    let until = now_us + secs * 1_000_000;
                    self.local_mut(r).edge_down_until = until;
                    self.ts_flags(r, now_us, until, DEG_EDGE);
                    if home {
                        self.ts_add(TS_EDGE_OUTAGES, r, now_us, 1);
                        self.ts_add(TS_INJECTED, r, now_us, 1);
                        self.local_mut(r).alerts.push(ScaledAlert {
                            class: "edge_outage",
                            at_hours: ev.at_hours,
                            window,
                            region: r as u8,
                            detail: secs,
                        });
                    }
                }
            }
            FaultKind::ChurnBurst { fraction } => {
                // Count drops per *region* so the alert stays meaningful
                // when a shard block spans several regions; a region split
                // across sub-shards gets one line per part (merged in
                // shard order), each with that part's count.
                let mut dropped = vec![0u64; self.regions.len()];
                for peer in self.peer_lo..self.peer_hi {
                    let until = self.online(peer);
                    if until > now_us {
                        let mut rng = key_rng(cfg.seed, peer as u64, now_us, P_CHURN);
                        if rng.chance(fraction) {
                            self.set_online(peer, now_us);
                            let r = world.region_of_peer(peer);
                            // The session's end moves from `until` to now:
                            // cancel the scheduled −1 and re-post it here.
                            self.ts_level(r, until, 1);
                            self.ts_level(r, now_us, -1);
                            dropped[r - self.regions.start] += 1;
                        }
                    }
                }
                for r in self.regions.clone() {
                    let n = dropped[r - self.regions.start];
                    self.ts_add(TS_CHURN_OFFLINE, r, now_us, n as i64);
                    if self.is_region_home(r) {
                        // Class/injection counters once per region
                        // regardless of how many parts slice it.
                        self.ts_add(TS_CHURN_BURSTS, r, now_us, 1);
                        self.ts_add(TS_INJECTED, r, now_us, 1);
                    }
                    self.local_mut(r).alerts.push(ScaledAlert {
                        class: "churn_burst",
                        at_hours: ev.at_hours,
                        window,
                        region: r as u8,
                        detail: n,
                    });
                }
            }
        }
    }
}

impl ShardWorker for ScaledShard {
    type Event = ScaledEvent;

    fn handle(&mut self, at: SimTime, event: ScaledEvent, out: &mut Outbox<ScaledEvent>) {
        match event {
            ScaledEvent::DayStart { day } => self.day_start(at, day, out),
            ScaledEvent::HourSeed { day, hour } => self.hour_seed(day, hour, out),
            ScaledEvent::Login { peer, day } => self.login(at, peer, day, out),
            ScaledEvent::StartDownload { peer, day, k } => {
                self.start_download(at, peer, day, k, out)
            }
            ScaledEvent::FinishDownload { peer, meta } => self.finish_download(at, peer, meta, out),
            ScaledEvent::Fault { idx } => self.fault(at, idx),
            ScaledEvent::RemoteUpload {
                region,
                from_peer,
                to_guid,
                to_as,
                to_country,
                bytes,
                object,
                at_us,
            } => {
                let world = Arc::clone(&self.world);
                let t = TransferRecord {
                    from_guid: world.guid(from_peer),
                    to_guid: Guid(to_guid),
                    from_as: world.asn(from_peer),
                    to_as: AsNumber(to_as),
                    from_country: world.country(from_peer),
                    to_country,
                    bytes: ByteCount(bytes),
                    object: ObjectId(object),
                };
                let local = self.local_mut(region as usize);
                local.digest.on_transfer(&t);
                local.summary.on_transfer(&t);
                local.transfers += 1;
                local.remote_uploads_in += 1;
                // The transfer counts in its *origin* window (carried in
                // the mail) so the series matches the single-shard run;
                // only the mail tally itself is barrier-timed and is
                // declared K-variant in the catalog.
                self.ts_add(TS_TRANSFERS, region as usize, at_us, 1);
                self.ts_add(TS_MAIL, region as usize, at.as_micros(), 1);
            }
        }
    }
}

/// Per-region results: tallies, alert log, and record-stream digests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionReport {
    /// Table-2 label.
    pub region: &'static str,
    /// Login records emitted.
    pub logins: u64,
    /// Download records emitted.
    pub downloads: u64,
    /// Completed downloads.
    pub completed: u64,
    /// Abandoned (incl. churn-truncated) downloads.
    pub abandoned: u64,
    /// Failed downloads.
    pub failed: u64,
    /// Requests skipped because the session had already been cut.
    pub skipped_offline: u64,
    /// Edge bytes served.
    pub bytes_infra: u64,
    /// Peer bytes served.
    pub bytes_peers: u64,
    /// Transfer records emitted (local + remote-in).
    pub transfers: u64,
    /// Cross-shard uploads credited to this region.
    pub remote_uploads_in: u64,
    /// Deterministic fault alert log, as structured records (rendered
    /// into the legacy report lines by [`ScaledAlert::render`]).
    pub alerts: Vec<ScaledAlert>,
    /// SHA-256 stream digests of this region's records. When the region
    /// is split across sub-shards this is the deterministic combination
    /// of the parts' digests (hash of the concatenated part digests, in
    /// shard order) — any byte divergence in any part still changes it.
    pub digest: DigestTriple,
}

/// Deterministically combine per-sub-shard digest triples into one
/// region-level triple: each channel hashes the concatenation of the
/// parts' 32-byte digests (in shard order), counts sum. A single part
/// passes through unchanged, so whole-region shards keep the familiar
/// fingerprint of their raw stream.
fn combine_digests(mut parts: Vec<DigestTriple>) -> DigestTriple {
    use netsession_core::hash::Sha256;
    match parts.len() {
        0 => DigestSink::new().finalize(),
        1 => parts.pop().expect("one part"),
        _ => {
            let chain = |pick: fn(&DigestTriple) -> &[u8; 32]| {
                let mut h = Sha256::new();
                for p in &parts {
                    h.update(pick(p));
                }
                h.finalize()
            };
            DigestTriple {
                downloads: chain(|p| &p.downloads.0),
                logins: chain(|p| &p.logins.0),
                transfers: chain(|p| &p.transfers.0),
                n_downloads: parts.iter().map(|p| p.n_downloads).sum(),
                n_logins: parts.iter().map(|p| p.n_logins).sum(),
                n_transfers: parts.iter().map(|p| p.n_transfers).sum(),
            }
        }
    }
}

/// The merged result of a scaled run — everything downstream analysis and
/// the determinism gates judge.
#[derive(Clone, Debug, PartialEq)]
pub struct ScaledOutput {
    /// Table-1 summary, streamed (never materialized).
    pub summary: DatasetSummary,
    /// Global peer efficiency (§5.1).
    pub peer_efficiency: f64,
    /// Per-region reports in Table-2 order.
    pub regions: Vec<RegionReport>,
    /// Shards used.
    pub shards: usize,
    /// Region block each shard owns, as a "+"-joined label per shard
    /// (e.g. `"Europe"`, `"US East+US West"`). Deterministic geometry.
    pub shard_labels: Vec<String>,
    /// Resident peer population per shard (same geometry).
    pub shard_peers: Vec<u64>,
    /// Total events processed.
    pub events: u64,
    /// Window barriers crossed.
    pub windows: u64,
    /// Cross-shard messages exchanged.
    pub cross_messages: u64,
    /// Merged per-(metric, region) sim-hour series ([`TS_METRICS`]),
    /// present when [`ScaledConfig::timeseries`] was on. Byte-identical
    /// sequential vs parallel, and — bar the one declared K-variant
    /// metric — invariant in `--shards`.
    pub timeseries: Option<MergedSeries>,
}

impl ScaledOutput {
    /// Deterministic multi-line report — the byte string the 2-shard gate
    /// diffs against the sequential oracle. No wall-clock, no RSS: those
    /// are volatile and belong on stderr / bench sidecars.
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "scaled run: {} logins, {} downloads ({} completed), peer_efficiency {:.4}",
            self.summary.log_entries - self.summary.downloads - self.transfers_total(),
            self.summary.downloads,
            self.completed_total(),
            self.peer_efficiency,
        );
        let _ = writeln!(
            s,
            "summary: guids={} urls={} ips={} locations={} ases={} countries={}",
            self.summary.guids,
            self.summary.urls,
            self.summary.ips,
            self.summary.locations,
            self.summary.ases,
            self.summary.countries
        );
        for r in &self.regions {
            let _ = writeln!(
                s,
                "{:>14}: logins={} dl={} ok={} ab={} fail={} peers_B={} infra_B={} tx={} remote_in={}",
                r.region,
                r.logins,
                r.downloads,
                r.completed,
                r.abandoned,
                r.failed,
                r.bytes_peers,
                r.bytes_infra,
                r.transfers,
                r.remote_uploads_in
            );
            let _ = writeln!(s, "{:>14}  {}", "", r.digest.fingerprint());
            for a in &r.alerts {
                let _ = writeln!(s, "{:>14}  alert {}", "", a.render());
            }
        }
        let _ = writeln!(
            s,
            "runner: shards={} events={} windows={} cross={}",
            self.shards, self.events, self.windows, self.cross_messages
        );
        s
    }

    fn completed_total(&self) -> u64 {
        self.regions.iter().map(|r| r.completed).sum()
    }

    fn transfers_total(&self) -> u64 {
        self.regions.iter().map(|r| r.transfers).sum()
    }
}

/// Run the scaled simulation. `parallel` picks the threaded window runner;
/// `false` is the sequential oracle the gates compare against. Results are
/// bit-identical either way. Per-shard runner counters are published into
/// `registry` when given.
pub fn run_scaled(
    cfg: &ScaledConfig,
    parallel: bool,
    registry: Option<&MetricsRegistry>,
) -> ScaledOutput {
    run_scaled_profiled(cfg, parallel, registry, None).0
}

/// [`run_scaled`] with an optional shard profiler riding along: the
/// profiler's deterministic channel sees every window barrier (and is
/// itself byte-identical between the sequential oracle and the threaded
/// run — property-tested in `tests/scaled_determinism.rs`), its volatile
/// channel collects the wall-clock timeline. Returned alongside the
/// output for the caller to render.
pub fn run_scaled_profiled(
    cfg: &ScaledConfig,
    parallel: bool,
    registry: Option<&MetricsRegistry>,
    profiler: Option<ShardProfiler>,
) -> (ScaledOutput, Option<ShardProfiler>) {
    run_scaled_with(cfg, (!parallel).then_some(1), registry, profiler)
}

/// [`run_scaled_profiled`] on a pool of `threads` (clamped to
/// `1..=cfg.shards`) instead of one sized to the host. For tests: results
/// are bit-identical at every pool size, so no caller has a reason to pick
/// one.
#[doc(hidden)]
pub fn run_scaled_on(
    cfg: &ScaledConfig,
    threads: usize,
    registry: Option<&MetricsRegistry>,
    profiler: Option<ShardProfiler>,
) -> (ScaledOutput, Option<ShardProfiler>) {
    run_scaled_with(cfg, Some(threads), registry, profiler)
}

/// Peers per shard above which the shards' queues run on the timing wheel
/// rather than the binary heap. A shard's queue holds about four pending
/// events per hundred of its peers. Measured on a 2-CPU host, the heap is
/// faster at up to 62.5k peers per shard (the committed 1M run: −20 %),
/// the two tie at 62.5k–100k (~4k pending) in 3-day runs, and the wheel
/// is faster from 150k on, by up to ~20 % at the 1.6M per shard of the
/// 25.9M-GUID run (`docs/PERFORMANCE.md`, "The event-queue backend").
/// Both pop in the same order, so the choice moves no event.
const WHEEL_PEERS_PER_SHARD: u64 = 100_000;

/// Run on a pool of `threads` (`None`: one sized to the host), each
/// shard's queue on the backend its peer count calls for.
fn run_scaled_with(
    cfg: &ScaledConfig,
    threads: Option<usize>,
    registry: Option<&MetricsRegistry>,
    profiler: Option<ShardProfiler>,
) -> (ScaledOutput, Option<ShardProfiler>) {
    if cfg.peers.div_ceil(cfg.shards as u64) > WHEEL_PEERS_PER_SHARD {
        run_scaled_on_backend::<TimingWheel<_>>(cfg, threads, registry, profiler)
    } else {
        run_scaled_on_backend::<BinaryHeapSched<_>>(cfg, threads, registry, profiler)
    }
}

fn run_scaled_on_backend<S: EventSched<ScaledEvent> + Default + Send>(
    cfg: &ScaledConfig,
    threads: Option<usize>,
    registry: Option<&MetricsRegistry>,
    profiler: Option<ShardProfiler>,
) -> (ScaledOutput, Option<ShardProfiler>) {
    let world = Arc::new(ScaledWorld::new(cfg.clone()));
    let shards: Vec<ScaledShard> = (0..cfg.shards)
        .map(|k| ScaledShard::new(Arc::clone(&world), k))
        .collect();
    let mut runner = ShardRunner::<_, S>::with_backend(shards, cfg.window);
    for k in 0..cfg.shards {
        runner.seed(k, SimTime::ZERO, ScaledEvent::DayStart { day: 0 });
    }
    for (idx, f) in cfg.faults.events.iter().enumerate() {
        let at = SimTime(f.at_hours * 3_600_000_000);
        let ev = || ScaledEvent::Fault { idx: idx as u32 };
        match f.kind {
            FaultKind::CnCrash { region }
            | FaultKind::DnWipe { region }
            | FaultKind::EdgeOutage { region, .. } => {
                // A region fault must reach every sub-shard holding a
                // slice of the region's peer block.
                for k in world.shards_of_region(region as usize) {
                    runner.seed(k, at, ev());
                }
            }
            FaultKind::ChurnBurst { .. } => {
                for k in 0..cfg.shards {
                    runner.seed(k, at, ev());
                }
            }
        }
    }

    if let Some(p) = profiler {
        runner.attach_profiler(p);
    }

    match threads {
        Some(threads) => runner.run_on(threads),
        None => runner.run_parallel(),
    }

    let profiler = runner.take_profiler();
    if let Some(reg) = registry {
        runner.publish_stats(reg);
    }
    let events = runner.stats().iter().map(|s| s.events).sum();
    let cross_messages = runner.stats().iter().map(|s| s.cross_sent).sum();
    let windows = runner.windows_run();

    // Merge sub-shard parts into the nine Table-2 regions, folding in
    // shard-index order so the merged alerts and combined digests are a
    // pure function of the program (not of thread scheduling). Regions
    // with no overlapping shard contribution (possible only when a tiny
    // population leaves a region peerless) come out empty, keeping the
    // report's nine-row shape at every scale.
    let mut summary = StreamingSummary::new();
    let mut regions: Vec<RegionReport> = (0..Region::ALL.len())
        .map(|r| RegionReport {
            region: Region::ALL[r].label(),
            logins: 0,
            downloads: 0,
            completed: 0,
            abandoned: 0,
            failed: 0,
            skipped_offline: 0,
            bytes_infra: 0,
            bytes_peers: 0,
            transfers: 0,
            remote_uploads_in: 0,
            alerts: Vec::new(),
            digest: DigestSink::new().finalize(),
        })
        .collect();
    let mut digest_parts: Vec<Vec<DigestTriple>> =
        (0..Region::ALL.len()).map(|_| Vec::new()).collect();
    let mut ts_parts: Vec<ShardSeries> = Vec::new();
    for mut shard in runner.into_workers() {
        if let Some(s) = shard.series.take() {
            ts_parts.push(s);
        }
        let base = shard.regions.start;
        for (i, local) in shard.locals.into_iter().enumerate() {
            summary.merge(&local.summary);
            let rep = &mut regions[base + i];
            rep.logins += local.logins;
            rep.downloads += local.downloads;
            rep.completed += local.completed;
            rep.abandoned += local.abandoned;
            rep.failed += local.failed;
            rep.skipped_offline += local.skipped_offline;
            rep.bytes_infra += local.bytes_infra;
            rep.bytes_peers += local.bytes_peers;
            rep.transfers += local.transfers;
            rep.remote_uploads_in += local.remote_uploads_in;
            rep.alerts.extend(local.alerts);
            digest_parts[base + i].push(local.digest.finalize());
        }
    }
    for (rep, parts) in regions.iter_mut().zip(digest_parts) {
        if !parts.is_empty() {
            rep.digest = combine_digests(parts);
        }
    }
    // Canonical shard-order merge: parts were collected in worker-index
    // order above, so the merged series is a pure function of the config.
    let timeseries = (!ts_parts.is_empty()).then(|| {
        let labels: Vec<String> = Region::ALL.iter().map(|r| r.label().to_string()).collect();
        merge_shards(&ts_parts, &labels)
    });
    let shard_labels = (0..cfg.shards).map(|k| world.shard_label(k)).collect();
    let shard_peers = (0..cfg.shards)
        .map(|k| {
            let p = world.shard_peers(k);
            (p.end - p.start) as u64
        })
        .collect();
    let out = ScaledOutput {
        peer_efficiency: summary.peer_efficiency(),
        summary: summary.summary(),
        regions,
        shards: cfg.shards,
        shard_labels,
        shard_peers,
        events,
        windows,
        cross_messages,
        timeseries,
    };
    (out, profiler)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScaledConfig {
        ScaledConfig {
            peers: 3_000,
            objects: 400,
            days: 3,
            shards: 3,
            ..ScaledConfig::default()
        }
    }

    #[test]
    fn scaled_run_produces_work_in_every_region() {
        let out = run_scaled(&tiny(), false, None);
        assert_eq!(out.regions.len(), 9);
        assert!(out.summary.downloads > 0);
        assert!(out.regions.iter().all(|r| r.logins > 0));
        assert!(out.peer_efficiency > 0.0 && out.peer_efficiency < 1.0);
        assert!(out.cross_messages > 0, "cross-region uploads must flow");
    }

    #[test]
    fn report_is_replayable() {
        let a = run_scaled(&tiny(), false, None).report();
        let b = run_scaled(&tiny(), false, None).report();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_matches_sequential_at_tiny_scale() {
        let a = run_scaled(&tiny(), false, None);
        let b = run_scaled(&tiny(), true, None);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_matches_sequential_past_the_region_count() {
        let cfg = ScaledConfig {
            shards: 16,
            ..tiny()
        };
        let a = run_scaled(&cfg, false, None);
        let b = run_scaled(&cfg, true, None);
        assert_eq!(a, b);
        assert_eq!(a.shards, 16);
        assert_eq!(a.regions.len(), 9, "nine-region shape survives K > 9");
    }

    #[test]
    fn queue_backend_moves_no_event() {
        let cfg = ScaledConfig {
            faults: FaultSchedule::scaled_campaign(3),
            ..tiny()
        };
        for threads in [1, 3] {
            let heap = run_scaled_on_backend::<BinaryHeapSched<_>>(&cfg, Some(threads), None, None);
            let wheel = run_scaled_on_backend::<TimingWheel<_>>(&cfg, Some(threads), None, None);
            assert_eq!(heap.0, wheel.0, "x{threads}");
        }
    }

    #[test]
    fn tallies_do_not_depend_on_the_shard_count() {
        // Sharding is pure geometry: per-region record *contents* are
        // content-keyed, so every tally (and the streamed summary) must be
        // invariant across K. Only stream ordering (digests), cross-shard
        // counters, and alert grouping may vary.
        let runs: Vec<_> = [1usize, 3, 16]
            .iter()
            .map(|&shards| run_scaled(&ScaledConfig { shards, ..tiny() }, true, None))
            .collect();
        for b in &runs[1..] {
            let a = &runs[0];
            assert_eq!(a.summary, b.summary, "summary varies with K");
            for (ra, rb) in a.regions.iter().zip(&b.regions) {
                assert_eq!(ra.logins, rb.logins, "{}", ra.region);
                assert_eq!(ra.downloads, rb.downloads, "{}", ra.region);
                assert_eq!(ra.completed, rb.completed, "{}", ra.region);
                assert_eq!(ra.abandoned, rb.abandoned, "{}", ra.region);
                assert_eq!(ra.failed, rb.failed, "{}", ra.region);
                assert_eq!(ra.skipped_offline, rb.skipped_offline, "{}", ra.region);
                assert_eq!(ra.bytes_infra, rb.bytes_infra, "{}", ra.region);
                assert_eq!(ra.bytes_peers, rb.bytes_peers, "{}", ra.region);
                assert_eq!(ra.transfers, rb.transfers, "{}", ra.region);
            }
        }
    }

    #[test]
    fn validate_rejects_bad_shard_counts() {
        let too_many = ScaledConfig {
            shards: MAX_SHARDS + 1,
            ..tiny()
        };
        assert!(too_many.validate().unwrap_err().contains("shards must be"));
        let more_shards_than_peers = ScaledConfig {
            peers: 10,
            shards: 11,
            ..tiny()
        };
        assert!(more_shards_than_peers
            .validate()
            .unwrap_err()
            .contains("must not exceed peers"));
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn validate_rejects_a_zero_window_and_an_overflowing_horizon() {
        let zero = ScaledConfig {
            window: SimDuration::ZERO,
            ..tiny()
        };
        assert!(zero.validate().unwrap_err().contains("window must be > 0"));
        let endless = ScaledConfig {
            days: u64::MAX / DAY_US + 1,
            ..tiny()
        };
        assert!(endless.validate().unwrap_err().contains("overflow"));
        // A window wider than half the clock: each fits a u64 alone, but
        // the windows after the first would wrap it.
        let wide = ScaledConfig {
            window: SimDuration::from_micros(10_000_000_000_000 * 1_000_000),
            ..tiny()
        };
        assert!(wide.validate().unwrap_err().contains("overflow"));
        let longest = ScaledConfig {
            days: 1,
            window: SimDuration::from_micros((CLOCK_LIMIT_US - DAY_US) / 2),
            ..tiny()
        };
        assert!(longest.validate().is_ok());
        let past_it = ScaledConfig {
            window: SimDuration::from_micros(longest.window.as_micros() + 1),
            ..longest.clone()
        };
        assert!(past_it.validate().is_err());
        let one_us = ScaledConfig {
            window: SimDuration::from_micros(1),
            ..tiny()
        };
        assert!(one_us.validate().is_ok());
    }

    #[test]
    fn region_blocks_partition_the_population() {
        let w = ScaledWorld::new(tiny());
        assert_eq!(w.region_starts[0], 0);
        assert_eq!(w.region_starts[9] as u64, w.cfg.peers);
        for r in 0..9 {
            for p in w.region_peers(r).step_by(97) {
                assert_eq!(w.region_of_peer(p), r);
            }
        }
    }

    #[test]
    fn shard_map_is_contiguous_and_total() {
        for shards in [1usize, 2, 4, 5, 9, 12, 16, 32, 100] {
            let w = ScaledWorld::new(ScaledConfig { shards, ..tiny() });
            let mut covered = 0u32;
            for k in 0..shards {
                let p = w.shard_peers(k);
                assert!(!p.is_empty(), "{shards} shards: shard {k} empty");
                assert_eq!(p.start, covered, "contiguity");
                covered = p.end;
                let r = w.regions_of_shard(k);
                assert_eq!(w.region_of_peer(p.start), r.start, "overlap start");
                assert_eq!(w.region_of_peer(p.end - 1), r.end - 1, "overlap end");
                for peer in p.clone().step_by(61) {
                    assert_eq!(w.shard_of_peer(peer), k, "shard_of_peer inverts");
                    assert!(r.contains(&w.region_of_peer(peer)));
                }
            }
            assert_eq!(covered as u64, w.cfg.peers);
            // shards_of_region is the inverse overlap map, and its union
            // covers every shard of a non-empty region.
            for r0 in 0..9 {
                for k in w.shards_of_region(r0) {
                    assert!(w.regions_of_shard(k).contains(&r0), "inverse overlap");
                }
            }
        }
    }

    #[test]
    fn sub_region_labels_tag_split_regions() {
        // 3000 peers, 16 shards: every shard block is smaller than most
        // regions, so split tags must appear and count their parts.
        let w = ScaledWorld::new(ScaledConfig {
            shards: 16,
            ..tiny()
        });
        let labels: Vec<String> = (0..16).map(|k| w.shard_label(k)).collect();
        assert!(
            labels.iter().any(|l| l.contains('[') && l.contains('/')),
            "split regions must be tagged: {labels:?}"
        );
        // Europe (35% of peers) spans several blocks; its parts must be
        // numbered 1..n in shard order.
        let europe: Vec<&String> = labels.iter().filter(|l| l.contains("Europe[")).collect();
        assert!(europe.len() >= 2, "Europe must split at K=16: {labels:?}");
        assert!(europe[0].contains("Europe[1/"));
    }
}
