//! The hybrid-CDN month simulation.
//!
//! Drives the NetSession system over one synthetic month: peers come online
//! on their diurnal schedules and log into the control plane; requests
//! arrive per the workload; each download opens an always-on edge flow plus
//! swarm flows from control-plane-selected peers; the fluid network model
//! assigns max-min fair rates; users pause/abandon per the behaviour model;
//! completed objects enter peer caches and are registered with the DNs,
//! which is how swarms grow. The run emits a [`TraceDataset`] — the same
//! log shapes the paper's measurement study consumed.
//!
//! Fluid-model mechanics: request arrivals, peer offline events, and a
//! coarse tick (default 20 s) are the only points where the flow set
//! changes; bytes advance linearly between those points, and completion
//! times are interpolated exactly within the advance step, so per-download
//! speeds (Fig 4) are not quantized by the tick. Every handler refreshes
//! rates through [`FlowNet::recompute_dirty`], so only the swarm
//! components actually touched by an event are re-filled.
//!
//! Layout: this module owns the run state ([`Run`]), its set-up, the event
//! loop and the output; every [`Event`] variant is one `Run` method taking
//! the event payload and the event time, defined next to the state it
//! mutates —
//!
//! * [`session`] — peer sessions: login, logout, control (re)connection;
//! * [`transfer`] — downloads: start, fluid advance (`settle`), re-query,
//!   teardown and record emission (`reap`);
//! * [`faults`] — §3.8 fault injection and the paced recovery events.

mod faults;
mod session;
mod transfer;

use crate::config::ScenarioConfig;
use crate::identity::IdentityState;
use crate::setup::Scenario;
use netsession_core::fxhash::FxHashMap;
use netsession_core::id::{Guid, ObjectId, VersionId};
use netsession_core::msg::AuthToken;
use netsession_core::rng::DetRng;
use netsession_core::time::{SimDuration, SimTime, TRACE_MONTH};
use netsession_core::units::Bandwidth;
use netsession_logs::records::DownloadOutcome;
use netsession_logs::TraceDataset;
use netsession_obs::{
    AlertEngine, AlertEvent, Counter, Histogram, MetricsRegistry, RegistrySnapshot, SpanId,
    TraceCtx, TraceSink,
};
use netsession_sim::engine::EventQueue;
use netsession_sim::flownet::{FlowId, FlowNet, NodeId};
use netsession_sim::queue::{BinaryHeapSched, EventSched, TimingWheel};
use netsession_world::behaviour::UserModel;
use netsession_world::cloning::{AnomalyKind, AnomalyPlan, InstallationState};
use netsession_world::mobility::{MobilityConfig, MobilityPlan};

/// Tick granularity for the fluid model.
const TICK: SimDuration = SimDuration::from_secs(20);
/// Grace period after the month during which in-flight downloads may
/// finish before being cut off.
const TAIL: SimDuration = SimDuration::from_days(2);
/// Minimum virtual time between alert-engine observations. Evaluation
/// piggybacks on whatever event pops next at-or-after the due time — no
/// events of its own enter the queue, so same-seed runs with and without
/// a rule change pop the identical event sequence.
const OBS_EVERY: SimDuration = SimDuration::from_secs(60);

#[derive(Clone, Debug)]
enum Event {
    Online(u32),
    Offline(u32),
    Arrival(u32),
    Tick,
    /// A scheduled infrastructure fault (index into `faults.events`).
    Fault(u32),
    /// Paced control-plane readmission of a dropped peer (§3.8: the
    /// reconnect limiter spreads the herd; until this fires the peer is
    /// control-disconnected and its downloads run edge-only).
    Readmit(u32),
    /// Paced RE-ADD response after a DN soft-state wipe: the peer
    /// re-registers its cached content (fate-sharing).
    ReAdd(u32),
    /// End of a region's edge outage: backstop flows re-attach.
    EdgeRecover(u32),
}

impl Event {
    /// Instrument suffix per variant, indexed by [`Event::kind`]: the
    /// `hybrid.ev_<kind>` counter and the volatile `hybrid.ev_<kind>_ns`
    /// handler-time histogram.
    const KINDS: [&'static str; 8] = [
        "online",
        "offline",
        "arrival",
        "tick",
        "fault",
        "readmit",
        "readd",
        "edge_recover",
    ];

    fn kind(&self) -> usize {
        match self {
            Event::Online(_) => 0,
            Event::Offline(_) => 1,
            Event::Arrival(_) => 2,
            Event::Tick => 3,
            Event::Fault(_) => 4,
            Event::Readmit(_) => 5,
            Event::ReAdd(_) => 6,
            Event::EdgeRecover(_) => 7,
        }
    }
}

struct SourceFlow {
    peer: u32,
    flow: FlowId,
    bytes: f64,
    /// Open `peer_transfer` span, ended when the source detaches.
    span: SpanId,
}

struct Dl {
    peer: u32,
    object: ObjectId,
    version: VersionId,
    size: f64,
    p2p: bool,
    cap: Option<u32>,
    started: SimTime,
    token: AuthToken,
    edge_flow: Option<FlowId>,
    edge_bytes: f64,
    sources: Vec<SourceFlow>,
    /// Bytes from sources that already disconnected: (peer, bytes).
    finished_sources: Vec<(u32, f64)>,
    initial_peers: u32,
    abort_at: Option<SimTime>,
    env_fail_at_bytes: Option<f64>,
    sys_fail_at_bytes: Option<f64>,
    requeries: u32,
    region: u32,
    finished: Option<(SimTime, DownloadOutcome)>,
    /// Trace context whose span is this download's root span (the null
    /// context for unsampled downloads — every recording through it
    /// no-ops).
    ctx: TraceCtx,
    /// Open `edge_backstop` span, ended when the edge flow tears down.
    edge_span: SpanId,
}

/// Runtime peer state, struct-of-arrays: one parallel vector per field,
/// indexed by peer id. The hot loops (churn sweeps, source-availability
/// probes in `connect_sources`, offline upload teardown) each touch one or
/// two fields across many peers; packing those fields contiguously keeps
/// them cache-dense instead of striding over ~200-byte rows, and the
/// disjoint field borrows fall out of the borrow checker for free.
struct PeerTable {
    node: Vec<NodeId>,
    online: Vec<bool>,
    /// Control connection up. Tracks `online` except between a CN crash
    /// and the paced readmission: the machine is on (data plane works,
    /// cached copies still serve uploads) but it cannot query for peers
    /// or register content, so new downloads degrade to edge-only (§3.8).
    control_connected: Vec<bool>,
    uploads_enabled: Vec<bool>,
    pending_pref_changes: Vec<Vec<(SimTime, bool)>>,
    /// Complete cached versions and their expiry.
    cached: Vec<FxHashMap<ObjectId, (VersionId, SimTime)>>,
    identity: Vec<IdentityState>,
    mobility: Vec<MobilityPlan>,
    /// Current login site (index into mobility plan).
    site: Vec<usize>,
    active_uploads: Vec<u32>,
    active_download: Vec<Option<usize>>,
    logged_region: Vec<u32>,
}

impl PeerTable {
    fn with_capacity(n: usize) -> Self {
        PeerTable {
            node: Vec::with_capacity(n),
            online: Vec::with_capacity(n),
            control_connected: Vec::with_capacity(n),
            uploads_enabled: Vec::with_capacity(n),
            pending_pref_changes: Vec::with_capacity(n),
            cached: Vec::with_capacity(n),
            identity: Vec::with_capacity(n),
            mobility: Vec::with_capacity(n),
            site: Vec::with_capacity(n),
            active_uploads: Vec::with_capacity(n),
            active_download: Vec::with_capacity(n),
            logged_region: Vec::with_capacity(n),
        }
    }

    /// Append one peer row (offline, nothing cached, no activity).
    fn push(
        &mut self,
        node: NodeId,
        uploads_enabled: bool,
        pending_pref_changes: Vec<(SimTime, bool)>,
        identity: IdentityState,
        mobility: MobilityPlan,
    ) {
        self.node.push(node);
        self.online.push(false);
        self.control_connected.push(false);
        self.uploads_enabled.push(uploads_enabled);
        self.pending_pref_changes.push(pending_pref_changes);
        self.cached.push(FxHashMap::default());
        self.identity.push(identity);
        self.mobility.push(mobility);
        self.site.push(0);
        self.active_uploads.push(0);
        self.active_download.push(None);
        self.logged_region.push(0);
    }

    fn len(&self) -> usize {
        self.node.len()
    }
}

/// Aggregate run statistics (sanity numbers next to the dataset).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Downloads completed.
    pub completed: u64,
    /// Abandoned by the user.
    pub abandoned: u64,
    /// Failed, system-related.
    pub failed_system: u64,
    /// Failed, other causes.
    pub failed_env: u64,
    /// Never finished by the cutoff.
    pub cut_off: u64,
    /// Total p2p content bytes moved.
    pub p2p_bytes: u64,
    /// Total edge content bytes moved.
    pub edge_bytes: u64,
    /// Peer connection attempts that failed traversal.
    pub punch_failures: u64,
    /// Re-queries issued (§3.7's "additional queries").
    pub requeries: u64,
    /// Logins processed.
    pub logins: u64,
}

/// Result of a run.
pub struct SimOutput {
    /// The production-style logs.
    pub dataset: TraceDataset,
    /// Aggregate statistics.
    pub stats: RunStats,
    /// The scenario in its end-of-month state (population, catalog, AS
    /// universe, control plane) — several analyses join against it.
    pub scenario: Scenario,
    /// Telemetry recorded during the run (deterministic counters and
    /// histograms, the event ring, and wall-clock timings in the volatile
    /// section).
    pub metrics: MetricsRegistry,
    /// Download-lifecycle spans sampled during the run (1-in-N per
    /// `ScenarioConfig::obs.trace_sample_every`), exportable as
    /// Chrome-trace/Perfetto JSON. Deterministic: all timestamps are
    /// virtual sim time and IDs come from a monotone counter.
    pub trace: TraceSink,
    /// Raise/clear transitions from the [`crate::alerts::standard_rules`]
    /// engine, evaluated over virtual time every [`OBS_EVERY`] of sim
    /// time. Deterministic: timestamps are virtual, and a fault-free run
    /// produces an empty log (no `hybrid.fault.*` counter ever exists).
    pub alerts: Vec<AlertEvent>,
}

/// The simulation driver.
pub struct HybridSim {
    scenario: Scenario,
    rng: DetRng,
    user_model: UserModel,
    metrics: MetricsRegistry,
    trace: TraceSink,
}

impl HybridSim {
    /// Create from a built scenario. The trace sampling rate comes from
    /// the scenario's `obs` section.
    pub fn new(scenario: Scenario) -> Self {
        let rng = DetRng::seeded(scenario.config.seed ^ 0x73696d);
        let metrics = MetricsRegistry::new();
        let trace = TraceSink::new(scenario.config.obs.trace_sample_every);
        HybridSim {
            scenario,
            rng,
            user_model: UserModel::default(),
            metrics,
            trace,
        }
    }

    /// Record the run's telemetry into `registry` instead of the sim's own
    /// private registry. Instrumentation is strictly passive — attaching a
    /// registry never changes simulated behaviour or the produced dataset.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = registry.clone();
        self
    }

    /// Record download traces into `sink` instead of the sim's own sink.
    /// Sharing one sink across runs (sweeps, ablations) keeps sampling
    /// deterministic — the trace counter simply continues. Passive, like
    /// `with_metrics`.
    pub fn with_trace(mut self, sink: &TraceSink) -> Self {
        self.trace = sink.clone();
        self
    }

    /// Convenience: build and run a config.
    pub fn run_config(config: ScenarioConfig) -> SimOutput {
        HybridSim::new(Scenario::build(config)).run()
    }

    /// Build and run a config, recording telemetry into a caller-supplied
    /// registry. Lets multi-run experiments (sweeps, ablations) accumulate
    /// metrics from every run into one sidecar.
    pub fn run_config_with(config: ScenarioConfig, registry: &MetricsRegistry) -> SimOutput {
        HybridSim::new(Scenario::build(config))
            .with_metrics(registry)
            .run()
    }

    /// Build and run a config, recording into caller-supplied metrics
    /// *and* trace sinks (multi-run experiments accumulate both).
    pub fn run_config_traced(
        config: ScenarioConfig,
        registry: &MetricsRegistry,
        sink: &TraceSink,
    ) -> SimOutput {
        HybridSim::new(Scenario::build(config))
            .with_metrics(registry)
            .with_trace(sink)
            .run()
    }

    /// Run the month and produce the trace.
    pub fn run(self) -> SimOutput {
        Run::<TimingWheel<Event>>::new(self).run()
    }

    /// Run on the binary-heap oracle queue instead of the default timing
    /// wheel. The output must be bit-identical to [`HybridSim::run`]
    /// (`tests/queue_oracle.rs`): the backend affects wall-clock only,
    /// because every implementation of [`EventSched`] pops in the same
    /// deterministic `(time, seq)` order.
    pub fn run_with_oracle_queue(self) -> SimOutput {
        Run::<BinaryHeapSched<Event>>::new(self).run()
    }
}

/// Pre-resolved instrument handles for the per-contact and per-download
/// hot paths. A name lookup takes a registry lock plus a map probe; these
/// fire up to ~100k times per run, so the handles are resolved once.
struct HotInstruments {
    nat_attempts: Counter,
    nat_blocked: Counter,
    nat_punch_failures: Counter,
    nat_ok: Counter,
    downloads_completed: Counter,
    downloads_abandoned: Counter,
    downloads_failed_system: Counter,
    downloads_failed_env: Counter,
    download_secs: Histogram,
}

impl HotInstruments {
    fn from(metrics: &MetricsRegistry) -> Self {
        HotInstruments {
            nat_attempts: metrics.counter("peer.nat_traversal_attempts"),
            nat_blocked: metrics.counter("peer.nat_traversal_blocked"),
            nat_punch_failures: metrics.counter("peer.nat_punch_failures"),
            nat_ok: metrics.counter("peer.nat_traversal_ok"),
            downloads_completed: metrics.counter("hybrid.downloads_completed"),
            downloads_abandoned: metrics.counter("hybrid.downloads_abandoned"),
            downloads_failed_system: metrics.counter("hybrid.downloads_failed_system"),
            downloads_failed_env: metrics.counter("hybrid.downloads_failed_env"),
            download_secs: metrics.histogram("hybrid.download_secs"),
        }
    }
}

/// Everything one month-long run mutates, generic over the queue storage
/// backend `S` (one body serves the timing wheel and its heap oracle). The
/// event handlers are this struct's methods: each takes `&mut self`, the
/// event payload and the event time.
struct Run<S: EventSched<Event>> {
    scenario: Scenario,
    user_model: UserModel,
    metrics: MetricsRegistry,
    trace: TraceSink,
    hot: HotInstruments,
    net: FlowNet,
    queue: EventQueue<Event, S>,
    peers: PeerTable,
    /// Who currently holds each GUID's login (contacts are resolved here).
    guid_owner: FxHashMap<Guid, u32>,
    /// Regions whose edge servers are currently dark (EdgeOutage).
    edge_down: Vec<bool>,
    /// Every download ever started; `active` indexes the unfinished ones.
    dls: Vec<Dl>,
    active: Vec<usize>,
    /// Time up to which `settle` has accrued bytes.
    last_advance: SimTime,
    /// Shared per-source rate cache for [`Dl::advance`] (see there).
    adv_rates: Vec<f64>,
    tick_scheduled: bool,
    run_rng: DetRng,
    churn_rng: DetRng,
    dataset: TraceDataset,
    stats: RunStats,
}

impl<S: EventSched<Event> + Default> Run<S> {
    /// Set-up: per-peer runtime state, the pre-seeded caches, and the
    /// month's login, arrival and fault events.
    fn new(sim: HybridSim) -> Self {
        let HybridSim {
            mut scenario,
            mut rng,
            user_model,
            metrics,
            trace,
        } = sim;
        let n_peers = scenario.population.len();
        trace.attach_metrics(&metrics);
        scenario.plane.attach_metrics(&metrics);
        for edge in &mut scenario.edges {
            edge.attach_metrics(&metrics);
        }
        let mut net = FlowNet::new().with_metrics(&metrics).with_trace(&trace);
        let mut queue: EventQueue<Event, S> = EventQueue::new().with_metrics(&metrics);

        // --- Static per-peer runtime state.
        let mob_cfg = MobilityConfig::default();
        let anomaly_plan = AnomalyPlan::default();
        let mut id_rng = rng.split(1);
        let mut mob_rng = rng.split(2);
        let mut sched_rng = rng.split(3);
        let mut beh_rng = rng.split(4);
        let run_rng = rng.split(5);
        // Seeded independently (not split from the parent) so that runs
        // without a fault schedule keep byte-identical streams with
        // pre-fault-injection builds.
        let churn_rng = DetRng::seeded(scenario.config.seed ^ 0x4348_5552_4e21);

        // Clone groups share a master image.
        let mut masters: FxHashMap<u32, InstallationState> = FxHashMap::default();
        let mut peers = PeerTable::with_capacity(n_peers);
        let up_frac = scenario.config.transfer.upload_rate_fraction;
        for spec in &scenario.population.peers {
            let node = net.add_node(
                Bandwidth::from_bytes_per_sec(spec.up.bytes_per_sec() * up_frac),
                spec.down,
            );
            let identity = match spec.clone_group {
                Some(g) => {
                    let master = masters
                        .entry(g)
                        .or_insert_with(|| IdentityState::master_image(3, &mut id_rng))
                        .clone();
                    IdentityState::cloned_from(&master)
                }
                None => match anomaly_plan.sample(&mut id_rng) {
                    AnomalyKind::None => IdentityState::normal(),
                    kind => IdentityState::with_anomaly(kind, 2 + id_rng.index(6) as u64),
                },
            };
            let mobility =
                MobilityPlan::generate(spec, &scenario.population.as_model, &mob_cfg, &mut mob_rng);
            // Table-3 setting changes, scheduled at random trace times.
            let changes = user_model.sample_setting_changes(spec.uploads_enabled, &mut beh_rng);
            let mut pending = Vec::new();
            let mut setting = spec.uploads_enabled;
            for _ in 0..changes {
                setting = !setting;
                pending.push((
                    SimTime((beh_rng.f64() * TRACE_MONTH.as_micros() as f64) as u64),
                    setting,
                ));
            }
            pending.sort_by_key(|(t, _)| *t);
            peers.push(node, spec.uploads_enabled, pending, identity, mobility);
        }

        // --- Pre-seed: history before the trace month left copies of
        // popular p2p objects on upload-enabled peers.
        {
            let mut seed_rng = rng.split(6);
            let objects = scenario.catalog.objects();
            let total_pop: f64 = objects.iter().map(|o| o.popularity).sum();
            let downloads = scenario.config.workload.downloads as f64;
            let expiry = SimTime::ZERO
                + SimDuration::from_hours(scenario.config.transfer.cache_ttl_hours as u64);
            let enabled: Vec<u32> = scenario
                .population
                .peers
                .iter()
                .filter(|p| p.uploads_enabled)
                .map(|p| p.index.0)
                .collect();
            if !enabled.is_empty() {
                for obj in objects.iter().filter(|o| o.policy.p2p_enabled) {
                    let expected = obj.popularity / total_pop * downloads;
                    let copies = ((expected * 1.2) as usize).clamp(30, 150);
                    for _ in 0..copies {
                        let p = enabled[seed_rng.index(enabled.len())];
                        peers.cached[p as usize].insert(obj.id, (obj.version(), expiry));
                    }
                }
            }
        }

        // --- Schedule logins: per peer, per day, with daily_login_prob.
        let days = TRACE_MONTH.as_micros() / 86_400_000_000;
        for (i, spec) in scenario.population.peers.iter().enumerate() {
            for day in 0..days {
                if !sched_rng.chance(scenario.config.daily_login_prob) {
                    continue;
                }
                let start_local = spec.online_start_hour + sched_rng.range_f64(-0.5, 0.5);
                let len = spec.online_hours * scenario.config.session_mode_factor;
                let start_gmt = (start_local - spec.tz_offset as f64).rem_euclid(24.0);
                let online_at = SimTime::ZERO
                    + SimDuration::from_days(day)
                    + SimDuration::from_secs_f64(start_gmt * 3600.0);
                let offline_at = online_at + SimDuration::from_secs_f64(len.max(0.25) * 3600.0);
                queue.schedule(online_at, Event::Online(i as u32));
                queue.schedule(offline_at, Event::Offline(i as u32));
            }
        }

        // --- Schedule request arrivals.
        for (i, req) in scenario.workload.requests.iter().enumerate() {
            queue.schedule(req.at, Event::Arrival(i as u32));
        }

        // --- Scheduled infrastructure faults (§3.8 chaos campaign).
        for (i, f) in scenario.config.faults.events.iter().enumerate() {
            queue.schedule(
                SimTime::ZERO + SimDuration::from_hours(f.at_hours),
                Event::Fault(i as u32),
            );
        }

        let regions = scenario.plane.regions() as usize;
        Run {
            hot: HotInstruments::from(&metrics),
            edge_down: vec![false; regions],
            scenario,
            user_model,
            metrics,
            trace,
            net,
            queue,
            peers,
            guid_owner: FxHashMap::default(),
            dls: Vec::new(),
            active: Vec::new(),
            last_advance: SimTime::ZERO,
            adv_rates: Vec::new(),
            tick_scheduled: false,
            run_rng,
            churn_rng,
            dataset: TraceDataset::default(),
            stats: RunStats::default(),
        }
    }

    /// The event loop, then the end-of-month output.
    fn run(mut self) -> SimOutput {
        let cutoff = SimTime::ZERO + TRACE_MONTH + TAIL;
        // Per-event-type instruments, pre-created so the hot loop does no
        // name lookups. Wall-clock timings go to the volatile section (they
        // differ run-to-run and must not pollute the deterministic snapshot).
        let ev_counters = Event::KINDS.map(|k| self.metrics.counter(&format!("hybrid.ev_{k}")));
        let ev_timings = Event::KINDS.map(|k| {
            self.metrics
                .volatile_histogram(&format!("hybrid.ev_{k}_ns"))
        });
        // §3.8 alerting over virtual time: the same AlertEngine the live
        // monitor server runs over wall-clock scrapes, fed deterministic
        // registry snapshots at >= OBS_EVERY intervals.
        let mut alert_engine = AlertEngine::new(crate::alerts::standard_rules());
        let mut next_obs = SimTime::ZERO;
        // Reusable scrape buffer: the alert engine observes >= once per
        // OBS_EVERY of virtual time (~43k scrapes per month); refreshing in
        // place skips rebuilding three String-keyed maps each time.
        let mut obs_snap = RegistrySnapshot::default();

        while let Some((t, event)) = self.queue.pop() {
            if t > cutoff {
                break;
            }
            if t >= next_obs {
                // Scalars only: every alert rule kind reads counters and
                // gauges (invariant pinned in obs's alert tests), so the
                // ~43k in-loop scrapes skip histogram summarization.
                self.metrics.scrape_scalars_into(&mut obs_snap);
                alert_engine.observe(t.as_micros(), &obs_snap);
                next_obs = t + OBS_EVERY;
            }
            let kind = event.kind();
            ev_counters[kind].incr();
            let started = std::time::Instant::now();
            match event {
                Event::Online(p) => self.login(p, t),
                Event::Offline(p) => self.on_offline(p, t),
                Event::Arrival(i) => self.on_arrival(i, t),
                Event::Tick => self.on_tick(t),
                Event::Fault(i) => self.on_fault(i, t),
                Event::Readmit(p) => self.on_readmit(p, t),
                Event::ReAdd(p) => self.on_readd(p, t),
                Event::EdgeRecover(region) => self.on_edge_recover(region, t),
            }
            ev_timings[kind].record(started.elapsed().as_nanos() as u64);
        }

        // Cut off whatever is still in flight.
        for &id in &self.active {
            self.dls[id].finished = Some((cutoff, DownloadOutcome::Abandoned));
            self.stats.cut_off += 1;
        }
        self.reap();

        // DN registration log.
        self.dataset.registrations = self
            .scenario
            .catalog
            .objects()
            .iter()
            .map(|obj| {
                let v = obj.version();
                (v, self.scenario.plane.registrations_of(v))
            })
            .filter(|(_, n)| *n > 0)
            .collect();
        self.dataset.registrations.sort_by_key(|(v, _)| *v);

        // Final observation at the cutoff so alerts that went quiet near
        // the end of the month still record their clear transition.
        self.metrics.scrape_scalars_into(&mut obs_snap);
        alert_engine.observe(cutoff.as_micros(), &obs_snap);

        SimOutput {
            dataset: self.dataset,
            stats: self.stats,
            scenario: self.scenario,
            metrics: self.metrics,
            trace: self.trace,
            alerts: alert_engine.log().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsession_core::units::ByteCount;

    fn run_tiny() -> SimOutput {
        HybridSim::run_config(ScenarioConfig::tiny())
    }

    #[test]
    fn month_produces_a_full_dataset() {
        let out = run_tiny();
        let cfg = ScenarioConfig::tiny();
        assert!(
            out.dataset.downloads.len() as f64 > cfg.workload.downloads as f64 * 0.8,
            "most requests become download records ({} of {})",
            out.dataset.downloads.len(),
            cfg.workload.downloads
        );
        assert!(out.stats.logins > 1000, "logins {}", out.stats.logins);
        assert!(!out.dataset.transfers.is_empty(), "p2p transfers happened");
        assert!(!out.dataset.registrations.is_empty(), "DN log populated");
        assert!(out.dataset.geodb.distinct_ips() > 500);
    }

    #[test]
    fn most_downloads_complete_and_outcomes_are_shaped_like_the_paper() {
        let out = run_tiny();
        let total = out.dataset.downloads.len() as f64;
        let completed = out.stats.completed as f64;
        assert!(
            completed / total > 0.85,
            "completion rate {} too low",
            completed / total
        );
        // Abandonment dominates failures (§5.2).
        assert!(out.stats.abandoned > out.stats.failed_system + out.stats.failed_env);
    }

    #[test]
    fn p2p_enabled_downloads_source_bytes_from_peers() {
        let out = run_tiny();
        let p2p_bytes: u64 = out
            .dataset
            .downloads
            .iter()
            .filter(|d| d.p2p_enabled)
            .map(|d| d.bytes_peers.bytes())
            .sum();
        assert!(p2p_bytes > 0, "peer-assist must actually deliver bytes");
        // Infra-only downloads never have peer bytes.
        for d in out.dataset.downloads.iter().filter(|d| !d.p2p_enabled) {
            assert_eq!(d.bytes_peers, ByteCount::ZERO);
        }
    }

    #[test]
    fn completed_downloads_received_their_size() {
        let out = run_tiny();
        for d in out
            .dataset
            .downloads
            .iter()
            .filter(|d| d.outcome == DownloadOutcome::Completed)
            .take(500)
        {
            let got = d.total_bytes().bytes() as f64;
            let want = d.size.bytes() as f64;
            assert!(
                (got - want).abs() / want.max(1.0) < 0.01,
                "completed download got {got} of {want}"
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_tiny();
        let b = run_tiny();
        assert_eq!(a.dataset.downloads.len(), b.dataset.downloads.len());
        assert_eq!(a.stats.completed, b.stats.completed);
        assert_eq!(a.stats.p2p_bytes, b.stats.p2p_bytes);
        for (x, y) in a
            .dataset
            .downloads
            .iter()
            .zip(&b.dataset.downloads)
            .take(200)
        {
            assert_eq!(x.guid, y.guid);
            assert_eq!(x.ended, y.ended);
            assert_eq!(x.bytes_peers, y.bytes_peers);
        }
    }

    #[test]
    fn pure_p2p_ablation_hurts_completion() {
        let mut cfg = ScenarioConfig::tiny();
        cfg.edge_backstop = false;
        let no_backstop = HybridSim::run_config(cfg);
        let with_backstop = run_tiny();
        let rate =
            |o: &SimOutput| o.stats.completed as f64 / (o.dataset.downloads.len().max(1)) as f64;
        assert!(
            rate(&no_backstop) < rate(&with_backstop),
            "backstop must improve completion ({} vs {})",
            rate(&no_backstop),
            rate(&with_backstop)
        );
    }
}
