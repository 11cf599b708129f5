//! The assembled control plane.
//!
//! One [`ControlPlane`] holds a CN and a DN per network region ("the
//! current deployment has less than 20 network regions", §3.7), the shared
//! selection engine, the edge-auth verifier (tokens minted by the edge tier
//! are checked here before any peer query is answered, §3.5), and the
//! §3.8 robustness machinery: CN/DN failure injection,
//! RE-ADD-based DN recovery, and rate-limited mass reconnection.

use crate::cn::ConnectionNode;
use crate::directory::{DirectoryNode, PeerRecord};
use crate::selection::{Querier, SelectionPolicy, Selector};
use netsession_core::error::{Error, Result};
use netsession_core::id::SecondaryGuid;
use netsession_core::id::{ConnectionId, Guid, ObjectId, VersionId};
use netsession_core::msg::{AuthToken, NatType, PeerAddr, PeerContact, UsageRecord};
use netsession_core::rng::DetRng;
use netsession_core::time::{SimDuration, SimTime};
use netsession_edge::auth::EdgeAuth;
use netsession_obs::{Counter, Histogram, MetricsRegistry, SpanId, TraceCtx, TraceSink};

/// Control-plane parameters.
#[derive(Clone, Debug)]
pub struct PlaneConfig {
    /// Number of network regions (CN+DN pairs).
    pub regions: u32,
    /// Peer-selection policy.
    pub selection: SelectionPolicy,
    /// Rate limit applied to mass reconnections after failures (§3.8:
    /// "reconnections are rate-limited to ensure a smooth recovery").
    pub reconnect_per_sec: f64,
}

impl Default for PlaneConfig {
    fn default() -> Self {
        PlaneConfig {
            regions: 12,
            selection: SelectionPolicy::default(),
            reconnect_per_sec: 500.0,
        }
    }
}

/// Token-bucket pacing for mass reconnection.
#[derive(Clone, Debug)]
pub struct ReconnectLimiter {
    per_sec: f64,
    next_slot: SimTime,
}

impl ReconnectLimiter {
    /// New limiter at the given admission rate.
    pub fn new(per_sec: f64) -> Self {
        ReconnectLimiter {
            per_sec: per_sec.max(1e-6),
            next_slot: SimTime::ZERO,
        }
    }

    /// Admission time for the next reconnect attempted at `now`.
    pub fn admit(&mut self, now: SimTime) -> SimTime {
        let gap = SimDuration::from_secs_f64(1.0 / self.per_sec);
        let at = if self.next_slot > now {
            self.next_slot
        } else {
            now
        };
        self.next_slot = at + gap;
        at
    }
}

/// Pre-resolved instrument handles for the plane's hot paths. Looking an
/// instrument up by name takes a registry lock plus a map probe; logins
/// and queries happen hundreds of thousands of times per simulated month,
/// so the handles are resolved once per registry attachment instead.
struct PlaneInstruments {
    logins: Counter,
    logouts: Counter,
    peer_queries: Counter,
    peer_queries_rejected: Counter,
    peers_selected: Counter,
    empty_selections: Counter,
    usage_records: Counter,
    selection_size: Histogram,
}

impl PlaneInstruments {
    fn from(registry: &MetricsRegistry) -> Self {
        PlaneInstruments {
            logins: registry.counter("control.logins"),
            logouts: registry.counter("control.logouts"),
            peer_queries: registry.counter("control.peer_queries"),
            peer_queries_rejected: registry.counter("control.peer_queries_rejected"),
            peers_selected: registry.counter("control.peers_selected"),
            empty_selections: registry.counter("control.empty_selections"),
            usage_records: registry.counter("control.usage_records"),
            selection_size: registry.histogram("control.selection_size"),
        }
    }
}

/// The control plane.
pub struct ControlPlane {
    cns: Vec<ConnectionNode>,
    dns: Vec<DirectoryNode>,
    selector: Selector,
    auth: EdgeAuth,
    limiter: ReconnectLimiter,
    metrics: MetricsRegistry,
    instruments: PlaneInstruments,
}

impl ControlPlane {
    /// Build a plane with `cfg.regions` CN/DN pairs, verifying tokens with
    /// `auth` (the same secret the edge tier mints with).
    pub fn new(cfg: &PlaneConfig, auth: EdgeAuth) -> Self {
        let metrics = MetricsRegistry::new();
        ControlPlane {
            cns: (0..cfg.regions).map(ConnectionNode::new).collect(),
            dns: (0..cfg.regions).map(DirectoryNode::new).collect(),
            selector: Selector::new(cfg.selection.clone()),
            auth,
            limiter: ReconnectLimiter::new(cfg.reconnect_per_sec),
            instruments: PlaneInstruments::from(&metrics),
            metrics,
        }
    }

    /// Attach this plane's instruments to a shared registry. Control
    /// counters are named `control.*`: `control.logins`,
    /// `control.logouts`, `control.peer_queries` /
    /// `control.peer_queries_rejected`, `control.peers_selected`,
    /// `control.empty_selections`, `control.usage_records`, plus the
    /// `control.selection_size` histogram.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.attach_metrics(registry);
        self
    }

    /// In-place variant of [`ControlPlane::with_metrics`].
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = registry.clone();
        self.instruments = PlaneInstruments::from(registry);
    }

    /// The registry this plane records into.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Number of regions.
    pub fn regions(&self) -> u32 {
        self.cns.len() as u32
    }

    /// Peer login at its closest region (Akamai's DNS mapping decides the
    /// region; the simulation passes it in).
    #[allow(clippy::too_many_arguments)]
    pub fn login(
        &mut self,
        region: u32,
        guid: Guid,
        addr: PeerAddr,
        nat: NatType,
        uploads_enabled: bool,
        software_version: u32,
        secondary_guids: Vec<SecondaryGuid>,
        now: SimTime,
    ) -> ConnectionId {
        self.instruments.logins.incr();
        self.cns[region as usize].login(
            guid,
            addr,
            nat,
            uploads_enabled,
            software_version,
            secondary_guids,
            now,
        )
    }

    /// Logout / connection loss. Withdraws the peer's DN registrations
    /// (its copies are unreachable while offline).
    pub fn logout(&mut self, region: u32, guid: Guid) {
        self.instruments.logouts.incr();
        self.cns[region as usize].logout(guid);
        self.dns[region as usize].unregister_all(guid);
    }

    /// Register a shareable copy (peer must have uploads enabled — the
    /// caller enforces it, since the setting lives client-side).
    pub fn register_content(&mut self, region: u32, record: PeerRecord, version: VersionId) {
        self.dns[region as usize].register(record, version);
    }

    /// Withdraw one registration.
    pub fn unregister_content(&mut self, region: u32, guid: Guid, version: VersionId) {
        self.dns[region as usize].unregister(guid, version);
    }

    /// Handle a peer query: verify the edge token, then select from the
    /// *local* DN first (§3.7: "long-term experimentation has shown that
    /// using only local DNs in searches does not negatively impact
    /// performance" — at production scale every region is well seeded).
    /// When the local DN comes up short, the interconnected CN/DN system
    /// searches the other regions too ("it is possible in principle to
    /// search for peers from any region"), which matters at small
    /// deployments and for thin swarms.
    pub fn query_peers(
        &mut self,
        region: u32,
        querier: &Querier,
        token: &AuthToken,
        now: SimTime,
        rng: &mut DetRng,
    ) -> Result<Vec<PeerContact>> {
        if token.guid != querier.guid {
            self.instruments.peer_queries_rejected.incr();
            return Err(Error::Unauthorized("token bound to another GUID".into()));
        }
        if !self.auth.verify(token, now) {
            self.instruments.peer_queries_rejected.incr();
            return Err(Error::Unauthorized("invalid or expired token".into()));
        }
        self.instruments.peer_queries.incr();
        let want = self.selector.policy.max_peers;
        let mut picked =
            self.selector
                .select(&mut self.dns[region as usize], token.version, querier, rng);
        if picked.len() < want {
            let regions = self.dns.len() as u32;
            for offset in 1..regions {
                if picked.len() >= want {
                    break;
                }
                let r = (region + offset) % regions;
                let more =
                    self.selector
                        .select(&mut self.dns[r as usize], token.version, querier, rng);
                for contact in more {
                    if picked.len() >= want {
                        break;
                    }
                    if !picked.iter().any(|c| c.guid == contact.guid) {
                        picked.push(contact);
                    }
                }
            }
        }
        self.instruments.peers_selected.add(picked.len() as u64);
        self.instruments.selection_size.record(picked.len() as u64);
        if picked.is_empty() {
            self.instruments.empty_selections.incr();
        }
        Ok(picked)
    }

    /// Trace-aware [`ControlPlane::query_peers`]: same behaviour, plus a
    /// `"query_peers"` span in the control layer recording how many
    /// sources were offered (or why the query was rejected). Returns the
    /// span so the caller can attach context of its own (e.g. the
    /// re-query round).
    #[allow(clippy::too_many_arguments)]
    pub fn query_peers_traced(
        &mut self,
        region: u32,
        querier: &Querier,
        token: &AuthToken,
        now: SimTime,
        rng: &mut DetRng,
        trace: &TraceSink,
        ctx: TraceCtx,
    ) -> (Result<Vec<PeerContact>>, SpanId) {
        let span = trace.span(ctx, "query_peers", "control", now.as_micros());
        let result = self.query_peers(region, querier, token, now, rng);
        match &result {
            Ok(picked) => trace.add_attr(span, "offered", picked.len() as u64),
            Err(e) => trace.add_attr(span, "error", e.to_string()),
        }
        trace.end_span(span, now.as_micros());
        (result, span)
    }

    /// Record an upload and enforce the per-object cap: returns `true` if
    /// the uploader is still under the cap, `false` if this upload
    /// exhausted it (the DN then drops the registration so the peer is not
    /// selected again for this object, §3.9).
    pub fn count_upload(
        &mut self,
        region: u32,
        uploader: Guid,
        object: ObjectId,
        cap: Option<u32>,
    ) -> bool {
        let n = self.dns[region as usize].count_upload(uploader, object);
        match cap {
            Some(cap) if n >= cap => {
                // Withdraw every version of this object by the uploader.
                let versions: Vec<VersionId> = self.dns[region as usize]
                    .registration_log()
                    .map(|(v, _)| v)
                    .filter(|v| v.object == object)
                    .collect();
                for v in versions {
                    self.dns[region as usize].unregister(uploader, v);
                }
                false
            }
            _ => true,
        }
    }

    /// Accept a usage report at a region's CN.
    pub fn accept_usage(&mut self, region: u32, records: Vec<UsageRecord>) {
        self.instruments.usage_records.add(records.len() as u64);
        self.cns[region as usize].accept_usage(records);
    }

    /// Drain all usage records (billing pipeline).
    pub fn drain_usage(&mut self) -> Vec<UsageRecord> {
        self.cns
            .iter_mut()
            .flat_map(|cn| cn.drain_usage())
            .collect()
    }

    /// All login-log entries across CNs.
    pub fn login_logs(&self) -> impl Iterator<Item = &crate::cn::LoginLogEntry> + '_ {
        self.cns.iter().flat_map(|cn| cn.login_log().iter())
    }

    /// Holders of a version in one region's DN.
    pub fn holder_count(&self, region: u32, version: VersionId) -> usize {
        self.dns[region as usize].holder_count(version)
    }

    /// Registration count of a version summed over all DNs (Fig 5 x-axis).
    pub fn registrations_of(&self, version: VersionId) -> u64 {
        self.dns.iter().map(|dn| dn.registrations_of(version)).sum()
    }

    /// Total live control connections.
    pub fn total_connections(&self) -> usize {
        self.cns.iter().map(|cn| cn.connection_count()).sum()
    }

    /// Inject a CN failure. Returns `(guid, readmission_time)` pairs: every
    /// dropped peer reconnects (to another CN in practice; same region
    /// here), paced by the reconnect limiter. The dropped set is sorted by
    /// GUID before pacing so the admission schedule is deterministic (the
    /// CN's session table is a hash map).
    pub fn fail_cn(&mut self, region: u32, now: SimTime) -> Vec<(Guid, SimTime)> {
        let mut dropped = self.cns[region as usize].fail();
        dropped.sort_unstable();
        dropped
            .into_iter()
            .map(|g| (g, self.limiter.admit(now)))
            .collect()
    }

    /// Inject a DN failure (§3.8): the DN's soft state is wiped and the
    /// region's connected peers must be asked to RE-ADD. Returns the GUIDs
    /// to ask, sorted for determinism.
    pub fn fail_dn(&mut self, region: u32) -> Vec<Guid> {
        self.dns[region as usize].fail();
        let mut guids: Vec<Guid> = self.cns[region as usize].connected_guids().collect();
        guids.sort_unstable();
        guids
    }

    /// Admit one recovery action through the shared reconnect limiter
    /// (§3.8 smooth recovery). CN readmissions and post-DN-wipe RE-ADD
    /// responses draw from the same budget, mirroring the deployment where
    /// one rate limit protects the whole control plane.
    pub fn pace_recovery(&mut self, now: SimTime) -> SimTime {
        self.limiter.admit(now)
    }

    /// Apply one peer's RE-ADD response: re-register all its cached
    /// versions.
    pub fn handle_readd(&mut self, region: u32, record: PeerRecord, versions: &[VersionId]) {
        for v in versions {
            self.dns[region as usize].register(record.clone(), *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsession_core::id::AsNumber;

    fn plane() -> ControlPlane {
        ControlPlane::new(&PlaneConfig::default(), EdgeAuth::from_seed(1))
    }

    fn record(guid: u64) -> PeerRecord {
        PeerRecord {
            guid: Guid(guid as u128),
            addr: PeerAddr {
                ip: guid as u32,
                port: 1,
            },
            asn: AsNumber(100),
            area: 1,
            zone: 0,
            nat: NatType::FullCone,
        }
    }

    fn querier(guid: u64) -> Querier {
        Querier {
            guid: Guid(guid as u128),
            asn: AsNumber(100),
            area: 1,
            zone: 0,
            nat: NatType::FullCone,
        }
    }

    fn ver(n: u64) -> VersionId {
        VersionId {
            object: ObjectId(n),
            version: 1,
        }
    }

    #[test]
    fn query_requires_valid_token() {
        let mut p = plane();
        p.register_content(0, record(1), ver(5));
        let mut rng = DetRng::seeded(1);
        let auth = EdgeAuth::from_seed(1);
        let good = auth.issue(Guid(2), ver(5), SimTime(0));
        let peers = p
            .query_peers(0, &querier(2), &good, SimTime(0), &mut rng)
            .unwrap();
        assert_eq!(peers.len(), 1);

        // Wrong secret.
        let forged = EdgeAuth::from_seed(9).issue(Guid(2), ver(5), SimTime(0));
        assert!(p
            .query_peers(0, &querier(2), &forged, SimTime(0), &mut rng)
            .is_err());
        // Token bound to a different GUID.
        assert!(p
            .query_peers(0, &querier(3), &good, SimTime(0), &mut rng)
            .is_err());
    }

    #[test]
    fn queries_prefer_local_and_fall_back_across_regions() {
        let mut p = plane();
        // One copy in region 0, one in region 3.
        p.register_content(0, record(1), ver(5));
        p.register_content(3, record(2), ver(5));
        let mut rng = DetRng::seeded(2);
        let auth = EdgeAuth::from_seed(1);
        let token = auth.issue(Guid(9), ver(5), SimTime(0));
        // A query in region 0 returns its local holder first, then tops up
        // from the interconnected regions (§3.7: cross-region search is
        // possible when the local DN comes up short).
        let peers = p
            .query_peers(0, &querier(9), &token, SimTime(0), &mut rng)
            .unwrap();
        assert_eq!(peers.len(), 2);
        assert_eq!(peers[0].guid, Guid(1), "local holder listed first");
        // A query in an empty region still finds both via fallback.
        let peers = p
            .query_peers(7, &querier(9), &token, SimTime(0), &mut rng)
            .unwrap();
        assert_eq!(peers.len(), 2);
    }

    #[test]
    fn logout_withdraws_registrations() {
        let mut p = plane();
        p.login(
            0,
            Guid(1),
            PeerAddr { ip: 1, port: 1 },
            NatType::FullCone,
            true,
            1,
            vec![],
            SimTime(0),
        );
        p.register_content(0, record(1), ver(5));
        assert_eq!(p.holder_count(0, ver(5)), 1);
        p.logout(0, Guid(1));
        assert_eq!(p.holder_count(0, ver(5)), 0);
        assert_eq!(p.total_connections(), 0);
    }

    #[test]
    fn upload_cap_withdraws_registration() {
        let mut p = plane();
        p.register_content(0, record(1), ver(5));
        assert!(p.count_upload(0, Guid(1), ObjectId(5), Some(3)));
        assert!(p.count_upload(0, Guid(1), ObjectId(5), Some(3)));
        // Third upload hits the cap.
        assert!(!p.count_upload(0, Guid(1), ObjectId(5), Some(3)));
        assert_eq!(p.holder_count(0, ver(5)), 0, "cap must deregister");
        // Uncapped never withdraws.
        p.register_content(0, record(2), ver(5));
        for _ in 0..100 {
            assert!(p.count_upload(0, Guid(2), ObjectId(5), None));
        }
    }

    #[test]
    fn dn_failure_and_readd_recovery() {
        let mut p = plane();
        p.login(
            0,
            Guid(1),
            PeerAddr { ip: 1, port: 1 },
            NatType::FullCone,
            true,
            1,
            vec![],
            SimTime(0),
        );
        p.register_content(0, record(1), ver(5));
        let to_ask = p.fail_dn(0);
        assert_eq!(to_ask, vec![Guid(1)]);
        assert_eq!(p.holder_count(0, ver(5)), 0);
        // The peer answers RE-ADD with its cached versions.
        p.handle_readd(0, record(1), &[ver(5)]);
        assert_eq!(p.holder_count(0, ver(5)), 1);
    }

    #[test]
    fn cn_failure_paces_reconnections() {
        let cfg = PlaneConfig {
            reconnect_per_sec: 2.0, // 0.5 s between admissions
            ..PlaneConfig::default()
        };
        let mut p = ControlPlane::new(&cfg, EdgeAuth::from_seed(1));
        for g in 1..=5u64 {
            p.login(
                0,
                Guid(g as u128),
                PeerAddr {
                    ip: g as u32,
                    port: 1,
                },
                NatType::FullCone,
                true,
                1,
                vec![],
                SimTime(0),
            );
        }
        let readmits = p.fail_cn(0, SimTime(0));
        assert_eq!(readmits.len(), 5);
        // Admissions are strictly spaced by 0.5 s.
        for (i, (_, at)) in readmits.iter().enumerate() {
            assert_eq!(at.as_micros(), i as u64 * 500_000);
        }
        assert_eq!(p.total_connections(), 0);
    }

    #[test]
    fn usage_pipeline_flows_through() {
        let mut p = plane();
        let rec = UsageRecord {
            guid: Guid(1),
            version: ver(5),
            started: SimTime(0),
            ended: SimTime(9),
            bytes_from_infrastructure: netsession_core::units::ByteCount(5),
            bytes_from_peers: netsession_core::units::ByteCount(6),
        };
        p.accept_usage(3, vec![rec.clone()]);
        p.accept_usage(7, vec![rec]);
        assert_eq!(p.drain_usage().len(), 2);
        assert!(p.drain_usage().is_empty());
    }
}
