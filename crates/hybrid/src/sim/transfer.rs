//! Downloads: the always-on edge connection plus NAT-filtered swarm
//! sources, the fluid byte accrual between events, §3.7 re-queries, and
//! the teardown that turns a finished download into log records.

use super::{Dl, Event, Run, SourceFlow, TICK};
use netsession_core::id::VersionId;
use netsession_core::msg::{PeerContact, UsageRecord};
use netsession_core::time::{SimDuration, SimTime};
use netsession_core::units::{Bandwidth, ByteCount};
use netsession_logs::records::{DownloadOutcome, DownloadRecord, TransferRecord};
use netsession_nat::matrix::{connectivity, Connectivity};
use netsession_obs::SpanId;
use netsession_sim::flownet::FlowNet;
use netsession_sim::queue::EventSched;

/// Connection-success probabilities by traversal kind.
const P_DIRECT: f64 = 0.97;
const P_PUNCH: f64 = 0.85;

impl Dl {
    /// Total bytes fetched so far across the edge flow, live sources, and
    /// already-detached sources. The hot loop computes this inline (fused
    /// with the rate pass); tests use this reference form.
    #[cfg(test)]
    fn done_bytes(&self) -> f64 {
        self.edge_bytes
            + self.sources.iter().map(|s| s.bytes).sum::<f64>()
            + self.finished_sources.iter().map(|(_, b)| b).sum::<f64>()
    }

    /// Advance this download from `from` to `to` at current rates,
    /// detecting completion / env-failure / abort crossings with exact
    /// interpolated times.
    fn advance(&mut self, net: &FlowNet, from: SimTime, to: SimTime, rate_scratch: &mut Vec<f64>) {
        if to <= from || self.finished.is_some() {
            return;
        }
        let dt = (to - from).as_secs_f64();
        let edge_rate = self
            .edge_flow
            .map(|f| net.rate(f).bytes_per_sec())
            .unwrap_or(0.0);
        // One pass over the sources collects rates (into a scratch buffer
        // shared across the whole run — no per-download allocation) and the
        // per-source byte sum; the accrual below reuses the cached rates
        // instead of a second round of slab lookups. Each f64 sum keeps its
        // original grouping (rate sum, source-bytes sum, finished-bytes sum
        // computed separately, then added), so results are bit-identical to
        // the naive three-pass version.
        rate_scratch.clear();
        let mut src_rate_sum = 0.0;
        let mut src_bytes = 0.0;
        for s in &self.sources {
            let r = net.rate(s.flow).bytes_per_sec();
            rate_scratch.push(r);
            src_rate_sum += r;
            src_bytes += s.bytes;
        }
        let total_rate = edge_rate + src_rate_sum;
        let done =
            self.edge_bytes + src_bytes + self.finished_sources.iter().map(|(_, b)| b).sum::<f64>();

        // Find the earliest milestone within (from, to].
        let mut milestone_dt = dt;
        let mut outcome: Option<DownloadOutcome> = None;
        if total_rate > 0.0 {
            let dt_complete = (self.size - done) / total_rate;
            if dt_complete <= milestone_dt {
                milestone_dt = dt_complete.max(0.0);
                outcome = Some(DownloadOutcome::Completed);
            }
            // A failure threshold already crossed in a previous step gives
            // a negative raw dt; clamp to 0 so the failure fires at the
            // step boundary instead of being skipped forever.
            for (fail_at, system_related) in [
                (self.env_fail_at_bytes, false),
                (self.sys_fail_at_bytes, true),
            ] {
                if let Some(fail_bytes) = fail_at {
                    let dt_fail = ((fail_bytes - done) / total_rate).max(0.0);
                    if dt_fail < milestone_dt {
                        milestone_dt = dt_fail;
                        outcome = Some(DownloadOutcome::Failed { system_related });
                    }
                }
            }
        }
        if let Some(abort_at) = self.abort_at {
            if abort_at <= to {
                let dt_abort = abort_at.since(from).as_secs_f64();
                if (dt_abort < milestone_dt || outcome.is_none()) && dt_abort <= milestone_dt {
                    milestone_dt = dt_abort;
                    outcome = Some(DownloadOutcome::Abandoned);
                }
            }
        }

        // Accumulate bytes up to the milestone (or the full step).
        let step = milestone_dt.clamp(0.0, dt);
        self.edge_bytes += edge_rate * step;
        for (s, r) in self.sources.iter_mut().zip(rate_scratch.iter()) {
            s.bytes += r * step;
        }
        if let Some(outcome) = outcome {
            let at = from + SimDuration::from_secs_f64(step);
            self.finished = Some((at, outcome));
        }
    }
}

/// The edge download runs over a single HTTP(S) connection; against `k`
/// concurrent peer connections it behaves like one TCP flow among `k+1`
/// sharing the downlink, not like an unbounded backstop that soaks up all
/// slack. This sets the edge flow's rate ceiling accordingly (no ceiling
/// when there are no peer sources).
pub(super) fn update_edge_ceil(dl: &Dl, downlink: Bandwidth, net: &mut FlowNet) {
    if let Some(f) = dl.edge_flow {
        let k = dl.sources.len();
        let ceil = (k > 0)
            .then(|| Bandwidth::from_bytes_per_sec(downlink.bytes_per_sec() / (k as f64 + 1.0)));
        net.set_flow_ceil(f, ceil);
    }
}

fn record_to_usage(r: &DownloadRecord) -> UsageRecord {
    UsageRecord {
        guid: r.guid,
        version: VersionId {
            object: r.object,
            version: 1,
        },
        started: r.started,
        ended: r.ended,
        bytes_from_infrastructure: r.bytes_infra,
        bytes_from_peers: r.bytes_peers,
    }
}

impl<S: EventSched<Event>> Run<S> {
    /// Accrue bytes on every active download up to `t` at the current
    /// rates. Every handler that changes the flow set settles first.
    pub(super) fn settle(&mut self, t: SimTime) {
        for &id in &self.active {
            self.dls[id].advance(&self.net, self.last_advance, t, &mut self.adv_rates);
        }
        self.last_advance = t;
    }

    /// `Event::Arrival`: request `req_idx` of the workload starts.
    pub(super) fn on_arrival(&mut self, req_idx: u32, t: SimTime) {
        self.settle(t);
        self.start_download(req_idx as usize, t);
        self.reap();
        self.net.recompute_dirty();
        if !self.tick_scheduled && !self.active.is_empty() {
            self.queue.schedule(t + TICK, Event::Tick);
            self.tick_scheduled = true;
        }
    }

    /// `Event::Tick`: the coarse fluid-model step while downloads run.
    pub(super) fn on_tick(&mut self, t: SimTime) {
        self.settle(t);
        self.reap();
        self.requery(t);
        // Rates must be refreshed whenever the tick changed the flow set —
        // a finished download tearing flows down OR a requery connecting
        // new sources / retightening the edge ceiling. (Gating this on "a
        // download finished" used to leave requery-added flows at 0 B/s
        // for many ticks.) The incremental path is a no-op on the common
        // quiet tick where nothing was dirtied.
        self.net.recompute_dirty();
        if self.active.is_empty() {
            self.tick_scheduled = false;
        } else {
            self.queue.schedule(t + TICK, Event::Tick);
        }
    }

    fn start_download(&mut self, req_idx: usize, t: SimTime) {
        let req = self.scenario.workload.requests[req_idx];
        let p = req.peer.0;
        let i = p as usize;
        // One concurrent download per peer: drop overlapping requests.
        if self.peers.active_download[i].is_some() {
            return;
        }
        if !self.peers.online[i] {
            // The user turned the machine on to download.
            self.login(p, t);
        }
        let spec = &self.scenario.population.peers[i];
        let region = self.peers.logged_region[i];

        // Root span for this download's causal story. Unsampled requests
        // get the null context; everything recorded through it no-ops.
        let ctx = self.trace.start_trace("download", "hybrid", t.as_micros());
        if ctx.sampled {
            // GUIDs exceed 2^53, so they export as hex strings — raw u64
            // attrs would lose precision through an f64 JSON parser.
            self.trace
                .add_attr(ctx.span, "guid", format!("{:016x}", spec.guid.0 as u64));
        }
        self.trace.add_attr(ctx.span, "object", req.object.0);
        self.trace.add_attr(ctx.span, "region", region as u64);

        // Edge authorization (§3.5) — the trust root even for p2p.
        let auth = match self.scenario.edges[region as usize].authorize_traced(
            spec.guid,
            req.object,
            t,
            &self.trace,
            ctx,
        ) {
            Ok(a) => a,
            Err(_) => {
                self.trace.add_attr(ctx.span, "outcome", "denied");
                self.trace.end_span(ctx.span, t.as_micros());
                return;
            }
        };
        self.scenario
            .ledger
            .record_authorization(spec.guid, auth.token.version);
        let size = auth.manifest.size.bytes() as f64;
        let p2p = auth.policy.p2p_enabled;
        self.trace.add_attr(ctx.span, "size", size as u64);
        self.trace.add_attr(ctx.span, "p2p", p2p);
        let size = size.max(1.0);

        let rng = &mut self.run_rng;
        let id = self.dls.len();
        self.dls.push(Dl {
            peer: p,
            object: req.object,
            version: auth.token.version,
            size,
            p2p,
            cap: auth.policy.per_peer_upload_cap,
            started: t,
            token: auth.token,
            edge_flow: None,
            edge_bytes: 0.0,
            sources: Vec::new(),
            finished_sources: Vec::new(),
            initial_peers: 0,
            abort_at: self.user_model.sample_abandon_after(rng).map(|d| t + d),
            env_fail_at_bytes: self.user_model.sample_env_failure(rng).map(|f| f * size),
            sys_fail_at_bytes: {
                let prob = if p2p { 0.002 } else { 0.001 };
                rng.chance(prob).then(|| rng.f64() * size)
            },
            requeries: 0,
            region,
            finished: None,
            ctx,
            edge_span: SpanId::NONE,
        });

        // Flow mutations below belong to this download's trace.
        self.net.set_trace_scope(ctx, t.as_micros());

        // Peer selection and connection establishment.
        if p2p {
            if self.peers.control_connected[i] {
                if let Some((offered, _)) = self.query_sources(id, t) {
                    self.dls[id].initial_peers = offered;
                }
            } else {
                // §3.8: the control plane is unreachable (CN crashed, the
                // paced readmission hasn't fired yet) — no peer query is
                // possible; the download proceeds against the edge alone.
                self.metrics
                    .counter("hybrid.fault.edge_only_downloads")
                    .incr();
                self.trace
                    .instant(ctx, "control_disconnected", "fault", t.as_micros());
            }
            // Swarm came up empty (nobody reachable through NAT, nobody
            // caching the version, or no control plane to ask): the
            // always-on edge connection is the backstop (§3.3).
            if self.dls[id].sources.is_empty() {
                self.metrics.counter("peer.edge_fallbacks").incr();
                self.trace
                    .instant(ctx, "edge_fallback", "edge", t.as_micros());
            }
        }

        if self.scenario.config.edge_backstop && !self.edge_down[region as usize] {
            self.attach_edge(id, t);
        }
        self.net.clear_trace_scope();

        self.peers.active_download[i] = Some(id);
        self.active.push(id);
    }

    /// Open download `id`'s edge connection (§3.3) and its span. The
    /// caller holds the net's trace scope.
    pub(super) fn attach_edge(&mut self, id: usize, t: SimTime) {
        let dl = &mut self.dls[id];
        dl.edge_flow = Some(
            self.net
                .add_server_flow(self.peers.node[dl.peer as usize], None),
        );
        dl.edge_span = self
            .trace
            .span(dl.ctx, "edge_backstop", "edge", t.as_micros());
        let downlink = self.scenario.population.peers[dl.peer as usize].down;
        update_edge_ceil(dl, downlink, &mut self.net);
    }

    /// §3.7 "additional queries": downloads running short of sources ask
    /// the control plane again, up to the configured number of rounds.
    fn requery(&mut self, t: SimTime) {
        let transfer = &self.scenario.config.transfer;
        // div_ceil: with `sufficient <= 1`, flooring division made the
        // threshold 0 and disabled re-queries outright.
        let want = transfer.sufficient_peer_connections.div_ceil(2);
        let max_rounds = transfer.max_requery_rounds;
        for k in 0..self.active.len() {
            let id = self.active[k];
            let dl = &self.dls[id];
            let needs = dl.p2p
                && dl.finished.is_none()
                && dl.sources.len() < want
                && dl.requeries < max_rounds;
            // A control-disconnected peer (CN crash, readmission pending)
            // cannot re-query; it keeps whatever sources it has plus the
            // edge backstop until its Readmit fires.
            if !needs || !self.peers.control_connected[dl.peer as usize] {
                continue;
            }
            self.net.set_trace_scope(dl.ctx, t.as_micros());
            if let Some((_, qspan)) = self.query_sources(id, t) {
                let dl = &mut self.dls[id];
                dl.requeries += 1;
                self.stats.requeries += 1;
                self.trace.add_attr(qspan, "round", dl.requeries as u64);
                let downlink = self.scenario.population.peers[dl.peer as usize].down;
                update_edge_ceil(dl, downlink, &mut self.net);
            }
            self.net.clear_trace_scope();
        }
    }

    /// One peer query for download `id` (§3.7), connecting to whoever the
    /// control plane offers. Returns how many contacts were offered and
    /// the query's span, or `None` if the plane rejected the query. The
    /// caller holds the net's trace scope.
    fn query_sources(&mut self, id: usize, t: SimTime) -> Option<(u32, SpanId)> {
        let dl = &self.dls[id];
        let spec = &self.scenario.population.peers[dl.peer as usize];
        let (selected, qspan) = self.scenario.plane.query_peers_traced(
            dl.region,
            &self.peers.querier(spec),
            &dl.token,
            t,
            &mut self.run_rng,
            &self.trace,
            dl.ctx,
        );
        let contacts = selected.ok()?;
        self.connect_sources(id, &contacts, t);
        Some((contacts.len() as u32, qspan))
    }

    /// Try to connect the selected contacts as swarm sources. Each offered
    /// contact gets a `connect_attempt` marker span recording why it did or
    /// did not become a source — the per-download story behind the aggregate
    /// NAT counters.
    fn connect_sources(&mut self, id: usize, contacts: &[PeerContact], t: SimTime) {
        let max_conns = self.scenario.config.transfer.max_download_connections;
        let max_uploads = self.scenario.config.transfer.max_upload_connections;
        let (trace, peers, hot) = (&self.trace, &mut self.peers, &self.hot);
        let dl = &mut self.dls[id];
        let my_nat = self.scenario.population.peers[dl.peer as usize].nat;
        for c in contacts {
            if dl.sources.len() >= max_conns {
                break;
            }
            let attempt = trace.instant(dl.ctx, "connect_attempt", "peer", t.as_micros());
            if attempt.is_some() {
                // The contact is who we dial — the *destination* of the
                // attempt. (`src_guid` on `peer_transfer` below is correct:
                // once connected, that peer is the byte source.)
                trace.add_attr(attempt, "dst_guid", format!("{:016x}", c.guid.0 as u64));
            }
            let Some(&src) = self.guid_owner.get(&c.guid) else {
                trace.add_attr(attempt, "result", "stale_contact");
                continue;
            };
            if src == dl.peer {
                trace.add_attr(attempt, "result", "self");
                continue;
            }
            if dl.sources.iter().any(|s| s.peer == src) {
                trace.add_attr(attempt, "result", "duplicate");
                continue;
            }
            if !peers.online[src as usize]
                || !peers.uploads_enabled[src as usize]
                || peers.active_uploads[src as usize] as usize >= max_uploads
            {
                trace.add_attr(attempt, "result", "unavailable");
                continue;
            }
            // Source must still cache the exact version.
            match peers.cached[src as usize].get(&dl.object) {
                Some((v, _)) if *v == dl.version => {}
                _ => {
                    trace.add_attr(attempt, "result", "stale_version");
                    continue;
                }
            }
            // Traversal.
            hot.nat_attempts.incr();
            let conn = connectivity(my_nat, c.nat);
            trace.add_attr(attempt, "nat", conn.label());
            let p_ok = match conn {
                Connectivity::Direct => P_DIRECT,
                Connectivity::HolePunch => P_PUNCH,
                Connectivity::None => {
                    self.stats.punch_failures += 1;
                    hot.nat_blocked.incr();
                    trace.add_attr(attempt, "result", "blocked");
                    continue;
                }
            };
            if !self.run_rng.chance(p_ok) {
                self.stats.punch_failures += 1;
                hot.nat_punch_failures.incr();
                trace.add_attr(attempt, "result", "punch_failed");
                continue;
            }
            hot.nat_ok.incr();
            trace.add_attr(attempt, "result", "connected");
            let flow =
                self.net
                    .add_flow(peers.node[src as usize], peers.node[dl.peer as usize], None);
            peers.active_uploads[src as usize] += 1;
            let span = trace.span(dl.ctx, "peer_transfer", "peer", t.as_micros());
            if span.is_some() {
                trace.add_attr(span, "src_guid", format!("{:016x}", c.guid.0 as u64));
            }
            dl.sources.push(SourceFlow {
                peer: src,
                flow,
                bytes: 0.0,
                span,
            });
        }
    }

    /// Emit records and release resources for downloads that reached a
    /// terminal state during the last `settle`.
    pub(super) fn reap(&mut self) {
        let (trace, peers, hot) = (&self.trace, &mut self.peers, &self.hot);
        let scenario = &mut self.scenario;
        let mut i = 0;
        while i < self.active.len() {
            let id = self.active[i];
            let Some((ended, outcome)) = self.dls[id].finished else {
                i += 1;
                continue;
            };
            self.active.swap_remove(i);
            let dl = &mut self.dls[id];
            let spec = &scenario.population.peers[dl.peer as usize];

            // Tear down flows.
            self.net.set_trace_scope(dl.ctx, ended.as_micros());
            if let Some(f) = dl.edge_flow.take() {
                self.net.remove_flow(f);
            }
            trace.add_attr(dl.edge_span, "bytes", dl.edge_bytes as u64);
            trace.end_span(dl.edge_span, ended.as_micros());
            let sources: Vec<(u32, f64)> = dl
                .sources
                .drain(..)
                .map(|s| {
                    self.net.remove_flow(s.flow);
                    peers.active_uploads[s.peer as usize] =
                        peers.active_uploads[s.peer as usize].saturating_sub(1);
                    trace.add_attr(s.span, "bytes", s.bytes as u64);
                    trace.end_span(s.span, ended.as_micros());
                    (s.peer, s.bytes)
                })
                .chain(dl.finished_sources.drain(..))
                .collect();
            self.net.clear_trace_scope();

            // Transfer records + upload accounting. Every delivered byte counts
            // toward `bytes_peers` — `done_bytes()` counted sub-1-byte source
            // contributions toward completion, so dropping them here would make
            // a completed download's logged total undershoot its size. Only the
            // per-source TransferRecord emission skips the <1-byte dust.
            let mut bytes_peers = 0.0;
            for (src, bytes) in &sources {
                bytes_peers += bytes;
                if *bytes < 1.0 {
                    continue;
                }
                let src_spec = &scenario.population.peers[*src as usize];
                self.dataset.transfers.push(TransferRecord {
                    from_guid: src_spec.guid,
                    to_guid: spec.guid,
                    from_as: src_spec.asn,
                    to_as: spec.asn,
                    from_country: src_spec.country as u16,
                    to_country: spec.country as u16,
                    bytes: ByteCount(*bytes as u64),
                    object: dl.object,
                });
                let src_region = peers.logged_region[*src as usize];
                scenario
                    .plane
                    .count_upload(src_region, src_spec.guid, dl.object, dl.cap);
            }
            self.stats.p2p_bytes += bytes_peers as u64;
            self.stats.edge_bytes += dl.edge_bytes as u64;

            // Edge receipt.
            if dl.edge_bytes >= 1.0 {
                scenario.edges[dl.region as usize].record_served_traced(
                    spec.guid,
                    dl.version,
                    ByteCount(dl.edge_bytes as u64),
                    trace,
                    dl.ctx,
                    ended.as_micros(),
                );
            }

            // Outcome bookkeeping.
            let (outcome_label, tally, counter) = match outcome {
                DownloadOutcome::Completed => (
                    "completed",
                    &mut self.stats.completed,
                    &hot.downloads_completed,
                ),
                DownloadOutcome::Abandoned => (
                    "abandoned",
                    &mut self.stats.abandoned,
                    &hot.downloads_abandoned,
                ),
                DownloadOutcome::Failed {
                    system_related: true,
                } => (
                    "failed_system",
                    &mut self.stats.failed_system,
                    &hot.downloads_failed_system,
                ),
                DownloadOutcome::Failed {
                    system_related: false,
                } => (
                    "failed_env",
                    &mut self.stats.failed_env,
                    &hot.downloads_failed_env,
                ),
            };
            *tally += 1;
            counter.incr();
            hot.download_secs
                .record((ended - dl.started).as_secs_f64() as u64);

            // Close the root span. The byte attrs use the same `as u64`
            // truncation as the DownloadRecord below, so `trace-explain`'s
            // byte split cross-checks the metrics log exactly.
            trace.add_attr(dl.ctx.span, "outcome", outcome_label);
            trace.add_attr(dl.ctx.span, "bytes_edge", dl.edge_bytes as u64);
            trace.add_attr(dl.ctx.span, "bytes_peers", bytes_peers as u64);
            trace.add_attr(dl.ctx.span, "initial_peers", dl.initial_peers as u64);
            trace.add_attr(dl.ctx.span, "requeries", dl.requeries as u64);
            trace.end_span(dl.ctx.span, ended.as_micros());

            // Cache + registration on completion.
            if outcome == DownloadOutcome::Completed {
                let ttl = SimDuration::from_hours(scenario.config.transfer.cache_ttl_hours as u64);
                let i = dl.peer as usize;
                peers.cached[i].insert(dl.object, (dl.version, ended + ttl));
                // A control-disconnected peer cannot reach the DN to register;
                // its paced readmission re-registers the whole cache (this
                // object included) when it fires.
                if peers.uploads_enabled[i] && dl.p2p && peers.control_connected[i] {
                    scenario.plane.register_content(
                        peers.logged_region[i],
                        peers.record(spec),
                        dl.version,
                    );
                }
            }

            // Download record + usage report.
            let record = DownloadRecord {
                guid: spec.guid,
                object: dl.object,
                cp: scenario.catalog.get(dl.object).cp,
                size: ByteCount(dl.size as u64),
                p2p_enabled: dl.p2p,
                started: dl.started,
                ended,
                bytes_infra: ByteCount(dl.edge_bytes as u64),
                bytes_peers: ByteCount(bytes_peers as u64),
                outcome,
                initial_peers: dl.initial_peers,
                asn: spec.asn,
                country: spec.country as u16,
                region: spec.region().index() as u8,
            };
            scenario
                .plane
                .accept_usage(dl.region, vec![record_to_usage(&record)]);
            self.dataset.downloads.push(record);

            peers.active_download[dl.peer as usize] = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsession_core::id::{Guid, ObjectId};
    use netsession_core::msg::AuthToken;
    use netsession_obs::TraceCtx;

    #[test]
    fn crossed_failure_threshold_fires_at_step_boundary() {
        // Regression: a failure whose byte threshold was already crossed in
        // a previous advance step used to compute a negative dt and never
        // fire, letting the download survive forever.
        let mut net = FlowNet::new();
        let src = net.add_node(Bandwidth::from_mbps(8.0), Bandwidth::from_mbps(8.0));
        let dst = net.add_node(Bandwidth::from_mbps(8.0), Bandwidth::from_mbps(8.0));
        let flow = net.add_flow(src, dst, None);
        net.recompute();
        assert!(net.rate(flow).bytes_per_sec() > 0.0);
        let version = VersionId {
            object: ObjectId::from_raw(1),
            version: 1,
        };
        let mut dl = Dl {
            peer: 0,
            object: ObjectId::from_raw(1),
            version,
            size: 1e9,
            p2p: false,
            cap: None,
            started: SimTime::ZERO,
            token: AuthToken {
                guid: Guid::from_raw(1),
                version,
                expires: SimTime(u64::MAX),
                mac: netsession_core::hash::Digest::zero(),
            },
            edge_flow: Some(flow),
            edge_bytes: 500_000.0, // already past the threshold below
            sources: Vec::new(),
            finished_sources: Vec::new(),
            initial_peers: 0,
            abort_at: None,
            env_fail_at_bytes: Some(400_000.0),
            sys_fail_at_bytes: None,
            requeries: 0,
            region: 0,
            finished: None,
            ctx: TraceCtx::NONE,
            edge_span: SpanId::NONE,
        };
        let from = SimTime::ZERO + SimDuration::from_secs(40);
        let to = from + SimDuration::from_secs(20);
        dl.advance(&net, from, to, &mut Vec::new());
        let (at, outcome) = dl.finished.expect("crossed threshold must fire");
        assert_eq!(
            outcome,
            DownloadOutcome::Failed {
                system_related: false
            }
        );
        assert_eq!(at, from, "fires at the step boundary, accruing no bytes");
        assert!((dl.done_bytes() - 500_000.0).abs() < 1e-6);
    }
}
