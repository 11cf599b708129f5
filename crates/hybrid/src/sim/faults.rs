//! §3.8 fault injection and recovery: the four scheduled fault classes and
//! the paced events that undo them (`Readmit`, `ReAdd`, `EdgeRecover`).
//! Every fault roots an always-sampled trace span whose end covers its
//! recovery wave, and counts under `hybrid.fault.*` — counters that exist
//! only once a fault fires, which is what keeps a fault-free run's alert
//! log empty.

use super::{Event, Run};
use crate::config::FaultKind;
use netsession_core::time::{SimDuration, SimTime};
use netsession_obs::SpanId;
use netsession_sim::queue::EventSched;

impl<S: EventSched<Event>> Run<S> {
    /// `Event::Fault`: inject `faults.events[i]`.
    pub(super) fn on_fault(&mut self, i: u32, t: SimTime) {
        // Faults mutate the flow set; settle transfers first.
        self.settle(t);
        let kind = self.scenario.config.faults.events[i as usize].kind;
        self.metrics.counter("hybrid.fault.injected").incr();
        self.metrics
            .record_event_with(t.as_micros(), "hybrid", "fault", || format!("{kind:?}"));
        match kind {
            FaultKind::CnCrash { region } => self.cn_crash(region, t),
            FaultKind::DnWipe { region } => self.dn_wipe(region, t),
            FaultKind::EdgeOutage { region, secs } => self.edge_outage(region, secs, t),
            FaultKind::ChurnBurst { fraction } => self.churn_burst(fraction, t),
        }
        self.reap();
        self.net.recompute_dirty();
    }

    /// The region's CN drops every control connection; each online peer
    /// gets a paced `Readmit` and runs edge-only until it fires.
    fn cn_crash(&mut self, region: u32, t: SimTime) {
        self.metrics.counter("hybrid.fault.cn_crashes").incr();
        let span = self.fault_span("fault_cn_crash", t);
        self.trace.add_attr(span, "region", region as u64);
        let mut dropped = 0u64;
        let mut last = t;
        for (guid, at) in self.scenario.plane.fail_cn(region, t) {
            let Some(&p) = self.guid_owner.get(&guid) else {
                continue;
            };
            if !self.peers.online[p as usize] {
                continue;
            }
            self.peers.control_connected[p as usize] = false;
            self.queue.schedule(at, Event::Readmit(p));
            dropped += 1;
            last = last.max(at);
        }
        self.metrics
            .counter("hybrid.fault.peers_disconnected")
            .add(dropped);
        self.trace.add_attr(span, "dropped", dropped);
        // Span covers the paced reconnect wave (§3.8 "smooth recovery").
        self.trace.end_span(span, last.as_micros());
    }

    /// The region's DN loses its soft state; every connected uploader is
    /// asked to RE-ADD, the responses paced by the recovery limiter.
    fn dn_wipe(&mut self, region: u32, t: SimTime) {
        self.metrics.counter("hybrid.fault.dn_wipes").incr();
        let span = self.fault_span("fault_dn_wipe", t);
        self.trace.add_attr(span, "region", region as u64);
        let mut asked = 0u64;
        let mut last = t;
        for guid in self.scenario.plane.fail_dn(region) {
            let Some(&p) = self.guid_owner.get(&guid) else {
                continue;
            };
            if !self.peers.online[p as usize] || !self.peers.uploads_enabled[p as usize] {
                continue;
            }
            let at = self.scenario.plane.pace_recovery(t);
            self.queue.schedule(at, Event::ReAdd(p));
            asked += 1;
            last = last.max(at);
        }
        self.trace.add_attr(span, "readds_requested", asked);
        self.trace.end_span(span, last.as_micros());
    }

    /// The region's edge servers go dark for `secs`: active backstop flows
    /// are cut, and `EdgeRecover` re-attaches them when the outage ends.
    fn edge_outage(&mut self, region: u32, secs: u64, t: SimTime) {
        self.metrics.counter("hybrid.fault.edge_outages").incr();
        let span = self.fault_span("fault_edge_outage", t);
        self.trace.add_attr(span, "region", region as u64);
        self.trace.add_attr(span, "secs", secs);
        self.edge_down[region as usize] = true;
        let mut cut = 0u64;
        for &id in &self.active {
            let dl = &mut self.dls[id];
            if dl.region != region || dl.finished.is_some() {
                continue;
            }
            if let Some(f) = dl.edge_flow.take() {
                self.net.set_trace_scope(dl.ctx, t.as_micros());
                self.net.remove_flow(f);
                self.net.clear_trace_scope();
                self.trace
                    .add_attr(dl.edge_span, "bytes_at_cut", dl.edge_bytes as u64);
                self.trace
                    .add_attr(dl.edge_span, "end_reason", "edge_outage");
                self.trace.end_span(dl.edge_span, t.as_micros());
                dl.edge_span = SpanId::NONE;
                cut += 1;
            }
        }
        self.metrics.counter("hybrid.fault.edge_flows_cut").add(cut);
        self.trace.add_attr(span, "flows_cut", cut);
        let until = t + SimDuration::from_secs(secs);
        self.trace.end_span(span, until.as_micros());
        self.queue.schedule(until, Event::EdgeRecover(region));
    }

    /// Each online peer without an active download departs abruptly with
    /// probability `fraction`.
    fn churn_burst(&mut self, fraction: f64, t: SimTime) {
        self.metrics.counter("hybrid.fault.churn_bursts").incr();
        let span = self.fault_span("fault_churn_burst", t);
        let mut gone = 0u64;
        for p in 0..self.peers.len() {
            if !self.peers.online[p] || self.peers.active_download[p].is_some() {
                continue;
            }
            if !self.churn_rng.chance(fraction) {
                continue;
            }
            self.peer_offline(p as u32, t);
            gone += 1;
        }
        self.metrics.counter("hybrid.fault.churn_offline").add(gone);
        self.trace.add_attr(span, "peers_offline", gone);
        self.trace.end_span(span, t.as_micros());
    }

    /// Root an always-sampled `fault`-category trace for one injection.
    fn fault_span(&self, name: &'static str, t: SimTime) -> SpanId {
        self.trace
            .start_trace_always(name, "fault", t.as_micros())
            .span
    }

    /// `Event::Readmit`: paced readmission after a CN crash (§3.8). The
    /// peer opens a fresh control connection and — fate-sharing —
    /// re-registers its cached content, repopulating the directories.
    /// Skipped if the peer logged out while waiting (its next login
    /// reconnects anyway) or already holds a fresh session.
    pub(super) fn on_readmit(&mut self, p: u32, t: SimTime) {
        let i = p as usize;
        if !self.peers.online[i] || self.peers.control_connected[i] {
            return;
        }
        self.connect_control(p, vec![], t);
        self.metrics.counter("hybrid.fault.readmissions").incr();
        if self.peers.uploads_enabled[i] {
            let versions = self.register_cache(p, t);
            self.metrics
                .counter("hybrid.fault.reregistered_versions")
                .add(versions);
        }
    }

    /// `Event::ReAdd`: paced RE-ADD response after a DN soft-state wipe
    /// (§3.8). The peer's control connection survived, so it answers the
    /// directory's RE-ADD request with its cached versions.
    pub(super) fn on_readd(&mut self, p: u32, t: SimTime) {
        let i = p as usize;
        if !self.peers.online[i]
            || !self.peers.control_connected[i]
            || !self.peers.uploads_enabled[i]
        {
            return;
        }
        let versions = self.peers.cached_versions(i, t);
        if versions.is_empty() {
            return;
        }
        let record = self.peers.record(&self.scenario.population.peers[i]);
        self.scenario
            .plane
            .handle_readd(self.peers.logged_region[i], record, &versions);
        self.metrics.counter("hybrid.fault.readds").incr();
        self.metrics
            .counter("hybrid.fault.readd_versions")
            .add(versions.len() as u64);
    }

    /// `Event::EdgeRecover`: the region's edge outage ends; downloads that
    /// lost (or never got) their backstop flow re-attach.
    pub(super) fn on_edge_recover(&mut self, region: u32, t: SimTime) {
        self.settle(t);
        self.edge_down[region as usize] = false;
        let mut restored = 0u64;
        if self.scenario.config.edge_backstop {
            for k in 0..self.active.len() {
                let id = self.active[k];
                let dl = &self.dls[id];
                if dl.region != region || dl.finished.is_some() || dl.edge_flow.is_some() {
                    continue;
                }
                self.net.set_trace_scope(dl.ctx, t.as_micros());
                self.attach_edge(id, t);
                self.net.clear_trace_scope();
                self.trace
                    .add_attr(self.dls[id].edge_span, "restored", true);
                restored += 1;
            }
        }
        self.metrics
            .counter("hybrid.fault.edge_flows_restored")
            .add(restored);
        self.metrics
            .record_event_with(t.as_micros(), "hybrid", "edge_recover", || {
                format!("region {region}: {restored} backstop flows re-attached")
            });
        self.net.recompute_dirty();
    }
}
