//! Peer sessions: login at a mobility site, logout, and the control
//! connection both ends of §3.8 recovery re-open.

use super::transfer::update_edge_ceil;
use super::{Event, PeerTable, Run};
use netsession_control::directory::PeerRecord;
use netsession_control::selection::Querier;
use netsession_core::id::{SecondaryGuid, VersionId};
use netsession_core::msg::PeerAddr;
use netsession_core::time::SimTime;
use netsession_logs::geodb::GeoInfoRef;
use netsession_logs::records::LoginRecord;
use netsession_sim::queue::EventSched;
use netsession_world::geo::{region_of, WORLD_COUNTRIES};
use netsession_world::mobility::LoginSite;
use netsession_world::population::PeerSpec;

/// Client build every simulated peer reports at login.
const SOFTWARE_VERSION: u32 = 40_100;

impl PeerTable {
    /// The site `p` last logged in from.
    pub(super) fn login_site(&self, p: usize) -> &LoginSite {
        &self.mobility[p].sites[self.site[p]]
    }

    /// What the directories know `spec`'s peer by: its GUID and NAT class
    /// at its current login site, in the region it logged into.
    pub(super) fn record(&self, spec: &PeerSpec) -> PeerRecord {
        let p = spec.index.0 as usize;
        let site = self.login_site(p);
        PeerRecord {
            guid: spec.guid,
            addr: PeerAddr {
                ip: site.ip,
                port: 8443,
            },
            asn: site.asn,
            area: site.country as u16,
            zone: self.logged_region[p] as u8,
            nat: spec.nat,
        }
    }

    /// The same identity, as the asking side of a peer query.
    pub(super) fn querier(&self, spec: &PeerSpec) -> Querier {
        let r = self.record(spec);
        Querier {
            guid: r.guid,
            asn: r.asn,
            area: r.area,
            zone: r.zone,
            nat: r.nat,
        }
    }

    /// `p`'s cached versions that have not expired by `t`.
    pub(super) fn cached_versions(&self, p: usize, t: SimTime) -> Vec<VersionId> {
        self.cached[p]
            .values()
            .filter(|(_, expiry)| *expiry > t)
            .map(|(v, _)| *v)
            .collect()
    }
}

impl<S: EventSched<Event>> Run<S> {
    /// `Event::Online`, and the implicit login of a machine switched on to
    /// download: pick the login site, open the control connection, log the
    /// login, register shareable cache contents.
    pub(super) fn login(&mut self, p: u32, t: SimTime) {
        let i = p as usize;
        if self.peers.online[i] {
            return;
        }
        // Apply due preference changes.
        let pending = &mut self.peers.pending_pref_changes[i];
        let due = pending.iter().take_while(|(when, _)| *when <= t).count();
        if let Some((_, setting)) = pending.drain(..due).next_back() {
            self.peers.uploads_enabled[i] = setting;
        }
        // Pick the login site.
        let mobility = &self.peers.mobility[i];
        let site = mobility.sample_site(&mut self.run_rng);
        self.peers.site[i] = mobility.sites.iter().position(|s| s == site).unwrap_or(0);
        let country = &WORLD_COUNTRIES[site.country];
        let region = region_of(country, &country.cities[site.city]).index() as u32;
        self.peers.logged_region[i] = region;
        self.peers.online[i] = true;
        let spec = &self.scenario.population.peers[i];
        self.guid_owner.insert(spec.guid, p);

        let sguids = self.peers.identity[i].on_login(&mut self.run_rng);
        self.connect_control(p, sguids.clone(), t);
        let site = self.peers.login_site(i);
        self.dataset.geodb.record(
            site.ip,
            &GeoInfoRef {
                country_code: country.iso,
                city: country.cities[site.city].name,
                lat: site.lat,
                lon: site.lon,
                tz_offset: country.tz_offset,
                asn: site.asn,
                country_idx: site.country as u16,
                region_idx: region as u8,
            },
        );
        self.dataset.logins.push(LoginRecord {
            at: t,
            guid: self.scenario.population.peers[i].guid,
            ip: site.ip,
            asn: site.asn,
            country: site.country as u16,
            lat: site.lat,
            lon: site.lon,
            uploads_enabled: self.peers.uploads_enabled[i],
            software_version: SOFTWARE_VERSION,
            secondary_guids: sguids,
        });
        self.stats.logins += 1;
        if self.peers.uploads_enabled[i] {
            self.register_cache(p, t);
        }
    }

    /// Open `p`'s control connection to the CN of the region it logged
    /// into, from its current login site.
    pub(super) fn connect_control(&mut self, p: u32, sguids: Vec<SecondaryGuid>, t: SimTime) {
        let i = p as usize;
        self.peers.control_connected[i] = true;
        let spec = &self.scenario.population.peers[i];
        self.scenario.plane.login(
            self.peers.logged_region[i],
            spec.guid,
            PeerAddr {
                ip: self.peers.login_site(i).ip,
                port: 8443,
            },
            spec.nat,
            self.peers.uploads_enabled[i],
            SOFTWARE_VERSION,
            sguids,
            t,
        );
    }

    /// Register every unexpired cached version of `p` with its region's
    /// DN (fate-sharing: the directory is rebuilt from what peers hold).
    /// Returns how many versions were registered.
    pub(super) fn register_cache(&mut self, p: u32, t: SimTime) -> u64 {
        let i = p as usize;
        let region = self.peers.logged_region[i];
        let record = self.peers.record(&self.scenario.population.peers[i]);
        let versions = self.peers.cached_versions(i, t);
        for &v in &versions {
            self.scenario
                .plane
                .register_content(region, record.clone(), v);
        }
        versions.len() as u64
    }

    /// `Event::Offline`: the scheduled end of a peer's online session.
    pub(super) fn on_offline(&mut self, p: u32, t: SimTime) {
        self.settle(t);
        self.peer_offline(p, t);
        self.reap();
        self.net.recompute_dirty();
    }

    /// Take `p` offline: drop the upload flows it sources and log it out.
    pub(super) fn peer_offline(&mut self, p: u32, t: SimTime) {
        let i = p as usize;
        // A peer with an active download stays connected until it ends
        // (the user is waiting for it).
        if self.peers.active_download[i].is_some() || !self.peers.online[i] {
            return;
        }
        // Drop upload flows sourced here.
        if self.peers.active_uploads[i] > 0 {
            for &id in &self.active {
                let dl = &mut self.dls[id];
                let mut k = 0;
                let mut changed = false;
                self.net.set_trace_scope(dl.ctx, t.as_micros());
                while k < dl.sources.len() {
                    if dl.sources[k].peer == p {
                        let s = dl.sources.swap_remove(k);
                        self.net.remove_flow(s.flow);
                        self.trace.add_attr(s.span, "bytes", s.bytes as u64);
                        self.trace.add_attr(s.span, "end_reason", "source_offline");
                        self.trace.end_span(s.span, t.as_micros());
                        dl.finished_sources.push((s.peer, s.bytes));
                        self.peers.active_uploads[i] =
                            self.peers.active_uploads[i].saturating_sub(1);
                        changed = true;
                    } else {
                        k += 1;
                    }
                }
                self.net.clear_trace_scope();
                if changed {
                    let downlink = self.scenario.population.peers[dl.peer as usize].down;
                    update_edge_ceil(dl, downlink, &mut self.net);
                }
            }
        }
        let guid = self.scenario.population.peers[i].guid;
        self.scenario
            .plane
            .logout(self.peers.logged_region[i], guid);
        self.peers.online[i] = false;
        self.peers.control_connected[i] = false;
    }
}
