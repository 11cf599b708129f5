//! Peer population generator.
//!
//! Generates the installed base: each peer has an installation GUID, a
//! geographic home, an AS with an asymmetric access link, a NAT
//! classification, the provider whose binary it installed (which sets the
//! upload default, Table 4), and a diurnal online schedule. A small
//! fraction of installations are clones or re-images sharing a GUID
//! (§6.2); the [`crate::cloning`] module elaborates their login behaviour.

use crate::asn::AsModel;
use crate::customers::CUSTOMERS;
use crate::geo::{region_of, Region, WORLD_COUNTRIES};
use netsession_core::id::{AsNumber, Guid, PeerIndex};
use netsession_core::msg::NatType;
use netsession_core::rng::DetRng;
use netsession_core::units::Bandwidth;

/// 2012-era consumer NAT mix: most peers behind some cone NAT, a
/// substantial symmetric share, and a few unfirewalled or fully blocked.
pub const NAT_DISTRIBUTION: [(NatType, f64); 6] = [
    (NatType::Open, 0.08),
    (NatType::FullCone, 0.12),
    (NatType::RestrictedCone, 0.22),
    (NatType::PortRestricted, 0.38),
    (NatType::Symmetric, 0.14),
    (NatType::Blocked, 0.06),
];

/// One installed NetSession Interface instance.
#[derive(Clone, Debug)]
pub struct PeerSpec {
    /// Dense simulation index.
    pub index: PeerIndex,
    /// Installation GUID. Cloned installations share one (§6.2).
    pub guid: Guid,
    /// Index into [`CUSTOMERS`]: whose binary this user installed.
    pub customer: usize,
    /// Index into [`WORLD_COUNTRIES`].
    pub country: usize,
    /// Index into the country's city list.
    pub city: usize,
    /// Index into the [`AsModel`].
    pub as_index: usize,
    /// The AS number (redundant with `as_index`; kept for log records).
    pub asn: AsNumber,
    /// Current public IPv4 address.
    pub ip: u32,
    /// NAT classification (as STUN would determine it).
    pub nat: NatType,
    /// Downstream access capacity.
    pub down: Bandwidth,
    /// Upstream access capacity.
    pub up: Bandwidth,
    /// Whether content uploads are enabled (Table 3/4).
    pub uploads_enabled: bool,
    /// Local timezone (GMT offset hours).
    pub tz_offset: i32,
    /// Local hour the user's machine typically comes online.
    pub online_start_hour: f64,
    /// Hours per day the machine stays online.
    pub online_hours: f64,
    /// Clone group, if this installation shares its GUID with others.
    pub clone_group: Option<u32>,
}

impl PeerSpec {
    /// Geographic coordinates of the peer's home city.
    pub fn latlon(&self) -> (f64, f64) {
        let c = &WORLD_COUNTRIES[self.country].cities[self.city];
        (c.lat, c.lon)
    }

    /// Table-2 region of the peer.
    pub fn region(&self) -> Region {
        let country = &WORLD_COUNTRIES[self.country];
        region_of(country, &country.cities[self.city])
    }

    /// Whether the machine is typically online at simulated time `t`
    /// (diurnal window in local time).
    pub fn online_at(&self, t: netsession_core::time::SimTime) -> bool {
        let local = t.hour_of_day_local(self.tz_offset) as f64
            + (t.as_micros() % 3_600_000_000) as f64 / 3.6e9;
        let start = self.online_start_hour;
        let end = start + self.online_hours;
        if end <= 24.0 {
            local >= start && local < end
        } else {
            local >= start || local < end - 24.0
        }
    }
}

/// Generation parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct PopulationConfig {
    /// Number of peers to generate.
    pub peers: usize,
    /// Target number of ASes in the universe.
    pub ases: usize,
    /// Fraction of installations that belong to a clone group.
    pub clone_fraction: f64,
    /// Mean size of a clone group (≥ 2).
    pub clone_group_mean: f64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            peers: 50_000,
            ases: 800,
            clone_fraction: 0.008,
            clone_group_mean: 3.0,
        }
    }
}

/// The generated population plus its AS universe.
pub struct Population {
    /// All peers, indexed by [`PeerIndex`].
    pub peers: Vec<PeerSpec>,
    /// The AS universe.
    pub as_model: AsModel,
    /// Peer indices per Table-2 region (aligned with [`Region::ALL`]).
    pub by_region: Vec<Vec<u32>>,
}

impl Population {
    /// Generate a population.
    pub fn generate(cfg: &PopulationConfig, rng: &mut DetRng) -> Population {
        let mut as_rng = rng.split(1);
        let as_model = AsModel::generate(cfg.ases, &mut as_rng);

        let country_weights: Vec<f64> = WORLD_COUNTRIES.iter().map(|c| c.peer_weight).collect();
        let customer_weights: Vec<f64> = CUSTOMERS.iter().map(|c| c.install_share).collect();
        let nat_weights: Vec<f64> = NAT_DISTRIBUTION.iter().map(|(_, w)| *w).collect();

        let mut peers = Vec::with_capacity(cfg.peers);
        let mut by_region: Vec<Vec<u32>> = vec![Vec::new(); Region::ALL.len()];
        let mut host_counter: Vec<u16> = vec![0; as_model.len()];

        // Clone groups: decide sizes up front, then deal memberships.
        let mut clone_slots: Vec<u32> = Vec::new();
        let clone_installs = (cfg.peers as f64 * cfg.clone_fraction) as usize;
        let mut group = 0u32;
        while clone_slots.len() < clone_installs {
            let size = 2 + rng.exp(cfg.clone_group_mean - 2.0).round() as usize;
            for _ in 0..size.min(clone_installs + 8 - clone_slots.len()) {
                clone_slots.push(group);
            }
            group += 1;
        }
        let mut clone_guids: Vec<Guid> = (0..group).map(|_| Guid::random(rng)).collect();
        rng.shuffle(&mut clone_guids);

        for i in 0..cfg.peers {
            let country = rng.weighted_index(&country_weights);
            let cities = WORLD_COUNTRIES[country].cities;
            let city_weights: Vec<f64> = cities.iter().map(|c| c.weight).collect();
            let city = rng.weighted_index(&city_weights);
            let customer = rng.weighted_index(&customer_weights);
            let as_index = as_model.pick_for_country(country, rng);
            let (down, up) = as_model.sample_link(as_index, rng);
            let nat = NAT_DISTRIBUTION[rng.weighted_index(&nat_weights)].0;
            let uploads_enabled = rng.chance(CUSTOMERS[customer].upload_enabled_fraction);

            // Synthetic IP: AS index in the upper bits, host in the lower —
            // trivially invertible for the log pipeline.
            let host = host_counter[as_index];
            host_counter[as_index] = host.wrapping_add(1);
            let ip = ((as_index as u32 + 1) << 16) | host as u32;

            let clone_group = if i < clone_slots.len() {
                Some(clone_slots[i])
            } else {
                None
            };
            let guid = match clone_group {
                Some(g) => clone_guids[g as usize],
                None => Guid::random(rng),
            };

            let spec = PeerSpec {
                index: PeerIndex(i as u32),
                guid,
                customer,
                country,
                city,
                as_index,
                asn: as_model.specs()[as_index].asn,
                ip,
                nat,
                down,
                up,
                uploads_enabled,
                tz_offset: WORLD_COUNTRIES[country].tz_offset,
                online_start_hour: rng.range_f64(6.0, 12.0),
                online_hours: rng.range_f64(4.0, 18.0),
                clone_group,
            };
            by_region[spec.region().index()].push(i as u32);
            peers.push(spec);
        }

        Population {
            peers,
            as_model,
            by_region,
        }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// A peer by index.
    pub fn peer(&self, idx: PeerIndex) -> &PeerSpec {
        &self.peers[idx.idx()]
    }

    /// Sample a peer located in `region`; falls back to any peer if the
    /// region is unexpectedly empty at this scale.
    pub fn sample_in_region(&self, region: Region, rng: &mut DetRng) -> PeerIndex {
        let pool = &self.by_region[region.index()];
        if pool.is_empty() {
            return PeerIndex(rng.index(self.peers.len()) as u32);
        }
        PeerIndex(pool[rng.index(pool.len())])
    }

    /// Fraction of peers with uploads enabled (the §5.1 headline ~31 %).
    pub fn enabled_fraction(&self) -> f64 {
        self.peers.iter().filter(|p| p.uploads_enabled).count() as f64 / self.peers.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsession_core::time::{SimDuration, SimTime};
    use std::collections::HashMap;

    fn population() -> Population {
        let mut rng = DetRng::seeded(21);
        Population::generate(
            &PopulationConfig {
                peers: 20_000,
                ases: 400,
                ..PopulationConfig::default()
            },
            &mut rng,
        )
    }

    #[test]
    fn population_has_requested_size() {
        let p = population();
        assert_eq!(p.len(), 20_000);
    }

    /// §5.1: about 31 % of peers have uploads enabled.
    #[test]
    fn enabled_fraction_matches_paper() {
        let p = population();
        let f = p.enabled_fraction();
        assert!((0.26..0.37).contains(&f), "enabled fraction {f}");
    }

    /// §4.2 continental shares survive the sampling.
    #[test]
    fn regional_distribution_is_calibrated() {
        let p = population();
        let eu = p.by_region[Region::Europe.index()].len() as f64 / p.len() as f64;
        assert!((0.28..0.45).contains(&eu), "Europe share {eu}");
        for region in Region::ALL {
            assert!(
                !p.by_region[region.index()].is_empty(),
                "region {region:?} empty"
            );
        }
    }

    #[test]
    fn nat_mix_matches_distribution() {
        let p = population();
        let mut counts: HashMap<NatType, usize> = HashMap::new();
        for peer in &p.peers {
            *counts.entry(peer.nat).or_default() += 1;
        }
        for (nat, want) in NAT_DISTRIBUTION {
            let got = *counts.get(&nat).unwrap_or(&0) as f64 / p.len() as f64;
            assert!(
                (got - want).abs() < 0.02,
                "{nat:?}: got {got:.3}, want {want}"
            );
        }
    }

    #[test]
    fn links_are_asymmetric_on_average() {
        let p = population();
        let down: f64 = p.peers.iter().map(|x| x.down.as_mbps()).sum();
        let up: f64 = p.peers.iter().map(|x| x.up.as_mbps()).sum();
        assert!(down / up > 3.0, "asymmetry {:.2}", down / up);
    }

    #[test]
    fn clone_groups_share_guids() {
        let p = population();
        let mut groups: HashMap<u32, Vec<Guid>> = HashMap::new();
        for peer in &p.peers {
            if let Some(g) = peer.clone_group {
                groups.entry(g).or_default().push(peer.guid);
            }
        }
        assert!(!groups.is_empty(), "no clone groups at this scale");
        for (g, guids) in &groups {
            assert!(guids.len() >= 2, "group {g} has {}", guids.len());
            assert!(
                guids.iter().all(|x| *x == guids[0]),
                "group {g} does not share a GUID"
            );
        }
        // Cloned installs are rare.
        let cloned: usize = groups.values().map(|v| v.len()).sum();
        let frac = cloned as f64 / p.len() as f64;
        assert!((0.002..0.03).contains(&frac), "clone fraction {frac}");
    }

    #[test]
    fn non_clone_guids_are_unique() {
        let p = population();
        let mut seen = std::collections::HashSet::new();
        for peer in p.peers.iter().filter(|p| p.clone_group.is_none()) {
            assert!(seen.insert(peer.guid), "duplicate GUID outside clones");
        }
    }

    #[test]
    fn ips_encode_as_index() {
        let p = population();
        for peer in p.peers.iter().take(500) {
            assert_eq!((peer.ip >> 16) as usize - 1, peer.as_index);
        }
    }

    #[test]
    fn online_window_is_diurnal() {
        let p = population();
        let peer = &p.peers[0];
        // Over one simulated day, the peer must be online for roughly its
        // configured window length.
        let mut online_hours = 0.0;
        for h in 0..24 {
            let t = SimTime::ZERO + SimDuration::from_hours(h) + SimDuration::from_mins(30);
            if peer.online_at(t) {
                online_hours += 1.0;
            }
        }
        assert!(
            (online_hours - peer.online_hours).abs() <= 1.5,
            "online {online_hours}h vs configured {}h",
            peer.online_hours
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = PopulationConfig {
            peers: 2000,
            ases: 100,
            ..PopulationConfig::default()
        };
        let mut r1 = DetRng::seeded(5);
        let mut r2 = DetRng::seeded(5);
        let a = Population::generate(&cfg, &mut r1);
        let b = Population::generate(&cfg, &mut r2);
        for (x, y) in a.peers.iter().zip(&b.peers) {
            assert_eq!(x.guid, y.guid);
            assert_eq!(x.ip, y.ip);
            assert_eq!(x.nat, y.nat);
        }
    }
}
