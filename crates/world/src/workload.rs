//! Request workload generation.
//!
//! Produces the month of download requests the simulation replays:
//! customers chosen by download share, objects by Zipf popularity (Fig 3b),
//! requesting peers by the customer's Table-2 regional mix, and request
//! times following the "usual diurnal patterns" of Fig 3c — pronounced in
//! local time, blurred in GMT because the population spans every timezone.

use crate::catalog::Catalog;
use crate::customers::CUSTOMERS;
use crate::population::Population;
use netsession_core::id::{ObjectId, PeerIndex};
use netsession_core::rng::DetRng;
use netsession_core::time::{SimDuration, SimTime, TRACE_MONTH};

/// Relative request intensity per *local* hour of day: evening peak,
/// night trough.
pub const DIURNAL_WEIGHTS: [f64; 24] = [
    0.45, 0.32, 0.24, 0.20, 0.20, 0.26, 0.38, 0.55, 0.72, 0.85, 0.95, 1.00, 1.02, 1.00, 0.98, 1.00,
    1.08, 1.22, 1.42, 1.60, 1.68, 1.55, 1.18, 0.72,
];

/// One download request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Request {
    /// When the download is initiated (GMT).
    pub at: SimTime,
    /// The requesting peer.
    pub peer: PeerIndex,
    /// The requested object.
    pub object: ObjectId,
}

/// Workload parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadConfig {
    /// Total downloads to generate over the trace month.
    pub downloads: usize,
    /// Mild weekend boost (1.0 = none).
    pub weekend_factor: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            downloads: 60_000,
            weekend_factor: 1.15,
        }
    }
}

/// The generated request trace, sorted by time.
pub struct Workload {
    /// Time-ordered requests.
    pub requests: Vec<Request>,
}

impl Workload {
    /// Generate the month's requests.
    pub fn generate(
        cfg: &WorkloadConfig,
        population: &Population,
        catalog: &Catalog,
        rng: &mut DetRng,
    ) -> Workload {
        let customer_weights: Vec<f64> = CUSTOMERS.iter().map(|c| c.download_share).collect();
        let days = TRACE_MONTH.as_micros() / 86_400_000_000;
        let day_weights: Vec<f64> = (0..days)
            .map(|d| {
                // Our synthetic month starts on a Monday; days 5,6 of each
                // week are the weekend.
                if d % 7 >= 5 {
                    cfg.weekend_factor
                } else {
                    1.0
                }
            })
            .collect();

        let mut requests = Vec::with_capacity(cfg.downloads);
        for _ in 0..cfg.downloads {
            let customer = rng.weighted_index(&customer_weights);
            let object = catalog.sample_object(customer, rng);
            let region_idx = rng.weighted_index(&CUSTOMERS[customer].region_mix);
            let region = crate::geo::Region::ALL[region_idx];
            let peer_idx = population.sample_in_region(region, rng);
            let peer = population.peer(peer_idx);

            // Time: weekday by weight, then a local hour drawn from the
            // diurnal curve restricted to the user's online window.
            let day = rng.weighted_index(&day_weights) as u64;
            let local_hour = sample_local_hour(peer.online_start_hour, peer.online_hours, rng);
            // Convert local to GMT.
            let gmt_hour = local_hour - peer.tz_offset as f64;
            let micros_in_day = (gmt_hour.rem_euclid(24.0) * 3.6e9) as u64;
            let at = SimTime::ZERO + SimDuration::from_days(day) + SimDuration(micros_in_day);

            requests.push(Request {
                at,
                peer: peer_idx,
                object: object.id,
            });
        }
        requests.sort_by_key(|r| r.at);
        Workload { requests }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

/// Draw a local hour from the diurnal distribution restricted (softly) to
/// the user's online window: rejection-sample the curve, fall back to
/// uniform-in-window.
fn sample_local_hour(start: f64, len: f64, rng: &mut DetRng) -> f64 {
    let in_window = |h: f64| {
        let end = start + len;
        if end <= 24.0 {
            h >= start && h < end
        } else {
            h >= start || h < end - 24.0
        }
    };
    for _ in 0..12 {
        let h = rng.weighted_index(&DIURNAL_WEIGHTS) as f64 + rng.f64();
        if in_window(h) {
            return h;
        }
    }
    (start + rng.f64() * len).rem_euclid(24.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{Population, PopulationConfig};

    fn fixture() -> (Population, Catalog, Workload) {
        let mut rng = DetRng::seeded(31);
        let pop = Population::generate(
            &PopulationConfig {
                peers: 8000,
                ases: 300,
                ..PopulationConfig::default()
            },
            &mut rng,
        );
        let catalog = Catalog::generate(2000, &mut rng);
        let wl = Workload::generate(
            &WorkloadConfig {
                downloads: 20_000,
                ..WorkloadConfig::default()
            },
            &pop,
            &catalog,
            &mut rng,
        );
        (pop, catalog, wl)
    }

    #[test]
    fn generates_sorted_requests_within_month() {
        let (_, _, wl) = fixture();
        assert_eq!(wl.len(), 20_000);
        let mut prev = SimTime::ZERO;
        for r in &wl.requests {
            assert!(r.at >= prev);
            assert!(r.at.as_micros() < TRACE_MONTH.as_micros());
            prev = r.at;
        }
    }

    /// Fig 3c: pronounced diurnal variation in local time.
    #[test]
    fn local_time_diurnal_peak_and_trough() {
        let (pop, _, wl) = fixture();
        let mut by_local_hour = [0usize; 24];
        for r in &wl.requests {
            let tz = pop.peer(r.peer).tz_offset;
            by_local_hour[r.at.hour_of_day_local(tz) as usize] += 1;
        }
        let evening: usize = (18..23).map(|h| by_local_hour[h]).sum();
        let night: usize = (1..6).map(|h| by_local_hour[h]).sum();
        assert!(
            evening > night * 3,
            "evening {evening} vs night {night}: no diurnal pattern"
        );
    }

    /// The GMT curve must be flatter than the local curve (tz spread).
    #[test]
    fn gmt_curve_is_flatter_than_local() {
        let (pop, _, wl) = fixture();
        let mut local = [0f64; 24];
        let mut gmt = [0f64; 24];
        for r in &wl.requests {
            let tz = pop.peer(r.peer).tz_offset;
            local[r.at.hour_of_day_local(tz) as usize] += 1.0;
            gmt[r.at.hour_of_day_gmt() as usize] += 1.0;
        }
        let spread = |v: &[f64; 24]| {
            let max = v.iter().cloned().fold(0.0, f64::max);
            let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
            max / min.max(1.0)
        };
        assert!(
            spread(&local) > spread(&gmt),
            "local spread {} should exceed gmt spread {}",
            spread(&local),
            spread(&gmt)
        );
    }

    /// Requests must respect the customers' regional mixes: customer F is
    /// Europe-only.
    #[test]
    fn regional_mix_respected_for_customer_f() {
        let (pop, catalog, wl) = fixture();
        let f_cp = crate::customers::customer_by_name("F").unwrap().cp;
        let mut total = 0;
        let mut in_europe = 0;
        for r in &wl.requests {
            if catalog.get(r.object).cp == f_cp {
                total += 1;
                if pop.peer(r.peer).region() == crate::geo::Region::Europe {
                    in_europe += 1;
                }
            }
        }
        assert!(total > 50, "customer F got only {total} requests");
        assert_eq!(in_europe, total, "customer F must be Europe-only");
    }

    /// Requesters should usually be online at request time (the workload
    /// samples inside the online window).
    #[test]
    fn requesters_are_online_at_request_time() {
        let (pop, _, wl) = fixture();
        let online = wl
            .requests
            .iter()
            .filter(|r| pop.peer(r.peer).online_at(r.at))
            .count();
        let frac = online as f64 / wl.len() as f64;
        assert!(frac > 0.85, "only {frac:.2} of requests in online windows");
    }

    #[test]
    fn determinism() {
        let mut r1 = DetRng::seeded(1);
        let mut r2 = DetRng::seeded(1);
        let cfg = PopulationConfig {
            peers: 1000,
            ases: 80,
            ..PopulationConfig::default()
        };
        let p1 = Population::generate(&cfg, &mut r1);
        let p2 = Population::generate(&cfg, &mut r2);
        let c1 = Catalog::generate(300, &mut r1);
        let c2 = Catalog::generate(300, &mut r2);
        let w = WorkloadConfig {
            downloads: 500,
            ..WorkloadConfig::default()
        };
        let w1 = Workload::generate(&w, &p1, &c1, &mut r1);
        let w2 = Workload::generate(&w, &p2, &c2, &mut r2);
        assert_eq!(w1.requests, w2.requests);
    }
}
