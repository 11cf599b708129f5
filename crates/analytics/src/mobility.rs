//! §6.2 mobility analyses.
//!
//! "80.6 % of the GUIDs connected from a single AS, 13.4 % from two
//! different ASes, and 6 % from more than two… we computed for each GUID
//! the two geolocations that were farthest apart. We found that 77 %
//! remained within 10 km… on average, the control plane receives 20,922
//! new connections per minute."

use netsession_core::fxhash::FxHashMap;
use netsession_logs::TraceDataset;

/// Summary of the mobility analyses.
#[derive(Clone, Debug)]
pub struct MobilitySummary {
    /// GUIDs observed.
    pub guids: u64,
    /// Fraction connecting from exactly one AS.
    pub single_as: f64,
    /// Fraction from exactly two ASes.
    pub two_as: f64,
    /// Fraction from more than two.
    pub more_as: f64,
    /// Fraction whose farthest login pair is within 10 km.
    pub within_10km: f64,
    /// Mean new control-plane connections per minute.
    pub connections_per_minute: f64,
}

fn haversine_km(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    const R: f64 = 6371.0;
    let (la1, lo1, la2, lo2) = (
        lat1.to_radians(),
        lon1.to_radians(),
        lat2.to_radians(),
        lon2.to_radians(),
    );
    let dlat = la2 - la1;
    let dlon = lo2 - lo1;
    let a = (dlat / 2.0).sin().powi(2) + la1.cos() * la2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * R * a.sqrt().atan2((1.0 - a).sqrt())
}

/// One GUID's distinct ASes and distinct login locations. Both are few,
/// so small vectors beat nested sets.
#[derive(Default)]
struct Seen {
    ases: Vec<u32>,
    locs: Vec<(f64, f64)>,
}

/// Compute the §6.2 summary from login records.
pub fn summarize(ds: &TraceDataset) -> MobilitySummary {
    // Only counts leave this map, never its iteration order.
    let mut per_guid: FxHashMap<u128, Seen> = FxHashMap::default();
    let mut t_min = u64::MAX;
    let mut t_max = 0u64;
    for l in &ds.logins {
        let seen = per_guid.entry(l.guid.0).or_default();
        if !seen.ases.contains(&l.asn.0) {
            seen.ases.push(l.asn.0);
        }
        if !seen.locs.iter().any(|(a, b)| *a == l.lat && *b == l.lon) {
            seen.locs.push((l.lat, l.lon));
        }
        t_min = t_min.min(l.at.as_micros());
        t_max = t_max.max(l.at.as_micros());
    }
    let guids = per_guid.len() as u64;
    if guids == 0 {
        return MobilitySummary {
            guids: 0,
            single_as: 0.0,
            two_as: 0.0,
            more_as: 0.0,
            within_10km: 0.0,
            connections_per_minute: 0.0,
        };
    }
    let count = |pred: &dyn Fn(usize) -> bool| {
        per_guid.values().filter(|s| pred(s.ases.len())).count() as f64 / guids as f64
    };
    // Farthest pair per GUID (locations per GUID are few).
    let near = per_guid
        .values()
        .map(|s| &s.locs)
        .filter(|locs| {
            let mut max = 0.0f64;
            for i in 0..locs.len() {
                for j in (i + 1)..locs.len() {
                    max = max.max(haversine_km(locs[i].0, locs[i].1, locs[j].0, locs[j].1));
                }
            }
            max <= 10.0
        })
        .count() as f64
        / guids as f64;
    let minutes = ((t_max.saturating_sub(t_min)) as f64 / 60e6).max(1.0);
    MobilitySummary {
        guids,
        single_as: count(&|n| n == 1),
        two_as: count(&|n| n == 2),
        more_as: count(&|n| n > 2),
        within_10km: near,
        connections_per_minute: ds.logins.len() as f64 / minutes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsession_core::id::{AsNumber, Guid};
    use netsession_core::time::SimTime;
    use netsession_logs::records::LoginRecord;

    fn login(guid: u128, asn: u32, lat: f64, lon: f64, at: u64) -> LoginRecord {
        LoginRecord {
            at: SimTime(at),
            guid: Guid(guid),
            ip: 1,
            asn: AsNumber(asn),
            country: 0,
            lat,
            lon,
            uploads_enabled: true,
            software_version: 1,
            secondary_guids: vec![],
        }
    }

    #[test]
    fn as_mix_and_distance() {
        let mut ds = TraceDataset::default();
        // GUID 1: one AS, one place.
        ds.logins.push(login(1, 10, 40.0, -75.0, 0));
        ds.logins.push(login(1, 10, 40.0, -75.0, 60_000_000));
        // GUID 2: two ASes, far apart (Philadelphia → Barcelona).
        ds.logins.push(login(2, 10, 39.95, -75.16, 0));
        ds.logins.push(login(2, 20, 41.39, 2.17, 60_000_000));
        // GUID 3: three ASes, same city.
        ds.logins.push(login(3, 1, 52.52, 13.40, 0));
        ds.logins.push(login(3, 2, 52.52, 13.40, 1));
        ds.logins.push(login(3, 3, 52.52, 13.40, 2));
        let s = summarize(&ds);
        assert_eq!(s.guids, 3);
        assert!((s.single_as - 1.0 / 3.0).abs() < 1e-9);
        assert!((s.two_as - 1.0 / 3.0).abs() < 1e-9);
        assert!((s.more_as - 1.0 / 3.0).abs() < 1e-9);
        assert!((s.within_10km - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn connection_rate_uses_trace_span() {
        let mut ds = TraceDataset::default();
        for i in 0..120u64 {
            ds.logins.push(login(i as u128, 1, 0.0, 0.0, i * 1_000_000));
        }
        let s = summarize(&ds);
        // 120 logins over ~2 minutes.
        assert!((s.connections_per_minute - 60.0).abs() < 5.0);
    }

    #[test]
    fn empty_dataset() {
        let s = summarize(&TraceDataset::default());
        assert_eq!(s.guids, 0);
    }
}
