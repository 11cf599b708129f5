//! Scenario configuration.
//!
//! One [`ScenarioConfig`] fully determines a simulated month (given the
//! seed): the population and catalog scale, the control-plane policy, and
//! the ablation switches the DESIGN.md experiment index calls out.

use netsession_core::policy::TransferConfig;
use netsession_core::time::TRACE_MONTH;
use netsession_world::geo::Region;
use netsession_world::population::PopulationConfig;
use netsession_world::workload::WorkloadConfig;

/// One kind of injected infrastructure failure (§3.8 robustness scenarios).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// A region's Connection Node crashes: every control connection in the
    /// region drops and the dropped peers reconnect through the
    /// rate-limited readmission pacing ("reconnections are rate-limited to
    /// ensure a smooth recovery"). While disconnected, a peer cannot query
    /// for sources and downloads degrade to edge-only.
    CnCrash {
        /// Region index (dense [`Region::ALL`] order).
        region: u32,
    },
    /// A region's Directory Node loses its soft state. Connected peers are
    /// asked to RE-ADD their cached content; responses are paced through
    /// the same recovery limiter (fate-sharing, §3.8).
    DnWipe {
        /// Region index.
        region: u32,
    },
    /// The region's edge servers go dark for a window: active backstop
    /// flows are cut and new downloads in the region run peer-only until
    /// the outage ends, when backstops re-attach.
    EdgeOutage {
        /// Region index.
        region: u32,
        /// Outage duration in seconds.
        secs: u64,
    },
    /// A burst of abrupt peer departures: each online peer without an
    /// active download goes offline with this probability (upload flows it
    /// sourced are dropped, stressing re-query and edge fallback).
    ChurnBurst {
        /// Departure probability in `(0, 1]`.
        fraction: f64,
    },
}

/// A scheduled fault: *what* fails and *when*.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Hours from the start of the simulated month.
    pub at_hours: u64,
    /// The failure to inject.
    pub kind: FaultKind,
}

/// Deterministic fault-injection schedule. Part of [`ScenarioConfig`], so
/// a chaos campaign is replayable from `(seed, schedule)` alone. Empty by
/// default — a schedule-free run is byte-identical to one before this
/// subsystem existed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    /// Faults to inject, in any order (the event queue sorts by time).
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// True if no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scaled runner's standard chaos campaign: all four fault
    /// classes spread over a `days`-long run — one [`FaultKind::CnCrash`],
    /// [`FaultKind::DnWipe`], and two-hour [`FaultKind::EdgeOutage`] per
    /// region (nine regions each, in dense region order), plus a heavy
    /// and a light fleet-wide [`FaultKind::ChurnBurst`]. Injection times
    /// divide the horizon into 40 even slots, so the same campaign shape
    /// scales from a smoke run to the paper-scale month. Deterministic:
    /// a pure function of `days`.
    pub fn scaled_campaign(days: u64) -> FaultSchedule {
        let horizon = days * 24;
        let h = |slot: u64| (horizon * (slot + 1) / 40).max(1);
        let mut events = Vec::new();
        for region in 0..9u32 {
            events.push(FaultEvent {
                at_hours: h(region as u64),
                kind: FaultKind::CnCrash { region },
            });
            events.push(FaultEvent {
                at_hours: h(9 + region as u64),
                kind: FaultKind::DnWipe { region },
            });
            events.push(FaultEvent {
                at_hours: h(18 + region as u64),
                kind: FaultKind::EdgeOutage {
                    region,
                    secs: 7_200,
                },
            });
        }
        events.push(FaultEvent {
            at_hours: h(28),
            kind: FaultKind::ChurnBurst { fraction: 0.3 },
        });
        events.push(FaultEvent {
            at_hours: h(33),
            kind: FaultKind::ChurnBurst { fraction: 0.15 },
        });
        FaultSchedule { events }
    }
}

/// Observability knobs. These configure what gets *recorded* — download
/// trace sampling — and, by the passive-design rule, can never change
/// simulated behaviour: a same-seed run produces identical experiment
/// output at any setting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// Trace one download in this many (1 = trace everything). Sampling
    /// is deterministic — the k-th download start is sampled iff
    /// `(k - 1) % trace_sample_every == 0`.
    pub trace_sample_every: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            // At the default 40 k-download scale this keeps ~40 traced
            // downloads per run — rich enough to drill into, small
            // enough that committed `.trace.json` artifacts stay well
            // under the 1 MiB repo lint.
            trace_sample_every: 1024,
        }
    }
}

/// Everything one simulation run needs.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioConfig {
    /// Master seed; every random stream derives from it.
    pub seed: u64,
    /// Population parameters.
    pub population: PopulationConfig,
    /// Catalog size (objects).
    pub objects: usize,
    /// Workload parameters.
    pub workload: WorkloadConfig,
    /// Client transfer configuration.
    pub transfer: TransferConfig,
    /// Peers the control plane returns per query (paper default 40).
    pub peers_returned: usize,
    /// Locality-aware selection (ablation A1 sets this false).
    pub locality_aware: bool,
    /// Edge backstop available (ablation A2 sets this false: pure p2p).
    pub edge_backstop: bool,
    /// Per-object upload cap (ablation A3 sets this `None`).
    pub per_object_upload_cap: Option<u32>,
    /// Override the uploads-enabled fraction: `Some(f)` forces every peer
    /// to enable uploads with probability `f` regardless of its provider
    /// default (ablation A5). `None` keeps the Table-4 defaults.
    pub enable_fraction_override: Option<f64>,
    /// Probability a peer logs in on a day it is scheduled to be online
    /// (§4.2: 8.75–10.9 M of ~26 M GUIDs connect on a typical day).
    pub daily_login_prob: f64,
    /// Fraction of each day a *session-mode* client is available compared
    /// to the background-mode client (ablation A6 models launch-on-demand
    /// clients by shrinking availability to this factor; 1.0 = §3.4's
    /// persistent background behaviour).
    pub session_mode_factor: f64,
    /// Scheduled infrastructure faults (§3.8 chaos campaign). Empty by
    /// default.
    pub faults: FaultSchedule,
    /// Observability configuration (trace sampling).
    pub obs: ObsConfig,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 20121001,
            population: PopulationConfig {
                peers: 30_000,
                ases: 600,
                ..PopulationConfig::default()
            },
            objects: 4_000,
            workload: WorkloadConfig {
                downloads: 40_000,
                ..WorkloadConfig::default()
            },
            transfer: TransferConfig::default(),
            peers_returned: 40,
            locality_aware: true,
            edge_backstop: true,
            per_object_upload_cap: Some(netsession_core::policy::DEFAULT_PER_OBJECT_UPLOAD_CAP),
            enable_fraction_override: None,
            daily_login_prob: 0.4,
            session_mode_factor: 1.0,
            faults: FaultSchedule::default(),
            obs: ObsConfig::default(),
        }
    }
}

impl ScenarioConfig {
    /// Sanity-check the configuration. Called by `Scenario::build`;
    /// asserts on values that would silently disable whole mechanisms
    /// (e.g. `sufficient_peer_connections == 0` once made the requery
    /// threshold collapse to zero under integer division).
    pub fn validate(&self) {
        assert!(
            self.transfer.sufficient_peer_connections >= 1,
            "transfer.sufficient_peer_connections must be >= 1 \
             (0 would disable re-queries entirely)"
        );
        assert!(
            self.transfer.max_download_connections >= 1,
            "transfer.max_download_connections must be >= 1"
        );
        assert!(
            self.population.peers > 0 && self.objects > 0,
            "population and catalog must be non-empty"
        );
        assert!(
            (0.0..=1.0).contains(&self.daily_login_prob),
            "daily_login_prob must be a probability"
        );
        assert!(
            self.obs.trace_sample_every >= 1,
            "obs.trace_sample_every must be >= 1 (sample every Nth download; \
             1 traces everything — 0 would divide by zero, not disable)"
        );
        let regions = Region::ALL.len() as u32;
        let month_hours = TRACE_MONTH.as_micros() / 3_600_000_000;
        for (i, f) in self.faults.events.iter().enumerate() {
            assert!(
                f.at_hours < month_hours,
                "faults.events[{i}]: at_hours {} is past the simulated month \
                 ({month_hours} h) — the fault would never fire",
                f.at_hours
            );
            match f.kind {
                FaultKind::CnCrash { region }
                | FaultKind::DnWipe { region }
                | FaultKind::EdgeOutage { region, .. } => {
                    assert!(
                        region < regions,
                        "faults.events[{i}]: region {region} out of range \
                         (deployment has {regions} regions)"
                    );
                }
                FaultKind::ChurnBurst { .. } => {}
            }
            if let FaultKind::EdgeOutage { secs, .. } = f.kind {
                assert!(
                    secs > 0,
                    "faults.events[{i}]: zero-length edge outage would be a no-op"
                );
            }
            if let FaultKind::ChurnBurst { fraction } = f.kind {
                assert!(
                    fraction > 0.0 && fraction <= 1.0,
                    "faults.events[{i}]: churn fraction must be in (0, 1], got {fraction}"
                );
            }
        }
    }

    /// A small configuration for fast tests.
    pub fn tiny() -> Self {
        ScenarioConfig {
            population: PopulationConfig {
                peers: 1_500,
                ases: 120,
                ..PopulationConfig::default()
            },
            objects: 300,
            workload: WorkloadConfig {
                downloads: 1_200,
                ..WorkloadConfig::default()
            },
            ..ScenarioConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_shaped() {
        let c = ScenarioConfig::default();
        assert_eq!(c.peers_returned, 40);
        assert!(c.locality_aware && c.edge_backstop);
        assert!(c.per_object_upload_cap.is_some());
        assert!(c.enable_fraction_override.is_none());
        assert!((0.3..0.5).contains(&c.daily_login_prob));
    }

    #[test]
    fn obs_defaults_are_bounded() {
        let c = ScenarioConfig::default();
        assert!(c.obs.trace_sample_every >= 1);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "trace_sample_every")]
    fn zero_sampling_rate_is_rejected() {
        let mut c = ScenarioConfig::tiny();
        c.obs.trace_sample_every = 0;
        c.validate();
    }

    #[test]
    fn empty_fault_schedule_is_default() {
        let c = ScenarioConfig::default();
        assert!(c.faults.is_empty());
        c.validate();
    }

    #[test]
    fn valid_fault_schedule_passes() {
        let mut c = ScenarioConfig::tiny();
        c.faults.events = vec![
            FaultEvent {
                at_hours: 100,
                kind: FaultKind::CnCrash { region: 0 },
            },
            FaultEvent {
                at_hours: 200,
                kind: FaultKind::DnWipe { region: 8 },
            },
            FaultEvent {
                at_hours: 300,
                kind: FaultKind::EdgeOutage {
                    region: 3,
                    secs: 3_600,
                },
            },
            FaultEvent {
                at_hours: 400,
                kind: FaultKind::ChurnBurst { fraction: 0.25 },
            },
        ];
        c.validate();
    }

    #[test]
    #[should_panic(expected = "region 9 out of range")]
    fn fault_region_out_of_range_is_rejected() {
        let mut c = ScenarioConfig::tiny();
        c.faults.events = vec![FaultEvent {
            at_hours: 1,
            kind: FaultKind::CnCrash { region: 9 },
        }];
        c.validate();
    }

    #[test]
    #[should_panic(expected = "past the simulated month")]
    fn fault_after_month_end_is_rejected() {
        let mut c = ScenarioConfig::tiny();
        c.faults.events = vec![FaultEvent {
            at_hours: 744,
            kind: FaultKind::ChurnBurst { fraction: 0.1 },
        }];
        c.validate();
    }

    #[test]
    #[should_panic(expected = "churn fraction")]
    fn churn_fraction_over_one_is_rejected() {
        let mut c = ScenarioConfig::tiny();
        c.faults.events = vec![FaultEvent {
            at_hours: 1,
            kind: FaultKind::ChurnBurst { fraction: 1.5 },
        }];
        c.validate();
    }

    #[test]
    fn tiny_is_smaller() {
        let t = ScenarioConfig::tiny();
        let d = ScenarioConfig::default();
        assert!(t.population.peers < d.population.peers);
        assert!(t.workload.downloads < d.workload.downloads);
    }
}
