//! Declarative alerting over registry snapshots.
//!
//! The paper's operational story (§3.8): "download and upload performance
//! is constantly monitored, and automated alerts are in place to notify
//! network engineers in case of large-scale problems". This module is
//! that mechanism, generalized: an [`AlertEngine`] holds a set of
//! [`AlertRule`]s and is fed a time-stamped [`RegistrySnapshot`] at each
//! evaluation point. Rules come in three shapes:
//!
//! - **threshold** ([`RuleKind::GaugeAbove`] / [`RuleKind::GaugeBelow`]):
//!   a gauge breaches a bound and stays breached for the rule's window
//!   (`window_us == 0` fires on the first breached observation);
//! - **rate-of-change** ([`RuleKind::RateAbove`]): a counter increases by
//!   at least `delta` within the trailing window — e.g. a burst of
//!   §3.6 problem reports at the live monitor server;
//! - **absence** ([`RuleKind::Absent`]): a counter that should always be
//!   moving (heartbeats, scrape successes) shows no increase for a full
//!   window.
//!
//! The engine is deterministic by construction: evaluation depends only
//! on the observation timestamps and the snapshot values, never on wall
//! time, so the hybrid simulator can run the *same* engine over virtual
//! time and assert byte-identical alert logs across same-seed runs,
//! while the live monitor server feeds it wall-clock scrapes.
//!
//! Counter semantics follow Prometheus `increase()`: a counter observed
//! *below* its previous value is a process restart, and the new value
//! counts as growth from zero — a reset can therefore never fire a rate
//! rule by itself, only genuine increments can.

use crate::registry::RegistrySnapshot;
use std::collections::VecDeque;

/// What a rule watches for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleKind {
    /// Fires while the gauge is strictly above `limit` (threshold).
    GaugeAbove {
        /// Exclusive upper bound for healthy values.
        limit: i64,
    },
    /// Fires while the gauge is strictly below `limit` (threshold).
    GaugeBelow {
        /// Exclusive lower bound for healthy values.
        limit: i64,
    },
    /// Fires when the counter increases by at least `delta` within the
    /// trailing window (rate-of-change).
    RateAbove {
        /// Minimum increase that constitutes a burst.
        delta: u64,
    },
    /// Fires when the counter shows no increase for a full window
    /// (absence — heartbeats, liveness).
    Absent,
}

/// One declarative alert rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlertRule {
    /// Stable rule name; this is what raised/cleared events carry.
    pub name: String,
    /// Registry metric the rule evaluates (counter or gauge name).
    pub metric: String,
    /// The condition.
    pub kind: RuleKind,
    /// Evaluation window in microseconds. For gauge rules this is a
    /// *for*-duration (how long the breach must persist; 0 = fire at
    /// once); for rate and absence rules it is the measurement span and
    /// must be > 0.
    pub window_us: u64,
}

impl AlertRule {
    /// Convenience constructor.
    pub fn new(name: &str, metric: &str, kind: RuleKind, window_us: u64) -> AlertRule {
        AlertRule {
            name: name.to_string(),
            metric: metric.to_string(),
            kind,
            window_us,
        }
    }
}

/// A raise or clear transition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlertEvent {
    /// Observation timestamp (micros — virtual or wall, the feeder's
    /// choice) at which the transition happened.
    pub at_us: u64,
    /// Name of the rule that transitioned.
    pub rule: String,
    /// `true` = raised, `false` = cleared.
    pub raised: bool,
    /// Deterministic human-readable description.
    pub message: String,
}

/// Per-rule evaluation state.
#[derive(Debug, Default)]
struct RuleState {
    /// (t, reset-adjusted cumulative value) samples covering the window,
    /// plus one baseline sample at-or-before the window's left edge.
    samples: VecDeque<(u64, u64)>,
    /// Last raw counter value, for reset detection.
    last_raw: u64,
    /// Sum of raw values lost to resets; `base + raw` is monotone.
    base: u64,
    /// First observation where the gauge was breached, if currently so.
    breach_since: Option<u64>,
    /// Last observation at which the counter increased (absence rules).
    last_increase_at: Option<u64>,
    /// Whether the alert is currently raised.
    raised: bool,
}

/// Evaluates a rule set against a stream of snapshots. See the module
/// docs for semantics.
#[derive(Debug)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    states: Vec<RuleState>,
    log: Vec<AlertEvent>,
}

impl AlertEngine {
    /// Build an engine. Panics on rate/absence rules with a zero window
    /// (they could never measure an increase and would be silently
    /// inert — a configuration bug).
    pub fn new(rules: Vec<AlertRule>) -> AlertEngine {
        for r in &rules {
            if matches!(r.kind, RuleKind::RateAbove { .. } | RuleKind::Absent) {
                assert!(
                    r.window_us > 0,
                    "alert rule {:?}: rate/absence rules need window_us > 0",
                    r.name
                );
            }
        }
        let states = rules.iter().map(|_| RuleState::default()).collect();
        AlertEngine {
            rules,
            states,
            log: Vec::new(),
        }
    }

    /// The configured rules.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Names of currently raised alerts, in rule order.
    pub fn active(&self) -> Vec<&str> {
        self.rules
            .iter()
            .zip(&self.states)
            .filter(|(_, s)| s.raised)
            .map(|(r, _)| r.name.as_str())
            .collect()
    }

    /// Every raise/clear transition so far, in observation order.
    pub fn log(&self) -> &[AlertEvent] {
        &self.log
    }

    /// Feed one snapshot observed at `t_us` (must be non-decreasing
    /// across calls). Returns the transitions this observation caused;
    /// the same events are appended to [`AlertEngine::log`].
    pub fn observe(&mut self, t_us: u64, snap: &RegistrySnapshot) -> Vec<AlertEvent> {
        let mut out = Vec::new();
        for (rule, state) in self.rules.iter().zip(self.states.iter_mut()) {
            let transition = match rule.kind {
                RuleKind::GaugeAbove { limit } => {
                    let v = snap.gauge(&rule.metric);
                    eval_gauge(rule, state, t_us, v > limit, || {
                        format!("{} = {} above {}", rule.metric, v, limit)
                    })
                }
                RuleKind::GaugeBelow { limit } => {
                    let v = snap.gauge(&rule.metric);
                    eval_gauge(rule, state, t_us, v < limit, || {
                        format!("{} = {} below {}", rule.metric, v, limit)
                    })
                }
                RuleKind::RateAbove { delta } => {
                    let adj = state.advance_counter(snap.counter(&rule.metric));
                    state.samples.push_back((t_us, adj));
                    // Keep one baseline sample at-or-before the window's
                    // left edge; a predecessor is redundant only once its
                    // successor is strictly inside the horizon, so growth
                    // between same-timestamp observations is never lost.
                    let horizon = t_us.saturating_sub(rule.window_us);
                    while state.samples.len() >= 2 && state.samples[1].0 < horizon {
                        state.samples.pop_front();
                    }
                    let grew = adj - state.samples.front().map_or(adj, |s| s.1);
                    let breached = grew >= delta;
                    match (breached, state.raised) {
                        (true, false) => {
                            state.raised = true;
                            Some(format!(
                                "{} rose {} within {}s (limit {})",
                                rule.metric,
                                grew,
                                rule.window_us / 1_000_000,
                                delta
                            ))
                        }
                        (false, true) => {
                            state.raised = false;
                            Some(String::new())
                        }
                        _ => None,
                    }
                }
                RuleKind::Absent => {
                    let prev = state.samples.back().map(|s| s.1);
                    let adj = state.advance_counter(snap.counter(&rule.metric));
                    state.samples.clear();
                    state.samples.push_back((t_us, adj));
                    let increased = prev.is_some_and(|p| adj > p);
                    if increased || state.last_increase_at.is_none() {
                        state.last_increase_at = Some(t_us);
                    }
                    let silent_for = t_us - state.last_increase_at.unwrap_or(t_us);
                    let breached = !increased && silent_for >= rule.window_us;
                    match (breached, state.raised) {
                        (true, false) => {
                            state.raised = true;
                            Some(format!(
                                "{} silent for {}s (window {}s)",
                                rule.metric,
                                silent_for / 1_000_000,
                                rule.window_us / 1_000_000
                            ))
                        }
                        (false, true) => {
                            state.raised = false;
                            Some(String::new())
                        }
                        _ => None,
                    }
                }
            };
            if let Some(message) = transition {
                let raised = state.raised;
                let event = AlertEvent {
                    at_us: t_us,
                    rule: rule.name.clone(),
                    raised,
                    message: if raised {
                        message
                    } else {
                        format!("{} back within limits", rule.metric)
                    },
                };
                self.log.push(event.clone());
                out.push(event);
            }
        }
        out
    }
}

impl RuleState {
    /// Fold a raw counter observation into the monotone adjusted value,
    /// absorbing resets (raw dropping) as growth-from-zero.
    fn advance_counter(&mut self, raw: u64) -> u64 {
        if raw < self.last_raw {
            self.base += self.last_raw;
        }
        self.last_raw = raw;
        self.base + raw
    }
}

/// Shared gauge evaluation: breach must persist for the rule's window.
fn eval_gauge(
    rule: &AlertRule,
    state: &mut RuleState,
    t_us: u64,
    breached: bool,
    describe: impl FnOnce() -> String,
) -> Option<String> {
    if breached {
        let since = *state.breach_since.get_or_insert(t_us);
        if !state.raised && t_us - since >= rule.window_us {
            state.raised = true;
            return Some(describe());
        }
    } else {
        state.breach_since = None;
        if state.raised {
            state.raised = false;
            return Some(String::new());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    const SEC: u64 = 1_000_000;

    fn snap(f: impl FnOnce(&MetricsRegistry)) -> RegistrySnapshot {
        let reg = MetricsRegistry::new();
        f(&reg);
        reg.scrape()
    }

    /// Every rule kind evaluates against counters and gauges only. Hot
    /// scrape loops rely on this to refresh snapshots with
    /// `scrape_scalars_into` (histograms left stale); a rule kind that
    /// reads `snap.histograms` must revisit those call sites first.
    #[test]
    fn rules_read_only_scalar_instruments() {
        let mut reg_snap = snap(|r| {
            r.counter("c").add(7);
            r.gauge("g").set(3);
            r.histogram("h").record(1);
        });
        // Wipe the histograms: no rule kind may notice.
        reg_snap.histograms.clear();
        let rules = vec![
            AlertRule::new("a", "g", RuleKind::GaugeAbove { limit: 1 }, 0),
            AlertRule::new("b", "g", RuleKind::GaugeBelow { limit: 10 }, 0),
            AlertRule::new("c", "c", RuleKind::RateAbove { delta: 1 }, 60 * SEC),
            AlertRule::new("d", "c", RuleKind::Absent, 60 * SEC),
        ];
        let mut e = AlertEngine::new(rules);
        // All four evaluate without consulting histograms (the gauge rules
        // raise, proving they really ran).
        let ev = e.observe(SEC, &reg_snap);
        assert_eq!(ev.len(), 2);
    }

    #[test]
    fn rate_burst_raises_then_quiet_period_clears() {
        let mut e = AlertEngine::new(vec![AlertRule::new(
            "burst",
            "problems",
            RuleKind::RateAbove { delta: 10 },
            60 * SEC,
        )]);
        // 5 in the first minute: quiet.
        let ev = e.observe(30 * SEC, &snap(|r| r.counter("problems").add(5)));
        assert!(ev.is_empty());
        // 12 more within the window: burst.
        let ev = e.observe(60 * SEC, &snap(|r| r.counter("problems").add(17)));
        assert_eq!(ev.len(), 1);
        assert!(ev[0].raised);
        assert_eq!(e.active(), vec!["burst"]);
        // No growth for a full window: the burst rolls out and clears.
        let ev = e.observe(121 * SEC, &snap(|r| r.counter("problems").add(17)));
        assert_eq!(ev.len(), 1);
        assert!(!ev[0].raised);
        assert!(e.active().is_empty());
        assert_eq!(e.log().len(), 2);
    }

    #[test]
    fn first_observation_of_a_large_counter_does_not_fire() {
        // Attaching to a registry with pre-existing counts measures an
        // empty window, not a burst.
        let mut e = AlertEngine::new(vec![AlertRule::new(
            "burst",
            "problems",
            RuleKind::RateAbove { delta: 10 },
            60 * SEC,
        )]);
        let ev = e.observe(0, &snap(|r| r.counter("problems").add(1_000_000)));
        assert!(ev.is_empty());
        assert!(e.active().is_empty());
    }

    #[test]
    fn counter_reset_counts_as_growth_from_zero() {
        let mut e = AlertEngine::new(vec![AlertRule::new(
            "burst",
            "problems",
            RuleKind::RateAbove { delta: 10 },
            60 * SEC,
        )]);
        e.observe(0, &snap(|r| r.counter("problems").add(500)));
        // Process restart: the counter comes back small. 4 < 10: quiet.
        let ev = e.observe(30 * SEC, &snap(|r| r.counter("problems").add(4)));
        assert!(ev.is_empty());
        // Another restart, this time growing past the threshold on its own.
        let ev = e.observe(60 * SEC, &snap(|r| r.counter("problems").add(11)));
        assert_eq!(ev.len(), 1);
        assert!(ev[0].raised);
    }

    #[test]
    fn merged_fleet_snapshots_absorb_a_shard_restart() {
        // Fleet views are built with RegistrySnapshot::merge over per-shard
        // scrapes, windowed at the observation cadence. When one shard
        // restarts between windows the *merged* counter can drop; the
        // engine must fold that into growth-from-zero (Prometheus
        // `increase()`): the loss never counts negative, and only the
        // post-restart increments can contribute to a burst.
        let mut e = AlertEngine::new(vec![AlertRule::new(
            "burst",
            "dl",
            RuleKind::RateAbove { delta: 100 },
            60 * SEC,
        )]);
        // Window 1: shard A has 500, shard B has 40.
        let mut w1 = snap(|r| {
            r.counter("dl").add(500);
        });
        w1.merge(&snap(|r| {
            r.counter("dl").add(40);
        }));
        assert_eq!(w1.counter("dl"), 540);
        assert!(e.observe(60 * SEC, &w1).is_empty(), "baseline never fires");
        // Window 2: shard A restarted (3 since boot), B grew to 44. The
        // merged counter *drops* 540 → 47; only the 47 counts as growth.
        let mut w2 = snap(|r| {
            r.counter("dl").add(3);
        });
        w2.merge(&snap(|r| {
            r.counter("dl").add(44);
        }));
        assert!(
            e.observe(120 * SEC, &w2).is_empty(),
            "a restart must not fire the rate rule"
        );
        // Window 3: genuine burst on top of the restart: merged reaches
        // 170, so adjusted growth in the trailing window passes 100.
        let mut w3 = snap(|r| {
            r.counter("dl").add(80);
        });
        w3.merge(&snap(|r| {
            r.counter("dl").add(90);
        }));
        let ev = e.observe(180 * SEC, &w3);
        assert!(ev.len() == 1 && ev[0].raised, "{ev:?}");
    }

    #[test]
    fn gauge_threshold_with_for_window() {
        let mut e = AlertEngine::new(vec![AlertRule::new(
            "deep-queue",
            "depth",
            RuleKind::GaugeAbove { limit: 100 },
            10 * SEC,
        )]);
        assert!(e
            .observe(0, &snap(|r| r.gauge("depth").set(500)))
            .is_empty());
        // Breach persisted 10s: fire.
        let ev = e.observe(10 * SEC, &snap(|r| r.gauge("depth").set(300)));
        assert!(ev.len() == 1 && ev[0].raised);
        // Recovery clears immediately.
        let ev = e.observe(11 * SEC, &snap(|r| r.gauge("depth").set(3)));
        assert!(ev.len() == 1 && !ev[0].raised);
        // A blip shorter than the window never fires.
        e.observe(20 * SEC, &snap(|r| r.gauge("depth").set(300)));
        assert!(e
            .observe(21 * SEC, &snap(|r| r.gauge("depth").set(0)))
            .is_empty());
    }

    #[test]
    fn gauge_below_with_zero_window_fires_at_once() {
        let mut e = AlertEngine::new(vec![AlertRule::new(
            "target-down",
            "up",
            RuleKind::GaugeBelow { limit: 1 },
            0,
        )]);
        // Missing gauge reads as 0: below 1, immediate raise.
        let ev = e.observe(0, &RegistrySnapshot::default());
        assert!(ev.len() == 1 && ev[0].raised);
        let ev = e.observe(SEC, &snap(|r| r.gauge("up").set(1)));
        assert!(ev.len() == 1 && !ev[0].raised);
    }

    #[test]
    fn absence_fires_after_a_silent_window_and_clears_on_life() {
        let mut e = AlertEngine::new(vec![AlertRule::new(
            "no-heartbeat",
            "beats",
            RuleKind::Absent,
            30 * SEC,
        )]);
        e.observe(0, &snap(|r| r.counter("beats").add(1)));
        e.observe(10 * SEC, &snap(|r| r.counter("beats").add(2)));
        assert!(e.active().is_empty());
        // Silent for 30s from the last increase.
        let ev = e.observe(40 * SEC, &snap(|r| r.counter("beats").add(2)));
        assert!(ev.len() == 1 && ev[0].raised);
        let ev = e.observe(50 * SEC, &snap(|r| r.counter("beats").add(3)));
        assert!(ev.len() == 1 && !ev[0].raised);
    }

    #[test]
    fn observations_with_no_rules_matching_metric_read_zero() {
        let mut e = AlertEngine::new(vec![AlertRule::new(
            "ghost",
            "never.written",
            RuleKind::RateAbove { delta: 1 },
            60 * SEC,
        )]);
        for i in 0..100 {
            assert!(e.observe(i * SEC, &RegistrySnapshot::default()).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "window_us > 0")]
    fn zero_window_rate_rule_is_rejected() {
        AlertEngine::new(vec![AlertRule::new(
            "inert",
            "x",
            RuleKind::RateAbove { delta: 1 },
            0,
        )]);
    }
}
