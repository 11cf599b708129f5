//! Live monitoring-node server (§3.6, §3.8).
//!
//! The operational half of the paper's monitoring story: one process
//! that (a) scrapes every registered admin endpoint's `/metrics` on an
//! interval, aggregates the fleet into a single
//! [`RegistrySnapshot`], (b) accepts §3.6 problem reports pushed by
//! peer daemons over the framed protocol, and (c) evaluates an
//! [`AlertEngine`] — the same engine the hybrid simulator runs over
//! virtual time — against the merged state, so "automated alerts ...
//! notify network engineers in case of large-scale problems" (§3.8).
//!
//! Per-target liveness is tracked as `monitor.up.<name>` gauges (1 =
//! last scrape succeeded): the stock rule set raises
//! `<name>-unreachable` the moment a scrape fails and clears it on the
//! first success after recovery. The monitor exposes its own admin
//! endpoint, so the fleet view is itself scrapeable.

use crate::framing::{debug_assert_nodelay, read_msg, wall_now, AcceptLoop};
use crate::http::{http_get, AdminEndpoint, HttpResponse};
use netsession_core::error::Result;
use netsession_core::msg::MonitorMsg;
use netsession_obs::{
    parse_prometheus, render_prometheus, AlertEngine, AlertEvent, AlertRule, MetricsRegistry,
    RegistrySnapshot, RuleKind,
};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One scrape target: a live server's admin endpoint.
#[derive(Clone, Debug)]
pub struct MonitorTarget {
    /// Stable name; becomes the `monitor.up.<name>` gauge and the
    /// `<name>-unreachable` rule.
    pub name: String,
    /// The target's admin (HTTP) address.
    pub admin_addr: SocketAddr,
}

impl MonitorTarget {
    /// Convenience constructor.
    pub fn new(name: &str, admin_addr: SocketAddr) -> MonitorTarget {
        MonitorTarget {
            name: name.to_string(),
            admin_addr,
        }
    }
}

/// The stock rule set: one `<name>-unreachable` threshold rule per
/// target (fires on the first failed scrape, clears on recovery) plus a
/// `problem-burst` rate rule over pushed §3.6 problem reports (10
/// within a minute).
pub fn default_rules(targets: &[MonitorTarget]) -> Vec<AlertRule> {
    let mut rules: Vec<AlertRule> = targets
        .iter()
        .map(|t| {
            AlertRule::new(
                &format!("{}-unreachable", t.name),
                &format!("monitor.up.{}", t.name),
                RuleKind::GaugeBelow { limit: 1 },
                0,
            )
        })
        .collect();
    rules.push(AlertRule::new(
        "problem-burst",
        "monitor.problems.total",
        RuleKind::RateAbove { delta: 10 },
        60_000_000,
    ));
    rules
}

struct MonShared {
    targets: Vec<MonitorTarget>,
    /// The monitor's own instruments: per-target `monitor.up.*` gauges,
    /// pushed `monitor.problems.*` counters, scrape bookkeeping.
    metrics: MetricsRegistry,
    /// Last aggregated fleet snapshot (merged target scrapes + own
    /// instruments) — what `/metrics` serves.
    fleet: Mutex<RegistrySnapshot>,
    engine: Mutex<AlertEngine>,
}

impl MonShared {
    /// One scrape round: poll every target, merge, evaluate rules.
    fn scrape_round(&self) {
        let mut fleet = RegistrySnapshot::default();
        for target in &self.targets {
            let up_gauge = self.metrics.gauge(&format!("monitor.up.{}", target.name));
            match http_get(target.admin_addr, "/metrics", Duration::from_secs(1)) {
                Ok((200, body)) => match parse_prometheus(&body) {
                    Ok(snap) => {
                        up_gauge.set(1);
                        fleet.merge(&snap);
                    }
                    Err(_) => {
                        up_gauge.set(0);
                        self.metrics.counter("monitor.scrape_errors").incr();
                    }
                },
                _ => {
                    up_gauge.set(0);
                    self.metrics.counter("monitor.scrape_errors").incr();
                }
            }
        }
        self.metrics.counter("monitor.scrapes").incr();
        // The monitor's own instruments ride along so rules can watch
        // target liveness and pushed problem reports too.
        fleet.merge(&self.metrics.scrape());
        self.engine
            .lock()
            .unwrap()
            .observe(wall_now().as_micros(), &fleet);
        *self.fleet.lock().unwrap() = fleet;
    }
}

/// A running monitoring node.
pub struct MonitorServer {
    accept: AcceptLoop,
    shared: Arc<MonShared>,
    stop: Arc<AtomicBool>,
    admin: AdminEndpoint,
}

impl MonitorServer {
    /// Start on `addr` (framed listener for pushed problem reports),
    /// scraping `targets` every `interval` and evaluating `rules`
    /// (typically [`default_rules`]). The admin endpoint binds an
    /// ephemeral loopback port.
    pub fn start(
        addr: &str,
        targets: Vec<MonitorTarget>,
        interval: Duration,
        rules: Vec<AlertRule>,
    ) -> Result<MonitorServer> {
        let shared = Arc::new(MonShared {
            targets,
            metrics: MetricsRegistry::new(),
            fleet: Mutex::new(RegistrySnapshot::default()),
            engine: Mutex::new(AlertEngine::new(rules)),
        });
        let stop = Arc::new(AtomicBool::new(false));

        // Problem-report listener: short-lived framed connections.
        let shared_for_accept = shared.clone();
        let accept = AcceptLoop::bind(addr, move |stream| {
            let shared = shared_for_accept.clone();
            std::thread::spawn(move || receive_problems(stream, shared));
        })?;

        // Scrape loop.
        let stop_for_scrape = stop.clone();
        let shared_for_scrape = shared.clone();
        std::thread::spawn(move || {
            while !stop_for_scrape.load(Ordering::Relaxed) {
                shared_for_scrape.scrape_round();
                // Sleep in slices so shutdown stays responsive.
                let end = std::time::Instant::now() + interval;
                while std::time::Instant::now() < end && !stop_for_scrape.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        });

        let admin = {
            let shared = shared.clone();
            AdminEndpoint::start("127.0.0.1:0", move |path| match path {
                "/metrics" => Some(HttpResponse::text(render_prometheus(
                    &shared.fleet.lock().unwrap(),
                ))),
                "/healthz" => {
                    let engine = shared.engine.lock().unwrap();
                    let active: Vec<String> =
                        engine.active().iter().map(|n| format!("\"{n}\"")).collect();
                    Some(HttpResponse::json(format!(
                        "{{\"status\":\"ok\",\"component\":\"monitor\",\"targets\":{},\
                         \"scrapes\":{},\"active_alerts\":[{}]}}",
                        shared.targets.len(),
                        shared.metrics.counter("monitor.scrapes").get(),
                        active.join(",")
                    )))
                }
                "/varz" => Some(HttpResponse::json(shared.metrics.full_snapshot_json())),
                _ => None,
            })?
        };
        Ok(MonitorServer {
            accept,
            shared,
            stop,
            admin,
        })
    }

    /// Where peers push problem reports (framed protocol).
    pub fn local_addr(&self) -> SocketAddr {
        self.accept.local_addr()
    }

    /// Where the admin (HTTP) endpoint listens.
    pub fn admin_addr(&self) -> SocketAddr {
        self.admin.local_addr()
    }

    /// The monitor's own instruments (per-target `monitor.up.*`,
    /// `monitor.problems.*`, scrape counters).
    pub fn metrics(&self) -> MetricsRegistry {
        self.shared.metrics.clone()
    }

    /// Last aggregated fleet snapshot.
    pub fn fleet_snapshot(&self) -> RegistrySnapshot {
        self.shared.fleet.lock().unwrap().clone()
    }

    /// Completed scrape rounds.
    pub fn scrapes(&self) -> u64 {
        self.shared.metrics.counter("monitor.scrapes").get()
    }

    /// Names of currently firing alerts.
    pub fn active_alerts(&self) -> Vec<String> {
        self.shared
            .engine
            .lock()
            .unwrap()
            .active()
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    /// Every raise/clear transition so far.
    pub fn alert_log(&self) -> Vec<AlertEvent> {
        self.shared.engine.lock().unwrap().log().to_vec()
    }

    /// Stop scraping and accepting reports.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// Drain one problem-report connection.
fn receive_problems(mut stream: TcpStream, shared: Arc<MonShared>) {
    debug_assert_nodelay(&stream);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    while let Ok(Some(msg)) = read_msg::<_, MonitorMsg>(&mut stream) {
        let MonitorMsg::Problem { guid, kind, detail } = msg;
        shared.metrics.counter("monitor.problems.total").incr();
        shared
            .metrics
            .counter(&format!("monitor.problems.{}", kind.label()))
            .incr();
        shared
            .metrics
            .record_event_with(wall_now().as_micros(), "monitor", kind.label(), || {
                format!("guid={:016x} {detail}", guid.0 as u64)
            });
    }
}
